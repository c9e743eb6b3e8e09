"""Command-line surface: gen, train, predict, score, gradcheck, experiment.

All commands take `--config <path>` (JSON, deep-merged over built-in
defaults), `--seed <int>`, and repeated `--set key.path=value`
overrides.  Relative output paths resolve against the config "outdir"
key or the EVCOREF_OUTDIR environment variable.  Every emitted artifact
records the hash of the effective configuration.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys

from .corpus import (
    DEFAULT_SCHEMA_SPEC,
    DEFAULT_TEST_ACCURACY,
    DEFAULT_TRAIN_ACCURACY,
    FeatureSchema,
    GenConfig,
    gold_clustering,
    load_corpus,
    load_schema,
    save_corpus,
)
from .encoder import build_vocab
from .experiment import (
    DEFAULT_DOC_COUNTS,
    VARIANTS,
    ExperimentSpec,
    format_experiment_table,
    make_corpora,
    run_experiment,
)
from .inference import load_clusterings, predict_corpus, save_clusterings
from .metrics import corpus_report, format_report
from .model import CorefModel, Dims, config_hash, schema_hash
from .training import (
    DEFAULT_NOISE_EPS,
    NoiseConfig,
    TrainConfig,
    full_model_grad_check,
    gradcheck_instance,
    train,
    warm_to_loss,
)

DEFAULT_CONFIG = {
    "seed": 1,
    "outdir": None,
    "mode": "cdgm",
    "schema": dict(DEFAULT_SCHEMA_SPEC),
    "dims": {"d": 64, "l": 16, "p": 32, "w": 2},
    "paths": {
        "train": "train.jsonl",
        "dev": "dev.jsonl",
        "test": "test.jsonl",
        "train_true": "train_true.jsonl",
        "dev_true": "dev_true.jsonl",
        "test_true": "test_true.jsonl",
        "train_key": "train_key.jsonl",
        "dev_key": "dev_key.jsonl",
        "test_key": "test_key.jsonl",
        "manifest": "gen_manifest.json",
        "model": "model.json",
        "history": "history.json",
        "predictions": "predictions.jsonl",
        "report": "report.json",
        "experiment": "experiment.json",
    },
    "gen": {
        "docs": dict(DEFAULT_DOC_COUNTS),
        "tokens": [30, 60],
        "mentions": [4, 8],
        "clusters": [2, 4],
        "vocab_size": 120,
        "ambiguity": 0.5,
        "train_accuracy": dict(DEFAULT_TRAIN_ACCURACY),
        "test_accuracy": dict(DEFAULT_TEST_ACCURACY),
    },
    "train": {"lower_lr": 1e-3, "upper_lr": 2.5e-3, "batch_size": 8, "epochs": 16, "noise": True},
    "noise": dict(DEFAULT_NOISE_EPS),
    "gradcheck": {"dims": {"d": 8, "l": 4, "p": 6, "w": 1}, "features": 2, "step": 1e-5, "tol": 1e-4},
    "experiment": {"variants": list(VARIANTS), "seeds": [1, 2, 3, 4, 5]},
}


# Maps keyed by feature or split name: any key is accepted below them.
FREE_FORM = {("schema",), ("noise",), ("gen", "docs"), ("gen", "train_accuracy"), ("gen", "test_accuracy")}


def check_keys(override, base=DEFAULT_CONFIG, path=()):
    """Raise ValueError naming the first dotted path of ``override`` that DEFAULT_CONFIG lacks."""
    for key, value in override.items():
        where = path + (key,)
        if not isinstance(base, dict) or key not in base:
            raise ValueError(f"unknown config key {'.'.join(where)!r}")
        if where not in FREE_FORM and isinstance(value, dict):
            check_keys(value, base[key], where)


def deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def apply_set(cfg, assignment):
    if "=" not in assignment:
        raise ValueError(f"--set needs key=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = dotted.split(".")
    nested = value
    for part in reversed(parts):
        nested = {part: nested}
    check_keys(nested)
    node = cfg
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def effective_config(args):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            override = json.load(fh)
        check_keys(override)
        cfg = deep_merge(cfg, override)
    for assignment in args.set or []:
        apply_set(cfg, assignment)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def outdir_of(cfg):
    return cfg.get("outdir") or os.environ.get("EVCOREF_OUTDIR") or "."


def hash_config(cfg):
    """Provenance hash of the effective config; the output dir is incidental."""
    return config_hash({k: v for k, v in cfg.items() if k != "outdir"})


def resolve(cfg, name):
    path = cfg["paths"][name]
    if os.path.isabs(path):
        return path
    base = outdir_of(cfg)
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, path)


def schema_of(cfg):
    spec = cfg["schema"]
    if isinstance(spec, str):  # path to a schema JSON file
        return load_schema(spec if os.path.isabs(spec) else os.path.join(outdir_of(cfg), spec))
    return FeatureSchema.from_dict(spec)


def _typed(cfg, path, what, ok):
    """The value at ``path``, or a ValueError naming the key when ``ok(value)`` fails; nothing is coerced.

    ``path`` is a dotted key, or the tuple of its parts when a part (a feature name) may hold a dot.
    """
    parts = path.split(".") if isinstance(path, str) else path
    value = cfg
    for part in parts:
        value = value[part]
    if not ok(value):
        raise ValueError(f"config key {'.'.join(map(str, parts))!r} must be {what}, got {json.dumps(value)}")
    return value


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def config_int(cfg, dotted):
    return _typed(cfg, dotted, "an integer", _is_int)


def config_number(cfg, dotted):
    return float(_typed(cfg, dotted, "a number", lambda v: _is_int(v) or isinstance(v, float)))


def config_flag(cfg, dotted):
    return _typed(cfg, dotted, "true or false", lambda v: isinstance(v, bool))


def _is_range(v):
    return isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))


def config_range(cfg, dotted):
    return tuple(_typed(cfg, dotted, "a list of two integers", _is_range))


def config_list(cfg, dotted, read):
    """The list at ``dotted``, each item read by ``read`` under its index, e.g. ``experiment.seeds.0``."""
    items = _typed(cfg, dotted, "a list", lambda v: isinstance(v, list))
    return tuple(read(cfg, (*dotted.split("."), n)) for n in range(len(items)))


def config_map(cfg, dotted, read):
    """The map at ``dotted``, each value read by ``read`` under its own key, e.g. ``gen.docs.train``."""
    items = _typed(cfg, dotted, "an object", lambda v: isinstance(v, dict))
    return {key: read(cfg, (*dotted.split("."), key)) for key in items}


def gen_config_of(cfg, n_docs=0):
    return GenConfig(
        n_docs=n_docs,
        tokens=config_range(cfg, "gen.tokens"),
        mentions=config_range(cfg, "gen.mentions"),
        clusters=config_range(cfg, "gen.clusters"),
        vocab_size=config_int(cfg, "gen.vocab_size"),
        ambiguity=config_number(cfg, "gen.ambiguity"),
        train_accuracy=config_map(cfg, "gen.train_accuracy", config_number),
        test_accuracy=config_map(cfg, "gen.test_accuracy", config_number),
        seed=config_int(cfg, "seed"),
    )


def dims_of(cfg, key="dims"):
    return Dims(**{name: config_int(cfg, f"{key}.{name}") for name in ("d", "l", "p", "w")})


def train_config_of(cfg):
    return TrainConfig(
        lower_lr=config_number(cfg, "train.lower_lr"),
        upper_lr=config_number(cfg, "train.upper_lr"),
        batch_size=config_int(cfg, "train.batch_size"),
        epochs=config_int(cfg, "train.epochs"),
        seed=config_int(cfg, "seed"),
        noise=config_flag(cfg, "train.noise"),
    )


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def cmd_gen(cfg):
    schema = schema_of(cfg)
    gen = gen_config_of(cfg)
    counts = config_map(cfg, "gen.docs", config_int)
    corpora = make_corpora(gen, schema, counts, gen.seed)
    for split, (true_docs, observed) in corpora.items():
        save_corpus(observed, schema, resolve(cfg, split))
        save_corpus(true_docs, schema, resolve(cfg, f"{split}_true"))
        save_clusterings({d.doc_id: gold_clustering(d) for d in observed}, resolve(cfg, f"{split}_key"))
    write_json(
        {"seed": cfg["seed"], "config_hash": hash_config(cfg), "counts": counts,
         "schema_hash": schema_hash(schema)},
        resolve(cfg, "manifest"),
    )
    total = sum(counts.values())
    print(f"gen: wrote {total} documents across {sorted(counts)} to {outdir_of(cfg)}")
    return 0


def cmd_train(cfg):
    schema = schema_of(cfg)
    train_docs = load_corpus(resolve(cfg, "train"), schema)
    dev_docs = load_corpus(resolve(cfg, "dev"), schema)
    vocab = build_vocab(train_docs + dev_docs)
    model = CorefModel(
        schema, vocab, cfg["mode"], dims_of(cfg), seed=config_int(cfg, "seed"),
        extra_meta={"config_hash": hash_config(cfg)},
    )
    tcfg = train_config_of(cfg)
    noise = NoiseConfig.for_schema(schema, config_map(cfg, "noise", config_number)) if tcfg.noise else None
    history = train(model, train_docs, tcfg, noise=noise, dev_docs=dev_docs)
    model.save(resolve(cfg, "model"))
    write_json({"config_hash": hash_config(cfg), **history.to_dict()}, resolve(cfg, "history"))
    dev = f", best dev AVG {max(history.dev_avg):.4f}" if history.dev_avg else ""
    print(f"train: {tcfg.epochs} epochs on {len(train_docs)} documents{dev}")
    return 0


def cmd_predict(cfg, drop_singletons=False):
    model = CorefModel.load(resolve(cfg, "model"))
    if schema_hash(schema_of(cfg)) != schema_hash(model.schema):
        raise ValueError("schema mismatch between config and model file")
    docs = load_corpus(resolve(cfg, "test"), model.schema)
    out_path = resolve(cfg, "predictions")
    save_clusterings(predict_corpus(model, docs, drop_singletons=drop_singletons), out_path)
    write_json({"config_hash": hash_config(cfg), "documents": len(docs)}, out_path + ".manifest.json")
    print(f"predict: wrote clusters for {len(docs)} documents to {out_path}")
    return 0


def cmd_score(cfg, key_path, response_path):
    base = outdir_of(cfg)
    key_path = key_path if os.path.isabs(key_path) else os.path.join(base, key_path)
    response_path = response_path if os.path.isabs(response_path) else os.path.join(base, response_path)
    keys = load_clusterings(key_path)
    responses = load_clusterings(response_path)
    report = corpus_report(keys, responses)
    write_json(
        {"config_hash": hash_config(cfg), "key": os.path.basename(key_path),
         "response": os.path.basename(response_path), **report.to_dict()},
        resolve(cfg, "report"),
    )
    print(format_report(report))
    return 0


def cmd_gradcheck(cfg, corrupt=None):
    schema = schema_of(cfg)
    k = config_int(cfg, "gradcheck.features")
    sub_schema = FeatureSchema(schema.features[:k])
    seed = config_int(cfg, "seed")
    doc = gradcheck_instance(sub_schema, seed=seed)
    model = CorefModel(sub_schema, build_vocab([doc]), cfg["mode"], dims_of(cfg, "gradcheck.dims"), seed=seed)
    warm_to_loss(model, doc)
    report = full_model_grad_check(model, doc, step=config_number(cfg, "gradcheck.step"),
                                   tol=config_number(cfg, "gradcheck.tol"), corrupt=corrupt)
    for name in sorted(report.errors):
        print(f"block {name} rel_err {report.errors[name]:.3e}")
    present = {p.name for p in model.parameters()}
    for name, _ in schema.features:
        for family in (f"embed.{name}", f"pair.u.{name}", f"pair.g.{name}"):
            if family not in present:
                print(f"skipped {family} (not present in this configuration)")
    verdict = "PASS" if report.ok else "FAIL"
    print(f"worst {report.worst:.3e} tol {report.tol:g} -> {verdict}")
    return 0 if report.ok else 1


def cmd_experiment(cfg):
    exp = cfg["experiment"]
    spec = ExperimentSpec(
        schema=schema_of(cfg),
        gen=gen_config_of(cfg),
        dims=dims_of(cfg),
        train=train_config_of(cfg),
        noise_table=config_map(cfg, "noise", config_number),
        variants=tuple(exp["variants"]),
        seeds=config_list(cfg, "experiment.seeds", config_int),
        doc_counts=config_map(cfg, "gen.docs", config_int),
    )
    result = run_experiment(spec)
    result["config_hash"] = hash_config(cfg)
    write_json(result, resolve(cfg, "experiment"))
    print(format_experiment_table(result))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="evcoref", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "generate synthetic train/dev/test corpora"),
        ("train", "train a model and checkpoint the best dev epoch"),
        ("predict", "decode clusters for a corpus with a saved model"),
        ("score", "score a response clustering file against a key"),
        ("gradcheck", "finite-difference check of the full model gradient"),
        ("experiment", "run the seeded ablation grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config merged over defaults")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="dotted config override")
        if name == "predict":
            p.add_argument("--drop-singletons", action="store_true",
                           help="omit single-mention clusters from the response")
        if name == "score":
            p.add_argument("--key", required=True)
            p.add_argument("--response", required=True)
        if name == "gradcheck":
            p.add_argument("--corrupt", help=argparse.SUPPRESS)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = effective_config(args)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, drop_singletons=args.drop_singletons)
        if args.command == "score":
            return cmd_score(cfg, args.key, args.response)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, corrupt=args.corrupt)
        if args.command == "experiment":
            return cmd_experiment(cfg)
        raise ValueError(f"unknown command {args.command!r}")
    except Exception as exc:  # one-line machine-parsable diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
