"""The evcoref benchmark's workloads; one repetition per fresh process.

    python3 benchmarks/workloads.py --workload grid --seed 1 --trace 0 \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"

runs one repetition and prints one JSON record as its last line.
``benchmarks/run.py`` starts these processes and aggregates their
records.  Every repetition starts cold, as each ``evcoref`` command
does: a second pass over the same long documents in one process runs
about 3x faster, because the allocator is already warm.

Workloads (single process, no threads of their own; OpenBLAS keeps its
default thread count):

``grid``
    ``run_experiment`` over all five ``VARIANTS`` on one seed's default
    corpora: 100/16/40 documents of 4-8 mentions, ``Dims()``, 16 epochs,
    dev checkpointing, test scoring.  This is acceptance criterion 08 for
    one seed, the paper's experiment, and most of the test suite's time.
    Thousands of small tapes make it interpreter-bound.  It is the only
    workload with the baseline and simple modes and the experiment
    layer.
``long-predict``
    Forward only.  Set-up trains a cdgm+noise model for 4 epochs on the
    default short corpus; the timed part runs ``predict_corpus`` and
    ``corpus_report`` on 12 long documents (32-160 mentions) drawn with
    the default 120-word vocabulary, so the model's vocabulary covers
    them.  Pair cost is quadratic and no loss, backward or Adam step
    runs, so a change to training leaves it alone while no-grad, chunked
    or pruned scoring shows here.
``long-train``
    ``train`` cdgm+noise from scratch, noise on, no dev split, one epoch
    over 8 long documents (32-128 mentions): the pair model with
    backward, so it writes where long-predict only reads.  A
    predict-only change must show no cost here.  After training, 32
    held-out long documents are predicted and scored; that step is
    timed apart from ``wall_s``.

Memory: each tape is a reference cycle (``Node.tape`` and
``Tape._record``), so only the cyclic collector frees it and finished
tapes pile up between collections.  Over 8 long documents the
tracemalloc peak was 1227 MiB, against 235 MiB with a collection per
document, and training reached a max RSS of 3.2 GiB at 12 documents x 2
epochs and 5.3 GiB at 24 x 2 on an 8 GiB machine.  So mention counts
stop at 160 (predict) and 128 (train), below the 256 the scaling study
would like, and the long workloads keep few documents: 8 training
steps on long documents already reach about 2.1 GiB.  The defect still
shows: ``peak_rss_mib`` is several times what the traced run's per-pair
peaks give for the largest document.  Between phases that ``evcoref``
runs as separate commands (train, then predict) the benchmark collects
garbage, as a new process would start clean.

Long documents take their mention and cluster counts evenly spread over
the ranges instead of at random.  At random, the quadratic pair count,
and with it time and memory, swings several-fold between seeds, and so
does the loss; spread evenly, the size profile is fixed and the seed
varies only the content.

``predict_pairs_per_s`` divides the pairs of the documents handed to
``predict_corpus`` (on the grid, the test predictions) by the call's
time minus the cyclic collector's pauses inside it.  On the grid those
pauses were 30-43% of predict time, landed at random and mostly swept
the training tapes around the call; ``wall_s`` keeps them, and the
traced run reports them as ``autodiff.gc_s``.

``train_loss`` is the mean document loss of the first epoch.  The last
epoch's, once the grid's model has converged, ranged from 0.03 to 0.65
over seeds 1-10, set by a few noisy documents, which no regression bound
can hold.  On long-train, one epoch from scratch leaves the model
linking almost nothing, so its test scores are those of the held-out
set's all-singleton answer: they guard decoding and scoring, not
learning.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import evcoref  # noqa: E402
from evcoref import experiment, inference, metrics, training  # noqa: E402
from evcoref.autodiff import Tape  # noqa: E402
from evcoref.corpus import FeatureSchema, GenConfig, gold_clustering  # noqa: E402
from evcoref.encoder import build_vocab  # noqa: E402
from evcoref.model import CorefModel, Dims  # noqa: E402
from evcoref.training import TrainConfig  # noqa: E402

from tracer import Tracer, clock, layer_metrics  # noqa: E402

SCHEMA = FeatureSchema.default()
NOISE = training.NoiseConfig.for_schema(SCHEMA)
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; the smoke test shrinks them."""

    docs: dict = field(default_factory=lambda: dict(experiment.DEFAULT_DOC_COUNTS))
    epochs: int = 16
    setup_epochs: int = 4
    dims: Dims = Dims()
    long_tokens: tuple = (480, 800)
    long_clusters: tuple = (8, 24)
    predict_docs: int = 12
    predict_mentions: tuple = (32, 160)
    train_docs: int = 8
    train_mentions: tuple = (32, 128)
    train_epochs: int = 1
    heldout_docs: int = 32


def pairs(doc):
    k = len(doc.mentions)
    return k * (k - 1) // 2


def partition_ok(clusters, doc):
    """True when ``clusters`` split the document's mentions exactly once each."""
    members = [m for c in clusters for m in c]
    return all(clusters) and sorted(members) == list(range(len(doc.mentions)))


def bad_predictions(predictions, docs):
    return sum(not partition_ok(predictions.get(d.doc_id, []), d) for d in docs)


def finite(*values):
    return all(math.isfinite(v) for v in values)


class SetupDone(Exception):
    """Raised at the end of set-up when only set-up is measured."""


class Run:
    """Marks when set-up ends and the window closes; times the collector.

    Collector pauses are counted from ``gc.callbacks``, leaving out the
    collections the benchmark itself asks for between phases.
    """

    def __init__(self, setup_only=False):
        self.setup_only = setup_only
        self.ready_at = self.done_at = self.ready_wall = None
        self.gc_count = 0
        self.gc_seconds = 0.0
        self._gc_started = 0.0
        self._own_collect = False
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info):
        if self._own_collect:
            return
        if phase == "start":
            self._gc_started = clock()
        else:
            self.gc_count += 1
            self.gc_seconds += clock() - self._gc_started

    def close(self):
        gc.callbacks.remove(self._on_gc)

    def collect(self):
        """Free set-up garbage, as a separate ``evcoref`` process would."""
        self._own_collect = True
        try:
            gc.collect()
        finally:
            self._own_collect = False

    def ready(self):
        self.ready_wall = time.clock_gettime(time.CLOCK_MONOTONIC)
        if self.setup_only:
            raise SetupDone
        self._gc_at_ready = (self.gc_count, self.gc_seconds)
        self.ready_at = clock()

    def done(self):
        self.done_at = clock()
        self.gc_collections = self.gc_count - self._gc_at_ready[0]
        self.gc_window_s = self.gc_seconds - self._gc_at_ready[1]

    @contextmanager
    def timed(self, seconds):
        """Append (wall seconds, wall seconds minus collector pauses) of the block."""
        t0, g0 = clock(), self.gc_seconds
        yield
        dt = clock() - t0
        seconds.append((dt, dt - (self.gc_seconds - g0)))


@contextmanager
def metered(owner, attr, calls, run):
    """Keep (args, result, seconds, seconds minus collector pauses) of each call of ``owner.attr``."""
    original = getattr(owner, attr)

    def call(*args, **kwargs):
        times = []
        with run.timed(times):
            out = original(*args, **kwargs)
        calls.append((args, out, *times[0]))
        return out

    setattr(owner, attr, call)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def long_docs(split, n, mentions, sizes, seed):
    """``n`` observed documents with mention counts spread evenly over ``mentions``."""
    lo, hi = mentions
    c_lo, c_hi = sizes.long_clusters
    docs = []
    for i in range(n):
        k = lo + round((hi - lo) * i / max(n - 1, 1))
        # Cluster counts cover their range too, in an order unrelated to k.
        c = c_lo + round((c_hi - c_lo) * (i * GOLDEN % 1.0))
        gen = GenConfig(tokens=sizes.long_tokens, mentions=(k, k), clusters=(c, c))
        # One generator seed per document, so each draws its own stream.
        observed = experiment.make_corpora(gen, SCHEMA, {split: 1}, seed * 1000 + i)[split][1]
        docs.append(replace(observed[0], doc_id=f"{split}-long{i:03d}"))
    return docs


def train_short_model(sizes, seed):
    """A cdgm+noise model trained briefly on the default short training corpus."""
    docs = experiment.make_corpora(GenConfig(), SCHEMA, {"train": sizes.docs["train"]}, seed)["train"][1]
    model = CorefModel(SCHEMA, build_vocab(docs), "cdgm", sizes.dims, seed=seed)
    config = TrainConfig(epochs=sizes.setup_epochs, seed=seed, noise=True)
    t0 = clock()
    history = training.train(model, docs, config, noise=NOISE)
    rate = len(docs) * config.epochs / (clock() - t0)
    return model, history, rate


def grid(sizes, seed, run):
    spec = experiment.ExperimentSpec(
        schema=SCHEMA, gen=GenConfig(), dims=sizes.dims, train=TrainConfig(epochs=sizes.epochs),
        seeds=(seed,), doc_counts=dict(sizes.docs))
    trains, predicts, wall = [], [], []
    with metered(experiment, "train", trains, run), metered(experiment, "predict_corpus", predicts, run):
        run.ready()
        with run.timed(wall):
            result = experiment.run_experiment(spec)
        run.done()

    failed, failures = 0, []
    for (model, docs, config), history, *_ in trains:
        if not finite(*history.epoch_loss):
            failed += len(docs)
            failures.append(f"non-finite loss training {model.mode} noise={config.noise}")
        if model.mode == "cdgm" and config.noise:
            train_loss, probe_model, probe_docs = history.epoch_loss[0], model, docs
    for (model, docs), predictions, *_ in predicts:
        bad = bad_predictions(predictions, docs)
        if bad:
            failed += bad
            failures.append(f"{bad} predictions of a {model.mode} model are not partitions")
    best = result["summary"]["cdgm+noise"]
    return {
        # run.py checks criterion 08's ordering on these, averaged over draws.
        "variant_avg": {v: s["avg"] for v, s in result["summary"].items()},
        "wall_s": wall[0][0],
        "train_docs_per_s": sum(len(a[1]) * a[2].epochs for a, *_ in trains)
        / sum(seconds for _, _, seconds, _ in trains),
        "predict_pairs_per_s": sum(sum(pairs(d) for d in a[1]) for a, *_ in predicts)
        / sum(busy for *_, busy in predicts),
        "test_avg": best["avg"],
        "test_conll": best["conll"],
        "train_loss": train_loss,
        "attempted": sum(len(a[1]) for a, *_ in trains) + sum(len(a[1]) for a, *_ in predicts),
        "failed": failed,
        "failures": failures,
        "probe": (probe_model, max(probe_docs, key=pairs)),
    }


def long_predict(sizes, seed, run):
    model, history, train_rate = train_short_model(sizes, seed)
    docs = long_docs("test", sizes.predict_docs, sizes.predict_mentions, sizes, seed)
    keys = {d.doc_id: gold_clustering(d) for d in docs}
    run.collect()
    run.ready()
    wall, predict = [], []
    with run.timed(wall):
        with run.timed(predict):
            predictions = inference.predict_corpus(model, docs)
        report = metrics.corpus_report(keys, predictions)
    run.done()
    bad = bad_predictions(predictions, docs)
    return {
        "wall_s": wall[0][0],
        # No training in the timed part: these two describe set-up's.
        "train_docs_per_s": train_rate,
        "train_loss": history.epoch_loss[0],
        "predict_pairs_per_s": sum(pairs(d) for d in docs) / predict[0][1],
        "test_avg": report.avg,
        "test_conll": report.conll,
        "attempted": len(docs),
        "failed": bad,
        "failures": [f"{bad} predictions are not partitions"] if bad else [],
        "probe": (model, max(docs, key=pairs)),
    }


def long_train(sizes, seed, run):
    docs = long_docs("train", sizes.train_docs, sizes.train_mentions, sizes, seed)
    heldout = long_docs("test", sizes.heldout_docs, sizes.train_mentions, sizes, seed)
    model = CorefModel(SCHEMA, build_vocab(docs), "cdgm", sizes.dims, seed=seed)
    keys = {d.doc_id: gold_clustering(d) for d in heldout}
    config = TrainConfig(epochs=sizes.train_epochs, seed=seed, noise=True)
    run.collect()
    run.ready()
    spent = []
    with run.timed(spent):
        history = training.train(model, docs, config, noise=NOISE)
    run.collect()
    with run.timed(spent):
        predictions = inference.predict_corpus(model, heldout)
    report = metrics.corpus_report(keys, predictions)
    run.done()
    (train_s, _), (_, predict_busy) = spent
    failed, failures = bad_predictions(predictions, heldout), []
    if failed:
        failures.append(f"{failed} held-out predictions are not partitions")
    if not finite(*history.epoch_loss):
        failed += len(docs)
        failures.append("non-finite training loss")
    return {
        "wall_s": train_s,
        "train_docs_per_s": len(docs) * config.epochs / train_s,
        "train_loss": history.epoch_loss[0],
        "predict_pairs_per_s": sum(pairs(d) for d in heldout) / predict_busy,
        "test_avg": report.avg,
        "test_conll": report.conll,
        "attempted": len(docs) + len(heldout),
        "failed": failed,
        "failures": failures,
        "probe": (model, max(docs, key=pairs)),
    }


RUNNERS = {"grid": grid, "long-predict": long_predict, "long-train": long_train}


def planned_docs(workload, sizes):
    """Documents a repetition attempts; all count as failed if it raises."""
    if workload == "grid":
        return len(experiment.VARIANTS) * (sizes.docs["train"] + sizes.docs["test"])
    if workload == "long-predict":
        return sizes.predict_docs
    return sizes.train_docs + sizes.heldout_docs


# Traced calls each workload's timed part must make, and must not make.
# A wrapper that never fires means the package renamed or stopped
# calling something, and its layer would silently read 0 s.
_SHARED = {
    "inference.predict_corpus", "inference.score", "inference.decode", "inference.clusters",
    "pair_model.score_document", "pair_model.trigger_pair", "pair_model.feature_pair",
    "pair_model.cdgm", "pair_model.score_pair", "encoder.encode_tokens", "encoder.trigger_reprs",
    "encoder.feature_rows", "metrics.muc", "metrics.b3", "metrics.ceaf_e", "metrics.blanc",
}
_TRAINING = {"training.train", "training.noise", "training.loss", "training.adam", "autodiff.backward"}
_EXPERIMENT = {"experiment." + v for v in experiment.VARIANTS}
REQUIRED = {
    "grid": _SHARED | _TRAINING | _EXPERIMENT | {"training.dev_eval", "corpus.generate_corpus",
                                                 "corpus.corrupt_features"},
    "long-predict": _SHARED,
    "long-train": _SHARED | _TRAINING,
}
FORBIDDEN = {
    "grid": set(),
    "long-predict": _TRAINING | _EXPERIMENT | {"training.dev_eval"},
    "long-train": _EXPERIMENT | {"training.dev_eval"},
}


def trace_failures(workload, fired):
    """Name every required span that never fired and every forbidden one that did."""
    missing = sorted(REQUIRED[workload] - fired)
    extra = sorted(FORBIDDEN[workload] & fired)
    if missing or extra:
        return [f"{workload}: traced calls missing {missing}, unexpected {extra}; "
                "a wrapped function was renamed or its callers changed"]
    return []


def memory_probe(model, doc):
    """tracemalloc peaks, in KiB per pair, of scoring one document and of one training step."""
    n = pairs(doc)
    gc.collect()
    tracemalloc.start()
    try:
        inference.score_document(doc, model)
        score_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        gc.collect()
        tracemalloc.start()
        tape = Tape()
        tape.backward(training.document_loss_node(doc, model, tape))
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        model.zero_grads()
    return {"inference.score_peak_kib_per_pair": score_peak / 1024 / n,
            "training.step_peak_kib_per_pair": step_peak / 1024 / n}


def machine_info():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of the OpenBLAS this process loaded, or None."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def run_child(workload, seed, trace, spawned_at, sizes=Sizes(), spans_path=None, setup_only=False):
    """One repetition in this process; returns its JSON-ready record.

    ``spawned_at`` is the CLOCK_MONOTONIC reading taken just before this
    process was started, so ``setup_s`` covers interpreter start-up and
    imports too.  With ``setup_only`` the record holds ``setup_s`` alone.
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(evcoref)
    run = Run(setup_only)
    record = {"workload": workload, "seed": seed, "trace": bool(trace), "failures": [],
              "attempted": 0, "failed": 0}
    try:
        out = RUNNERS[workload](sizes, seed, run)
    except SetupDone:
        record["setup_s"] = run.ready_wall - spawned_at
        return record
    except Exception as exc:  # a failed repetition is reported, not fatal
        traceback.print_exc()
        n = planned_docs(workload, sizes)
        record.update(attempted=n, failed=n, failures=[f"{type(exc).__name__}: {exc}"])
        return record
    finally:
        run.close()
        if tracer is not None:
            tracer.uninstall()
    probe = out.pop("probe")
    record.update(out)
    record["setup_s"] = run.ready_wall - spawned_at
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["gc_collections"] = run.gc_collections
    record["gc_s"] = run.gc_window_s
    for name in ("wall_s", "train_docs_per_s", "predict_pairs_per_s", "test_avg", "test_conll",
                 "train_loss"):
        if not finite(record[name]):
            record["failures"].append(f"{name} is not finite")
    if tracer is not None:
        summary = tracer.summarize(run.ready_at, run.done_at)
        record["layers"] = layer_metrics(summary, tracer.corpus_seconds())
        record["layers"].update(memory_probe(*probe))
        record["failures"] += trace_failures(workload, {key for key in summary if "/" not in key})
        if spans_path is not None:
            tracer.write(spans_path)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC just before this process started")
    parser.add_argument("--spans", default=None, help="write the traced run's spans here")
    parser.add_argument("--machine", action="store_true", help="add machine info to the record")
    parser.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    args = parser.parse_args(argv)
    record = run_child(args.workload, args.seed, args.trace, args.spawned_at, spans_path=args.spans,
                       setup_only=args.setup_only)
    if args.machine:
        record["machine"] = machine_info()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
