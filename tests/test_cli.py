"""Command-line pipeline: gen, train, predict, score, gradcheck, experiment."""

import json
import os

import pytest

from evcoref.cli import main
from evcoref.corpus import FeatureSchema, load_corpus
from evcoref.inference import load_clusterings
from evcoref.model import CorefModel

FAST = [
    "--set", "gen.docs={\"train\": 6, \"dev\": 3, \"test\": 4}",
    "--set", "gen.tokens=[15, 24]",
    "--set", "gen.mentions=[3, 4]",
    "--set", "gen.clusters=[2, 3]",
    "--set", "gen.vocab_size=40",
    "--set", "dims={\"d\": 6, \"l\": 3, \"p\": 4, \"w\": 1}",
    "--set", "train.epochs=2",
]


def run(argv, outdir):
    return main(argv + ["--set", f"outdir={outdir}"])


class TestGen:
    def test_writes_counts_and_manifest(self, tmp_path):
        out = str(tmp_path)
        assert run(["gen"] + FAST, out) == 0
        schema = FeatureSchema.default()
        assert len(load_corpus(tmp_path / "train.jsonl", schema)) == 6
        assert len(load_corpus(tmp_path / "dev.jsonl", schema)) == 3
        assert len(load_corpus(tmp_path / "test.jsonl", schema)) == 4
        manifest = json.loads((tmp_path / "gen_manifest.json").read_text())
        assert "config_hash" in manifest and manifest["counts"]["train"] == 6
        assert (tmp_path / "test_true.jsonl").exists()
        assert (tmp_path / "test_key.jsonl").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen", "--seed", "3"] + FAST, str(a))
        run(["gen", "--seed", "3"] + FAST, str(b))
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "test_key.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_documents(self, tmp_path):
        out = str(tmp_path)
        argv = ["gen"] + FAST + ["--set", "gen.docs={\"train\": 0, \"dev\": 0, \"test\": 0}"]
        assert run(argv, out) == 0
        assert (tmp_path / "train.jsonl").read_text() == ""
        assert json.loads((tmp_path / "gen_manifest.json").read_text())["counts"]["train"] == 0

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EVCOREF_OUTDIR", str(tmp_path / "env"))
        assert main(["gen"] + FAST) == 0
        assert (tmp_path / "env" / "train.jsonl").exists()


class TestTrainPredictScore:
    @pytest.fixture()
    def pipeline_dir(self, tmp_path):
        out = str(tmp_path)
        assert run(["gen"] + FAST, out) == 0
        assert run(["train"] + FAST, out) == 0
        return tmp_path

    def test_zero_epochs_equals_initialization(self, tmp_path):
        out = str(tmp_path)
        run(["gen"] + FAST, out)
        argv = ["train"] + FAST + ["--set", "train.epochs=0"]
        assert run(argv, out) == 0
        loaded = CorefModel.load(tmp_path / "model.json")
        docs = load_corpus(tmp_path / "train.jsonl", loaded.schema)
        dev = load_corpus(tmp_path / "dev.jsonl", loaded.schema)
        from evcoref.encoder import build_vocab
        from evcoref.model import Dims

        fresh = CorefModel(loaded.schema, build_vocab(docs + dev), "cdgm",
                           Dims(d=6, l=3, p=4, w=1), seed=1)
        import numpy as np

        for a, b in zip(loaded.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_fixed_seed_model_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["gen"] + FAST, str(out))
            run(["train"] + FAST, str(out))
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        assert (a / "history.json").read_bytes() == (b / "history.json").read_bytes()

    def test_predict_and_score(self, pipeline_dir, capsys):
        out = str(pipeline_dir)
        assert run(["predict"] + FAST, out) == 0
        preds = load_clusterings(pipeline_dir / "predictions.jsonl")
        assert len(preds) == 4
        assert run(
            ["score", "--key", os.path.join(out, "test_key.jsonl"),
             "--response", os.path.join(out, "predictions.jsonl")] + FAST,
            out,
        ) == 0
        text = capsys.readouterr().out
        assert "AVG" in text
        report = json.loads((pipeline_dir / "report.json").read_text())
        assert 0.0 <= report["avg"] <= 1.0

    def test_predict_deterministic(self, pipeline_dir):
        out = str(pipeline_dir)
        run(["predict"] + FAST, out)
        first = (pipeline_dir / "predictions.jsonl").read_bytes()
        run(["predict"] + FAST, out)
        assert (pipeline_dir / "predictions.jsonl").read_bytes() == first

    def test_score_mismatched_ids_rejected(self, pipeline_dir, capsys):
        out = str(pipeline_dir)
        run(["predict"] + FAST, out)
        key = load_clusterings(pipeline_dir / "test_key.jsonl")
        doc_id = sorted(key)[0]
        del key[doc_id]
        from evcoref.inference import save_clusterings

        save_clusterings(key, pipeline_dir / "short_key.jsonl")
        rc = run(
            ["score", "--key", os.path.join(out, "short_key.jsonl"),
             "--response", os.path.join(out, "predictions.jsonl")] + FAST,
            out,
        )
        assert rc == 1
        assert doc_id in capsys.readouterr().err

    def test_schema_mismatch_rejected(self, pipeline_dir, capsys):
        out = str(pipeline_dir)
        rc = run(["predict"] + FAST + ["--set", 'schema={"Type": 8}'], out)
        assert rc == 1
        assert "schema mismatch" in capsys.readouterr().err

    def test_missing_corpus_is_one_line_error(self, tmp_path, capsys):
        rc = run(["train"] + FAST, str(tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestConfigKeys:
    @pytest.mark.parametrize("command, assignment, path", [
        ("train", "train.epoch=1", "train.epoch"),
        ("gen", "gen.tokns=[1,2]", "gen.tokns"),
        ("gen", 'dims={"d": 6, "q": 3}', "dims.q"),
        ("gen", "paths.modle=x.json", "paths.modle"),
    ])
    def test_unknown_set_path_rejected(self, tmp_path, capsys, command, assignment, path):
        assert run([command, "--set", assignment], str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and repr(path) in err

    def test_unknown_config_file_path_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"train": {"epochs": 1, "lr": 0.1}}))
        assert run(["gen", "--config", str(config)], str(tmp_path)) == 1
        assert "'train.lr'" in capsys.readouterr().err

    def test_feature_keyed_maps_stay_free_form(self, tmp_path):
        accuracy = {"Type": 0.9, "Aspect": 0.8}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema": {"Type": 8, "Aspect": 3},
                                      "gen": {"train_accuracy": accuracy, "test_accuracy": accuracy}}))
        argv = ["gen", "--config", str(config), "--set", "noise.Aspect=0.3"] + FAST
        assert run(argv, str(tmp_path)) == 0


GC_FAST = [
    "--set", "gradcheck.dims={\"d\": 5, \"l\": 3, \"p\": 4, \"w\": 1}",
]


class TestGradcheckCommand:
    def test_default_passes(self, tmp_path, capsys):
        assert run(["gradcheck", "--seed", "7"] + GC_FAST, str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "block pair.t.w1" in out

    def test_corrupt_hook_fails(self, tmp_path, capsys):
        rc = run(["gradcheck", "--seed", "7", "--corrupt", "pair.t.w1"] + GC_FAST, str(tmp_path))
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_k0_lists_skipped_blocks(self, tmp_path, capsys):
        rc = run(["gradcheck", "--seed", "7", "--set", "gradcheck.features=0"] + GC_FAST, str(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert "skipped embed.Type" in out
        assert "skipped pair.g.Tense" in out


class TestExperimentCommand:
    ARGS = FAST + [
        "--set", 'experiment.variants=["baseline"]',
        "--set", "experiment.seeds=[1]",
    ]

    def test_single_variant_single_rep(self, tmp_path, capsys):
        assert run(["experiment"] + self.ARGS, str(tmp_path)) == 0
        table = capsys.readouterr().out
        assert "baseline" in table and "AVG" in table
        result = json.loads((tmp_path / "experiment.json").read_text())
        assert len(result["runs"]) == 1
        assert "config_hash" in result

    def test_identical_invocations_identical_tables(self, tmp_path, capsys):
        run(["experiment"] + self.ARGS, str(tmp_path / "a"))
        first = capsys.readouterr().out
        run(["experiment"] + self.ARGS, str(tmp_path / "b"))
        second = capsys.readouterr().out
        assert first == second
        a = json.loads((tmp_path / "a" / "experiment.json").read_text())
        b = json.loads((tmp_path / "b" / "experiment.json").read_text())
        assert a["runs"] == b["runs"]

    def test_unknown_variant_rejected(self, tmp_path, capsys):
        rc = run(["experiment"] + FAST + ["--set", 'experiment.variants=["nope"]'], str(tmp_path))
        assert rc == 1
        assert "nope" in capsys.readouterr().err
