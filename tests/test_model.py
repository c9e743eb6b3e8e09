"""Model persistence and the two-group parameter layout."""

import numpy as np
import pytest

from evcoref.corpus import FeatureSchema, GenConfig, generate_corpus
from evcoref.encoder import build_vocab
from evcoref.model import CorefModel, Dims, config_hash, schema_hash
from evcoref.training import TrainConfig, evaluate_avg, train

SCHEMA = FeatureSchema.default()


def small_model(mode="cdgm", seed=4):
    return CorefModel(SCHEMA, ["<unk>", "a", "b"], mode, Dims(d=6, l=3, p=4, w=1), seed=seed)


class TestPersistence:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = small_model()
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        model.save(first)
        CorefModel.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_scores_identically(self, tmp_path):
        docs = generate_corpus(GenConfig(n_docs=3, seed=0), SCHEMA, "train")
        model = CorefModel(SCHEMA, build_vocab(docs), "cdgm", Dims(d=6, l=3, p=4, w=1), seed=1)
        path = tmp_path / "m.json"
        model.save(path)
        loaded = CorefModel.load(path)
        for doc in docs:
            np.testing.assert_array_equal(model.score(doc).flat, loaded.score(doc).flat)

    def test_missing_parameter_rejected(self, tmp_path):
        import json

        model = small_model()
        path = tmp_path / "m.json"
        model.save(path)
        obj = json.loads(path.read_text())
        obj["params"] = obj["params"][1:]
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="missing parameter"):
            CorefModel.load(path)

    @pytest.mark.parametrize("version", [2, "1", True, None])
    def test_unknown_version_rejected(self, tmp_path, version):
        import json

        path = tmp_path / "m.json"
        small_model().save(path)
        obj = json.loads(path.read_text())
        if version is None:
            del obj["version"]
        else:
            obj["version"] = version
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="m.json: model format version") as err:
            CorefModel.load(path)
        assert "\n" not in str(err.value)

    def test_non_model_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a model"):
            CorefModel.load(path)


class TestLayout:
    def test_parameter_groups(self):
        model = small_model()
        lower = {p.name for p in model.parameters() if p.group == "lower"}
        upper = {p.name for p in model.parameters() if p.group == "upper"}
        assert "encoder.embeddings" in lower
        assert all(n.startswith(("encoder.", "embed.")) for n in lower)
        assert all(n.startswith("pair.") for n in upper)

    def test_mode_controls_blocks(self):
        base = {p.name for p in small_model("baseline").parameters()}
        simple = {p.name for p in small_model("simple").parameters()}
        gated = {p.name for p in small_model("cdgm").parameters()}
        assert not any(n.startswith(("pair.u.", "pair.g.")) for n in base)
        assert any(n.startswith("pair.u.") for n in simple)
        assert not any(n.startswith("pair.g.") for n in simple)
        assert any(n.startswith("pair.g.") for n in gated)

    def test_scorer_width_depends_on_mode(self):
        assert small_model("baseline").pair.ffnn_a.in_width == 4
        assert small_model("cdgm").pair.ffnn_a.in_width == 4 * (SCHEMA.k + 1)

    def test_hashes_are_stable(self):
        assert schema_hash(SCHEMA) == schema_hash(FeatureSchema.default())
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


class TestTrainingBehavior:
    def corpus(self, n, seed):
        cfg = GenConfig(n_docs=n, tokens=(18, 30), mentions=(3, 5), clusters=(2, 3),
                        vocab_size=40, seed=seed)
        return generate_corpus(cfg, SCHEMA, "train")

    def test_dev_avg_improves_over_initial(self):
        """cdgm on the default synthetic corpus beats its pre-training dev AVG."""
        docs = generate_corpus(GenConfig(n_docs=40, seed=1), SCHEMA, "train")
        dev = generate_corpus(GenConfig(n_docs=10, seed=1), SCHEMA, "dev")
        model = CorefModel(SCHEMA, build_vocab(docs + dev), "cdgm", Dims(), seed=1)
        history = train(model, docs, TrainConfig(epochs=6, seed=1), dev_docs=dev)
        assert max(history.dev_avg[1:]) > history.dev_avg[0]
        assert evaluate_avg(model, dev) == max(history.dev_avg)

    def test_non_finite_loss_aborts_with_context(self):
        docs = self.corpus(4, 3)
        model = CorefModel(SCHEMA, build_vocab(docs), "cdgm", Dims(d=6, l=3, p=4, w=1), seed=3)
        model.parameter("pair.a.w2").value[...] = np.nan
        with pytest.raises(RuntimeError, match="epoch 0"):
            train(model, docs, TrainConfig(epochs=1, seed=3))
