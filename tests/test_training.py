"""Noise injection, the ranking loss, and the optimization loop."""

import gc
import math
import weakref

import numpy as np
import pytest

from evcoref import training
from evcoref.autodiff import Parameter, Tape
from evcoref.corpus import Document, FeatureSchema, GenConfig, Mention, generate_corpus
from evcoref.encoder import build_vocab
from evcoref.model import CorefModel, Dims
from evcoref.pair_model import PairScores
from evcoref.training import (
    NoiseConfig,
    TrainConfig,
    antecedent_nll,
    antecedent_nll_node,
    apply_noise,
    document_loss_node,
    full_model_grad_check,
    gradcheck_instance,
    train,
    warm_to_loss,
)

SCHEMA = FeatureSchema.default()


def brute_force_nll(scores, gold_ids):
    """Direct softmax enumeration, independent of the library path."""
    total = 0.0
    for i in range(1, scores.k):
        candidates = [scores.score(i, j) for j in range(i)] + [0.0]
        weights = [math.exp(s) for s in candidates]
        z = sum(weights)
        gold = [j for j in range(i) if gold_ids[j] == gold_ids[i]]
        mass = sum(weights[j] for j in gold) if gold else weights[-1]
        total -= math.log(mass / z)
    return total


class TestApplyNoise:
    def test_zero_eps_is_identity(self):
        docs = generate_corpus(GenConfig(n_docs=5, seed=0), SCHEMA, "train")
        noise = NoiseConfig(epsilons=(0.0,) * 5, cardinalities=tuple(SCHEMA.cardinalities))
        rng = np.random.default_rng(0)
        for doc in docs:
            assert apply_noise(doc, noise, rng) == doc

    def test_full_resampling_statistics(self):
        """eps=1, N=4: change probability is 1 - 1/4."""
        k = 100_000
        doc = Document("d", ["x"] * (3 * k + 1),
                       [Mention(3 * i, 3 * i, (1,), 0) for i in range(k)])
        noise = NoiseConfig(epsilons=(1.0,), cardinalities=(4,))
        noisy = apply_noise(doc, noise, np.random.default_rng(1))
        changed = sum(a.features != b.features for a, b in zip(noisy.mentions, doc.mentions))
        p = 1.0 * (1 - 1 / 4)
        sigma = (p * (1 - p) / k) ** 0.5
        assert abs(changed / k - p) <= 3 * sigma

    def test_tense_default_statistics(self):
        """eps=0.25, N=4: change probability 0.1875."""
        k = 100_000
        doc = Document("d", ["x"] * (3 * k + 1),
                       [Mention(3 * i, 3 * i, (1 + i % 4,), 0) for i in range(k)])
        noise = NoiseConfig(epsilons=(0.25,), cardinalities=(4,))
        noisy = apply_noise(doc, noise, np.random.default_rng(2))
        changed = sum(a.features != b.features for a, b in zip(noisy.mentions, doc.mentions))
        p = 0.25 * (1 - 1 / 4)
        sigma = (p * (1 - p) / k) ** 0.5
        assert abs(changed / k - p) <= 3 * sigma

    def test_only_features_change(self):
        docs = generate_corpus(GenConfig(n_docs=10, seed=3), SCHEMA, "train")
        noise = NoiseConfig.for_schema(SCHEMA, {n: 0.9 for n in SCHEMA.names})
        rng = np.random.default_rng(3)
        for doc in docs:
            noisy = apply_noise(doc, noise, rng)
            assert noisy.tokens == doc.tokens
            for a, b in zip(noisy.mentions, doc.mentions):
                assert (a.start, a.end, a.gold_cluster) == (b.start, b.end, b.gold_cluster)

    def test_default_table_follows_schema_order(self):
        noise = NoiseConfig.for_schema(SCHEMA)
        assert noise.epsilons == (0.0, 0.0, 0.15, 0.15, 0.25)


class TestAntecedentNll:
    def test_single_mention_zero(self):
        assert antecedent_nll(PairScores(1, np.zeros(0)), [0]) == 0.0

    def test_two_mentions_uniform(self):
        loss = antecedent_nll(PairScores(2, np.zeros(1)), [0, 1])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_three_mentions_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            scores = PairScores(3, rng.normal(scale=2.0, size=3))
            gold = [0, 0, 0]
            assert antecedent_nll(scores, gold) == pytest.approx(
                brute_force_nll(scores, gold), rel=1e-10
            )

    def test_random_clusterings_match_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            scores = PairScores(k, rng.normal(scale=3.0, size=k * (k - 1) // 2))
            gold = [int(rng.integers(3)) for _ in range(k)]
            assert antecedent_nll(scores, gold) == pytest.approx(
                brute_force_nll(scores, gold), rel=1e-9
            )

    def test_loss_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            scores = PairScores(k, rng.normal(scale=5.0, size=k * (k - 1) // 2))
            gold = [int(rng.integers(2)) for _ in range(k)]
            assert antecedent_nll(scores, gold) >= 0.0

    def test_joint_shift_invariance(self):
        """Adding c to every candidate including the dummy leaves the loss
        unchanged; shifting only the pair scores (dummy pinned at 0) does not."""
        rng = np.random.default_rng(7)
        k = 4
        flat = rng.normal(size=6)
        gold = [0, 1, 0, 1]
        base = brute_force_nll(PairScores(k, flat), gold)

        # joint shift: emulate by brute force with shifted dummy
        def shifted_all(c):
            total = 0.0
            for i in range(1, k):
                cands = [PairScores(k, flat).score(i, j) + c for j in range(i)] + [c]
                w = [math.exp(s) for s in cands]
                gold_j = [j for j in range(i) if gold[j] == gold[i]]
                mass = sum(w[j] for j in gold_j) if gold_j else w[-1]
                total -= math.log(mass / sum(w))
            return total

        assert shifted_all(3.7) == pytest.approx(base, rel=1e-9)
        shifted_scores_only = antecedent_nll(PairScores(k, flat + 3.7), gold)
        assert abs(shifted_scores_only - base) > 1e-3

    def test_node_version_matches_float_version(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            flat = rng.normal(scale=2.0, size=k * (k - 1) // 2)
            gold = [int(rng.integers(2)) for _ in range(k)]
            t = Tape()
            node, losses = antecedent_nll_node(t.constant(flat), [gold], t)
            assert losses.tolist() == [float(node.value)]
            assert float(node.value) == pytest.approx(
                antecedent_nll(PairScores(k, flat), gold), rel=1e-12
            )

    def test_node_is_one_entry_with_brute_force_gradient(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            flat = Parameter("s", rng.normal(scale=2.0, size=k * (k - 1) // 2))
            gold = [int(rng.integers(3)) for _ in range(k)]
            t = Tape()
            scores = t.watch(flat)
            before = len(t._record)
            loss, _ = antecedent_nll_node(scores, [gold], t)
            assert len(t._record) == before + 1
            t.backward(loss)
            step = 1e-6
            for n in range(flat.size):
                up, down = flat.value.copy(), flat.value.copy()
                up[n] += step
                down[n] -= step
                numeric = (brute_force_nll(PairScores(k, up), gold)
                           - brute_force_nll(PairScores(k, down), gold)) / (2 * step)
                assert flat.grad[n] == pytest.approx(numeric, abs=1e-7)


class TestTrain:
    def small_setup(self, n_docs=12, seed=0):
        cfg = GenConfig(n_docs=n_docs, tokens=(18, 30), mentions=(3, 5), clusters=(2, 3),
                        vocab_size=40, seed=seed)
        docs = generate_corpus(cfg, SCHEMA, "train")
        model = CorefModel(SCHEMA, build_vocab(docs), "cdgm", Dims(d=8, l=4, p=6, w=1), seed=seed)
        return docs, model

    def test_zero_epochs_leaves_parameters(self):
        docs, model = self.small_setup()
        before = model.copy_values()
        train(model, docs, TrainConfig(epochs=0, seed=0))
        for name, value in before.items():
            np.testing.assert_array_equal(value, model.parameter(name).value)

    def test_fixed_seed_reproducible(self):
        docs, m1 = self.small_setup(seed=3)
        _, m2 = self.small_setup(seed=3)
        noise = NoiseConfig.for_schema(SCHEMA)
        cfg = TrainConfig(epochs=2, seed=3, noise=True)
        h1 = train(m1, docs, cfg, noise=noise)
        h2 = train(m2, docs, cfg, noise=noise)
        assert h1.epoch_loss == h2.epoch_loss
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.value, p2.value)

    def test_loss_decreases_on_desk_corpus(self):
        """30 epochs on a 200-document corpus cuts the mean loss in half."""
        cfg = GenConfig(n_docs=200, tokens=(15, 24), mentions=(3, 4), clusters=(2, 3),
                        vocab_size=60, seed=1)
        docs = generate_corpus(cfg, SCHEMA, "train")
        model = CorefModel(SCHEMA, build_vocab(docs), "cdgm", Dims(d=8, l=4, p=6, w=1), seed=1)
        history = train(model, docs, TrainConfig(epochs=30, seed=1))
        assert history.epoch_loss[-1] < 0.5 * history.epoch_loss[0]

    def test_dev_checkpoint_restores_best(self):
        docs, model = self.small_setup(seed=5)
        dev = generate_corpus(GenConfig(n_docs=4, tokens=(18, 30), mentions=(3, 5),
                                        clusters=(2, 3), vocab_size=40, seed=6), SCHEMA, "dev")
        history = train(model, docs, TrainConfig(epochs=3, seed=5), dev_docs=dev)
        assert len(history.dev_avg) == 4  # init + one per epoch
        assert max(history.dev_avg) == history.dev_avg[history.best_epoch]

    def test_noise_requires_config(self):
        docs, model = self.small_setup()
        with pytest.raises(ValueError):
            train(model, docs, TrainConfig(epochs=1, noise=True))

    def tracked_tapes(self, monkeypatch, budget):
        """Train 4 short documents in batches of 2; weak references to each tape made, and live tapes at each."""
        probes, alive_at_new = [], []

        class Tracked(Tape):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                alive_at_new.append(sum(probe() is not None for probe in probes))
                probes.append(weakref.ref(self))

        monkeypatch.setattr(training, "Tape", Tracked)
        monkeypatch.setattr(training, "PAIR_BUDGET", budget)
        docs, model = self.small_setup(n_docs=4, seed=2)
        gc.disable()
        try:
            train(model, docs, TrainConfig(epochs=1, seed=2, batch_size=2))
            dead = all(probe() is None for probe in probes)
        finally:
            gc.enable()
        return len(probes), dead, alive_at_new

    def test_tapes_freed_without_collector(self, monkeypatch):
        """Each packed batch's tapes die by reference count before the next are made."""
        made, dead, alive_at_new = self.tracked_tapes(monkeypatch, training.PAIR_BUDGET)
        # Per record, one encoder tape and one block tape.
        assert made == 2 * 2 and dead
        # A block tape is made while its record's encoder tape is alive.
        assert max(alive_at_new) <= 1

    def test_tapes_over_budget_freed_without_collector(self, monkeypatch):
        """With no document under the pair budget, each trains on its own tape, freed the same way."""
        made, dead, alive_at_new = self.tracked_tapes(monkeypatch, 0)
        assert made == 4 * 2 and dead
        assert max(alive_at_new) <= 1


class TestFullLossGradient:
    def test_three_mention_two_feature_instance(self):
        sub = FeatureSchema(SCHEMA.features[:2])
        doc = gradcheck_instance(sub, seed=7)
        model = CorefModel(sub, build_vocab([doc]), "cdgm", Dims(d=8, l=4, p=6, w=1), seed=7)
        warm_to_loss(model, doc)
        report = full_model_grad_check(model, doc, step=1e-5, tol=1e-4)
        assert report.ok, report

    def test_corrupt_hook_fails_named_block(self):
        sub = FeatureSchema(SCHEMA.features[:2])
        doc = gradcheck_instance(sub, seed=7)
        model = CorefModel(sub, build_vocab([doc]), "cdgm", Dims(d=6, l=3, p=4, w=1), seed=7)
        warm_to_loss(model, doc)
        report = full_model_grad_check(model, doc, corrupt="pair.t.w1")
        assert not report.ok
        assert report.errors["pair.t.w1"] > 0.1

    def test_loss_node_shape_and_sign(self):
        sub = FeatureSchema(SCHEMA.features[:2])
        doc = gradcheck_instance(sub, seed=1)
        model = CorefModel(sub, build_vocab([doc]), "cdgm", Dims(d=6, l=3, p=4, w=1), seed=1)
        t = Tape()
        loss = document_loss_node(doc, model, t)
        assert loss.value.shape == ()
        assert float(loss.value) >= 0.0
