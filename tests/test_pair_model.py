"""Pair representations, the gated module, and document scoring."""

import gc
import weakref

import numpy as np
import pytest

from evcoref import pair_model
from evcoref.autodiff import Tape, dot, grad_check
from evcoref.corpus import Document, FeatureSchema, Mention
from evcoref.autodiff import full_pairs, row_pairs, take_rows
from evcoref.encoder import embed_features, encode_tokens, trigger_reprs
from evcoref.model import CorefModel, Dims
from evcoref.pair_model import (
    PairScores,
    assemble_pair,
    cdgm,
    feature_pair,
    hidden_width,
    init_pair_model,
    score_document,
    score_document_node,
    score_pair,
    trigger_pair,
)

SCHEMA2 = FeatureSchema((("Type", 3), ("Tense", 4)))


def tiny_model(mode="cdgm", seed=0, schema=SCHEMA2, dims=Dims(d=6, l=4, p=5, w=1)):
    vocab = ["<unk>"] + [f"t{i}" for i in range(10)]
    return CorefModel(schema, vocab, mode, dims, seed=seed)


def three_mention_doc(seed=0, schema=SCHEMA2):
    rng = np.random.default_rng(seed)
    cards = schema.cardinalities
    mentions = [
        Mention(s, e, tuple(1 + int(rng.integers(c)) for c in cards), g)
        for (s, e), g in zip([(1, 1), (4, 5), (8, 8)], (0, 1, 0))
    ]
    return Document("doc", [f"t{i}" for i in range(10)], mentions)


def ffnn_by_hand(f, x):
    hidden = np.maximum(f.w1.value @ x + f.b1.value, 0.0)
    out = f.w2.value @ hidden + f.b2.value
    return 1.0 / (1.0 + np.exp(-out)) if f.out_sigmoid else out


def zero_ffnn(f):
    for p in f.params():
        p.value[...] = 0.0


class TestTriggerPair:
    def test_zero_inputs_zero_weights(self):
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(0))
        zero_ffnn(pm.ffnn_t)
        t = Tape()
        out = trigger_pair(t.constant(np.zeros((2, 6))), row_pairs(2), pm)
        np.testing.assert_array_equal(out.value, np.zeros((1, 5)))

    def test_elementwise_slot_squares(self):
        """With identical triggers the product slot holds the squares."""
        pm = init_pair_model(SCHEMA2, 3, 4, 5, "cdgm", np.random.default_rng(0))
        pm.ffnn_t.w1.value[...] = 0.0
        pm.ffnn_t.w1.value[0, 6:9] = 1.0  # reads only the product slot
        pm.ffnn_t.b1.value[...] = 0.0
        v = np.array([1.0, -2.0, 3.0])
        t = Tape()
        out = trigger_pair(t.constant([v, v]), row_pairs(2), pm)
        hidden0 = (v * v).sum()
        np.testing.assert_allclose(
            out.value[0], pm.ffnn_t.w2.value[:, 0] * hidden0 + pm.ffnn_t.b2.value, atol=1e-12
        )

    def test_matches_straight_line(self):
        rng = np.random.default_rng(5)
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(1))
        rows = rng.normal(size=(4, 6))
        t = Tape()
        pairs = row_pairs(4)
        got = trigger_pair(t.constant(rows), pairs, pm).value
        for p, (i, j) in enumerate(zip(pairs.i, pairs.j)):
            ti, tj = rows[i], rows[j]
            want = ffnn_by_hand(pm.ffnn_t, np.concatenate([ti, tj, ti * tj]))
            np.testing.assert_allclose(got[p], want, atol=1e-12)


class TestFeaturePair:
    def test_matches_straight_line(self):
        rng = np.random.default_rng(6)
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(2))
        rows = rng.normal(size=(3, 4))
        t = Tape()
        got = feature_pair(t.constant(rows), full_pairs(3), pm, 1).value
        for a in range(3):
            for b in range(3):
                hi, hj = rows[a], rows[b]
                want = ffnn_by_hand(pm.ffnn_u[1], np.concatenate([hi, hj, hi * hj]))
                np.testing.assert_allclose(got[a * 3 + b], want, atol=1e-12)

    def test_zero_everything(self):
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(0))
        zero_ffnn(pm.ffnn_u[0])
        t = Tape()
        out = feature_pair(t.constant(np.zeros((2, 4))), row_pairs(2), pm, 0)
        np.testing.assert_array_equal(out.value, np.zeros((1, 5)))

    def test_bad_feature_index(self):
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(0))
        t = Tape()
        with pytest.raises(ValueError):
            feature_pair(t.constant(np.zeros((2, 4))), row_pairs(2), pm, 2)


class TestCdgm:
    def test_zeroed_gate_halves_input(self):
        rng = np.random.default_rng(7)
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(3))
        zero_ffnn(pm.ffnn_g[0])
        tij, hij = rng.normal(size=5), rng.normal(size=5)
        t = Tape()
        out = cdgm(t.constant(tij), t.constant(hij), pm, 0)
        np.testing.assert_allclose(out.value, hij / 2.0, atol=1e-12)

    def test_parallel_input_scaled_by_one_minus_gate(self):
        rng = np.random.default_rng(8)
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(3))
        tij = rng.normal(size=5)
        hij = 1.7 * tij
        t = Tape()
        out = cdgm(t.constant(tij), t.constant(hij), pm, 0)
        gate = ffnn_by_hand(pm.ffnn_g[0], np.concatenate([tij, hij]))
        np.testing.assert_allclose(out.value, (1.0 - gate) * hij, atol=1e-10)

    def test_orthogonal_input_scaled_by_gate(self):
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(3))
        tij = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        hij = np.array([0.0, 2.0, -1.0, 0.5, 0.0])
        t = Tape()
        out = cdgm(t.constant(tij), t.constant(hij), pm, 0)
        gate = ffnn_by_hand(pm.ffnn_g[0], np.concatenate([tij, hij]))
        np.testing.assert_allclose(out.value, gate * hij, atol=1e-12)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(9)
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(4))
        for _ in range(100):
            tij, hij = rng.normal(size=5), rng.normal(size=5)
            t = Tape()
            from evcoref.pair_model import ffnn_apply
            from evcoref.autodiff import concat

            gate = ffnn_apply(pm.ffnn_g[0], concat([t.constant(tij), t.constant(hij)]))
            assert np.all(gate.value > 0.0) and np.all(gate.value < 1.0)

    def test_output_is_elementwise_convex_mixture(self):
        rng = np.random.default_rng(10)
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(5))
        from evcoref.autodiff import project_decompose

        for _ in range(200):
            tij, hij = rng.normal(size=5), rng.normal(size=5)
            t = Tape()
            out = cdgm(t.constant(tij), t.constant(hij), pm, 0).value
            t2 = Tape()
            par, orth = project_decompose(t2.constant(tij), t2.constant(hij))
            lo = np.minimum(par.value, orth.value)
            hi = np.maximum(par.value, orth.value)
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_decomposition_identity_inside_cdgm_1000_trials(self):
        rng = np.random.default_rng(11)
        from evcoref.autodiff import project_decompose

        for _ in range(1000):
            tij, hij = rng.normal(size=5), rng.normal(size=5)
            t = Tape()
            par, orth = project_decompose(t.constant(tij), t.constant(hij))
            recon = par.value + orth.value
            assert np.abs(recon - hij).max() <= 1e-10 * (np.linalg.norm(hij) + 1)
            assert abs(orth.value @ tij) <= 1e-8 * (
                np.linalg.norm(orth.value) * np.linalg.norm(tij) + 1
            )


class TestAssembleAndScore:
    def test_baseline_identity(self):
        t = Tape()
        tij = t.constant(np.arange(5.0))
        assert assemble_pair(tij, [], "baseline") is tij

    def test_k0_cdgm_collapses_to_trigger(self):
        t = Tape()
        tij = t.constant(np.arange(5.0))
        assert assemble_pair(tij, [], "cdgm") is tij

    def test_layout_in_schema_order(self):
        t = Tape()
        tij = t.constant(np.zeros(3))
        h1 = t.constant(np.ones(3))
        h2 = t.constant(2 * np.ones(3))
        out = assemble_pair(tij, [h1, h2], "simple")
        np.testing.assert_array_equal(out.value, [0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_score_zero_model(self):
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(0))
        zero_ffnn(pm.ffnn_a)
        t = Tape()
        assert float(score_pair(t.constant(np.zeros(15)), pm).value) == 0.0

    def test_score_bias_only(self):
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(0))
        zero_ffnn(pm.ffnn_a)
        pm.ffnn_a.b2.value[...] = 1.75
        rng = np.random.default_rng(1)
        t = Tape()
        assert float(score_pair(t.constant(rng.normal(size=15)), pm).value) == 1.75

    def test_score_matches_straight_line(self):
        rng = np.random.default_rng(13)
        pm = init_pair_model(SCHEMA2, 6, 4, 5, "cdgm", np.random.default_rng(6))
        f = rng.normal(size=15)
        t = Tape()
        got = float(score_pair(t.constant(f), pm).value)
        assert got == pytest.approx(float(ffnn_by_hand(pm.ffnn_a, f)[0]), abs=1e-12)


class TestScoreDocument:
    def test_single_mention_empty(self):
        model = tiny_model()
        doc = Document("d", ["t0", "t1"], [Mention(0, 0, (1, 1), 0)])
        assert score_document(doc, model).flat.shape == (0,)

    def test_three_mentions_three_scores(self):
        model = tiny_model()
        scores = score_document(three_mention_doc(), model)
        assert scores.flat.shape == (3,)
        np.testing.assert_array_equal(row_pairs(3).i, [1, 2, 2])
        np.testing.assert_array_equal(row_pairs(3).j, [0, 0, 1])

    @pytest.mark.parametrize("mode", ["baseline", "simple", "cdgm"])
    def test_batched_equals_pairwise_calls(self, mode):
        """Compositional oracle: per-pair recomputation via the public ops."""
        model = tiny_model(mode=mode, seed=4)
        doc = three_mention_doc(seed=2)
        scores = score_document(doc, model)
        t = Tape()
        x = encode_tokens(doc, model.encoder, t)
        for i in range(1, 3):
            for j in range(i):
                # Row pair (1, 0) of [mention j ; mention i] is the pair (i, j).
                trig = trigger_reprs(x, [doc.mentions[j], doc.mentions[i]])
                tij = trigger_pair(trig, row_pairs(2), model.pair)
                parts = []
                if mode != "baseline":
                    for u, emb in enumerate(model.embedders):
                        values = [doc.mentions[m].features[u] - 1 for m in (j, i)]
                        hij = feature_pair(take_rows(t.watch(emb), values), row_pairs(2), model.pair, u)
                        parts.append(cdgm(tij, hij, model.pair, u) if mode == "cdgm" else hij)
                one = float(score_pair(assemble_pair(tij, parts, mode), model.pair).value[0])
                assert one == pytest.approx(scores.score(i, j), abs=1e-10)

    def test_deterministic(self):
        model = tiny_model(seed=9)
        doc = three_mention_doc(seed=3)
        a = score_document(doc, model).flat
        b = score_document(doc, model).flat
        np.testing.assert_array_equal(a, b)

    def test_mode_equivalence_zeroed_gate(self):
        """cdgm with zeroed gates scores like simple with halved features."""
        model_c = tiny_model(mode="cdgm", seed=5)
        doc = three_mention_doc(seed=1)
        for f in model_c.pair.ffnn_g:
            zero_ffnn(f)
        t = Tape()
        x = encode_tokens(doc, model_c.encoder, t)
        tij = trigger_pair(trigger_reprs(x, doc.mentions[:2]), row_pairs(2), model_c.pair)
        h0 = embed_features(doc.mentions[0], model_c.embedders, t)
        h1 = embed_features(doc.mentions[1], model_c.embedders, t)
        for u in range(2):
            hij = feature_pair(t.constant([h0[u].value, h1[u].value]), row_pairs(2), model_c.pair, u)
            gated = cdgm(tij, hij, model_c.pair, u)
            np.testing.assert_allclose(gated.value, hij.value / 2.0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["baseline", "simple", "cdgm"])
    def test_equals_recording_tape(self, mode):
        model = tiny_model(mode=mode, seed=6)
        doc = three_mention_doc(seed=4)
        recorded = score_document_node(doc, model, Tape()).value
        np.testing.assert_array_equal(score_document(doc, model).flat, recorded)

    def test_tape_freed_without_collector(self, monkeypatch):
        probes = []

        class Tracked(Tape):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                probes.append(weakref.ref(self))

        monkeypatch.setattr(pair_model, "Tape", Tracked)
        model = tiny_model(seed=7)
        gc.disable()
        try:
            scores = score_document(three_mention_doc(seed=5), model)
            assert len(probes) == 1 and probes[0]() is None
        finally:
            gc.enable()
        assert scores.flat.shape == (3,)


def oracle_scores(doc, model):
    """Straight-line numpy scores, one pair at a time, from the model's raw arrays."""
    enc, pm, w = model.encoder, model.pair, model.encoder.window
    emb = enc.embeddings.value[enc.token_ids(doc.tokens)]
    n = len(doc.tokens)
    ctx = np.array([emb[max(0, q - w) : min(n - 1, q + w) + 1].mean(axis=0) for q in range(n)])
    x = np.maximum(np.concatenate([emb, ctx], axis=1) @ enc.mix_w.value.T + enc.mix_b.value, 0.0)
    trig = [x[m.start : m.end + 1].mean(axis=0) for m in doc.mentions]
    scores, norms = [], []
    for i in range(1, len(doc.mentions)):
        for j in range(i):
            t_ij = ffnn_by_hand(pm.ffnn_t, np.concatenate([trig[i], trig[j], trig[i] * trig[j]]))
            parts = [t_ij]
            for u, table in enumerate(model.embedders if pm.mode != "baseline" else []):
                h_i = table.value[doc.mentions[i].features[u] - 1]
                h_j = table.value[doc.mentions[j].features[u] - 1]
                h_ij = ffnn_by_hand(pm.ffnn_u[u], np.concatenate([h_i, h_j, h_i * h_j]))
                if pm.mode == "cdgm":
                    gate = ffnn_by_hand(pm.ffnn_g[u], np.concatenate([t_ij, h_ij]))
                    tt = t_ij @ t_ij
                    par = (h_ij @ t_ij) / tt * t_ij if tt >= 1e-12 else np.zeros_like(t_ij)
                    h_ij = gate * (h_ij - par) + (1.0 - gate) * par
                parts.append(h_ij)
            norms.append(t_ij @ t_ij)
            scores.append(ffnn_by_hand(pm.ffnn_a, np.concatenate(parts))[0])
    return np.array(scores), np.array(norms)


def many_mention_doc(k, seed=0):
    rng = np.random.default_rng(seed)
    cards = FeatureSchema.default().cardinalities
    mentions = [
        Mention(2 * m, 2 * m + int(rng.integers(2)), tuple(1 + int(rng.integers(c)) for c in cards), m % 3)
        for m in range(k)
    ]
    return Document("long", [f"t{int(v)}" for v in rng.integers(12, size=2 * k + 1)], mentions)


def make_one_pair_singular(doc, model):
    """Shift ffnn_t so one pair's hidden layer is all zero and its t_ij is exactly 0."""
    f = model.pair.ffnn_t
    t = Tape()
    rows = trigger_reprs(encode_tokens(doc, model.encoder, t), doc.mentions).value
    pairs = row_pairs(len(doc.mentions))
    i, j = pairs.i, pairs.j
    pre = np.concatenate([rows[i], rows[j], rows[i] * rows[j]], axis=1) @ f.w1.value.T + f.b1.value
    lowest, second = np.sort(pre.max(axis=1))[:2]
    f.b1.value -= (lowest + second) / 2.0  # only the lowest pair's units all stay below 0
    f.b2.value[...] = 0.0


class TestAgainstOracle:
    @pytest.mark.parametrize("k", [5, 64])
    @pytest.mark.parametrize("mode", ["baseline", "simple", "cdgm"])
    def test_score_document_matches_straight_line(self, mode, k):
        """k = 5 runs every feature FFNN on the document's pairs, k = 64 on the value tables."""
        model = CorefModel(FeatureSchema.default(), ["<unk>"] + [f"t{v}" for v in range(10)], mode,
                           Dims(d=8, l=4, p=6, w=1), seed=11)
        doc = many_mention_doc(k, seed=k)
        make_one_pair_singular(doc, model)
        want, norms = oracle_scores(doc, model)
        # One row on the ||t||^2 < eps branch, every other row far from it.
        assert np.sum(norms == 0.0) == 1 and np.sort(norms)[1] > 1e-10
        got = score_document(doc, model).flat
        # Relative to the largest score: a score near 0 is a difference of larger terms.
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestGradients:
    def test_full_pair_score_finite_differences(self):
        """Backward through the whole pipeline on a 2-mention instance."""
        schema = FeatureSchema((("Type", 3),))
        model = tiny_model(seed=3, schema=schema, dims=Dims(d=5, l=3, p=4, w=1))
        doc = Document(
            "d", [f"t{i}" for i in range(6)],
            [Mention(1, 1, (2,), 0), Mention(4, 4, (3,), 0)],
        )

        def closure():
            t = Tape()
            from evcoref.autodiff import reshape

            return t, reshape(score_document_node(doc, model, t), ())

        report = grad_check(closure, model.parameters(), step=1e-5, tol=1e-4)
        assert report.worst < 1e-4, report

    def test_document_finite_differences_repeated_values(self):
        """Six mentions, 15 pairs: Type's 4-row value table, Tense's per-pair path."""
        schema = FeatureSchema((("Type", 2), ("Tense", 4)))
        model = tiny_model(seed=3, schema=schema, dims=Dims(d=3, l=2, p=3, w=1))
        values = [(1, 2), (2, 2), (1, 4), (1, 2), (2, 1), (1, 4)]
        doc = Document("d", [f"t{q}" for q in range(13)],
                       [Mention(2 * m, 2 * m + m % 2, f, m % 2) for m, f in enumerate(values)])
        v = np.random.default_rng(4).normal(size=15)
        pm = model.pair
        # Everything up to and including the pair FFNNs; the gate and scorer are plain mlp nodes.
        checked = [model.encoder.embeddings, model.encoder.mix_w, model.encoder.mix_b, *model.embedders,
                   *pm.ffnn_t.params(), *(p for f in pm.ffnn_u for p in f.params())]

        def closure():
            t = Tape()
            return t, dot(t.constant(v), score_document_node(doc, model, t))

        report = grad_check(closure, checked, step=1e-5, tol=1e-4)
        assert report.worst < 1e-4, report

    def test_hidden_width_rule(self):
        assert hidden_width(32) == 64
        assert hidden_width(4) == 32


class TestPairScores:
    def test_index_math(self):
        assert PairScores.index(1, 0) == 0
        assert PairScores.index(2, 0) == 1
        assert PairScores.index(2, 1) == 2
        assert PairScores.index(4, 3) == 9
        with pytest.raises(ValueError):
            PairScores.index(2, 2)

    def test_matrix_occupancy(self):
        s = PairScores(3, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(s.row(1), [1.0])
        np.testing.assert_array_equal(s.row(2), [2.0, 3.0])
