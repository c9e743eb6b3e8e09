"""Token encoding, trigger averaging, and feature embedding lookups."""

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import block_diag

from evcoref.autodiff import Tape, sum_all
from evcoref.corpus import Document, FeatureSchema, Mention
from evcoref.encoder import (
    build_vocab,
    embed_features,
    encode_tokens,
    init_encoder,
    init_feature_embedders,
    span_average_matrix,
    trigger_repr,
    trigger_reprs,
    window_mean_matrix,
)


def tiny_encoder(vocab, d=4, w=2, seed=0):
    return init_encoder(vocab, d, w, np.random.default_rng(seed))


def straight_line_encode(doc, enc):
    """Independent recomputation: embed, window-average, affine, relu."""
    ids = enc.token_ids(doc.tokens)
    emb = enc.embeddings.value[ids]
    n = len(ids)
    out = np.zeros((n, enc.dim))
    for i in range(n):
        lo, hi = max(0, i - enc.window), min(n - 1, i + enc.window)
        ctx = emb[lo : hi + 1].mean(axis=0)
        pre = enc.mix_w.value @ np.concatenate([emb[i], ctx]) + enc.mix_b.value
        out[i] = np.maximum(pre, 0.0)
    return out


class TestEncodeTokens:
    def test_window_zero_uses_own_embedding(self):
        doc = Document("d", ["a", "b", "c"], [])
        enc = tiny_encoder(["<unk>", "a", "b", "c"], w=0)
        x = encode_tokens(doc, enc, Tape()).value
        np.testing.assert_allclose(x, straight_line_encode(doc, enc), atol=1e-12)
        np.testing.assert_array_equal(window_mean_matrix(3, 0), np.eye(3))

    def test_identical_tokens_identical_rows(self):
        doc = Document("d", ["a"] * 6, [])
        enc = tiny_encoder(["<unk>", "a"])
        x = encode_tokens(doc, enc, Tape()).value
        for row in x[1:]:
            np.testing.assert_allclose(row, x[0], atol=1e-12)

    def test_seven_token_doc_matches_straight_line(self):
        doc = Document("d", ["a", "b", "c", "d", "e", "f", "g"], [])
        enc = tiny_encoder(build_vocab([doc]), d=6, w=2, seed=3)
        x = encode_tokens(doc, enc, Tape()).value
        np.testing.assert_allclose(x, straight_line_encode(doc, enc), atol=1e-12)

    def test_empty_document(self):
        doc = Document("d", [], [])
        enc = tiny_encoder(["<unk>", "a"])
        assert encode_tokens(doc, enc, Tape()).value.shape == (0, 4)

    def test_unknown_tokens_map_to_reserved_id(self):
        enc = tiny_encoder(["<unk>", "a"])
        np.testing.assert_array_equal(enc.token_ids(["a", "zzz"]), [1, 0])

    def test_locality(self):
        """Perturbing a token outside the window leaves x_i untouched."""
        tokens = ["a", "b", "c", "d", "e", "f", "g", "h"]
        enc = tiny_encoder(["<unk>"] + tokens + ["z"], w=1)
        x1 = encode_tokens(Document("d", tokens, []), enc, Tape()).value
        far = tokens.copy()
        far[7] = "z"
        x2 = encode_tokens(Document("d", far, []), enc, Tape()).value
        np.testing.assert_array_equal(x1[:6], x2[:6])
        assert np.abs(x1[6:] - x2[6:]).max() >= 0.0  # rows 6..7 may change


def loop_window_mean(n, w):
    """The window-mean matrix one row at a time."""
    m = np.zeros((n, n))
    for i in range(n):
        lo, hi = max(0, i - w), min(n - 1, i + w)
        m[i, lo : hi + 1] = 1.0 / (hi - lo + 1)
    return m


def loop_span_average(mentions, n):
    """The span-average matrix one mention at a time."""
    a = np.zeros((len(mentions), n))
    for r, m in enumerate(mentions):
        a[r, m.start : m.end + 1] = 1.0 / (m.end - m.start + 1)
    return a


def random_spans(rng, n, k):
    starts = rng.integers(0, n, size=k)
    ends = np.minimum(starts + rng.integers(0, 4, size=k), n - 1)
    return [Mention(int(s), int(e), (), None) for s, e in zip(starts, ends)]


class TestAveragingMatrices:
    """Index-arithmetic matrices against their row-by-row definitions."""

    def test_window_mean_bit_identical_to_loop(self):
        rng = np.random.default_rng(11)
        for n, w in [(0, 2), (1, 0), (1, 3)] + [tuple(rng.integers(0, [70, 6])) for _ in range(60)]:
            got = window_mean_matrix(int(n), int(w))
            assert isinstance(got, np.ndarray)
            np.testing.assert_array_equal(got, loop_window_mean(int(n), int(w)))

    def test_packed_window_mean_is_block_diagonal(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            lengths = [int(n) for n in rng.integers(1, 40, size=rng.integers(1, 8))]
            w = int(rng.integers(0, 5))
            got = window_mean_matrix(lengths, w)
            assert sparse.issparse(got) and got.format == "csr"
            np.testing.assert_array_equal(got.toarray(), block_diag(*(loop_window_mean(n, w) for n in lengths)))

    def test_span_average_bit_identical_to_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 60))
            mentions = random_spans(rng, n, int(rng.integers(0, 12)))
            got = span_average_matrix(mentions, n)
            assert isinstance(got, np.ndarray)
            np.testing.assert_array_equal(got, loop_span_average(mentions, n))

    def test_packed_span_average_is_block_diagonal(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            lengths = [int(n) for n in rng.integers(1, 40, size=rng.integers(1, 8))]
            docs = [random_spans(rng, n, int(rng.integers(0, 6))) for n in lengths]
            shifts = np.repeat(np.cumsum([0] + lengths[:-1]), [len(m) for m in docs])
            got = span_average_matrix([m for ms in docs for m in ms], sum(lengths), shifts)
            assert sparse.issparse(got) and got.format == "csr"
            want = block_diag(*(loop_span_average(ms, n) for ms, n in zip(docs, lengths)))
            np.testing.assert_array_equal(got.toarray(), want)


class TestTriggerRepr:
    def test_single_token_span(self):
        t = Tape()
        x = t.constant(np.arange(12.0).reshape(4, 3))
        got = trigger_repr(x, Mention(2, 2, (), None)).value
        np.testing.assert_array_equal(got, [6.0, 7.0, 8.0])

    def test_two_equal_rows(self):
        t = Tape()
        x = t.constant(np.array([[1.0, 2.0], [1.0, 2.0], [9.0, 9.0]]))
        got = trigger_repr(x, Mention(0, 1, (), None)).value
        np.testing.assert_array_equal(got, [1.0, 2.0])

    def test_arithmetic_mean(self):
        t = Tape()
        x = t.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
        got = trigger_repr(x, Mention(0, 1, (), None)).value
        np.testing.assert_array_equal(got, [2.0, 3.0])

    def test_out_of_bounds_rejected(self):
        t = Tape()
        x = t.constant(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            trigger_repr(x, Mention(2, 3, (), None))

    def test_homogeneous_in_x(self):
        rng = np.random.default_rng(4)
        xv = rng.normal(size=(5, 3))
        m = Mention(1, 3, (), None)
        t = Tape()
        a = trigger_repr(t.constant(xv), m).value
        b = trigger_repr(t.constant(2.5 * xv), m).value
        np.testing.assert_allclose(b, 2.5 * a, atol=1e-12)

    def test_permutation_within_span(self):
        rng = np.random.default_rng(5)
        xv = rng.normal(size=(4, 3))
        perm = xv.copy()
        perm[[1, 2]] = perm[[2, 1]]
        m = Mention(1, 2, (), None)
        t = Tape()
        np.testing.assert_allclose(
            trigger_repr(t.constant(xv), m).value,
            trigger_repr(t.constant(perm), m).value,
            atol=1e-12,
        )

    def test_batched_matches_single(self):
        rng = np.random.default_rng(6)
        xv = rng.normal(size=(6, 3))
        mentions = [Mention(0, 1, (), None), Mention(3, 5, (), None)]
        t = Tape()
        batch = trigger_reprs(t.constant(xv), mentions).value
        for r, m in enumerate(mentions):
            t2 = Tape()
            np.testing.assert_array_equal(batch[r], trigger_repr(t2.constant(xv), m).value)


class TestEmbedFeatures:
    SCHEMA = FeatureSchema((("Type", 3), ("Tense", 4)))

    def test_equal_values_share_rows(self):
        emb = init_feature_embedders(self.SCHEMA, 5, np.random.default_rng(0))
        t = Tape()
        a = embed_features(Mention(0, 0, (2, 1), None), emb, t)
        b = embed_features(Mention(1, 1, (2, 3), None), emb, t)
        np.testing.assert_array_equal(a[0].value, b[0].value)
        assert not np.array_equal(a[1].value, b[1].value)

    def test_lookup_semantics(self):
        emb = init_feature_embedders(self.SCHEMA, 3, np.random.default_rng(0))
        emb[0].value[2] = [0.0, 0.0, 1.0]  # basis row for value 3
        t = Tape()
        out = embed_features(Mention(0, 0, (3, 1), None), emb, t)
        np.testing.assert_array_equal(out[0].value, [0.0, 0.0, 1.0])

    def test_empty_schema(self):
        emb = init_feature_embedders(FeatureSchema(()), 3, np.random.default_rng(0))
        assert embed_features(Mention(0, 0, (), None), emb, Tape()) == []

    def test_out_of_range_rejected(self):
        emb = init_feature_embedders(self.SCHEMA, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            embed_features(Mention(0, 0, (4, 1), None), emb, Tape())

    def test_gradients_reach_all_parameter_groups(self):
        doc = Document("d", ["a", "b", "c"], [Mention(0, 0, (1, 2), 0), Mention(2, 2, (1, 2), 0)])
        enc = tiny_encoder(build_vocab([doc]), d=4, w=1, seed=1)
        emb = init_feature_embedders(self.SCHEMA, 3, np.random.default_rng(1))
        t = Tape()
        x = encode_tokens(doc, enc, t)
        h = embed_features(doc.mentions[0], emb, t)
        loss = sum_all(x)
        for node in h:
            loss = loss + sum_all(node)
        t.backward(loss)
        for p in (enc.embeddings, enc.mix_w, emb[0], emb[1]):
            assert np.abs(p.grad).max() > 0
