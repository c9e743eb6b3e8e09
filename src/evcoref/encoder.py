"""Token encoding, trigger averaging, and symbolic feature embedding.

The contextual encoder is a deliberately small stand-in: one embedding
lookup per token mixed with the mean embedding of a +/-w token window,
pushed through a single ReLU affine layer.  Everything downstream only
needs some X = (x_1 .. x_n); this produces one in microseconds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .autodiff import Parameter, affine, concat, matmul_const, relu, reshape, take_rows
from .corpus import Document

UNK = "<unk>"


@dataclass
class EncoderParams:
    vocab: list[str]          # vocab[0] is the reserved unknown token
    embeddings: Parameter     # (V, d)
    mix_w: Parameter          # (d, 2d)
    mix_b: Parameter          # (d,)
    window: int

    def __post_init__(self):
        self._index = {tok: i for i, tok in enumerate(self.vocab)}

    @property
    def dim(self):
        return self.embeddings.value.shape[1]

    def token_ids(self, tokens):
        idx = self._index
        return np.array([idx.get(t, 0) for t in tokens], dtype=np.intp)


def build_vocab(docs):
    """Sorted corpus vocabulary with one reserved unknown id."""
    seen = set()
    for doc in docs:
        seen.update(doc.tokens)
    return [UNK] + sorted(seen)


def init_encoder(vocab, d, window, rng):
    bound = 1.0 / np.sqrt(d)
    emb = Parameter("encoder.embeddings", rng.uniform(-bound, bound, size=(len(vocab), d)), group="lower")
    wbound = 1.0 / np.sqrt(2 * d)
    mix_w = Parameter("encoder.mix.w", rng.uniform(-wbound, wbound, size=(d, 2 * d)), group="lower")
    mix_b = Parameter("encoder.mix.b", np.zeros(d), group="lower")
    return EncoderParams(vocab=vocab, embeddings=emb, mix_w=mix_w, mix_b=mix_b, window=window)


def range_mean_matrix(lo, hi, n, packed=False):
    """(len(lo), n) matrix whose row r averages columns lo[r] .. hi[r].

    Built by index arithmetic: row r holds 1 / (hi[r] - lo[r] + 1) in each
    of its columns.  Dense, or CSR when ``packed`` (rows of several
    documents laid out back to back, so almost every entry is 0).
    """
    lo = np.asarray(lo, dtype=np.intp)
    counts = np.asarray(hi, dtype=np.intp) - lo + 1
    indptr = np.zeros(len(lo) + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    cols = np.arange(indptr[-1]) + np.repeat(lo - indptr[:-1], counts)
    vals = np.repeat(1.0 / counts, counts)
    if packed:
        return sparse.csr_array((vals, cols, indptr), shape=(len(lo), n))
    m = np.zeros((len(lo), n))
    m[np.repeat(np.arange(len(lo)), counts), cols] = vals
    return m


def window_mean_matrix(lengths, w):
    """Row i averages positions [i-w, i+w] clipped to its document.

    ``lengths`` is one document's token count (a dense matrix), or the
    token counts of documents packed back to back (a block-diagonal CSR
    matrix, one block per document).
    """
    sizes = np.atleast_1d(np.asarray(lengths, dtype=np.intp))
    ends = np.cumsum(sizes)
    pos = np.arange(sizes.sum())
    lo = np.maximum(pos - w, np.repeat(ends - sizes, sizes))
    hi = np.minimum(pos + w, np.repeat(ends - 1, sizes))
    return range_mean_matrix(lo, hi, len(pos), packed=np.ndim(lengths) > 0)


def encode_tokens(docs, enc, tape):
    """Contextualized token representations X as an (n, d) node.

    ``docs`` is one Document, or a list of documents packed back to back:
    their tokens are stacked in order and no window crosses from one
    document into the next.
    """
    if isinstance(docs, Document):
        docs = [docs]
    ids = np.concatenate([enc.token_ids(doc.tokens) for doc in docs])
    lengths = len(ids) if len(docs) == 1 else [len(doc.tokens) for doc in docs]
    emb = take_rows(tape.watch(enc.embeddings), ids)
    ctx = matmul_const(window_mean_matrix(lengths, enc.window), emb)
    return relu(affine(tape.watch(enc.mix_w), tape.watch(enc.mix_b), concat([emb, ctx])))


def span_average_matrix(mentions, n, shifts=None):
    """(k, n) matrix whose rows average each mention's trigger span.

    ``shifts`` (one token offset per mention) places the spans of
    documents packed back to back, and makes the matrix CSR.
    """
    lo = np.array([m.start for m in mentions], dtype=np.intp)
    hi = np.array([m.end for m in mentions], dtype=np.intp)
    if shifts is not None:
        lo += shifts
        hi += shifts
    return range_mean_matrix(lo, hi, n, packed=shifts is not None)


def trigger_reprs(x, mentions, shifts=None):
    """All trigger vectors of a document, or of packed documents (see ``span_average_matrix``), as a (k, d) node."""
    return matmul_const(span_average_matrix(mentions, x.value.shape[0], shifts), x)


def trigger_repr(x, mention):
    """Average of the trigger's token vectors, as a (d,) node."""
    n, d = x.value.shape
    if not 0 <= mention.start <= mention.end < n:
        raise ValueError(f"trigger span ({mention.start}, {mention.end}) outside document of {n} tokens")
    return reshape(trigger_reprs(x, [mention]), (d,))


def init_feature_embedders(schema, l, rng):
    """One (N_u, l) trainable matrix per categorical feature."""
    bound = 1.0 / np.sqrt(l)
    return [
        Parameter(f"embed.{name}", rng.uniform(-bound, bound, size=(card, l)), group="lower")
        for name, card in schema.features
    ]


def feature_rows(mentions, u, cardinality):
    """Embedding-row index (value - 1) of feature u for every mention, as a (k,) int array."""
    rows = np.array([m.features[u] for m in mentions], dtype=np.intp) - 1
    if rows.size and (rows.min() < 0 or rows.max() >= cardinality):
        raise ValueError(f"feature value out of range for cardinality {cardinality}")
    return rows


def embed_features(mention, embedders, tape):
    """The K feature vectors of one mention, each as an (l,) node."""
    out = []
    for u, emb in enumerate(embedders):
        card, l = emb.value.shape
        row = take_rows(tape.watch(emb), feature_rows([mention], u, card))
        out.append(reshape(row, (l,)))
    return out
