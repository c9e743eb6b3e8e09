"""Token encoding, trigger averaging, and symbolic feature embedding.

The contextual encoder is a deliberately small stand-in: one embedding
lookup per token mixed with the mean embedding of a +/-w token window,
pushed through a single ReLU affine layer.  Everything downstream only
needs some X = (x_1 .. x_n); this produces one in microseconds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, affine, concat, matmul_const, relu, reshape, take_rows

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


def window_mean_matrix(n, w):
    """Row i averages positions [i-w, i+w] clipped to the document."""
    m = np.zeros((n, n))
    for i in range(n):
        lo, hi = max(0, i - w), min(n - 1, i + w)
        m[i, lo : hi + 1] = 1.0 / (hi - lo + 1)
    return m


def encode_tokens(doc, enc, tape):
    """Contextualized token representations X as an (n, d) node."""
    ids = enc.token_ids(doc.tokens)
    emb = take_rows(tape.watch(enc.embeddings), ids)
    ctx = matmul_const(window_mean_matrix(len(ids), enc.window), emb)
    return relu(affine(tape.watch(enc.mix_w), tape.watch(enc.mix_b), concat([emb, ctx])))


def span_average_matrix(mentions, n):
    """(k, n) matrix whose rows average each mention's trigger span."""
    a = np.zeros((len(mentions), n))
    for m, mention in enumerate(mentions):
        a[m, mention.start : mention.end + 1] = 1.0 / (mention.end - mention.start + 1)
    return a


def trigger_reprs(x, mentions):
    """All trigger vectors of a document, as a (k, d) node."""
    return matmul_const(span_average_matrix(mentions, x.value.shape[0]), x)


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
