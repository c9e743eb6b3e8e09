"""Mention-pair representations, the context-dependent gate, and scoring.

A pair of mentions is represented by a trigger-based vector t_ij and one
feature-based vector h_ij per symbolic feature.  In "cdgm" mode each
h_ij is split into components parallel and orthogonal to t_ij and mixed
by a learned sigmoid gate before the final concatenation; "simple" mode
concatenates the raw h_ij; "baseline" mode uses t_ij alone.

``trigger_pair`` and ``feature_pair`` take a (rows, width) node and the
row pairs to score, and run their FFNN's per-row terms once per row
(``autodiff.pair_mlp``).  The other functions work on single vectors and
on row-batched matrices alike, so ``score_pairs`` pushes any row pairs
through the model at once.  Scoring and training run a record in the
blocks of ``record_blocks``: the whole record when it fits
``BLOCK_PAIRS``, else one block of antecedent rows at a time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .autodiff import (Parameter, Tape, concat, full_pairs, gated_mix, mlp, pair_mlp, reshape, row_block,
                       stacked_row_pairs, take_rows)
from .encoder import encode_tokens, feature_rows, trigger_reprs

MODES = ("baseline", "simple", "cdgm")

# Most mention pairs one block scores or trains (``record_blocks``), so
# pair memory is bounded by a block rather than growing with k^2.  Above
# ``training.PAIR_BUDGET``, so a packed training record is one block.
BLOCK_PAIRS = 1024


@dataclass
class FFNN:
    """One-hidden-layer feedforward block: affine, ReLU, affine.

    ``out_sigmoid`` tags the gate networks, which squash their output
    through a logistic function.
    """

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter
    out_sigmoid: bool = False

    @property
    def in_width(self):
        return self.w1.value.shape[1]

    @property
    def out_width(self):
        return self.w2.value.shape[0]

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]


def hidden_width(out_width):
    # Smallest shape that is not a linear map but still trains in seconds.
    return max(2 * out_width, 32)


def init_ffnn(name, in_width, out_width, rng, out_sigmoid=False):
    hidden = hidden_width(out_width)
    b1 = 1.0 / np.sqrt(in_width)
    b2 = 1.0 / np.sqrt(hidden)
    return FFNN(
        w1=Parameter(f"{name}.w1", rng.uniform(-b1, b1, size=(hidden, in_width))),
        b1=Parameter(f"{name}.b1", np.zeros(hidden)),
        w2=Parameter(f"{name}.w2", rng.uniform(-b2, b2, size=(out_width, hidden))),
        b2=Parameter(f"{name}.b2", np.zeros(out_width)),
        out_sigmoid=out_sigmoid,
    )


def ffnn_apply(f, x, pairs=None):
    """f on x, or on [x_i ; x_j ; x_i o x_j] for each row pair (i, j) of ``pairs``.

    Without ``pairs``, x may be a list of blocks, read as their concatenation.
    """
    tape = x[0].tape if isinstance(x, list) else x.tape
    w1, b1, w2, b2 = (tape.watch(p) for p in f.params())
    if pairs is None:
        return mlp(w1, b1, w2, b2, x, squash=f.out_sigmoid)
    return pair_mlp(w1, b1, w2, b2, x, pairs, squash=f.out_sigmoid)


@dataclass
class PairModelParams:
    """All pair-level FFNNs for one mode.

    baseline: only ffnn_t and a p -> 1 scorer.
    simple:   adds one ffnn per feature; scorer takes (K+1)p.
    cdgm:     adds per-feature sigmoid gates on top of "simple".
    """

    mode: str
    ffnn_t: FFNN
    ffnn_u: list[FFNN] = field(default_factory=list)
    ffnn_g: list[FFNN] = field(default_factory=list)
    ffnn_a: FFNN = None

    @property
    def k(self):
        return len(self.ffnn_u)

    def params(self):
        out = list(self.ffnn_t.params())
        for f in self.ffnn_u:
            out.extend(f.params())
        for f in self.ffnn_g:
            out.extend(f.params())
        out.extend(self.ffnn_a.params())
        return out


def init_pair_model(schema, d, l, p, mode, rng):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    ffnn_t = init_ffnn("pair.t", 3 * d, p, rng)
    ffnn_u, ffnn_g = [], []
    if mode != "baseline":
        for name, _ in schema.features:
            ffnn_u.append(init_ffnn(f"pair.u.{name}", 3 * l, p, rng))
        if mode == "cdgm":
            for name, _ in schema.features:
                ffnn_g.append(init_ffnn(f"pair.g.{name}", 2 * p, p, rng, out_sigmoid=True))
    score_in = p if mode == "baseline" else (schema.k + 1) * p
    ffnn_a = init_ffnn("pair.a", score_in, 1, rng)
    return PairModelParams(mode=mode, ffnn_t=ffnn_t, ffnn_u=ffnn_u, ffnn_g=ffnn_g, ffnn_a=ffnn_a)


def trigger_pair(t_all, pairs, pm):
    """t_ij from [t_i ; t_j ; t_i o t_j] for each row pair (i, j) of the trigger rows."""
    return ffnn_apply(pm.ffnn_t, t_all, pairs)


def feature_pair(x, pairs, pm, u):
    """h_ij for feature u from [h_i ; h_j ; h_i o h_j] for each row pair of the embedding rows x."""
    if not 0 <= u < len(pm.ffnn_u):
        raise ValueError(f"feature index {u} out of range for K={len(pm.ffnn_u)}")
    return ffnn_apply(pm.ffnn_u[u], x, pairs)


def cdgm(t_ij, h_ij, pm, u):
    """Gate the orthogonal/parallel split of h_ij against the context t_ij.

    The parallel component carries what t_ij already knows; the
    orthogonal one carries new information.  A gate near 1 trusts the
    new information, near 0 it falls back on the trigger context.
    """
    gate = ffnn_apply(pm.ffnn_g[u], [t_ij, h_ij])
    return gated_mix(gate, t_ij, h_ij)


def assemble_pair(t_ij, parts, mode):
    """Final pair representation f_ij for the given mode, as one node.

    ``score_pairs`` hands the blocks [t_ij, *parts] to ``score_pair``
    instead, so the (P, (K+1)p) copy is never built.
    """
    if mode == "baseline":
        if parts:
            raise ValueError("baseline mode takes no feature parts")
        return t_ij
    return concat([t_ij] + list(parts)) if parts else t_ij


def score_pair(f_ij, pm):
    """Unbounded coreference score; scalar node for a single pair.

    ``f_ij`` is a node or the list of its blocks in layout order.
    """
    out = ffnn_apply(pm.ffnn_a, f_ij)
    if out.value.ndim == 1:
        return reshape(out, ())
    return reshape(out, (out.value.shape[0],))


class PairScores:
    """Scores s(i, j) for all j < i of a k-mention document."""

    def __init__(self, k, flat):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (k * (k - 1) // 2,):
            raise ValueError(f"expected {k * (k - 1) // 2} scores for k={k}, got {flat.shape}")
        self.k = k
        self.flat = flat

    @staticmethod
    def index(i, j):
        if not 0 <= j < i:
            raise ValueError(f"need j < i, got ({i}, {j})")
        return i * (i - 1) // 2 + j

    def score(self, i, j):
        return float(self.flat[self.index(i, j)])

    def row(self, i):
        """Scores against all antecedent candidates of mention i."""
        base = i * (i - 1) // 2
        return self.flat[base : base + i]


def encode_triggers(docs, model, tape):
    """The trigger rows of documents packed back to back, as one (sum k_d, d) node."""
    mentions = [m for doc in docs for m in doc.mentions]
    shifts = None
    if len(docs) > 1:
        shifts = np.repeat([0, *accumulate(len(doc.tokens) for doc in docs[:-1])],
                           [len(doc.mentions) for doc in docs])
    return trigger_reprs(encode_tokens(docs, model.encoder, tape), mentions, shifts)


def feature_sources(mentions, model, tape, n_pairs):
    """Where each feature's pair vectors come from, for a record of ``n_pairs`` pairs.

    h_ij for feature u depends only on the value pair (f_i[u], f_j[u]).
    When the record has more pairs than feature u has value pairs, its
    FFNN runs once on the whole N_u x N_u value-pair table, given as
    (table node, value rows, N_u); otherwise on the pairs themselves,
    given as (embedding rows node, None, None).  Empty in baseline mode.
    """
    if model.pair.mode == "baseline":
        return []
    out = []
    for u, emb in enumerate(model.embedders):
        n = emb.value.shape[0]
        rows = feature_rows(mentions, u, n)
        if n_pairs > n * n:
            out.append((feature_pair(tape.watch(emb), full_pairs(n), model.pair, u), rows, n))
        else:
            out.append((take_rows(tape.watch(emb), rows), None, None))
    return out


def score_pairs(t_all, sources, pairs, model):
    """Scores of the row pairs ``pairs`` of the trigger rows ``t_all`` as one (len(pairs),) node."""
    t_ij = trigger_pair(t_all, pairs, model.pair)
    parts = []
    for u, (x, rows, n) in enumerate(sources):
        if rows is None:
            h_ij = feature_pair(x, pairs, model.pair, u)
        else:
            h_ij = take_rows(x, rows[pairs.i] * n + rows[pairs.j])
        parts.append(cdgm(t_ij, h_ij, model.pair, u) if model.pair.mode == "cdgm" else h_ij)
    return score_pair([t_ij] + parts, model.pair)


def score_batch_node(docs, model, tape):
    """Scores for all j < i pairs of several documents, packed into one (P_total,) node on ``tape``.

    Returns the node and the D + 1 pair offsets: document d's scores,
    in ``row_pairs`` order, are node.value[offsets[d]:offsets[d + 1]].
    The node is None when no document has two mentions.  The documents'
    tokens and mentions are stacked, the encoder's window and span
    matrices are block-diagonal, and their row pairs are stacked
    (``stacked_row_pairs``), so one forward covers the batch and no
    term crosses from one document into another.  The one-tape
    reference for the blocks of ``record_blocks``.
    """
    ks = [len(doc.mentions) for doc in docs]
    offsets = [0, *accumulate(k * (k - 1) // 2 for k in ks)]
    if offsets[-1] == 0:
        return None, offsets
    t_all = encode_triggers(docs, model, tape)
    sources = feature_sources([m for doc in docs for m in doc.mentions], model, tape, offsets[-1])
    return score_pairs(t_all, sources, stacked_row_pairs(ks), model), offsets


def row_blocks(k):
    """Consecutive antecedent rows [a, b) of a k-mention document, at most ``BLOCK_PAIRS`` pairs each.

    Rows run from 1 (row 0 has no antecedent); a row with more pairs than
    the bound is a block of its own.  Rows [a, b) hold the pairs
    [a(a-1)/2, b(b-1)/2) of ``row_pairs(k)``.
    """
    starts = [1]
    for i in range(2, k):
        s = starts[-1]
        if (i + 1) * i // 2 - s * (s - 1) // 2 > BLOCK_PAIRS:
            starts.append(i)
    return list(zip(starts, starts[1:] + [k])) if k > 1 else []


def record_blocks(ks):
    """Yield the (pairs, rows) blocks that score and train a record of documents with ``ks`` mentions.

    A record within ``BLOCK_PAIRS`` is one block of all its stacked pairs,
    rows None; a longer one holds one document, cut at ``row_blocks``.
    Each block's row pairs are made as it is reached, so their scatter
    matrices die with the block.
    """
    if sum(k * (k - 1) // 2 for k in ks) <= BLOCK_PAIRS:
        yield stacked_row_pairs(ks), None
        return
    if len(ks) != 1:
        raise ValueError(f"a record over {BLOCK_PAIRS} pairs holds one document, got {len(ks)}")
    for a, b in row_blocks(ks[0]):
        yield row_block(ks[0], a, b), (a, b)


def score_document_node(doc, model, tape):
    """Scores for all j < i pairs of one document as one (P,) node on ``tape``, or None below two mentions.

    The encoder and feature sources run once, the pair terms once per
    block (``record_blocks``).  On a non-recording tape a block keeps
    only its scores, so memory is bounded by a block.
    """
    k = len(doc.mentions)
    n_pairs = k * (k - 1) // 2
    if n_pairs == 0:
        return None
    t_all = encode_triggers([doc], model, tape)
    sources = feature_sources(doc.mentions, model, tape, n_pairs)
    return concat([score_pairs(t_all, sources, pairs, model) for pairs, _ in record_blocks([k])])


def score_document(doc, model):
    """Forward-only scoring on a non-recording tape; returns a PairScores of plain floats."""
    node = score_document_node(doc, model, Tape(record=False))
    return PairScores(len(doc.mentions), np.zeros(0) if node is None else node.value)
