"""Reverse-mode automatic differentiation over dense float64 arrays.

Model code builds values through the primitives below; every call appends
one entry to a :class:`Tape` (the computation record).  ``Tape.backward``
replays the record once in reverse, accumulating gradients into the
:class:`Parameter` leaves registered through ``Tape.watch``.  The model's
blocks are fused primitives (``mlp``, ``pair_mlp``, ``gated_mix``), one
entry each, so a document's record stays short.  A tape made with
``record=False`` keeps no record: scoring runs on one and frees each
intermediate as soon as nothing reads it.

All primitives except ``pair_mlp`` (row pairs of a 2-D matrix) accept
both single vectors (1-D) and row-batched matrices (2-D), so a whole
document's mention pairs can be pushed through the model as one short
record.  Everything is float64 and deterministic: identical
inputs give bit-identical outputs.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy import sparse

# ||t||^2 below this threshold makes the projection return (0, h).
PROJECTION_EPS = 1e-12


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for a primitive operation."""


class NonDeterministicClosure(RuntimeError):
    """Two baseline evaluations of a grad-check closure disagreed."""


class Parameter:
    """A named trainable array with a persistent gradient accumulator.

    ``group`` tags the parameter for the two-rate optimizer: "lower" for
    the encoder and feature embedders, "upper" for the pair-model FFNNs.
    """

    __slots__ = ("name", "value", "grad", "group")

    def __init__(self, name, value, group="upper"):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.group = group

    @property
    def size(self):
        return self.value.size

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape}, group={self.group!r})"


class Node:
    """One recorded value; ``grad`` holds its gradient only while backward passes it on."""

    __slots__ = ("value", "grad", "tape", "_backward")

    def __init__(self, value, tape):
        self.value = value
        self.grad = None
        self.tape = tape
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    # Operator sugar so model code reads like the math it implements.
    def __add__(self, other):
        return add(self, _as_node(other, self.tape))

    def __radd__(self, other):
        return add(_as_node(other, self.tape), self)

    def __sub__(self, other):
        return sub(self, _as_node(other, self.tape))

    def __rsub__(self, other):
        return sub(_as_node(other, self.tape), self)

    def __mul__(self, other):
        return mul(self, _as_node(other, self.tape))

    def __rmul__(self, other):
        return mul(_as_node(other, self.tape), self)

    def __neg__(self):
        return scale(-1.0, self)

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


class Tape:
    """Ordered record of primitive operations, replayed once in reverse.

    Single-writer: do not record onto or backward the same tape from two
    threads.  A tape is consumed by ``backward`` and cannot be reused.

    Every recorded node points back at its tape, so a recording tape is a
    reference cycle until ``release`` drops the record.  With
    ``record=False`` the tape keeps nothing: no record, no backward
    closures, no watched leaves, and ``backward`` raises.
    """

    def __init__(self, record=True):
        self.recording = record
        self._record = []
        self._watched = {}
        self.params = []
        self._consumed = False

    def constant(self, value):
        """A leaf that takes no gradient."""
        return self._append(np.asarray(value, dtype=np.float64), None)

    def watch(self, param):
        """Register a Parameter; repeated watches return the same leaf."""
        if not self.recording:
            return Node(param.value, self)
        node = self._watched.get(id(param))
        if node is None:
            node = self._append(param.value, lambda g, p=param: np.add(p.grad, g, out=p.grad))
            self._watched[id(param)] = node
            self.params.append(param)
        return node

    def _append(self, value, backward):
        node = Node(value, self)
        if self.recording:
            node._backward = backward
            self._record.append(node)
        return node

    def release(self):
        """Drop the record, so reference counting frees the tape and its nodes."""
        self._record = []
        self._watched = {}
        self._consumed = True

    def backward(self, loss):
        """Accumulate d(loss)/d(param) into every watched parameter.

        ``loss`` must be a scalar node of this tape; ``None`` is accepted
        only for an empty record and leaves all gradients untouched.
        """
        if not self.recording:
            raise RuntimeError("backward on a non-recording tape")
        if self._consumed:
            raise RuntimeError("tape already consumed by a backward pass")
        self._consumed = True
        if loss is None:
            if self._record:
                raise ValueError("backward(None) is only valid on an empty record")
            return
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if loss.value.shape != ():
            raise ShapeMismatch(f"backward: loss must be scalar, got shape {loss.value.shape}")
        loss.grad = np.ones((), dtype=np.float64)
        # Once a node has passed its gradient on, neither its gradient nor
        # its closure is read again: drop both, so memory stays near the
        # frontier of the reverse sweep rather than the whole tape.
        for node in reversed(self._record):
            g, node.grad = node.grad, None
            if g is not None and node._backward is not None:
                node._backward(g)
            node._backward = None


def _as_node(x, tape):
    if isinstance(x, Node):
        if x.tape is not tape:
            raise ValueError("operands recorded on different tapes")
        return x
    return tape.constant(x)


def _accum(node, g):
    # The first write keeps ``g`` itself, which may be shared with other
    # nodes or be a read-only view, so later writes never add in place.
    node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _broadcast_shape(op, a, b):
    try:
        return np.broadcast_shapes(a.value.shape, b.value.shape)
    except ValueError:
        raise ShapeMismatch(f"{op}: shapes {a.value.shape} and {b.value.shape} do not align") from None


def _affine_value(op, wv, bv, xv):
    if wv.ndim != 2 or bv.shape != (wv.shape[0],):
        raise ShapeMismatch(f"{op}: weight {wv.shape} and bias {bv.shape} do not align")
    if xv.ndim not in (1, 2) or xv.shape[-1] != wv.shape[1]:
        raise ShapeMismatch(f"{op}: weight {wv.shape} cannot act on input {xv.shape}")
    return wv @ xv + bv if xv.ndim == 1 else xv @ wv.T + bv


def _affine_grads(g, wv, xv):
    """(d weight, d bias, d input) of an affine map, given d output ``g``."""
    if xv.ndim == 1:
        return np.outer(g, xv), g, g @ wv
    return g.T @ xv, g.sum(axis=0), g @ wv


def _sigmoid_value(xv):
    e = np.exp(-np.abs(xv))
    return np.where(xv >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def affine(w, b, x):
    """w @ x + b for 1-D x, or x @ w.T + b row-wise for 2-D x.

    ``w`` has shape (out, in) and ``b`` shape (out,).
    """
    wv, xv = w.value, x.value
    out = _affine_value("affine", wv, b.value, xv)

    def backward(g):
        dw, db, dx = _affine_grads(g, wv, xv)
        _accum(w, dw)
        _accum(b, db)
        _accum(x, dx)

    return x.tape._append(out, backward)


def relu(x):
    """Elementwise max(x, 0)."""
    xv = x.value
    out = np.maximum(xv, 0.0)

    def backward(g):
        _accum(x, g * (xv > 0.0))

    return x.tape._append(out, backward)


def sigmoid(x):
    """Numerically stable elementwise logistic function."""
    s = _sigmoid_value(x.value)

    def backward(g):
        _accum(x, g * s * (1.0 - s))

    return x.tape._append(s, backward)


def mlp(w1, b1, w2, b2, x, squash=False):
    """affine -> ReLU -> affine, then sigmoid when ``squash``, as one node.

    ``x`` is a node, or a list of nodes read as their concatenation along
    the last axis.  With at least as many rows as w1 has columns, each
    block meets its own columns of w1 and the concatenation is never
    built; with fewer, the copy is smaller than w1 and is built.  For one
    node, values and gradients are those of the chain of ``affine``,
    ``relu`` and ``sigmoid`` nodes, bit for bit; for blocks, up to
    summation order.  The backward pass keeps only the hidden layer and
    the output.
    """
    w1v, w2v = w1.value, w2.value
    if isinstance(x, list) and (x[0].value.ndim == 1 or len(x[0].value) < w1v.shape[-1]):
        x = concat(x)
    parts = x if isinstance(x, list) else [x]
    xvs = [p.value for p in parts]
    bounds = [0, *accumulate(v.shape[-1] for v in xvs)]
    if w1v.ndim != 2 or bounds[-1] != w1v.shape[1] or any(v.shape[:-1] != xvs[0].shape[:-1] for v in xvs):
        raise ShapeMismatch(f"mlp: weight {w1v.shape} cannot act on inputs {[v.shape for v in xvs]}")
    blocks = [w1v[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    pre = _affine_value("mlp", blocks[0], b1.value, xvs[0])
    for wb, v in zip(blocks[1:], xvs[1:]):
        pre += v @ wb.T
    hidden = np.maximum(pre, 0.0)
    out = _affine_value("mlp", w2v, b2.value, hidden)
    if squash:
        out = _sigmoid_value(out)

    def backward(g):
        if squash:
            g = g * out * (1.0 - out)
        dw2, db2, dh = _affine_grads(g, w2v, hidden)
        dpre = dh * (hidden > 0.0)
        # Against the whole of w1, dx holds every block's gradient, sliced as concat's backward would.
        dw1, db1, dx = _affine_grads(dpre, w1v, xvs[0])
        if len(parts) > 1:
            dw1 = np.concatenate([dw1] + [dpre.T @ v for v in xvs[1:]], axis=1)
        _accum(w2, dw2)
        _accum(b2, db2)
        _accum(w1, dw1)
        _accum(b1, db1)
        for part, lo, hi in zip(parts, bounds, bounds[1:]):
            _accum(part, dx[..., lo:hi])

    return parts[0].tape._append(out, backward)


def add(a, b):
    _broadcast_shape("add", a, b)
    out = a.value + b.value

    def backward(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, _unbroadcast(g, b.value.shape))

    return a.tape._append(out, backward)


def sub(a, b):
    _broadcast_shape("sub", a, b)
    out = a.value - b.value

    def backward(g):
        _accum(a, _unbroadcast(g, a.value.shape))
        _accum(b, -_unbroadcast(g, b.value.shape))

    return a.tape._append(out, backward)


def mul(a, b):
    """Elementwise (Hadamard) product; broadcasts like numpy."""
    _broadcast_shape("mul", a, b)
    av, bv = a.value, b.value
    out = av * bv

    def backward(g):
        _accum(a, _unbroadcast(g * bv, av.shape))
        _accum(b, _unbroadcast(g * av, bv.shape))

    return a.tape._append(out, backward)


def scale(alpha, x):
    """Multiply by a plain python scalar (not a recorded value)."""
    alpha = float(alpha)
    out = alpha * x.value

    def backward(g):
        _accum(x, alpha * g)

    return x.tape._append(out, backward)


def dot(a, b):
    """Inner product of two 1-D vectors, returned as a scalar node."""
    av, bv = a.value, b.value
    if av.ndim != 1 or av.shape != bv.shape:
        raise ShapeMismatch(f"dot: shapes {av.shape} and {bv.shape} do not align")
    out = np.asarray(av @ bv)

    def backward(g):
        _accum(a, g * bv)
        _accum(b, g * av)

    return a.tape._append(out, backward)


def concat(parts):
    """Concatenate nodes along the last axis."""
    if not parts:
        raise ValueError("concat: empty part list")
    tape = parts[0].tape
    vals = [p.value for p in parts]
    lead = vals[0].shape[:-1]
    for v in vals[1:]:
        if v.ndim != vals[0].ndim or v.shape[:-1] != lead:
            raise ShapeMismatch(
                f"concat: shapes {vals[0].shape} and {v.shape} do not align"
            )
    out = np.concatenate(vals, axis=-1)
    bounds = [0]
    for v in vals:
        bounds.append(bounds[-1] + v.shape[-1])

    def backward(g):
        for part, lo, hi in zip(parts, bounds, bounds[1:]):
            _accum(part, g[..., lo:hi])

    return tape._append(out, backward)


def scatter_rows(g, index, n):
    """Sum the rows of ``g`` into ``n`` rows by ``index``.

    Bit for bit ``np.add.at(np.zeros((n,) + g.shape[1:]), index, g)``:
    every output row adds its terms in input order, starting from 0.
    ``index`` is an integer vector, summed by one flat ``np.bincount``,
    or a sparse 0/1 matrix whose rows list their columns in ascending
    order (``RowPairs.incidence``): ``index @ g`` adds each row's terms
    in column order, as ``np.add.at`` does for the index list it encodes.
    """
    if sparse.issparse(index):
        return index @ g
    width = math.prod(g.shape[1:])
    flat_g = g.reshape(len(index), width)
    flat = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=flat_g.ravel(), minlength=n * width)
    return out.reshape((n,) + g.shape[1:])


def take_rows(x, indices):
    """Gather rows (2-D) or elements (1-D) by a vector of integer indices."""
    idx = np.asarray(indices, dtype=np.intp)
    xv = x.value
    if idx.ndim != 1:
        raise ShapeMismatch(f"take_rows: need a vector of indices, got shape {idx.shape}")
    out = xv[idx]

    def backward(g):
        _accum(x, scatter_rows(g, idx, xv.shape[0]))

    return x.tape._append(out, backward)


def _incidence(rows, n, width):
    """(n, width) 0/1 CSR matrix with a 1 at (rows[q], q % width), columns ascending per row."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_array((np.ones(len(rows)), order % width, indptr), shape=(n, width))


class RowPairs:
    """Row pairs (i[p], j[p]) of an n-row array, for ``pair_mlp``.

    ``incidence`` holds the two sparse matrices that scatter pair-sized
    gradients back onto the rows, built on first use, so forward-only
    scoring never builds them:

    - ``split @ g`` (2n rows) holds g's rows summed by i above those
      summed by j, i.e. ``np.add.at`` of [g ; g] at [i ; j + n];
    - ``merged @ [a ; b]`` (n rows) sums a's rows by i plus b's by j,
      i.e. ``np.add.at`` of [a ; b] at [i ; j].
    """

    def __init__(self, i, j, n):
        self.i, self.j, self.n = i, j, n
        for v in (i, j):
            v.flags.writeable = False
        self._incidence = None

    def __len__(self):
        return len(self.i)

    @property
    def incidence(self):
        if self._incidence is None:
            i, j, n, p = self.i, self.j, self.n, len(self)
            self._incidence = (_incidence(np.concatenate([i, j + n]), 2 * n, p),
                               _incidence(np.concatenate([i, j]), n, 2 * p))
        return self._incidence


@lru_cache(maxsize=64)
def row_pairs(k):
    """All pairs j < i of k rows, in row-major (score) order."""
    i, j = np.tril_indices(k, -1)
    return RowPairs(i, j, k)


def row_block(k, a, b):
    """The pairs of rows a <= i < b of ``row_pairs(k)``: its contiguous slice [a(a-1)/2, b(b-1)/2)."""
    pairs = row_pairs(k)
    lo, hi = a * (a - 1) // 2, b * (b - 1) // 2
    return RowPairs(pairs.i[lo:hi], pairs.j[lo:hi], k)


@lru_cache(maxsize=64)
def full_pairs(n):
    """All n * n ordered pairs (a, b) of n rows; pair (a, b) is row a * n + b."""
    return RowPairs(np.repeat(np.arange(n), n), np.tile(np.arange(n), n), n)


def stacked_row_pairs(ks):
    """``row_pairs`` of documents of ks[0], ks[1], ... rows stacked in that order.

    Document d's pairs follow document d-1's, with its rows shifted by the
    rows before it, so the pairs keep each document's score order.
    """
    if len(ks) == 1:
        return row_pairs(ks[0])
    starts = np.cumsum([0, *ks[:-1]])
    blocks = [row_pairs(k) for k in ks]
    return RowPairs(np.concatenate([b.i + s for b, s in zip(blocks, starts)]),
                    np.concatenate([b.j + s for b, s in zip(blocks, starts)]), int(sum(ks)))


def pair_mlp(w1, b1, w2, b2, x, pairs, squash=False):
    """``mlp`` of [x_i ; x_j ; x_i o x_j] for every row pair (i, j) of ``pairs``, as one node.

    W1 = [A | B | C] by input third, so x_i·Aᵀ and x_j·Bᵀ are computed
    once per row of x and gathered; only the Hadamard third runs per
    pair.  Values and gradients are those of ``take_rows``, ``mul``,
    ``concat`` and ``mlp`` up to summation order.
    """
    xv, w1v, w2v = x.value, w1.value, w2.value
    if xv.ndim != 2 or xv.shape[0] != pairs.n or w1v.ndim != 2 or w1v.shape[1] != 3 * xv.shape[1]:
        raise ShapeMismatch(
            f"pair_mlp: weight {w1v.shape} cannot act on pairs of {pairs.n} rows of {xv.shape}"
        )
    d = xv.shape[1]
    a, b, c = w1v[:, :d], w1v[:, d : 2 * d], w1v[:, 2 * d :]
    i, j = pairs.i, pairs.j
    prod = xv[i] * xv[j]
    hidden = _affine_value("pair_mlp", c, b1.value, prod)
    hidden += (xv @ a.T)[i]
    hidden += (xv @ b.T)[j]
    np.maximum(hidden, 0.0, out=hidden)
    out = _affine_value("pair_mlp", w2v, b2.value, hidden)
    if squash:
        out = _sigmoid_value(out)

    def backward(g):
        if squash:
            g = g * out * (1.0 - out)
        dw2, db2, dh = _affine_grads(g, w2v, hidden)
        dpre = dh * (hidden > 0.0)
        split, merged = pairs.incidence
        n, p = pairs.n, len(pairs)
        s = scatter_rows(dpre, split, 2 * n)
        s_i, s_j = s[:n], s[n:]
        # Written in place: no concatenation copies of pair-sized arrays.
        dw1 = np.empty_like(w1v)
        np.matmul(s_i.T, xv, out=dw1[:, :d])
        np.matmul(s_j.T, xv, out=dw1[:, d : 2 * d])
        np.matmul(dpre.T, prod, out=dw1[:, 2 * d :])
        dprod = dpre @ c
        cross = np.empty((2 * p, d))
        np.multiply(dprod, xv[j], out=cross[:p])
        np.multiply(dprod, xv[i], out=cross[p:])
        _accum(w2, dw2)
        _accum(b2, db2)
        _accum(w1, dw1)
        _accum(b1, dpre.sum(axis=0))
        _accum(x, s_i @ a + s_j @ b + scatter_rows(cross, merged, n))

    return x.tape._append(out, backward)


def matmul_const(m, x):
    """Apply a fixed (non-trainable) matrix on the left: m @ x.  ``m`` may be a scipy sparse matrix."""
    if not sparse.issparse(m):
        m = np.asarray(m, dtype=np.float64)
    xv = x.value
    if m.ndim != 2 or xv.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"matmul_const: matrix {m.shape} cannot act on {xv.shape}")
    out = m @ xv

    def backward(g):
        _accum(x, m.T @ g)

    return x.tape._append(out, backward)


def reshape(x, shape):
    xv = x.value
    out = xv.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(xv.shape))

    return x.tape._append(out, backward)


def sum_all(x):
    """Sum of all entries, as a scalar node."""
    xv = x.value
    out = np.asarray(xv.sum())

    def backward(g):
        _accum(x, np.broadcast_to(g, xv.shape))

    return x.tape._append(out, backward)


def logsumexp_rows(x):
    """Row-wise log(sum(exp(x))) of a 2-D array, and each row's softmax.

    -inf entries drop out.  Each row's max term (exactly exp(0) after
    shifting) is kept out of the sum and folded back through log1p, so
    the result stays fully accurate even when the remaining mass is many
    orders of magnitude smaller.
    """
    rows = np.arange(x.shape[0])
    star = x.argmax(axis=1)
    top = x[rows, star]
    ex = np.exp(x - top[:, None])
    ex[rows, star] = 0.0
    rest = ex.sum(axis=1)
    ex[rows, star] = 1.0
    return top + np.log1p(rest), ex / (1.0 + rest)[:, None]


def logsumexp(x):
    """Stable log(sum(exp(x))) of a 1-D vector, as a scalar node."""
    xv = x.value
    if xv.ndim != 1 or xv.size == 0:
        raise ShapeMismatch(f"logsumexp: need a non-empty vector, got shape {xv.shape}")
    out, soft = logsumexp_rows(xv[None, :])

    def backward(g):
        _accum(x, g * soft[0])

    return x.tape._append(np.asarray(out[0]), backward)


def precomputed(x, value, dx):
    """A scalar node holding ``value``, whose gradient d(value)/dx is ``dx``."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != () or np.shape(dx) != x.value.shape:
        raise ShapeMismatch(
            f"precomputed: need a scalar value and a gradient shaped like {x.value.shape}, "
            f"got {value.shape} and {np.shape(dx)}"
        )

    def backward(g):
        _accum(x, g * dx)

    return x.tape._append(value, backward)


def _split(op, tv, hv, eps):
    """Parallel and orthogonal parts of hv against tv, row-wise.

    Also returns ``through(q)``, the gradient (dh, dt) of (q . parallel).
    It is linear in q, so one call serves any linear mix of parallel parts.
    """
    if tv.shape != hv.shape:
        raise ShapeMismatch(f"{op}: shapes {tv.shape} and {hv.shape} differ")
    tt = np.sum(tv * tv, axis=-1, keepdims=True)
    ok = tt >= eps
    denom = np.where(ok, tt, 1.0)
    coef = np.where(ok, np.sum(hv * tv, axis=-1, keepdims=True) / denom, 0.0)
    par_v = coef * tv

    def through(q):
        # coef and r are 0 on singular rows, so both gradients are 0 there.
        r = np.where(ok, np.sum(q * tv, axis=-1, keepdims=True) / denom, 0.0)
        return r * tv, coef * q + r * (hv - 2.0 * coef * tv)

    return par_v, hv - par_v, through


def project_decompose(t, h, eps=PROJECTION_EPS):
    """Split h into components parallel and orthogonal to t, row-wise.

    parallel = ((h.t)/(t.t)) t and orthogonal = h - parallel.  Rows where
    ||t||^2 < eps return (0, h) exactly; on that branch the gradient is
    the identity through h and zero through t.
    """
    par_v, orth_v, through = _split("project_decompose", t.value, h.value, eps)

    def backward_par(g):
        dh, dt = through(g)
        _accum(h, dh)
        _accum(t, dt)

    def backward_orth(g):
        dh, dt = through(g)
        _accum(h, g - dh)
        _accum(t, -dt)

    tape = t.tape
    par = tape._append(par_v, backward_par)
    orth = tape._append(orth_v, backward_orth)
    return par, orth


def gated_mix(gate, t, h, eps=PROJECTION_EPS):
    """gate * orthogonal + (1 - gate) * parallel, splitting h against t, as one node.

    The output is gate * h + (1 - 2 gate) * parallel, so the backward pass
    runs the projection's gradient once, on g * (1 - 2 gate).  Values are
    those of ``project_decompose`` followed by the elementwise mix, bit for
    bit; gradients agree up to summation order, on both projection branches.
    """
    gv = gate.value
    par_v, orth_v, through = _split("gated_mix", t.value, h.value, eps)
    if gv.shape != par_v.shape:
        raise ShapeMismatch(f"gated_mix: gate {gv.shape} and input {par_v.shape} differ")
    out = gv * orth_v + (1.0 - gv) * par_v

    def backward(g):
        dh, dt = through(g * (1.0 - 2.0 * gv))
        _accum(gate, g * (orth_v - par_v))
        _accum(h, g * gv + dh)
        _accum(t, dt)

    return t.tape._append(out, backward)


class GradCheckReport:
    """Worst relative error per parameter block, from central differences."""

    def __init__(self, errors, tol):
        self.errors = errors
        self.tol = tol

    @property
    def worst(self):
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def ok(self):
        return self.worst < self.tol

    def __repr__(self):
        lines = [f"{name}: {err:.3e}" for name, err in self.errors.items()]
        return "GradCheckReport(\n  " + "\n  ".join(lines) + f"\n) worst={self.worst:.3e} tol={self.tol:g}"


def grad_check(closure, params, step=1e-5, tol=1e-4, corrupt=None):
    """Compare analytic gradients against central finite differences.

    ``closure`` must be a deterministic zero-argument callable returning
    ``(tape, loss_node)`` built fresh on each call.  For every scalar in
    every parameter the numeric gradient (f(p+step)-f(p-step))/(2 step) is
    compared to the recorded one; the report keeps the worst relative
    error |a-n|/max(|a|,|n|,1e-8) per block.

    ``corrupt`` names a block whose analytic gradient is deliberately
    shifted before comparison -- a fault-injection hook for tests.
    """
    if step <= 0:
        raise ValueError("step must be positive")

    def evaluate():
        tape, loss = closure()
        tape.release()
        return float(loss.value)

    first = evaluate()
    tape, loss = closure()
    if first != float(loss.value):
        raise NonDeterministicClosure(
            f"baseline evaluations differ: {first!r} vs {float(loss.value)!r}"
        )
    stashed = [(p, p.grad.copy()) for p in params]
    for p in params:
        p.zero_grad()
    tape.backward(loss)
    tape.release()
    analytic = {p.name: p.grad.copy() for p in params}
    for p, g in stashed:
        p.grad = g
    if corrupt is not None:
        if corrupt not in analytic:
            raise KeyError(f"no parameter block named {corrupt!r}")
        analytic[corrupt] = analytic[corrupt] + 1.0

    errors = {}
    for p in params:
        flat = p.value.reshape(-1)
        aflat = analytic[p.name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = evaluate()
            flat[i] = orig - step
            down = evaluate()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
        errors[p.name] = worst
    return GradCheckReport(errors, tol)
