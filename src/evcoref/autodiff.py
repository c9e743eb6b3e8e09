"""Reverse-mode automatic differentiation over dense float64 arrays.

Model code builds values through the primitives below; every call appends
one entry to a :class:`Tape` (the computation record).  ``Tape.backward``
replays the record once in reverse, accumulating gradients into the
:class:`Parameter` leaves registered through ``Tape.watch``.  The model's
blocks are fused primitives (``mlp``, ``gated_mix``), one entry each, so a
document's record stays short.  A tape made with ``record=False`` keeps
no record: scoring runs on one and frees each intermediate as soon as
nothing reads it.

All primitives accept both single vectors (1-D) and row-batched matrices
(2-D), so a whole document's mention pairs can be pushed through the model
as one short record.  Everything is float64 and deterministic: identical
inputs give bit-identical outputs.
"""
from __future__ import annotations

import numpy as np

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

    Values and gradients are those of the chain of ``affine``, ``relu``
    and ``sigmoid`` nodes, bit for bit; the backward pass keeps only the
    hidden layer and the output.
    """
    xv, w1v, w2v = x.value, w1.value, w2.value
    hidden = np.maximum(_affine_value("mlp", w1v, b1.value, xv), 0.0)
    out = _affine_value("mlp", w2v, b2.value, hidden)
    if squash:
        out = _sigmoid_value(out)

    def backward(g):
        if squash:
            g = g * out * (1.0 - out)
        dw2, db2, dh = _affine_grads(g, w2v, hidden)
        dw1, db1, dx = _affine_grads(dh * (hidden > 0.0), w1v, xv)
        _accum(w2, dw2)
        _accum(b2, db2)
        _accum(w1, dw1)
        _accum(b1, db1)
        _accum(x, dx)

    return x.tape._append(out, backward)


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


def take_rows(x, indices):
    """Gather rows (2-D) or elements (1-D) by integer index."""
    idx = np.asarray(indices, dtype=np.intp)
    xv = x.value
    out = xv[idx]

    def backward(g):
        # Scatter into a copy: x.grad may be shared with another node.
        full = np.zeros_like(xv) if x.grad is None else x.grad.copy()
        np.add.at(full, idx, g)
        x.grad = full

    return x.tape._append(out, backward)


def matmul_const(m, x):
    """Apply a fixed (non-trainable) matrix on the left: m @ x."""
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
    """
    if tv.shape != hv.shape:
        raise ShapeMismatch(f"{op}: shapes {tv.shape} and {hv.shape} differ")
    tt = np.sum(tv * tv, axis=-1, keepdims=True)
    ok = tt >= eps
    denom = np.where(ok, tt, 1.0)
    coef = np.where(ok, np.sum(hv * tv, axis=-1, keepdims=True) / denom, 0.0)
    par_v = coef * tv

    def through(q):
        qt = np.sum(q * tv, axis=-1, keepdims=True)
        dh = np.where(ok, qt / denom, 0.0) * tv
        dt = np.where(ok, coef * q + (qt / denom) * (hv - 2.0 * coef * tv), 0.0)
        return dh, dt

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

    Values and gradients are those of ``project_decompose`` followed by
    the elementwise mix, bit for bit, on both projection branches.
    """
    gv = gate.value
    par_v, orth_v, through = _split("gated_mix", t.value, h.value, eps)
    if gv.shape != par_v.shape:
        raise ShapeMismatch(f"gated_mix: gate {gv.shape} and input {par_v.shape} differ")
    keep = 1.0 - gv
    out = gv * orth_v + keep * par_v

    def backward(g):
        q_orth = g * gv
        dh_orth, dt_orth = through(q_orth)
        dh_par, dt_par = through(g * keep)
        _accum(gate, g * orth_v - g * par_v)
        _accum(h, (q_orth - dh_orth) + dh_par)
        # Two writes, in the unfused chain's order, keep t's sum bit-identical.
        _accum(t, -dt_orth)
        _accum(t, dt_par)

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
