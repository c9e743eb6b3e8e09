"""Forward primitives, the projection split, and gradient fidelity."""

import gc
import weakref

import numpy as np
import pytest

from evcoref.autodiff import (
    PROJECTION_EPS,
    _split,
    NonDeterministicClosure,
    Parameter,
    ShapeMismatch,
    Tape,
    add,
    affine,
    concat,
    dot,
    gated_mix,
    grad_check,
    logsumexp,
    matmul_const,
    mlp,
    mul,
    full_pairs,
    pair_mlp,
    project_decompose,
    relu,
    reshape,
    row_pairs,
    scatter_rows,
    sigmoid,
    sum_all,
    take_rows,
)


class TestForwardPrimitives:
    def test_sigmoid_at_zero(self):
        t = Tape()
        assert float(sigmoid(t.constant(0.0)).value) == 0.5

    def test_relu(self):
        t = Tape()
        np.testing.assert_array_equal(relu(t.constant([-1.0, 2.0])).value, [0.0, 2.0])

    def test_dot(self):
        t = Tape()
        assert float(dot(t.constant([1.0, 2.0]), t.constant([3.0, 4.0])).value) == 11.0

    def test_affine_vector_and_matrix_agree(self):
        rng = np.random.default_rng(0)
        t = Tape()
        w = t.constant(rng.normal(size=(3, 4)))
        b = t.constant(rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        batched = affine(w, b, t.constant(x)).value
        for i in range(5):
            row = affine(w, b, t.constant(x[i])).value
            np.testing.assert_allclose(batched[i], row, rtol=1e-13, atol=1e-15)

    def test_purity_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=7)
        outs = []
        for _ in range(2):
            t = Tape()
            node = sigmoid(relu(t.constant(x)))
            outs.append(node.value.copy())
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_shape_mismatch_diagnostics(self):
        t = Tape()
        with pytest.raises(ShapeMismatch, match="affine"):
            affine(t.constant(np.ones((2, 3))), t.constant(np.ones(2)), t.constant(np.ones(4)))
        with pytest.raises(ShapeMismatch, match="dot"):
            dot(t.constant(np.ones(3)), t.constant(np.ones(4)))
        with pytest.raises(ShapeMismatch, match="concat"):
            concat([t.constant(np.ones((2, 3))), t.constant(np.ones((3, 3)))])

    def test_logsumexp_matches_naive(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.normal(scale=5.0, size=rng.integers(1, 9))
            t = Tape()
            got = float(logsumexp(t.constant(v)).value)
            assert got == pytest.approx(np.log(np.exp(v).sum()), rel=1e-12)


class TestProjectDecompose:
    def test_axis_aligned(self):
        t = Tape()
        par, orth = project_decompose(t.constant([1.0, 0.0]), t.constant([3.0, 4.0]))
        np.testing.assert_array_equal(par.value, [3.0, 0.0])
        np.testing.assert_array_equal(orth.value, [0.0, 4.0])

    def test_self_projection(self):
        t = Tape()
        par, orth = project_decompose(t.constant([2.0, 2.0]), t.constant([2.0, 2.0]))
        np.testing.assert_allclose(par.value, [2.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(orth.value, [0.0, 0.0], atol=1e-14)

    def test_singularity_convention(self):
        t = Tape()
        par, orth = project_decompose(t.constant([0.0, 0.0]), t.constant([5.0, -1.0]))
        np.testing.assert_array_equal(par.value, [0.0, 0.0])
        np.testing.assert_array_equal(orth.value, [5.0, -1.0])

    def test_decomposition_properties_1000_trials(self):
        """parallel + orthogonal reconstructs h; orthogonal is normal to t;
        parallel is collinear with t (vanishing 2x2 minors)."""
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            tv = rng.normal(scale=rng.choice([0.01, 1.0, 100.0]), size=n)
            hv = rng.normal(scale=rng.choice([0.01, 1.0, 100.0]), size=n)
            if tv @ tv < 1e-12:
                continue
            t = Tape()
            par, orth = project_decompose(t.constant(tv), t.constant(hv))
            p, o = par.value, orth.value
            assert np.abs(p + o - hv).max() <= 1e-10 * (np.linalg.norm(hv) + 1)
            assert abs(o @ tv) <= 1e-8 * (np.linalg.norm(o) * np.linalg.norm(tv) + 1)
            minors = np.abs(np.outer(p, tv) - np.outer(tv, p))
            assert minors.max() <= 1e-8 * np.linalg.norm(hv) * np.linalg.norm(tv)

    def test_rowwise_matches_vector_calls(self):
        rng = np.random.default_rng(12)
        tv = rng.normal(size=(6, 4))
        hv = rng.normal(size=(6, 4))
        tv[2] = 0.0  # one singular row inside a batch
        t = Tape()
        par, orth = project_decompose(t.constant(tv), t.constant(hv))
        for r in range(6):
            t2 = Tape()
            pr, orr = project_decompose(t2.constant(tv[r]), t2.constant(hv[r]))
            np.testing.assert_array_equal(par.value[r], pr.value)
            np.testing.assert_array_equal(orth.value[r], orr.value)

    def test_length_mismatch_rejected(self):
        t = Tape()
        with pytest.raises(ShapeMismatch):
            project_decompose(t.constant([1.0, 2.0]), t.constant([1.0, 2.0, 3.0]))


class TestBackward:
    def test_sigmoid_gradient_at_zero(self):
        t = Tape()
        x = Parameter("x", 0.0)
        loss = sigmoid(t.watch(x))
        t.backward(loss)
        assert float(x.grad) == pytest.approx(0.25, abs=1e-15)

    def test_dot_self_gradient(self):
        t = Tape()
        x = Parameter("x", [1.0, 2.0])
        node = t.watch(x)
        t.backward(dot(node, node))
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-15)

    def test_empty_record_backward(self):
        t = Tape()
        p = Parameter("p", [1.0, 2.0])
        t.backward(None)
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])

    def test_backward_twice_rejected(self):
        t = Tape()
        x = Parameter("x", 1.0)
        loss = sigmoid(t.watch(x))
        t.backward(loss)
        with pytest.raises(RuntimeError):
            t.backward(loss)

    def test_take_rows_scatter_adds(self):
        t = Tape()
        x = Parameter("x", [[1.0, 2.0], [3.0, 4.0]])
        gathered = take_rows(t.watch(x), [0, 0, 1])
        t.backward(sum_all(gathered))
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [1.0, 1.0]])

    @pytest.mark.parametrize("shape", [(6,), (6, 3), (6, 2, 2)])
    def test_scatter_rows_bit_identical_to_add_at(self, shape):
        rng = np.random.default_rng(22)
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        idx = np.array([3, 0, 3, 3, 1, 0])  # repeats, and rows 2 and 4 get nothing
        want = np.zeros((5,) + shape[1:])
        np.add.at(want, idx, g)
        got = scatter_rows(g, idx, 5)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_scatter_rows_no_indices(self):
        got = scatter_rows(np.zeros((0, 3)), np.zeros(0, dtype=np.intp), 4)
        np.testing.assert_array_equal(got, np.zeros((4, 3)))

    @pytest.mark.parametrize("pairs", [row_pairs(1), row_pairs(2), row_pairs(9), full_pairs(4)],
                             ids=["k1", "k2", "k9", "full4"])
    def test_pair_incidence_bit_identical_to_add_at(self, pairs):
        rng = np.random.default_rng(23)
        n, p = pairs.n, len(pairs)
        g = rng.normal(size=(p, 3)) * 10.0 ** rng.integers(-8, 8, size=(p, 3))
        h = rng.normal(size=(2 * p, 3)) * 10.0 ** rng.integers(-8, 8, size=(2 * p, 3))
        split, merged = pairs.incidence
        want = np.zeros((2 * n, 3))
        np.add.at(want, np.concatenate([pairs.i, pairs.j + n]), np.concatenate([g, g]))
        assert scatter_rows(g, split, 2 * n).tobytes() == want.tobytes()
        want = np.zeros((n, 3))
        np.add.at(want, np.concatenate([pairs.i, pairs.j]), h)
        assert scatter_rows(h, merged, n).tobytes() == want.tobytes()

    def test_take_rows_scatter_into_existing_gradient(self):
        t = Tape()
        x = Parameter("x", [[1.0, 2.0], [3.0, 4.0]])
        node = t.watch(x)
        both = add(take_rows(node, [1, 1]), take_rows(node, [0, 1]))
        t.backward(sum_all(both))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [3.0, 3.0]])

    def test_matmul_const_gradient(self):
        t = Tape()
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        x = Parameter("x", [[1.0], [1.0]])
        t.backward(sum_all(matmul_const(m, t.watch(x))))
        np.testing.assert_array_equal(x.grad, [[1.0], [3.0]])

    def test_projection_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(21)
        tv = Parameter("t", rng.normal(size=5))
        hv = Parameter("h", rng.normal(size=5))
        v = rng.normal(scale=0.01, size=5)

        def closure():
            t = Tape()
            par, orth = project_decompose(t.watch(tv), t.watch(hv))
            return t, dot(t.constant(v), mul(par, orth))

        report = grad_check(closure, [tv, hv], step=1e-5, tol=1e-6)
        assert report.ok, report

    def test_singular_branch_gradients(self):
        # identity through h, zero through t
        tv = Parameter("t", [0.0, 0.0, 0.0])
        hv = Parameter("h", [1.0, -2.0, 3.0])
        t = Tape()
        par, orth = project_decompose(t.watch(tv), t.watch(hv))
        t.backward(sum_all(concat([par, orth])))
        np.testing.assert_array_equal(tv.grad, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(hv.grad, [1.0, 1.0, 1.0])


class TestGradCheck:
    def test_affine_layer_seed7(self):
        rng = np.random.default_rng(7)
        w = Parameter("w", rng.uniform(-0.5, 0.5, size=(6, 9)))
        b = Parameter("b", rng.uniform(-0.5, 0.5, size=6))
        x = rng.normal(size=9)
        v = rng.normal(scale=3e-4, size=6)

        def closure():
            t = Tape()
            return t, dot(t.constant(v), affine(t.watch(w), t.watch(b), t.constant(x)))

        report = grad_check(closure, [w, b], step=1e-5, tol=1e-6)
        assert report.worst < 1e-6, report

    def test_cdgm_block_isolation_seed7(self):
        from evcoref.pair_model import cdgm, init_ffnn, PairModelParams

        rng = np.random.default_rng(7)
        p = 6
        gate = init_ffnn("gate", 2 * p, p, rng, out_sigmoid=True)
        tv = rng.normal(size=p)
        hv = rng.normal(size=p)
        v = rng.normal(scale=0.02, size=p)
        pm = PairModelParams(mode="cdgm", ffnn_t=None, ffnn_u=[None], ffnn_g=[gate], ffnn_a=None)

        def closure():
            t = Tape()
            out = cdgm(t.constant(tv), t.constant(hv), pm, 0)
            return t, dot(t.constant(v), out)

        report = grad_check(closure, gate.params(), step=1e-5, tol=1e-4)
        assert report.worst < 1e-4, report

    def test_constant_closure(self):
        p = Parameter("unused", [1.0, 2.0])

        def closure():
            t = Tape()
            t.watch(p)
            return t, t.constant(3.5)

        report = grad_check(closure, [p], step=1e-5, tol=1e-6)
        assert report.worst == 0.0

    def test_nondeterministic_closure_rejected(self):
        state = {"n": 0}
        p = Parameter("p", 1.0)

        def closure():
            state["n"] += 1
            t = Tape()
            return t, mul(sigmoid(t.watch(p)), t.constant(float(state["n"])))

        with pytest.raises(NonDeterministicClosure):
            grad_check(closure, [p])

    def test_corrupt_hook_reports_failure(self):
        rng = np.random.default_rng(5)
        w = Parameter("w", rng.uniform(-0.5, 0.5, size=(3, 3)))

        def closure():
            t = Tape()
            x = affine(t.watch(w), t.constant(np.zeros(3)), t.constant(rng.standard_normal(3) * 0 + 1.0))
            return t, dot(x, x)

        report = grad_check(closure, [w], step=1e-5, tol=1e-4, corrupt="w")
        assert not report.ok

    def test_reshape_round_trip_gradient(self):
        p = Parameter("p", [[1.0, 2.0], [3.0, 4.0]])
        t = Tape()
        flat = reshape(t.watch(p), (4,))
        t.backward(dot(flat, t.constant([1.0, 0.0, 0.0, 2.0])))
        np.testing.assert_array_equal(p.grad, [[1.0, 0.0], [0.0, 2.0]])


def _value_and_grads(build, params, v):
    """Forward ``build(tape)``; gradients of sum(v * out) for every param."""
    for p in params:
        p.zero_grad()
    t = Tape()
    out = build(t)
    t.backward(sum_all(mul(t.constant(v), out)))
    return out.value, [p.grad.copy() for p in params]


def _assert_same(fused, chain):
    (fv, fg), (cv, cg) = fused, chain
    np.testing.assert_allclose(fv, cv, rtol=1e-12, atol=0)
    for a, b in zip(fg, cg):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


class TestFusedNodes:
    """The fused model blocks against the chains of primitives they replace."""

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("squash", [False, True])
    def test_mlp_matches_primitive_chain(self, rows, squash):
        rng = np.random.default_rng(31)
        shape = (5,) if rows is None else (rows, 5)
        params = [Parameter("w1", rng.normal(size=(6, 5))), Parameter("b1", rng.normal(size=6)),
                  Parameter("w2", rng.normal(size=(3, 6))), Parameter("b2", rng.normal(size=3)),
                  Parameter("x", rng.normal(size=shape))]
        v = rng.normal(size=shape[:-1] + (3,))

        def fused(t):
            return mlp(*(t.watch(p) for p in params), squash=squash)

        def chain(t):
            w1, b1, w2, b2, x = (t.watch(p) for p in params)
            out = affine(w2, b2, relu(affine(w1, b1, x)))
            return sigmoid(out) if squash else out

        _assert_same(_value_and_grads(fused, params, v), _value_and_grads(chain, params, v))

    @pytest.mark.parametrize("rows", [None, 7, 12])  # 9 input columns: below 9 rows the blocks are joined
    @pytest.mark.parametrize("squash", [False, True])
    def test_mlp_blocks_match_concatenated_input(self, rows, squash):
        rng = np.random.default_rng(34)
        lead = () if rows is None else (rows,)
        params = [Parameter("w1", rng.normal(size=(6, 9))), Parameter("b1", rng.normal(size=6)),
                  Parameter("w2", rng.normal(size=(3, 6))), Parameter("b2", rng.normal(size=3)),
                  Parameter("x1", rng.normal(size=lead + (2,))), Parameter("x2", rng.normal(size=lead + (4,))),
                  Parameter("x3", rng.normal(size=lead + (3,)))]
        v = rng.normal(size=lead + (3,))

        def blocks(t):
            w1, b1, w2, b2, *xs = (t.watch(p) for p in params)
            return mlp(w1, b1, w2, b2, xs, squash=squash)

        def joined(t):
            w1, b1, w2, b2, *xs = (t.watch(p) for p in params)
            return mlp(w1, b1, w2, b2, concat(xs), squash=squash)

        _assert_same(_value_and_grads(blocks, params, v), _value_and_grads(joined, params, v))

    def test_mlp_blocks_shape_mismatch(self):
        t = Tape()
        w1, b1 = t.constant(np.ones((2, 5))), t.constant(np.ones(2))
        w2, b2 = t.constant(np.ones((1, 2))), t.constant(np.ones(1))
        with pytest.raises(ShapeMismatch, match="mlp"):
            mlp(w1, b1, w2, b2, [t.constant(np.ones((6, 2))), t.constant(np.ones((6, 2)))])
        with pytest.raises(ShapeMismatch, match="mlp"):
            mlp(w1, b1, w2, b2, [t.constant(np.ones((6, 2))), t.constant(np.ones((7, 3)))])
        with pytest.raises(ShapeMismatch, match="concat"):  # fewer rows than w1 has columns: joined first
            mlp(w1, b1, w2, b2, [t.constant(np.ones((3, 2))), t.constant(np.ones((4, 3)))])

    @pytest.mark.parametrize("case", ["vector", "batch", "singular"])
    def test_gated_mix_matches_projection_and_mix(self, case):
        rng = np.random.default_rng(32)
        shape = (4,) if case == "vector" else (6, 4)
        tv = rng.normal(size=shape)
        if case == "singular":
            tv[2] = 0.0  # ||t||^2 < eps: the row returns (0, h)
        params = [Parameter("g", rng.uniform(0.05, 0.95, size=shape)), Parameter("t", tv),
                  Parameter("h", rng.normal(size=shape))]
        v = rng.normal(size=shape)

        def fused(t):
            g, tn, hn = (t.watch(p) for p in params)
            return gated_mix(g, tn, hn)

        def chain(t):
            g, tn, hn = (t.watch(p) for p in params)
            par, orth = project_decompose(tn, hn)
            return g * orth + (1.0 - g) * par

        fused_out = _value_and_grads(fused, params, v)
        _assert_same(fused_out, _value_and_grads(chain, params, v))
        if case == "singular":
            np.testing.assert_array_equal(fused_out[1][1][2], 0.0)  # no gradient through t

    @pytest.mark.parametrize("pairs", [row_pairs(2), row_pairs(3), row_pairs(17), full_pairs(3)],
                             ids=["k2", "k3", "k17", "full3"])
    @pytest.mark.parametrize("squash", [False, True])
    def test_pair_mlp_matches_primitive_chain(self, pairs, squash):
        """Split first layer vs gathered [x_i ; x_j ; x_i o x_j]: summation order only."""
        rng = np.random.default_rng(33)
        d = 4
        params = [Parameter("w1", rng.normal(size=(6, 3 * d))), Parameter("b1", rng.normal(size=6)),
                  Parameter("w2", rng.normal(size=(3, 6))), Parameter("b2", rng.normal(size=3)),
                  Parameter("x", rng.normal(size=(pairs.n, d)))]
        v = rng.normal(size=(len(pairs), 3))

        def fused(t):
            return pair_mlp(*(t.watch(p) for p in params), pairs, squash=squash)

        def chain(t):
            w1, b1, w2, b2, x = (t.watch(p) for p in params)
            x_i, x_j = take_rows(x, pairs.i), take_rows(x, pairs.j)
            return mlp(w1, b1, w2, b2, concat([x_i, x_j, x_i * x_j]), squash=squash)

        _assert_same(_value_and_grads(fused, params, v), _value_and_grads(chain, params, v))

    def test_pair_mlp_shape_mismatch(self):
        t = Tape()
        w1, b1 = t.constant(np.ones((2, 9))), t.constant(np.ones(2))
        w2, b2 = t.constant(np.ones((1, 2))), t.constant(np.ones(1))
        with pytest.raises(ShapeMismatch, match="pair_mlp"):
            pair_mlp(w1, b1, w2, b2, t.constant(np.ones((3, 4))), row_pairs(3))
        with pytest.raises(ShapeMismatch, match="pair_mlp"):
            pair_mlp(w1, b1, w2, b2, t.constant(np.ones((4, 3))), row_pairs(3))

    @pytest.mark.parametrize("case", ["vector", "batch", "near-singular"])
    def test_gated_mix_one_call_matches_two_call_backward(self, case):
        """The one ``through`` call on g * (1 - 2 gate) against one call per projected part."""
        rng = np.random.default_rng(35)
        shape = (4,) if case == "vector" else (7, 4)
        gv, tv, hv = rng.uniform(0.05, 0.95, size=shape), rng.normal(size=shape), rng.normal(size=shape)
        if case == "near-singular":
            tv[2] *= 1e-7  # 0 < ||t||^2 < PROJECTION_EPS: the row takes the singular branch
            tv[5] = 0.0
        g = rng.normal(size=shape)
        par, orth, through = _split("ref", tv, hv, PROJECTION_EPS)
        dh_orth, dt_orth = through(g * gv)
        dh_par, dt_par = through(g * (1.0 - gv))
        want = [g * orth - g * par, (g * gv - dh_orth) + dh_par, -dt_orth + dt_par]
        params = [Parameter("g", gv), Parameter("t", tv), Parameter("h", hv)]

        def fused(t):
            gn, tn, hn = (t.watch(p) for p in params)
            return gated_mix(gn, tn, hn)

        value, (dg, dt, dh) = _value_and_grads(fused, params, g)
        np.testing.assert_array_equal(value, gv * orth + (1.0 - gv) * par)
        for got, ref in zip((dg, dh, dt), want):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        if case == "near-singular":
            np.testing.assert_array_equal(dt[[2, 5]], 0.0)
            np.testing.assert_array_equal(dh[[2, 5]], (g * gv)[[2, 5]])

    def test_gated_mix_grad_check(self):
        rng = np.random.default_rng(36)
        params = [Parameter("g", rng.uniform(0.1, 0.9, size=(5, 3))), Parameter("t", rng.normal(size=(5, 3))),
                  Parameter("h", rng.normal(size=(5, 3)))]
        v = rng.normal(size=(5, 3))

        def closure():
            t = Tape()
            gn, tn, hn = (t.watch(p) for p in params)
            return t, sum_all(mul(t.constant(v), gated_mix(gn, tn, hn)))

        report = grad_check(closure, params, step=1e-6, tol=1e-6)
        assert report.ok, report

    def test_gated_mix_shape_mismatch(self):
        t = Tape()
        with pytest.raises(ShapeMismatch, match="gated_mix"):
            gated_mix(t.constant(np.ones(3)), t.constant(np.ones(4)), t.constant(np.ones(4)))


class TestNonRecordingTape:
    def test_same_values_and_no_record(self):
        rng = np.random.default_rng(33)
        w, b = Parameter("w", rng.normal(size=(3, 4))), Parameter("b", rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        values = []
        for record in (True, False):
            t = Tape(record=record)
            values.append(relu(affine(t.watch(w), t.watch(b), t.constant(x))).value)
            assert len(t._record) == (5 if record else 0)
        np.testing.assert_array_equal(values[0], values[1])

    def test_backward_raises(self):
        t = Tape(record=False)
        loss = sum_all(t.watch(Parameter("p", [1.0, 2.0])))
        with pytest.raises(RuntimeError, match="non-recording"):
            t.backward(loss)

    def test_intermediates_freed_without_collector(self):
        t = Tape(record=False)
        gc.disable()
        try:
            x = t.constant(np.ones(4))
            probe = weakref.ref(relu(x).value)
            out = sigmoid(x)
            assert probe() is None and out.value.shape == (4,)
        finally:
            gc.enable()


class TestRelease:
    def test_released_tape_freed_without_collector(self):
        p = Parameter("p", [1.0, -2.0])
        gc.disable()
        try:
            t = Tape()
            loss = sum_all(mul(t.watch(p), t.watch(p)))
            t.backward(loss)
            t.release()
            probe = weakref.ref(t)
            del t, loss
            assert probe() is None
        finally:
            gc.enable()
        np.testing.assert_array_equal(p.grad, [2.0, -4.0])

    def test_grad_check_leaves_no_live_tape(self):
        w = Parameter("w", [[0.5, -0.25], [0.1, 0.3]])
        probes = []

        def closure():
            t = Tape()
            probes.append(weakref.ref(t))
            out = affine(t.watch(w), t.constant(np.zeros(2)), t.constant([1.0, 2.0]))
            return t, dot(out, out)

        gc.disable()
        try:
            assert grad_check(closure, [w], step=1e-5, tol=1e-6).ok
            assert probes and all(probe() is None for probe in probes)
        finally:
            gc.enable()
