"""Differentiation core: frozen forward values, backward semantics,
finite-difference agreement for every primitive, and the creation-ordered
backward pass against a depth-first reference."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixrep import autodiff as ad
from mixrep.errors import (
    DegenerateVectorError,
    GradientCheckError,
    NonSmoothPointError,
    ShapeError,
)
from mixrep.head import EmbeddingConfig, MixtureConfig, MixtureHead, parameter_layout


def gradcheck(f, params, tol=1e-6):
    err = ad.finite_difference_check(f, params)
    assert err < tol, f"max rel err {err:.3e} >= {tol:.1e}"
    return err


class TestFrozenValues:
    def test_l2_normalize_3_4(self):
        out = ad.l2_normalize(ad.constant([[3.0, 4.0]]))
        np.testing.assert_allclose(out.value, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_relu_values(self):
        out = ad.relu(ad.constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.value, [0.0, 0.0, 2.0])

    def test_unit_basis_sq_dist(self):
        out = ad.pairwise_sq_dist(ad.constant([[1.0, 0.0]]), ad.constant([0.0, 1.0]))
        assert out.value.shape == (1,)
        assert out.value[0] == pytest.approx(2.0, abs=1e-15)

    def test_sqrt_exact_zero_and_values(self):
        out = ad.sqrt(ad.constant([0.0, 4.0, 2.0]))
        assert out.value[0] == 0.0 and out.value[1] == 2.0
        assert out.value[2] == np.sqrt(2.0)

    def test_square_grad_at_3(self):
        x = ad.parameter(3.0)
        ad.backward(ad.square(x))
        assert float(x.grad) == pytest.approx(6.0, abs=1e-12)

    def test_gaussian_of_distance_grad(self):
        # y = exp(-2 d^2), dy/dd at d=1 is -4 e^-2
        d = ad.parameter(1.0)
        ad.backward(ad.exp(ad.scale(ad.square(d), -2.0)))
        assert float(d.grad) == pytest.approx(-0.5413411329464508, abs=1e-15)

    def test_unit_vector_radial_gradient_vanishes(self):
        # on the unit sphere the normalize vjp kills the radial component
        v = ad.parameter([[0.6, 0.8]])
        out = ad.l2_normalize(v)
        ad.backward(ad.reduce_sum(ad.square(out)))  # == 1 identically
        np.testing.assert_allclose(v.grad, [[0.0, 0.0]], atol=1e-15)


class TestForwardShapes:
    def test_matmul_variants(self):
        A = np.arange(6.0).reshape(2, 3)
        v = np.array([[1.0, 2.0, 3.0]])
        assert ad.matmul(ad.constant(A), ad.constant(v.T)).shape == (2, 1)
        assert ad.matmul(ad.constant(v), ad.constant(A.T)).shape == (1, 2)
        assert ad.matmul(ad.constant(A), ad.constant(A.T)).shape == (2, 2)
        assert ad.matmul(ad.constant(v), ad.constant(v.T)).shape == (1, 1)
        np.testing.assert_array_equal(ad.matmul(ad.constant(A), ad.constant(A.T)).value, A @ A.T)
        for bad in ((A, v[0]), (v[0], A.T), (v[0], v[0])):
            with pytest.raises(ShapeError):
                ad.matmul(ad.constant(bad[0]), ad.constant(bad[1]))

    def test_matmul_rows_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(5)
        X, W = rng.normal(size=(40, 20)), rng.normal(size=(20, 64))
        whole = ad.matmul(ad.constant(X), ad.constant(W)).value
        for i in range(len(X)):
            assert np.array_equal(ad.matmul(ad.constant(X[i:i + 1]), ad.constant(W)).value[0],
                                  whole[i])

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 2))))

    def test_add_broadcast_rejects_incompatible(self):
        with pytest.raises(ShapeError):
            ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(4)))

    def test_pairwise_sq_dist_forms(self):
        e = ad.constant(np.zeros((7, 4)))
        assert ad.pairwise_sq_dist(e, ad.constant(np.ones(4))).shape == (7,)
        assert ad.pairwise_sq_dist(e, ad.constant(np.ones((5, 4)))).shape == (7, 5)
        out = ad.pairwise_sq_dist(e, ad.constant(np.ones((3, 2, 4))))
        assert out.shape == (7, 3, 2)
        np.testing.assert_array_equal(out.value, 4.0)

    def test_pairwise_sq_dist_rows_match_single_queries(self):
        rng = np.random.default_rng(4)
        E, R = rng.normal(size=(6, 5)), rng.normal(size=(3, 2, 5))
        batched = ad.pairwise_sq_dist(ad.constant(E), ad.constant(R)).value
        for i in range(6):
            alone = ad.pairwise_sq_dist(ad.constant(E[i:i + 1]), ad.constant(R)).value
            np.testing.assert_array_equal(batched[i], alone[0])

    def test_pairwise_sq_dist_rejects_1d_query(self):
        with pytest.raises(ShapeError):
            ad.pairwise_sq_dist(ad.constant(np.ones(4)), ad.constant(np.ones((2, 4))))
        with pytest.raises(ShapeError):
            ad.pairwise_sq_dist(ad.constant(np.ones((2, 4))), ad.constant(np.ones((3, 5))))

    @pytest.mark.parametrize("chunk", [1, 500, 2**16], ids=["entry_chunks", "small_chunks",
                                                           "one_chunk"])
    def test_stacked_primitives_match_each_entry(self, monkeypatch, chunk):
        # a stack of E problems gives, bit for bit, the values and gradients
        # of the E problems run one at a time, however pairwise_sq_dist
        # splits the stack into chunks
        monkeypatch.setattr(ad, "DIFF_CHUNK", chunk)
        rng = np.random.default_rng(8)
        X, W = rng.normal(size=(5, 7, 6)), rng.normal(size=(5, 6, 4))
        b, R = rng.normal(size=(5, 1, 4)), rng.normal(size=(5, 3, 2, 4))

        def graph(x, w, bias, reps):
            params = [ad.parameter(v) for v in (w, bias, reps)]
            e = ad.l2_normalize(ad.add(ad.matmul(ad.constant(x), params[0]), params[1]))
            d2 = ad.pairwise_sq_dist(e, params[2])
            p = ad.exp(ad.scale(d2, -0.7))
            rows = ad.reduce_sum(ad.reshape(p, p.shape[:-2] + (-1,)), axis=-1)
            ad.backward(ad.reduce_sum(ad.reduce_max(rows, axis=-1)))
            return [d2.value] + [p.grad for p in params]

        stacked = graph(X, W, b, R)
        for i in range(5):
            alone = graph(X[i], W[i], b[i, 0], R[i])
            for whole, part in zip(stacked, alone):
                assert whole[i].tobytes() == part.reshape(whole[i].shape).tobytes()

    def test_stacked_shapes_must_agree(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((3, 4, 5))))
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((4, 5))))
        with pytest.raises(ShapeError):
            ad.pairwise_sq_dist(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((3, 5, 4))))
        with pytest.raises(ShapeError):
            ad.l2_normalize(ad.constant(np.ones((2, 2, 3, 4))))

    def test_shape_ops_forward(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(ad.reshape(a, (3, 2)).value, a.reshape(3, 2))
        np.testing.assert_array_equal(
            ad.concat([a, np.ones((2, 1))], axis=1).value, np.hstack([a, np.ones((2, 1))])
        )
        np.testing.assert_array_equal(ad.take(a, ([1, 0],)).value, a[[1, 0]])
        np.testing.assert_array_equal(ad.take(a, ([0, 1, 1], [2, 0, 2])).value, [2.0, 3.0, 5.0])
        with pytest.raises(ShapeError):
            ad.concat([a, np.ones((3, 1))], axis=1)
        with pytest.raises(ShapeError):
            ad.take(a, ([2],))

    def test_l2_normalize_rows(self):
        out = ad.l2_normalize(ad.constant([[3.0, 4.0], [0.0, 2.0]]))
        np.testing.assert_allclose(out.value, [[0.6, 0.8], [0.0, 1.0]], atol=1e-15)

    def test_l2_normalize_overflowing_norm_is_nan(self):
        # a row's squared norm overflows to inf; dividing by it would give 0
        rows = [[[1e160, 1e160], [3.0, 4.0]], [[1e150, 1e150], [-1e160, 0.0]]]
        with np.errstate(over="ignore"):
            out = ad.l2_normalize(ad.constant(np.array(rows))).value
        assert np.isnan(out[0, 0]).all() and np.isnan(out[1, 1]).all()
        np.testing.assert_allclose(out[0, 1], [0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(out[1, 0], [0.5 ** 0.5] * 2, atol=1e-15)

    def test_l2_normalize_degenerate(self):
        with pytest.raises(DegenerateVectorError):
            ad.l2_normalize(ad.constant([[0.0, 0.0]]))

    def test_log_rejects_negative(self):
        with pytest.raises(ShapeError):
            ad.log(ad.constant([-1.0]))


class TestBackwardSemantics:
    def test_scalar_root_required(self):
        x = ad.parameter([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.backward(ad.square(x))

    def test_repeated_backward_accumulates(self):
        x = ad.parameter(2.0)
        y = ad.square(x)
        ad.backward(y)
        ad.backward(y)
        assert float(x.grad) == pytest.approx(8.0)

    def test_shared_node_fanout(self):
        # z = x^2 + x^2 must give dz/dx = 4x through the shared subgraph
        x = ad.parameter(3.0)
        s = ad.square(x)
        ad.backward(ad.add(s, s))
        assert float(x.grad) == pytest.approx(12.0)

    def test_constant_gets_no_grad(self):
        c = ad.constant(1.0)
        x = ad.parameter(1.0)
        ad.backward(ad.add(ad.square(x), c))
        assert c.grad is None

    def test_max_routes_to_single_winner(self):
        m = ad.parameter(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]))
        ad.backward(ad.reduce_sum(ad.reduce_max(m, axis=1)))
        np.testing.assert_array_equal(m.grad, [[0, 1, 0], [1, 0, 0]])

    def test_min_tie_breaks_to_lowest_index(self):
        v = ad.parameter([[2.0, 1.0, 1.0]])
        node = ad.reduce_min(v, axis=1)
        assert ad.graph_has_tie(node)
        ad.backward(ad.reduce_sum(node))
        np.testing.assert_array_equal(v.grad, [[0, 1, 0]])

    def test_add_broadcast_backward_sums(self):
        b = ad.parameter(np.zeros(3))
        x = ad.constant(np.ones((4, 3)))
        ad.backward(ad.reduce_sum(ad.add(x, b)))
        np.testing.assert_array_equal(b.grad, [4.0, 4.0, 4.0])

    def test_log_zero_upstream_guard(self):
        # relu gates the branch off; d=0 inside log must not poison the grads
        x = ad.parameter(0.0)
        sq = ad.square(x)
        d = ad.exp(ad.scale(ad.log(sq), 0.5))  # sqrt via exp/log, -inf at 0
        loss = ad.relu(ad.add(d, ad.constant(-1.0)))  # hinge inactive at d=0
        assert float(loss.value) == 0.0
        ad.backward(loss)
        assert float(x.grad) == 0.0 and not math.isnan(float(x.grad))

    def test_sqrt_zero_upstream_guard(self):
        x = ad.parameter(0.0)
        d = ad.sqrt(ad.square(x))  # infinite derivative at 0
        loss = ad.relu(ad.add(d, ad.constant(-1.0)))
        assert float(d.value) == 0.0 and float(loss.value) == 0.0
        ad.backward(loss)
        assert float(x.grad) == 0.0

    def test_only_parameters_keep_gradients(self):
        x = ad.parameter([1.0, 2.0])
        hidden = ad.square(x)
        ad.backward(ad.reduce_sum(hidden))
        assert hidden.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_take_scatters_repeated_entries(self):
        a = ad.parameter(np.zeros((2, 3)))
        ad.backward(ad.reduce_sum(ad.take(a, ([0, 0, 1], [1, 1, 2]))))
        np.testing.assert_array_equal(a.grad, [[0, 2, 0], [0, 0, 1]])


class TestGradChecks:
    """Each primitive against central differences at random smooth points."""

    def setup_method(self):
        self.rng = np.random.default_rng(20240917)

    def test_matmul_all_variants(self):
        r = self.rng
        for sa, sb in [((3, 4), (4, 2)), ((1, 4), (4, 2)), ((3, 4), (4, 1)), ((1, 4), (4, 1))]:
            a = ad.parameter(r.normal(size=sa), "a")
            b = ad.parameter(r.normal(size=sb), "b")

            def f(ps):
                return ad.reduce_sum(ad.square(ad.matmul(ps[0], ps[1])))

            gradcheck(f, [a, b])

    def test_elementwise_chain(self):
        x = ad.parameter(self.rng.uniform(0.5, 2.0, size=7), "x")

        def f(ps):
            y = ad.exp(ad.negate(ad.scale(ps[0], 0.3)))
            y = ad.add(y, ad.log(ps[0]))
            return ad.reduce_sum(ad.square(y))

        gradcheck(f, [x])

    def test_relu_away_from_kink(self):
        vals = self.rng.normal(size=9)
        vals[np.abs(vals) < 0.1] = 0.5  # keep clear of the kink
        x = ad.parameter(vals, "x")
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.relu(ps[0]))), [x])

    def test_reductions_with_axis(self):
        x = ad.parameter(self.rng.normal(size=(4, 5)), "x")
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.reduce_max(ps[0], axis=1))), [x])
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.reduce_min(ps[0], axis=0))), [x])
        gradcheck(lambda ps: ad.square(ad.reduce_sum(ps[0])), [x])

    def test_pairwise_sq_dist_tensor_targets(self):
        e = ad.parameter(self.rng.normal(size=(4, 5)), "e")
        reps = ad.parameter(self.rng.normal(size=(3, 2, 5)), "reps")
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.pairwise_sq_dist(ps[0], ps[1]))), [e, reps])

    def test_sqrt(self):
        x = ad.parameter(self.rng.uniform(0.3, 3.0, size=(3, 4)), "x")
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.add(ad.sqrt(ps[0]), ad.constant(0.7)))), [x])

    def test_shape_ops(self):
        x = ad.parameter(self.rng.normal(size=(4, 3)), "x")
        y = ad.parameter(self.rng.normal(size=(4, 2)), "y")
        w = ad.constant(self.rng.normal(size=(5, 4)))

        def f(ps):
            joined = ad.concat([ps[0], ps[1]], axis=1)  # (4, 5)
            flat = ad.reshape(ad.matmul(w, joined), (25,))
            picked = ad.take(ad.reshape(flat, (5, 5)), ([0, 3, 3, 4], [1, 2, 2, 0]))
            return ad.reduce_sum(ad.square(picked))

        gradcheck(f, [x, y])

    def test_l2_normalize_matrix(self):
        x = ad.parameter(self.rng.normal(size=(4, 6)) + 0.5, "x")
        c = ad.constant(self.rng.normal(size=(4, 6)))

        def f(ps):
            y = ad.l2_normalize(ps[0])
            return ad.reduce_sum(ad.square(ad.add(y, c)))

        gradcheck(f, [x])

    # each primitive a stacked (fine-tune) graph uses, with a leading stack axis

    def test_matmul_stacked(self):
        a = ad.parameter(self.rng.normal(size=(3, 4, 5)), "a")
        b = ad.parameter(self.rng.normal(size=(3, 5, 2)), "b")
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.matmul(ps[0], ps[1]))), [a, b])

    def test_add_stacked_bias(self):
        x = ad.parameter(self.rng.normal(size=(3, 4, 2)), "x")
        bias = ad.parameter(self.rng.normal(size=(3, 1, 2)), "bias")
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.add(ps[0], ps[1]))), [x, bias])

    def test_reductions_stacked(self):
        x = ad.parameter(self.rng.normal(size=(3, 4, 5)), "x")
        for reduce in (ad.reduce_max, ad.reduce_min, ad.reduce_sum):
            gradcheck(lambda ps: ad.reduce_sum(ad.square(reduce(ps[0], axis=-1))), [x])

    @pytest.mark.parametrize("chunk", [1, 2**16], ids=["entry_chunks", "one_chunk"])
    def test_pairwise_sq_dist_stacked(self, monkeypatch, chunk):
        monkeypatch.setattr(ad, "DIFF_CHUNK", chunk)
        e = ad.parameter(self.rng.normal(size=(3, 4, 5)), "e")
        reps = ad.parameter(self.rng.normal(size=(3, 2, 2, 5)), "reps")

        def f(ps):
            return ad.reduce_sum(ad.square(ad.pairwise_sq_dist(ps[0], ps[1])))

        gradcheck(f, [e, reps])
        # either side alone: the other gradient is formed but not asked for
        gradcheck(lambda ps: f([ps[0], ad.constant(reps.value)]), [e])
        gradcheck(lambda ps: f([ad.constant(e.value), ps[0]]), [reps])

    def test_sqrt_stacked(self):
        x = ad.parameter(self.rng.uniform(0.3, 3.0, size=(2, 3, 4)), "x")
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.sqrt(ps[0]))), [x])

    def test_take_stacked(self):
        x = ad.parameter(self.rng.normal(size=(2, 4, 3)), "x")
        index = (slice(None), np.array([0, 3, 3, 1]), np.array([2, 0, 0, 1]))
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.take(ps[0], index))), [x])
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.take(ps[0], index[:2]))), [x])

    def test_l2_normalize_stacked(self):
        x = ad.parameter(self.rng.normal(size=(2, 4, 6)) + 0.5, "x")
        c = ad.constant(self.rng.normal(size=(2, 4, 6)))
        gradcheck(lambda ps: ad.reduce_sum(ad.square(ad.add(ad.l2_normalize(ps[0]), c))), [x])

    def test_batch_norm_train_mode(self):
        state = ad.BatchNormState(np.zeros(3), np.ones(3))
        x = ad.parameter(self.rng.normal(size=(6, 3)), "x")
        gamma = ad.parameter(self.rng.uniform(0.5, 1.5, size=3), "gamma")
        beta = ad.parameter(self.rng.normal(size=3), "beta")
        c = ad.constant(self.rng.normal(size=(6, 3)))

        def f(ps):
            y = ad.batch_norm(ps[0], ps[1], ps[2], state, train=True)
            return ad.reduce_sum(ad.square(ad.add(y, c)))

        gradcheck(f, [x, gamma, beta])

    def test_batch_norm_eval_mode(self):
        state = ad.BatchNormState(self.rng.normal(size=3), self.rng.uniform(0.5, 2.0, size=3))
        x = ad.parameter(self.rng.normal(size=(4, 3)), "x")
        gamma = ad.parameter(self.rng.uniform(0.5, 1.5, size=3), "gamma")
        beta = ad.parameter(self.rng.normal(size=3), "beta")

        def f(ps):
            y = ad.batch_norm(ps[0], ps[1], ps[2], state)
            return ad.reduce_sum(ad.square(y))

        gradcheck(f, [x, gamma, beta])

    def test_composite_like_real_use(self):
        # linear -> relu -> normalize -> distances -> gaussian scores
        r = self.rng
        w = ad.parameter(r.normal(size=(8, 5)), "w")
        x = ad.parameter(r.normal(size=(3, 8)), "x")
        reps = ad.parameter(r.normal(size=(4, 2, 5)), "reps")

        def f(ps):
            w, x, reps = ps
            h = ad.relu(ad.matmul(x, w))
            h = ad.add(h, ad.constant(np.full(5, 0.05)))  # keep norms positive
            n = ad.l2_normalize(h)
            d2 = ad.pairwise_sq_dist(n, reps)
            p = ad.exp(ad.scale(d2, -2.0))
            best = ad.reduce_max(ad.reshape(p, (1, -1)), axis=1)
            return ad.reduce_sum(ad.negate(ad.log(best)))

        gradcheck(f, [w, x, reps])


class TestBatchNormStats:
    def test_train_output_standardized(self):
        rng = np.random.default_rng(3)
        state = ad.BatchNormState(np.zeros(4), np.ones(4))
        x = ad.constant(rng.normal(2.0, 3.0, size=(64, 4)))
        out = ad.batch_norm(x, ad.constant(np.ones(4)), ad.constant(np.zeros(4)), state,
                            train=True).value
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_running_stats_update_rule(self):
        state = ad.BatchNormState(np.zeros(2), np.ones(2), momentum=0.9)
        x = np.array([[1.0, 10.0], [3.0, 14.0]])
        ad.batch_norm(ad.constant(x), ad.constant(np.ones(2)), ad.constant(np.zeros(2)), state,
                      train=True)
        np.testing.assert_allclose(state.running_mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 12.0]))
        np.testing.assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0))

    def test_eval_is_batch_independent(self):
        state = ad.BatchNormState(np.array([1.0, -1.0]), np.array([4.0, 0.25]))
        g, b = ad.constant(np.array([2.0, 1.0])), ad.constant(np.array([0.0, 3.0]))
        row = np.array([[3.0, 0.0]])
        alone = ad.batch_norm(ad.constant(row), g, b, state).value
        stacked = ad.batch_norm(
            ad.constant(np.vstack([row, [[100.0, -50.0]]])), g, b, state
        ).value
        np.testing.assert_allclose(alone[0], stacked[0], atol=0)

    def test_train_rejects_single_row(self):
        state = ad.BatchNormState(np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            ad.batch_norm(
                ad.constant(np.ones((1, 2))), ad.constant(np.ones(2)), ad.constant(np.zeros(2)), state,
                train=True,
            )


class TestFiniteDifferenceChecker:
    def test_detects_wrong_gradient(self):
        # deliberately corrupt a vjp through a wrapper node
        def f(ps):
            (x,) = ps
            y = ad.square(x)
            bad = ad.Node(y.value, requires_grad=True, op="bad")
            bad._vjps = ((x, lambda g: 3.0 * g),)  # claims d/dx = 3, truth is 2x
            return bad

        x = ad.parameter(5.0, "x")
        err = ad.finite_difference_check(f, [x])
        assert err > 0.5

    def test_tie_raises_non_smooth(self):
        x = ad.parameter([[1.0, 1.0]], "x")
        with pytest.raises(NonSmoothPointError):
            ad.finite_difference_check(lambda ps: ad.reduce_sum(ad.reduce_max(ps[0], axis=1)), [x])

    def test_tie_among_constants_is_smooth(self):
        # no gradient flows through a reduction of constants, so its tie
        # cannot make the objective non-smooth
        x = ad.parameter([1.5, 2.5], "x")

        def f(ps):
            tied = ad.reduce_max(ad.constant([[1.0, 1.0]]), axis=1)
            return ad.add(ad.reduce_sum(ad.square(ps[0])), ad.reduce_sum(tied))

        assert ad.finite_difference_check(f, [x]) < 1e-8

    def test_nan_objective_reported(self):
        x = ad.parameter([0.0], "x")

        def f(ps):
            y = ad.reduce_sum(ad.log(ad.square(ps[0])))  # -inf at the nominal point
            return ad.add(y, ad.negate(y))  # inf - inf

        with np.errstate(invalid="ignore"):
            with pytest.raises(GradientCheckError):
                ad.finite_difference_check(f, [x])

    def test_returns_small_error_for_correct_graph(self):
        x = ad.parameter([1.5, 2.5], "x")
        err = ad.finite_difference_check(
            lambda ps: ad.reduce_sum(ad.square(ad.log(ps[0]))), [x]
        )
        assert err < 1e-8


# ---------------------------------------------------------------------------
# the backward pass against a depth-first reference


def reference_topo_order(root):
    """Every node the root depends on, inputs before consumers, by an
    iterative depth-first search."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._vjps:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def reference_backward(root):
    """The backward pass over a depth-first topological order, the way the
    engine walked graphs before it visited nodes in creation order."""
    assert root.value.shape == ()
    grads = {id(root): np.ones(())}
    for node in reversed(reference_topo_order(root)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not node._vjps:
            node.grad = g.copy() if node.grad is None else node.grad + g
        for parent, vjp in node._vjps:
            if parent.requires_grad:
                contrib = ad.as_array(vjp(g))
                key = id(parent)
                grads[key] = grads[key] + contrib if key in grads else contrib


def fan_out(root) -> int:
    """The most consumers any node has among the nodes the root's gradient
    flows through."""
    uses = {}
    for node in reference_topo_order(root):
        for parent, _ in node._vjps:
            if parent.requires_grad:
                uses[id(parent)] = uses.get(id(parent), 0) + 1
    return max(uses.values(), default=0)


def gradients_of(backward, root, params):
    ad.zero_grads(params)
    backward(root)
    return [None if p.grad is None else p.grad.tobytes() for p in params]


@settings(max_examples=60, deadline=None)
@given(task_mode=st.sampled_from(["classification", "detection"]), layers=st.integers(1, 3),
       train=st.booleans(), stack=st.sampled_from([None, 1, 3]), classes=st.integers(2, 4),
       modes=st.integers(1, 3), batch=st.integers(2, 7), seed=st.integers(0, 2**31 - 1))
def test_backward_matches_reference_on_loss_graphs(task_mode, layers, train, stack, classes,
                                                    modes, batch, seed):
    """On every loss graph the package builds (training and stacked episode
    heads) no node has more than two consumers, so creation order gives the
    reference's parameter gradients bit for bit."""
    rng = np.random.default_rng(seed)
    if stack is not None:
        layers, train = 1, False  # a stack of heads is one layer, in no training step
    embedding = EmbeddingConfig(5, tuple(rng.integers(3, 9, size=layers).tolist()))
    mixture = MixtureConfig(classes, modes)
    if stack is None:
        head = MixtureHead(embedding, mixture, task_mode, seed=seed % 1000)
        X = rng.normal(size=(batch, 5))
    else:
        layout = parameter_layout(embedding, mixture, stack)
        head = MixtureHead.from_arrays(
            embedding, mixture, task_mode,
            {name: rng.normal(0.0, 0.5, size=shape) for name, shape in layout.items()},
            stack=stack)
        X = rng.normal(size=(stack, batch, 5))
    lowest = -1 if task_mode == "detection" else 0  # -1 is the background label
    loss, _ = head.total_loss(X, rng.integers(lowest, classes, size=batch), train)
    assert fan_out(loss) <= 2
    params = head.parameters()
    assert gradients_of(ad.backward, loss, params) == gradients_of(reference_backward, loss, params)


# Random graphs over two (3, 4) parameters: each step applies one op to
# earlier nodes, and the root sums every node no op consumed. SMOOTH ops keep
# values moderate and have no kinks, so central differences can check them.
PICKED = (np.arange(3)[:, None], np.array([[0, 5, 5, 2]]))  # a repeated entry
MIX = np.linspace(-0.5, 0.5, 16).reshape(4, 4)
SMOOTH = {
    "add": (2, lambda a, b: ad.add(a, b)),
    "scale": (1, lambda a: ad.scale(a, 0.7)),
    "negate": (1, ad.negate),
    "exp": (1, lambda a: ad.exp(ad.scale(a, -0.3))),
    "soft": (1, lambda a: ad.sqrt(ad.add(ad.square(a), ad.constant(1.0)))),
    "mix": (1, lambda a: ad.matmul(a, ad.constant(MIX))),
    "pick": (2, lambda a, b: ad.take(ad.concat([a, b], axis=1), PICKED)),
    "rowsum": (2, lambda a, b: ad.add(a, ad.reshape(ad.reduce_sum(b, axis=1), (3, 1)))),
}
KINKED = {
    "relu": (1, ad.relu),
    "rowmax": (2, lambda a, b: ad.add(a, ad.reshape(ad.reduce_max(b, axis=1), (3, 1)))),
    "colmin": (2, lambda a, b: ad.add(a, ad.reduce_min(b, axis=0))),
    "norm": (1, ad.l2_normalize),
}


@st.composite
def graph_plans(draw, ops, most_uses):
    """A list of (op name, input node positions) over nodes 0 and 1 (the
    parameters), where no node is used more than `most_uses` times."""
    uses, plan = [0, 0], []
    for _ in range(draw(st.integers(1, 10))):
        name = draw(st.sampled_from(sorted(ops)))
        inputs = []
        for _ in range(ops[name][0]):
            free = [i for i, n in enumerate(uses) if n < most_uses]
            if not free:
                break
            inputs.append(draw(st.sampled_from(free)))
            uses[inputs[-1]] += 1
        if len(inputs) < ops[name][0]:
            break
        plan.append((name, tuple(inputs)))
        uses.append(0)
    return plan


def build(plan, ops, params):
    nodes = list(params)
    for name, inputs in plan:
        nodes.append(ops[name][1](*(nodes[i] for i in inputs)))
    consumed = {i for _, inputs in plan for i in inputs}
    sinks = [ad.reduce_sum(n) for i, n in enumerate(nodes) if i not in consumed]
    root = sinks[0]
    for sink in sinks[1:]:
        root = ad.add(root, sink)
    return root


@settings(max_examples=150, deadline=None)
@given(plan=graph_plans({**SMOOTH, **KINKED}, most_uses=2), seed=st.integers(0, 2**31 - 1))
def test_backward_matches_reference_bit_for_bit_at_fan_out_two(plan, seed):
    rng = np.random.default_rng(seed)
    params = [ad.parameter(rng.normal(size=(3, 4))) for _ in range(2)]
    try:
        root = build(plan, {**SMOOTH, **KINKED}, params)
    except DegenerateVectorError:
        assume(False)
    assert fan_out(root) <= 2
    assert gradients_of(ad.backward, root, params) == gradients_of(reference_backward, root, params)


@settings(max_examples=40, deadline=None)
@given(plan=graph_plans(SMOOTH, most_uses=4), reused=st.integers(0, 1),
       seed=st.integers(0, 2**31 - 1))
def test_backward_and_reference_pass_the_gradient_check_at_wider_fan_out(plan, reused, seed):
    """Where a node has three or more consumers, the two orders may add its
    gradients up differently in the last bits; both must still agree with
    central differences."""
    # a parameter fed to three more consumers guarantees a fan-out of three
    plan = plan + [("scale", (reused,)), ("exp", (reused,)), ("soft", (reused,))]
    rng = np.random.default_rng(seed)
    params = [ad.parameter(rng.normal(size=(3, 4)), f"p{i}") for i in range(2)]
    assert fan_out(build(plan, SMOOTH, params)) >= 3
    assert ad.finite_difference_check(lambda ps: build(plan, SMOOTH, ps), params) < 1e-6
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "backward", reference_backward)
        assert ad.finite_difference_check(lambda ps: build(plan, SMOOTH, ps), params) < 1e-6


# ---------------------------------------------------------------------------
# vjps against the numpy helpers they replace

signed_values = st.one_of(st.just(-0.0), st.just(0.0),
                          st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), stacked=st.booleans(), rows=st.integers(1, 4), cols=st.integers(1, 4),
       count=st.integers(1, 12))
def test_take_scatter_matches_add_at(data, stacked, rows, cols, count):
    """take's gradient, a bincount over flat positions, gives np.add.at's
    bits, repeated entries and -0.0 included."""
    shape = (data.draw(st.integers(1, 3)), rows, cols) if stacked else (rows, cols)
    picks = [data.draw(arrays(np.intp, count, elements=st.integers(0, n - 1)))
             for n in (rows, cols)]
    index = tuple(picks[:data.draw(st.integers(1, 2))])
    if stacked:
        index = (slice(None),) + index
    node = ad.take(ad.parameter(np.zeros(shape)), index)
    g = data.draw(arrays(np.float64, node.shape, elements=signed_values))
    expected = np.zeros(shape)
    np.add.at(expected, index, g)
    got = node._vjps[0][1](g)
    assert got.shape == shape and got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_reduction_and_concat_vjps_match_the_numpy_helpers(data, shape):
    """The max/min, sum and concat gradients give, bit for bit, what
    put_along_axis, broadcast_to and split give."""
    shape = tuple(shape)
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    # few distinct values, so that ties are common
    value = data.draw(arrays(np.float64, shape, elements=st.sampled_from([-1.0, 0.0, 2.0])))
    a = ad.parameter(value)

    for reduce, winner in ((ad.reduce_max, np.argmax), (ad.reduce_min, np.argmin)):
        node = reduce(a, axis)
        g = data.draw(arrays(np.float64, node.shape, elements=signed_values))
        expected = np.zeros(shape)
        np.put_along_axis(expected, np.expand_dims(winner(value, axis=axis), axis),
                          np.expand_dims(g, axis), axis)
        assert node._vjps[0][1](g).tobytes() == expected.tobytes()

    for sum_axis in (axis, None):
        node = ad.reduce_sum(a, sum_axis)
        g = np.asarray(data.draw(arrays(np.float64, node.shape, elements=signed_values)))
        expected = (np.full(shape, g) if sum_axis is None
                    else np.broadcast_to(np.expand_dims(g, sum_axis), shape).copy())
        assert node._vjps[0][1](g).tobytes() == expected.tobytes()

    other = ad.parameter(np.ones(shape[:axis % len(shape)] + (2,) + shape[axis % len(shape) + 1:]))
    node = ad.concat([a, other, a], axis=axis)
    g = data.draw(arrays(np.float64, node.shape, elements=signed_values))
    bounds = np.cumsum([shape[axis], 2])
    for (_, vjp), part in zip(node._vjps, np.split(g, bounds, axis=axis)):
        got = vjp(g)
        assert got.strides == part.strides and got.tobytes() == part.tobytes()
