"""Differentiation core: frozen forward values, backward semantics, and
finite-difference agreement for every primitive."""

import math

import numpy as np
import pytest

from mixrep import autodiff as ad
from mixrep.errors import (
    DegenerateVectorError,
    GradientCheckError,
    NonSmoothPointError,
    ShapeError,
)


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
