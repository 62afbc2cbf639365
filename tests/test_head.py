"""Head: posteriors, losses, embedding contracts, checkpoint round trip."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixrep import autodiff as ad
from mixrep import head as hd
from mixrep.episodes import replace_representatives
from mixrep.errors import (
    ConfigError,
    DegenerateVectorError,
    PosteriorUnderflowError,
    ShapeError,
)
from mixrep.head import (
    BACKGROUND,
    EmbeddingConfig,
    EmbeddingNet,
    MixtureConfig,
    MixtureHead,
    background_posterior,
    class_posterior_max,
    class_posterior_normalized,
    cross_entropy_loss,
    load_checkpoint,
    margin_loss,
    mode_probabilities,
    parameter_layout,
    save_checkpoint,
)


def small_head(task_mode="classification", seed=5, posterior_mode="normalized"):
    return MixtureHead(
        EmbeddingConfig(input_dim=6, layer_widths=(10, 8)),
        MixtureConfig(num_classes=4, modes_per_class=2, sigma=0.5, margin=0.5,
                      posterior_mode=posterior_mode),
        task_mode=task_mode,
        seed=seed,
    )


def seeded_net(config, seed=0) -> EmbeddingNet:
    return MixtureHead(config, MixtureConfig(num_classes=1), seed=seed).embedding


class TestEmbedding:
    def test_output_unit_norm(self):
        net = seeded_net(EmbeddingConfig(input_dim=5, layer_widths=(7, 4)), seed=1)
        E = net.embed_batch(np.random.default_rng(0).normal(size=(9, 5)))
        np.testing.assert_allclose(np.linalg.norm(E, axis=1), 1.0, atol=1e-9)

    def test_identity_layer_without_normalization(self):
        net = seeded_net(
            EmbeddingConfig(input_dim=2, layer_widths=(2,), final_l2_normalize=False)
        )
        net.weights[0].value = np.eye(2)
        net.last_bias.value = np.zeros(2)
        np.testing.assert_array_equal(net.embed_batch(np.array([1.0, 2.0])[None])[0], [1.0, 2.0])

    def test_same_seed_reproduces_bit_exactly(self):
        X = np.random.default_rng(2).normal(size=(4, 5))
        outs = []
        for _ in range(2):
            net = seeded_net(EmbeddingConfig(input_dim=5, layer_widths=(6, 3)), seed=42)
            outs.append(net.embed_batch(X))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_degenerate_direction_rejected(self):
        net = seeded_net(EmbeddingConfig(input_dim=2, layer_widths=(2,)))
        net.weights[0].value = np.zeros((2, 2))
        net.last_bias.value = np.zeros(2)
        with pytest.raises(DegenerateVectorError):
            net.embed_batch(np.array([1.0, 1.0])[None])

    def test_train_mode_needs_batch_of_two(self):
        net = seeded_net(EmbeddingConfig(input_dim=3, layer_widths=(4, 2)))
        with pytest.raises(ShapeError):
            net.forward(np.ones((1, 3)), train=True)

    def test_input_dim_checked(self):
        net = seeded_net(EmbeddingConfig(input_dim=3, layer_widths=(4,)))
        with pytest.raises(ShapeError):
            net.forward(np.ones((2, 5)))

    def test_hidden_layers_carry_bn_last_is_linear(self):
        net = seeded_net(EmbeddingConfig(input_dim=3, layer_widths=(4, 5, 2)))
        assert len(net.weights) == 3
        assert len(net.bn_states) == 2
        assert net.last_bias.value.shape == (2,)


def head_with_representatives(values, seed=0) -> MixtureHead:
    # a (N, K, 2) bank on a one-layer net of width 2, built from arrays
    values = np.asarray(values, dtype=np.float64)
    seeded = MixtureHead(EmbeddingConfig(input_dim=2, layer_widths=(2,)),
                         MixtureConfig(values.shape[0], values.shape[1]), seed=seed)
    arrays = {n: p.value for n, p in seeded.named_parameters().items()}
    return MixtureHead.from_arrays(seeded.embedding.config, seeded.mixture, "classification",
                                   {**arrays, "representatives.weight": values})


class TestRepresentatives:
    def test_weight_holds_values_bit_exactly(self):
        seeded = MixtureHead(EmbeddingConfig(input_dim=3, layer_widths=(4,)),
                             MixtureConfig(3, 2), seed=9)
        reps = seeded.representatives
        assert reps.name == "representatives.weight"
        assert reps.value.shape == (3, 2, 4)
        assert seeded.parameters()[-1] is reps

    def test_shape_enforced(self):
        with pytest.raises(ConfigError, match="shape"):
            head_with_representatives(np.zeros((2, 2, 3)))

    def test_finite_enforced(self):
        bad = np.zeros((1, 1, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ConfigError):
            head_with_representatives(bad)

    def test_set_values_round_trip(self):
        vals = np.array([[[0.1, 0.2]], [[0.3, 0.4]]])
        headm = head_with_representatives(vals)
        np.testing.assert_array_equal(headm.representatives.value, vals)
        vals[0, 0, 0] = 9.0  # the head holds a copy
        assert headm.representatives.value[0, 0, 0] == 0.1


def distances(embeddings, representatives) -> np.ndarray:
    """Euclidean distances read off the squared ones of `mode_probabilities`."""
    d2, _ = mode_probabilities(embeddings, representatives, 0.5)
    return np.sqrt(d2.value)


class TestDistanceMatrix:
    def test_coincidence_is_exact_zero(self):
        reps = head_with_representatives([[[1.0, 0.0]], [[0.0, 1.0]]]).representatives
        d2, probs = mode_probabilities(np.array([[1.0, 0.0]]), reps, 0.5)
        assert d2.value[0, 0, 0] == 0.0 and probs.value[0, 0, 0] == 1.0
        assert np.sqrt(d2.value[0, 1, 0]) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_orthonormal_pair(self):
        d = distances(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))[0]
        assert d[0] == pytest.approx(1.41421356237, abs=1e-9)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(7)
        E = rng.normal(size=(4, 8))
        reps = rng.normal(size=(3, 2, 8))
        got = distances(E, reps)
        want = np.empty((4, 3, 2))
        for b in range(4):
            for i in range(3):
                for j in range(2):
                    want[b, i, j] = np.linalg.norm(E[b] - reps[i, j])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        d2, _ = mode_probabilities(rng.normal(size=(2, 4)), rng.normal(size=(5, 3, 4)), 0.5)
        assert np.all(d2.value >= 0)


class TestPosteriors:
    def test_mode_prob_peak(self):
        _, p = mode_probabilities(np.array([[0.3]]), np.array([[0.3]]), 0.5)
        assert p.value[0, 0] == 1.0

    def test_mode_prob_frozen_points(self):
        # centers at distance sqrt(2) and 1 from the origin
        _, p = mode_probabilities(np.zeros((1, 2)), np.array([[1.0, 1.0], [1.0, 0.0]]), 0.5)
        assert p.value[0, 0] == pytest.approx(0.018315639, abs=1e-9)  # exp(-4)
        assert p.value[0, 1] == pytest.approx(0.1353352832366127, abs=1e-15)  # exp(-2)

    def test_mode_prob_rejects_bad_sigma(self):
        with pytest.raises(ConfigError):
            mode_probabilities(np.zeros((1, 1)), np.zeros((1, 1)), 0.0)

    def test_max_posterior_rows(self):
        out = class_posterior_max(np.array([[0.2, 0.9], [0.5, 0.1]])).value
        np.testing.assert_array_equal(out, [0.9, 0.5])

    def test_max_posterior_k1_identity(self):
        out = class_posterior_max(np.array([[0.3], [0.7]])).value
        np.testing.assert_array_equal(out, [0.3, 0.7])

    def test_max_posterior_routes_gradient_to_winner(self):
        # three one-dimensional modes of one class, at distances 1, 0.4, 2
        reps = ad.parameter(np.array([[[1.0], [0.4], [2.0]]]), "reps")

        def f(ps):
            _, p = mode_probabilities(np.zeros((1, 1)), ps[0], 0.5)
            return ad.reduce_sum(class_posterior_max(p))

        err = ad.finite_difference_check(f, [reps])
        assert err < 1e-6
        ad.zero_grads([reps])
        ad.backward(f([reps]))
        g = reps.grad[0, :, 0]
        assert g[0] == 0.0 and g[2] == 0.0 and g[1] != 0.0

    def test_normalized_frozen_example(self):
        out = class_posterior_normalized(np.array([[0.2, 0.6], [0.1, 0.1]])).value
        np.testing.assert_allclose(out, [0.8, 0.2], atol=1e-12)

    def test_normalized_single_class(self):
        np.testing.assert_allclose(
            class_posterior_normalized(np.array([[0.37, 0.01]])).value, [1.0], atol=1e-12
        )

    def test_normalized_symmetry(self):
        out = class_posterior_normalized(np.array([[0.5], [0.5]])).value
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_normalized_sums_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = rng.uniform(1e-6, 1.0, size=(rng.integers(1, 7), rng.integers(1, 5)))
            assert abs(class_posterior_normalized(p).value.sum() - 1.0) < 1e-9

    def test_normalized_underflow_error(self):
        with pytest.raises(PosteriorUnderflowError):
            class_posterior_normalized(np.full((2, 2), 1e-310))

    def test_background_frozen(self):
        bg = background_posterior(np.array([[np.exp(-2.0), 0.01]])).value
        assert float(bg) == pytest.approx(0.8646647167633873, abs=1e-15)

    def test_background_zero_at_perfect_match(self):
        assert float(background_posterior(np.array([[1.0, 0.2]])).value) == 0.0

    def test_background_exact_complement(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(0.0, 1.0, size=(3, 4))
            assert float(background_posterior(p).value) == 1.0 - p.max()

    def test_mode_permutation_invariance(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0.01, 1.0, size=(4, 3))
        shuffled = p[:, [2, 0, 1]]
        np.testing.assert_array_equal(
            class_posterior_max(p).value, class_posterior_max(shuffled).value
        )
        np.testing.assert_allclose(
            class_posterior_normalized(p).value,
            class_posterior_normalized(shuffled).value,
            atol=1e-15,
        )

    def test_sigma_invariant_argmax(self):
        rng = np.random.default_rng(13)
        d = rng.uniform(0.1, 2.5, size=(5, 3))
        preds = []
        for sigma in (0.1, 0.5, 2.0):
            # one-dimensional modes at distances d from the origin
            _, probs = mode_probabilities(np.zeros((1, 1)), d[..., None], sigma)
            post = class_posterior_max(probs.value).value[0]
            preds.append(int(np.argmax(post)))
        assert preds[0] == preds[1] == preds[2]


class TestMarginLoss:
    def test_zero_branch(self):
        d = np.array([[[0.3, 2.0], [1.0, 1.5]]])
        assert float(margin_loss(d, [0], 0.5).value[0]) == 0.0

    def test_active_branch_frozen(self):
        d = np.array([[[0.9, 2.0], [1.0, 1.5]]])
        assert float(margin_loss(d, [0], 0.5).value[0]) == pytest.approx(0.4, abs=1e-12)

    def test_equal_distances_leave_margin(self):
        d = np.array([[[1.0, 2.0], [1.0, 1.5]]])
        assert float(margin_loss(d, [0], 0.5).value[0]) == pytest.approx(0.5, abs=1e-15)

    def test_rows_use_their_own_labels(self):
        d = np.array([[[0.9, 2.0], [1.0, 1.5]], [[0.9, 2.0], [1.0, 1.5]]])
        np.testing.assert_allclose(margin_loss(d, [0, 1], 0.5).value, [0.4, 0.6], atol=1e-12)

    def test_zero_iff_gap_at_least_margin(self):
        rng = np.random.default_rng(14)
        d = rng.uniform(0.0, 3.0, size=(200, 4, 2))
        labels = rng.integers(0, 4, size=200)
        loss = margin_loss(d, labels, 0.5).value
        for row, c, value in zip(d, labels, loss):
            gap_ok = row[c].min() + 0.5 <= np.delete(row, c, axis=0).min()
            assert (value == 0.0) == gap_ok

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            margin_loss(np.array([[[1.0, 2.0]]]), [0], 0.5)

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            margin_loss(np.ones((1, 2, 2)), [2], 0.5)
        with pytest.raises(ValueError):
            margin_loss(np.ones((1, 2, 2)), [BACKGROUND], 0.5)

    def test_gradcheck(self):
        rng = np.random.default_rng(15)
        d2 = ad.parameter(rng.uniform(0.3, 3.0, size=(2, 3, 2)), "d2")

        def f(ps):
            return ad.reduce_sum(margin_loss(ad.sqrt(ps[0]), [1, 0], 0.5))

        assert ad.finite_difference_check(f, [d2]) < 1e-6


class TestCrossEntropy:
    def test_uniform_five_classes(self):
        ce = cross_entropy_loss(np.full((1, 5), 0.2), None, [3])
        assert float(ce.value[0]) == pytest.approx(np.log(5.0), abs=1e-12)

    def test_perfect_prediction(self):
        ce = cross_entropy_loss(np.array([[1.0, 1e-30]]), None, [0])
        assert float(ce.value[0]) == pytest.approx(0.0, abs=1e-12)

    def test_detection_background_renormalized(self):
        ce = cross_entropy_loss(np.array([[0.3]]), np.array([0.7]), [BACKGROUND])
        assert float(ce.value[0]) == pytest.approx(0.35667494393873245, abs=1e-12)

    def test_detection_renormalization_preserves_argmax(self):
        post = np.array([[0.6, 0.2]] * 3)
        ce_best, ce_other, ce_bg = cross_entropy_loss(post, np.full(3, 0.3), [0, 1, BACKGROUND]).value
        assert ce_best < ce_bg < ce_other

    def test_background_label_needs_background_posterior(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.array([[0.5, 0.5]]), None, [BACKGROUND])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.array([[0.5, 0.5]]), None, [2])

    def test_probability_floor_caps_loss(self):
        ce = cross_entropy_loss(np.array([[0.0, 1.0]]), None, [0])
        assert float(ce.value[0]) == pytest.approx(-np.log(1e-12), rel=1e-9)


class TestTotalLoss:
    def test_zero_loss_when_perfectly_placed(self):
        # identity embedding, no normalization; classes so far apart that the
        # wrong-class mass underflows to exact zero
        headm = MixtureHead(
            EmbeddingConfig(input_dim=2, layer_widths=(2,), final_l2_normalize=False),
            MixtureConfig(num_classes=2, modes_per_class=1, sigma=0.5, margin=0.5),
            seed=0,
        )
        headm.embedding.weights[0].value = np.eye(2)
        headm.embedding.last_bias.value = np.zeros(2)
        big = 60.0
        headm.representatives.value = np.array([[[big, 0.0]], [[0.0, big]]])
        X = np.array([[big, 0.0], [0.0, big]])
        loss, parts = headm.total_loss(X, [0, 1])
        assert float(loss.value) == 0.0
        assert parts == {"ce": 0.0, "margin": 0.0, "total": 0.0}

    def test_component_sum_example(self):
        ce = cross_entropy_loss(np.full((1, 5), 0.2), None, [0])
        hinge = margin_loss(np.array([[[0.9, 2.0], [1.0, 1.5]]]), [0], 0.5)
        total = ad.add(ce, hinge)
        assert float(total.value[0]) == pytest.approx(np.log(5.0) + 0.4, abs=1e-12)

    def test_background_items_skip_margin(self):
        headm = small_head(task_mode="detection")
        rng = np.random.default_rng(16)
        X = rng.normal(size=(4, 6))
        _, parts_fg = headm.total_loss(X, [0, 1, 2, 3], train=True)
        _, parts_bg = headm.total_loss(X, [BACKGROUND] * 4, train=True)
        assert parts_fg["margin"] > 0.0
        assert parts_bg["margin"] == 0.0

    def test_background_label_rejected_in_classification(self):
        headm = small_head()
        X = np.random.default_rng(17).normal(size=(2, 6))
        with pytest.raises(ValueError):
            headm.total_loss(X, [0, BACKGROUND])

    @pytest.mark.parametrize("task_mode", ["classification", "detection"])
    def test_full_gradcheck(self, task_mode):
        headm = small_head(task_mode=task_mode)
        rng = np.random.default_rng(18)
        X = rng.normal(size=(8, 6))
        labels = [0, 1, 2, 3, 0, 1, 2, 3]
        if task_mode == "detection":
            labels = [0, 1, 2, 3, BACKGROUND, 1, BACKGROUND, 3]

        def f(ps):
            loss, _ = headm.total_loss(X, labels, train=True)
            return loss

        assert ad.finite_difference_check(f, headm.parameters()) < 1e-4

    @pytest.mark.parametrize("task_mode", ["classification", "detection"])
    def test_stacked_gradcheck(self, task_mode):
        # a stack of two one-layer heads, each with a batch of its own; in
        # detection mode two rows are background and skip the margin
        rng = np.random.default_rng(19)
        embedding = EmbeddingConfig(input_dim=6, layer_widths=(4,))
        mixture = MixtureConfig(num_classes=3, modes_per_class=2, sigma=0.5, margin=0.5)
        arrays = {name: rng.normal(size=shape)
                  for name, shape in parameter_layout(embedding, mixture, 2).items()}
        stacked = MixtureHead.from_arrays(embedding, mixture, task_mode, arrays, stack=2)
        X = rng.normal(size=(2, 6, 6))
        labels = [0, 1, 2, 0, 1, 2] if task_mode == "classification" else \
            [0, 1, 2, BACKGROUND, 1, BACKGROUND]
        loss, parts = stacked.total_loss(X, labels)
        assert parts["total"].shape == (2,)
        assert float(loss.value) == parts["total"][0] + parts["total"][1]
        assert ad.finite_difference_check(lambda _ps: stacked.total_loss(X, labels)[0],
                                          stacked.parameters()) < 1e-4

    def test_a_stack_of_heads_has_one_layer(self):
        embedding = EmbeddingConfig(input_dim=6, layer_widths=(5, 4))
        mixture = MixtureConfig(num_classes=3, modes_per_class=2)
        arrays = {name: np.ones(shape)
                  for name, shape in parameter_layout(embedding, mixture, 2).items()}
        with pytest.raises(ConfigError):
            MixtureHead.from_arrays(embedding, mixture, "classification", arrays, stack=2)

    def test_loss_finite_at_support_coincidence(self):
        # a query identical to a representative (distance exactly 0) must
        # produce a finite loss and finite gradients
        headm = MixtureHead(
            EmbeddingConfig(input_dim=3, layer_widths=(3,), final_l2_normalize=True),
            MixtureConfig(num_classes=2, modes_per_class=1, sigma=0.5, margin=0.5),
            seed=2,
        )
        x = np.array([1.0, 2.0, 2.0])
        emb = headm.embedding.embed_batch(x[None])[0]
        other = np.roll(emb, 1)
        headm.representatives.value = np.stack([emb, other])[:, None, :]
        loss, _ = headm.total_loss(x.reshape(1, 3), [0])
        assert np.isfinite(float(loss.value))
        ad.zero_grads(headm.parameters())
        ad.backward(loss)
        for p in headm.parameters():
            if p.grad is not None:
                assert np.all(np.isfinite(p.grad)), p.name


    @pytest.mark.parametrize("task_mode", ["classification", "detection"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 9))
    def test_batch_parts_are_the_mean_of_single_rows(self, task_mode, seed, batch):
        headm = small_head(task_mode=task_mode, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(batch, 6))
        low = BACKGROUND if task_mode == "detection" else 0
        labels = [int(v) for v in rng.integers(low, 4, size=batch)]
        _, whole = headm.total_loss(X, labels)
        rows = [headm.total_loss(X[i:i + 1], labels[i:i + 1])[1]
                for i in range(batch)]
        for key in ("ce", "margin", "total"):
            mean = sum(r[key] for r in rows) / batch
            assert math.isclose(whole[key], mean, rel_tol=1e-12, abs_tol=0.0), key

    @pytest.mark.parametrize("task_mode", ["classification", "detection"])
    def test_graph_size_does_not_grow_with_batch(self, task_mode):
        def reachable(root):
            seen, stack = {id(root)}, [root]
            while stack:
                for parent, _ in stack.pop()._vjps:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            return len(seen)

        headm = small_head(task_mode=task_mode)
        rng = np.random.default_rng(24)
        pattern = [0, 1, 2, 3, BACKGROUND] if task_mode == "detection" else [0, 1, 2, 3, 0]
        counts = []
        for batch in (5, 30):
            labels = (pattern * 6)[:batch]
            loss, _ = headm.total_loss(rng.normal(size=(batch, 6)), labels, train=True)
            counts.append(reachable(loss))
        assert counts[0] == counts[1]
        assert counts[0] < 100


class TestScoring:
    def test_query_at_support_point(self):
        headm = small_head(posterior_mode="max")
        x = np.random.default_rng(19).normal(size=6)
        emb = headm.embedding.embed_batch(x[None])[0]
        headm.representatives.value[2, 0] = emb
        out = headm.score(x)
        assert out.predicted_class == 2
        assert out.class_posterior[2] == pytest.approx(1.0, abs=1e-12)
        assert out.background_posterior == 0.0
        assert not out.is_background

    @pytest.mark.parametrize("posterior_mode", ["max", "normalized"])
    def test_scoring_keeps_no_tape(self, monkeypatch, posterior_mode):
        headm = small_head(task_mode="detection", posterior_mode=posterior_mode)
        E = headm.embedding.embed_batch(np.random.default_rng(27).normal(size=(40, 6)))
        real, made = ad._result, []

        def recording(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(ad, "_result", recording)
        headm.score_embeddings(E)
        assert made  # scoring runs the engine's primitives
        for node in made:
            assert not node.requires_grad and node._vjps == () and node.tie is None, node

    def test_far_query_is_background(self):
        headm = MixtureHead(
            EmbeddingConfig(input_dim=2, layer_widths=(2,), final_l2_normalize=False),
            MixtureConfig(num_classes=2, modes_per_class=1, sigma=0.5, margin=0.5,
                          posterior_mode="max"),
        )
        headm.embedding.weights[0].value = np.eye(2)
        headm.embedding.last_bias.value = np.zeros(2)
        headm.representatives.value = np.array([[[5.0, 0.0]], [[0.0, 5.0]]])
        out = headm.score(np.array([-3.0, -3.0]))  # every distance >= 3
        assert out.background_posterior > 0.9999
        assert out.is_background

    def test_scores_order_invariant(self):
        headm = small_head(posterior_mode="max")
        X = np.random.default_rng(20).normal(size=(6, 6))
        fwd = [o.class_posterior for o in headm.score_batch(X)]
        rev = [o.class_posterior for o in headm.score_batch(X[::-1])]
        for a, b in zip(fwd, rev[::-1]):
            np.testing.assert_array_equal(a, b)

    def test_posterior_tie_breaks_low_index(self):
        headm = small_head(posterior_mode="max")
        headm.representatives.value[:] = 0.0  # all classes equidistant
        out = headm.score(np.random.default_rng(21).normal(size=6))
        assert out.predicted_class == 0


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        headm = small_head(task_mode="detection", seed=33)
        X = np.random.default_rng(23).normal(size=(8, 6))
        headm.total_loss(X, [0, 1, 2, 3, 0, 1, 2, 3], train=True)  # move BN running stats
        path = tmp_path / "ck.json"
        save_checkpoint(headm, path)
        loaded = load_checkpoint(path)
        assert loaded.task_mode == "detection"
        for name, p in headm.named_parameters().items():
            np.testing.assert_array_equal(p.value, loaded.named_parameters()[name].value)
        for a, b in zip(headm.embedding.bn_states, loaded.embedding.bn_states):
            np.testing.assert_array_equal(a.running_mean, b.running_mean)
            np.testing.assert_array_equal(a.running_var, b.running_var)
        np.testing.assert_array_equal(
            headm.embedding.embed_batch(X), loaded.embedding.embed_batch(X)
        )

    def test_parent_format_loads_and_scores_bit_identically(self, tmp_path):
        # earlier releases stored the representatives as one (1, N*K*dim) row
        headm = small_head(task_mode="detection", seed=34)
        X = np.random.default_rng(25).normal(size=(8, 6))
        headm.total_loss(X, [0, 1, 2, 3, 0, 1, 2, 3], train=True)
        path = tmp_path / "ck.json"
        save_checkpoint(headm, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["schema_version"] == hd.CHECKPOINT_VERSION == 1
        flat = headm.representatives.value.reshape(1, -1)
        doc["params"]["representatives.weight"] = hd._encode_array(flat)
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.representatives.value, headm.representatives.value)
        for x in X:
            a, b = headm.score(x), loaded.score(x)
            np.testing.assert_array_equal(a.mode_probs, b.mode_probs)
            np.testing.assert_array_equal(a.class_posterior, b.class_posterior)
            assert a.background_posterior == b.background_posterior

    @pytest.mark.parametrize("batch", [1, 5, 50])
    def test_loaded_head_scores_rows_alone_as_in_a_batch(self, tmp_path, batch):
        headm = small_head(task_mode="detection", seed=35)
        X = np.random.default_rng(26).normal(size=(50, 6))
        headm.total_loss(X[:8], [0, 1, 2, 3, 0, 1, 2, 3], train=True)  # move BN running stats
        path = tmp_path / "ck.json"
        save_checkpoint(headm, path)
        loaded = load_checkpoint(path)
        scores = loaded.score_batch(X[:batch])
        for i in range(batch):
            alone = loaded.score(X[i])
            for name, value in vars(alone).items():
                assert np.array_equal(value, getattr(scores[i], name)), (i, name)

    def test_loaded_and_episode_heads_draw_nothing(self, tmp_path, monkeypatch):
        headm = small_head(seed=36)
        path = tmp_path / "ck.json"
        save_checkpoint(headm, path)

        def no_draws(*key):
            raise AssertionError(f"random draw {key}")

        monkeypatch.setattr(hd, "substream", no_draws)
        loaded = load_checkpoint(path)
        for name, p in headm.named_parameters().items():
            assert np.array_equal(p.value, loaded.named_parameters()[name].value), name
        episode_head = replace_representatives(loaded, np.ones((3, 2, 8)))
        assert episode_head.representatives.value.shape == (3, 2, 8)

    def _saved(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(small_head(), path)
        return path

    def test_truncated_file_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: invalid JSON (")):
            load_checkpoint(path)

    def test_missing_key_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["task_mode"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match="task_mode"):
            load_checkpoint(path)

    def test_bn_running_count_checked(self, tmp_path):
        path = self._saved(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["bn_running"] = []
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match="batch-norm"):
            load_checkpoint(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"kind": "dataset", "schema_version": 1}')
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["wrong_name", "wrong_shape", "non_finite",
                                        "zero_variance", "negative_variance"])
    def test_from_arrays_checks_every_array(self, damage):
        headm = small_head(seed=37)
        arrays = {n: p.value.copy() for n, p in headm.named_parameters().items()}
        bn = [(np.zeros(10), np.ones(10))]
        MixtureHead.from_arrays(headm.embedding.config, headm.mixture, "classification",
                                arrays, bn)  # the undamaged arrays build a head
        if damage == "wrong_name":
            arrays["layers.1.gamma"] = arrays.pop("layers.0.gamma")
        elif damage == "wrong_shape":
            arrays["layers.1.weight"] = arrays["layers.1.weight"][:, :-1]
        elif damage == "non_finite":
            arrays["layers.0.beta"][3] = np.inf
        else:
            bn[0][1][4] = 0.0 if damage == "zero_variance" else -1.0
        with pytest.raises(ConfigError):
            MixtureHead.from_arrays(headm.embedding.config, headm.mixture, "classification",
                                    arrays, bn)

    def test_from_arrays_shares_no_array_with_its_input(self):
        headm = small_head(seed=37)
        arrays = {n: p.value.copy() for n, p in headm.named_parameters().items()}
        bn = [(np.zeros(10), np.ones(10))]
        built = MixtureHead.from_arrays(headm.embedding.config, headm.mixture, "classification",
                                        arrays, bn)
        for name, param in built.named_parameters().items():
            np.testing.assert_array_equal(param.value, arrays[name])
            assert not np.shares_memory(param.value, arrays[name]), name
        state = built.embedding.bn_states[0]
        assert not np.shares_memory(state.running_mean, bn[0][0])
        assert not np.shares_memory(state.running_var, bn[0][1])

    def test_seeded_head_holds_its_parameters_once(self):
        # the arrays drawn for a seeded head become its parameters as they are
        tracemalloc.start()
        try:
            headm = MixtureHead(EmbeddingConfig(1000, (2000, 8)), MixtureConfig(5, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        params = sum(p.value.nbytes for p in headm.parameters())
        assert peak < 1.2 * params, (peak, params)

    def test_parameter_groups_exclude_bn_and_representatives(self):
        headm = small_head()
        groups = headm.parameter_groups()
        no_decay_names = {p.name for p in groups["no_decay"]}
        assert "representatives.weight" in no_decay_names
        assert any("gamma" in n for n in no_decay_names)
        assert any("beta" in n for n in no_decay_names)
        decay_names = {p.name for p in groups["decay"]}
        assert all("weight" in n or "bias" in n for n in decay_names)
        assert "representatives.weight" not in decay_names

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MixtureConfig(num_classes=0)
        with pytest.raises(ConfigError):
            MixtureConfig(num_classes=2, sigma=-1.0)
        with pytest.raises(ConfigError):
            MixtureConfig(num_classes=2, posterior_mode="softmax")
        with pytest.raises(ConfigError):
            EmbeddingConfig(input_dim=0, layer_widths=(4,))
        with pytest.raises(ConfigError):
            MixtureHead(
                EmbeddingConfig(input_dim=2, layer_widths=(2,)),
                MixtureConfig(num_classes=2),
                task_mode="segmentation",
            )
