"""Property tests for the metric and posterior invariants that must hold on
any input, not just the frozen examples."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from composed_loss import composed_total_loss, pairwise_sq_dist
from mixrep import autodiff as ad
from mixrep import head as hd
from mixrep.config import EmbeddingConfig, MixtureConfig
from mixrep.episodes import replace_representatives
from mixrep.head import (
    BACKGROUND,
    MixtureHead,
    background_posterior,
    class_posterior_normalized,
    mode_probabilities,
    parameter_layout,
)
from mixrep.metrics import Detections, average_precision, iou, pr_curve
from mixrep.rng import substream

boxes = st.tuples(
    st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 60), st.floats(0.1, 60)
).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))


@settings(max_examples=60, deadline=None)
@given(a=boxes, b=boxes)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert iou(b, a) == v


@settings(max_examples=30, deadline=None)
@given(a=boxes)
def test_iou_with_itself_is_one(a):
    assert iou(a, a) == 1.0


distance_tables = arrays(
    np.float64,
    shape=st.tuples(st.integers(2, 5), st.integers(1, 4)),
    elements=st.floats(0.0, 5.0),
)


def probabilities_at(d):
    """Mode probabilities of one embedding at the origin against
    one-dimensional modes at distances d, (1, N, K)."""
    return mode_probabilities(np.zeros((1, 1)), d[..., None], 0.5)[1]


@settings(max_examples=60, deadline=None)
@given(d=distance_tables)
def test_normalized_posterior_sums_to_one(d):
    probs = probabilities_at(d)
    _, post = class_posterior_normalized(probs)
    assert abs(post.sum() - 1.0) <= 1e-9
    assert (post >= 0.0).all()


@settings(max_examples=60, deadline=None)
@given(d=distance_tables)
def test_background_is_exact_complement_of_best_mode(d):
    probs = probabilities_at(d)
    assert background_posterior(probs) == 1.0 - probs.max()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 40),
       posterior_mode=st.sampled_from(["max", "normalized"]),
       block=st.sampled_from([1, 3, 7, hd.BLOCK_ROWS]),
       net=st.sampled_from([((10, 8), True), ((10, 8), False), ((8,), True)]),
       data=st.data())
def test_scores_do_not_depend_on_the_rest_of_the_batch(seed, batch, posterior_mode, block, net,
                                                        data):
    """Permuting or splitting a batch changes no output bit, a row scores
    alone exactly as it does in a batch, and an episode head's one-layer net
    over the penultimate features gives the embeddings bit for bit."""
    widths, l2 = net
    # embeddings off the unit sphere can lie so far from every mode that the
    # normalized posterior raises PosteriorUnderflowError, as it should
    assume(l2 or posterior_mode == "max")
    rng = np.random.default_rng(seed)
    head = MixtureHead(EmbeddingConfig(6, widths, final_l2_normalize=l2),
                       MixtureConfig(4, 2, 0.5, 0.5, posterior_mode=posterior_mode),
                       seed=seed % 1000)
    for bn in head.embedding.bn_states:  # stored statistics away from the identity
        bn.running_mean = rng.normal(size=bn.running_mean.shape)
        bn.running_var = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
    X = rng.normal(0.0, rng.uniform(0.1, 10.0), size=(batch, 6))

    saved, hd.BLOCK_ROWS = hd.BLOCK_ROWS, block
    try:
        whole = head.score_batch(X)
        perm = rng.permutation(batch)
        permuted = head.score_batch(X[perm])
        cut = data.draw(st.integers(1, batch))
        parts = [head.score_batch(X[:cut])] + ([head.score_batch(X[cut:])] if cut < batch else [])
        episode_net = replace_representatives(head, np.ones((2, 1, 8))).embedding
        hidden = head.embedding.hidden_features(X)
        episode_embeddings = episode_net.embed_batch(hidden)
    finally:
        hd.BLOCK_ROWS = saved
    assert np.array_equal(episode_embeddings, whole.embeddings)
    if len(widths) == 1:
        assert np.array_equal(hidden, X)
    assert np.array_equal(head.embedding.embed_batch(X[perm]), whole.embeddings[perm])
    for name, want in vars(whole).items():
        assert np.array_equal(getattr(permuted, name), want[perm]), name
        assert np.array_equal(np.concatenate([getattr(p, name) for p in parts]), want), name

    for i in data.draw(st.lists(st.integers(0, batch - 1), min_size=1, max_size=3)):
        alone, in_batch = head.score(X[i]), whole[i]
        assert np.array_equal(head.embedding.embed_batch(X[i:i + 1])[0], in_batch.embedding)
        for name, value in vars(alone).items():
            assert np.array_equal(value, getattr(in_batch, name)), name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 40),
       task_mode=st.sampled_from(["classification", "detection"]),
       posterior_mode=st.sampled_from(["max", "normalized"]),
       sigma=st.sampled_from([0.3, 0.5, 1.0]))
def test_scores_read_the_mode_probabilities_the_loss_trains_on(seed, batch, task_mode,
                                                                posterior_mode, sigma):
    """Scoring and the loss share one forward: the scored mode probabilities
    are exp(d^2 * -1/(2 sigma^2)) over the loss's squared distances, bit for
    bit."""
    rng = np.random.default_rng(seed)
    head = MixtureHead(EmbeddingConfig(6, (10, 8)),
                       MixtureConfig(4, 2, sigma, 0.5, posterior_mode=posterior_mode),
                       task_mode=task_mode, seed=seed % 1000)
    E = head.embedding.embed_batch(rng.normal(size=(batch, 6)))
    want = np.exp(pairwise_sq_dist(E, head.representatives).value * (-1 / (2 * sigma**2)))
    assert np.array_equal(head.score_embeddings(E).mode_probs, want)


# the distance kernel: |q|^2 + |r|^2 - 2 q.r, each term from one einsum pairing

dims = st.one_of(st.integers(2, 70), st.sampled_from([127, 128, 129, 255, 256, 511, 512, 1023,
                                                      1024]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=dims, batch=st.integers(1, 8),
       targets=st.integers(1, 8), stack=st.sampled_from([None, 1, 3]),
       scale=st.sampled_from([1e-3, 1.0, 40.0]))
def test_a_query_at_a_target_is_at_distance_exactly_zero(seed, dim, batch, targets, stack,
                                                          scale):
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()
    Q = rng.normal(0.0, scale, size=lead + (batch, dim))
    picked = rng.integers(0, batch, size=targets)
    R = np.concatenate([Q[..., picked, :], rng.normal(size=lead + (2, dim))], axis=-2)
    d2 = ad.pairwise_sq_dist_values(Q, R)
    at = d2[..., picked, np.arange(targets)]
    assert (at == 0.0).all(), at[at != 0.0]
    assert (d2 >= 0.0).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=dims, batch=st.integers(1, 40),
       offset=st.integers(0, 20), data=st.data())
def test_a_rows_distances_and_gradient_do_not_depend_on_its_batch(seed, dim, batch, offset, data):
    """The distances and the query gradient of a row are bit-identical
    alone, in any batch of 1 to 40 rows, permuted, and in a slice of a larger
    array that starts at an odd row."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(2 * offset + 1 + batch, dim))
    R = rng.normal(size=(3, 2, dim))
    G = rng.normal(size=(len(rows), 3, 2))
    start = 2 * offset + 1
    Q, g = rows[start:].copy(), G[start:]
    whole = ad.pairwise_sq_dist_values(Q, R), ad.pairwise_sq_dist_grads(Q, R, g)[0]
    sliced = ad.pairwise_sq_dist_values(rows[start:], R), \
        ad.pairwise_sq_dist_grads(rows[start:], R, g)[0]
    perm = rng.permutation(batch)
    permuted = ad.pairwise_sq_dist_values(Q[perm], R), \
        ad.pairwise_sq_dist_grads(Q[perm], R, g[perm])[0]
    for got, want in zip(sliced, whole):
        assert np.array_equal(got, want)
    for got, want in zip(permuted, whole):
        assert np.array_equal(got, want[perm])
    for i in data.draw(st.lists(st.integers(0, batch - 1), min_size=1, max_size=4)):
        alone = ad.pairwise_sq_dist_values(Q[i:i + 1], R), \
            ad.pairwise_sq_dist_grads(Q[i:i + 1], R, g[i:i + 1])[0]
        for got, want in zip(alone, whole):
            assert np.array_equal(got[0], want[i])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 70), stack=st.integers(1, 5),
       batch=st.integers(1, 30), targets=st.integers(1, 12))
def test_each_stack_entry_is_the_entry_run_alone(seed, dim, stack, batch, targets):
    rng = np.random.default_rng(seed)
    Q, R = rng.normal(size=(stack, batch, dim)), rng.normal(size=(stack, targets, 2, dim))
    g = rng.normal(size=(stack, batch, targets, 2))
    together = (ad.pairwise_sq_dist_values(Q, R), *ad.pairwise_sq_dist_grads(Q, R, g))
    for i in range(stack):
        alone = (ad.pairwise_sq_dist_values(Q[i], R[i]), *ad.pairwise_sq_dist_grads(Q[i], R[i], g[i]))
        for got, want in zip(together, alone):
            assert np.array_equal(got[i], want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       task_mode=st.sampled_from(["classification", "detection"]),
       stack=st.sampled_from([None, 2]), batch=st.integers(1, 6), classes=st.integers(2, 4),
       modes=st.integers(1, 3), own=st.booleans())
def test_the_loss_gradient_is_finite_where_an_embedding_is_a_representative(
        seed, task_mode, stack, batch, classes, modes, own):
    """d^2 is exactly 0 at a coincident pair, where the hinge's sqrt has an
    infinite derivative: DIST_SQ_FLOOR and `sqrt_vjp`'s zero guard keep every
    gradient finite, whether the representative is of the row's class or
    another."""
    rng = np.random.default_rng(seed)
    lead = (stack,) if stack else ()
    E = ad.parameter(rng.normal(size=lead + (batch, 4)))
    R = ad.parameter(rng.normal(size=lead + (classes, modes, 4)))
    labels = rng.integers(0, classes, size=batch)
    at = int(labels[0]) if own else (int(labels[0]) + 1) % classes
    R.value[..., at, modes - 1, :] = E.value[..., 0, :]
    assert (ad.pairwise_sq_dist_values(E.value, R.value)[..., 0, at, modes - 1] == 0.0).all()
    loss, _ = hd.mixture_loss(E, R, labels, MixtureConfig(classes, modes, 1.0, 5.0), task_mode)
    ad.backward(loss)
    assert np.isfinite(loss.value)
    assert np.isfinite(E.grad).all() and np.isfinite(R.grad).all()


def loss_and_gradients(head, loss):
    """The root, parts, every parameter's gradient and the tie verdict of
    `loss()`, a (root, parts) pair over `head`'s parameters."""
    params = head.parameters()
    ad.zero_grads(params)
    root, parts = loss()
    ad.backward(root)
    return root.value, parts, [p.grad for p in params], ad.graph_has_tie(root)


def bits(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64).view(np.uint64)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       task_mode=st.sampled_from(["classification", "detection"]),
       stack=st.sampled_from([None, 1, 3]), batch=st.integers(1, 9),
       classes=st.integers(1, 4), modes=st.integers(1, 3),
       ties=st.sampled_from(["none", "one mode twice", "every mode at one point"]),
       train=st.booleans())
def test_the_loss_node_is_the_composed_graph_bit_for_bit(seed, task_mode, stack, batch, classes,
                                                         modes, ties, train):
    """`total_loss`, one fused node, gives the value, the ce / margin /
    total parts, every parameter's gradient and the tie verdict of the loss
    composed from autodiff primitives, bit for bit: on a 2-d batch and on a
    stack of heads, with background rows in detection mode, and at exact
    ties between modes."""
    rng = np.random.default_rng(seed)
    embedding = EmbeddingConfig(5, (4,) if stack else (6, 4),
                                final_l2_normalize=bool(stack) or bool(seed % 2))
    mixture = MixtureConfig(classes, modes, float(rng.choice([0.3, 0.5, 1.0])), 0.5)
    if stack:
        arrays = {name: rng.normal(size=shape)
                  for name, shape in parameter_layout(embedding, mixture, stack).items()}
        head = MixtureHead.from_arrays(embedding, mixture, task_mode, arrays, stack=stack)
        X = rng.normal(size=(stack, batch, 5))
    else:
        head = MixtureHead(embedding, mixture, task_mode=task_mode, seed=seed % 1000)
        X = rng.normal(size=(batch, 5))
    train = train and not stack and batch >= 2
    low = BACKGROUND if task_mode == "detection" else 0
    labels = [int(v) for v in rng.integers(low, classes, size=batch)]
    reps = head.representatives.value
    if ties == "one mode twice":
        reps[..., -1, -1, :] = reps[..., 0, 0, :]
    elif ties == "every mode at one point":
        reps[...] = reps[..., :1, :1, :]
    # the same BN running statistics before each loss, where train moves them
    state = [(bn.running_mean, bn.running_var) for bn in head.embedding.bn_states]
    fused = loss_and_gradients(head, lambda: head.total_loss(X, labels, train))
    for bn, (mean, var) in zip(head.embedding.bn_states, state):
        bn.running_mean, bn.running_var = mean, var
    composed = loss_and_gradients(head, lambda: composed_total_loss(head, X, labels, train))

    assert np.array_equal(bits(fused[0]), bits(composed[0]))
    for name in ("ce", "margin", "total"):
        assert np.array_equal(bits(fused[1][name]), bits(composed[1][name])), name
    for param, got, want in zip(head.parameters(), fused[2], composed[2]):
        assert np.array_equal(bits(got), bits(want)), param.name
    assert fused[3] == composed[3]
    if ties == "every mode at one point" and task_mode == "detection" and classes * modes > 1:
        assert fused[3]


labeled_runs = st.lists(
    st.tuples(st.floats(0.01, 0.99), st.booleans()), min_size=1, max_size=8
)


def _detections(pairs):
    """(score, is_tp) pairs as one image's detections, record ids in input
    order, and their TP flags."""
    n = len(pairs)
    return (Detections([0] * n, ["img0"] * n, ["cat"] * n, [(0, 0, 10, 10)] * n,
                       [score for score, _ in pairs], [f"r{i:02d}" for i in range(n)]),
            [tp for _, tp in pairs])


@settings(max_examples=60, deadline=None)
@given(pairs=labeled_runs, extra_gt=st.integers(0, 3))
# 0.05 + 0.9 * s**3 maps both scores to one float, so it is no test of a
# strictly increasing rescoring: the tie then fell back to record ids
@example(pairs=[(0.01, False), (0.010000000000000002, True)], extra_gt=0)
def test_ap_bounded_and_monotone_transform_invariant(pairs, extra_gt):
    num_gt = max(1, sum(tp for _, tp in pairs) + extra_gt)
    ap = average_precision(*_detections(pairs), num_gt)
    assert 0.0 <= ap <= 1.0

    # halving is exact in float64, so it keeps every order and every tie,
    # hence the AP
    halved = [(s * 0.5, tp) for s, tp in pairs]
    assert average_precision(*_detections(halved), num_gt) == ap


@settings(max_examples=60, deadline=None)
@given(pairs=labeled_runs)
def test_pr_curve_envelope_shape(pairs):
    num_gt = max(1, sum(tp for _, tp in pairs))
    curve = pr_curve(*_detections(pairs), num_gt)
    recall = np.asarray(curve.recall)
    precision = np.asarray(curve.precision)
    assert (np.diff(recall) >= 0).all()
    assert ((0.0 <= precision) & (precision <= 1.0)).all()
    assert ((0.0 <= recall) & (recall <= 1.0)).all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), path=st.lists(st.integers(0, 99), max_size=3))
def test_substream_is_a_pure_function_of_its_path(seed, path):
    a = substream(seed, "prop", *path).normal(size=4)
    b = substream(seed, "prop", *path).normal(size=4)
    assert np.array_equal(a, b)
