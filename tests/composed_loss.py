"""The mixture head's loss composed from autodiff primitives: the reference
that `mixrep.head.mixture_loss`, one fused node, is checked against bit for
bit. Each helper builds its part of the graph from primitives, so the
finite-difference checker and `graph_has_tie` see every reduction, and the
mode probabilities and posteriors are coded here a second time, as nodes,
apart from the plain-array functions of `mixrep.head` that the fused node
and scoring run.

`scale`, `negate`, `square`, `exp`, `log`, `sqrt`, `reduce_sum`,
`reduce_max`, `reduce_min`, `reshape`, `concat`, `take` and
`pairwise_sq_dist` are primitives only this reference and the gradient
checks use. They live here, built on the engine's `record` and its array
forms and vjp helpers, which the fused loss node shares."""

import numpy as np

from mixrep import autodiff as ad
from mixrep.autodiff import Node
from mixrep.head import (
    BACKGROUND,
    DIST_SQ_FLOOR,
    PROB_FLOOR,
    MixtureHead,
    _check_labels,
    _exponent_scale,
)
from mixrep.errors import ShapeError


def scale(a, factor: float) -> Node:
    a = ad.wrap(a)
    factor = float(factor)
    return ad.record(a.value * factor, "scale", [(a, lambda g: g * factor)])


def negate(a) -> Node:
    a = ad.wrap(a)
    return ad.record(-a.value, "negate", [(a, lambda g: -g)])


def square(a) -> Node:
    a = ad.wrap(a)
    va = a.value
    return ad.record(va * va, "square", [(a, lambda g: 2.0 * va * g)])


def exp(a) -> Node:
    a = ad.wrap(a)
    out = np.exp(a.value)
    return ad.record(out, "exp", [(a, lambda g: g * out)])


def log(a) -> Node:
    a = ad.wrap(a)
    va = a.value
    if (va < 0.0).any():
        raise ShapeError("log", (va.shape,), "negative input")
    with np.errstate(divide="ignore"):
        out = np.log(va)
    return ad.record(out, "log", [(a, lambda g: ad.log_vjp(g, va))])


def sqrt(a) -> Node:
    """Elementwise square root; exactly 0 at 0."""
    a = ad.wrap(a)
    va = a.value
    if (va < 0.0).any():
        raise ShapeError("sqrt", (va.shape,), "negative input")
    out = np.sqrt(va)
    return ad.record(out, "sqrt", [(a, lambda g: ad.sqrt_vjp(g, out))])


def reduce_sum(a, axis: int | None = None) -> Node:
    a = ad.wrap(a)
    va = a.value
    kept = va.sum(axis=axis, keepdims=True)

    def vjp(g):
        gi = np.empty(va.shape)
        gi[...] = g.reshape(kept.shape)
        return gi

    return ad.record(kept.squeeze(axis), "sum", [(a, vjp)])


def reduce_max(a, axis: int) -> Node:
    """Maximum along one axis.

    The gradient is routed only to the winner, with ties broken to the
    lowest index. Whether the maximum sat on a tie is checked only on
    demand, by `graph_has_tie`.
    """
    a = ad.wrap(a)
    va = a.value
    if va.size == 0:
        raise ShapeError("reduce_max", (va.shape,), "empty input")
    kept = va.max(axis=axis, keepdims=True)
    return ad.record(kept.squeeze(axis), "reduce_max",
                     [(a, lambda g: ad.extreme_vjp(g, va.argmax(axis=axis), va.shape, axis))],
                     lambda: ad.tied(va, kept, axis))


def reduce_min(a, axis: int) -> Node:
    """Minimum along one axis, the mirror of `reduce_max`."""
    a = ad.wrap(a)
    va = a.value
    if va.size == 0:
        raise ShapeError("reduce_min", (va.shape,), "empty input")
    kept = va.min(axis=axis, keepdims=True)
    return ad.record(kept.squeeze(axis), "reduce_min",
                     [(a, lambda g: ad.extreme_vjp(g, va.argmin(axis=axis), va.shape, axis))],
                     lambda: ad.tied(va, kept, axis))


def reshape(a, shape) -> Node:
    a = ad.wrap(a)
    va = a.value
    try:
        out = va.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", (va.shape, shape), "sizes differ") from None
    return ad.record(out, "reshape", [(a, lambda g: g.reshape(va.shape))])


def concat(parts, axis: int = -1) -> Node:
    """Join arrays along an existing axis."""
    nodes = [ad.wrap(p) for p in parts]
    shapes = [n.value.shape for n in nodes]
    try:
        out = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError:
        raise ShapeError("concat", shapes, "shapes do not line up") from None
    ends = np.cumsum([s[axis] for s in shapes]).tolist()
    pieces = [(slice(None),) * (axis % out.ndim) + (slice(end - s[axis], end),)
              for s, end in zip(shapes, ends)]
    return ad.record(out, "concat", [(n, lambda g, piece=piece: g[piece])
                                     for n, piece in zip(nodes, pieces)])


def take(a, index: tuple) -> Node:
    """Entries `a[index]` for a tuple of integer index arrays, after any
    whole-axis slices: `(rows,)` gathers rows, `(rows, cols)` picks one entry
    per row, and `(slice(None), rows, cols)` does so in every matrix of a
    stack. The gradient is scattered back, adding up where an entry is taken
    more than once."""
    a = ad.wrap(a)
    va = a.value
    index = tuple(i if isinstance(i, slice) else np.asarray(i, dtype=np.intp) for i in index)
    try:
        flat = ad.flat_positions(va.shape, index)
    except IndexError:
        raise ShapeError("take", (va.shape,), "index out of range") from None
    return ad.record(va.reshape(-1)[flat], "take",
                     [(a, lambda g: ad.scatter_add(flat, g, va.shape))])


def pairwise_sq_dist(e, r) -> Node:
    """The node of `ad.pairwise_sq_dist_values`: squared distances from each
    query row of `e` to every target of `r`, with both operands' vjps from
    one pass of `ad.pairwise_sq_dist_grads`."""
    e, r = ad.wrap(e), ad.wrap(r)
    ve, vr = e.value, r.value
    return ad.record(ad.pairwise_sq_dist_values(ve, vr), "pairwise_sq_dist",
                     ad.shared_vjps((e, r), lambda g: ad.pairwise_sq_dist_grads(ve, vr, g)))


def mode_probabilities(embeddings, representatives, sigma: float) -> tuple[Node, Node]:
    """The nodes of `mixrep.head.mode_probabilities`: d^2 and
    exp(-d^2 / (2 sigma^2))."""
    d2 = pairwise_sq_dist(embeddings, representatives)
    return d2, exp(scale(d2, _exponent_scale(sigma)))


def class_posterior_max(probs) -> Node:
    """The node of `mixrep.head.class_posterior_max`: (..., N, K) -> (..., N)."""
    return reduce_max(probs, axis=-1)


def class_posterior_normalized(probs) -> Node:
    """The node of `mixrep.head.class_posterior_normalized`, (..., N, K) ->
    (..., N): exp(log mass - log total)."""
    mass = reduce_sum(probs, axis=-1)
    total = reduce_sum(mass, axis=-1)
    total = reshape(total, total.shape + (1,))
    return exp(ad.add(log(mass), negate(log(total))))


def background_posterior(probs) -> Node:
    """The node of `mixrep.head.background_posterior`, (..., N, K) -> (...):
    1 minus the best mode."""
    p = ad.wrap(probs)
    flat = reshape(p, p.shape[:-2] + (-1,))
    return ad.add(ad.constant(1.0), negate(reduce_max(flat, axis=-1)))


def clamp_min(node: Node, floor: float) -> Node:
    return ad.add(ad.relu(ad.add(node, ad.constant(-float(floor)))), ad.constant(float(floor)))


def margin_loss(distances, labels, margin: float) -> Node:
    """Per-row hinge between the closest correct-class mode and the closest
    wrong-class mode: relu(min_true - min_wrong + margin), (B,) values.

    `distances` is the (B, N, K) table, or an (E, B, N, K) stack of them
    giving (E, B) values; `labels` holds one 0-based class per row, the same
    in every table of a stack. Each minimum is one row-min over the
    flattened N*K modes, with the excluded modes pushed to +inf by a
    constant additive mask.
    """
    d = ad.wrap(distances)
    if d.value.ndim not in (3, 4):
        raise ShapeError("margin_loss", (d.value.shape,), "expected (B, N, K) or (E, B, N, K)")
    batch, n, k = d.value.shape[-3:]
    if n < 2:
        raise ValueError("margin_loss needs a competing class (N >= 2)")
    labels = _check_labels(labels, n, background_ok=False)
    if labels.shape[0] != batch:
        raise ShapeError("margin_loss", (d.value.shape, labels.shape), "one label per row")
    own = np.repeat(np.arange(n)[None, :] == labels[:, None], k, axis=1)  # (B, N*K)
    flat = reshape(d, d.shape[:-2] + (n * k,))
    d_true = reduce_min(ad.add(flat, ad.constant(np.where(own, 0.0, np.inf))), axis=-1)
    d_wrong = reduce_min(ad.add(flat, ad.constant(np.where(own, np.inf, 0.0))), axis=-1)
    return ad.relu(ad.add(ad.add(d_true, negate(d_wrong)), ad.constant(float(margin))))


def cross_entropy_loss(class_posterior, background_post, labels) -> Node:
    """Per-row negative log probability of the true label, (B,) values.

    `class_posterior` is (B, N), or an (E, B, N) stack giving (E, B)
    values, with the same labels in every table. With `background_post`
    None it is taken as already normalized and every label must be a
    foreground class. Otherwise each row's (N+1)-way distribution is formed
    by renormalizing [class_posterior, background_post] to sum 1 (argmax
    preserved), and a label may be BACKGROUND. Probabilities are floored at
    1e-12 inside the log.
    """
    post = ad.wrap(class_posterior)
    if post.value.ndim not in (2, 3):
        raise ShapeError("cross_entropy_loss", (post.value.shape,), "expected (B, N) or (E, B, N)")
    batch, n = post.value.shape[-2:]
    labels = _check_labels(labels, n, background_ok=background_post is not None)
    if labels.shape[0] != batch:
        raise ShapeError("cross_entropy_loss", (post.value.shape, labels.shape), "one label per row")
    rows = (slice(None),) * (post.value.ndim - 2) + (np.arange(batch),)
    if background_post is None:
        picked = take(post, rows + (labels,))
        return negate(log(clamp_min(picked, PROB_FLOOR)))

    bg = ad.wrap(background_post)
    total = ad.add(reduce_sum(post, axis=-1), bg)
    table = concat([post, reshape(bg, bg.shape + (1,))], axis=-1)
    picked = take(table, rows + (np.where(labels == BACKGROUND, n, labels),))
    ratio = exp(ad.add(log(picked), negate(log(total))))
    return negate(log(clamp_min(ratio, PROB_FLOOR)))


def composed_total_loss(head: MixtureHead, X, labels, train: bool = False):
    """`head.total_loss(X, labels, train)` built as one graph of primitives:
    the same (root, parts) in value, and the same gradients."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.array([int(l) for l in labels], dtype=np.intp)
    batch = len(labels)
    E = head.embedding.forward(X, train)
    d2, probs = mode_probabilities(E, head.representatives, head.mixture.sigma)
    if head.task_mode == "classification":
        ce = cross_entropy_loss(class_posterior_normalized(probs), None, labels)
    else:
        ce = cross_entropy_loss(class_posterior_max(probs), background_posterior(probs), labels)
    ce_total = reduce_sum(ce, axis=-1)
    loss, margin = ce_total, np.zeros(ce_total.shape)

    fg = np.flatnonzero(labels != BACKGROUND)
    if fg.size and head.representatives.value.shape[-3] >= 2:
        rows = (slice(None),) * (X.ndim - 2) + (fg,)
        dist = sqrt(clamp_min(take(d2, rows), DIST_SQ_FLOOR))
        margin_total = reduce_sum(margin_loss(dist, labels[fg], head.mixture.margin), axis=-1)
        loss = ad.add(loss, margin_total)
        margin = margin_total.value / batch

    loss = scale(loss, 1.0 / batch)
    parts = {"ce": ce_total.value / batch, "margin": margin, "total": loss.value}
    if X.ndim == 3:
        return reduce_sum(loss), parts
    return loss, {name: float(value) for name, value in parts.items()}
