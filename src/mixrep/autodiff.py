"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are define-by-run: each operation returns a `Node` holding the forward
value and, when a parameter feeds it, vector-Jacobian products against its
inputs. Nodes are numbered as they are made, after their inputs, and
`backward` visits the nodes a scalar root's gradient reaches in decreasing
creation order, each once. Operations on constants only keep no tape. Graphs
are rebuilt on every forward pass; parameters are the only state carried
across passes.

The engine holds the five primitives the model differentiates, those of the
embedding net: `matmul`, `add`, `relu`, `batch_norm` and `l2_normalize`. The
fused loss node (`mixrep.head.mixture_loss`) shares the rest: the pairwise
distances and their gradients, the vjps of log, sqrt, max and min, gather
and scatter. The primitives only its composed reference and the gradient
checks use are in `tests/composed_loss.py`. Distances are in Gram form,
every product through one `np.einsum` pairing: a coincident pair is at
distance exactly 0, and a row's bits do not depend on its batch.

A central-difference checker (`finite_difference_check`) serves as the
independent oracle for every gradient in the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateVectorError,
    GradientCheckError,
    NonSmoothPointError,
    ShapeError,
)

Array = np.ndarray

_FLOAT64 = np.dtype(np.float64)
_creation = itertools.count()  # numbers every node in the order nodes are made


def as_array(x) -> Array:
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return np.asarray(x, dtype=np.float64)


class Node:
    """One value in a computation graph.

    `value` is always a float64 ndarray (scalars have shape ()). On a
    parameter, `grad` accumulates additively across backward passes until
    reset to None; other nodes keep none.
    Forward values never depend on whether gradients were requested.

    Only a node that requires a gradient keeps a tape: its (input, vjp)
    pairs and, for an operation that takes a max or min, `tie`, a callable
    telling whether one sat on a tie. `_seq` numbers nodes in creation
    order.
    """

    __slots__ = ("value", "grad", "requires_grad", "op", "name", "_vjps", "tie", "_seq")

    def __init__(self, value, requires_grad: bool = False, op: str = "leaf", name: str | None = None):
        self.value = as_array(value)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self.name = name
        self._vjps: Sequence = ()
        self.tie: Callable[[], bool] | None = None
        self._seq = next(_creation)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = self.name or self.op
        return f"Node({tag}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def parameter(value, name: str | None = None) -> Node:
    return Node(value, requires_grad=True, op="param", name=name)


def constant(value) -> Node:
    return Node(value, requires_grad=False, op="const")


def wrap(x) -> Node:
    """`x` itself when it is a node; otherwise a constant of its values."""
    return x if isinstance(x, Node) else constant(x)


def record(value, op: str, vjps: list, tie: Callable[[], bool] | None = None) -> Node:
    """The node of an operation's result `value`. It keeps a tape, its
    (input, vjp) pairs and its `tie` callable, only when an input requires a
    gradient."""
    node = Node(value, op=op)
    if [p for p, _ in vjps if p.requires_grad]:
        node.requires_grad, node._vjps, node.tie = True, vjps, tie
    return node


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b) -> Node:
    """(B, d) @ (d, m) -> (B, m), or a stack of such products,
    (E, B, d) @ (E, d, m) -> (E, B, m), row-invariant.

    Each row is multiplied on its own, as a stack of (1, d) products, so a
    row's result is bit-identical whatever other rows share the batch, and
    a stacked product is bit-identical to its E products taken one by one;
    one gemm over the whole batch would let a row's last bits depend on the
    batch size.
    """
    a, b = wrap(a), wrap(b)
    va, vb = a.value, b.value
    if va.ndim != vb.ndim or va.ndim not in (2, 3) or va.shape[:-2] != vb.shape[:-2]:
        raise ShapeError("matmul", (va.shape, vb.shape),
                         "operands must be 2-d, or 3-d stacks of one length")
    if va.shape[-1] != vb.shape[-2]:
        raise ShapeError("matmul", (va.shape, vb.shape), "inner dimensions differ")
    out = np.matmul(va[..., None, :], vb[..., None, :, :])[..., 0, :]
    return record(out, "matmul", [(a, lambda g: g @ vb.swapaxes(-1, -2)),
                                  (b, lambda g: va.swapaxes(-1, -2) @ g)])


def _unbroadcast(g: Array, shape: tuple) -> Array:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Node:
    a, b = wrap(a), wrap(b)
    va, vb = a.value, b.value
    try:
        out = va + vb
    except ValueError:
        raise ShapeError("add", (va.shape, vb.shape), "shapes do not broadcast") from None
    return record(
        out,
        "add",
        [(a, lambda g: _unbroadcast(g, va.shape)), (b, lambda g: _unbroadcast(g, vb.shape))],
    )


def relu(a) -> Node:
    a = wrap(a)
    va = a.value
    return record(np.maximum(va, 0.0), "relu", [(a, lambda g: g * (va > 0.0))])


def l2_normalize(a, epsilon: float = 1e-12) -> Node:
    """Scale each row of a matrix, or of a stack of matrices, to unit
    Euclidean norm. A row whose squared norm overflows becomes NaN, not the
    zero vector that dividing by an infinite norm gives."""
    a = wrap(a)
    va = a.value
    if va.ndim not in (2, 3):
        raise ShapeError("l2_normalize", (va.shape,), "expected 2-d or 3-d input")
    norms = np.sqrt((va * va).sum(axis=-1, keepdims=True))
    if (norms < epsilon).any():
        raise DegenerateVectorError(
            f"l2_normalize: norm {float(norms.min()):.3e} below epsilon {epsilon:.1e}"
        )
    out = va / norms
    out[np.isinf(norms[..., 0])] = np.nan

    def vjp(g):
        radial = (g * out).sum(axis=-1, keepdims=True)
        return (g - radial * out) / norms

    return record(out, "l2_normalize", [(a, vjp)])


@dataclass
class BatchNormState:
    """Running statistics for one batch-norm layer, with its head's momentum and epsilon."""

    running_mean: Array
    running_var: Array
    momentum: float
    epsilon: float


def batch_norm(x, gamma, beta, state: BatchNormState, train: bool = False) -> Node:
    """Batch normalization over axis 0 with learnable per-feature affine.

    With `train`, normalizes with batch statistics (batch size >= 2) and
    advances the running estimates. Otherwise uses only the stored
    statistics, so each row is independent of the rest of the batch.
    """
    x, gamma, beta = wrap(x), wrap(gamma), wrap(beta)
    vx, vg, vb = x.value, gamma.value, beta.value
    if vx.ndim != 2:
        raise ShapeError("batch_norm", (vx.shape,), "expected (batch, features)")
    nfeat = vx.shape[1]
    if vg.shape != (nfeat,) or vb.shape != (nfeat,):
        raise ShapeError("batch_norm", (vx.shape, vg.shape, vb.shape), "affine shape mismatch")

    if train:
        batch = vx.shape[0]
        if batch < 2:
            raise ShapeError("batch_norm", (vx.shape,), "batch statistics need batch size >= 2")
        mean = vx.mean(axis=0)
        var = vx.var(axis=0)
        inv = 1.0 / np.sqrt(var + state.epsilon)
        xhat = (vx - mean) * inv
        m = state.momentum
        state.running_mean = m * state.running_mean + (1.0 - m) * mean
        state.running_var = m * state.running_var + (1.0 - m) * var

        def vjp_x(g):
            dxhat = g * vg
            return (inv / batch) * (
                batch * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
            )

    else:
        inv = 1.0 / np.sqrt(state.running_var + state.epsilon)
        xhat = (vx - state.running_mean) * inv

        def vjp_x(g):
            return g * vg * inv

    out = vg * xhat + vb
    return record(
        out,
        "batch_norm",
        [
            (x, vjp_x),
            (gamma, lambda g: (g * xhat).sum(axis=0)),
            (beta, lambda g: g.sum(axis=0)),
        ],
    )


# ---------------------------------------------------------------------------
# array forms and vjps of the fused loss node


def pairwise_sq_dist_values(ve: Array, vr: Array) -> Array:
    """Squared Euclidean distances from each query row to every target.

    `ve` is a (B, dim) batch of queries; `vr` holds targets along its last
    axis, (..., dim), e.g. an (N, K, dim) bank of mode centers. The result
    is (B, ...). A stack of such pairs, (E, B, dim) queries and
    (E, ..., dim) targets, gives (E, B, ...): queries meet only the targets
    of their own stack entry.

    Distances are in Gram form, |q|^2 + |r|^2 - 2 q.r clamped at 0, with
    the norms and the cross term all from one `np.einsum` pairing: each dot
    product sums its dim products in one order, so a query that coincides
    with a target is at distance exactly 0, and a row's distances are
    bit-identical whatever other rows or stack entries share the call.
    einsum, not BLAS: a gemm's row bits depend on the batch.
    """
    stack = ve.shape[:-2]
    if (ve.ndim not in (2, 3) or vr.ndim < ve.ndim - 1 or vr.shape[:len(stack)] != stack
            or vr.shape[-1] != ve.shape[-1]):
        raise ShapeError("pairwise_sq_dist", (ve.shape, vr.shape),
                         "expected (B, dim) and (..., dim), or (E, B, dim) and (E, ..., dim)")
    q, r = _as_stack(ve, vr)
    out = (np.einsum("...bi,...bi->...b", q, q)[..., None]
           + np.einsum("...mi,...mi->...m", r, r)[..., None, :]
           - 2.0 * np.einsum("...bi,...mi->...bm", q, r))
    np.maximum(out, 0.0, out=out)
    return out.reshape(stack + ve.shape[-2:-1] + vr.shape[len(stack):-1])


def _as_stack(ve: Array, vr: Array) -> tuple[Array, Array]:
    """The queries and targets of `pairwise_sq_dist_values` as a stack,
    (E, B, dim) and (E, M, dim); a single pair is a stack of one."""
    lead = ve.shape[:-2] or (1,)
    return ve.reshape(lead + ve.shape[-2:]), vr.reshape(lead + (-1, ve.shape[-1]))


def pairwise_sq_dist_grads(ve: Array, vr: Array, g: Array) -> tuple[Array, Array]:
    """The vjps of `pairwise_sq_dist_values(ve, vr)` against both operands
    for the upstream gradient `g`: 2 (q sum_m g - g r) against the queries
    and 2 (r sum_b g - g^T q) against the targets, the products through
    `np.einsum`, so a query row's gradient reads only its own row of g."""
    q, r = _as_stack(ve, vr)
    g = g.reshape(q.shape[:-1] + r.shape[-2:-1])
    ge = q * g.sum(axis=-1)[..., None] - np.einsum("...bm,...mi->...bi", g, r)
    gr = r * g.sum(axis=-2)[..., None] - np.einsum("...bm,...bi->...mi", g, q)
    return (2.0 * ge).reshape(ve.shape), (2.0 * gr).reshape(vr.shape)


def log_vjp(g: Array, x: Array) -> Array:
    """The vjp of log at x. A zero upstream gradient contributes zero even
    where x is 0 (1/0 = inf there); this keeps inactive hinge branches
    NaN-free at exact zero distances. A nonzero upstream at 0 is a declared
    singularity."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(g == 0.0, 0.0, g / x)


def sqrt_vjp(g: Array, out: Array) -> Array:
    """The vjp of sqrt where it gives `out`. As in log, a zero upstream
    gradient contributes zero at x = 0, where the derivative is infinite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(g == 0.0, 0.0, 0.5 * g / out)


def extreme_vjp(g: Array, winners: Array, shape: tuple, axis: int) -> Array:
    """The vjp of a max or min over `axis` of an array of `shape`: g at the
    `winners` the reduction picked along the axis, ties having gone to the
    lowest index, and 0 elsewhere."""
    # the array seen as (outer, n, inner) with the reduced axis in the middle
    split = axis % len(shape)
    outer, inner = math.prod(shape[:split]), math.prod(shape[split + 1:])
    gi = np.zeros((outer, shape[split], inner))
    gi[np.arange(outer)[:, None], winners.reshape(outer, inner),
       np.arange(inner)] = g.reshape(outer, inner)
    return gi.reshape(shape)


def tied(table: Array, kept: Array, axis: int) -> bool:
    """Whether `kept`, a max or min of `table` over `axis` kept as a
    length-1 axis, is held there more than once anywhere."""
    return bool(((table == kept).sum(axis=axis) > 1).any())


def flat_positions(shape: tuple, index: tuple) -> Array:
    """The flat C-order position, in an array of `shape`, of each entry that
    `index` picks, laid out in C order: after a slice, indexing may return
    a transposed layout, which a reduction adds up differently."""
    return np.ascontiguousarray(np.arange(math.prod(shape)).reshape(shape)[index])


def scatter_add(positions: Array, g: Array, shape: tuple) -> Array:
    """The vjp of gathering `positions` from an array of `shape`: g added
    up at each position in index order, as a sequential scatter-add would,
    and 0 elsewhere."""
    return np.bincount(positions.reshape(-1), g.reshape(-1), math.prod(shape)).reshape(shape)


def shared_vjps(inputs: Sequence[Node], vjp) -> list:
    """The (input, vjp) pairs of a node whose vjps against all its `inputs`
    come from one computation, `vjp(g)` giving one gradient per input: it
    runs on the first of the calls `backward` makes for one upstream g."""
    last: list = [None, None]

    def nth(i, g):
        if last[0] is not g:
            last[:] = g, vjp(g)
        return last[1][i]

    return [(x, lambda g, i=i: nth(i, g)) for i, x in enumerate(inputs)]


# ---------------------------------------------------------------------------
# backward pass


def backward(root: Node) -> None:
    """Accumulate d(root)/d(p) into `.grad` of every parameter p (a leaf
    that requires a gradient) the root depends on.

    Nodes are visited in decreasing creation order, each once, and only
    those the root's gradient reaches. A node is made after its inputs, so
    all its consumers have passed it their gradients before its turn; it
    then passes the sum on to its inputs and drops it. Where a node feeds
    two consumers, a + b and b + a give the same bits.

    Repeated calls without clearing gradients accumulate additively.
    """
    if root.value.shape != ():
        raise ValueError(f"backward: root must be scalar, got shape {root.value.shape}")
    grads: dict[Node, Array] = {root: np.ones(())}
    pending = [(-root._seq, root)]
    while pending:
        node = heappop(pending)[1]
        g = grads.pop(node)
        if not node._vjps:
            node.grad = g.copy() if node.grad is None else node.grad + g
        for parent, vjp in node._vjps:
            if parent.requires_grad:
                contrib = as_array(vjp(g))
                if parent in grads:
                    grads[parent] = grads[parent] + contrib
                else:
                    grads[parent] = contrib
                    heappush(pending, (-parent._seq, parent))


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def graph_has_tie(root: Node) -> bool:
    """True when any max or min that the gradient of `root` flows through
    sat exactly on a tie. A tie among constants cannot make the
    objective non-smooth, and constant nodes keep no tape."""
    stack, seen = [root], set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.tie is not None and node.tie():
            return True
        stack.extend(p for p, _ in node._vjps)
    return False


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_check(
    f: Callable[[list[Node]], Node],
    params: Sequence[Node],
    step: float = 1e-5,
) -> float:
    """Compare analytic gradients of `f(params)` against central differences.

    Returns the maximum over all coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|).

    `f` must rebuild its graph on every call, and its value must not depend
    on earlier calls.
    Raises NonSmoothPointError when the nominal evaluation hits an exact tie
    in a max/min reduction, and GradientCheckError when any evaluation or
    analytic gradient is NaN.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    params = list(params)
    root = f(params)
    if not isinstance(root, Node) or root.value.shape != ():
        raise ValueError("f must return a scalar Node")
    if math.isnan(float(root.value)):
        raise GradientCheckError("nominal evaluation is NaN")
    if graph_has_tie(root):
        raise NonSmoothPointError("objective is at an exact max/min tie; gradient check skipped")

    zero_grads(params)
    backward(root)
    analytic = [np.zeros_like(p.value) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for pi, p in enumerate(params):
        aflat = analytic[pi].reshape(-1)
        for ci in range(p.value.size):
            idx = np.unravel_index(ci, p.value.shape)
            name = p.name or f"param{pi}"
            if math.isnan(aflat[ci]):
                raise GradientCheckError(f"analytic gradient NaN at {name}[{ci}]")
            orig = p.value[idx]
            p.value[idx] = orig + step
            plus = float(f(params).value)
            p.value[idx] = orig - step
            minus = float(f(params).value)
            p.value[idx] = orig
            if math.isnan(plus) or math.isnan(minus):
                raise GradientCheckError(f"NaN objective while perturbing {name}[{ci}]")
            numeric = (plus - minus) / (2.0 * step)
            rel = abs(aflat[ci] - numeric) / max(1.0, abs(aflat[ci]), abs(numeric))
            worst = max(worst, rel)
    return worst
