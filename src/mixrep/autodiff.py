"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are define-by-run: each operation returns a `Node` holding the forward
value and, when a parameter feeds it, vector-Jacobian products against its
inputs. Nodes are numbered as they are made, after their inputs, and
`backward` visits the nodes a scalar root's gradient reaches in decreasing
creation order, each once. Operations on constants only keep no tape, so
inference over fixed arrays leaves no graph behind. Graphs are rebuilt on
every forward pass; parameters are the only state carried across passes.

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

# differences formed at once inside pairwise_sq_dist on a stack (2**16
# float64 entries: 512 KiB), so its temporaries do not grow with the stack
DIFF_CHUNK = 2**16

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
    pairs and, for a max/min reduction, `tie`, a callable telling whether it
    sat on a tie. `_seq` numbers nodes in creation order.
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


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _result(value, op: str, vjps: list, tie: Callable[[], bool] | None = None) -> Node:
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
    a, b = _wrap(a), _wrap(b)
    va, vb = a.value, b.value
    if va.ndim != vb.ndim or va.ndim not in (2, 3) or va.shape[:-2] != vb.shape[:-2]:
        raise ShapeError("matmul", (va.shape, vb.shape),
                         "operands must be 2-d, or 3-d stacks of one length")
    if va.shape[-1] != vb.shape[-2]:
        raise ShapeError("matmul", (va.shape, vb.shape), "inner dimensions differ")
    out = np.matmul(va[..., None, :], vb[..., None, :, :])[..., 0, :]
    return _result(out, "matmul", [(a, lambda g: g @ vb.swapaxes(-1, -2)),
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
    a, b = _wrap(a), _wrap(b)
    va, vb = a.value, b.value
    try:
        out = va + vb
    except ValueError:
        raise ShapeError("add", (va.shape, vb.shape), "shapes do not broadcast") from None
    return _result(
        out,
        "add",
        [(a, lambda g: _unbroadcast(g, va.shape)), (b, lambda g: _unbroadcast(g, vb.shape))],
    )


def scale(a, factor: float) -> Node:
    a = _wrap(a)
    factor = float(factor)
    return _result(a.value * factor, "scale", [(a, lambda g: g * factor)])


def negate(a) -> Node:
    a = _wrap(a)
    return _result(-a.value, "negate", [(a, lambda g: -g)])


def exp(a) -> Node:
    a = _wrap(a)
    out = np.exp(a.value)
    return _result(out, "exp", [(a, lambda g: g * out)])


def log(a) -> Node:
    a = _wrap(a)
    va = a.value
    if (va < 0.0).any():
        raise ShapeError("log", (va.shape,), "negative input")
    with np.errstate(divide="ignore"):
        out = np.log(va)

    def vjp(g):
        # Zero upstream gradient contributes zero even where the input is 0
        # (1/0 = inf there); keeps inactive hinge branches NaN-free at exact
        # zero distances. A nonzero upstream at 0 is a declared singularity.
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(g == 0.0, 0.0, g / va)

    return _result(out, "log", [(a, vjp)])


def relu(a) -> Node:
    a = _wrap(a)
    va = a.value
    return _result(np.maximum(va, 0.0), "relu", [(a, lambda g: g * (va > 0.0))])


def square(a) -> Node:
    a = _wrap(a)
    va = a.value
    return _result(va * va, "square", [(a, lambda g: 2.0 * va * g)])


def sqrt(a) -> Node:
    """Elementwise square root; exactly 0 at 0."""
    a = _wrap(a)
    va = a.value
    if (va < 0.0).any():
        raise ShapeError("sqrt", (va.shape,), "negative input")
    out = np.sqrt(va)

    def vjp(g):
        # as in log: a zero upstream gradient contributes zero at x = 0,
        # where the derivative is infinite
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(g == 0.0, 0.0, 0.5 * g / out)

    return _result(out, "sqrt", [(a, vjp)])


def _reduce_extreme(a, axis: int, op_name: str) -> Node:
    a = _wrap(a)
    va = a.value
    if va.size == 0:
        raise ShapeError(op_name, (va.shape,), "empty input")
    if op_name == "reduce_max":
        kept, winner = va.max(axis=axis, keepdims=True), va.argmax
    else:
        kept, winner = va.min(axis=axis, keepdims=True), va.argmin

    def vjp(g):
        # g at the winner, ties going to the lowest index, and 0 elsewhere;
        # va seen as (outer, n, inner) with the reduced axis in the middle
        split = axis % va.ndim
        outer, inner = math.prod(va.shape[:split]), math.prod(va.shape[split + 1:])
        gi = np.zeros((outer, va.shape[split], inner))
        gi[np.arange(outer)[:, None], winner(axis=axis).reshape(outer, inner),
           np.arange(inner)] = g.reshape(outer, inner)
        return gi.reshape(va.shape)

    def tie() -> bool:
        return bool(((va == kept).sum(axis=axis) > 1).any())

    return _result(kept.squeeze(axis), op_name, [(a, vjp)], tie)


def reduce_max(a, axis: int) -> Node:
    """Maximum along one axis.

    The gradient is routed only to the winner, with ties broken to the
    lowest index. Whether the maximum sat on a tie is checked only on
    demand, by `graph_has_tie`.
    """
    return _reduce_extreme(a, axis, "reduce_max")


def reduce_min(a, axis: int) -> Node:
    return _reduce_extreme(a, axis, "reduce_min")


def reduce_sum(a, axis: int | None = None) -> Node:
    a = _wrap(a)
    va = a.value
    kept = va.sum(axis=axis, keepdims=True)

    def vjp(g):
        gi = np.empty(va.shape)
        gi[...] = g.reshape(kept.shape)
        return gi

    return _result(kept.squeeze(axis), "sum", [(a, vjp)])


def reshape(a, shape) -> Node:
    a = _wrap(a)
    va = a.value
    try:
        out = va.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", (va.shape, shape), "sizes differ") from None
    return _result(out, "reshape", [(a, lambda g: g.reshape(va.shape))])


def concat(parts: Sequence, axis: int = -1) -> Node:
    """Join arrays along an existing axis."""
    nodes = [_wrap(p) for p in parts]
    shapes = [n.value.shape for n in nodes]
    try:
        out = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError:
        raise ShapeError("concat", shapes, "shapes do not line up") from None
    ends = np.cumsum([s[axis] for s in shapes]).tolist()
    pieces = [(slice(None),) * (axis % out.ndim) + (slice(end - s[axis], end),)
              for s, end in zip(shapes, ends)]
    return _result(out, "concat", [(n, lambda g, piece=piece: g[piece])
                                   for n, piece in zip(nodes, pieces)])


def take(a, index: tuple) -> Node:
    """Entries `a[index]` for a tuple of integer index arrays, after any
    whole-axis slices: `(rows,)` gathers rows, `(rows, cols)` picks one entry
    per row, and `(slice(None), rows, cols)` does so in every matrix of a
    stack. The gradient is scattered back, adding up where an entry is taken
    more than once."""
    a = _wrap(a)
    va = a.value
    index = tuple(i if isinstance(i, slice) else np.asarray(i, dtype=np.intp) for i in index)
    try:
        # each entry's flat position in `va`, in C order: after a slice, indexing
        # may return a transposed layout, which a reduction adds up differently
        flat = np.ascontiguousarray(np.arange(va.size).reshape(va.shape)[index])
    except IndexError:
        raise ShapeError("take", (va.shape,), "index out of range") from None
    out = va.reshape(-1)[flat]

    def vjp(g):
        # adds up in index order, as a sequential scatter-add would
        return np.bincount(flat.reshape(-1), g.reshape(-1), va.size).reshape(va.shape)

    return _result(out, "take", [(a, vjp)])


def pairwise_sq_dist(e, r) -> Node:
    """Squared Euclidean distances from each query row to every target.

    `e` is a (B, dim) batch of queries; `r` holds targets along its last
    axis, (..., dim), e.g. an (N, K, dim) bank of mode centers. The result
    is (B, ...). A stack of such pairs, (E, B, dim) queries and
    (E, ..., dim) targets, gives (E, B, ...): queries meet only the targets
    of their own stack entry. Differences are taken before squaring, so a
    query that coincides with a target is at distance exactly 0.

    The (B, M, dim) differences are the largest arrays of a loss graph, so
    none is kept: a stack is worked through in chunks of whole entries of
    at most DIFF_CHUNK differences (one entry when it alone holds more),
    and each pass forms a chunk's differences afresh, bit for bit the same.
    """
    e, r = _wrap(e), _wrap(r)
    ve, vr = e.value, r.value
    stack = ve.shape[:-2]
    if (ve.ndim not in (2, 3) or vr.ndim < ve.ndim - 1 or vr.shape[:len(stack)] != stack
            or vr.shape[-1] != ve.shape[-1]):
        raise ShapeError("pairwise_sq_dist", (ve.shape, vr.shape),
                         "expected (B, dim) and (..., dim), or (E, B, dim) and (E, ..., dim)")
    lead = stack or (1,)  # a single pair is a stack of one
    batch, dim = ve.shape[-2:]
    targets = vr.reshape(lead + (1, -1, dim))
    queries = ve.reshape(lead + (batch, 1, dim))
    count = targets.shape[-2]
    per = max(1, DIFF_CHUNK // max(batch * count * dim, 1))
    starts = range(0, lead[0], per)
    buf = np.empty((min(per, lead[0]), batch, count, dim))

    def differences(i):
        # targets copied out along the rows, less the queries: the bits of
        # the broadcast subtraction, in half its time
        d = buf[:len(targets[i:i + per])]
        np.copyto(d, targets[i:i + per])
        np.subtract(d, queries[i:i + per], out=d)
        return d

    out = np.empty(lead + (batch, count))
    for i in starts:
        d = differences(i)
        d *= d
        d.sum(axis=-1, out=out[i:i + per])
    out = out.reshape(stack + (batch,) + vr.shape[len(stack):-1])

    # Both gradients are sums of the products 2 * diff * g, up to sign
    # (scaling by 2 and negation are exact), so both are formed on the
    # first of the two calls made for one upstream g.
    grads: dict = {}

    def gradients(g):
        if grads.get("g") is not g:
            ge, gr = np.empty(lead + (batch, dim)), np.empty(lead + (count, dim))
            g2 = (2.0 * g).reshape(lead + (batch, count, 1))
            for i in starts:
                d = differences(i)
                d *= g2[i:i + per]
                np.negative(d.sum(axis=-2), out=ge[i:i + per])
                d.sum(axis=-3, out=gr[i:i + per])
            grads.update(g=g, e=ge.reshape(ve.shape), r=gr.reshape(vr.shape))
        return grads

    return _result(out, "pairwise_sq_dist",
                   [(e, lambda g: gradients(g)["e"]), (r, lambda g: gradients(g)["r"])])


def l2_normalize(a, epsilon: float = 1e-12) -> Node:
    """Scale each row of a matrix, or of a stack of matrices, to unit
    Euclidean norm. A row whose squared norm overflows becomes NaN, not the
    zero vector that dividing by an infinite norm gives."""
    a = _wrap(a)
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

    return _result(out, "l2_normalize", [(a, vjp)])


@dataclass
class BatchNormState:
    """Running statistics for one batch-norm layer."""

    running_mean: Array
    running_var: Array
    momentum: float = 0.9
    epsilon: float = 1e-5


def batch_norm(x, gamma, beta, state: BatchNormState, train: bool = False) -> Node:
    """Batch normalization over axis 0 with learnable per-feature affine.

    With `train`, normalizes with batch statistics (batch size >= 2) and
    advances the running estimates. Otherwise uses only the stored
    statistics, so each row is independent of the rest of the batch.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
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
    return _result(
        out,
        "batch_norm",
        [
            (x, vjp_x),
            (gamma, lambda g: (g * xhat).sum(axis=0)),
            (beta, lambda g: g.sum(axis=0)),
        ],
    )


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
    """True when any max/min reduction that the gradient of `root` flows
    through sat exactly on a tie. A tie among constants cannot make the
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
