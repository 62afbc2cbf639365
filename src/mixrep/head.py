"""Embedding network plus per-class mixture representatives.

The head embeds inputs onto the unit sphere, measures squared Euclidean
distances to N*K learnable mode centers ("representatives"), turns them into
Gaussian mode probabilities, and derives open-set class/background
posteriors. Training combines a cross-entropy term on the posterior with a
hinge that enforces a margin between the closest correct-class mode and the
closest wrong-class mode.

`mode_probabilities` is the one forward from embeddings to mode
probabilities, shared by the loss and the scores; it and the posterior
helpers take and return plain arrays, so a score reads bit for bit the
probabilities the loss trains on, and scoring makes no autodiff node.

The loss is one autodiff node over the whole batch, `mixture_loss`: its
forward is `mode_probabilities` and the posterior helpers on the values,
then the cross-entropy and the hinge, and its vjp replays, op for op, the
vjps of the graph of primitives that `tests/composed_loss.py` composes for
it, so the loss and its gradients are bit for bit that graph's. Division is
exp(log a - log b), and per-class minima are row-wise minima under additive
masks.

A head is its parameter arrays and batch-norm running statistics, nothing
else: `parameter_layout` names them and gives their shapes, and
`MixtureHead.from_arrays` is the one place that checks them and builds a
head. Seeded heads, loaded checkpoints and episode heads all go through it.
There is no stored train/eval mode: only a training step asks for batch
statistics (`train=True`); every other forward reads the running ones.

Inference is batched too: `MixtureHead.score_embeddings` turns (B, e)
embeddings into a `Scores` table (embeddings, mode probabilities, class and
background posteriors, prediction, background flag per row) with the same
mode-probability and posterior functions, the whole batch in one pass,
as no temporary of scoring is larger than its (B, N, K) distance table;
`score_batch` embeds raw inputs first.
Every step works on each row by itself, so a row's scores are bit-identical
whatever else shares its batch, on any head; `score` is a one-row view of
`score_batch`.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Node
from .config import EmbeddingConfig, MixtureConfig, RunConfig, check_value, from_json, read_json
from .errors import ConfigError, NonFiniteRowError, PosteriorUnderflowError, ShapeError
from .rng import substream

BACKGROUND = -1  # label sentinel for clutter items (detection mode only)

# rows per block of batched embedding: bounds the hidden activations, so
# peak memory does not grow with the batch (rows are independent outside
# training, so blocking changes no result bit)
BLOCK_ROWS = 32

PROB_FLOOR = 1e-12
DIST_SQ_FLOOR = 1e-12  # squared-distance clamp inside the margin loss


class EmbeddingNet:
    """Affine stack with BN+ReLU on all but the last layer.

    Hidden layers carry no bias (the BN shift plays that role); the last
    layer has one so a dead-ReLU input still embeds to a usable direction.
    Built by `MixtureHead` from checked parameter nodes, keyed by the names
    of `parameter_layout`.
    """

    def __init__(self, config: EmbeddingConfig, params: dict[str, Node],
                 bn_states: list[BatchNormState]):
        self.config = config
        last = len(config.layer_widths) - 1
        self.weights = [params[f"layers.{i}.weight"] for i in range(last + 1)]
        self.gammas = [params[f"layers.{i}.gamma"] for i in range(last)]
        self.betas = [params[f"layers.{i}.beta"] for i in range(last)]
        self.last_bias = params[f"layers.{last}.bias"]
        self.bn_states = bn_states

    def forward(self, X, train: bool = False) -> Node:
        """Batch forward: (B, input_dim) -> (B, e), rows unit-norm: the
        hidden stack, then `last_layer`. `train` normalizes with batch
        statistics and advances the running ones (batch size >= 2);
        otherwise the running statistics are read and every row is
        independent of the rest of the batch."""
        return self.last_layer(self._hidden(X, train))

    def _hidden(self, X, train: bool = False) -> Node:
        h = ad.wrap(X)
        if h.value.ndim not in (2, 3) or h.value.shape[-1] != self.config.input_dim:
            raise ShapeError(
                "embed", (h.value.shape,), f"expected (batch, {self.config.input_dim})"
            )
        if not np.isfinite(h.value).all():
            raise ValueError("embed: non-finite input")
        for w, gamma, beta, st in zip(self.weights, self.gammas, self.betas, self.bn_states):
            h = ad.relu(ad.batch_norm(ad.matmul(h, w), gamma, beta, st, train))
        return h

    def last_layer(self, h) -> Node:
        """Penultimate features (B, width) -> embeddings (B, e): the last
        affine layer, then the projection to the unit sphere unless
        `final_l2_normalize` is off."""
        h = ad.add(ad.matmul(h, self.weights[-1]), self.last_bias)
        return ad.l2_normalize(h) if self.config.final_l2_normalize else h

    def embed_batch(self, X) -> np.ndarray:
        """(B, input_dim) -> (B, e) values, no graph kept. Rows go in blocks,
        and each is bit-identical to embedding it alone."""
        return _in_blocks(self.forward, np.asarray(X, dtype=np.float64))

    def hidden_features(self, X) -> np.ndarray:
        """(B, input_dim) -> (B, width) values of the hidden stack: the
        penultimate features that `last_layer` reads, the inputs themselves
        for a one-layer net. Like `embed_batch`, rows go in blocks and each
        is bit-identical to computing it alone."""
        return _in_blocks(self._hidden, np.asarray(X, dtype=np.float64))

    def last_layer_batch(self, H) -> np.ndarray:
        """(B, width) penultimate features -> (B, e) values of `last_layer`,
        no graph kept, in blocks and checked row by row like `embed_batch`."""
        return _in_blocks(self.last_layer, np.asarray(H, dtype=np.float64))


def _in_blocks(fn, X: np.ndarray) -> np.ndarray:
    """Values of `fn` over X, BLOCK_ROWS rows at a time. A row whose values
    are not all finite, such as an input too large for the network, raises
    NonFiniteRowError naming the first such row of X; the overflow on the
    way there is that error, not a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.concatenate([fn(X[i:i + BLOCK_ROWS]).value
                              for i in range(0, max(len(X), 1), BLOCK_ROWS)])
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        row = int(bad[0])
        raise NonFiniteRowError(row, np.abs(X[row]).max(), f"row {row} of {len(X)}")
    return out


def parameter_layout(embedding: EmbeddingConfig, mixture: MixtureConfig,
                     stack: int | None = None) -> dict[str, tuple]:
    """Name -> shape of every parameter of a head, in parameter order: per
    layer its weight, then gamma and beta on hidden layers; the last layer's
    bias; the (N, K, e) representatives.

    With `stack`, the layout of a stack of that many heads: every shape
    gains a leading axis of that length, and the last bias is (stack, 1, e)
    so that it broadcasts over the rows of each head's batch."""
    widths = [embedding.input_dim, *embedding.layer_widths]
    last = len(embedding.layer_widths) - 1
    layout = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        layout[f"layers.{i}.weight"] = (fan_in, fan_out)
        if i < last:
            layout[f"layers.{i}.gamma"] = layout[f"layers.{i}.beta"] = (fan_out,)
    layout[f"layers.{last}.bias"] = (embedding.output_dim,)
    layout["representatives.weight"] = (mixture.num_classes, mixture.modes_per_class,
                                        embedding.output_dim)
    if stack is not None:
        layout = {name: (stack,) + shape for name, shape in layout.items()}
        layout[f"layers.{last}.bias"] = (stack, 1, embedding.output_dim)
    return layout


def _seeded_arrays(embedding: EmbeddingConfig, mixture: MixtureConfig, seed: int) -> dict:
    """Initial values of every parameter, each drawn from its own substream.
    A parameter numpy cannot allocate raises ConfigError naming it."""
    last = len(embedding.layer_widths) - 1
    arrays = {}
    try:
        for name, shape in parameter_layout(embedding, mixture).items():
            kind = name.rsplit(".", 1)[1]
            if name == "representatives.weight":
                # std 0.01 keeps initial centers near the origin, so distances
                # from unit-norm embeddings start O(1)
                arrays[name] = substream(seed, "init", "representatives").normal(0.0, 0.01, size=shape)
            elif kind in ("gamma", "beta"):
                arrays[name] = np.ones(shape) if kind == "gamma" else np.zeros(shape)
            elif kind == "bias":
                arrays[name] = substream(seed, "init", "layer", last, "bias").normal(0.0, 0.01, size=shape)
            else:
                i = int(name.split(".")[1])
                std = np.sqrt((2.0 if i < last else 1.0) / shape[0])
                arrays[name] = substream(seed, "init", "layer", i).normal(0.0, std, size=shape)
    except (MemoryError, ValueError) as e:  # too many elements, or too many bytes
        raise ConfigError(f"cannot allocate parameter {name} of shape {shape}: {e}") from None
    return arrays


# ---------------------------------------------------------------------------
# mode probabilities and posteriors on plain arrays, and the loss node


def _exponent_scale(sigma: float) -> float:
    """The factor -1 / (2 sigma^2) that turns squared distances into the
    exponents of the mode likelihoods."""
    return -1.0 / (2.0 * float(sigma) ** 2)


def mode_probabilities(embeddings, representatives, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Squared distances d^2 from each embedded row to every mode center, and
    the isotropic-Gaussian mode likelihoods exp(-d^2 / (2 sigma^2)) in (0, 1].

    `embeddings` is (B, e); `representatives` is any target array
    `pairwise_sq_dist_values` accepts, e.g. (N, K, e), giving (B, N, K)
    tables. d^2 is exactly 0, and the likelihood exactly 1, where an
    embedding coincides with a center. `sigma` is a head's
    `MixtureConfig.sigma`, positive by that config's check.
    """
    d2 = ad.pairwise_sq_dist_values(ad.as_array(embeddings), ad.as_array(representatives))
    return d2, np.exp(d2 * _exponent_scale(sigma))


# The posteriors below read the last two axes of a probability table as
# (N classes, K modes); any leading axes (one per batch row) are kept.


def class_posterior_max(probs) -> np.ndarray:
    """Per-class posterior as the best mode: (..., N, K) -> (..., N)."""
    p = ad.as_array(probs)
    if p.ndim < 2:
        raise ShapeError("class_posterior_max", (p.shape,), "expected (..., N, K)")
    return p.max(axis=-1)


def class_posterior_normalized(probs) -> tuple[np.ndarray, np.ndarray]:
    """Softer posterior: per-class probability mass over total mass,
    (..., N, K) -> (..., N), returned after the mass, (..., N), which a
    caller ranks classes by or differentiates through.

    Sums to 1 within 1e-9. Division is exp(log a - log b), both arguments
    strictly positive away from total underflow.
    """
    p = ad.as_array(probs)
    if p.ndim < 2:
        raise ShapeError("class_posterior_normalized", (p.shape,), "expected (..., N, K)")
    underflow = (p < 1e-300).all(axis=(-2, -1))
    if underflow.any():
        raise PosteriorUnderflowError(
            f"all mode probabilities below 1e-300 for {int(np.sum(underflow))} item(s)"
        )
    mass = p.sum(axis=-1)
    with np.errstate(divide="ignore"):  # a class whose mass underflows has posterior 0
        return mass, np.exp(np.log(mass) + -np.log(mass.sum(axis=-1))[..., None])


def background_posterior(probs) -> np.ndarray:
    """Open-set lower bound: 1 minus the single best mode probability,
    (..., N, K) -> (...)."""
    p = ad.as_array(probs)
    return 1.0 + -p.reshape(p.shape[:-2] + (-1,)).max(axis=-1)


def _check_labels(labels, n: int, background_ok: bool) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    ok = (labels >= 0) & (labels < n)
    if background_ok:
        ok |= labels == BACKGROUND
    if not ok.all():
        raise ValueError(f"labels {sorted(set(labels[~ok].tolist()))} out of range for {n} classes")
    return labels


def mixture_loss(embeddings: Node, representatives: Node, labels: np.ndarray,
                 mixture: MixtureConfig, task_mode: str) -> tuple[Node, dict]:
    """The loss of `MixtureHead.total_loss` as one autodiff node over (B, e)
    embeddings and (N, K, e) representatives, or an (E, B, e) and
    (E, N, K, e) stack of them with the same B labels in each entry.

    Per row, it is the cross-entropy of the label's probability, floored at
    PROB_FLOOR, plus for a foreground row, when N >= 2, the hinge
    relu(d_true - d_wrong + margin) between its closest correct-class and
    closest wrong-class mode, distances being square roots of d^2 floored
    at DIST_SQ_FLOOR. The label's probability is its normalized posterior
    in classification mode; in detection mode it is its best-mode
    posterior, or the background posterior for a BACKGROUND row, over
    their sum. The value is the batch mean of the rows, summed over a
    stack's entries; `parts` holds the batch means of `ce`, `margin` and
    their sum `total`, each an (E,) array on a stack.

    The forward is `mode_probabilities` and the posterior helpers on the
    values, then the numpy operations the primitives of the composed
    reference (`tests/composed_loss.py`) run, in their order; the vjp
    replays those primitives' vjps op for op, so value, gradients and tie
    verdict are bit for bit those of the composed graph. It keeps only what
    its vjp and `tie` read, tables of the distances' (B, N, K) size.
    """
    ve, vr = embeddings.value, representatives.value
    lead = ve.shape[:-2]  # () or (E,) on a stack
    batch, (n, k) = len(labels), vr.shape[-3:-1]
    d2, probs = mode_probabilities(ve, vr, mixture.sigma)
    modes = probs.reshape(lead + (batch, n * k))
    rows = (slice(None),) * len(lead) + (np.arange(batch),)
    if task_mode == "classification":
        mass, post = class_posterior_normalized(probs)
        at_label = ad.flat_positions(post.shape, rows + (labels,))
        likelihood = post.reshape(-1)[at_label]
    else:  # the label's entry of [best mode of each class, background], over its sum
        best, bg = class_posterior_max(probs), background_posterior(probs)
        total = best.sum(axis=-1) + bg
        table = np.concatenate([best, bg[..., None]], axis=-1)
        table_shape = table.shape
        at_label = ad.flat_positions(table_shape,
                                     rows + (np.where(labels == BACKGROUND, n, labels),))
        picked = table.reshape(-1)[at_label]
        with np.errstate(divide="ignore"):
            likelihood = np.exp(np.log(picked) + -np.log(total))
    shifted = likelihood + -PROB_FLOOR  # clamp_min: relu(x - floor) + floor
    floored = np.maximum(shifted, 0.0) + PROB_FLOOR
    ce_total = (-np.log(floored)).sum(axis=-1)
    summed, margin = ce_total, np.zeros(ce_total.shape)
    fg = np.flatnonzero(labels != BACKGROUND)
    hinge = bool(fg.size) and n >= 2
    if hinge:
        at_fg = ad.flat_positions(probs.shape, rows[:-1] + (fg,))  # d2's shape
        shifted_d2 = d2.reshape(-1)[at_fg] + -DIST_SQ_FLOOR
        dist = np.sqrt(np.maximum(shifted_d2, 0.0) + DIST_SQ_FLOOR)
        own = np.repeat(np.arange(n)[None, :] == labels[fg][:, None], k, axis=1)  # (F, N*K)
        flat = dist.reshape(dist.shape[:-2] + (n * k,))
        to_true, to_wrong = flat + np.where(own, 0.0, np.inf), flat + np.where(own, np.inf, 0.0)
        gap = to_true.min(axis=-1) + -to_wrong.min(axis=-1) + float(mixture.margin)
        margin_total = np.maximum(gap, 0.0).sum(axis=-1)
        summed, margin = ce_total + margin_total, margin_total / batch
    scale = float(1.0 / batch)
    loss = summed * scale
    parts = {"ce": ce_total / batch, "margin": margin, "total": loss}

    def vjps(g):
        g = np.full(lead, g * scale).reshape(lead + (1,))  # each entry's, for its rows
        g_likelihood = ad.log_vjp(-g, floored) * (shifted > 0.0)
        if task_mode == "classification":  # take, then exp(log mass - log total)
            g_exponent = ad.scatter_add(at_label, g_likelihood, post.shape) * post
            g_total = ad.log_vjp(-(g_exponent if n == 1 else
                                   g_exponent.sum(axis=-1, keepdims=True)),
                                 mass.sum(axis=-1, keepdims=True))
            g_probs = (ad.log_vjp(g_exponent, mass) + g_total)[..., None]
        else:  # exp(log picked - log total), take, then 1 - best mode and best modes
            g_exponent = g_likelihood * likelihood
            g_total = ad.log_vjp(-g_exponent, total)
            g_table = ad.scatter_add(at_label, ad.log_vjp(g_exponent, picked), table_shape)
            g_probs = (ad.extreme_vjp(-(g_table[..., n] + g_total), modes.argmax(axis=-1),
                                      modes.shape, -1).reshape(probs.shape)
                       + ad.extreme_vjp(g_table[..., :n] + g_total[..., None],
                                        probs.argmax(axis=-1), probs.shape, -1))
        g_d2 = g_probs * probs * _exponent_scale(mixture.sigma)
        if hinge:  # relu, the two minima, sqrt, the floor's relu, take
            g_gap = g * (gap > 0.0)
            g_flat = (ad.extreme_vjp(-g_gap, to_wrong.argmin(axis=-1), to_wrong.shape, -1)
                      + ad.extreme_vjp(g_gap, to_true.argmin(axis=-1), to_true.shape, -1))
            g_dist = ad.sqrt_vjp(g_flat.reshape(dist.shape), dist) * (shifted_d2 > 0.0)
            g_d2 = ad.scatter_add(at_fg, g_dist, probs.shape) + g_d2
        return ad.pairwise_sq_dist_grads(ve, vr, g_d2)

    def tie() -> bool:
        # a min of x is tied where the max of -x is
        tables = [probs, modes] if task_mode == "detection" else []
        tables += [-to_true, -to_wrong] if hinge else []
        return any(ad.tied(t, t.max(axis=-1, keepdims=True), -1) for t in tables)

    node = ad.record(loss.sum() if lead else loss, "mixture_loss",
                     ad.shared_vjps((embeddings, representatives), vjps), tie)
    return node, parts


# ---------------------------------------------------------------------------
# the combined head


@dataclass
class HeadOutput:
    """Everything the head says about one input."""

    embedding: np.ndarray
    mode_probs: np.ndarray
    class_posterior: np.ndarray
    background_posterior: float
    predicted_class: int
    is_background: bool


@dataclass
class Scores:
    """Everything the head says about a batch of inputs, one row per input;
    `scores[i]` is row i as a HeadOutput."""

    embeddings: np.ndarray  # (B, e)
    mode_probs: np.ndarray  # (B, N, K)
    class_posterior: np.ndarray  # (B, N)
    background_posterior: np.ndarray  # (B,)
    predicted_class: np.ndarray  # (B,) class indices
    is_background: np.ndarray  # (B,) flags

    def __len__(self) -> int:
        return len(self.predicted_class)

    def __getitem__(self, i: int) -> HeadOutput:
        return HeadOutput(
            embedding=self.embeddings[i],
            mode_probs=self.mode_probs[i],
            class_posterior=self.class_posterior[i],
            background_posterior=float(self.background_posterior[i]),
            predicted_class=int(self.predicted_class[i]),
            is_background=bool(self.is_background[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class MixtureHead:
    """Embedding network joined with trainable mixture representatives.

    `task_mode` selects the cross-entropy route: "classification" uses the
    normalized posterior (no background), "detection" renormalizes the
    max-mode posteriors together with the background term.

    A head's state is its parameter arrays and batch-norm running
    statistics, nothing else. `MixtureHead(...)` draws seeded initial
    arrays and builds on them as they are; `from_arrays` builds a head from
    copies of given ones. Both go through the same checks.
    """

    def __init__(
        self,
        embedding_config: EmbeddingConfig,
        mixture_config: MixtureConfig,
        task_mode: str = RunConfig.task_mode,
        seed: int = RunConfig.seed,
    ):
        self._build(embedding_config, mixture_config, task_mode,
                    _seeded_arrays(embedding_config, mixture_config, seed), None)

    @classmethod
    def from_arrays(cls, embedding: EmbeddingConfig, mixture: MixtureConfig, task_mode: str,
                    arrays: dict, bn_running=None, stack: int | None = None) -> "MixtureHead":
        """A head holding copies of `arrays`, named as in `parameter_layout`,
        with `bn_running` as the (mean, var) running statistics of each
        hidden layer (zeros and ones when None). Draws no random values.
        Names, shapes, finiteness and positive variances are checked; any
        failure raises ConfigError.

        With `stack`, the head is a stack of that many one-layer heads, its
        arrays laid out as `parameter_layout(..., stack)` gives, whose loss
        takes one batch per head (see `total_loss`); it is for training
        only, as scoring takes single heads."""
        head = cls.__new__(cls)
        head._build(embedding, mixture, task_mode,
                    {name: np.array(a, dtype=np.float64) for name, a in arrays.items()},
                    bn_running, stack)
        return head

    def _build(self, embedding: EmbeddingConfig, mixture: MixtureConfig, task_mode: str,
               arrays: dict, bn_running, stack: int | None = None) -> None:
        check_value("task_mode", task_mode, RunConfig)
        if stack is not None and len(embedding.layer_widths) != 1:
            raise ConfigError("a stack of heads must have one layer (batch norm does not stack)")
        layout = parameter_layout(embedding, mixture, stack)
        if set(arrays) != set(layout):
            raise ConfigError(f"parameter names differ: missing {sorted(set(layout) - set(arrays))}, "
                              f"unexpected {sorted(set(arrays) - set(layout))}")
        params = {}
        for name, shape in layout.items():
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != shape:
                raise ConfigError(f"{name} has shape {value.shape}, expected {shape}")
            if not np.isfinite(value).all():
                raise ConfigError(f"{name} holds non-finite values")
            params[name] = ad.parameter(value, name)
        widths = embedding.layer_widths[:-1]
        if bn_running is None:
            bn_running = [(np.zeros(w), np.ones(w)) for w in widths]
        if len(bn_running) != len(widths):
            raise ConfigError(
                f"{len(bn_running)} batch-norm entries for {len(widths)} hidden layers")
        states = []
        for width, (mean, var) in zip(widths, bn_running):
            mean, var = np.array(mean, dtype=np.float64), np.array(var, dtype=np.float64)
            if mean.shape != (width,) or var.shape != (width,):
                raise ConfigError("batch-norm statistics have the wrong shape")
            if not (np.isfinite(mean).all() and np.isfinite(var).all()):
                raise ConfigError("batch-norm statistics hold non-finite values")
            if not (var > 0.0).all():
                raise ConfigError("batch-norm running variances must be positive")
            states.append(BatchNormState(mean, var, embedding.bn_momentum, embedding.bn_epsilon))
        self._params = params  # in layout order
        self.embedding = EmbeddingNet(embedding, params, states)
        self.mixture = mixture
        self.representatives = params["representatives.weight"]
        self.task_mode = task_mode

    def parameters(self) -> list[Node]:
        return list(self._params.values())

    def named_parameters(self) -> dict[str, Node]:
        return dict(self._params)

    def parameter_groups(self) -> dict[str, list[Node]]:
        """Weight decay applies to affine weights/bias only, never to BN
        affine parameters or the representatives."""
        net = self.embedding
        return {"decay": [*net.weights, net.last_bias],
                "no_decay": [*net.gammas, *net.betas, self.representatives]}

    def total_loss(self, X, labels, train: bool = False):
        """Mean over the batch of (cross-entropy + margin hinge), one
        `mixture_loss` node over the whole batch. `train` is passed on to
        `EmbeddingNet.forward`.

        Background-labeled items (detection mode) contribute cross-entropy
        only. Returns (scalar Node, {"ce", "margin", "total"} floats).

        On a stack of heads (see `from_arrays`), X is (E, B, input_dim), one
        batch per head, all under the same B labels. The root is the sum over
        the heads of each one's batch mean, so each head's gradient is bit
        for bit the one its own loss would give, and each part is an (E,)
        array of per-head values.
        """
        X = np.asarray(X, dtype=np.float64)
        labels = np.array([int(l) for l in labels], dtype=np.intp)
        if X.ndim not in (2, 3) or X.shape[-2] != len(labels) or not len(labels):
            raise ShapeError("total_loss", (X.shape,), f"need one row per label ({len(labels)})")
        labels = _check_labels(labels, self.representatives.value.shape[-3],
                               background_ok=self.task_mode == "detection")
        loss, parts = mixture_loss(self.embedding.forward(X, train), self.representatives, labels,
                                   self.mixture, self.task_mode)
        if X.ndim == 3:
            return loss, parts
        return loss, {name: float(value) for name, value in parts.items()}

    # -- inference ---------------------------------------------------------

    def score_embeddings(self, E) -> Scores:
        """Open-set scores for a batch of already-embedded points, (B, e).

        The head's `mixture.posterior_mode` is the class-posterior rule: 'max'
        scores each class by its best mode, 'normalized' by its share of the
        total mode mass. The predicted class is the argmax of that class score
        before normalization (best mode or mode mass), ties to the lowest
        index. A row is background when its background posterior beats every
        best-mode class posterior. Every step works on each row by itself, so
        a row scores bit-identically alone or in any batch.
        """
        E = np.asarray(E, dtype=np.float64)
        dim = self.embedding.config.output_dim
        if E.ndim != 2 or not len(E) or E.shape[1] != dim:
            raise ShapeError("score", (E.shape,), f"expected (B >= 1, {dim})")
        _, probs = mode_probabilities(E, self.representatives.value, self.mixture.sigma)
        best = class_posterior_max(probs)
        bg = background_posterior(probs)
        if self.mixture.posterior_mode == "max":
            post = rank = best
        else:
            rank, post = class_posterior_normalized(probs)
        return Scores(
            embeddings=E,
            mode_probs=probs,
            class_posterior=post,
            background_posterior=bg,
            predicted_class=np.argmax(rank, axis=1),
            is_background=bg > best.max(axis=1),
        )

    def score_batch(self, X) -> Scores:
        """Embed raw inputs and score them, (B, input_dim)."""
        return self.score_embeddings(self.embedding.embed_batch(X))

    def score(self, x) -> HeadOutput:
        """One row of `score_batch`."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ShapeError("score", (x.shape,), "expected a single vector")
        return self.score_batch(x[None])[0]


# ---------------------------------------------------------------------------
# checkpoints: versioned JSON, float64 arrays as base64, bit-exact round trip

CHECKPOINT_VERSION = 1
_CHECKPOINT_KEYS = {"schema_version", "kind", "task_mode", "embedding", "mixture", "params",
                    "bn_running"}


def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(d: dict) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(d["data"]), dtype="<f8")
    return raw.reshape(d["shape"]).astype(np.float64, copy=True)


def save_checkpoint(head: MixtureHead, path) -> None:
    doc = {
        "schema_version": CHECKPOINT_VERSION,
        "kind": "checkpoint",
        "task_mode": head.task_mode,
        "embedding": asdict(head.embedding.config),
        "mixture": asdict(head.mixture),
        "params": {name: _encode_array(p.value) for name, p in head.named_parameters().items()},
        "bn_running": [
            {"mean": _encode_array(st.running_mean), "var": _encode_array(st.running_var)}
            for st in head.embedding.bn_states
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> MixtureHead:
    """Rebuild a head from `save_checkpoint` output. Any malformed content
    raises ConfigError."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != "checkpoint":
        raise ConfigError(f"not a checkpoint file: {path}")
    if doc.get("schema_version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('schema_version')}")
    unknown = set(doc) - _CHECKPOINT_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown checkpoint keys {sorted(unknown)}")
    try:
        return _head_from_doc(doc)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    except KeyError as e:
        raise ConfigError(f"{path}: checkpoint is missing key {e}") from None
    except (TypeError, ValueError, AttributeError) as e:
        raise ConfigError(f"{path}: malformed checkpoint ({e})") from None


def _head_from_doc(doc: dict) -> MixtureHead:
    embedding = from_json(EmbeddingConfig, doc["embedding"], "embedding")
    mixture = from_json(MixtureConfig, doc["mixture"], "mixture")
    arrays = {name: _decode_array(a) for name, a in doc["params"].items()}
    bn_running = [(_decode_array(st["mean"]), _decode_array(st["var"]))
                  for st in doc["bn_running"]]
    return MixtureHead.from_arrays(embedding, mixture, doc["task_mode"], arrays, bn_running)
