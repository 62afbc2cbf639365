"""Embedding network plus per-class mixture representatives.

The head embeds inputs onto the unit sphere, measures squared Euclidean
distances to N*K learnable mode centers ("representatives"), turns them into
Gaussian mode probabilities, and derives open-set class/background
posteriors. Training combines a cross-entropy term on the posterior with a
hinge that enforces a margin between the closest correct-class mode and the
closest wrong-class mode.

`mode_probabilities` is the one forward from embeddings to mode
probabilities, shared by the loss and the scores: the loss passes the
representatives' parameter node, scoring passes their values, so a score
reads bit for bit the probabilities the loss trains on, and scoring keeps no
autodiff tape.

Everything differentiable is built from autodiff primitives over the whole
batch: one (B, N, K) squared-distance table per step, per-class minima as
row-wise minima under additive constant masks, and one label entry picked
per row. Division is composed as exp(log a - log b).

A head is its parameter arrays and batch-norm running statistics, nothing
else: `parameter_layout` names them and gives their shapes, and
`MixtureHead.from_arrays` is the one place that checks them and builds a
head. Seeded heads, loaded checkpoints and episode heads all go through it.
There is no stored train/eval mode: only a training step asks for batch
statistics (`train=True`); every other forward reads the running ones.

Inference is batched too: `MixtureHead.score_embeddings` turns (B, e)
embeddings into a `Scores` table (embeddings, mode probabilities, class and
background posteriors, prediction, background flag per row) with the same
mode-probability and posterior functions, and `score_batch` embeds raw
inputs first.
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
from .config import EmbeddingConfig, MixtureConfig, from_json, read_json
from .errors import ConfigError, NonFiniteRowError, PosteriorUnderflowError, ShapeError
from .rng import substream

BACKGROUND = -1  # label sentinel for clutter items (detection mode only)

# rows per block of batched inference: bounds every temporary of embedding
# and scoring, such as the (rows, N*K, e) difference inside pairwise_sq_dist,
# so peak memory does not grow with the batch (rows are independent outside
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
        h = X if isinstance(X, Node) else ad.constant(np.asarray(X, dtype=np.float64))
        if h.value.ndim not in (2, 3) or h.value.shape[-1] != self.config.input_dim:
            raise ShapeError(
                "embed", (h.value.shape,), f"expected (batch, {self.config.input_dim})"
            )
        if not np.all(np.isfinite(h.value)):
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
# posterior and loss ops (Node in, Node out; plain arrays are wrapped)


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else ad.constant(np.asarray(x, dtype=np.float64))


def clamp_min(node: Node, floor: float) -> Node:
    return ad.add(ad.relu(ad.add(node, ad.constant(-float(floor)))), ad.constant(float(floor)))


def mode_probabilities(embeddings, representatives, sigma: float) -> tuple[Node, Node]:
    """Squared distances d^2 from each embedded row to every mode center, and
    the isotropic-Gaussian mode likelihoods exp(-d^2 / (2 sigma^2)) in (0, 1].

    `embeddings` is (B, e); `representatives` is any target array
    pairwise_sq_dist accepts, e.g. (N, K, e), giving (B, N, K) tables. d^2 is
    exactly 0, and the likelihood exactly 1, where an embedding coincides
    with a center. A parameter node builds a differentiable graph; plain
    arrays build constants, which keep no tape.
    """
    if not sigma > 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    d2 = ad.pairwise_sq_dist(_wrap(embeddings), _wrap(representatives))
    return d2, ad.exp(ad.scale(d2, -1.0 / (2.0 * float(sigma) ** 2)))


# The posteriors below read the last two axes of a probability table as
# (N classes, K modes); any leading axes (one per batch row) are kept.


def class_posterior_max(probs) -> Node:
    """Per-class posterior as the best mode: (..., N, K) -> (..., N)."""
    p = _wrap(probs)
    if p.value.ndim < 2:
        raise ShapeError("class_posterior_max", (p.value.shape,), "expected (..., N, K)")
    return ad.reduce_max(p, axis=-1)


def class_posterior_normalized(probs) -> Node:
    """Softer posterior: per-class probability mass over total mass,
    (..., N, K) -> (..., N).

    Sums to 1 within 1e-9. Division is composed as exp(log a - log b), both
    arguments strictly positive away from total underflow.
    """
    p = _wrap(probs)
    if p.value.ndim < 2:
        raise ShapeError("class_posterior_normalized", (p.value.shape,), "expected (..., N, K)")
    underflow = np.all(p.value < 1e-300, axis=(-2, -1))
    if np.any(underflow):
        raise PosteriorUnderflowError(
            f"all mode probabilities below 1e-300 for {int(np.sum(underflow))} item(s)"
        )
    mass = ad.reduce_sum(p, axis=-1)
    total = ad.reduce_sum(mass, axis=-1)
    total = ad.reshape(total, total.shape + (1,))
    return ad.exp(ad.add(ad.log(mass), ad.negate(ad.log(total))))


def background_posterior(probs) -> Node:
    """Open-set lower bound: 1 minus the single best mode probability,
    (..., N, K) -> (...)."""
    p = _wrap(probs)
    flat = ad.reshape(p, p.shape[:-2] + (-1,))
    return ad.add(ad.constant(1.0), ad.negate(ad.reduce_max(flat, axis=-1)))


def _check_labels(labels, n: int, background_ok: bool) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp).reshape(-1)
    ok = (labels >= 0) & (labels < n)
    if background_ok:
        ok |= labels == BACKGROUND
    if not ok.all():
        raise ValueError(f"labels {sorted(set(labels[~ok].tolist()))} out of range for {n} classes")
    return labels


def margin_loss(distances, labels, margin: float) -> Node:
    """Per-row hinge between the closest correct-class mode and the closest
    wrong-class mode: relu(min_true - min_wrong + margin), (B,) values.

    `distances` is the (B, N, K) table, or an (E, B, N, K) stack of them
    giving (E, B) values; `labels` holds one 0-based class per row, the same
    in every table of a stack. Each minimum is one row-min over the
    flattened N*K modes, with the excluded modes pushed to +inf by a
    constant additive mask.
    """
    d = _wrap(distances)
    if d.value.ndim not in (3, 4):
        raise ShapeError("margin_loss", (d.value.shape,), "expected (B, N, K) or (E, B, N, K)")
    batch, n, k = d.value.shape[-3:]
    if n < 2:
        raise ValueError("margin_loss needs a competing class (N >= 2)")
    labels = _check_labels(labels, n, background_ok=False)
    if labels.shape[0] != batch:
        raise ShapeError("margin_loss", (d.value.shape, labels.shape), "one label per row")
    own = np.repeat(np.arange(n)[None, :] == labels[:, None], k, axis=1)  # (B, N*K)
    flat = ad.reshape(d, d.shape[:-2] + (n * k,))
    d_true = ad.reduce_min(ad.add(flat, ad.constant(np.where(own, 0.0, np.inf))), axis=-1)
    d_wrong = ad.reduce_min(ad.add(flat, ad.constant(np.where(own, np.inf, 0.0))), axis=-1)
    return ad.relu(ad.add(ad.add(d_true, ad.negate(d_wrong)), ad.constant(float(margin))))


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
    post = _wrap(class_posterior)
    if post.value.ndim not in (2, 3):
        raise ShapeError("cross_entropy_loss", (post.value.shape,), "expected (B, N) or (E, B, N)")
    batch, n = post.value.shape[-2:]
    labels = _check_labels(labels, n, background_ok=background_post is not None)
    if labels.shape[0] != batch:
        raise ShapeError("cross_entropy_loss", (post.value.shape, labels.shape), "one label per row")
    rows = (slice(None),) * (post.value.ndim - 2) + (np.arange(batch),)
    if background_post is None:
        picked = ad.take(post, rows + (labels,))
        return ad.negate(ad.log(clamp_min(picked, PROB_FLOOR)))

    bg = _wrap(background_post)
    total = ad.add(ad.reduce_sum(post, axis=-1), bg)
    table = ad.concat([post, ad.reshape(bg, bg.shape + (1,))], axis=-1)
    picked = ad.take(table, rows + (np.where(labels == BACKGROUND, n, labels),))
    ratio = ad.exp(ad.add(ad.log(picked), ad.negate(ad.log(total))))
    return ad.negate(ad.log(clamp_min(ratio, PROB_FLOOR)))


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
        task_mode: str = "classification",
        seed: int = 0,
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
        if task_mode not in ("classification", "detection"):
            raise ConfigError(f"task_mode must be 'classification' or 'detection', got {task_mode!r}")
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
        decay = [w for w in self.embedding.weights] + [self.embedding.last_bias]
        no_decay = (
            list(self.embedding.gammas)
            + list(self.embedding.betas)
            + [self.representatives]
        )
        return {"decay": decay, "no_decay": no_decay}

    def total_loss(self, X, labels, train: bool = False):
        """Mean over the batch of (cross-entropy + margin hinge), built as
        one graph over the whole batch. `train` is passed on to
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
        if self.task_mode == "classification" and np.any(labels == BACKGROUND):
            raise ValueError("background labels require detection mode")
        batch = len(labels)
        E = self.embedding.forward(X, train)
        d2, probs = mode_probabilities(E, self.representatives, self.mixture.sigma)
        if self.task_mode == "classification":
            ce = cross_entropy_loss(class_posterior_normalized(probs), None, labels)
        else:
            ce = cross_entropy_loss(class_posterior_max(probs), background_posterior(probs), labels)
        ce_total = ad.reduce_sum(ce, axis=-1)
        loss, margin = ce_total, np.zeros(ce_total.shape)

        fg = np.flatnonzero(labels != BACKGROUND)
        if fg.size and self.mixture.num_classes >= 2:
            rows = (slice(None),) * (X.ndim - 2) + (fg,)
            dist = ad.sqrt(clamp_min(ad.take(d2, rows), DIST_SQ_FLOOR))
            margin_total = ad.reduce_sum(margin_loss(dist, labels[fg], self.mixture.margin), axis=-1)
            loss = ad.add(loss, margin_total)
            margin = margin_total.value / batch

        loss = ad.scale(loss, 1.0 / batch)
        parts = {"ce": ce_total.value / batch, "margin": margin, "total": loss.value}
        if X.ndim == 3:
            return ad.reduce_sum(loss), parts
        return loss, {name: float(value) for name, value in parts.items()}

    # -- inference ---------------------------------------------------------

    def score_embeddings(self, E, posterior_mode: str | None = None) -> Scores:
        """Open-set scores for a batch of already-embedded points, (B, e).

        `posterior_mode` overrides the configured class-posterior rule: 'max'
        scores each class by its best mode, 'normalized' by its share of the
        total mode mass. The predicted class is the argmax of that class score
        before normalization (best mode or mode mass), ties to the lowest
        index. A row is background when its background posterior beats every
        best-mode class posterior. Every step works on each row by itself, so
        a row scores bit-identically alone or in any batch.
        """
        mode = posterior_mode or self.mixture.posterior_mode
        if mode not in ("max", "normalized"):
            raise ConfigError(f"posterior_mode must be 'max' or 'normalized', got {mode!r}")
        E = np.asarray(E, dtype=np.float64)
        dim = self.embedding.config.output_dim
        if E.ndim != 2 or not len(E) or E.shape[1] != dim:
            raise ShapeError("score", (E.shape,), f"expected (B >= 1, {dim})")
        blocks = [vars(self._score_block(E[i:i + BLOCK_ROWS], mode))
                  for i in range(0, len(E), BLOCK_ROWS)]
        return Scores(**{name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]})

    def _score_block(self, E: np.ndarray, mode: str) -> Scores:
        _, probs = mode_probabilities(E, self.representatives.value, self.mixture.sigma)
        best = class_posterior_max(probs).value
        bg = background_posterior(probs).value
        if mode == "max":
            post = rank = best
        else:
            post = class_posterior_normalized(probs).value
            rank = probs.value.sum(axis=-1)
        return Scores(
            embeddings=E,
            mode_probs=probs.value,
            class_posterior=post,
            background_posterior=bg,
            predicted_class=np.argmax(rank, axis=1),
            is_background=bg > best.max(axis=1),
        )

    def score_batch(self, X, posterior_mode: str | None = None) -> Scores:
        """Embed raw inputs and score them, (B, input_dim)."""
        return self.score_embeddings(self.embedding.embed_batch(X), posterior_mode)

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
    raises ConfigError. Files that store the representatives as one flat
    (1, N*K*dim) row, as earlier releases did, load unchanged."""
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
    reps = arrays.get("representatives.weight")
    shape = parameter_layout(embedding, mixture)["representatives.weight"]
    if reps is not None and reps.shape == (1, int(np.prod(shape))):
        arrays["representatives.weight"] = reps.reshape(shape)
    bn_running = [(_decode_array(st["mean"]), _decode_array(st["var"]))
                  for st in doc["bn_running"]]
    return MixtureHead.from_arrays(embedding, mixture, doc["task_mode"], arrays, bn_running)
