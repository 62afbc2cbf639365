"""Joint optimization of the embedding and the representatives.

Batches are class-balanced (M classes, D instances each, the default) or
image groups (all ROIs of one image, for detection-style data). The fit loop
is fully deterministic given the seed: sampling, initialization and update
order all flow from named substreams.
"""

from __future__ import annotations

import csv

import numpy as np

from .autodiff import backward, zero_grads
from .config import RunConfig
from .data import BACKGROUND_LABEL, Dataset, group_rows
from .errors import ConfigError, DatasetError, TrainingDiverged
from .head import BACKGROUND, MixtureHead
from .rng import substream


class SGD:
    """Momentum SGD. Weight decay touches only the 'decay' group."""

    def __init__(self, groups: dict, lr: float, momentum: float = 0.9, weight_decay: float = 0.0):
        self.groups = {name: list(params) for name, params in groups.items()}
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: dict[int, np.ndarray] = {}

    def step(self) -> None:
        for name, params in self.groups.items():
            decay = self.weight_decay if name == "decay" else 0.0
            for p in params:
                if p.grad is None:
                    continue
                g = p.grad + decay * p.value if decay else p.grad
                v = self._velocity.get(id(p))
                v = g if v is None else self.momentum * v + g
                self._velocity[id(p)] = v
                p.value = p.value - self.lr * v


class Adam:
    """Adam with its usual constants: beta1 0.9, beta2 0.999, eps 1e-8."""

    def __init__(self, groups: dict, lr: float, weight_decay: float = 0.0):
        self.groups = {name: list(params) for name, params in groups.items()}
        self.lr = float(lr)
        self.b1, self.b2, self.eps = 0.9, 0.999, 1e-8
        self.weight_decay = float(weight_decay)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.b1**self._t
        bc2 = 1.0 - self.b2**self._t
        for name, params in self.groups.items():
            decay = self.weight_decay if name == "decay" else 0.0
            for p in params:
                if p.grad is None:
                    continue
                g = p.grad + decay * p.value if decay else p.grad
                m = self._m.get(id(p), np.zeros_like(p.value))
                v = self._v.get(id(p), np.zeros_like(p.value))
                m = self.b1 * m + (1.0 - self.b1) * g
                v = self.b2 * v + (1.0 - self.b2) * g * g
                self._m[id(p)], self._v[id(p)] = m, v
                p.value = p.value - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def make_optimizer(head: MixtureHead, config: RunConfig):
    groups = head.parameter_groups()
    if config.optimizer == "sgd":
        return SGD(groups, config.lr, config.momentum, config.weight_decay)
    return Adam(groups, config.lr, config.weight_decay)


# ---------------------------------------------------------------------------
# batch assembly


def training_pool(dataset: Dataset, include_background: bool) -> np.ndarray:
    """Rows eligible for training: train split (or untagged), never the
    unseen group."""
    keep = (dataset.group != "unseen") & dataset.train_split
    if not include_background:
        keep &= ~dataset.is_background
    if not keep.any():
        raise DatasetError("no training records after filtering")
    return np.flatnonzero(keep)


def batch_groups(dataset: Dataset, rows, config: RunConfig) -> list[np.ndarray]:
    """The groups batches are drawn from, in sorted key order: the rows of
    `rows` of each foreground class (class_balanced) or each image's ROIs
    (image_group), in the order of `rows`. Build once and pass to every
    `sample_batch` call."""
    rows = np.asarray(rows, dtype=np.intp)
    if config.batch_strategy == "image_group":
        keys = dataset.image_id[rows]
        missing = np.equal(keys, None)
        if missing.any():
            raise DatasetError(f"record {dataset.id[rows[missing][0]]} has no image_id "
                               f"(needed for image_group batches)")
    else:
        rows = rows[~dataset.is_background[rows]]
        keys = dataset.label[rows]
    groups = group_rows(rows, keys)
    if config.batch_strategy != "image_group" and len(groups) < config.classes_per_batch:
        raise DatasetError(
            f"dataset has {len(groups)} classes, batch needs {config.classes_per_batch}"
        )
    return list(groups.values())


def sample_batch(dataset: Dataset, rows, config: RunConfig, rng,
                 groups: list[np.ndarray] | None = None) -> np.ndarray:
    """The rows of one training batch drawn from `rows`, deterministic under
    the rng state.

    class_balanced: M distinct classes, D instances each (with replacement
    when a class is short). image_group: every ROI of one sampled image.
    `groups` is `batch_groups(dataset, rows, config)`, built here when not
    given.
    """
    if groups is None:
        groups = batch_groups(dataset, rows, config)
    if config.batch_strategy == "image_group":
        return groups[int(rng.integers(0, len(groups)))].copy()

    chosen = rng.choice(len(groups), size=config.classes_per_batch, replace=False)
    batch = []
    for ci in chosen:
        members = groups[int(ci)]
        replace = len(members) < config.instances_per_class
        batch.append(members[rng.choice(len(members), size=config.instances_per_class,
                                        replace=replace)])
    return np.concatenate(batch)


def batch_arrays(dataset: Dataset, rows, label_to_index: dict[str, int]):
    """The features of `rows` and their class indices (BACKGROUND for a
    background record)."""
    labels = []
    for row, label in zip(rows, dataset.label[rows]):
        if label == BACKGROUND_LABEL:
            labels.append(BACKGROUND)
        else:
            try:
                labels.append(label_to_index[label])
            except KeyError:
                raise DatasetError(f"record {dataset.id[row]} has label {label!r} "
                                   f"outside the class map") from None
    return dataset.features[rows], labels


# ---------------------------------------------------------------------------
# steps and the fit loop


def train_step(head: MixtureHead, dataset: Dataset, rows, label_to_index: dict[str, int],
               optimizer, iteration: int = 0) -> dict:
    """One update on the batch of `rows`. Returns the loss components;
    raises on divergence."""
    X, labels = batch_arrays(dataset, rows, label_to_index)
    loss, parts = head.total_loss(X, labels, train=True)
    if not np.isfinite(parts["total"]):
        raise TrainingDiverged(
            f"non-finite loss {parts['total']}", iteration, dataset.id[rows].tolist()
        )
    params = head.parameters()
    zero_grads(params)
    backward(loss)
    optimizer.step()
    return parts


def class_index_map(dataset: Dataset) -> dict[str, int]:
    """Canonical label -> index map over trainable (seen) classes."""
    foreground = set(dataset.label[~dataset.is_background])
    unseen = set(dataset.label[dataset.group == "unseen"])
    return {label: i for i, label in enumerate(sorted(foreground - unseen))}


def fit(head: MixtureHead, dataset: Dataset, config: RunConfig) -> list[dict]:
    """Train `head` in place for `config.iterations` steps and return the
    loss trace, one dict of loss components per step; reproducible
    bit-for-bit from the seed."""
    include_bg = head.task_mode == "detection"
    pool = training_pool(dataset, include_background=include_bg)
    label_map = class_index_map(dataset)
    if len(label_map) != head.mixture.num_classes:
        raise ConfigError(
            f"head expects {head.mixture.num_classes} classes, dataset provides {len(label_map)}"
        )
    optimizer = make_optimizer(head, config)
    groups = batch_groups(dataset, pool, config)
    rng = substream(config.seed, "sampler")
    trace = []
    for it in range(config.iterations):
        batch = sample_batch(dataset, pool, config, rng, groups)
        parts = train_step(head, dataset, batch, label_map, optimizer, iteration=it)
        parts["iteration"] = it
        trace.append(parts)
    return trace


def write_loss_trace(trace: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "ce", "margin", "total"])
        for row in trace:
            writer.writerow([row["iteration"], repr(row["ce"]), repr(row["margin"]), repr(row["total"])])
