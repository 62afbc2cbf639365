"""Detection and retrieval metrics.

Detections and ground truth are tables of column arrays, one row per box.
Detections from every episode are pooled into one table and thresholded
jointly; mAP is the per-class average over that pooled set, never a mean
of per-episode APs. All functions here are pure and deterministic: score
ties fall back to record ids, neighbor ties to the lower index.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DatasetError
from .head import BLOCK_ROWS


def _check_boxes(boxes, context: str) -> np.ndarray:
    """`boxes` as a float64 (..., 4) array of finite boxes (x1, y1, x2, y2)
    with positive area."""
    try:
        b = np.asarray(boxes, dtype=np.float64)
    except (TypeError, ValueError):
        raise DatasetError(f"{context}: boxes must be numbers, got {boxes!r}") from None
    if b.shape[-1:] != (4,):
        raise DatasetError(f"{context}: a box must be 4 numbers, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise DatasetError(f"{context}: box coordinates must be finite")
    flat = (b[..., 2] <= b[..., 0]) | (b[..., 3] <= b[..., 1])
    if flat.any():
        raise DatasetError(f"{context}: box must have positive area, got {b[flat][0].tolist()}")
    return b


class _Table:
    """Columns of equal length, one row per box. `table[rows]` is the table
    of the rows a mask or index array picks, in that order."""

    _inputs = ("episode_id", "image_id", "class_id", "boxes")

    def _set_columns(self, context, episode_id, image_id, class_id, boxes):
        self.boxes = _check_boxes(boxes if len(boxes) else np.empty((0, 4)), context)
        if self.boxes.ndim != 2:
            raise DatasetError(f"{context}: boxes must be an (n, 4) array, got {self.boxes.shape}")
        self.episode_id = self._column(context, episode_id, np.int64)
        self.image_id = self._column(context, image_id, str)
        self.class_id = self._column(context, class_id, str)

    def _column(self, context, values, dtype) -> np.ndarray:
        col = np.asarray(values, dtype=dtype)
        if col.shape != (len(self),):
            raise DatasetError(f"{context}: a column of shape {col.shape} for {len(self)} boxes")
        return col

    def __len__(self) -> int:
        return len(self.boxes)

    def __getitem__(self, rows):
        part = object.__new__(type(self))
        part.__dict__.update((name, col[rows]) for name, col in vars(self).items())
        return part

    @classmethod
    def concat(cls, tables):
        """One table of the rows of `tables`, in order."""
        return cls(*(np.concatenate([getattr(t, name) for t in tables]) if tables else []
                     for name in cls._inputs))


class GroundTruth(_Table):
    """Ground-truth boxes: episode id, image id, class id and box per row."""

    def __init__(self, episode_id, image_id, class_id, boxes):
        self._set_columns("ground truth", episode_id, image_id, class_id, boxes)


class Detections(_Table):
    """Scored boxes from episodes: the ground-truth columns plus a score in
    [0, 1] and a record id per row. `rank` is each row's place in the
    ranking every metric walks: score descending, then record id, then
    input position. A subset `detections[rows]` keeps those places."""

    _inputs = _Table._inputs + ("scores", "record_id")

    def __init__(self, episode_id, image_id, class_id, boxes, scores, record_id):
        self._set_columns("detections", episode_id, image_id, class_id, boxes)
        self.scores = self._column("detections", scores, np.float64)
        if not ((0.0 <= self.scores) & (self.scores <= 1.0)).all():
            raise DatasetError("detection scores must be in [0, 1]")
        self.record_id = self._column("detections", record_id, str)
        self.rank = np.empty(len(self), dtype=np.int64)
        self.rank[np.lexsort((self.record_id, -self.scores))] = np.arange(len(self))


@dataclass
class PRCurve:
    """Cumulative precision/recall walked down the score ranking."""

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    ap: float


def iou(box_a, box_b):
    """Intersection over union of (x1, y1, x2, y2) boxes, broadcast over
    (..., 4) arrays; a float for a single pair."""
    a, b = _check_boxes(box_a, "iou"), _check_boxes(box_b, "iou")
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter)
    overlap = (iw > 0.0) & (ih > 0.0)
    v = np.divide(inter, union, out=np.zeros(overlap.shape), where=overlap)
    return float(v) if v.ndim == 0 else v


def _check_iou_threshold(t):
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ConfigError(f"iou_threshold must be in (0, 1], got {t}")
    return t


def _group_ids(*columns) -> np.ndarray:
    """One integer per row, equal for two rows exactly when every column is."""
    ids = np.zeros(len(columns[0]), dtype=np.int64)
    for col in columns:
        values, inverse = np.unique(col, return_inverse=True)
        ids = np.unique(ids * len(values) + inverse, return_inverse=True)[1]
    return ids


def _places(group, rank) -> np.ndarray:
    """Each row's 0-based place within its group, the groups walked in
    rank order."""
    order = np.lexsort((rank, group))
    ordered = group[order]
    places = np.empty(len(group), dtype=np.int64)
    places[order] = np.arange(len(group)) - np.searchsorted(ordered, ordered)
    return places


def match_detections(detections: Detections, truth: GroundTruth,
                     iou_threshold: float = 0.5) -> np.ndarray:
    """Greedy TP/FP labels, one bool per detection in input order.

    Matching never crosses an (episode_id, image_id, class_id) group. Within
    a group, detections are visited in rank order and each claims its best
    unmatched box at or above the threshold; of equal overlaps, the box
    that comes first in `truth` wins.
    """
    iou_threshold = _check_iou_threshold(iou_threshold)
    n = len(detections)
    group = _group_ids(*(np.concatenate([getattr(detections, name), getattr(truth, name)])
                         for name in ("episode_id", "image_id", "class_id")))
    det_group, gt_group = group[:n], group[n:]
    # every (detection, box) pair of a group, that is each group's IoU
    # matrix, flattened row by row
    gt_order = np.argsort(gt_group, kind="stable")
    first = np.searchsorted(gt_group[gt_order], det_group)
    count = np.searchsorted(gt_group[gt_order], det_group, side="right") - first
    det = np.repeat(np.arange(n), count)
    kth = np.arange(len(det)) - np.repeat(np.cumsum(count) - count, count)
    gt = gt_order[first[det] + kth]
    overlap = iou(detections.boxes[det], truth.boxes[gt])
    eligible = overlap >= iou_threshold
    det, gt, overlap = det[eligible], gt[eligible], overlap[eligible]
    # Groups never share a box, so the r-th detections of all groups claim
    # in one round; each takes its best eligible box still free.
    turn = _places(det_group, detections.rank)[det]
    order = np.lexsort((gt, -overlap, det, turn))
    det, gt, turn = det[order], gt[order], turn[order]
    taken = np.zeros(len(truth), dtype=bool)
    flags = np.zeros(n, dtype=bool)
    rounds = np.flatnonzero(np.diff(turn)) + 1
    for d, g in zip(np.split(det, rounds), np.split(gt, rounds)):
        free = ~taken[g]
        d, g = d[free], g[free]
        best = np.unique(d, return_index=True)[1]
        taken[g[best]] = True
        flags[d[best]] = True
    return flags


def pr_curve(detections: Detections, tp, num_gt: int) -> PRCurve:
    """Precision and recall walked down the ranking of `detections`; `tp`
    holds each row's TP flag and num_gt the positives in the ground truth."""
    if num_gt < 1:
        raise ConfigError(f"num_gt must be >= 1, got {num_gt}")
    if not len(detections):
        return PRCurve(np.array([]), np.array([]), np.array([]), 0.0)
    order = np.argsort(detections.rank)
    flags = np.asarray(tp, dtype=bool)[order]
    scores = detections.scores[order]
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    precision = tp / (tp + fp)
    recall = tp / num_gt
    # all-points interpolation: precision at recall r is the best precision
    # achieved at any recall >= r
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev) * envelope))
    return PRCurve(scores, precision, recall, ap)


def average_precision(detections: Detections, tp, num_gt: int) -> float:
    return pr_curve(detections, tp, num_gt).ap


def per_class_ap(detections: Detections, truth: GroundTruth,
                 iou_threshold: float = 0.5) -> dict[str, float]:
    """AP per class over the pooled detections, for classes with ground truth."""
    flags = match_detections(detections, truth, iou_threshold)
    classes, counts = np.unique(truth.class_id, return_counts=True)
    out = {}
    for class_id, count in zip(classes.tolist(), counts.tolist()):
        rows = detections.class_id == class_id
        out[class_id] = average_precision(detections[rows], flags[rows], count)
    return out


def map_over_episodes(detections: Detections, truth: GroundTruth,
                      iou_threshold: float = 0.5) -> float:
    aps = per_class_ap(detections, truth, iou_threshold)
    if not aps:
        raise ConfigError("mAP needs at least one ground-truth box")
    return float(np.mean(list(aps.values())))


def recall_at_k(detections: Detections, truth: GroundTruth, k: int,
                iou_threshold: float = 0.5) -> float:
    """Fraction of ground truth recovered by each image's k best detections.

    The top-k cut ranks all classes together within an image; matching then
    runs per class as usual.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not len(truth):
        raise ConfigError("recall needs at least one ground-truth box")
    image = _group_ids(detections.episode_id, detections.image_id)
    kept = _places(image, detections.rank) < k
    flags = match_detections(detections[kept], truth, iou_threshold)
    return int(np.count_nonzero(flags)) / len(truth)


def attribute_neighborhood_precision(embeddings, attributes, sizes) -> dict[int, float]:
    """Mean fraction of an item's s nearest neighbors sharing its attributes.

    Averaged over every (item, attribute the item has) pair; the item itself
    never counts as a neighbor. Returns {s: precision}.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    A = np.asarray(attributes)
    if E.ndim != 2 or A.ndim != 2 or E.shape[0] != A.shape[0]:
        raise ConfigError(f"need matching 2-d embeddings and attributes, got {E.shape} and {A.shape}")
    if not np.isin(A, (0, 1)).all():
        raise DatasetError("attributes must be 0/1")
    n = E.shape[0]
    sizes = [int(s) for s in sizes]
    for s in sizes:
        if s < 1 or s >= n:
            raise ConfigError(f"neighborhood size {s} out of range for {n} items")
    sq = np.sum(E * E, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (E @ E.T)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")

    owners, attrs = np.nonzero(A == 1)
    if owners.size == 0:
        raise DatasetError("no item has any attribute set")
    out = {}
    for s in sizes:
        neigh = order[:, :s]
        shared = A[neigh[owners], attrs[:, None]]
        out[s] = float(shared.mean())
    return out


def classification_error(head, records, label_to_index: dict[str, int],
                         posterior_mode: str | None = None) -> float:
    """Fraction of the rows of `records`, a `Dataset`, whose predicted
    class is wrong.

    posterior_mode overrides the head's configured rule ('max' scores each
    class by its best mode, 'normalized' by its share of total mass); the
    argmax ties to the lowest class index either way. Rows are embedded in
    one pass, so a NonFiniteRowError names a row of `records`, then scored
    BLOCK_ROWS at a time, keeping only each block's predicted classes; a
    row's prediction does not depend on its block.
    """
    if not len(records):
        raise DatasetError("classification error over an empty set")
    targets = np.empty(len(records), dtype=np.int64)
    for row, label in enumerate(records.label):
        try:
            targets[row] = label_to_index[label]
        except KeyError:
            raise DatasetError(f"record {records.id[row]} has label {label!r} "
                               f"outside the class map") from None
    E = head.embedding.embed_batch(records.features)
    predicted = np.concatenate([
        head.score_embeddings(E[i:i + BLOCK_ROWS], posterior_mode).predicted_class
        for i in range(0, len(E), BLOCK_ROWS)])
    return int(np.count_nonzero(predicted != targets)) / len(records)
