"""Detection and retrieval metrics.

Detections from every episode are pooled into one set and thresholded
jointly; mAP is the per-class average over that pooled set, never a mean
of per-episode APs. All functions here are pure and deterministic: score
ties fall back to record ids, neighbor ties to the lower index.
"""

import json
from dataclasses import dataclass

import numpy as np

from .data import SCHEMA_VERSION, read_json_lines
from .errors import ConfigError, DatasetError


def _check_box(box, context: str):
    if box is None or len(box) != 4:
        raise DatasetError(f"{context}: box must be 4 numbers, got {box!r}")
    x1, y1, x2, y2 = (float(v) for v in box)
    if not all(np.isfinite(v) for v in (x1, y1, x2, y2)):
        raise DatasetError(f"{context}: box coordinates must be finite")
    if x2 <= x1 or y2 <= y1:
        raise DatasetError(f"{context}: box must have positive area, got {box!r}")
    return (x1, y1, x2, y2)


@dataclass(frozen=True)
class DetectionRecord:
    """One scored box from one episode."""

    episode_id: int
    image_id: str
    box: tuple
    class_id: str
    score: float
    record_id: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box, "detection"))
        s = float(self.score)
        if not np.isfinite(s) or not 0.0 <= s <= 1.0:
            raise DatasetError(f"detection score must be in [0, 1], got {self.score!r}")
        object.__setattr__(self, "score", s)


@dataclass(frozen=True)
class GroundTruthBox:
    episode_id: int
    image_id: str
    box: tuple
    class_id: str

    def __post_init__(self):
        object.__setattr__(self, "box", _check_box(self.box, "ground truth"))


@dataclass
class PRCurve:
    """Cumulative precision/recall walked down the score ranking."""

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    ap: float


def iou(box_a, box_b) -> float:
    ax1, ay1, ax2, ay2 = _check_box(box_a, "iou")
    bx1, by1, bx2, by2 = _check_box(box_b, "iou")
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def _check_iou_threshold(t):
    t = float(t)
    if not 0.0 < t <= 1.0:
        raise ConfigError(f"iou_threshold must be in (0, 1], got {t}")
    return t


def _rank_key(indexed_record):
    i, rec = indexed_record
    return (-rec.score, rec.record_id if rec.record_id is not None else "", i)


def match_detections(records, ground_truth, iou_threshold: float = 0.5) -> list[bool]:
    """Greedy TP/FP labeling aligned with the input order.

    Matching never crosses an (episode_id, image_id, class_id) group. Within
    a group, detections are visited by descending score (record id breaks
    ties) and each claims its best unmatched box at or above the threshold.
    """
    iou_threshold = _check_iou_threshold(iou_threshold)
    gt_groups: dict[tuple, list[GroundTruthBox]] = {}
    for gt in ground_truth:
        gt_groups.setdefault((gt.episode_id, gt.image_id, gt.class_id), []).append(gt)
    det_groups: dict[tuple, list[tuple[int, DetectionRecord]]] = {}
    for i, rec in enumerate(records):
        det_groups.setdefault((rec.episode_id, rec.image_id, rec.class_id), []).append((i, rec))

    flags = [False] * len(records)
    for key, dets in det_groups.items():
        gts = gt_groups.get(key, [])
        taken = [False] * len(gts)
        for i, rec in sorted(dets, key=_rank_key):
            best_j, best_iou = -1, 0.0
            for j, gt in enumerate(gts):
                if taken[j]:
                    continue
                v = iou(rec.box, gt.box)
                if v >= iou_threshold and v > best_iou:
                    best_j, best_iou = j, v
            if best_j >= 0:
                taken[best_j] = True
                flags[i] = True
    return flags


def pr_curve(labeled, num_gt: int) -> PRCurve:
    """labeled: (record, is_tp) pairs; num_gt: positives in the ground truth."""
    if num_gt < 1:
        raise ConfigError(f"num_gt must be >= 1, got {num_gt}")
    ordered = sorted(enumerate(labeled), key=lambda e: _rank_key((e[0], e[1][0])))
    if not ordered:
        return PRCurve(np.array([]), np.array([]), np.array([]), 0.0)
    flags = np.array([tp for _, (_, tp) in ordered], dtype=bool)
    scores = np.array([rec.score for _, (rec, _) in ordered])
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


def average_precision(labeled, num_gt: int) -> float:
    return pr_curve(labeled, num_gt).ap


def per_class_ap(records, ground_truth, iou_threshold: float = 0.5) -> dict[str, float]:
    """AP per class over the pooled record set, for classes with ground truth."""
    flags = match_detections(records, ground_truth, iou_threshold)
    gt_count: dict[str, int] = {}
    for gt in ground_truth:
        gt_count[gt.class_id] = gt_count.get(gt.class_id, 0) + 1
    out = {}
    for class_id in sorted(gt_count):
        labeled = [(rec, tp) for rec, tp in zip(records, flags) if rec.class_id == class_id]
        out[class_id] = average_precision(labeled, gt_count[class_id])
    return out


def map_over_episodes(records, ground_truth, iou_threshold: float = 0.5) -> float:
    aps = per_class_ap(records, ground_truth, iou_threshold)
    if not aps:
        raise ConfigError("mAP needs at least one ground-truth box")
    return float(np.mean(list(aps.values())))


def recall_at_k(records, ground_truth, k: int, iou_threshold: float = 0.5) -> float:
    """Fraction of ground truth recovered by each image's k best detections.

    The top-k cut ranks all classes together within an image; matching then
    runs per class as usual.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not ground_truth:
        raise ConfigError("recall needs at least one ground-truth box")
    by_image: dict[tuple, list[tuple[int, DetectionRecord]]] = {}
    for i, rec in enumerate(records):
        by_image.setdefault((rec.episode_id, rec.image_id), []).append((i, rec))
    kept: list[DetectionRecord] = []
    for key in sorted(by_image):
        ranked = sorted(by_image[key], key=_rank_key)
        kept.extend(rec for _, rec in ranked[:k])
    flags = match_detections(kept, ground_truth, iou_threshold)
    return sum(flags) / len(ground_truth)


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
    """Fraction of records whose predicted class is wrong.

    posterior_mode overrides the head's configured rule ('max' scores each
    class by its best mode, 'normalized' by its share of total mass); the
    argmax ties to the lowest class index either way. All records are
    scored in one batch.
    """
    if not records:
        raise DatasetError("classification error over an empty set")
    targets = []
    for rec in records:
        try:
            targets.append(label_to_index[rec.label])
        except KeyError:
            raise DatasetError(f"record {rec.id} has label {rec.label!r} outside the class map") from None
    scores = head.score_batch(np.stack([rec.features for rec in records]), posterior_mode)
    return int(np.count_nonzero(scores.predicted_class != np.array(targets))) / len(records)


# ---------------------------------------------------------------------------
# JSON Lines I/O for detections and ground truth

_DETECTION_KEYS = {"record_id", "episode_id", "image_id", "box", "class_id", "score"}
_GT_KEYS = {"episode_id", "image_id", "box", "class_id"}


def save_detections(records, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION, "kind": "detections"}) + "\n")
        for rec in records:
            fh.write(json.dumps({
                "record_id": rec.record_id,
                "episode_id": rec.episode_id,
                "image_id": rec.image_id,
                "box": list(rec.box),
                "class_id": rec.class_id,
                "score": rec.score,
            }) + "\n")


def load_detections(path) -> list[DetectionRecord]:
    records = []
    for line_no, obj in read_json_lines(path, "detections"):
        if "kind" in obj:
            continue
        unknown = set(obj) - _DETECTION_KEYS
        if unknown:
            raise DatasetError(f"unknown keys {sorted(unknown)}", line_no)
        try:
            records.append(DetectionRecord(
                episode_id=int(obj["episode_id"]),
                image_id=str(obj["image_id"]),
                box=tuple(obj["box"]),
                class_id=str(obj["class_id"]),
                score=obj["score"],
                record_id=obj.get("record_id"),
            ))
        except KeyError as e:
            raise DatasetError(f"missing key {e.args[0]!r}", line_no) from None
        except DatasetError as e:
            raise DatasetError(str(e), line_no) from None
    return records


def save_ground_truth(boxes, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION, "kind": "ground_truth"}) + "\n")
        for gt in boxes:
            fh.write(json.dumps({
                "episode_id": gt.episode_id,
                "image_id": gt.image_id,
                "box": list(gt.box),
                "class_id": gt.class_id,
            }) + "\n")


def load_ground_truth(path) -> list[GroundTruthBox]:
    boxes = []
    for line_no, obj in read_json_lines(path, "ground_truth"):
        if "kind" in obj:
            continue
        unknown = set(obj) - _GT_KEYS
        if unknown:
            raise DatasetError(f"unknown keys {sorted(unknown)}", line_no)
        try:
            boxes.append(GroundTruthBox(
                episode_id=int(obj["episode_id"]),
                image_id=str(obj["image_id"]),
                box=tuple(obj["box"]),
                class_id=str(obj["class_id"]),
            ))
        except KeyError as e:
            raise DatasetError(f"missing key {e.args[0]!r}", line_no) from None
        except DatasetError as e:
            raise DatasetError(str(e), line_no) from None
    return boxes
