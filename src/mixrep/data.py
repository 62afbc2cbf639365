"""Feature datasets: wire format, validation, and synthetic generation.

Datasets are JSON Lines files, one record per line, optionally preceded by a
header line carrying schema version and generator metadata. Records hold a
precomputed feature vector plus a class label (or "background"), and may
carry a bounding box, image id, binary attributes, split and seen/unseen
group tags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DatasetError
from .rng import substream

BACKGROUND_LABEL = "background"
SCHEMA_VERSION = 1  # of every JSON Lines file: datasets and episodes

_ALLOWED_KEYS = {"id", "label", "features", "box", "image_id", "attributes", "split", "group"}
_SPLITS = ("train", "val", "test")
_GROUPS = ("seen", "unseen")


@dataclass
class FeatureRecord:
    id: str
    label: str
    features: np.ndarray
    box: tuple | None = None
    image_id: str | None = None
    attributes: np.ndarray | None = None
    split: str | None = None
    group: str | None = None

    @property
    def is_background(self) -> bool:
        return self.label == BACKGROUND_LABEL


def _validate_box(box, line: int) -> tuple:
    if not isinstance(box, (list, tuple)) or len(box) != 4:
        raise DatasetError(f"box must have 4 coordinates, got {box!r}", line)
    try:
        x1, y1, x2, y2 = (float(v) for v in box)
    except (TypeError, ValueError):
        raise DatasetError(f"box coordinates must be numbers, got {box!r}", line) from None
    if not np.isfinite([x1, y1, x2, y2]).all():
        raise DatasetError(f"box coordinates must be finite, got {box!r}", line)
    if not (x2 > x1 and y2 > y1):
        raise DatasetError(f"degenerate box {box!r} (need x2 > x1 and y2 > y1)", line)
    return (x1, y1, x2, y2)


def _record_from_obj(obj: dict, line: int, feature_dim: int | None) -> FeatureRecord:
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise DatasetError(f"unknown record keys {sorted(unknown)}", line)
    for key in ("id", "label", "features"):
        if key not in obj:
            raise DatasetError(f"record missing required key '{key}'", line)
    rid, label = obj["id"], obj["label"]
    if not isinstance(rid, str) or not rid:
        raise DatasetError(f"id must be a non-empty string, got {rid!r}", line)
    if not isinstance(label, str) or not label:
        raise DatasetError(f"label must be a non-empty string, got {label!r}", line)
    feats = obj["features"]
    if not isinstance(feats, list) or not feats:
        raise DatasetError("features must be a non-empty array", line)
    try:
        features = np.asarray(feats, dtype=np.float64)
    except (TypeError, ValueError):
        raise DatasetError("features must be numbers", line) from None
    if features.ndim != 1 or not np.all(np.isfinite(features)):
        raise DatasetError("features must be a flat array of finite numbers", line)
    if feature_dim is not None and features.shape[0] != feature_dim:
        raise DatasetError(
            f"feature length {features.shape[0]} differs from earlier records ({feature_dim})",
            line,
        )
    box = _validate_box(obj["box"], line) if obj.get("box") is not None else None
    attributes = None
    if obj.get("attributes") is not None:
        attrs = obj["attributes"]
        if not isinstance(attrs, list) or any(a not in (0, 1) for a in attrs):
            raise DatasetError("attributes must be an array of 0/1", line)
        attributes = np.asarray(attrs, dtype=np.int64)
    split = obj.get("split")
    if split is not None and split not in _SPLITS:
        raise DatasetError(f"split must be one of {_SPLITS}, got {split!r}", line)
    group = obj.get("group")
    if group is not None and group not in _GROUPS:
        raise DatasetError(f"group must be one of {_GROUPS}, got {group!r}", line)
    image_id = obj.get("image_id")
    if image_id is not None and not isinstance(image_id, str):
        raise DatasetError(f"image_id must be a string, got {image_id!r}", line)
    return FeatureRecord(
        id=rid,
        label=label,
        features=features,
        box=box,
        image_id=image_id,
        attributes=attributes,
        split=split,
        group=group,
    )


class Dataset:
    """Validated record collection, indexed by record id.

    Iteration order is file order. Class ids are reported sorted so that any
    label-to-index mapping derived from a dataset is stable regardless of
    record order.
    """

    def __init__(self, records: list[FeatureRecord], meta: dict | None = None):
        if not records:
            raise DatasetError("dataset has no records")
        self.records = list(records)
        self.meta = dict(meta) if meta else {}
        self.feature_dim = self.records[0].features.shape[0]
        self.by_id: dict[str, FeatureRecord] = {}
        for rec in self.records:
            if rec.features.shape[0] != self.feature_dim:
                raise DatasetError(f"record {rec.id}: inconsistent feature length")
            if rec.id in self.by_id:
                raise DatasetError(f"duplicate record id {rec.id!r}")
            self.by_id[rec.id] = rec

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def classes(self, group: str | None = None, split: str | None = None) -> list[str]:
        """Sorted foreground class ids, optionally restricted by tag."""
        out = set()
        for rec in self.records:
            if rec.is_background:
                continue
            if group is not None and rec.group != group:
                continue
            if split is not None and rec.split != split:
                continue
            out.add(rec.label)
        return sorted(out)

    def select(self, label: str | None = None, group: str | None = None, split: str | None = None) -> list[FeatureRecord]:
        out = []
        for rec in self.records:
            if label is not None and rec.label != label:
                continue
            if group is not None and rec.group != group:
                continue
            if split is not None and rec.split != split:
                continue
            out.append(rec)
        return out


def read_json_lines(path, kind: str):
    """Yield (line number, object) for every non-blank line of a JSON Lines
    file. A line with a "kind" key is the header: it must be line 1 and name
    `kind` and SCHEMA_VERSION. Text that is not UTF-8, a line that is not
    valid JSON, a line that is not a JSON object and a bad header raise
    DatasetError."""
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as e:
                    raise DatasetError(f"invalid JSON: {e.msg}", line_no) from None
                if not isinstance(obj, dict):
                    raise DatasetError("each line must be a JSON object", line_no)
                if "kind" in obj:
                    if line_no != 1:
                        raise DatasetError("header line must come first", line_no)
                    if obj["kind"] != kind:
                        raise DatasetError(f"expected kind {kind!r}, got {obj['kind']!r}", line_no)
                    if obj.get("schema_version") != SCHEMA_VERSION:
                        raise DatasetError(
                            f"unsupported schema_version {obj.get('schema_version')!r}", line_no
                        )
                yield line_no, obj
        except UnicodeDecodeError as e:
            raise DatasetError(f"{path}: not UTF-8 text ({e.reason})") from None


def load_dataset(path) -> Dataset:
    records: list[FeatureRecord] = []
    seen: set[str] = set()
    meta: dict = {}
    feature_dim: int | None = None
    for line_no, obj in read_json_lines(path, "dataset"):
        if "kind" in obj:
            meta = obj.get("meta", {}) or {}
            if not isinstance(meta, dict):
                raise DatasetError(f"header meta must be an object, got {meta!r}", line_no)
            continue
        rec = _record_from_obj(obj, line_no, feature_dim)
        feature_dim = rec.features.shape[0]
        if rec.id in seen:
            raise DatasetError(f"duplicate record id {rec.id!r}", line_no)
        seen.add(rec.id)
        records.append(rec)
    if not records:
        raise DatasetError(f"no records in {path}")
    return Dataset(records, meta=meta)


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = {"schema_version": SCHEMA_VERSION, "kind": "dataset", "meta": dataset.meta}
        fh.write(json.dumps(header) + "\n")
        for rec in dataset.records:
            obj: dict = {
                "id": rec.id,
                "label": rec.label,
                "features": [float(v) for v in rec.features],
            }
            if rec.box is not None:
                obj["box"] = [float(v) for v in rec.box]
            if rec.image_id is not None:
                obj["image_id"] = rec.image_id
            if rec.attributes is not None:
                obj["attributes"] = [int(v) for v in rec.attributes]
            if rec.split is not None:
                obj["split"] = rec.split
            if rec.group is not None:
                obj["group"] = rec.group
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# synthetic mixture-of-Gaussians data with known structure


@dataclass
class SynthConfig:
    """Generator knobs for the synthetic oracle dataset.

    Classes are Gaussian mixtures: `modes_per_class` centers per class,
    all centers (across classes) kept at least `min_separation` apart, with
    isotropic per-mode noise of scale `spread`. Optional clutter records
    labeled background are drawn at least `min_separation` from every
    center. The true centers go into the dataset header for oracle checks.
    """

    num_classes: int = 5
    modes_per_class: int = 3
    input_dim: int = 20
    samples_per_mode: int = 40
    spread: float = 0.05
    background_fraction: float = 0.0
    unseen_classes: int = 0
    test_fraction: float = 0.2
    min_separation: float = 1.0
    with_boxes: bool = False
    rois_per_image: int = 8

    def __post_init__(self):
        if self.num_classes < 1 or self.modes_per_class < 1 or self.samples_per_mode < 1:
            raise ConfigError("synth counts must be positive")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be positive")
        if self.spread < 0:
            raise ConfigError("spread must be nonnegative")
        if not 0 <= self.background_fraction <= 1:
            raise ConfigError("background_fraction must lie in [0, 1]")
        if not 0 <= self.unseen_classes <= self.num_classes:
            raise ConfigError("unseen_classes must not exceed num_classes")
        if not 0 <= self.test_fraction < 1:
            raise ConfigError("test_fraction must lie in [0, 1)")
        if self.rois_per_image < 2:
            raise ConfigError("rois_per_image must be at least 2")


def _draw_separated_centers(rng, count: int, dim: int, min_sep: float) -> np.ndarray:
    centers: list[np.ndarray] = []
    attempts = 0
    while len(centers) < count:
        cand = rng.normal(0.0, 1.0, size=dim)
        if all(np.linalg.norm(cand - c) >= min_sep for c in centers):
            centers.append(cand)
        attempts += 1
        if attempts > 1000 * count:
            raise ConfigError(
                f"could not place {count} centers with separation {min_sep} in dim {dim}"
            )
    return np.stack(centers)


def _draw_clutter(rng, centers: np.ndarray, min_sep: float, dim: int) -> np.ndarray:
    for _ in range(100000):
        cand = rng.normal(0.0, 1.5, size=dim)
        if np.linalg.norm(centers - cand, axis=1).min() >= min_sep:
            return cand
    raise ConfigError("could not place clutter away from class centers")


def class_name(index: int) -> str:
    return f"c{index:03d}"


def synth_dataset(config: SynthConfig, seed: int) -> Dataset:
    """Deterministic dataset with known centers; see SynthConfig."""
    cfg = config
    center_rng = substream(seed, "synth", "centers")
    total_modes = cfg.num_classes * cfg.modes_per_class
    centers = _draw_separated_centers(center_rng, total_modes, cfg.input_dim, cfg.min_separation)
    centers = centers.reshape(cfg.num_classes, cfg.modes_per_class, cfg.input_dim)

    records: list[FeatureRecord] = []
    n_test = int(round(cfg.test_fraction * cfg.samples_per_mode))
    seen_cut = cfg.num_classes - cfg.unseen_classes
    for ci in range(cfg.num_classes):
        label = class_name(ci)
        group = "seen" if ci < seen_cut else "unseen"
        for mi in range(cfg.modes_per_class):
            rng = substream(seed, "synth", "samples", ci, mi)
            noise = rng.normal(0.0, cfg.spread, size=(cfg.samples_per_mode, cfg.input_dim))
            block = centers[ci, mi] + noise
            for si in range(cfg.samples_per_mode):
                # unseen-class records are all test: they exist only for episodes
                if group == "unseen":
                    split = "test"
                else:
                    split = "test" if si >= cfg.samples_per_mode - n_test else "train"
                records.append(
                    FeatureRecord(
                        id=f"r{len(records):06d}",
                        label=label,
                        features=block[si],
                        split=split,
                        group=group,
                    )
                )

    n_bg = int(round(cfg.background_fraction * len(records)))
    flat_centers = centers.reshape(total_modes, cfg.input_dim)
    bg_rng = substream(seed, "synth", "background")
    for bi in range(n_bg):
        feats = _draw_clutter(bg_rng, flat_centers, cfg.min_separation, cfg.input_dim)
        split = "test" if bi % 5 == 0 else "train"
        records.append(
            FeatureRecord(
                id=f"r{len(records):06d}",
                label=BACKGROUND_LABEL,
                features=feats,
                split=split,
            )
        )

    if cfg.with_boxes:
        order = substream(seed, "synth", "images").permutation(len(records))
        for slot, ri in enumerate(order):
            img, pos = divmod(slot, cfg.rois_per_image)
            records[ri].image_id = f"img{img:05d}"
            records[ri].box = (12.0 * pos, 0.0, 12.0 * pos + 10.0, 10.0)

    meta = {
        "generator": "synth",
        "centers": {
            class_name(ci): [[float(v) for v in centers[ci, mi]] for mi in range(cfg.modes_per_class)]
            for ci in range(cfg.num_classes)
        },
        "spread": cfg.spread,
        "min_separation": cfg.min_separation,
        "seed": seed,
    }
    return Dataset(records, meta=meta)


def true_centers(dataset: Dataset) -> dict[str, np.ndarray]:
    """Per-class (K, dim) true centers recorded by the generator."""
    stored = dataset.meta.get("centers")
    if not stored:
        raise DatasetError("dataset has no generator metadata with centers")
    return {label: np.asarray(rows, dtype=np.float64) for label, rows in stored.items()}


def nearest_center_mode(dataset: Dataset, record: FeatureRecord) -> int:
    """Which true mode of its class a record came from (nearest center)."""
    centers = true_centers(dataset)[record.label]
    return int(np.linalg.norm(centers - record.features, axis=1).argmin())
