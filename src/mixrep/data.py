"""Feature datasets: wire format, validation, and synthetic generation.

Datasets are JSON Lines files, one record per line, optionally preceded by a
header line carrying schema version and generator metadata. Records hold a
precomputed feature vector plus a class label (or "background"), and may
carry a bounding box, image id, binary attributes, split and seen/unseen
group tags.

In memory a dataset is a `Dataset`: a table of column arrays with one row
per record, in file order, checked once when it is built. Code that works
on some of the records holds their row positions (an integer array) and
reads the columns at those rows; `dataset[rows]` is the sub-table. The
loader decodes each stripped line with one `json.JSONDecoder.raw_decode`
call; only a line that call refuses, or does not read to its end, goes
through `json.loads`, which words the error. Each row's features stream into
one growing (n, d) float64 array.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from .config import SynthConfig
from .errors import ConfigError, DatasetError, NonFiniteRowError
from .rng import substream

BACKGROUND_LABEL = "background"
SCHEMA_VERSION = 1  # of every JSON Lines file: datasets and episodes

_ALLOWED_KEYS = {"id", "label", "features", "box", "image_id", "attributes", "split", "group"}
_SPLITS = ("train", "val", "test")
_GROUPS = ("seen", "unseen")
_NOT_FINITE = "features must be a flat array of finite numbers"


def _validate_box(box, line: int) -> tuple:
    if not isinstance(box, (list, tuple)) or len(box) != 4:
        raise DatasetError(f"box must have 4 coordinates, got {box!r}", line)
    try:
        x1, y1, x2, y2 = (float(v) for v in box)
    except (TypeError, ValueError, OverflowError):
        raise DatasetError(f"box coordinates must be numbers, got {box!r}", line) from None
    if not np.isfinite([x1, y1, x2, y2]).all():
        raise DatasetError(f"box coordinates must be finite, got {box!r}", line)
    if not (x2 > x1 and y2 > y1):
        raise DatasetError(f"degenerate box {box!r} (need x2 > x1 and y2 > y1)", line)
    return (x1, y1, x2, y2)


def _parse_record(obj: dict, line: int, feature_dim: int | None) -> tuple:
    """The fields of one record line: (id, label, features, box, image_id,
    attributes, split, group), features a float64 (d,) array and the box a
    tuple or None. The checks run in a fixed order, so a line's first fault
    is the one reported. Whether the features are finite is left to the
    column check of the table (`_first_bad_row`), except on a line refused
    for a later field, where it comes first."""
    if not _ALLOWED_KEYS.issuperset(obj):
        raise DatasetError(f"unknown record keys {sorted(set(obj) - _ALLOWED_KEYS)}", line)
    for key in ("id", "label", "features"):
        if key not in obj:
            raise DatasetError(f"record missing required key '{key}'", line)
    rid, label, feats = obj["id"], obj["label"], obj["features"]
    if not isinstance(rid, str) or not rid:
        raise DatasetError(f"id must be a non-empty string, got {rid!r}", line)
    if not isinstance(label, str) or not label:
        raise DatasetError(f"label must be a non-empty string, got {label!r}", line)
    if not isinstance(feats, list) or not feats:
        raise DatasetError("features must be a non-empty array", line)
    try:
        features = np.asarray(feats, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # an int too large for a float
        raise DatasetError("features must be numbers", line) from None
    if features.ndim != 1:
        raise DatasetError(_NOT_FINITE, line)
    try:
        if feature_dim is not None and features.shape[0] != feature_dim:
            raise DatasetError(
                f"feature length {features.shape[0]} differs from earlier records ({feature_dim})",
                line,
            )
        box = _validate_box(obj["box"], line) if obj.get("box") is not None else None
        attributes = obj.get("attributes")
        if attributes is not None:
            if not isinstance(attributes, list) or any(a not in (0, 1) for a in attributes):
                raise DatasetError("attributes must be an array of 0/1", line)
            attributes = np.asarray(attributes, dtype=np.int64)
        split = obj.get("split")
        if split is not None and split not in _SPLITS:
            raise DatasetError(f"split must be one of {_SPLITS}, got {split!r}", line)
        group = obj.get("group")
        if group is not None and group not in _GROUPS:
            raise DatasetError(f"group must be one of {_GROUPS}, got {group!r}", line)
        image_id = obj.get("image_id")
        if image_id is not None and not isinstance(image_id, str):
            raise DatasetError(f"image_id must be a string, got {image_id!r}", line)
    except DatasetError:
        if not np.isfinite(features).all():
            raise DatasetError(_NOT_FINITE, line) from None
        raise
    return rid, label, features, box, image_id, attributes, split, group


def _first_bad_row(features: np.ndarray, ids) -> tuple[int, str] | None:
    """(row, message) of the first row whose features are not all finite or
    whose id an earlier row holds, the finiteness of a row coming first;
    None when every row is sound."""
    finite = np.isfinite(features).all(axis=1)
    stop = len(ids) if finite.all() else int(np.argmin(finite))
    if len(set(ids)) < len(ids):
        seen: set = set()
        for row, rid in enumerate(ids[:stop]):
            if rid in seen:
                return row, f"duplicate record id {rid!r}"
            seen.add(rid)
    return (stop, _NOT_FINITE) if stop < len(ids) else None


def _object_column(values, n: int) -> np.ndarray:
    """`values` as an (n,) object array, or n Nones when `values` is None."""
    if values is None:
        return np.full(n, None, dtype=object)
    return np.fromiter(values, dtype=object, count=len(values))


class Dataset:
    """Records as a table of column arrays, one row per record in file order.

    Columns:
      - `id`, `label`: (n,) object arrays of strings; ids are unique.
      - `features`: one C-contiguous (n, d) float64 array of finite values.
      - `box`: (n, 4) float64 (x1, y1, x2, y2); a record without a box has a
        row of NaN.
      - `image_id`, `split`, `group`: (n,) object arrays, None where a record
        carries no such tag.
      - `attributes`: (n,) object array of int64 0/1 arrays, None where
        absent (their lengths may differ between records).

    Every column is checked once, when the table is built; `lines`, when
    given, holds each row's line in the file and is named in a rejection.
    `dataset[rows]` is the table of the rows an index array, mask or slice
    picks, in that order, with the same `meta`. Class ids derived from a
    dataset are sorted, so a label-to-index map does not depend on record
    order.
    """

    _columns = ("id", "label", "features", "box", "image_id", "attributes", "split", "group")

    def __init__(self, id, label, features, box=None, image_id=None, attributes=None,
                 split=None, group=None, meta: dict | None = None, lines=None):
        n = len(id)
        if not n:
            raise DatasetError("dataset has no records")
        self.id = _object_column(id, n)
        self.label = _object_column(label, n)
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] == 0:
            raise DatasetError(f"features must be an (n, d) array, got shape {self.features.shape}")
        self.box = np.full((n, 4), np.nan) if box is None else np.asarray(box, dtype=np.float64)
        if self.box.shape[1:] != (4,):
            raise DatasetError(f"boxes must be an (n, 4) array, got shape {self.box.shape}")
        self.image_id = _object_column(image_id, n)
        self.attributes = _object_column(attributes, n)
        self.split = _object_column(split, n)
        self.group = _object_column(group, n)
        lengths = {name: len(getattr(self, name)) for name in self._columns}
        if set(lengths.values()) != {n}:
            raise DatasetError(f"columns of unequal length {lengths}")
        self.meta = dict(meta) if meta else {}
        bad = _first_bad_row(self.features, self.id)
        if bad is not None:
            row, message = bad
            raise DatasetError(message, None if lines is None else int(lines[row]))

    def __len__(self) -> int:
        return len(self.id)

    def __getitem__(self, rows) -> Dataset:
        if isinstance(rows, (int, np.integer)):
            raise TypeError("index a Dataset with an array of rows, a mask or a slice")
        part = object.__new__(Dataset)
        part.__dict__.update((name, getattr(self, name)[rows]) for name in self._columns)
        part.meta = self.meta
        return part

    @property
    def records(self) -> Dataset:
        """The table itself: `len(dataset.records)` counts its records."""
        return self

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def is_background(self) -> np.ndarray:
        return self.label == BACKGROUND_LABEL

    @property
    def train_split(self) -> np.ndarray:
        """Rows tagged as the train split or not tagged with a split."""
        return np.equal(self.split, None) | (self.split == "train")

    def rows_of(self, ids) -> np.ndarray:
        """The row of each of `ids`, in order; KeyError names an unknown id."""
        if "_row_of" not in self.__dict__:
            self._row_of = dict(zip(self.id.tolist(), range(len(self))))
        return np.array([self._row_of[i] for i in ids], dtype=np.intp)


@contextlib.contextmanager
def naming_records(dataset: Dataset, rows):
    """Reword a NonFiniteRowError about row i of the features of
    `dataset[rows]` to name that record's id and its row in `dataset`."""
    try:
        yield
    except NonFiniteRowError as e:
        row = int(rows[e.row])
        raise NonFiniteRowError(row, e.largest, f"record {dataset.id[row]!r} "
                                f"(row {row} of {len(dataset)})") from None


def group_rows(rows, keys) -> dict:
    """`rows` split by their `keys` (one per row, sortable), in sorted key
    order; each group keeps the order of `rows`."""
    names, inverse = np.unique(keys, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    ends = np.cumsum(np.bincount(inverse, minlength=len(names)))[:-1]
    return dict(zip(names.tolist(), np.split(np.asarray(rows)[order], ends)))


_raw_decode = json.JSONDecoder().raw_decode


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
                    obj, end = _raw_decode(raw)
                except (ValueError, RecursionError):
                    end = None
                if end != len(raw):  # refused or not read to the end: json.loads words why
                    try:
                        obj = json.loads(raw)
                    except json.JSONDecodeError as e:
                        raise DatasetError(f"invalid JSON: {e.msg}", line_no) from None
                    except (ValueError, RecursionError) as e:
                        # an integer of over 4,300 digits; arrays nested too deep
                        raise DatasetError(f"invalid JSON: {e}", line_no) from None
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
    """The dataset in a JSON Lines file. Lines are parsed one at a time and
    each record's features go straight into one growing float64 array.
    A fault raises DatasetError with the line it is on; of several, the
    first line's is raised, as if every line were checked in full before
    the next one is read."""
    meta: dict = {}
    features, boxes = np.empty((0, 0)), np.empty((0, 4))  # grown by doubling
    ids, labels, image_ids, attributes, splits, groups, lines = [], [], [], [], [], [], []
    tags: dict = {}
    try:
        for line_no, obj in read_json_lines(path, "dataset"):
            if "kind" in obj:
                meta = obj.get("meta", {}) or {}
                if not isinstance(meta, dict):
                    raise DatasetError(f"header meta must be an object, got {meta!r}", line_no)
                continue
            rid, label, feats, box, image_id, attrs, split, group = _parse_record(
                obj, line_no, features.shape[1] if ids else None)
            n = len(ids)
            if n == len(features):
                features.resize((max(2 * n, 256), len(feats)), refcheck=False)
                boxes.resize((len(features), 4), refcheck=False)
                boxes[n:] = np.nan
            features[n] = feats
            if box is not None:
                boxes[n] = box
            ids.append(rid)
            # one str object for each distinct tag, not one per record
            labels.append(tags.setdefault(label, label))
            image_ids.append(tags.setdefault(image_id, image_id))
            attributes.append(attrs)
            splits.append(tags.setdefault(split, split))
            groups.append(tags.setdefault(group, group))
            lines.append(line_no)
    except DatasetError:
        # a fault of an earlier row that the table checks would come first
        bad = _first_bad_row(features[:len(ids)], ids)
        if bad is not None:
            raise DatasetError(bad[1], lines[bad[0]]) from None
        raise
    if not ids:
        raise DatasetError(f"no records in {path}")
    features.resize((len(ids), features.shape[1]), refcheck=False)
    boxes.resize((len(ids), 4), refcheck=False)
    return Dataset(ids, labels, features, box=boxes, image_id=image_ids, attributes=attributes,
                   split=splits, group=groups, meta=meta, lines=lines)


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = {"schema_version": SCHEMA_VERSION, "kind": "dataset", "meta": dataset.meta}
        fh.write(json.dumps(header) + "\n")
        has_box = ~np.isnan(dataset.box).any(axis=1)
        for row in range(len(dataset)):
            obj: dict = {
                "id": dataset.id[row],
                "label": dataset.label[row],
                "features": dataset.features[row].tolist(),
            }
            if has_box[row]:
                obj["box"] = dataset.box[row].tolist()
            for key in ("image_id", "attributes", "split", "group"):
                value = getattr(dataset, key)[row]
                if value is not None:
                    obj[key] = value.tolist() if key == "attributes" else value
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# synthetic mixture-of-Gaussians data with known structure


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

    n_test = int(round(cfg.test_fraction * cfg.samples_per_mode))
    seen_cut = cfg.num_classes - cfg.unseen_classes
    blocks, labels, splits, groups = [], [], [], []
    # unseen-class records are all test: they exist only for episodes
    seen_splits = ["train"] * (cfg.samples_per_mode - n_test) + ["test"] * n_test
    for ci in range(cfg.num_classes):
        group = "seen" if ci < seen_cut else "unseen"
        for mi in range(cfg.modes_per_class):
            rng = substream(seed, "synth", "samples", ci, mi)
            noise = rng.normal(0.0, cfg.spread, size=(cfg.samples_per_mode, cfg.input_dim))
            blocks.append(centers[ci, mi] + noise)
        count = cfg.modes_per_class * cfg.samples_per_mode
        labels += [class_name(ci)] * count
        splits += (seen_splits if group == "seen" else ["test"] * cfg.samples_per_mode) \
            * cfg.modes_per_class
        groups += [group] * count

    n_bg = int(round(cfg.background_fraction * len(labels)))
    flat_centers = centers.reshape(total_modes, cfg.input_dim)
    bg_rng = substream(seed, "synth", "background")
    blocks += [_draw_clutter(bg_rng, flat_centers, cfg.min_separation, cfg.input_dim)[None]
               for _ in range(n_bg)]
    labels += [BACKGROUND_LABEL] * n_bg
    splits += ["test" if bi % 5 == 0 else "train" for bi in range(n_bg)]
    groups += [None] * n_bg

    n = len(labels)
    image_ids, boxes = None, None
    if cfg.with_boxes:
        order = substream(seed, "synth", "images").permutation(n)
        image, pos = np.divmod(np.arange(n), cfg.rois_per_image)
        image_ids = np.empty(n, dtype=object)
        image_ids[order] = [f"img{i:05d}" for i in image]
        boxes = np.empty((n, 4))
        boxes[order] = np.stack([12.0 * pos, np.zeros(n), 12.0 * pos + 10.0, np.full(n, 10.0)], 1)

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
    return Dataset([f"r{i:06d}" for i in range(n)], labels, np.concatenate(blocks), box=boxes,
                   image_id=image_ids, split=splits, group=groups, meta=meta)


def true_centers(dataset: Dataset) -> dict[str, np.ndarray]:
    """Per-class (K, dim) true centers recorded by the generator."""
    stored = dataset.meta.get("centers")
    if not stored:
        raise DatasetError("dataset has no generator metadata with centers")
    return {label: np.asarray(rows, dtype=np.float64) for label, rows in stored.items()}


def nearest_center_mode(dataset: Dataset, rows) -> np.ndarray:
    """Which true mode of its class each of `rows` came from (nearest
    center), one int per row."""
    centers = true_centers(dataset)
    return np.array([np.linalg.norm(centers[label] - x, axis=1).argmin()
                     for label, x in zip(dataset.label[rows], dataset.features[rows])],
                    dtype=np.int64)
