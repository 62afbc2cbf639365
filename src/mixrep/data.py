"""Feature datasets: wire format, validation, writers, synthetic generation.

Datasets are JSON Lines files, one record per line, optionally preceded by a
header line carrying schema version and generator metadata. Records hold a
precomputed feature vector plus a class label (or "background"), and may
carry a bounding box, image id, binary attributes, split and seen/unseen
group tags. `write_json_lines` writes every JSON Lines file of the package,
datasets and episode files, and `write_csv` every CSV file.

Each rule a record meets is written once, and files and tables are checked
by it in the same words, so every table saves to a file that loads back the
same: `_VALUE_RULES` for the id, label and tags, read by the loader per line
and by `Dataset` per column, and `box_fault`, which metric tables share.

In memory a dataset is a `Dataset`: a table of column arrays with one row
per record, in file order. Code that works on some of the records holds
their row positions (an integer array) and reads the columns at those rows;
`dataset[rows]` is the sub-table. The loader decodes each stripped line with
one call of the decoder's scanner (`json.JSONDecoder.scan_once`, what
`raw_decode` calls); only a line that call refuses, or does not read to its
end, goes through `json.loads`, which words the error.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from array import array
from types import SimpleNamespace

import numpy as np

from .config import GROUPS, SynthConfig, choice_words
from .errors import ConfigError, DatasetError, NonFiniteRowError
from .rng import substream

BACKGROUND_LABEL = "background"
# The schema version of each kind of JSON Lines file, and the remedy for a
# file of another version. Episode files went to 2 when they began to store
# the support of every shot count up to max_shots.
SCHEMA_VERSIONS = {"dataset": 1, "episodes": 2}
_REGENERATE = {"episodes": "; regenerate the episode file with gen-episodes"}

_NOT_FINITE = "features must be a flat array of finite numbers"
_NUMBER_TYPES = frozenset((int, float))  # of JSON numbers; type() rules out bool, an int subclass
_NO_BOX = [math.nan] * 4  # the box row of a record without a box


def box_fault(boxes: np.ndarray, shown=None) -> tuple[int, str] | None:
    """The package's box rule: the first of the (x1, y1, x2, y2) rows of the
    float64 (..., 4) `boxes` that is not finite with x2 > x1 and y2 > y1, as
    its row and the words of its fault, which show `shown` or else the box;
    None when every box is sound."""
    boxes = boxes.reshape(-1, 4)
    finite = np.isfinite(boxes).all(axis=1)
    sound = finite & (boxes[:, 2:] > boxes[:, :2]).all(axis=1)
    if sound.all():
        return None
    i = int(np.argmin(sound))
    shown = boxes[i].tolist() if shown is None else shown
    if not finite[i]:
        return i, f"box coordinates must be finite, got {shown!r}"
    return i, f"degenerate box {shown!r} (need x2 > x1 and y2 > y1)"


def _validate_box(box, line: int) -> list[float]:
    if not isinstance(box, (list, tuple)) or len(box) != 4:
        raise DatasetError(f"box must have 4 coordinates, got {box!r}", line)
    if not _NUMBER_TYPES.issuperset(map(type, box)):
        raise DatasetError(f"box coordinates must be numbers, got {box!r}", line)
    try:
        coords = np.array(box, dtype=np.float64)
    except OverflowError:  # an int too large for a float
        raise DatasetError(f"box coordinates must be numbers, got {box!r}", line) from None
    fault = box_fault(coords, box)
    if fault is not None:
        raise DatasetError(fault[1], line)
    return coords.tolist()


def _flags(value) -> bool:
    """Whether `value` is 0/1 flags: a list of the integers 0 and 1, as a
    file holds them, or a 1-d integer array of them."""
    if isinstance(value, np.ndarray):
        value = value.tolist() if value.ndim == 1 and value.dtype.kind in "iu" else None
    return type(value) is list and all(type(a) is int and a in (0, 1) for a in value)


# The rule for each record value but the features and the box, in the order
# the loader checks them: (key, test, the words of a fault with {!r} for the
# value). The loader reads it per line, `Dataset` per column. Every tag rule
# takes None, an absent tag.
_VALUE_RULES = (
    *((key, lambda v: isinstance(v, str) and v != "",
       f"{key} must be a non-empty string, got {{!r}}") for key in ("id", "label")),
    ("attributes", lambda v: v is None or _flags(v), "attributes must be an array of 0/1"),
    *((key, lambda v, allowed=allowed: v is None or isinstance(v, str) and v in allowed,
       choice_words(key, allowed))
      for key, allowed in (("split", ("train", "val", "test")), ("group", GROUPS))),
    ("image_id", lambda v: v is None or isinstance(v, str), "image_id must be a string, got {!r}"),
)
_TEXT_RULES, _TAG_RULES = _VALUE_RULES[:2], _VALUE_RULES[2:]  # id and label; the tags
_ALLOWED_KEYS = {"features", "box", *(key for key, _, _ in _VALUE_RULES)}


def _parse_record(obj: dict, line: int, feature_dim: int | None) -> tuple:
    """The fields of one record line: (id, label, features, box, image_id,
    attributes, split, group), features a list of d finite numbers, the box
    a list of 4 floats or None and attributes a list or None. The checks run
    in a fixed order, so a line's first fault is the one reported."""
    if not _ALLOWED_KEYS.issuperset(obj):
        raise DatasetError(f"unknown record keys {sorted(set(obj) - _ALLOWED_KEYS)}", line)
    for key in ("id", "label", "features"):
        if key not in obj:
            raise DatasetError(f"record missing required key '{key}'", line)
    for key, ok, words in _TEXT_RULES:
        if not ok(obj[key]):
            raise DatasetError(words.format(obj[key]), line)
    feats = obj["features"]
    if not isinstance(feats, list) or not feats:
        raise DatasetError("features must be a non-empty array", line)
    if not _NUMBER_TYPES.issuperset(map(type, feats)):
        raise DatasetError("features must be numbers", line)
    try:
        finite = all(map(math.isfinite, feats))
    except OverflowError:  # an int too large for a float
        raise DatasetError("features must be numbers", line) from None
    if not finite:
        raise DatasetError(_NOT_FINITE, line)
    if feature_dim is not None and len(feats) != feature_dim:
        raise DatasetError(
            f"feature length {len(feats)} differs from earlier records ({feature_dim})",
            line,
        )
    box = _validate_box(obj["box"], line) if obj.get("box") is not None else None
    for key, ok, words in _TAG_RULES:
        value = obj.get(key)
        if value is not None and not ok(value):
            raise DatasetError(words.format(value), line)
    return (obj["id"], obj["label"], feats, box, obj.get("image_id"), obj.get("attributes"),
            obj.get("split"), obj.get("group"))


def _plain_json(value) -> bool:
    """Whether `value` saves to JSON and loads back as it is: dicts with
    string keys, lists, strings, finite numbers, booleans and None, and no
    tuple, numpy value or other object."""
    if type(value) is dict:
        return all(type(key) is str and _plain_json(item) for key, item in value.items())
    if type(value) is list:
        return all(map(_plain_json, value))
    return type(value) in (str, int, bool, type(None)) or (
        type(value) is float and math.isfinite(value))


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

    Every column is checked once, when the table is built, by the loader's
    rules in its words, prefixed by the first faulty row. Attributes may be
    given as lists or integer arrays of 0/1.
    `dataset[rows]` is the table of the rows an index array, mask or slice
    picks, in that order, with the same `meta`. Class ids derived from a
    dataset are sorted, so a label-to-index map does not depend on record
    order.
    """

    _columns = ("id", "label", "features", "box", "image_id", "attributes", "split", "group")

    def __init__(self, id, label, features, box=None, image_id=None, attributes=None,
                 split=None, group=None, meta: dict | None = None):
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
        meta = {} if meta is None else meta
        try:
            plain = type(meta) is dict and _plain_json(meta)
        except RecursionError:  # nested too deep to save, or holding itself
            plain = False
        if not plain:
            raise DatasetError(f"meta must be a JSON object of plain JSON values, got {meta!r}")
        self.meta = dict(meta)
        for name, ok, words in _VALUE_RULES:  # one pass per column
            values = getattr(self, name).tolist()
            try:  # equal values meet a rule alike, so each distinct one is tested once
                distinct = set(values)
            except TypeError:  # unhashable values, such as attribute lists
                distinct = values
            if not all(map(ok, distinct)):
                row = next(row for row, value in enumerate(values) if not ok(value))
                raise DatasetError(f"row {row}: {words.format(values[row])}")
        self.attributes = _object_column(  # held as int64 arrays
            [None if a is None else np.array(a, dtype=np.int64) for a in self.attributes], n)
        drawn = np.flatnonzero(~np.isnan(self.box).all(axis=1))  # the rows that hold a box
        fault = box_fault(self.box[drawn])
        if fault is not None:
            raise DatasetError(f"row {drawn[fault[0]]}: {fault[1]}")
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            raise DatasetError(f"row {int(np.argmin(finite))}: {_NOT_FINITE}")
        ids = self.id.tolist()
        if len(set(ids)) < n:
            seen: set = set()
            row = next(row for row, rid in enumerate(ids) if rid in seen or seen.add(rid))
            raise DatasetError(f"row {row}: duplicate record id {ids[row]!r}")

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

    def row_lookup(self):
        """A function from a list of ids to their rows, in order, over one
        map from id to row that lives as long as the function; KeyError
        names an unknown id."""
        row_of = dict(zip(self.id.tolist(), range(len(self))))
        return lambda ids: np.array([row_of[i] for i in ids], dtype=np.intp)


def class_indices(dataset: Dataset, label_to_index: dict[str, int]) -> list[int]:
    """The index `label_to_index` gives each record's label, in row order;
    the first record whose label it lacks raises DatasetError."""
    labels = dataset.label.tolist()
    for row, label in enumerate(labels):
        if label not in label_to_index:
            raise DatasetError(f"record {dataset.id[row]} has label {label!r} outside the class map")
    return [label_to_index[label] for label in labels]


@contextlib.contextmanager
def naming_records(dataset: Dataset, rows):
    """Reword a NonFiniteRowError about row i of what the features of
    `dataset[rows]` map to, in any layer, to name that record's id, its row
    in `dataset` and its largest |feature|."""
    try:
        yield
    except NonFiniteRowError as e:
        row = int(rows[e.row])
        raise NonFiniteRowError(row, np.abs(dataset.features[row]).max(),
                                f"record {dataset.id[row]!r} "
                                f"(row {row} of {len(dataset)})") from None


def group_rows(rows, keys) -> dict:
    """`rows` split by their `keys` (one per row, sortable), in sorted key
    order; each group keeps the order of `rows`."""
    names, inverse = np.unique(keys, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    ends = np.cumsum(np.bincount(inverse, minlength=len(names)))[:-1]
    return dict(zip(names.tolist(), np.split(np.asarray(rows)[order], ends)))


_scan_once = json.JSONDecoder().scan_once


def read_json_lines(path, kind: str):
    """Yield (line number, object) for every non-blank line of a JSON Lines
    file. A line with a "kind" key is the header: it must be line 1 and name
    `kind` and its version in SCHEMA_VERSIONS. Text that is not UTF-8, a
    line that is not valid JSON, a line that is not a JSON object and a bad
    header raise DatasetError."""
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj, end = _scan_once(raw, 0)
                except (StopIteration, ValueError, RecursionError):
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
                    if obj.get("schema_version") != SCHEMA_VERSIONS[kind]:
                        raise DatasetError(
                            f"unsupported schema_version {obj.get('schema_version')!r}"
                            + _REGENERATE.get(kind, ""), line_no)
                yield line_no, obj
        except UnicodeDecodeError as e:
            raise DatasetError(f"{path}: not UTF-8 text ({e.reason})") from None


def load_dataset(path) -> Dataset:
    """The dataset in a JSON Lines file. Lines are parsed one at a time, each
    checked in full before the next is read, and each record's features and
    box (four NaN without one) are appended to one growing buffer of
    doubles each, which the table's arrays then view. A fault raises
    DatasetError with the line it is on."""
    meta: dict = {}
    features, boxes = array("d"), array("d")
    ids, labels, image_ids, attributes, splits, groups = [], [], [], [], [], []
    tags: dict = {}
    seen: set = set()
    for line_no, obj in read_json_lines(path, "dataset"):
        if "kind" in obj:
            meta = obj.get("meta", {}) or {}
            if not isinstance(meta, dict):
                raise DatasetError(f"header meta must be an object, got {meta!r}", line_no)
            continue
        rid, label, feats, box, image_id, attrs, split, group = _parse_record(
            obj, line_no, len(features) // len(ids) if ids else None)
        if rid in seen:
            raise DatasetError(f"duplicate record id {rid!r}", line_no)
        seen.add(rid)
        features.fromlist(feats)
        boxes.fromlist(_NO_BOX if box is None else box)
        ids.append(rid)
        # one str object for each distinct tag, not one per record
        labels.append(tags.setdefault(label, label))
        image_ids.append(tags.setdefault(image_id, image_id))
        attributes.append(attrs)
        splits.append(tags.setdefault(split, split))
        groups.append(tags.setdefault(group, group))
    if not ids:
        raise DatasetError(f"no records in {path}")
    return Dataset(ids, labels, np.frombuffer(features).reshape(len(ids), -1),
                   box=np.frombuffer(boxes).reshape(-1, 4), image_id=image_ids,
                   attributes=attributes, split=splits, group=groups, meta=meta)


def write_json_lines(path, kind: str, objects, **header) -> None:
    """Write the JSON Lines file `read_json_lines(path, kind)` reads: a header
    of the version of `kind`, `kind` and `header`, then one line for each
    object."""
    with open(path, "w", encoding="utf-8") as fh:
        version = SCHEMA_VERSIONS[kind]
        fh.write(json.dumps({"schema_version": version, "kind": kind, **header}) + "\n")
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")


def write_csv(path, columns, rows) -> None:
    """Write a CSV file of `columns` and `rows`, with csv.writer's CRLF line
    ends. A row is a pair (fields, numbers) of at least one field each, the
    fields first: csv.writer writes them, quoting text where it must, and
    each number is written as its `format`, which is a float's repr and
    keeps an empty string empty."""
    lines: list[str] = []
    quote = csv.writer(SimpleNamespace(write=lines.append)).writerow
    with open(path, "w", newline="", encoding="utf-8") as fh:
        quote(columns)
        fh.write(lines.pop())
        for fields, numbers in rows:
            quote(fields)
            fh.write(f"{lines.pop()[:-2]},{','.join(map(format, numbers))}\r\n")


def _record_objects(dataset: Dataset):
    """Each record's JSON object, in row order, with only the keys it has.
    Each column is read once, as Python values."""
    tags = ("image_id", "attributes", "split", "group")
    rows = zip(dataset.id.tolist(), dataset.label.tolist(), dataset.features.tolist(),
               dataset.box.tolist(), (~np.isnan(dataset.box).any(axis=1)).tolist(),
               *(getattr(dataset, key).tolist() for key in tags))
    for rid, label, features, box, has_box, *values in rows:
        obj: dict = {"id": rid, "label": label, "features": features}
        if has_box:
            obj["box"] = box
        for key, value in zip(tags, values):
            if value is not None:
                obj[key] = value.tolist() if key == "attributes" else value
        yield obj


def save_dataset(dataset: Dataset, path) -> None:
    write_json_lines(path, "dataset", _record_objects(dataset), meta=dataset.meta)


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
