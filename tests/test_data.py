"""Dataset wire format, validation error lines, and the synthetic oracle."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mixrep import cli
from mixrep.data import (
    BACKGROUND_LABEL,
    Dataset,
    SynthConfig,
    load_dataset,
    nearest_center_mode,
    save_dataset,
    synth_dataset,
    true_centers,
)
from mixrep.errors import ConfigError, DatasetError


def write_lines(tmp_path, lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def rec_line(rid, label="a", features=(1.0, 2.0), **extra):
    obj = {"id": rid, "label": label, "features": list(features), **extra}
    return json.dumps(obj)


class TestLoadValidation:
    def test_three_valid_lines(self, tmp_path):
        path = write_lines(tmp_path, [rec_line("r1"), rec_line("r2", "b"), rec_line("r3")])
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.id.tolist() == ["r1", "r2", "r3"]

    def test_five_element_box_reports_line(self, tmp_path):
        path = write_lines(
            tmp_path, [rec_line("r1"), rec_line("r2", box=[0, 0, 1, 1, 5])]
        )
        with pytest.raises(DatasetError) as exc:
            load_dataset(path)
        assert exc.value.line == 2

    def test_degenerate_box(self, tmp_path):
        path = write_lines(tmp_path, [rec_line("r1", box=[3, 0, 1, 1])])
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_infinite_box_reports_line(self, tmp_path):
        # JSON Lines written by Python may carry Infinity; such a box has no
        # finite area and its IoU with anything is NaN
        path = write_lines(tmp_path, [rec_line("r1"),
                                      rec_line("r2", box=[float("-inf"), 0, float("inf"), 1])])
        with pytest.raises(DatasetError, match="finite") as exc:
            load_dataset(path)
        assert exc.value.line == 2

    def test_ragged_features_report_line(self, tmp_path):
        path = write_lines(tmp_path, [rec_line("r1"), rec_line("r2", features=[1, 2, 3])])
        with pytest.raises(DatasetError) as exc:
            load_dataset(path)
        assert exc.value.line == 2

    def test_duplicate_id_reports_line(self, tmp_path):
        path = write_lines(tmp_path, [rec_line("r1"), rec_line("r1")])
        with pytest.raises(DatasetError) as exc:
            load_dataset(path)
        assert exc.value.line == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = write_lines(tmp_path, [rec_line("r1"), "{not json"])
        with pytest.raises(DatasetError) as exc:
            load_dataset(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("line, message", [
        (rec_line("r2") + " x", "Extra data"),
        (rec_line("r2") + rec_line("r3"), "Extra data"),
        ("\ufeff" + rec_line("r2"), "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ])
    def test_line_not_one_json_value_reports_json_message(self, tmp_path, line, message):
        path = write_lines(tmp_path, [rec_line("r1"), line])
        with pytest.raises(DatasetError) as exc:
            load_dataset(path)
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: invalid JSON: {message}"

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_lines(tmp_path, [rec_line("r1", color="red")])
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_bad_split_and_attributes(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(write_lines(tmp_path, [rec_line("r1", split="dev")], "a.jsonl"))
        with pytest.raises(DatasetError):
            load_dataset(
                write_lines(tmp_path, [rec_line("r1", attributes=[0, 2])], "b.jsonl")
            )

    def test_missing_required_key(self, tmp_path):
        path = write_lines(tmp_path, ['{"id": "r1", "features": [1.0]}'])
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_nonfinite_features_rejected(self, tmp_path):
        path = write_lines(tmp_path, ['{"id": "r1", "label": "a", "features": [1.0, null]}'])
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_header_parsed_and_bad_header_rejected(self, tmp_path):
        good = write_lines(
            tmp_path,
            ['{"schema_version": 1, "kind": "dataset", "meta": {"spread": 0.1}}', rec_line("r1")],
            "good.jsonl",
        )
        ds = load_dataset(good)
        assert ds.meta["spread"] == 0.1
        bad = write_lines(
            tmp_path,
            ['{"schema_version": 2, "kind": "dataset"}', rec_line("r1")],
            "bad.jsonl",
        )
        with pytest.raises(DatasetError) as exc:
            load_dataset(bad)
        assert exc.value.line == 1
        second = write_lines(
            tmp_path,
            ['{"schema_version": 1, "kind": "dataset"}'] * 2 + [rec_line("r1")],
            "second.jsonl",
        )
        with pytest.raises(DatasetError, match="header line must come first") as exc:
            load_dataset(second)
        assert exc.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError):
            load_dataset(path)


class TestRoundTrip:
    def test_all_fields_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(
            id=[f"r{i}" for i in range(4)],
            label=["a" if i % 2 else BACKGROUND_LABEL for i in range(4)],
            features=np.stack([rng.normal(size=7) for _ in range(4)]),
            box=[(0.5, 1.5, 2.25, 3.125)] * 4,
            image_id=[f"img{i // 2}" for i in range(4)],
            attributes=[np.array([0, 1, 1])] * 4,
            split=["train"] * 4,
            group=["seen" if i % 2 else None for i in range(4)],
            meta={"note": [1, 2.5]},
        )
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.meta == ds.meta
        assert back.id.tolist() == ds.id.tolist() and back.label.tolist() == ds.label.tolist()
        np.testing.assert_array_equal(ds.features, back.features)
        assert back.box.tolist() == ds.box.tolist()
        assert back.image_id.tolist() == ds.image_id.tolist()
        for a, b in zip(ds.attributes, back.attributes):
            np.testing.assert_array_equal(a, b)
        assert back.split.tolist() == ds.split.tolist()
        assert back.group.tolist() == ds.group.tolist()

    def test_indexes(self, tmp_path):
        path = write_lines(
            tmp_path,
            [
                rec_line("r1", "b", split="train"),
                rec_line("r2", "a", split="test"),
                rec_line("r3", "a", split="train"),
                rec_line("r4", BACKGROUND_LABEL),
            ],
        )
        ds = load_dataset(path)
        # sorted, background excluded
        assert np.unique(ds.label[~ds.is_background]).tolist() == ["a", "b"]
        assert ds.id[ds.label == "a"].tolist() == ["r2", "r3"]
        assert ds.id[(ds.label == "a") & (ds.split == "train")].tolist() == ["r3"]
        np.testing.assert_array_equal(
            ds.features[ds.rows_of(["r2", "r1"])],
            np.array([[1.0, 2.0], [1.0, 2.0]]),
        )


class TestTable:
    def test_features_are_one_contiguous_float_matrix(self, tmp_path):
        path = write_lines(tmp_path, [rec_line(f"r{i}", features=(i, 2.5, -1)) for i in range(300)])
        features = load_dataset(path).records.features
        assert type(features) is np.ndarray and features.dtype == np.float64
        assert features.shape == (300, 3) and features.flags.c_contiguous
        assert features[:, 0].tolist() == list(range(300))

    def test_missing_tags_and_boxes_are_explicit(self, tmp_path):
        path = write_lines(tmp_path, [rec_line("r1"), rec_line("r2", box=[0, 0, 2, 3],
                                                              image_id="i", split="val")])
        ds = load_dataset(path)
        assert np.isnan(ds.box[0]).all() and ds.box[1].tolist() == [0.0, 0.0, 2.0, 3.0]
        assert ds.image_id.tolist() == [None, "i"] and ds.split.tolist() == [None, "val"]
        assert ds.group.tolist() == [None, None] and ds.attributes.tolist() == [None, None]

    def test_rows_pick_a_sub_table(self, tmp_path):
        ds = synth_dataset(SynthConfig(num_classes=2, modes_per_class=1, samples_per_mode=3),
                           seed=1)
        part = ds[np.array([4, 0])]
        assert part.id.tolist() == ["r000004", "r000000"] and part.meta is ds.meta
        np.testing.assert_array_equal(part.features, ds.features[[4, 0]])
        assert len(ds[ds.label == "c001"]) == 3
        with pytest.raises(TypeError):
            ds[0]
        with pytest.raises(KeyError):
            ds.rows_of(["r000000", "nope"])

    def test_built_tables_are_checked(self):
        with pytest.raises(DatasetError, match="duplicate record id 'x'"):
            Dataset(["x", "y", "x"], ["a"] * 3, np.zeros((3, 2)))
        with pytest.raises(DatasetError, match="finite"):
            Dataset(["x"], ["a"], [[1.0, np.inf]])
        with pytest.raises(DatasetError, match="no records"):
            Dataset([], [], np.zeros((0, 2)))
        with pytest.raises(DatasetError, match="unequal"):
            Dataset(["x", "y"], ["a"], np.zeros((2, 2)))


class TestSynth:
    def test_foreground_count(self):
        ds = synth_dataset(SynthConfig(num_classes=5, modes_per_class=3, samples_per_mode=40), seed=0)
        fg = ds[~ds.is_background]
        assert len(fg) == 600
        assert np.unique(fg.label).tolist() == [f"c{i:03d}" for i in range(5)]

    def test_zero_spread_samples_equal_centers(self):
        cfg = SynthConfig(num_classes=2, modes_per_class=2, samples_per_mode=3, spread=0.0, input_dim=6)
        ds = synth_dataset(cfg, seed=1)
        centers = true_centers(ds)
        for label, features in zip(ds.label, ds.features):
            dists = np.linalg.norm(centers[label] - features, axis=1)
            assert dists.min() == 0.0

    def test_deterministic(self):
        cfg = SynthConfig(num_classes=3, modes_per_class=2, samples_per_mode=5, background_fraction=0.2)
        a = synth_dataset(cfg, seed=7)
        b = synth_dataset(cfg, seed=7)
        assert a.id.tolist() == b.id.tolist() and a.label.tolist() == b.label.tolist()
        np.testing.assert_array_equal(a.features, b.features)

    def test_bayes_error_monte_carlo(self):
        # nearest-center classification on fresh draws from the generating
        # mixture: with spread 0.05 and separation >= 1 errors are vanishing
        cfg = SynthConfig(num_classes=5, modes_per_class=3, samples_per_mode=2, spread=0.05)
        ds = synth_dataset(cfg, seed=3)
        centers = true_centers(ds)
        labels = sorted(centers)
        flat = np.concatenate([centers[l] for l in labels])
        owner = np.repeat(np.arange(len(labels)), cfg.modes_per_class)
        rng = np.random.default_rng(99)
        n, wrong = 20000, 0
        for _ in range(n // 100):
            li = rng.integers(0, len(labels))
            mi = rng.integers(0, cfg.modes_per_class)
            draws = centers[labels[li]][mi] + rng.normal(0, cfg.spread, size=(100, cfg.input_dim))
            d = ((flat[None, :, :] - draws[:, None, :]) ** 2).sum(axis=2)
            wrong += int((owner[d.argmin(axis=1)] != li).sum())
        assert wrong / n < 0.001

    def test_nearest_center_recovers_generating_mode(self):
        cfg = SynthConfig(num_classes=3, modes_per_class=2, samples_per_mode=4, spread=0.02)
        ds = synth_dataset(cfg, seed=5)
        for idx in range(len(ds)):
            want = (idx % (cfg.modes_per_class * cfg.samples_per_mode)) // cfg.samples_per_mode
            assert nearest_center_mode(ds, [idx])[0] == want

    def test_background_far_from_centers(self):
        cfg = SynthConfig(num_classes=2, modes_per_class=1, samples_per_mode=5, background_fraction=0.5)
        ds = synth_dataset(cfg, seed=9)
        bg = ds[ds.is_background]
        assert len(bg) == 5  # round(0.5 * 10)
        flat = np.concatenate(list(true_centers(ds).values()))
        for features in bg.features:
            assert np.linalg.norm(flat - features, axis=1).min() >= cfg.min_separation

    def test_unseen_tagging_and_splits(self):
        cfg = SynthConfig(num_classes=4, modes_per_class=1, samples_per_mode=10, unseen_classes=2, test_fraction=0.2)
        ds = synth_dataset(cfg, seed=11)
        classes = {group: np.unique(ds.label[~ds.is_background & (ds.group == group)]).tolist()
                   for group in ("seen", "unseen")}
        assert classes["seen"] == ["c000", "c001"]
        assert classes["unseen"] == ["c002", "c003"]
        for label in classes["unseen"]:
            assert all(split == "test" for split in ds.split[ds.label == label])
        for label in classes["seen"]:
            splits = ds.split[ds.label == label].tolist()
            assert splits.count("test") == 2 and splits.count("train") == 8

    def test_boxes_group_records_into_images(self):
        cfg = SynthConfig(
            num_classes=2, modes_per_class=1, samples_per_mode=8,
            with_boxes=True, rois_per_image=4,
        )
        ds = synth_dataset(cfg, seed=13)
        assert not np.equal(ds.image_id, None).any() and not np.isnan(ds.box).any()
        by_image: dict = {}
        for image_id, box in zip(ds.image_id, ds.box.tolist()):
            by_image.setdefault(image_id, []).append(tuple(box))
        for boxes in by_image.values():
            assert len(boxes) <= 4
            assert len(set(boxes)) == len(boxes)  # disjoint slots within an image

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(num_classes=0)
        with pytest.raises(ConfigError):
            SynthConfig(background_fraction=1.5)
        with pytest.raises(ConfigError):
            SynthConfig(unseen_classes=7, num_classes=5)

    def test_round_trip_preserves_centers_meta(self, tmp_path):
        ds = synth_dataset(SynthConfig(num_classes=2, modes_per_class=2, samples_per_mode=3), seed=17)
        path = tmp_path / "synth.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        got, want = true_centers(back), true_centers(ds)
        for label in want:
            np.testing.assert_array_equal(got[label], want[label])


# ---------------------------------------------------------------------------
# the per-record loader the column loader replaced, kept as its reference


@dataclass
class ReferenceRecord:
    id: str
    label: str
    features: np.ndarray
    box: tuple | None = None
    image_id: str | None = None
    attributes: np.ndarray | None = None
    split: str | None = None
    group: str | None = None


def reference_record(obj: dict, line: int, feature_dim: int | None) -> ReferenceRecord:
    # as it was, but for OverflowError: an int too large for a float used to
    # escape as a traceback, and both loaders now refuse it
    unknown = set(obj) - {"id", "label", "features", "box", "image_id", "attributes", "split",
                          "group"}
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
    except (TypeError, ValueError, OverflowError):
        raise DatasetError("features must be numbers", line) from None
    if features.ndim != 1 or not np.all(np.isfinite(features)):
        raise DatasetError("features must be a flat array of finite numbers", line)
    if feature_dim is not None and features.shape[0] != feature_dim:
        raise DatasetError(
            f"feature length {features.shape[0]} differs from earlier records ({feature_dim})",
            line,
        )
    box = None
    if obj.get("box") is not None:
        box = obj["box"]
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
        box = (x1, y1, x2, y2)
    attributes = None
    if obj.get("attributes") is not None:
        attrs = obj["attributes"]
        if not isinstance(attrs, list) or any(a not in (0, 1) for a in attrs):
            raise DatasetError("attributes must be an array of 0/1", line)
        attributes = np.asarray(attrs, dtype=np.int64)
    split = obj.get("split")
    if split is not None and split not in ("train", "val", "test"):
        raise DatasetError(f"split must be one of {('train', 'val', 'test')}, got {split!r}", line)
    group = obj.get("group")
    if group is not None and group not in ("seen", "unseen"):
        raise DatasetError(f"group must be one of {('seen', 'unseen')}, got {group!r}", line)
    image_id = obj.get("image_id")
    if image_id is not None and not isinstance(image_id, str):
        raise DatasetError(f"image_id must be a string, got {image_id!r}", line)
    return ReferenceRecord(rid, label, features, box, image_id, attributes, split, group)


def reference_json_lines(path, kind: str):
    """The line reader as it was, one `json.loads` call per line."""
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
                except (ValueError, RecursionError) as e:
                    raise DatasetError(f"invalid JSON: {e}", line_no) from None
                if not isinstance(obj, dict):
                    raise DatasetError("each line must be a JSON object", line_no)
                if "kind" in obj:
                    if line_no != 1:
                        raise DatasetError("header line must come first", line_no)
                    if obj["kind"] != kind:
                        raise DatasetError(f"expected kind {kind!r}, got {obj['kind']!r}", line_no)
                    if obj.get("schema_version") != 1:
                        raise DatasetError(
                            f"unsupported schema_version {obj.get('schema_version')!r}", line_no
                        )
                yield line_no, obj
        except UnicodeDecodeError as e:
            raise DatasetError(f"{path}: not UTF-8 text ({e.reason})") from None


def reference_load(path) -> tuple[list[ReferenceRecord], dict]:
    """Every record checked in full, one line at a time, before the next."""
    records, seen, meta, feature_dim = [], set(), {}, None
    for line_no, obj in reference_json_lines(path, "dataset"):
        if "kind" in obj:
            meta = obj.get("meta", {}) or {}
            if not isinstance(meta, dict):
                raise DatasetError(f"header meta must be an object, got {meta!r}", line_no)
            continue
        rec = reference_record(obj, line_no, feature_dim)
        feature_dim = rec.features.shape[0]
        if rec.id in seen:
            raise DatasetError(f"duplicate record id {rec.id!r}", line_no)
        seen.add(rec.id)
        records.append(rec)
    if not records:
        raise DatasetError(f"no records in {path}")
    return records, meta


def outcome(load, path):
    """What a loader makes of a file: its result, or its error's type,
    message and line."""
    try:
        return "loaded", load(path)
    except Exception as e:  # a crash must match too
        return "refused", (type(e), str(e), getattr(e, "line", None))


def assert_same_table(ds: Dataset, records: list[ReferenceRecord], meta: dict):
    assert ds.meta == meta
    assert ds.features.tobytes() == np.stack([r.features for r in records]).tobytes()
    boxes = np.array([r.box if r.box is not None else (np.nan,) * 4 for r in records])
    assert ds.box.tobytes() == boxes.tobytes()
    for name in ("id", "label", "image_id", "split", "group"):
        assert getattr(ds, name).tolist() == [getattr(r, name) for r in records], name
    for got, want in zip(ds.attributes, (r.attributes for r in records)):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
odd_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(10**300, 10**320),
    st.sampled_from([float("nan"), float("inf"), -0.0, 1e308, "1.5", "", "x\u0000", "test",
                     "seen", "unseen", "background", [], {}, [[1.0]], [1.0, "a"], [0, 1, 2],
                     [0, 0, 1, 1], [0, 1, 1, 0], [1.0, None], [float("inf")]]),
    st.lists(st.one_of(finite, st.integers(0, 1)), max_size=4), st.text(max_size=3),
)


@st.composite
def valid_record(draw, dim, index):
    obj = {"id": draw(st.sampled_from([f"r{index}", f"r{index}-{draw(st.integers(0, 9))}"])),
           "label": draw(st.sampled_from(["a", "b", "c", BACKGROUND_LABEL])),
           "features": draw(st.lists(finite, min_size=dim, max_size=dim))}
    if draw(st.booleans()):
        x, y = draw(st.floats(-1e6, 1e6)), draw(st.floats(-10, 10))
        obj["box"] = [x, y, x + draw(st.floats(0.5, 5)), y + 1.0]
    for key, values in (("image_id", st.text(max_size=4)),
                        ("attributes", st.lists(st.integers(0, 1), max_size=3)),
                        ("split", st.sampled_from(["train", "val", "test"])),
                        ("group", st.sampled_from(["seen", "unseen"]))):
        if draw(st.booleans()):
            obj[key] = draw(values)
    return obj


@st.composite
def dataset_text(draw):
    """A valid dataset file, then truncated, byte-flipped or field-mutated."""
    dim = draw(st.integers(1, 4))
    objs = [draw(valid_record(dim, i)) for i in range(draw(st.integers(1, 6)))]
    for i, obj in enumerate(objs):  # keep the drawn file valid: ids distinct
        obj["id"] = f"{obj['id']}.{i}"
    ids = [obj["id"] for obj in objs]
    header = ([json.dumps({"schema_version": 1, "kind": "dataset", "meta": {"seed": 3}})]
              if draw(st.booleans()) else [])
    lines = header + [json.dumps(obj) for obj in objs]
    mutation = draw(st.sampled_from(["none", "truncate", "flip", "field", "fields"]))
    if mutation in ("field", "fields"):
        for _ in range(1 if mutation == "field" else draw(st.integers(2, 4))):
            i = draw(st.integers(0, len(objs) - 1))
            obj = dict(objs[i])
            action = draw(st.sampled_from(["set", "drop", "add", "copy_id", "features"]))
            key = draw(st.sampled_from(["id", "label", "features", "features", "box", "box",
                                        "image_id", "attributes", "split", "group"]))
            if action == "set":
                obj[key] = draw(odd_values)
            elif action == "drop":
                obj.pop(key, None)
            elif action == "add":
                obj[draw(st.sampled_from(["color", "kind", "Id"]))] = 1
            elif action == "copy_id":
                obj["id"] = draw(st.sampled_from(ids))
            else:
                obj["features"] = draw(st.lists(st.one_of(finite, odd_values), max_size=dim + 1))
            objs[i] = obj
            lines[len(header) + i] = json.dumps(obj)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if mutation == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif mutation == "flip":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data


@settings(max_examples=400, deadline=None)
@given(data=dataset_text())
@example(data=b'{"id": "a", "label": "x", "features": [1.0, Infinity]}\n'
              b'{"id": "a", "label": "x", "features": [1.0, 2.0], "box": 3}\n')
@example(data=b'{"id": "a", "label": "x", "features": [1.0, 2.0]}\n'
              b'{"id": "a", "label": "x", "features": [NaN, 2.0]}\n'
              b'{"id": "b", "label": "x", "features": [1.0, 2.0]}\n')
@example(data=b'{"id": "a", "label": "x", "features": [1.0, 2.0]}\n'
              b'{"id": "b", "label": "x", "features": [NaN, 2.0, 3.0]}\n')
@example(data=b'{"id": "a", "label": "x", "features": [1.0, 2.0]}\n'
              b'{"id": "b", "label": "x", "features": [NaN, 2.0], "split": "dev"}\n')
@example(data=b'{"id": "a", "label": "x", "features": [Infinity, 2.0]}\n\xff\n')
@example(data=b'{"id": "a", "label": "x", "features": [1.0, 1' + b'0' * 320 + b']}\n')
# lines that one raw_decode call does not read to the end, or refuses
@example(data=b'{"id": "a", "label": "x", "features": [1.0, 2.0]}\n'
              b'{"id": "b", "label": "x", "features": [1.0, 2.0]} x\n')
@example(data=b'{"id": "a", "label": "x", "features": [1.0, 2.0]}'
              b'{"id": "b", "label": "x", "features": [1.0, 2.0]}\n')
@example(data=b'{"id": "a", "label": "x", "features": [1.0, 2.0]} \t {}\n')
@example(data=b'\xef\xbb\xbf{"id": "a", "label": "x", "features": [1.0, 2.0]}\n')
@example(data=b'\xe2\x80\x83{"id": "a", "label": "x", "features": [1.0, 2.0]}\xc2\xa0\n')
def test_column_loader_matches_the_per_record_loader(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(data)
        got, want = outcome(load_dataset, path), outcome(reference_load, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "refused":
        assert got[1] == want[1]
    else:
        assert_same_table(got[1], *want[1])


@pytest.fixture(scope="module")
def classify_checkpoint(tmp_path_factory):
    """A checkpoint for three classes a, b, c over 2 features."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    ds = Dataset([f"t{i}" for i in range(30)], ["abc"[i % 3] for i in range(30)],
                 rng.normal(size=(30, 2)))
    save_dataset(ds, root / "data.jsonl")
    config = root / "run.json"
    config.write_text(json.dumps({"layer_widths": [8, 4], "iterations": 3,
                                  "classes_per_batch": 2, "instances_per_class": 2}))
    assert cli.main(["train", "--config", str(config), "--data", str(root / "data.jsonl"),
                     "--out", str(root / "model")]) == 0
    return root / "model" / "checkpoint.json"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=dataset_text())
@example(data=b'{"id": "a", "label": "a", "features": [1.0, 1' + b'0' * 320 + b']}\n')
@example(data=b'{"id": "a", "label": "a", "features": [1.0, 2.0], "box": [1' + b'0' * 320
              + b', 0, 1, 1]}\n')
@example(data=b'{"id": "a", "label": "a", "features": [1.0, 2.0, 3.0]}\n'
              b'{"id": "b", "label": "b", "features": [1.0, 2.0, 3.0]}\n'
              b'{"id": "c", "label": "c", "features": [1.0, 2.0, 3.0]}\n')
@example(data=b'{"id": "a", "label": "a", "features": [1.0, 2.0], "box": [' + b'1' * 5000
              + b', 0, 1, 1]}\n')
@example(data=b'{"id": "a", "label": "a", "features": [1.0, 2.0], "attributes": '
              + b'[' * 100_000 + b']' * 100_000 + b'}\n')
def test_eval_classify_on_a_mutated_file_fails_cleanly(classify_checkpoint, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(data)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = cli.main(["eval-classify", "--data", str(path), "--checkpoint",
                             str(classify_checkpoint), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""

