"""Dataset wire format, validation error lines, and the synthetic oracle."""

import json

import numpy as np
import pytest

from mixrep.data import (
    BACKGROUND_LABEL,
    Dataset,
    FeatureRecord,
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
        assert [r.id for r in ds] == ["r1", "r2", "r3"]

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
        records = [
            FeatureRecord(
                id=f"r{i}",
                label="a" if i % 2 else BACKGROUND_LABEL,
                features=rng.normal(size=7),
                box=(0.5, 1.5, 2.25, 3.125),
                image_id=f"img{i // 2}",
                attributes=np.array([0, 1, 1]),
                split="train",
                group="seen" if i % 2 else None,
            )
            for i in range(4)
        ]
        ds = Dataset(records, meta={"note": [1, 2.5]})
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.meta == ds.meta
        for a, b in zip(ds.records, back.records):
            assert a.id == b.id and a.label == b.label
            np.testing.assert_array_equal(a.features, b.features)
            assert a.box == b.box and a.image_id == b.image_id
            np.testing.assert_array_equal(a.attributes, b.attributes)
            assert a.split == b.split and a.group == b.group

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
        assert ds.classes() == ["a", "b"]  # sorted, background excluded
        assert [r.id for r in ds.records if r.label == "a"] == ["r2", "r3"]
        assert [r.id for r in ds.select(label="a", split="train")] == ["r3"]
        np.testing.assert_array_equal(
            np.stack([ds.by_id[i].features for i in ["r2", "r1"]]),
            np.array([[1.0, 2.0], [1.0, 2.0]]),
        )


class TestSynth:
    def test_foreground_count(self):
        ds = synth_dataset(SynthConfig(num_classes=5, modes_per_class=3, samples_per_mode=40), seed=0)
        fg = [r for r in ds if not r.is_background]
        assert len(fg) == 600
        assert ds.classes() == [f"c{i:03d}" for i in range(5)]

    def test_zero_spread_samples_equal_centers(self):
        cfg = SynthConfig(num_classes=2, modes_per_class=2, samples_per_mode=3, spread=0.0, input_dim=6)
        ds = synth_dataset(cfg, seed=1)
        centers = true_centers(ds)
        for rec in ds:
            dists = np.linalg.norm(centers[rec.label] - rec.features, axis=1)
            assert dists.min() == 0.0

    def test_deterministic(self):
        cfg = SynthConfig(num_classes=3, modes_per_class=2, samples_per_mode=5, background_fraction=0.2)
        a = synth_dataset(cfg, seed=7)
        b = synth_dataset(cfg, seed=7)
        for ra, rb in zip(a, b):
            assert ra.id == rb.id and ra.label == rb.label
            np.testing.assert_array_equal(ra.features, rb.features)

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
        for idx, rec in enumerate(ds):
            want = (idx % (cfg.modes_per_class * cfg.samples_per_mode)) // cfg.samples_per_mode
            assert nearest_center_mode(ds, rec) == want

    def test_background_far_from_centers(self):
        cfg = SynthConfig(num_classes=2, modes_per_class=1, samples_per_mode=5, background_fraction=0.5)
        ds = synth_dataset(cfg, seed=9)
        bg = [r for r in ds if r.is_background]
        assert len(bg) == 5  # round(0.5 * 10)
        flat = np.concatenate(list(true_centers(ds).values()))
        for rec in bg:
            assert np.linalg.norm(flat - rec.features, axis=1).min() >= cfg.min_separation

    def test_unseen_tagging_and_splits(self):
        cfg = SynthConfig(num_classes=4, modes_per_class=1, samples_per_mode=10, unseen_classes=2, test_fraction=0.2)
        ds = synth_dataset(cfg, seed=11)
        assert ds.classes(group="seen") == ["c000", "c001"]
        assert ds.classes(group="unseen") == ["c002", "c003"]
        for label in ds.classes(group="unseen"):
            assert all(r.split == "test" for r in ds.select(label=label))
        for label in ds.classes(group="seen"):
            splits = [r.split for r in ds.select(label=label)]
            assert splits.count("test") == 2 and splits.count("train") == 8

    def test_boxes_group_records_into_images(self):
        cfg = SynthConfig(
            num_classes=2, modes_per_class=1, samples_per_mode=8,
            with_boxes=True, rois_per_image=4,
        )
        ds = synth_dataset(cfg, seed=13)
        assert all(r.image_id is not None and r.box is not None for r in ds)
        by_image: dict = {}
        for r in ds.records:
            by_image.setdefault(r.image_id, []).append(r.box)
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
