"""Detection matching, PR/AP, recall, and retrieval metrics."""

import csv
import dataclasses
import itertools
import json
from collections import Counter, namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixrep import cli
from mixrep.config import EmbeddingConfig, MixtureConfig, RunConfig, SynthConfig
from mixrep.data import load_dataset, synth_dataset
from mixrep.episodes import evaluate_episodes, load_episodes
from mixrep.errors import ConfigError, DatasetError
from mixrep.head import MixtureHead, load_checkpoint
from mixrep.metrics import (
    Detections,
    GroundTruth,
    _group_ids,
    attribute_neighborhood_precision,
    average_precision,
    classification_error,
    iou,
    map_over_episodes,
    match_detections,
    per_class_ap,
    pr_curve,
    recall_at_k,
)
from mixrep.rng import substream
from mixrep.training import class_index_map, fit

# One row of each table, its fields in the order of the table's columns.
Det = namedtuple("Det", "episode_id image_id class_id box score record_id")
Gt = namedtuple("Gt", "episode_id image_id class_id box")


def det(score, box=(0, 0, 10, 10), episode=0, image="img0", cls="cat", rid=""):
    return Det(episode, image, cls, box, score, rid)


def gt(box=(0, 0, 10, 10), episode=0, image="img0", cls="cat"):
    return Gt(episode, image, cls, box)


def dets(rows):
    return Detections(*(zip(*rows) if rows else [()] * 6))


def gts(rows):
    return GroundTruth(*(zip(*rows) if rows else [()] * 4))


def match(records, truth, **kw):
    return match_detections(dets(records), gts(truth), **kw).tolist()


def ap(labeled, num_gt):
    """AP of (Det, is_tp) pairs."""
    return average_precision(dets([r for r, _ in labeled]), [tp for _, tp in labeled], num_gt)


class TestIou:
    def test_identical_boxes(self):
        assert iou((0, 0, 2, 3), (0, 0, 2, 3)) == 1.0

    def test_disjoint_boxes(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_edge_touching_is_zero(self):
        assert iou((0, 0, 1, 1), (1, 0, 2, 1)) == 0.0

    def test_hand_value_one_seventh(self):
        assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == 1.0 / 7.0

    def test_containment(self):
        assert iou((0, 0, 4, 4), (1, 1, 2, 2)) == 1.0 / 16.0

    def test_symmetry(self):
        a, b = (0.0, 0.5, 3.5, 2.0), (1.0, 1.0, 5.0, 4.0)
        assert iou(a, b) == iou(b, a)

    def test_zero_area_rejected(self):
        with pytest.raises(DatasetError):
            iou((0, 0, 0, 1), (0, 0, 1, 1))
        with pytest.raises(DatasetError):
            iou((0, 0, 1, 1), (2, 2, 2, 2))

    def test_broadcast_matches_each_pair(self):
        a = np.array([[0, 0, 2, 2], [0, 0, 4, 4], [0, 0, 1, 1]], dtype=float)
        b = np.array([[1, 1, 3, 3], [1, 1, 2, 2], [1, 0, 2, 1]], dtype=float)
        matrix = iou(a[:, None], b[None, :])
        assert matrix.shape == (3, 3)
        assert all(matrix[i, j] == iou(tuple(a[i]), tuple(b[j]))
                   for i in range(3) for j in range(3))
        assert isinstance(iou(tuple(a[0]), tuple(b[0])), float)


class TestRecordValidation:
    def test_score_range_enforced(self):
        for score in (1.5, -0.1, float("nan"), float("inf")):
            with pytest.raises(DatasetError):
                dets([det(score)])

    def test_degenerate_box_rejected(self):
        with pytest.raises(DatasetError):
            dets([det(0.5, box=(3, 3, 3, 5))])
        with pytest.raises(DatasetError):
            gts([gt(box=(0, 0, float("inf"), 1))])

    def test_ragged_columns_rejected(self):
        with pytest.raises(DatasetError):
            GroundTruth([0, 0], ["i", "i"], ["c"], [(0, 0, 1, 1), (0, 0, 1, 1)])
        with pytest.raises(DatasetError):
            GroundTruth([0], ["i"], ["c"], [(0, 0, 1)])

    def test_rank_orders_score_then_record_id_then_position(self):
        rows = [det(0.5, rid="b"), det(0.9, rid="z"), det(0.5, rid="a"), det(0.5, rid="a")]
        assert dets(rows).rank.tolist() == [3, 0, 1, 2]
        # a subset keeps the order of its rows
        assert np.argsort(dets(rows)[[0, 3]].rank).tolist() == [1, 0]

    @pytest.mark.parametrize("column", ["image_id", "class_id", "record_id"])
    def test_a_string_column_refuses_a_value_that_is_not_a_string(self, column):
        row = det(0.5)._replace(**{column: None})
        with pytest.raises(DatasetError, match=f"detections: {column} values must be strings, "
                                               f"got None"):
            dets([row])
        if column != "record_id":
            with pytest.raises(DatasetError, match=f"ground truth: {column} values must be "
                                                   f"strings, got 3"):
                gts([gt()._replace(**{column: 3})])

    def test_string_columns_hold_the_given_objects(self):
        image, cls, rid = "".join(["im", "g"]), "".join(["c", "at"]), "".join(["r", "1"])
        table = dets([det(0.5, image=image, cls=cls, rid=rid)])
        assert table.image_id[0] is image and table.class_id[0] is cls
        assert table.record_id[0] is rid

    def test_concat_ranks_the_pooled_rows(self):
        first, second = dets([det(0.5, rid="b")]), dets([det(0.5, rid="a")])
        pooled = Detections.concat([first, second])
        assert pooled.rank.tolist() == [1, 0]
        assert len(Detections.concat([])) == 0 and len(GroundTruth.concat([])) == 0


class TestMatchDetections:
    def test_single_hit(self):
        assert match([det(0.9)], [gt()]) == [True]

    def test_second_detection_on_same_gt_is_fp(self):
        records = [det(0.6, rid="b"), det(0.9, rid="a")]
        assert match(records, [gt()]) == [False, True]

    def test_score_tie_goes_to_lower_record_id(self):
        records = [det(0.7, rid="z"), det(0.7, rid="a")]
        assert match(records, [gt()]) == [False, True]

    def test_iou_exactly_at_threshold_counts(self):
        # boxes overlap with IoU exactly 1/3
        records = [det(0.9, box=(0, 0, 2, 1))]
        truth = [gt(box=(1, 0, 3, 1))]
        assert match(records, truth, iou_threshold=1.0 / 3.0) == [True]
        assert match(records, truth, iou_threshold=0.34) == [False]

    def test_detection_takes_best_overlap(self):
        records = [det(0.9, box=(0, 0, 10, 10))]
        truth = [gt(box=(4, 4, 14, 14)), gt(box=(1, 1, 11, 11))]
        flags = match(records, truth)
        assert flags == [True]
        # the better-overlapped gt is consumed: an equal box on the other gt
        # still matches it
        records2 = records + [det(0.5, box=(4, 4, 14, 14))]
        assert match(records2, truth) == [True, True]

    def test_equal_overlaps_go_to_the_first_box(self):
        # the first detection overlaps both boxes by 1/2 and takes the first,
        # which is the only box the second detection could have matched
        records = [det(0.9, box=(0, 0, 2, 1)), det(0.5, box=(0, 0, 1, 1))]
        truth = [gt(box=(0, 0, 1, 1)), gt(box=(1, 0, 2, 1))]
        assert match(records, truth) == [True, False]
        assert match(records, truth[::-1]) == [True, True]

    def test_matching_confined_to_group(self):
        # same geometry in another image, episode, or class never interacts
        records = [
            det(0.9, image="img1"),
            det(0.8, episode=1),
            det(0.7, cls="dog"),
            det(0.6),
        ]
        assert match(records, [gt()]) == [False, False, False, True]

    def test_input_order_preserved(self):
        records = [det(0.2, rid="a"), det(0.9, rid="b")]
        truth = [gt()]
        assert match(records, truth) == [False, True]

    def test_empty_tables(self):
        assert match([], [gt()]) == []
        assert match([det(0.9)], []) == [False]

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            match([det(0.5)], [gt()], iou_threshold=0.0)


def reference_match(records, truth, iou_threshold):
    """The per-record greedy matcher: detections and boxes grouped in
    dicts, each group's detections visited in sorted rank-key order, one
    scalar IoU per pair, the first of equal best overlaps claimed."""
    boxes: dict[tuple, list] = {}
    for g in truth:
        boxes.setdefault((g.episode_id, g.image_id, g.class_id), []).append(g.box)
    groups: dict[tuple, list] = {}
    for i, r in enumerate(records):
        groups.setdefault((r.episode_id, r.image_id, r.class_id), []).append(i)
    flags = [False] * len(records)
    for key, members in groups.items():
        candidates = boxes.get(key, [])
        taken = [False] * len(candidates)
        for i in sorted(members, key=lambda i: (-records[i].score, records[i].record_id, i)):
            best_j, best_iou = -1, 0.0
            for j, box in enumerate(candidates):
                if taken[j]:
                    continue
                v = iou(records[i].box, box)
                if v >= iou_threshold and v > best_iou:
                    best_j, best_iou = j, v
            if best_j >= 0:
                taken[best_j] = flags[i] = True
    return flags


def reference_map(records, truth, iou_threshold):
    """mAP from the reference labels: each class's detections sorted by the
    rank key, then the cumulative precision/recall and its envelope."""
    flags = reference_match(records, truth, iou_threshold)
    aps = []
    for class_id, num_gt in sorted(Counter(g.class_id for g in truth).items()):
        rows = sorted((i for i, r in enumerate(records) if r.class_id == class_id),
                      key=lambda i: (-records[i].score, records[i].record_id, i))
        if not rows:
            aps.append(0.0)
            continue
        hits = np.array([flags[i] for i in rows], dtype=bool)
        tp, fp = np.cumsum(hits), np.cumsum(~hits)
        precision, recall = tp / (tp + fp), tp / num_gt
        envelope = np.maximum.accumulate(precision[::-1])[::-1]
        prev = np.concatenate([[0.0], recall[:-1]])
        aps.append(float(np.sum((recall - prev) * envelope)))
    return float(np.mean(aps))


def reference_recall(records, truth, k, iou_threshold):
    """Recall@k from the reference labels of each image's k best detections."""
    images: dict[tuple, list] = {}
    for i, r in enumerate(records):
        images.setdefault((r.episode_id, r.image_id), []).append(i)
    kept = []
    for key in sorted(images):
        ranked = sorted(images[key], key=lambda i: (-records[i].score, records[i].record_id, i))
        kept.extend(records[i] for i in ranked[:k])
    return sum(reference_match(kept, truth, iou_threshold)) / len(truth)


# Small grids make ties, duplicate boxes and IoUs exactly at the threshold
# common; two episodes, images and classes give several groups, some of
# them with detections and no ground truth or the other way round.
grid_boxes = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 2),
                       st.integers(1, 2)).map(lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))
places = st.tuples(st.integers(0, 1), st.sampled_from(["i0", "i1"]),
                   st.sampled_from(["cat", "dog"]))
det_rows = st.lists(st.builds(lambda p, box, score, rid: Det(*p, box, score, rid), places,
                              grid_boxes, st.sampled_from([0.2, 0.5, 0.9, 1.0]),
                              st.sampled_from(["", "a", "b"])), max_size=14)
gt_rows = st.lists(st.builds(lambda p, box: Gt(*p, box), places, grid_boxes), max_size=8)
thresholds = st.sampled_from([1.0 / 3.0, 0.5, 0.25, 1.0 / 7.0, 2.0 / 3.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(records=det_rows, truth=gt_rows, iou_threshold=thresholds)
@example(records=[det(0.9, box=(0, 0, 2, 1)), det(0.5, box=(0, 0, 1, 1))],
         truth=[gt(box=(0, 0, 1, 1)), gt(box=(1, 0, 2, 1))], iou_threshold=0.5)
def test_array_matcher_agrees_with_reference(records, truth, iou_threshold):
    assert match(records, truth, iou_threshold=iou_threshold) == \
        reference_match(records, truth, iou_threshold)
    if truth:
        detections, boxes = dets(records), gts(truth)
        assert map_over_episodes(detections, boxes, iou_threshold) == \
            reference_map(records, truth, iou_threshold)
        for k in (1, 2, 3):
            assert recall_at_k(detections, boxes, k, iou_threshold) == \
                reference_recall(records, truth, k, iou_threshold)


def oracle_match(records, truth, iou_threshold):
    """Exhaustive reference: enumerate every injective detection-to-gt
    assignment, keep the unique one consistent with score-ordered greedy
    claiming, and return its TP flags."""
    order = sorted(
        range(len(records)),
        key=lambda i: (-records[i].score, records[i].record_id or "", i),
    )
    def compatible(i, j):
        r, g = records[i], truth[j]
        if (r.episode_id, r.image_id, r.class_id) != (g.episode_id, g.image_id, g.class_id):
            return False
        return iou(r.box, g.box) >= iou_threshold

    choices = [[None] + [j for j in range(len(truth)) if compatible(i, j)] for i in order]
    consistent = []
    for assign in itertools.product(*choices):
        used = [j for j in assign if j is not None]
        if len(used) != len(set(used)):
            continue
        ok = True
        taken = set()
        for pos, i in enumerate(order):
            eligible = [(iou(records[i].box, truth[j].box), -j)
                        for j in choices[pos] if j is not None and j not in taken]
            if assign[pos] is None:
                if eligible:
                    ok = False
                    break
            else:
                best = max(eligible)
                if (iou(records[i].box, truth[assign[pos]].box), -assign[pos]) != best:
                    ok = False
                    break
                taken.add(assign[pos])
        if ok:
            consistent.append(assign)
    assert len(consistent) == 1, "greedy outcome must be unique"
    flags = [False] * len(records)
    for pos, i in enumerate(order):
        flags[i] = consistent[0][pos] is not None
    return flags


class TestMatchOracle:
    def test_random_instances_match_exhaustive_oracle(self):
        rng = substream(77, "match", "oracle")
        scores = (0.3, 0.6, 0.9)
        for trial in range(300):
            n_det = int(rng.integers(1, 6))
            n_gt = int(rng.integers(0, 4))
            records = []
            for i in range(n_det):
                x1, y1 = rng.integers(0, 6, size=2)
                w, h = rng.integers(1, 6, size=2)
                records.append(det(
                    scores[int(rng.integers(0, 3))],
                    box=(float(x1), float(y1), float(x1 + w), float(y1 + h)),
                    rid=f"r{int(rng.integers(0, 10)):02d}",
                ))
            truth = []
            for _ in range(n_gt):
                x1, y1 = rng.integers(0, 6, size=2)
                w, h = rng.integers(1, 6, size=2)
                truth.append(gt(box=(float(x1), float(y1), float(x1 + w), float(y1 + h))))
            got = match(records, truth, iou_threshold=0.3)
            want = oracle_match(records, truth, 0.3)
            assert got == want, (trial, records, truth)


class TestAveragePrecision:
    def frozen_example(self):
        records = [det(0.9, rid="a"), det(0.8, rid="b"), det(0.7, rid="c")]
        return list(zip(records, [True, False, True]))

    def test_frozen_hand_value(self):
        assert ap(self.frozen_example(), 2) == pytest.approx(5.0 / 6.0, abs=1e-9)

    def test_all_tp_is_one(self):
        labeled = [(det(0.9, rid="a"), True), (det(0.5, rid="b"), True)]
        assert ap(labeled, 2) == 1.0

    def test_no_tp_is_zero(self):
        labeled = [(det(0.9), False)]
        assert ap(labeled, 1) == 0.0

    def test_empty_detections_zero(self):
        assert ap([], 3) == 0.0

    def test_num_gt_validated(self):
        with pytest.raises(ConfigError):
            ap([], 0)

    def test_monotone_score_transform_invariance(self):
        rng = substream(12, "ap", "mono")
        for _ in range(25):
            n = int(rng.integers(1, 12))
            scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
            flags = rng.random(n) < 0.5
            num_gt = int(flags.sum()) + int(rng.integers(1, 3))
            base = [(det(float(s), rid=f"r{i}"), bool(f))
                    for i, (s, f) in enumerate(zip(scores, flags))]
            moved = [(det(float(np.tanh(2.0 * s)), rid=f"r{i}"), bool(f))
                     for i, (s, f) in enumerate(zip(scores, flags))]
            assert ap(base, num_gt) == pytest.approx(ap(moved, num_gt), abs=1e-12)

    def test_curve_invariants(self):
        rng = substream(13, "ap", "curve")
        for _ in range(20):
            n = int(rng.integers(1, 15))
            labeled = [(det(float(rng.random()), rid=f"r{i}"), bool(rng.random() < 0.4))
                       for i in range(n)]
            curve = pr_curve(dets([r for r, _ in labeled]), [f for _, f in labeled],
                             max(1, sum(f for _, f in labeled)))
            assert np.all(np.diff(curve.recall) >= 0)
            assert np.all((curve.precision >= 0) & (curve.precision <= 1))
            assert np.all(np.diff(curve.thresholds) <= 0)
            assert 0.0 <= curve.ap <= 1.0


class TestMapOverEpisodes:
    def test_single_class_reduces_to_ap(self):
        records = [det(0.9, rid="a"), det(0.8, box=(20, 20, 30, 30), rid="b"),
                   det(0.7, box=(0, 0, 10, 10), rid="c")]
        truth = [gt(), gt(box=(50, 50, 60, 60))]
        flags = match(records, truth)
        want = ap(list(zip(records, flags)), 2)
        assert map_over_episodes(dets(records), gts(truth)) == pytest.approx(want, abs=1e-12)

    def test_duplicated_episode_invariance(self):
        base = [det(0.9, rid="a"), det(0.6, box=(30, 0, 40, 10), rid="b")]
        truth = [gt()]
        doubled = base + [det(r.score, box=r.box, episode=1, rid=r.record_id + "x")
                          for r in base]
        truth2 = truth + [gt(episode=1)]
        assert map_over_episodes(dets(base), gts(truth)) == pytest.approx(
            map_over_episodes(dets(doubled), gts(truth2)), abs=1e-12)

    def test_pooled_differs_from_episode_average(self):
        # episode 0: one perfect detection. episode 1: a high-scoring miss
        # outranks the hit once pooled.
        records = [
            det(0.9, episode=0, rid="a"),
            det(0.95, episode=1, box=(30, 0, 40, 10), rid="b"),
            det(0.5, episode=1, rid="c"),
        ]
        truth = [gt(episode=0), gt(episode=1)]
        pooled = map_over_episodes(dets(records), gts(truth))
        per_episode = [
            map_over_episodes(dets([r for r in records if r.episode_id == e]),
                              gts([g for g in truth if g.episode_id == e]))
            for e in (0, 1)
        ]
        averaged = float(np.mean(per_episode))
        assert pooled == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert averaged == pytest.approx(0.75, abs=1e-12)
        assert abs(pooled - averaged) > 0.05

    def test_class_without_gt_excluded(self):
        records = [det(0.9, rid="a"), det(0.8, cls="dog", rid="b")]
        truth = [gt()]
        aps = per_class_ap(dets(records), gts(truth))
        assert set(aps) == {"cat"}
        assert map_over_episodes(dets(records), gts(truth)) == aps["cat"]

    def test_no_gt_rejected(self):
        with pytest.raises(ConfigError):
            map_over_episodes(dets([det(0.9)]), gts([]))

    def test_classes_differing_in_a_trailing_nul_are_two_classes(self):
        records = [det(0.9, cls="a", rid="x"), det(0.8, cls="a\x00", rid="y")]
        truth = [gt(cls="a"), gt(cls="a\x00")]
        assert per_class_ap(dets(records), gts(truth)) == {"a": 1.0, "a\x00": 1.0}


class TestRecallAtK:
    def three_image_instance(self):
        records = [
            det(0.9, image="i0", rid="a"),                      # hit
            det(0.8, image="i0", box=(30, 0, 40, 10), rid="b"),  # miss
            det(0.7, image="i1", box=(30, 0, 40, 10), rid="c"),  # miss, outranks d
            det(0.6, image="i1", rid="d"),                      # hit but cut at k=1
            det(0.5, image="i2", cls="dog", rid="e"),           # wrong class
        ]
        truth = [gt(image="i0"), gt(image="i1"), gt(image="i2")]
        return records, truth

    def test_hand_counted_example(self):
        records, truth = self.three_image_instance()
        assert recall_at_k(dets(records), gts(truth), k=1) == pytest.approx(1.0 / 3.0)
        assert recall_at_k(dets(records), gts(truth), k=2) == pytest.approx(2.0 / 3.0)

    def test_k_past_detection_count_saturates(self):
        records, truth = self.three_image_instance()
        full = match(records, truth)
        assert recall_at_k(dets(records), gts(truth), k=50) == sum(full) / len(truth)

    def test_non_decreasing_in_k(self):
        rng = substream(3, "recall")
        records, truth = [], []
        for e in range(2):
            for i in range(3):
                img = f"i{i}"
                truth.append(gt(episode=e, image=img,
                                box=(float(i * 10), 0.0, float(i * 10 + 8), 8.0)))
                for d in range(4):
                    x = float(rng.integers(0, 30))
                    records.append(det(float(rng.random()), episode=e, image=img,
                                       box=(x, 0.0, x + 8.0, 8.0), rid=f"e{e}i{i}d{d}"))
        values = [recall_at_k(dets(records), gts(truth), k) for k in range(1, 9)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_top_k_pools_classes(self):
        # k=1 keeps only the dog detection, so the cat gt cannot match
        records = [det(0.9, cls="dog", rid="a"), det(0.8, rid="b")]
        truth = [gt()]
        assert recall_at_k(dets(records), gts(truth), k=1) == 0.0
        assert recall_at_k(dets(records), gts(truth), k=2) == 1.0

    def test_k_validated(self):
        with pytest.raises(ConfigError):
            recall_at_k(dets([det(0.9)]), gts([gt()]), k=0)

    def test_images_differing_in_a_trailing_nul_are_two_images(self):
        records = [det(0.9, image="img", rid="a"), det(0.8, image="img\x00", rid="b")]
        truth = [gt(image="img"), gt(image="img\x00")]
        assert recall_at_k(dets(records), gts(truth), k=1) == 1.0


def unique_group_ids(*columns) -> np.ndarray:
    """Group ids by sorting: np.unique over each column, then over the rows
    of their inverses."""
    inverses = [np.unique(col, return_inverse=True)[1] for col in columns]
    return np.unique(np.stack(inverses, axis=1), axis=0, return_inverse=True)[1].reshape(-1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(["img", "img\x00", "", "\x00"]),
                          st.text(max_size=3)), min_size=1, max_size=30))
def test_group_ids_partition_rows_as_unique_does(rows):
    columns = [np.array([row[i] for row in rows], dtype=object) for i in range(3)]
    for picked in ([0], [1], [2], [0, 1], [0, 1, 2]):
        ids = _group_ids(*(columns[i] for i in picked))
        reference = unique_group_ids(*(columns[i] for i in picked))
        assert np.array_equal(ids[:, None] == ids[None, :],
                              reference[:, None] == reference[None, :])


class TestAttributePrecision:
    def test_two_separated_clusters_perfect(self):
        rng = substream(8, "attr", "clusters")
        a = rng.normal(0.0, 0.05, size=(20, 5))
        b = rng.normal(8.0, 0.05, size=(20, 5))
        E = np.vstack([a, b])
        A = np.zeros((40, 2), dtype=int)
        A[:20, 0] = 1
        A[20:, 1] = 1
        result = attribute_neighborhood_precision(E, A, sizes=(1, 5, 19))
        assert result == {1: 1.0, 5: 1.0, 19: 1.0}

    def test_duplicate_embeddings_single_neighbor(self):
        E = np.repeat(np.arange(6, dtype=float)[:, None] * 10.0, 2, axis=0)
        A = np.repeat(np.eye(6, dtype=int), 2, axis=0)
        assert attribute_neighborhood_precision(E, A, sizes=(1,))[1] == 1.0

    def test_random_attributes_hit_base_rate(self):
        rng = substream(9, "attr", "base")
        E = rng.normal(size=(150, 6))
        trials = []
        for _ in range(20):
            A = (rng.random((150, 2)) < 0.5).astype(int)
            trials.append(attribute_neighborhood_precision(E, A, sizes=(8,))[8])
        trials = np.array(trials)
        spread = trials.std(ddof=1)
        assert abs(trials.mean() - 0.5) < 3 * spread

    def test_size_bounds_enforced(self):
        E = np.eye(4)
        A = np.ones((4, 1), dtype=int)
        with pytest.raises(ConfigError):
            attribute_neighborhood_precision(E, A, sizes=(4,))
        with pytest.raises(ConfigError):
            attribute_neighborhood_precision(E, A, sizes=(0,))
        assert 3 in attribute_neighborhood_precision(E, A, sizes=(3,))

    def test_non_binary_attributes_rejected(self):
        with pytest.raises(DatasetError):
            attribute_neighborhood_precision(np.eye(3), np.full((3, 1), 0.5), sizes=(1,))


class TestClassificationError:
    def trained(self):
        cfg = SynthConfig(num_classes=2, modes_per_class=1, samples_per_mode=20,
                          input_dim=4, spread=0.05, test_fraction=0.0)
        ds = synth_dataset(cfg, seed=3)
        head = MixtureHead(EmbeddingConfig(4, (16, 8)), MixtureConfig(2, 1, 0.5, 0.5), seed=4)
        fit(head, ds, RunConfig(iterations=40, lr=0.05, seed=7, classes_per_batch=2,
                                instances_per_class=8))
        return head, ds

    def test_memorized_set_zero_error(self):
        head, ds = self.trained()
        err = classification_error(head, ds, class_index_map(ds))
        assert err == 0.0

    def test_matches_brute_force_posterior_loop(self):
        # untrained head, so predictions are nontrivial
        cfg = SynthConfig(num_classes=4, modes_per_class=2, samples_per_mode=5,
                          input_dim=6, spread=0.4, test_fraction=0.0)
        ds = synth_dataset(cfg, seed=14)
        head = MixtureHead(EmbeddingConfig(6, (12, 8)), MixtureConfig(4, 3, 0.5, 0.5), seed=15)
        cmap = class_index_map(ds)
        reps = head.representatives.value
        sigma = head.mixture.sigma
        for mode, reducer in (("normalized", np.sum), ("max", np.max)):
            head.mixture = dataclasses.replace(head.mixture, posterior_mode=mode)
            wrong = 0
            for label, x in zip(ds.label, ds.features):
                z = head.embedding.embed_batch(x[None])[0]
                scores = np.zeros(4)
                for c in range(4):
                    probs = [np.exp(-np.sum((z - reps[c, k]) ** 2) / (2 * sigma**2))
                             for k in range(3)]
                    scores[c] = reducer(probs)
                pred = int(np.argmax(scores))
                wrong += pred != cmap[label]
            want = wrong / len(ds)
            got = classification_error(head, ds, cmap)
            assert got == pytest.approx(want, abs=1e-12), mode

    def test_empty_set_rejected(self):
        head, ds = self.trained()
        with pytest.raises(DatasetError):
            classification_error(head, [], class_index_map(ds))


# A detection workflow whose report is not saturated: three modes per class
# spread wide, several boxed queries per image, and recall cut at 1 and 3.
DIAGNOSTIC = {
    "task_mode": "detection", "seed": 11, "layer_widths": [64, 32], "iterations": 150,
    "classes_per_batch": 5, "instances_per_class": 6, "ways": 5, "queries_per_class": 10,
    "episode_count": 12, "background_queries": 10, "finetune_steps": 5,
    "recall_ks": [1, 3, 10],
    "synth": {"num_classes": 15, "modes_per_class": 3, "samples_per_mode": 24,
              "input_dim": 20, "spread": 0.6, "unseen_classes": 10,
              "background_fraction": 0.15, "test_fraction": 0.0, "with_boxes": True},
}


def rows_of(detections):
    return [Det(*row) for row in zip(
        detections.episode_id.tolist(), detections.image_id.tolist(),
        detections.class_id.tolist(), map(tuple, detections.boxes.tolist()),
        detections.scores.tolist(), detections.record_id.tolist())]


def test_diagnostic_pipeline_is_not_saturated(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(DIAGNOSTIC), encoding="utf-8")
    data, model, eps = tmp_path / "data", tmp_path / "model", tmp_path / "eps"
    common = ["--config", str(config)]
    assert cli.main(["synth-data", *common, "--out", str(data)]) == 0
    common += ["--data", str(data / "dataset.jsonl")]
    assert cli.main(["train", *common, "--out", str(model)]) == 0
    assert cli.main(["gen-episodes", *common, "--out", str(eps)]) == 0
    assert cli.main(["eval-episodes", *common, "--checkpoint", str(model / "checkpoint.json"),
                     "--episodes", str(eps / "episodes.jsonl"), "--shots", "1,5",
                     "--out", str(tmp_path / "report")]) == 0
    with open(tmp_path / "report" / "episode_report.csv", newline="", encoding="utf-8") as fh:
        report = list(csv.DictReader(fh))
    assert len(report) == 4
    for row in report:
        assert 0.0 < float(row["map"]) < 1.0, row
        assert float(row["recall_at_1"]) < float(row["recall_at_3"]), row

    # the matcher labels this run's real detections as the reference does
    dataset = load_dataset(data / "dataset.jsonl")
    passes, spec = load_episodes(eps / "episodes.jsonl", dataset)
    result = evaluate_episodes(load_checkpoint(model / "checkpoint.json"), passes[spec.shots])
    detections, truth = result.detections, result.truth
    truth_rows = [Gt(*row) for row in zip(truth.episode_id.tolist(), truth.image_id.tolist(),
                                           truth.class_id.tolist(),
                                           map(tuple, truth.boxes.tolist()))]
    flags = match_detections(detections, truth)
    assert 0 < flags.sum() < len(flags)
    assert flags.tolist() == reference_match(rows_of(detections), truth_rows, 0.5)
    assert map_over_episodes(detections, truth) == reference_map(rows_of(detections), truth_rows, 0.5)
    assert recall_at_k(detections, truth, 1) == reference_recall(rows_of(detections), truth_rows, 1, 0.5)
