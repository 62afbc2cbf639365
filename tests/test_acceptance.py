"""Shipping gate: one test per published guarantee, each emitting a single
PASS/FAIL line with the measured numbers. Everything here runs on synthetic
data with frozen seeds; nothing depends on network or GPU."""

import itertools
import json
import time
from collections import namedtuple

import numpy as np
import pytest

from composed_loss import (
    concat,
    exp,
    log,
    negate,
    pairwise_sq_dist,
    reduce_max,
    reduce_min,
    reduce_sum,
    reshape,
    scale,
    sqrt,
    square,
    take,
)
from mixrep import autodiff as ad
from mixrep import cli
from mixrep.config import EmbeddingConfig, EpisodeSpec, MixtureConfig, RunConfig, SynthConfig
from mixrep.data import nearest_center_mode, synth_dataset
from mixrep.episodes import evaluate_episodes, generate_episodes
from mixrep.head import MixtureHead
from mixrep.metrics import (
    Detections,
    GroundTruth,
    attribute_neighborhood_precision,
    average_precision,
    classification_error,
    iou,
    map_over_episodes,
    match_detections,
)
from mixrep.rng import substream
from mixrep.training import class_index_map, fit


@pytest.fixture
def announce(capsys):
    def _announce(name, ok, detail):
        with capsys.disabled():
            print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, f"{name}: {detail}"

    return _announce


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _primitive_checks():
    """(name, f, params) triples covering every differentiable primitive."""
    rng = substream(9, "acceptance", "primitives")
    checks = []

    a = ad.parameter(rng.normal(size=(3, 4)))
    b = ad.parameter(rng.normal(size=(4, 2)))
    checks.append(("matmul", lambda ps: reduce_sum(square(ad.matmul(ps[0], ps[1]))), [a, b]))

    x = ad.parameter(rng.normal(size=(3, 4)))
    y = ad.parameter(rng.normal(size=4))
    checks.append(("add", lambda ps: reduce_sum(square(ad.add(ps[0], ps[1]))), [x, y]))

    z = ad.parameter(rng.normal(size=(2, 5)))
    checks.append(("scale", lambda ps: reduce_sum(square(scale(ps[0], 1.7))), [z]))
    checks.append(("negate", lambda ps: reduce_sum(square(negate(ps[0]))), [z]))
    checks.append(("square", lambda ps: reduce_sum(square(ps[0])), [z]))
    checks.append(("exp", lambda ps: reduce_sum(exp(ps[0])), [z]))

    p = ad.parameter(rng.uniform(0.5, 2.0, size=(2, 5)))
    checks.append(("log", lambda ps: reduce_sum(square(log(ps[0]))), [p]))

    # keep relu inputs away from the kink
    r = ad.parameter(np.where(np.abs(v := rng.normal(size=(3, 4))) < 0.2, v + 0.5, v))
    checks.append(("relu", lambda ps: reduce_sum(square(ad.relu(ps[0]))), [r]))

    m = ad.parameter(rng.normal(size=(3, 5)))
    checks.append(("reduce_sum", lambda ps: reduce_sum(square(reduce_sum(ps[0], axis=1))), [m]))
    checks.append(("reduce_max", lambda ps: reduce_sum(square(reduce_max(ps[0], axis=1))), [m]))
    checks.append(("reduce_min", lambda ps: reduce_sum(square(reduce_min(ps[0], axis=0))), [m]))

    e = ad.parameter(rng.normal(size=(3, 6)))
    t = ad.parameter(rng.normal(size=(4, 2, 6)))
    checks.append(("pairwise_sq_dist",
                   lambda ps: reduce_sum(square(pairwise_sq_dist(ps[0], ps[1]))), [e, t]))

    q = ad.parameter(rng.uniform(0.5, 2.0, size=(2, 5)))
    checks.append(("sqrt", lambda ps: reduce_sum(square(sqrt(ps[0]))), [q]))
    # reshape, concat and take only move entries; a row max or a square
    # downstream makes a misplaced gradient entry show
    checks.append(("reshape", lambda ps: reduce_sum(square(reduce_max(
        reshape(ps[0], (5, 2)), axis=1))), [q]))
    checks.append(("concat", lambda ps: reduce_sum(square(reduce_max(
        concat([ps[0], ps[1]], axis=0), axis=1))), [m, q]))
    rows, cols = np.array([0, 2, 2, 1]), np.array([4, 0, 0, 3])
    checks.append(("take", lambda ps: reduce_sum(square(take(ps[0], (rows, cols)))), [m]))

    u = ad.parameter(rng.normal(size=(4, 3)) + np.array([2.0, -2.0, 3.0]))
    checks.append(("l2_normalize",
                   lambda ps: reduce_sum(square(ad.add(ad.l2_normalize(ps[0]),
                                                             ad.constant(0.3)))), [u]))

    # the primitives of a stacked fine-tune graph, with a leading stack axis
    sa, sb = ad.parameter(rng.normal(size=(2, 3, 4))), ad.parameter(rng.normal(size=(2, 4, 2)))
    checks.append(("matmul (stacked)",
                   lambda ps: reduce_sum(square(ad.matmul(ps[0], ps[1]))), [sa, sb]))
    sx, sy = ad.parameter(rng.normal(size=(2, 3, 4))), ad.parameter(rng.normal(size=(2, 1, 4)))
    checks.append(("add (stacked)",
                   lambda ps: reduce_sum(square(ad.add(ps[0], ps[1]))), [sx, sy]))
    for name, reduce in (("reduce_sum", reduce_sum), ("reduce_max", reduce_max),
                         ("reduce_min", reduce_min)):
        checks.append((f"{name} (stacked)", lambda ps, reduce=reduce: reduce_sum(
            square(reduce(ps[0], axis=-1))), [sx]))
    se, st = ad.parameter(rng.normal(size=(2, 3, 6))), ad.parameter(rng.normal(size=(2, 4, 2, 6)))
    checks.append(("pairwise_sq_dist (stacked)",
                   lambda ps: reduce_sum(square(pairwise_sq_dist(ps[0], ps[1]))), [se, st]))
    sq = ad.parameter(rng.uniform(0.5, 2.0, size=(2, 2, 5)))
    checks.append(("sqrt (stacked)", lambda ps: reduce_sum(square(sqrt(ps[0]))), [sq]))
    stacked_index = (slice(None), rows, np.array([3, 0, 0, 2]))
    checks.append(("take (stacked)",
                   lambda ps: reduce_sum(square(take(ps[0], stacked_index))), [sx]))
    su = ad.parameter(rng.normal(size=(2, 4, 3)) + np.array([2.0, -2.0, 3.0]))
    checks.append(("l2_normalize (stacked)",
                   lambda ps: reduce_sum(square(ad.add(ad.l2_normalize(ps[0]),
                                                             ad.constant(0.3)))), [su]))

    state = ad.BatchNormState(np.zeros(3), np.ones(3), 0.9, 1e-5)
    bx = ad.parameter(rng.normal(size=(6, 3)))
    bg = ad.parameter(rng.uniform(0.5, 1.5, size=3))
    bb = ad.parameter(rng.normal(size=3))
    shift = ad.constant(rng.normal(size=(6, 3)))
    checks.append(("batch_norm",
                   lambda ps: reduce_sum(square(ad.add(
                       ad.batch_norm(ps[0], ps[1], ps[2], state, train=True), shift))),
                   [bx, bg, bb]))
    return checks


def test_criterion_1_gradient_correctness(announce):
    t0 = time.perf_counter()
    rng = substream(11, "acceptance", "gradcheck")
    X = rng.normal(size=(8, 8))
    full = {}
    for task_mode, labels in (("classification", [0, 1, 2, 3, 0, 1, 2, 3]),
                              ("detection", [0, 1, 2, 3, 0, 1, 2, -1])):
        head = MixtureHead(EmbeddingConfig(8, (12, 8)), MixtureConfig(4, 2, 0.5, 0.5),
                           task_mode=task_mode, seed=11)
        full[task_mode] = ad.finite_difference_check(
            lambda _ps: head.total_loss(X, labels, train=True)[0],
            head.parameters(),
        )
    worst_primitive = ("", 0.0)
    for name, f, params in _primitive_checks():
        err = ad.finite_difference_check(f, params)
        if err > worst_primitive[1]:
            worst_primitive = (name, err)
    elapsed = time.perf_counter() - t0
    ok = (max(full.values()) < 1e-4 and worst_primitive[1] < 1e-6 and elapsed < 10.0)
    announce(
        "criterion 1: gradients", ok,
        f"full loss max rel err {full['classification']:.2e} (classification) / "
        f"{full['detection']:.2e} (detection) vs 1e-4; worst primitive "
        f"{worst_primitive[0]} {worst_primitive[1]:.2e} vs 1e-6; {elapsed:.1f}s of 10s",
    )


# ---------------------------------------------------------------------------
# 2 + 3. multi-modal training on the synthetic oracle dataset


@pytest.fixture(scope="module")
def multimodal_run():
    t0 = time.perf_counter()
    dataset = synth_dataset(
        SynthConfig(num_classes=5, modes_per_class=3, samples_per_mode=40,
                    input_dim=20, spread=0.05), seed=20)
    head = MixtureHead(EmbeddingConfig(20, (128, 32)), MixtureConfig(5, 3, 0.5, 0.5), seed=21)
    fit(head, dataset, RunConfig(iterations=400, lr=0.01, seed=121, classes_per_batch=5,
                                 instances_per_class=8))
    return {"dataset": dataset, "head": head,
            "elapsed": time.perf_counter() - t0}


def test_criterion_2_multimodal_errors(announce, multimodal_run):
    dataset, head = multimodal_run["dataset"], multimodal_run["head"]
    cmap = class_index_map(dataset)
    errors = {}
    for split in ("train", "test"):
        records = dataset[dataset.split == split]
        errors[split] = classification_error(head, records, cmap)
    elapsed = multimodal_run["elapsed"]
    ok = errors["train"] <= 0.02 and errors["test"] <= 0.05 and elapsed < 300.0
    announce(
        "criterion 2: multi-modal training", ok,
        f"400 iterations: train error {errors['train']:.2%} (limit 2%), "
        f"test error {errors['test']:.2%} (limit 5%); {elapsed:.1f}s of 300s",
    )


def test_criterion_3_representative_fidelity(announce, multimodal_run):
    dataset, head = multimodal_run["dataset"], multimodal_run["head"]
    labels = sorted(set(dataset.label[~dataset.is_background]))

    cluster_means = {}
    for label in labels:
        members = {}
        rows = np.flatnonzero(dataset.label == label)
        for row, mode in zip(rows, nearest_center_mode(dataset, rows)):
            members.setdefault(mode, []).append(dataset.features[row])
        for mode, feats in members.items():
            emb = head.embedding.embed_batch(np.stack(feats))
            cluster_means[(label, mode)] = emb.mean(axis=0)

    means = list(cluster_means.values())
    gaps = [np.linalg.norm(a - b) for a, b in itertools.combinations(means, 2)]
    threshold = 0.25 * float(np.median(gaps))

    reps = head.representatives.value
    cmap = class_index_map(dataset)
    worst = 0.0
    for (label, _mode), mean in cluster_means.items():
        best = np.linalg.norm(reps[cmap[label]] - mean, axis=1).min()
        worst = max(worst, float(best))
    ok = worst < threshold
    announce(
        "criterion 3: representative fidelity", ok,
        f"worst cluster-to-representative gap {worst:.3f} vs "
        f"0.25 x median inter-cluster distance {threshold:.3f} "
        f"({len(cluster_means)} true clusters)",
    )


# ---------------------------------------------------------------------------
# 4. episodic open-set protocol on held-out classes


def test_criterion_4_episodic_open_set(announce):
    t0 = time.perf_counter()
    dataset = synth_dataset(
        SynthConfig(num_classes=15, modes_per_class=1, samples_per_mode=24,
                    input_dim=20, spread=0.05, unseen_classes=10,
                    background_fraction=0.15, test_fraction=0.0), seed=30)
    head = MixtureHead(EmbeddingConfig(20, (64, 32)), MixtureConfig(5, 3, 0.5, 0.5),
                       task_mode="detection", seed=31)
    fit(head, dataset, RunConfig(iterations=150, lr=0.01, seed=131, classes_per_batch=5,
                                 instances_per_class=6))

    # 50 foreground queries per episode + 20% background clutter
    episodes = generate_episodes(dataset, EpisodeSpec(
        shots=1, ways=5, queries_per_class=10, episode_count=100, seed=77,
        class_pool="unseen", background_queries=10))

    stats = {steps: evaluate_episodes(head, episodes, steps) for steps in (0, 50)}
    elapsed = time.perf_counter() - t0

    acc, fa = stats[0].accuracy, stats[0].false_accept
    acc_ft = stats[50].accuracy
    ok = (acc >= 0.95 and fa <= 0.05 and acc_ft >= acc - 0.01 - 1e-12
          and elapsed < 120.0)
    announce(
        "criterion 4: episodic open set", ok,
        f"100 episodes, 1-shot 5-way: accuracy {acc:.2%} (floor 95%), background "
        f"false-accept {fa:.2%} (ceiling 5%), accuracy with 50-step fine-tune "
        f"{acc_ft:.2%} (floor {acc - 0.01:.2%}); {elapsed:.0f}s of 120s",
    )


# ---------------------------------------------------------------------------
# 5. mAP machinery vs oracles


_Det = namedtuple("_Det", "episode_id image_id class_id box score record_id")
_Gt = namedtuple("_Gt", "episode_id image_id class_id box")


def _det(score, box=(0, 0, 10, 10), episode=0, rid=""):
    return _Det(episode, "img0", "cat", box, score, rid)


def _gt(box=(0, 0, 10, 10), episode=0):
    return _Gt(episode, "img0", "cat", box)


def _dets(rows):
    return Detections(*zip(*rows))


def _gts(rows):
    return GroundTruth(*(zip(*rows) if rows else [()] * 4))


def _oracle_match(records, truth, iou_threshold):
    """Exhaustive reference: the unique injective assignment consistent with
    score-ordered greedy claiming."""
    order = sorted(range(len(records)),
                   key=lambda i: (-records[i].score, records[i].record_id or "", i))

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
        ok, taken = True, set()
        for pos, i in enumerate(order):
            eligible = [(iou(records[i].box, truth[j].box), -j)
                        for j in choices[pos] if j is not None and j not in taken]
            if assign[pos] is None:
                if eligible:
                    ok = False
                    break
            else:
                if (iou(records[i].box, truth[assign[pos]].box), -assign[pos]) != max(eligible):
                    ok = False
                    break
                taken.add(assign[pos])
        if ok:
            consistent.append(assign)
    assert len(consistent) == 1
    flags = [False] * len(records)
    for pos, i in enumerate(order):
        flags[i] = consistent[0][pos] is not None
    return flags


def test_criterion_5_map_machinery(announce):
    records = [_det(0.9, rid="a"), _det(0.8, rid="b"), _det(0.7, rid="c")]
    ap = average_precision(_dets(records), [True, False, True], 2)
    ap_ok = abs(ap - 5.0 / 6.0) <= 1e-9

    rng = substream(5, "acceptance", "oracle")
    scores = (0.3, 0.6, 0.9)
    agreements = 0
    trials = 1000
    for _ in range(trials):
        dets, truth = [], []
        for _ in range(int(rng.integers(1, 6))):
            x1, y1 = rng.integers(0, 6, size=2)
            w, h = rng.integers(1, 6, size=2)
            dets.append(_det(scores[int(rng.integers(0, 3))],
                             box=(float(x1), float(y1), float(x1 + w), float(y1 + h)),
                             rid=f"r{int(rng.integers(0, 10)):02d}"))
        for _ in range(int(rng.integers(0, 4))):
            x1, y1 = rng.integers(0, 6, size=2)
            w, h = rng.integers(1, 6, size=2)
            truth.append(_gt(box=(float(x1), float(y1), float(x1 + w), float(y1 + h))))
        agreements += match_detections(_dets(dets), _gts(truth), iou_threshold=0.3).tolist() == \
            _oracle_match(dets, truth, 0.3)

    pooled_records = [_det(0.9, episode=0, rid="a"),
                      _det(0.95, episode=1, box=(30, 0, 40, 10), rid="b"),
                      _det(0.5, episode=1, rid="c")]
    pooled_truth = [_gt(episode=0), _gt(episode=1)]
    pooled = map_over_episodes(_dets(pooled_records), _gts(pooled_truth))
    averaged = float(np.mean([
        map_over_episodes(_dets([r for r in pooled_records if r.episode_id == e]),
                          _gts([g for g in pooled_truth if g.episode_id == e]))
        for e in (0, 1)]))
    pool_ok = (abs(pooled - 2.0 / 3.0) < 1e-12 and abs(averaged - 0.75) < 1e-12
               and abs(pooled - averaged) > 0.05)

    ok = ap_ok and agreements == trials and pool_ok
    announce(
        "criterion 5: mAP machinery", ok,
        f"3-detection AP {ap:.6f} vs 5/6 within 1e-9; greedy matcher agreed with the "
        f"exhaustive oracle on {agreements}/{trials} random instances; pooled mAP "
        f"{pooled:.4f} vs per-episode average {averaged:.4f} detected as different",
    )


# ---------------------------------------------------------------------------
# 6. posterior invariants


def test_criterion_6_posterior_invariants(announce):
    n_inputs = 10000
    rng = substream(6, "acceptance", "posteriors")
    X = rng.normal(size=(n_inputs, 10))

    def build(sigma, posterior_mode):
        return MixtureHead(
            EmbeddingConfig(10, (16, 8)),
            MixtureConfig(6, 3, sigma, 0.5, posterior_mode=posterior_mode),
            seed=42)

    sigmas = (0.1, 0.5, 2.0)
    heads = [build(s, "max") for s in sigmas]
    normalized = build(0.5, "normalized")
    E = heads[0].embedding.embed_batch(X)

    outs = [h.score_embeddings(E) for h in heads + [normalized]]
    background_exact = all(
        np.array_equal(out.background_posterior, 1.0 - out.mode_probs.max(axis=(1, 2)))
        for out in outs)
    argmax_stable = all(np.array_equal(out.predicted_class, outs[0].predicted_class)
                        for out in outs[:len(heads)])
    max_sum_gap = float(np.abs(outs[-1].class_posterior.sum(axis=1) - 1.0).max())

    ok = max_sum_gap <= 1e-9 and background_exact and argmax_stable
    announce(
        "criterion 6: posterior invariants", ok,
        f"{n_inputs} random inputs: normalized posterior sum within {max_sum_gap:.1e} "
        f"of 1 (limit 1e-9); background equals 1 - max mode probability bit-exactly; "
        f"best-mode argmax identical across sigma {sigmas}",
    )


# ---------------------------------------------------------------------------
# 7. byte-identical reruns


def test_criterion_7_determinism(announce, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "task_mode": "detection",
        "seed": 12,
        "layer_widths": [24, 12],
        "modes_per_class": 2,
        "iterations": 40,
        "classes_per_batch": 4,
        "instances_per_class": 4,
        "shots": 1,
        "ways": 3,
        "queries_per_class": 4,
        "episode_count": 2,
        "background_queries": 4,
        "max_shots": 2,
        "finetune_steps": 3,
        "synth": {"num_classes": 8, "modes_per_class": 1, "samples_per_mode": 12,
                  "input_dim": 10, "spread": 0.05, "unseen_classes": 4,
                  "background_fraction": 0.2, "test_fraction": 0.0},
    }), encoding="utf-8")
    base = ["--config", str(config)]
    assert cli.main(["synth-data", *base, "--out", str(tmp_path / "data")]) == 0
    data = ["--data", str(tmp_path / "data" / "dataset.jsonl")]

    identical = []
    for command, extra, files in (
        ("train", data, ("checkpoint.json", "loss_trace.csv")),
        ("gen-episodes", data, ("episodes.jsonl",)),
        ("eval-episodes",
         data + ["--checkpoint", str(tmp_path / "train-a" / "checkpoint.json"),
                 "--episodes", str(tmp_path / "gen-episodes-a" / "episodes.jsonl"),
                 "--shots", "1,2"],
         ("episode_report.csv",)),
    ):
        outs = [tmp_path / f"{command}-{run}" for run in ("a", "b")]
        for out in outs:
            assert cli.main([command, *base, *extra, "--out", str(out)]) == 0
        same = all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
                   for name in files + ("resolved-config.json",))
        identical.append((command, same))

    ok = all(same for _, same in identical)
    announce(
        "criterion 7: determinism", ok,
        "byte-identical rerun outputs: " +
        ", ".join(f"{cmd} {'yes' if same else 'NO'}" for cmd, same in identical),
    )


# ---------------------------------------------------------------------------
# 8. attribute neighborhood precision


def test_criterion_8_attribute_precision(announce):
    rng = substream(8, "acceptance", "attributes")
    cluster = 12
    E = np.vstack([rng.normal(0.0, 0.05, size=(cluster, 5)),
                   rng.normal(0.0, 0.05, size=(cluster, 5)) + 10.0])
    A = np.zeros((2 * cluster, 2), dtype=int)
    A[:cluster, 0] = 1
    A[cluster:, 1] = 1
    sizes = tuple(range(1, cluster))
    clustered = attribute_neighborhood_precision(E, A, sizes)
    clustered_ok = all(clustered[s] == 1.0 for s in sizes)

    E_rand = rng.normal(size=(150, 6))
    trials = np.array([
        attribute_neighborhood_precision(
            E_rand, (rng.random((150, 2)) < 0.5).astype(int), sizes=(8,))[8]
        for _ in range(20)
    ])
    spread = trials.std(ddof=1)
    random_ok = abs(trials.mean() - 0.5) < 3 * spread

    ok = clustered_ok and random_ok
    announce(
        "criterion 8: attribute precision", ok,
        f"two-cluster construction at 1.0 for every s in 1..{cluster - 1}; random "
        f"attributes averaged {trials.mean():.3f} vs base rate 0.5 "
        f"(3 MC std = {3 * spread:.3f})",
    )
