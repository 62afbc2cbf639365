"""Optimizers, batch sampling, and the fit loop."""

import csv

import numpy as np
import pytest

from mixrep.autodiff import parameter
from mixrep.config import EmbeddingConfig, MixtureConfig, RunConfig, SynthConfig
from mixrep.data import Dataset, synth_dataset
from mixrep.errors import ConfigError, DatasetError, TrainingDiverged
from mixrep.head import MixtureHead
from mixrep.metrics import classification_error
from mixrep.rng import substream
from mixrep.training import (
    Adam,
    SGD,
    batch_arrays,
    batch_groups,
    class_index_map,
    fit,
    make_optimizer,
    sample_batch,
    train_step,
    training_pool,
    write_loss_trace,
)


def toy_dataset(seed=3):
    cfg = SynthConfig(num_classes=2, modes_per_class=1, samples_per_mode=20,
                      input_dim=4, spread=0.05, test_fraction=0.0)
    return synth_dataset(cfg, seed=seed)


def toy_head(seed=4, num_classes=2):
    return MixtureHead(EmbeddingConfig(4, (16, 8)),
                       MixtureConfig(num_classes, 1, 0.5, 0.5), seed=seed)


def hand_records(class_sizes: dict, dim=4, background=None):
    """A dataset of `class_sizes` records per class, record i's features all
    i; with `background`, one background record "bg01" of that value last."""
    labels = [label for label, n in class_sizes.items() for _ in range(n)]
    ids = [f"h{i:04d}" for i in range(len(labels))]
    features = np.repeat(np.arange(len(labels), dtype=np.float64)[:, None], dim, axis=1)
    if background is not None:
        ids, labels = ids + ["bg01"], labels + ["background"]
        features = np.vstack([features, np.full((1, dim), float(background))])
    return Dataset(ids, labels, features)


def every_row(ds):
    return np.arange(len(ds))


def draw_batch(ds, config, rng):
    """One batch from every row of `ds`, its groups built for this call."""
    return sample_batch(batch_groups(ds, every_row(ds), config), config, rng)


def run_config(classes=12, instances=4, strategy="class_balanced", **settings):
    """A run config with `settings`, whose batches are `classes` x `instances`
    or, with strategy "image_group", one image's ROIs."""
    return RunConfig(classes_per_batch=classes, instances_per_class=instances,
                     batch_strategy=strategy, **settings)


class TestSampleBatch:
    def pool20(self):
        cfg = SynthConfig(num_classes=20, modes_per_class=1, samples_per_mode=6,
                          input_dim=8, test_fraction=0.0)
        return synth_dataset(cfg, seed=11)

    def test_class_balanced_shape(self):
        ds = self.pool20()
        batch = draw_batch(ds, run_config(12, 4), substream(0, "t"))
        assert len(batch) == 48
        labels = ds.label[batch].tolist()
        assert len(set(labels)) == 12
        for lab in set(labels):
            assert labels.count(lab) == 4

    def test_deterministic_under_rng_state(self):
        ds = self.pool20()
        a = draw_batch(ds, run_config(12, 4), substream(5, "t"))
        b = draw_batch(ds, run_config(12, 4), substream(5, "t"))
        assert ds.id[a].tolist() == ds.id[b].tolist()

    def test_distinct_streams_differ(self):
        ds = self.pool20()
        a = draw_batch(ds, run_config(12, 4), substream(5, "t"))
        b = draw_batch(ds, run_config(12, 4), substream(6, "t"))
        assert ds.id[a].tolist() != ds.id[b].tolist()

    def test_short_class_sampled_with_replacement(self):
        recs = hand_records({"a": 2, "b": 5, "c": 5})
        batch = draw_batch(recs, run_config(3, 4), substream(1, "t"))
        assert len(batch) == 12
        a_ids = recs.id[batch][recs.label[batch] == "a"].tolist()
        assert len(a_ids) == 4
        assert len(set(a_ids)) <= 2

    def test_too_few_classes_raises(self):
        recs = hand_records({"a": 5, "b": 5, "c": 5})
        with pytest.raises(DatasetError):
            draw_batch(recs, run_config(5, 2), substream(1, "t"))

    def test_background_never_sampled_class_balanced(self):
        recs = hand_records({"a": 5, "b": 5}, background=0.0)
        for trial in range(20):
            batch = draw_batch(recs, run_config(2, 3), substream(trial, "t"))
            assert all(not bg for bg in recs.is_background[batch])

    def test_image_group_returns_whole_image(self):
        cfg = SynthConfig(num_classes=3, modes_per_class=1, samples_per_mode=8,
                          input_dim=4, test_fraction=0.0, with_boxes=True,
                          rois_per_image=6)
        pool = synth_dataset(cfg, seed=2)
        batch = draw_batch(pool, run_config(strategy="image_group"), substream(3, "t"))
        image_ids = set(pool.image_id[batch])
        assert len(image_ids) == 1
        img = image_ids.pop()
        assert sorted(pool.id[batch]) == sorted(pool.id[pool.image_id == img])

    def test_image_group_requires_image_ids(self):
        recs = hand_records({"a": 3, "b": 3})
        with pytest.raises(DatasetError):
            draw_batch(recs, run_config(strategy="image_group"), substream(0, "t"))


    @staticmethod
    def per_call_reference(ds, rows, config, rng):
        """The sampler as it was before the groups were prebuilt: the index
        is rebuilt from the records on every call."""
        if config.batch_strategy == "image_group":
            images = {}
            for row in rows:
                images.setdefault(ds.image_id[row], []).append(row)
            image_ids = sorted(images)
            return list(images[image_ids[int(rng.integers(0, len(image_ids)))]])
        by_class = {}
        for row in rows:
            if ds.label[row] != "background":
                by_class.setdefault(ds.label[row], []).append(row)
        class_ids = sorted(by_class)
        batch = []
        for ci in rng.choice(len(class_ids), size=config.classes_per_batch, replace=False):
            members = by_class[class_ids[int(ci)]]
            replace = len(members) < config.instances_per_class
            idx = rng.choice(len(members), size=config.instances_per_class, replace=replace)
            batch.extend(members[int(i)] for i in idx)
        return batch

    @pytest.mark.parametrize("strategy", ["class_balanced", "image_group"])
    def test_prebuilt_groups_give_the_per_call_batches(self, strategy):
        cfg = SynthConfig(num_classes=8, modes_per_class=2, samples_per_mode=3,
                          input_dim=4, test_fraction=0.0, with_boxes=True,
                          rois_per_image=5, background_fraction=0.2)
        ds = synth_dataset(cfg, seed=4)
        pool = every_row(ds)
        config = run_config(5, 8, strategy)  # 6 records per class: drawn with replacement
        groups = batch_groups(ds, pool, config)
        rngs = [substream(9, "t") for _ in range(2)]
        for _ in range(40):
            want = ds.id[self.per_call_reference(ds, pool, config, rngs[0])].tolist()
            assert ds.id[sample_batch(groups, config, rngs[1])].tolist() == want


class TestBatchArrays:
    def test_labels_and_features(self):
        recs = hand_records({"a": 2, "b": 1}, background=1.0)
        X, labels = batch_arrays(recs, every_row(recs), {"a": 0, "b": 1})
        assert X.shape == (4, 4)
        assert labels == [0, 0, 1, -1]

    def test_unknown_label_raises(self):
        recs = hand_records({"a": 1})
        with pytest.raises(DatasetError):
            batch_arrays(recs, every_row(recs), {"b": 0})

    def test_fit_and_classification_error_refuse_a_label_in_the_same_words(self):
        # "c" is both a held-out class and the label of a training record, so
        # the class map leaves it out while the training pool keeps it
        ds = Dataset([f"h{i}" for i in range(6)], ["a", "a", "b", "b", "c", "c"],
                     np.arange(24.0).reshape(6, 4), group=[None] * 4 + ["unseen", None])
        head = toy_head()
        message = "^record h5 has label 'c' outside the class map$"
        with pytest.raises(DatasetError, match=message):
            fit(head, ds, run_config(classes=3, instances=2, iterations=1))
        with pytest.raises(DatasetError, match=message):
            classification_error(head, ds[np.array([5])], class_index_map(ds))


class TestTrainingPool:
    def full_dataset(self):
        cfg = SynthConfig(num_classes=6, modes_per_class=1, samples_per_mode=10,
                          input_dim=4, test_fraction=0.2, unseen_classes=2,
                          background_fraction=0.2)
        return synth_dataset(cfg, seed=9)

    def test_excludes_unseen_and_test(self):
        ds = self.full_dataset()
        pool = training_pool(ds, include_background=False)
        assert all(group != "unseen" for group in ds.group[pool])
        assert all(split in (None, "train") for split in ds.split[pool])
        assert all(not bg for bg in ds.is_background[pool])

    def test_background_opt_in(self):
        ds = self.full_dataset()
        pool = training_pool(ds, include_background=True)
        assert any(ds.is_background[pool])

    def test_empty_pool_raises(self):
        ds = Dataset(["x0"], ["a"], np.zeros((1, 3)), split=["test"])
        with pytest.raises(DatasetError):
            training_pool(ds, include_background=False)


class TestClassIndexMap:
    def test_seen_classes_sorted_contiguous(self):
        cfg = SynthConfig(num_classes=6, modes_per_class=1, samples_per_mode=4,
                          input_dim=4, unseen_classes=2)
        ds = synth_dataset(cfg, seed=9)
        cmap = class_index_map(ds)
        assert len(cmap) == 4
        assert sorted(cmap.values()) == [0, 1, 2, 3]
        assert list(cmap) == sorted(cmap)
        unseen = set(ds.label[ds.group == "unseen"])
        assert not unseen & set(cmap)


class TestOptimizerStep:
    def test_plain_sgd_is_lr_times_grad(self):
        p = parameter(np.array([1.0, -2.0]), name="p")
        p.grad = np.array([0.5, 0.25])
        SGD({"decay": [p]}, lr=0.1, momentum=0.0).step()
        np.testing.assert_array_equal(p.value, [1.0 - 0.05, -2.0 - 0.025])

    def test_momentum_accumulates(self):
        p = parameter(np.array([0.0]), name="p")
        opt = SGD({"decay": [p]}, lr=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()
        assert p.value[0] == -1.0
        p.grad = np.array([1.0])
        opt.step()
        # v = 0.9 * 1 + 1 = 1.9
        assert p.value[0] == -1.0 - 1.9

    def test_zero_lr_is_identity(self):
        p = parameter(np.array([3.0]), name="p")
        p.grad = np.array([10.0])
        SGD({"decay": [p]}, lr=0.0, momentum=0.0).step()
        assert p.value[0] == 3.0

    def test_none_grad_skipped(self):
        p = parameter(np.array([3.0]), name="p")
        p.grad = None
        SGD({"decay": [p]}, lr=1.0).step()
        assert p.value[0] == 3.0

    def test_decay_only_touches_decay_group(self):
        w = parameter(np.array([2.0]), name="w")
        g = parameter(np.array([2.0]), name="g")
        w.grad = np.zeros(1)
        g.grad = np.zeros(1)
        SGD({"decay": [w], "no_decay": [g]}, lr=0.1, momentum=0.0,
            weight_decay=0.5).step()
        assert w.value[0] == 2.0 - 0.1 * 0.5 * 2.0
        assert g.value[0] == 2.0

    def test_adam_first_step(self):
        p = parameter(np.array([1.0]), name="p")
        p.grad = np.array([4.0])
        opt = Adam({"decay": [p]}, lr=0.01)
        opt.step()
        # bias correction makes the first step lr * g / (|g| + eps)
        expected = 1.0 - 0.01 * 4.0 / (np.sqrt(16.0) + 1e-8)
        assert p.value[0] == pytest.approx(expected, rel=1e-12)

    def test_make_optimizer_dispatch(self):
        head = toy_head()
        assert isinstance(make_optimizer(head, RunConfig()), SGD)
        assert isinstance(make_optimizer(head, RunConfig(optimizer="adam")), Adam)


class TestDecayBookkeeping:
    def test_bn_affine_and_mixture_params_never_decay(self):
        # identical heads, one step each, one with heavy decay: parameters
        # outside the decay group must come out bit-identical (a single step
        # keeps gradients equal, isolating the decay term)
        ds = toy_dataset()
        ha = toy_head(seed=4)
        hb = toy_head(seed=4)
        for h, wd in ((ha, 0.0), (hb, 0.5)):
            fit(h, ds, run_config(2, 4, iterations=1, lr=0.01, momentum=0.0, weight_decay=wd,
                                  seed=7))
        pa, pb = ha.named_parameters(), hb.named_parameters()
        assert pa.keys() == pb.keys()
        decayed = ha.parameter_groups()["decay"]
        decayed_names = {n for n, p in pa.items() if any(p is q for q in decayed)}
        assert "representatives.weight" not in decayed_names
        for name in pa:
            same = np.array_equal(pa[name].value, pb[name].value)
            if name in decayed_names:
                assert not same, name
            else:
                assert same, name


class TestTrainStep:
    def test_single_step_matches_manual_gradient(self):
        from mixrep.autodiff import backward, zero_grads

        ds = toy_dataset()
        pool = training_pool(ds, include_background=False)
        cmap = class_index_map(ds)
        batch = np.concatenate([pool[:4], pool[-4:]])
        ha, hb = toy_head(seed=4), toy_head(seed=4)

        opt = SGD(ha.parameter_groups(), lr=0.05, momentum=0.0)
        train_step(ha, ds, batch, cmap, opt)

        X, labels = batch_arrays(ds, batch, cmap)
        loss, _ = hb.total_loss(X, labels, train=True)
        zero_grads(hb.parameters())
        backward(loss)
        for name, p in hb.named_parameters().items():
            expected = p.value - 0.05 * p.grad
            np.testing.assert_array_equal(
                ha.named_parameters()[name].value, expected, err_msg=name)

    def test_divergence_reports_iteration_and_batch(self):
        ds = toy_dataset()
        pool = training_pool(ds, include_background=False)
        cmap = class_index_map(ds)
        head = toy_head()
        head.named_parameters()["layers.0.weight"].value[:] = np.nan
        opt = make_optimizer(head, RunConfig())
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
            train_step(head, ds, pool[:4], cmap, opt, iteration=13)
        assert exc.value.iteration == 13
        assert exc.value.batch_ids == ds.id[pool[:4]].tolist()


class TestFit:
    def test_loss_decreases_on_separable_toy(self):
        trace = fit(toy_head(), toy_dataset(), run_config(2, 8, iterations=40, lr=0.05, seed=7))
        tot = np.array([row["total"] for row in trace])
        assert np.all(np.isfinite(tot))
        assert tot[0] > 0.5
        assert tot[-1] < 1e-6
        smoothed = np.convolve(tot, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smoothed) < 0)

    def test_bit_identical_reruns(self):
        runs = []
        for _ in range(2):
            head = toy_head()
            runs.append((fit(head, toy_dataset(), run_config(2, 4, iterations=15, lr=0.02, seed=5)),
                         head))
        assert runs[0][0] == runs[1][0]
        pa, pb = runs[0][1].named_parameters(), runs[1][1].named_parameters()
        for name in pa:
            assert np.array_equal(pa[name].value, pb[name].value), name

    def test_trace_rows_carry_components(self):
        trace = fit(toy_head(), toy_dataset(), run_config(2, 4, iterations=3, lr=0.01, seed=5))
        assert [row["iteration"] for row in trace] == [0, 1, 2]
        for row in trace:
            assert row["total"] == pytest.approx(row["ce"] + row["margin"], rel=1e-12)

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            fit(toy_head(num_classes=3), toy_dataset(), run_config(2, 4, iterations=1))

    @pytest.mark.parametrize("iterations", [5, 10, 15])
    def test_trained_head_scores_a_row_alone_as_in_a_batch(self, iterations):
        # scoring reads the running statistics, so a row scores the same
        # alone as in a batch
        ds = toy_dataset()
        X = ds.features[:3]
        head = toy_head()
        fit(head, ds, run_config(2, 4, iterations=iterations, lr=0.01, seed=5))
        assert np.array_equal(head.score(X[0]).embedding, head.score_batch(X).embeddings[0])

    def test_representatives_track_cluster_means(self):
        # unimodal classes: after factoring out the one scale the losses leave
        # unconstrained, each representative sits on its cluster's mean
        cfg = SynthConfig(num_classes=3, modes_per_class=1, samples_per_mode=30,
                          input_dim=6, spread=0.05, test_fraction=0.0)
        ds = synth_dataset(cfg, seed=5)
        head = MixtureHead(EmbeddingConfig(6, (64, 16)),
                           MixtureConfig(3, 1, 0.5, 0.5), seed=6)
        fit(head, ds, run_config(3, 8, iterations=300, lr=0.01, seed=56))
        cmap = class_index_map(ds)
        reps = head.representatives.value[:, 0, :]
        means = np.zeros_like(reps)
        for label, idx in cmap.items():
            X = ds.features[ds.label == label]
            means[idx] = head.embedding.embed_batch(X).mean(axis=0)
        scale = float(np.sum(reps * means) / np.sum(reps * reps))
        residuals = np.linalg.norm(scale * reps - means, axis=1)
        assert np.all(residuals < 0.2), residuals


class TestLossTrace:
    def test_csv_round_trip_exact(self, tmp_path):
        trace = fit(toy_head(), toy_dataset(), run_config(2, 4, iterations=4, lr=0.01, seed=5))
        path = tmp_path / "trace.csv"
        write_loss_trace(trace, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "ce", "margin", "total"]
        assert len(rows) == 5
        for row, src in zip(rows[1:], trace):
            assert int(row[0]) == src["iteration"]
            assert float(row[1]) == src["ce"]
            assert float(row[2]) == src["margin"]
            assert float(row[3]) == src["total"]
