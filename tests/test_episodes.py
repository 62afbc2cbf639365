"""Episode generation, episode heads, fine-tuning, and scoring."""

import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixrep import autodiff as ad
from mixrep import episodes as episodes_module
from mixrep.config import EmbeddingConfig, EpisodeSpec, MixtureConfig, RunConfig, SynthConfig
from mixrep.data import BACKGROUND_LABEL, Dataset, synth_dataset
from mixrep.errors import ConfigError, DatasetError, NonFiniteRowError
from mixrep.episodes import (
    Episode,
    FinetuneResult,
    episode_finetune,
    evaluate_episodes,
    finetune_episodes,
    generate_episodes,
    generate_passes,
    load_episodes,
    replace_representatives,
    run_episode,
    save_episodes,
    score_queries,
    support_embeddings,
)
from mixrep.head import EmbeddingNet, MixtureHead
from mixrep.metrics import Detections, GroundTruth
from mixrep.training import SGD, fit


def episode_dataset(seed=30, unseen=8, per_mode=24, background_fraction=0.15, with_boxes=False):
    cfg = SynthConfig(num_classes=unseen + 4, modes_per_class=1, samples_per_mode=per_mode,
                      input_dim=10, spread=0.05, unseen_classes=unseen,
                      background_fraction=background_fraction, test_fraction=0.0,
                      with_boxes=with_boxes)
    return synth_dataset(cfg, seed=seed)


def small_head(seed=31, num_classes=4, dim=10):
    head = MixtureHead(EmbeddingConfig(dim, (16, 8)),
                       MixtureConfig(num_classes, 2, 0.5, 0.5),
                       task_mode="detection", seed=seed)
    return head


def spec_for(ds, **kw):
    base = dict(shots=1, ways=3, queries_per_class=10, episode_count=4, seed=7,
                class_pool="unseen", background_queries=5, max_shots=10)
    base.update(kw)
    return EpisodeSpec(**base)


def save_file(ds, spec, path):
    """An episode file of `spec` over `ds`, as gen-episodes writes it: the
    support of every count from 1 to max_shots."""
    save_episodes(generate_passes(ds, spec, range(1, spec.max_shots + 1)), spec, path)


def with_support(obj, edit, shots=1):
    """An episode line with `edit` applied to its support ids at `shots`."""
    return {**obj, "support_item_ids": {**obj["support_item_ids"],
                                        str(shots): edit(obj["support_item_ids"][str(shots)])}}


def redraw_support(ds, ep, spec):
    """`ep` with its support drawn anew at spec.shots as generation draws
    it, from its classes' pool rows outside its queries."""
    support = episodes_module._draw_supports(
        ds, episodes_module._pool_classes(ds, spec.class_pool), ep.class_ids, ep.queries, spec,
        ep.episode_id, [spec.shots])[spec.shots]
    return Episode(ep.episode_id, ep.class_ids, support, ep.queries, ds)


class TestEpisodeSpec:
    def test_field_validation(self):
        with pytest.raises(ConfigError):
            EpisodeSpec(shots=0, ways=5)
        with pytest.raises(ConfigError):
            EpisodeSpec(shots=1, ways=0)
        with pytest.raises(ConfigError):
            EpisodeSpec(shots=11, ways=5, max_shots=10)
        with pytest.raises(ConfigError):
            EpisodeSpec(shots=1, ways=5, class_pool="validation")
        with pytest.raises(ConfigError):
            EpisodeSpec(shots=1, ways=5, background_queries=-1)


class TestGenerateEpisodes:
    def test_episode_shape(self):
        ds = episode_dataset()
        spec = spec_for(ds, ways=5, shots=1)
        eps = generate_episodes(ds, spec)
        assert len(eps) == 4
        for ep in eps:
            assert len(ep.class_ids) == len(set(ep.class_ids)) == 5
            assert all(len(rows) == 1 for rows in ep.support)
            fg = ep.queries[~ds.is_background[ep.queries]]
            bg = ep.queries[ds.is_background[ep.queries]]
            assert len(fg) == 50 and len(bg) == 5
            assert not set(ds.id[ep.support.ravel()]) & set(ep.query_ids())

    def test_deterministic(self):
        ds = episode_dataset()
        a = generate_episodes(ds, spec_for(ds))
        b = generate_episodes(ds, spec_for(ds))
        for ea, eb in zip(a, b):
            assert ea.class_ids == eb.class_ids
            assert ea.query_ids() == eb.query_ids()
            assert {c: ds.id[rows].tolist() for c, rows in zip(ea.class_ids, ea.support)} == \
                   {c: ds.id[rows].tolist() for c, rows in zip(eb.class_ids, eb.support)}

    def test_shot_count_never_moves_classes_or_queries(self):
        ds = episode_dataset()
        by_shots = {n: generate_episodes(ds, spec_for(ds, shots=n)) for n in (1, 5, 10)}
        for i in range(4):
            reference = by_shots[1][i]
            for n in (5, 10):
                ep = by_shots[n][i]
                assert ep.class_ids == reference.class_ids
                assert ep.query_ids() == reference.query_ids()
                assert all(len(rows) == n for rows in ep.support)

    def test_unseen_pool_only_uses_unseen_classes(self):
        ds = episode_dataset()
        unseen = set(ds.label[ds.group == "unseen"])
        for ep in generate_episodes(ds, spec_for(ds)):
            assert set(ep.class_ids) <= unseen

    def test_seen_pool_excludes_unseen(self):
        ds = episode_dataset()
        unseen = set(ds.label[ds.group == "unseen"])
        for ep in generate_episodes(ds, spec_for(ds, class_pool="seen", background_queries=0)):
            assert not set(ep.class_ids) & unseen

    def test_small_class_skipped_with_warning(self):
        ds = episode_dataset()
        # shrink one unseen class below queries_per_class + max_shots
        victim = sorted(set(ds.label[ds.group == "unseen"]))[0]
        kept = np.concatenate([np.flatnonzero(ds.label != victim),
                               np.flatnonzero(ds.label == victim)[:12]])
        ds2 = ds[kept]
        with pytest.warns(UserWarning, match=victim):
            eps = generate_episodes(ds2, spec_for(ds2, episode_count=6))
        assert all(victim not in ep.class_ids for ep in eps)

    def test_pool_exhausted_is_error(self):
        ds = episode_dataset(unseen=2)
        with pytest.raises(DatasetError):
            generate_episodes(ds, spec_for(ds, ways=3))

    def test_insufficient_background_is_error(self):
        ds = episode_dataset(background_fraction=0.0)
        with pytest.raises(DatasetError):
            generate_episodes(ds, spec_for(ds, background_queries=5))

    @pytest.mark.parametrize("shots", [1, 5, 10])
    def test_redrawn_support_is_the_generated_support(self, shots, tmp_path):
        # the support a file generated at 2 shots stores for `shots`
        ds = episode_dataset()
        generated = generate_episodes(ds, spec_for(ds, shots=shots))
        path = tmp_path / "episodes.jsonl"
        save_file(ds, spec_for(ds, shots=2), path)
        passes, _ = load_episodes(path, ds, [shots])
        for a, b in zip(generated, passes[shots], strict=True):
            assert (a.episode_id, a.class_ids) == (b.episode_id, b.class_ids)
            np.testing.assert_array_equal(a.queries, b.queries)
            np.testing.assert_array_equal(a.support, b.support)

    def test_every_stored_support_is_the_generated_support(self, tmp_path):
        # the file holds, for every count up to max_shots, the support that
        # generation at that count draws, bit for bit
        ds = episode_dataset()
        spec = spec_for(ds, shots=3)
        path = tmp_path / "episodes.jsonl"
        save_file(ds, spec, path)
        counts = list(range(1, spec.max_shots + 1))
        passes, loaded_spec = load_episodes(path, ds, counts)
        assert loaded_spec == spec and list(passes) == counts
        stored = [json.loads(line)["support_item_ids"]
                  for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        for shots in counts:
            generated = generate_episodes(ds, dataclasses.replace(spec, shots=shots))
            for a, b, ids in zip(generated, passes[shots], stored, strict=True):
                np.testing.assert_array_equal(a.support, b.support)
                np.testing.assert_array_equal(a.queries, b.queries)
                assert ids[str(shots)] == ds.id[a.support.ravel()].tolist()
        assert all(list(ids) == [str(s) for s in counts] for ids in stored)

    def test_redraw_keeps_the_episode_queries(self):
        # a query list edited by hand: one query swapped for an item that
        # 5-shot generation puts in the support
        ds = episode_dataset()
        ep = generate_episodes(ds, spec_for(ds, episode_count=1))[0]
        five = generate_episodes(ds, spec_for(ds, shots=5, episode_count=1))[0]
        queries = ep.queries.copy()
        queries[0] = five.support[0, 0]
        edited = Episode(ep.episode_id, ep.class_ids, ep.support, queries, ds)
        redrawn = redraw_support(ds, edited, spec_for(ds, shots=5))
        np.testing.assert_array_equal(redrawn.queries, queries)
        assert not np.isin(redrawn.support, queries).any()
        for label, rows in zip(redrawn.class_ids, redrawn.support):
            assert (ds.label[rows] == label).all()

    def test_redraw_refuses_a_class_its_queries_exhaust(self):
        ds = episode_dataset()
        ep = generate_episodes(ds, spec_for(ds, episode_count=1))[0]
        label = ep.class_ids[0]
        # every item of the class is a query but its support item and one other
        queries = np.setdiff1d(np.flatnonzero(ds.label == label), ep.support[0])[1:]
        edited = Episode(ep.episode_id, ep.class_ids, ep.support, queries, ds)
        with pytest.raises(DatasetError, match=f"class '{label}' has 2 unseen-pool items "
                                               f"besides its queries, too few for 5 shots"):
            redraw_support(ds, edited, spec_for(ds, shots=5))

    def test_episode_invariants_enforced(self):
        ds = Dataset(["x0", "x1"], ["a", "a"], np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            Episode(0, ["a", "a"], [[0]], [1], ds)
        with pytest.raises(ConfigError):
            Episode(0, ["a"], [[0]], [0], ds)
        with pytest.raises(ConfigError):
            Episode(0, ["a", "b"], [[0], []], [1], ds)


class TestEpisodeFiles:
    def test_round_trip(self, tmp_path):
        ds = episode_dataset()
        spec = spec_for(ds)
        eps = generate_episodes(ds, spec)
        path = tmp_path / "episodes.jsonl"
        save_file(ds, spec, path)
        passes, spec2 = load_episodes(path, ds)
        assert spec2 == spec and list(passes) == [spec.shots]
        for ea, eb in zip(eps, passes[spec.shots], strict=True):
            assert ea.episode_id == eb.episode_id
            assert ea.class_ids == eb.class_ids
            assert ea.query_ids() == eb.query_ids()
            for rows_a, rows_b in zip(ea.support, eb.support):
                assert ds.id[rows_a].tolist() == ds.id[rows_b].tolist()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "episodes.jsonl"
        path.write_text('{"episode_id": 0, "class_ids": [], "support_item_ids": {}, '
                        '"query_item_ids": []}\n')
        with pytest.raises(DatasetError):
            load_episodes(path, episode_dataset())

    def test_header_only_file_is_refused(self, tmp_path):
        # failed with "mAP needs at least one ground-truth box"
        ds = episode_dataset()
        path = tmp_path / "episodes.jsonl"
        save_episodes({}, spec_for(ds), path)
        with pytest.raises(DatasetError, match=f"^no episodes in {path}$"):
            load_episodes(path, ds)

    def test_episode_without_a_foreground_query_is_refused(self, tmp_path):
        ds = episode_dataset()
        spec = spec_for(ds, episode_count=2)
        path = tmp_path / "episodes.jsonl"
        save_file(ds, spec, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[2])
        rows_of = ds.row_lookup()
        obj["query_item_ids"] = [rid for rid in obj["query_item_ids"]
                                 if ds.label[rows_of([rid])[0]] == BACKGROUND_LABEL]
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="^line 3: episode 1 has no foreground query$"):
            load_episodes(path, ds)

    @pytest.mark.parametrize("field, value, message", [
        ("ways", True, "ways must be an integer, got True"),
        ("shots", 1.0, "shots must be an integer, got 1.0"),
        ("class_pool", None, "class_pool must be a string, got None"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("max_shots", None, "max_shots must be an integer, got None"),
    ], ids=["ways_true", "shots_float", "class_pool_null", "seed_negative", "max_shots_null"])
    def test_header_spec_of_another_type_is_refused(self, tmp_path, field, value, message):
        # "ways": true loaded as a 1-way spec
        ds = episode_dataset()
        spec = spec_for(ds, episode_count=1)
        path = tmp_path / "episodes.jsonl"
        save_file(ds, spec, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["spec"][field] = value
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as exc:
            load_episodes(path, ds)
        assert str(exc.value) == f"line 1: {message}"

    @pytest.mark.parametrize("edit", [
        lambda obj: [1, 2],
        lambda obj: {**obj, "episode_id": "abc"},
        lambda obj: {**obj, "episode_id": 1.5},
        lambda obj: with_support(obj, lambda ids: 5),
        lambda obj: {**obj, "class_ids": [["c000"]]},
        lambda obj: with_support({**obj, "class_ids": obj["class_ids"][:-1]},
                                 lambda ids: ids[:-1]),
        lambda obj: with_support(obj, lambda ids: ids[:-1]),
        lambda obj: {**obj, "support_item_ids": 5},
        lambda obj: {**obj, "support_item_ids": {"2": obj["support_item_ids"]["2"]}},
    ], ids=["not_an_object", "episode_id_text", "episode_id_fraction", "support_ids_not_a_list",
            "class_id_not_hashable", "fewer_ways_than_the_spec", "fewer_shots_than_the_spec",
            "supports_not_an_object", "support_count_missing"])
    def test_malformed_episode_line_reports_line(self, tmp_path, edit):
        ds = episode_dataset()
        spec = spec_for(ds, episode_count=2)
        path = tmp_path / "episodes.jsonl"
        save_file(ds, spec, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps(edit(json.loads(lines[2])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as exc:
            load_episodes(path, ds)
        assert exc.value.line == 3

    @pytest.mark.parametrize("edit", ["episode_id_taken", "background_class", "query_twice",
                                      "support_twice"])
    def test_episode_that_would_be_counted_twice_is_refused(self, tmp_path, edit):
        # each of these loaded and changed the scores: a shared episode id
        # merges two episodes' detections, a background class accepts
        # background queries, and a repeated item counts twice
        ds = episode_dataset()
        spec = spec_for(ds, shots=2, episode_count=2)
        path = tmp_path / "episodes.jsonl"
        save_file(ds, spec, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        obj = json.loads(lines[2])
        if edit == "episode_id_taken":
            obj["episode_id"] = json.loads(lines[1])["episode_id"]
        elif edit == "background_class":
            # the last class's two support items are background ones
            obj["class_ids"][-1] = BACKGROUND_LABEL
            obj["support_item_ids"]["2"][-2:] = [rid for rid in ds.id[ds.is_background]
                                                 if rid not in obj["query_item_ids"]][:2]
        elif edit == "query_twice":
            obj["query_item_ids"].append(obj["query_item_ids"][0])
        else:
            obj["support_item_ids"]["2"][1] = obj["support_item_ids"]["2"][0]
        lines[2] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DatasetError) as exc:
            load_episodes(path, ds)
        assert exc.value.line == 3

    def test_only_the_counts_asked_for_are_read(self, tmp_path):
        # a fault in the stored 5-shot support is not seen at 1 and 2 shots
        ds = episode_dataset()
        spec = spec_for(ds, episode_count=2)
        path = tmp_path / "episodes.jsonl"
        save_file(ds, spec, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = json.dumps(with_support(json.loads(lines[2]), lambda ids: ids[:-1], shots=5))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        passes, _ = load_episodes(path, ds, [2, 1])
        assert list(passes) == [2, 1] and [len(p) for p in passes.values()] == [2, 2]
        with pytest.raises(DatasetError) as exc:
            load_episodes(path, ds, [1, 5])
        assert str(exc.value) == ("line 3: episode 1 has 3 classes with [4, 5] support items "
                                  "each, the spec says 3-way 5-shot")

    def test_unknown_item_id_rejected(self, tmp_path):
        ds = episode_dataset()
        spec = spec_for(ds, episode_count=1)
        eps = generate_episodes(ds, spec)
        path = tmp_path / "episodes.jsonl"
        save_file(ds, spec, path)
        text = path.read_text().replace(eps[0].query_ids()[0], "r999999")
        path.write_text(text)
        with pytest.raises(DatasetError):
            load_episodes(path, ds)


def support_features(head, ep):
    """Penultimate features of an episode's support set under `head`,
    (ways, shots, width)."""
    F = features(head, ep.dataset[ep.support.ravel()])
    return F.reshape(len(ep.class_ids), -1, F.shape[1])


def features(head, records):
    """Penultimate features of `records`, a table, under `head`, one row each."""
    return head.embedding.hidden_features(records.features)


def installed(head, ep):
    return replace_representatives(head, support_embeddings(head, support_features(head, ep)))


class TestReplaceRepresentatives:
    def test_shape_five_way_one_shot(self):
        head = small_head()
        e = head.embedding.config.output_dim
        episode_head = replace_representatives(head, [np.ones((1, e)) * i for i in range(5)])
        assert episode_head.representatives.value.shape == (5, 1, e)
        assert episode_head.mixture.num_classes == 5
        assert episode_head.mixture.modes_per_class == 1
        assert head.mixture.num_classes == 4 and head.mixture.modes_per_class == 2
        # episode queries score by their best mode, whatever the trained head's rule
        assert (head.mixture.posterior_mode, episode_head.mixture.posterior_mode) == (
            "normalized", "max")

    def test_support_embeddings_are_ways_by_shots(self):
        ds = episode_dataset()
        head = small_head()
        ep = generate_episodes(ds, spec_for(ds, shots=3, episode_count=1))[0]
        support = support_embeddings(head, support_features(head, ep))
        assert support.shape == (3, 3, head.embedding.config.output_dim)
        for c, rows in enumerate(ep.support):
            for s, row in enumerate(rows):
                assert np.array_equal(support[c, s],
                                      head.embedding.embed_batch(ds.features[[row]])[0])

    def test_a_stack_of_supports_embeds_as_each_alone(self):
        # a block embeds its (episodes, ways, shots, width) support in one call
        head = small_head()
        episodes = generate_episodes(PASS_DATA, spec_for(PASS_DATA, shots=2, episode_count=4))
        supports = [support_features(head, ep) for ep in episodes]
        stacked = support_embeddings(head, np.stack(supports))
        assert stacked.shape == (4, 3, 2, head.embedding.config.output_dim)
        for got, support in zip(stacked, supports):
            assert got.tobytes() == support_embeddings(head, support).tobytes()

    def test_query_on_support_point_wins_with_zero_background(self):
        ds = episode_dataset()
        head = small_head()
        ep = generate_episodes(ds, spec_for(ds, episode_count=1))[0]
        episode_head = installed(head, ep)
        sup = ds[ep.support[2, :1]]
        out = episode_head.score(features(head, sup)[0])
        assert out.mode_probs.max() == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(out.mode_probs.max(axis=1))) == 2
        assert out.background_posterior == pytest.approx(0.0, abs=1e-12)

    def test_restore_is_bit_exact(self):
        # the trained head is never changed, so nothing needs restoring
        ds = episode_dataset()
        head = small_head()
        probe = ds.records[:1]
        before = head.score(probe.features[0])
        ep = generate_episodes(ds, spec_for(ds, episode_count=1))[0]
        episode_head = installed(head, ep)
        mid = episode_head.score(features(head, probe)[0])
        assert mid.class_posterior.shape != before.class_posterior.shape or \
            not np.array_equal(mid.class_posterior, before.class_posterior)
        after = head.score(probe.features[0])
        assert np.array_equal(before.class_posterior, after.class_posterior)
        assert np.array_equal(before.mode_probs, after.mode_probs)
        assert before.background_posterior == after.background_posterior

    def test_episode_head_shares_nothing(self):
        head = small_head()
        e = head.embedding.config.output_dim
        episode_head = replace_representatives(head, np.ones((2, 1, e)))
        net, episode_net = head.embedding, episode_head.embedding
        assert episode_net.config.input_dim == head.embedding.config.layer_widths[-2]
        assert episode_net.config.layer_widths == (e,)
        assert np.array_equal(episode_net.weights[0].value, net.weights[-1].value)
        assert np.array_equal(episode_net.last_bias.value, net.last_bias.value)

        def parts(h):
            nodes = h.parameters()
            states = h.embedding.bn_states
            arrays = [n.value for n in nodes] + [a for st in states
                                                 for a in (st.running_mean, st.running_var)]
            return nodes, states, arrays

        nodes, states, arrays = parts(head)
        own_nodes, own_states, own_arrays = parts(episode_head)
        assert not {id(n) for n in nodes} & {id(n) for n in own_nodes}
        assert not {id(st) for st in states} & {id(st) for st in own_states}
        assert not any(np.shares_memory(a, b) for a in arrays for b in own_arrays)

    def test_predictions_ignore_discarded_representatives(self):
        ds = episode_dataset()
        ep = generate_episodes(ds, spec_for(ds, episode_count=1))[0]
        ha, hb = small_head(seed=31), small_head(seed=31)
        hb.representatives.value += 0.37  # perturb only the trained mixture
        ea, eb = installed(ha, ep), installed(hb, ep)
        q = features(ha, ds[ep.queries[:1]])[0]
        assert np.array_equal(ea.score(q).class_posterior, eb.score(q).class_posterior)

    def test_zero_support_class_rejected(self):
        head = small_head()
        e = head.embedding.config.output_dim
        with pytest.raises(ConfigError):
            replace_representatives(head, [np.ones((1, e)), np.empty((0, e))])
        with pytest.raises(ConfigError):
            replace_representatives(head, np.empty((2, 0, e)))

    def test_dimension_mismatch_rejected(self):
        head = small_head()
        with pytest.raises(ConfigError):
            replace_representatives(head, [np.ones((1, 3))])


class TestEpisodeFinetune:
    def trained_head_and_episode(self):
        """The trained head, an episode head built from it, and the support
        features that episode head is tuned on."""
        ds = episode_dataset()
        seen = len(set(ds.label[~ds.is_background & (ds.group != "unseen")]))
        head = MixtureHead(EmbeddingConfig(10, (16, 8)), MixtureConfig(seen, 2, 0.5, 0.5),
                           task_mode="detection", seed=31)
        fit(head, ds, RunConfig(iterations=60, lr=0.01, seed=131, classes_per_batch=4,
                                instances_per_class=4))
        ep = generate_episodes(ds, spec_for(ds, shots=5, episode_count=1))[0]
        return head, installed(head, ep), support_features(head, ep)

    def param_hash(self, head):
        digest = hashlib.sha256()
        params = head.named_parameters()
        for name in sorted(params):
            digest.update(params[name].value.tobytes())
        for st in head.embedding.bn_states:
            digest.update(st.running_mean.tobytes())
            digest.update(st.running_var.tobytes())
        return digest.hexdigest()

    def test_zero_steps_is_identity(self):
        _, head, support = self.trained_head_and_episode()
        before = {n: p.value.copy() for n, p in head.named_parameters().items()}
        result = episode_finetune(head, support, steps=0)
        assert result.losses == [] and result.kept_step == 0
        for n, p in head.named_parameters().items():
            assert np.array_equal(before[n], p.value), n

    def test_only_last_layer_and_mixture_move(self):
        trained, head, support = self.trained_head_and_episode()
        frozen_before = self.param_hash(trained)
        tuned_before = self.param_hash(head)
        result = episode_finetune(head, support, steps=25, lr=0.05)
        assert self.param_hash(trained) == frozen_before
        assert self.param_hash(head) != tuned_before
        assert len(result.losses) == 26

    def test_support_loss_never_ends_higher(self):
        _, head, support = self.trained_head_and_episode()
        # deliberately unstable step size: the kept-best rule must still hold
        result = episode_finetune(head, support, steps=30, lr=2.0)
        assert result.losses[-1] >= min(result.losses)
        final = episode_finetune(head, support, steps=0)
        assert final.losses == []
        ways, shots, width = support.shape
        _, parts = head.total_loss(support.reshape(-1, width), np.repeat(np.arange(ways), shots))
        assert parts["total"] <= result.losses[0] + 1e-12

    def test_fifty_steps_reduce_support_loss(self):
        _, head, support = self.trained_head_and_episode()
        result = episode_finetune(head, support, steps=50, lr=0.01)
        assert result.losses[-1] < result.losses[0]

    def test_negative_steps_rejected(self):
        _, head, support = self.trained_head_and_episode()
        with pytest.raises(ConfigError):
            episode_finetune(head, support, steps=-1)


class TestScoreQueries:
    def heads_and_episode(self):
        """The trained head, an episode head built from it, and the episode."""
        ds = episode_dataset()
        head = small_head()
        ep = generate_episodes(ds, spec_for(ds, episode_count=1))[0]
        return head, installed(head, ep), ep

    def test_support_point_scores_one(self):
        trained, head, ep = self.heads_and_episode()
        sup = ep.dataset[ep.support[0, :1]]
        dets = score_queries(head, sup, features(trained, sup), ep.episode_id,
                             ep.class_ids)
        assert dets.class_id.tolist() == [ep.class_ids[0]]
        assert dets.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_far_query_goes_background(self):
        head = small_head()
        e = head.embedding.config.output_dim
        supports = [np.eye(e)[i : i + 1] * 5.0 for i in range(3)]
        episode_head = replace_representatives(head, supports)
        query = Dataset(["q0"], ["c000"], np.zeros((1, 10)))
        feats = features(head, query)
        emb = episode_head.embedding.embed_batch(feats[:1])[0]
        assert all(np.linalg.norm(emb - s[0]) >= 3.0 for s in supports)
        dets = score_queries(episode_head, query, feats, 0, ["a", "b", "c"])
        assert dets.class_id.tolist() == [BACKGROUND_LABEL]
        assert dets.scores[0] > 0.9999

    def test_scores_invariant_to_query_order(self):
        trained, head, ep = self.heads_and_episode()
        queries = ep.dataset[ep.queries]
        feats = features(trained, queries)
        fwd = score_queries(head, queries, feats, ep.episode_id, ep.class_ids)
        rev = score_queries(head, queries[::-1], feats[::-1], ep.episode_id, ep.class_ids)
        by_item = lambda dets, qs: {q: pair for q, pair in
                                    zip(qs.id, zip(dets.class_id.tolist(), dets.scores.tolist()))}
        assert by_item(fwd, queries) == by_item(rev, queries[::-1])

    def test_single_class_background_rule(self):
        head = small_head()
        ds = episode_dataset()
        ep = generate_episodes(ds, spec_for(ds, ways=1, episode_count=1,
                                            background_queries=0))[0]
        episode_head = installed(head, ep)
        sup = ds[ep.support[0, :1]]
        dets = score_queries(episode_head, sup, features(head, sup), 0, ep.class_ids)
        assert dets.class_id.tolist() == [ep.class_ids[0]]

    def test_fallback_box_and_image(self):
        trained, head, ep = self.heads_and_episode()
        q = Dataset(["lonely"], ["c000"], np.zeros((1, 10)))
        dets = score_queries(head, q, features(trained, q), 3, ep.class_ids)
        assert dets.boxes.tolist() == [[0.0, 0.0, 1.0, 1.0]]
        assert dets.image_id.tolist() == ["lonely"]
        assert dets.episode_id.tolist() == [3]


def head_state(head):
    """The bytes of everything an episode could change on a trained head."""
    return {
        "params": {n: p.value.tobytes() for n, p in head.named_parameters().items()},
        "bn": [(st.running_mean.tobytes(), st.running_var.tobytes())
               for st in head.embedding.bn_states],
        "mixture": dataclasses.replace(head.mixture),
        "representatives": head.representatives.value.tobytes(),
        "grads": {n: None if p.grad is None else p.grad.tobytes()
                  for n, p in head.named_parameters().items()},
    }


class TestRunEpisode:
    def test_scores_all_queries_and_restores(self):
        # the episode runs on its own episode head: the trained head keeps
        # every bit it had before
        ds = episode_dataset()
        head = small_head()
        probe = ds.records.features[5]
        before = head.score(probe)
        state = head_state(head)
        ep = generate_episodes(ds, spec_for(ds, episode_count=1))[0]
        for steps in (0, 10):
            detections = run_episode(head, ep, finetune_steps=steps, finetune_lr=0.05)
            assert len(detections) == len(ep.queries)
            assert (detections.episode_id == ep.episode_id).all()
            after = head.score(probe)
            assert np.array_equal(before.class_posterior, after.class_posterior)
            assert before.background_posterior == after.background_posterior
            assert head_state(head) == state

    def test_ground_truth_covers_foreground_queries(self):
        ds = episode_dataset()
        ep = generate_episodes(ds, spec_for(ds, episode_count=1))[0]
        gts = evaluate_episodes(small_head(), [ep]).truth
        fg = ep.queries[~ds.is_background[ep.queries]]
        assert len(gts) == len(fg)
        assert set(gts.class_id.tolist()) == set(ep.class_ids)


def reference_finetune(head, support, steps, lr):
    """The one-episode fine-tune loop that the stacked pass replaced, kept as
    its reference: one loss graph per step for one episode head, and the
    best-loss iterate kept."""
    if steps == 0:
        return FinetuneResult([], 0)
    ways, shots, width = support.shape
    X = support.reshape(ways * shots, width)
    labels = np.repeat(np.arange(ways), shots)
    tuned = head.parameters()
    optimizer = SGD({"no_decay": tuned}, lr=lr, momentum=0.0)
    losses = []
    best = (np.inf, 0, None)
    for step in range(steps + 1):
        loss, parts = head.total_loss(X, labels)
        value = parts["total"]
        losses.append(value)
        if value < best[0]:
            best = (value, step, [p.value.copy() for p in tuned])
        if step == steps:
            break
        ad.zero_grads(tuned)
        ad.backward(loss)
        optimizer.step()
    if losses[-1] > best[0]:
        for p, v in zip(tuned, best[2]):
            p.value = v.copy()
        return FinetuneResult(losses, best[1])
    return FinetuneResult(losses, steps)


PASS_DATA, PASS_HEAD = episode_dataset(), small_head()
PASS_HEADS = {"detection": PASS_HEAD, "classification": MixtureHead(
    EmbeddingConfig(10, (16, 8)), MixtureConfig(4, 2, 0.5, 0.5), "classification", seed=31)}


@settings(max_examples=30, deadline=None)
@given(count=st.integers(1, 5), ways=st.integers(2, 4), shots=st.integers(1, 3),
       steps=st.integers(0, 6), lr=st.floats(1e-3, 0.5),
       task_mode=st.sampled_from(sorted(PASS_HEADS)))
# unstable step sizes: every episode reverts, and the kept steps differ
@example(count=5, ways=3, shots=2, steps=12, lr=2.0, task_mode="detection")
@example(count=5, ways=4, shots=3, steps=12, lr=1.0, task_mode="detection")
def test_stacked_pass_matches_one_episode_at_a_time(count, ways, shots, steps, lr, task_mode):
    trained = PASS_HEADS[task_mode]
    episodes = generate_episodes(PASS_DATA, spec_for(PASS_DATA, ways=ways, shots=shots,
                                                     episode_count=count))
    supports = [support_features(trained, ep) for ep in episodes]
    stacked = [installed(trained, ep) for ep in episodes]
    alone = [installed(trained, ep) for ep in episodes]
    results = finetune_episodes(stacked, np.stack(supports), steps, lr)
    for ep, support, head, reference, result in zip(episodes, supports, stacked, alone, results):
        expected = reference_finetune(reference, support, steps, lr)
        assert np.array(result.losses).tobytes() == np.array(expected.losses).tobytes()
        assert result.kept_step == expected.kept_step
        for name, p in reference.named_parameters().items():
            assert head.named_parameters()[name].value.tobytes() == p.value.tobytes(), name
        queries = features(trained, ep.dataset[ep.queries])
        got, want = (score_queries(h, ep.dataset[ep.queries], queries, ep.episode_id, ep.class_ids)
                     for h in (head, reference))
        assert got.class_id.tolist() == want.class_id.tolist()
        assert got.scores.tobytes() == want.scores.tobytes()


def test_unstable_steps_keep_a_different_iterate_per_episode():
    # the second explicit example above is a witness only if its episodes,
    # tuned in one stack, keep different steps, the last one among them
    episodes = generate_episodes(PASS_DATA, spec_for(PASS_DATA, ways=4, shots=3,
                                                     episode_count=5))
    heads = [installed(PASS_HEAD, ep) for ep in episodes]
    support = np.stack([support_features(PASS_HEAD, ep) for ep in episodes])
    kept = [r.kept_step for r in finetune_episodes(heads, support, 12, 1.0)]
    assert 12 in kept and len(set(kept)) > 2


class TestEvaluateEpisodes:
    @pytest.mark.parametrize("count", [1, 7])
    def test_a_pass_runs_one_backward_per_step(self, monkeypatch, count):
        # all episodes of a block share each step's graph; one block here
        head = small_head()
        episodes = generate_episodes(PASS_DATA, spec_for(PASS_DATA, episode_count=count))
        calls = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda root: calls.append(root) or backward(root))
        state = head_state(head)
        evaluate_episodes(head, episodes, steps=4, lr=0.05)
        assert len(calls) == 4
        assert head_state(head) == state

    @pytest.mark.parametrize("count, block, calls", [(1, 36_000, 1), (7, 36_000, 1),
                                                     (7, 2 * 169, 4)])
    def test_a_block_runs_the_frozen_layers_once(self, monkeypatch, count, block, calls):
        # every support and query row of a block goes through the hidden
        # layers in one call; 2 * 169 entries hold two episodes a block
        head = small_head()
        episodes = generate_episodes(PASS_DATA, spec_for(PASS_DATA, episode_count=count))
        seen = []
        hidden = EmbeddingNet.hidden_features
        monkeypatch.setattr(EmbeddingNet, "hidden_features",
                            lambda net, X: seen.append(len(X)) or hidden(net, X))
        monkeypatch.setattr(episodes_module, "BLOCK_ENTRIES", block)
        evaluate_episodes(head, episodes)
        assert len(seen) == calls
        assert sum(seen) == sum(ep.support.size + len(ep.queries) for ep in episodes)

    def test_blocks_change_no_bit(self, monkeypatch):
        head = small_head()
        episodes = generate_episodes(PASS_DATA, spec_for(PASS_DATA, episode_count=5))
        whole = evaluate_episodes(head, episodes, steps=4, lr=0.05)
        calls = []
        backward = ad.backward
        monkeypatch.setattr(ad, "backward", lambda root: calls.append(root) or backward(root))
        # two episodes a block: 3 rows, width 16 and e = 8 make 169 entries each
        monkeypatch.setattr(episodes_module, "BLOCK_ENTRIES", 2 * 169)
        blocked = evaluate_episodes(head, episodes, steps=4, lr=0.05)
        assert len(calls) == 3 * 4
        for name in ("accuracy", "false_accept"):
            assert getattr(blocked, name) == getattr(whole, name)
        assert blocked.label.tolist() == whole.label.tolist()
        for table in ("queries", "detections"):
            got, want = getattr(blocked, table), getattr(whole, table)
            for column in ("class_id", "record_id", "image_id"):
                assert getattr(got, column).tolist() == getattr(want, column).tolist()
            assert got.scores.tobytes() == want.scores.tobytes()

    def test_the_first_bad_record_in_episode_order_is_named(self):
        # each episode's support goes through the frozen layers before its
        # queries, and episode 0 before episode 1, so a bad query of episode
        # 0 is named before a bad support item of episode 1
        episodes = generate_episodes(PASS_DATA, spec_for(PASS_DATA, episode_count=2))
        query, support = episodes[0].queries[0], episodes[1].support[0, 0]
        features = PASS_DATA.features.copy()
        features[[query, support]] = 1.7e308 * (-1.0) ** np.arange(features.shape[1])
        bad = Dataset(PASS_DATA.id, PASS_DATA.label, features, box=PASS_DATA.box,
                      image_id=PASS_DATA.image_id, split=PASS_DATA.split, group=PASS_DATA.group)
        episodes = [Episode(ep.episode_id, ep.class_ids, ep.support, ep.queries, bad)
                    for ep in episodes]
        with pytest.raises(NonFiniteRowError, match="^record 'r000268' "):
            evaluate_episodes(PASS_HEAD, episodes)

    def test_episodes_must_share_a_shape(self):
        # a pass has one shape whether it is fine-tuned or not
        mixed = (generate_episodes(PASS_DATA, spec_for(PASS_DATA, shots=1, episode_count=1))
                 + generate_episodes(PASS_DATA, spec_for(PASS_DATA, shots=2, episode_count=1)))
        for steps in (0, 2):
            with pytest.raises(ConfigError, match="same ways and shots"):
                evaluate_episodes(small_head(), mixed, steps=steps)

    def test_a_pass_needs_an_episode(self):
        with pytest.raises(ConfigError, match="at least one episode"):
            evaluate_episodes(small_head(), [])

    def test_episodes_must_share_a_dataset(self):
        other = episode_dataset(seed=30)
        mixed = (generate_episodes(PASS_DATA, spec_for(PASS_DATA, episode_count=1))
                 + generate_episodes(other, spec_for(other, episode_count=1)))
        with pytest.raises(ConfigError):
            evaluate_episodes(small_head(), mixed)


def reference_ground_truth(episode):
    """Ground truth for the foreground queries of one episode, read from its
    dataset: the builder a pass's table replaced, kept as its reference."""
    queries = episode.dataset[episode.queries]
    foreground = queries[~queries.is_background]
    return GroundTruth(
        episode_id=np.full(len(foreground), episode.episode_id),
        image_id=np.where(np.equal(foreground.image_id, None), foreground.id,
                          foreground.image_id),
        class_id=foreground.label,
        boxes=np.where(np.isnan(foreground.box), np.array([0.0, 0.0, 1.0, 1.0]), foreground.box),
    )


def reference_pass(head, episodes, steps, lr):
    """The per-episode counters a pass's table replaced, kept as its
    reference, with each episode run alone: (accuracy, false accepts,
    pooled accepted detections, pooled ground truth)."""
    foreground = foreground_correct = background = background_accepted = 0
    kept = []
    for ep in episodes:
        detections = run_episode(head, ep, finetune_steps=steps, finetune_lr=lr)
        labels = ep.dataset.label[ep.queries]
        accepted = np.isin(detections.class_id, ep.class_ids)
        is_background = labels == BACKGROUND_LABEL
        correct = detections.class_id == labels.astype(str)
        foreground += int(np.count_nonzero(~is_background))
        foreground_correct += int(np.count_nonzero(~is_background & correct))
        background += int(np.count_nonzero(is_background))
        background_accepted += int(np.count_nonzero(is_background & accepted))
        kept.append(detections[accepted])
    return (foreground_correct / foreground,
            background_accepted / background if background else None,
            Detections.concat(kept),
            GroundTruth.concat([reference_ground_truth(ep) for ep in episodes]))


BOXED_DATA = episode_dataset(with_boxes=True)


@settings(max_examples=25, deadline=None)
@given(count=st.integers(1, 6), ways=st.integers(1, 4), shots=st.integers(1, 3),
       steps=st.integers(0, 4), background=st.sampled_from([0, 5]), boxed=st.booleans(),
       block_entries=st.integers(1, 3_000))
def test_pass_table_matches_the_per_episode_counters(count, ways, shots, steps, background,
                                                     boxed, block_entries):
    data = BOXED_DATA if boxed else PASS_DATA
    episodes = generate_episodes(data, spec_for(data, ways=ways, shots=shots, episode_count=count,
                                                background_queries=background))
    accuracy, false_accept, detections, truth = reference_pass(PASS_HEAD, episodes, steps, 0.05)
    with mock.patch.object(episodes_module, "BLOCK_ENTRIES", block_entries):
        result = evaluate_episodes(PASS_HEAD, episodes, steps, 0.05)
    assert (result.accuracy, result.false_accept) == (accuracy, false_accept)
    assert type(result.accuracy) is float
    for got, want in ((result.detections, detections), (result.truth, truth)):
        assert len(got) == len(want)
        for name in type(want)._inputs:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype.kind == b.dtype.kind and a.tolist() == b.tolist(), name
            if a.dtype.kind == "f":
                assert a.tobytes() == b.tobytes(), name
    # a subset keeps the ranking of the whole table: the same order as the
    # ranking of the accepted rows alone
    assert np.argsort(result.detections.rank).tolist() == np.argsort(detections.rank).tolist()
