import contextlib
import copy
import dataclasses
import json
import re
import tempfile
import time
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixrep.config import (
    CLASSIFICATION_WIDTHS,
    DETECTION_WIDTHS,
    EmbeddingConfig,
    EpisodeSpec,
    MixtureConfig,
    RunConfig,
    SynthConfig,
    from_json,
    load_run_config,
    write_resolved_config,
)
from mixrep.episodes import finetune_episodes
from mixrep.errors import ConfigError
from mixrep.head import MixtureHead, load_checkpoint, save_checkpoint
from mixrep.metrics import attribute_neighborhood_precision, match_detections, pr_curve, recall_at_k
from mixrep.rng import substream


class TestDefaults:
    def test_core_defaults(self):
        c = RunConfig()
        assert c.task_mode == "classification"
        assert c.seed == 0
        assert c.sigma == 0.5
        assert c.margin == 0.5
        assert c.posterior_mode == "normalized"
        assert c.lr == 0.01
        assert c.iterations == 500
        assert c.classes_per_batch == 12
        assert c.instances_per_class == 4
        assert c.episode_count == 500
        assert c.queries_per_class == 10
        assert c.recall_ks == (10, 100)

    def test_widths_resolve_per_task(self):
        assert RunConfig().resolved_widths() == CLASSIFICATION_WIDTHS
        assert RunConfig(task_mode="detection").resolved_widths() == DETECTION_WIDTHS
        assert RunConfig(layer_widths=[64, 32]).resolved_widths() == (64, 32)

    def test_modes_resolve_per_task(self):
        assert RunConfig().resolved_modes() == 3
        assert RunConfig(task_mode="detection").resolved_modes() == 5
        assert RunConfig(modes_per_class=7).resolved_modes() == 7

    def test_bad_task_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(task_mode="segmentation")

    def test_bad_iou(self):
        with pytest.raises(ConfigError):
            RunConfig(match_iou=0.0)
        with pytest.raises(ConfigError):
            RunConfig(match_iou=1.5)

    def test_bad_recall_ks(self):
        with pytest.raises(ConfigError):
            RunConfig(recall_ks=(0,))

    def test_repeated_recall_k_is_refused(self):
        # it wrote a report with two recall_at_10 columns, of which
        # csv.DictReader kept one
        with pytest.raises(ConfigError) as exc:
            config_from({"recall_ks": [10, 100, 10]})
        assert str(exc.value) == "recall_ks entry 10 is repeated in (10, 100, 10)"

    def test_negative_finetune(self):
        with pytest.raises(ConfigError):
            RunConfig(finetune_steps=-1)


class TestTrainerChecks:
    """The trainer's values are checked once, when the run config is made,
    so every command that loads a config refuses a bad one."""

    @pytest.mark.parametrize("key, value, message", [
        ("classes_per_batch", 1, "classes_per_batch must be >= 2, got 1"),
        ("instances_per_class", 0, "instances_per_class must be >= 1, got 0"),
        ("batch_strategy", "round_robin",
         "batch_strategy must be one of ('class_balanced', 'image_group'), got 'round_robin'"),
        ("lr", 0.0, "lr must be within (0, inf), got 0.0"),
        ("iterations", 0, "iterations must be >= 1, got 0"),
        ("optimizer", "lbfgs", "optimizer must be one of ('sgd', 'adam'), got 'lbfgs'"),
        ("weight_decay", -0.1, "weight_decay must be within [0, inf), got -0.1"),
        ("finetune_lr", 0.0, "finetune_lr must be within (0, inf), got 0.0"),
        ("finetune_lr", -1.0, "finetune_lr must be within (0, inf), got -1.0"),
        ("momentum", -3.0, "momentum must be within [0, 1), got -3.0"),
        ("momentum", 1.0, "momentum must be within [0, 1), got 1.0"),
        ("momentum", 7.5, "momentum must be within [0, 1), got 7.5"),
    ], ids=["one_class_per_batch", "no_instances_per_class", "unknown_batch_strategy",
            "zero_lr", "zero_iterations", "unknown_optimizer", "negative_weight_decay",
            "zero_finetune_lr", "negative_finetune_lr", "negative_momentum", "unit_momentum",
            "large_momentum"])
    def test_bad_trainer_value_is_refused(self, key, value, message):
        for build in (lambda: RunConfig(**{key: value}), lambda: config_from({key: value}),
                      lambda: dataclasses.replace(RunConfig(), **{key: value})):
            with pytest.raises(ConfigError) as exc:
                build()
            assert str(exc.value) == message

    def test_trainer_values_in_range_are_kept(self):
        c = RunConfig(classes_per_batch=2, instances_per_class=1, batch_strategy="image_group",
                      optimizer="adam", iterations=1, lr=1e-9, finetune_lr=1e-9, momentum=0.0)
        assert (c.classes_per_batch, c.batch_strategy, c.optimizer, c.lr, c.momentum) == (
            2, "image_group", "adam", 1e-9, 0.0)


def neighborhood(*sizes):
    return attribute_neighborhood_precision(np.eye(4), np.ones((4, 1), dtype=int), sizes)


@pytest.mark.parametrize("build, message", [
    (lambda: SynthConfig(num_classes=0), "num_classes must be >= 1, got 0"),
    (lambda: SynthConfig(samples_per_mode=0), "samples_per_mode must be >= 1, got 0"),
    (lambda: SynthConfig(input_dim=0), "input_dim must be >= 1, got 0"),
    (lambda: SynthConfig(unseen_classes=-1), "unseen_classes must be >= 0, got -1"),
    (lambda: SynthConfig(rois_per_image=1), "rois_per_image must be >= 2, got 1"),
    (lambda: EmbeddingConfig(input_dim=0, layer_widths=(4,)), "input_dim must be >= 1, got 0"),
    (lambda: MixtureConfig(num_classes=2, modes_per_class=0), "modes_per_class must be >= 1, got 0"),
    (lambda: EpisodeSpec(shots=1, ways=2, episode_count=0), "episode_count must be >= 1, got 0"),
    (lambda: EpisodeSpec(shots=1, ways=2, background_queries=-1),
     "background_queries must be >= 0, got -1"),
    (lambda: RunConfig(finetune_steps=-1), "finetune_steps must be >= 0, got -1"),
    (lambda: RunConfig(recall_ks=(10, 0)), "recall_ks entry must be >= 1, got 0"),
    (lambda: RunConfig(layer_widths=(0, 4)), "layer_widths entry must be >= 1, got 0"),
    (lambda: EmbeddingConfig(input_dim=4, layer_widths=(8, -2)),
     "layer_widths entry must be >= 1, got -2"),
    (lambda: substream(-1, "x"), "seed must be >= 0, got -1"),
    (lambda: finetune_episodes([], None, -1), "steps must be >= 0, got -1"),
    (lambda: recall_at_k(None, None, 0), "k must be >= 1, got 0"),
    (lambda: pr_curve(None, None, 0), "num_gt must be >= 1, got 0"),
    (lambda: RunConfig(match_iou=1.5), "match_iou must be within (0, 1], got 1.5"),
    (lambda: match_detections(None, None, 0), "iou_threshold must be within (0, 1], got 0.0"),
    # an integer argument is an integer: substream(1.5) drew seed 1's
    # stream, recall_at_k(k=1.5) kept 2 per image, a neighborhood of 2.7 was 2
    (lambda: substream(1.5, "x"), "seed must be an integer, got 1.5"),
    (lambda: substream(True, "x"), "seed must be an integer, got True"),
    (lambda: recall_at_k(None, None, 1.5), "k must be an integer, got 1.5"),
    (lambda: finetune_episodes([], None, 2.0), "steps must be an integer, got 2.0"),
    (lambda: pr_curve(None, None, "3"), "num_gt must be an integer, got '3'"),
    (lambda: neighborhood(2.7), "neighborhood size must be an integer, got 2.7"),
    (lambda: neighborhood("3"), "neighborhood size must be an integer, got '3'"),
    (lambda: neighborhood(0), "neighborhood size must be >= 1, got 0"),
    (lambda: neighborhood(1, 4), "neighborhood size must be < 4, the number of items, got 4"),
])
def test_each_bound_is_worded_alike_by_every_owner(build, message):
    # configs and library arguments share one wording per rule
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value) == message


def test_a_numpy_integer_argument_is_an_integer():
    # a count taken from an array stays usable; a config field still wants an int
    assert substream(np.int64(3), "x").integers(1 << 30) == substream(3, "x").integers(1 << 30)
    assert neighborhood(np.int64(1)) == neighborhood(1)
    with pytest.raises(ConfigError) as exc:
        RunConfig(seed=np.int64(3))
    assert str(exc.value) == "seed must be an integer, got np.int64(3)"


def test_a_long_list_with_one_repeat_is_checked_in_one_pass():
    # counting each value was quadratic: 16,000 entries took 3.5 s
    values = (*range(1, 40_000), 7)
    start = time.perf_counter()
    with pytest.raises(ConfigError) as exc:
        RunConfig(recall_ks=values)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == f"recall_ks entry 7 is repeated in {values!r}"
    with pytest.raises(ConfigError) as exc:
        RunConfig(recall_ks=(5, 9, 9, 5, 5))
    assert str(exc.value) == "recall_ks entry 9 is repeated in (5, 9, 9, 5, 5)"


def test_empty_layer_widths_have_a_message_of_their_own():
    for build in (lambda: RunConfig(layer_widths=()), lambda: config_from({"layer_widths": []})):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == "layer_widths must not be empty"


@pytest.mark.parametrize("value, message", [
    (-1.0, "min_separation must be within [0, inf), got -1.0"),
    (float("nan"), "min_separation must be a finite number, got nan"),
    (float("inf"), "min_separation must be a finite number, got inf")],
    ids=["-1.0", "nan", "inf"])
def test_min_separation_must_be_a_finite_number_at_least_zero(value, message):
    # -1.0 built a dataset; NaN failed late, placing the centers
    with pytest.raises(ConfigError) as exc:
        SynthConfig(min_separation=value)
    assert str(exc.value) == message
    assert SynthConfig(min_separation=0.0).min_separation == 0.0


class TestFactories:
    def test_embedding_config(self):
        c = RunConfig(layer_widths=(16, 8), bn_momentum=0.8)
        e = c.embedding_config(12)
        assert e.input_dim == 12
        assert e.layer_widths == (16, 8)
        assert e.bn_momentum == 0.8

    def test_mixture_config(self):
        m = RunConfig(sigma=0.25, margin=0.1).mixture_config(4)
        assert (m.num_classes, m.modes_per_class) == (4, 3)
        assert (m.sigma, m.margin) == (0.25, 0.1)

    def test_episode_spec_shot_override(self):
        c = RunConfig(shots=1, ways=3, episode_count=7, seed=4)
        assert c.episode_spec().shots == 1
        s = dataclasses.replace(c.episode_spec(), shots=5)
        assert (s.shots, s.ways, s.episode_count, s.seed) == (5, 3, 7, 4)

    def test_bad_downstream_value_surfaces_at_factory(self):
        # deep validation lives in the component configs
        with pytest.raises(ConfigError):
            RunConfig(sigma=-1.0).mixture_config(3)
        with pytest.raises(ConfigError):
            RunConfig(shots=99).episode_spec()


def config_from(doc):
    return from_json(RunConfig, doc, "config")


class TestWireForm:
    def test_round_trip(self):
        c = RunConfig(task_mode="detection", seed=3, layer_widths=(8, 4),
                      synth=SynthConfig(num_classes=4, modes_per_class=1,
                                        samples_per_mode=5, input_dim=6))
        back = from_json(RunConfig, json.loads(json.dumps(dataclasses.asdict(c))), "config")
        assert back == c

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys.*learning_rate"):
            config_from({"learning_rate": 0.1})
        # the support-ROI IoU knob was removed: every record is already a ROI
        with pytest.raises(ConfigError, match="unknown config keys.*support_iou"):
            config_from({"support_iou": 0.7})

    def test_unknown_synth_key_rejected(self):
        with pytest.raises(ConfigError, match="synth"):
            config_from({"synth": {"num_classes": 3, "flavor": "mild"}})

    def test_synth_must_be_object(self):
        with pytest.raises(ConfigError):
            config_from({"synth": [1, 2]})

    def test_lists_become_tuples(self):
        c = config_from({"layer_widths": [32, 16], "recall_ks": [5]})
        assert c.layer_widths == (32, 16)
        assert c.recall_ks == (5,)

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(p)

    @pytest.mark.parametrize("text", ['{"seed": ' + "1" * 5000 + "}",
                                      '{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                             ids=["integer_of_5000_digits", "arrays_nested_too_deep"])
    def test_load_rejects_json_the_decoder_cannot_hold(self, tmp_path, text):
        p = tmp_path / "run.json"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(p)

    def test_load_round_trip(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"task_mode": "detection", "seed": 5}), encoding="utf-8")
        c = load_run_config(p)
        assert (c.task_mode, c.seed) == ("detection", 5)


class TestResolvedLog:
    def test_resolved_file_pins_defaults(self, tmp_path):
        p = tmp_path / "resolved.json"
        write_resolved_config(RunConfig(task_mode="detection"), p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        assert doc["layer_widths"] == list(DETECTION_WIDTHS)
        assert doc["modes_per_class"] == 5

    def test_feeding_the_log_back_reproduces_the_config(self, tmp_path):
        c = RunConfig(task_mode="detection", seed=11, sigma=0.3)
        p = tmp_path / "resolved.json"
        write_resolved_config(c, p)
        back = load_run_config(p)
        assert back.resolved_widths() == c.resolved_widths()
        assert back.resolved_modes() == c.resolved_modes()
        assert back.seed == c.seed and back.sigma == c.sigma
        # a second write of the reloaded config is byte-identical
        q = tmp_path / "again.json"
        write_resolved_config(back, q)
        assert q.read_bytes() == p.read_bytes()

    def test_replace_revalidates(self):
        c = RunConfig()
        with pytest.raises(ConfigError):
            dataclasses.replace(c, task_mode="nope")


class TestFrozen:
    """Every schema is a value checked once, when built."""

    @pytest.mark.parametrize("config", [
        EmbeddingConfig(4, (8, 2)), MixtureConfig(3), EpisodeSpec(1, 5), SynthConfig(),
        RunConfig(synth=SynthConfig())], ids=lambda config: type(config).__name__)
    def test_no_field_can_be_assigned(self, config):
        for field in dataclasses.fields(config):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, field.name, getattr(config, field.name))

    def test_a_changed_copy_is_checked_again(self):
        with pytest.raises(ConfigError, match=r"^sigma must be within \(0, inf\), got -1.0$"):
            dataclasses.replace(RunConfig(), sigma=-1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().sigma = -1.0


class TestTypedReader:
    """`from_json` takes a JSON value only where it fits the field's annotation."""

    @pytest.mark.parametrize("doc, key", [
        ({"layer_widths": "64"}, "layer_widths"),  # trained a (6, 4) network
        ({"seed": 1.5}, "seed"),  # ran seed 1
        ({"iterations": True}, "iterations"),  # ran 1 iteration
        ({"sigma": "x"}, "sigma"),
        ({"lr": "0.1"}, "lr"),
        ({"momentum": "x"}, "momentum"),
        ({"lr": 10**400}, "lr"),  # OverflowError in the optimizer
        ({"final_l2_normalize": 1}, "final_l2_normalize"),
        ({"recall_ks": [10, 1.0]}, "recall_ks"),
        ({"recall_ks": None}, "recall_ks"),
        ({"task_mode": None}, "task_mode"),
        ({"synth": {"num_classes": "3"}}, "num_classes"),
        ({"synth": {"with_boxes": "yes"}}, "with_boxes"),
        # Python's json reads NaN and Infinity, which JSON does not allow:
        # "sigma": Infinity trained and reported 80% error with exit 0
        *[({key: value}, key) for key in ("sigma", "lr", "finetune_lr")
          for value in (float("nan"), float("inf"), -float("inf"))],
    ])
    def test_value_of_another_type_is_refused_naming_its_key(self, doc, key):
        # a field of the nested synth object is named by its path
        name = f"synth.{key}" if "synth" in doc else key
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must be "):
            config_from(doc)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_in_a_file_is_refused(self, tmp_path, token):
        p = tmp_path / "run.json"
        p.write_text('{"sigma": %s}' % token, encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_run_config(p)
        assert str(exc.value) == f"sigma must be a finite number, got {float(token)!r}"

    def test_checkpoint_with_an_infinite_sigma_is_refused(self, tmp_path):
        doc = saved_checkpoint()
        doc["mixture"]["sigma"] = float("inf")
        p = tmp_path / "checkpoint.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert '"sigma": Infinity' in p.read_text(encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(p)
        assert str(exc.value) == f"{p}: sigma must be a finite number, got inf"

    def test_numbers_and_nulls_fit_where_annotated(self):
        c = config_from({"sigma": 1, "lr": 0.5, "layer_widths": None, "synth": {"spread": 0}})
        assert (c.sigma, c.lr, c.layer_widths, c.synth.spread) == (1, 0.5, None, 0)

    def test_missing_and_unknown_keys_are_named(self):
        with pytest.raises(ConfigError, match="episode spec is missing key 'ways'"):
            from_json(EpisodeSpec, {"shots": 1}, "episode spec")
        with pytest.raises(ConfigError, match=r"unknown mixture keys: \['colour'\]"):
            from_json(MixtureConfig, {"num_classes": 2, "colour": 1}, "mixture")

    @pytest.mark.parametrize("doc", [{"seed": -1}, {"seed": -(10**30)}])
    def test_negative_seed_is_refused(self, doc):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            config_from(doc)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            dataclasses.replace(RunConfig(), seed=doc["seed"])


# ---------------------------------------------------------------------------
# fuzz: run configs and checkpoints that are truncated, byte-flipped or hold a
# value of another type either load or raise ConfigError

README_RUN = {
    "task_mode": "detection", "seed": 30, "layer_widths": [64, 32], "iterations": 150,
    "classes_per_batch": 5, "instances_per_class": 6, "ways": 5, "queries_per_class": 10,
    "episode_count": 100, "background_queries": 10, "recall_ks": [10, 100],
    "synth": {"num_classes": 15, "modes_per_class": 1, "samples_per_mode": 24, "input_dim": 20,
              "spread": 0.05, "unseen_classes": 10, "background_fraction": 0.15,
              "test_fraction": 0.0},
}
# the same with every field written out, as resolved-config.json holds it
RESOLVED_RUN = json.loads(json.dumps(dataclasses.asdict(config_from(README_RUN))))


def saved_checkpoint() -> dict:
    head = MixtureHead(EmbeddingConfig(6, (8, 4)), MixtureConfig(3, 2), task_mode="detection",
                       seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(head, Path(tmp) / "checkpoint.json")
        return json.loads((Path(tmp) / "checkpoint.json").read_text(encoding="utf-8"))


CHECKPOINT = saved_checkpoint()

# a string, a bool, a float, a negative number, null or a nested array
OTHER_TYPES = st.sampled_from(["x", "", "0.1", True, False, 0.5, 1e308, float("nan"), -1, -20,
                               None, [[1]], [1, [2, 3]]])


def value_paths(value, prefix=()):
    """The path to every value inside `value`, through objects and arrays."""
    inner = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in inner:
        yield prefix + (key,)
        yield from value_paths(item, prefix + (key,))


def with_values(doc: dict, **sections) -> bytes:
    """`doc` as JSON text, each of its sections (or top-level keys) updated."""
    doc = copy.deepcopy(doc)
    for key, value in sections.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    return json.dumps(doc).encode("utf-8")


@st.composite
def mutated(draw, doc):
    """`doc` as JSON text: unchanged, truncated, byte-flipped, or with one to
    three values swapped for one of another type."""
    doc = copy.deepcopy(doc)
    mutation = draw(st.sampled_from(["none", "truncate", "flip", "swap"]))
    for _ in range(draw(st.integers(1, 3)) if mutation == "swap" else 0):
        *parent, key = draw(st.sampled_from(list(value_paths(doc))))
        target = doc
        for step in parent:
            target = target[step]
        target[key] = copy.deepcopy(draw(OTHER_TYPES))  # the sampled object is shared
    data = json.dumps(doc).encode("utf-8")
    if mutation == "truncate":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif mutation == "flip":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    return data


def loads_or_refuses(load, data: bytes):
    """`load` of a file holding `data` returns or raises ConfigError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.json"
        path.write_bytes(data)
        with contextlib.suppress(ConfigError):
            load(path)


def build_every_section(path):
    config = load_run_config(path)
    for build in (lambda: config.embedding_config(8), lambda: config.mixture_config(3),
                  config.episode_spec):
        with contextlib.suppress(ConfigError):
            build()


@settings(max_examples=250, deadline=None)
@given(data=mutated(RESOLVED_RUN))
@example(data=with_values(RESOLVED_RUN, layer_widths="64"))
@example(data=with_values(RESOLVED_RUN, seed=1.5))
@example(data=with_values(RESOLVED_RUN, iterations=True))
@example(data=with_values(RESOLVED_RUN, sigma="x"))
@example(data=with_values(RESOLVED_RUN, lr="0.1"))
@example(data=with_values(RESOLVED_RUN, momentum="x"))
@example(data=with_values(RESOLVED_RUN, seed=-1))
@example(data=with_values(RESOLVED_RUN, sigma=float("nan")))
@example(data=with_values(RESOLVED_RUN, sigma=float("inf")))
@example(data=with_values(RESOLVED_RUN, sigma=-float("inf")))
@example(data=with_values(RESOLVED_RUN, lr=float("nan")))
@example(data=with_values(RESOLVED_RUN, lr=float("inf")))
@example(data=with_values(RESOLVED_RUN, lr=-float("inf")))
@example(data=with_values(RESOLVED_RUN, finetune_lr=float("nan")))
@example(data=with_values(RESOLVED_RUN, finetune_lr=float("inf")))
@example(data=with_values(RESOLVED_RUN, finetune_lr=-float("inf")))
@example(data=with_values(RESOLVED_RUN, finetune_lr=0.0))
@example(data=with_values(RESOLVED_RUN, iterations=0))
def test_mutated_run_config_loads_or_is_refused(data):
    loads_or_refuses(build_every_section, data)


@settings(max_examples=150, deadline=None)
@given(data=mutated(CHECKPOINT))
@example(data=with_values(CHECKPOINT, embedding={"input_dim": "20"}))
@example(data=with_values(CHECKPOINT, embedding={"final_l2_normalize": "no"}))
def test_mutated_checkpoint_loads_or_is_refused(data):
    loads_or_refuses(load_checkpoint, data)


@pytest.mark.parametrize("section, message", [
    ({"input_dim": "20"}, "input_dim must be an integer, got '20'"),
    ({"final_l2_normalize": "no"}, "final_l2_normalize must be true or false, got 'no'"),
    ({"layer_widths": [8.0, 4]}, "layer_widths must be an array of integers, got [8.0, 4]"),
    ({"bn_momentum": True}, "bn_momentum must be a finite number, got True")],
    ids=[f"section{i}" for i in range(4)])
def test_checkpoint_section_of_another_type_is_refused(tmp_path, section, message):
    # the first two loaded, as input_dim 20 and final_l2_normalize on
    path = tmp_path / "checkpoint.json"
    path.write_bytes(with_values(CHECKPOINT, embedding=section))
    with pytest.raises(ConfigError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# every field of every schema, built three ways: a value of the wrong kind
# raises one ConfigError naming the field, never a TypeError

SCHEMAS = {EmbeddingConfig: EmbeddingConfig(4, (8, 2)), MixtureConfig: MixtureConfig(3),
           EpisodeSpec: EpisodeSpec(1, 5), SynthConfig: SynthConfig(), RunConfig: RunConfig()}
# text or None for a number, 1.5 or True for an integer, NaN and ±inf for a
# float, a number for a choice or a flag; None drops out where it fits
WRONG_KINDS = {
    float: ["0.1", None, True, float("nan"), float("inf"), -float("inf"), 10**400],
    int: ["3", None, 1.5, True, 2.0],
    str: [5, None, 1.5, ["max"]],
    bool: [1, 0.0, None, "yes"],
    tuple: [5, "64", None, [1.5], [True], [[8]]],
    SynthConfig: [5, "x", [1], {}],  # {} is an object, so JSON reads it as the defaults
}


def wrong_values():
    for schema in SCHEMAS:
        for f in dataclasses.fields(schema):
            kind, *none = typing.get_args(f.type) or (f.type,)
            for value in WRONG_KINDS[kind]:
                if not (value is None and none):
                    yield pytest.param(schema, f.name, value,
                                       id=f"{schema.__name__}.{f.name}={value!r}")


def three_builds(schema, name, value):
    base = SCHEMAS[schema]
    doc = json.loads(json.dumps(dataclasses.asdict(base)))
    yield "constructor", lambda: schema(**{**vars(base), name: value})
    yield "replace", lambda: dataclasses.replace(base, **{name: value})
    if value != {}:
        yield "from_json", lambda: from_json(schema, {**doc, name: value}, "config")


@pytest.mark.parametrize("schema, name, value", wrong_values())
def test_a_value_of_the_wrong_kind_is_refused_naming_its_field(schema, name, value):
    for way, build in three_builds(schema, name, value):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value).startswith(f"{name} must be "), (way, str(exc.value))


@pytest.mark.parametrize("build, message", [
    (lambda: RunConfig(sigma=float("inf")), "sigma must be a finite number, got inf"),
    (lambda: RunConfig(margin=float("inf")), "margin must be a finite number, got inf"),
    (lambda: RunConfig(lr=float("inf")), "lr must be a finite number, got inf"),
    (lambda: RunConfig(finetune_lr=float("inf")), "finetune_lr must be a finite number, got inf"),
    (lambda: RunConfig(weight_decay=float("nan")), "weight_decay must be a finite number, got nan"),
    (lambda: RunConfig(final_l2_normalize=1), "final_l2_normalize must be true or false, got 1"),
    (lambda: RunConfig(synth={}), "synth must be a SynthConfig or null, got {}"),
    (lambda: RunConfig(seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: RunConfig(iterations=2.5), "iterations must be an integer, got 2.5"),
    (lambda: RunConfig(finetune_steps=1.5), "finetune_steps must be an integer, got 1.5"),
    (lambda: RunConfig(shots=True), "shots must be an integer, got True"),
    (lambda: SynthConfig(spread=float("nan")), "spread must be a finite number, got nan"),
    (lambda: dataclasses.replace(MixtureConfig(3), sigma=float("inf")),
     "sigma must be a finite number, got inf"),
    (lambda: RunConfig(lr="0.1"), "lr must be a finite number, got '0.1'"),
    (lambda: RunConfig(sigma=None), "sigma must be a finite number, got None"),
    (lambda: RunConfig(weight_decay=None), "weight_decay must be a finite number, got None"),
    (lambda: RunConfig(layer_widths=5), "layer_widths must be an array of integers or null, got 5"),
    (lambda: RunConfig(max_shots="10"), "max_shots must be an integer, got '10'"),
    (lambda: SynthConfig(spread="x"), "spread must be a finite number, got 'x'"),
    (lambda: RunConfig(max_shots=0), "max_shots must be >= 1, got 0"),
])
def test_a_config_built_in_python_is_checked_as_one_read_from_json(build, message):
    # each of these was accepted, or raised a TypeError
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("doc, message", [
    ({"synth": {"modes_per_class": 0}}, "synth.modes_per_class must be >= 1, got 0"),
    ({"synth": {"num_classes": 2, "unseen_classes": 3}},
     "synth.unseen_classes must not exceed num_classes"),
    ({"modes_per_class": 0}, "modes_per_class must be >= 1, got 0")])
def test_a_fault_in_the_nested_synth_object_names_its_section(doc, message):
    # modes_per_class and num_classes are keys of both the run config and synth
    with pytest.raises(ConfigError) as exc:
        config_from(doc)
    assert str(exc.value) == message


def test_of_two_faults_the_first_field_is_named():
    with pytest.raises(ConfigError) as exc:
        config_from({"lr": 0.0, "task_mode": "x"})
    assert str(exc.value).startswith("task_mode must be one of ")


def test_values_are_stored_as_given_but_arrays_as_tuples():
    c = RunConfig(sigma=1, layer_widths=[8, 4], recall_ks=[5])
    assert (type(c.sigma), c.layer_widths, c.recall_ks) == (int, (8, 4), (5,))


def readme_run_config() -> dict:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"cat > run.json <<'EOF'\n(.*?)\nEOF", text, re.S).group(1))


def loaded_documents():
    from test_cli import RUN
    from test_golden import CLASSIFICATION
    from test_metrics import DIAGNOSTIC

    runs = {"readme": readme_run_config(), "readme_test": README_RUN, "resolved": RESOLVED_RUN,
            "cli": RUN, "golden_classification": CLASSIFICATION, "diagnostic": DIAGNOSTIC}
    for name, doc in runs.items():
        yield pytest.param(RunConfig, doc, id=f"run:{name}")
        yield pytest.param(EpisodeSpec, dataclasses.asdict(config_from(doc).episode_spec()),
                           id=f"episode_header:{name}")
    for section, schema in (("embedding", EmbeddingConfig), ("mixture", MixtureConfig)):
        yield pytest.param(schema, CHECKPOINT[section], id=f"checkpoint:{section}")


def cut_to(value: dict, doc: dict) -> dict:
    """`value` keeping, at every level, only the keys of `doc`."""
    return {key: cut_to(value[key], inner) if isinstance(inner, dict) else value[key]
            for key, inner in doc.items()}


@pytest.mark.parametrize("schema, doc", loaded_documents())
def test_every_document_the_tests_load_still_loads_as_written(schema, doc):
    config = from_json(schema, doc, "document")
    doc = json.loads(json.dumps(doc))
    assert cut_to(json.loads(json.dumps(dataclasses.asdict(config))), doc) == doc
