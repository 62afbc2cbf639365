import contextlib
import copy
import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixrep.config import (
    CLASSIFICATION_WIDTHS,
    DETECTION_WIDTHS,
    RunConfig,
    from_json,
    load_run_config,
    write_resolved_config,
)
from mixrep.data import SynthConfig
from mixrep.episodes import EpisodeSpec
from mixrep.errors import ConfigError
from mixrep.head import (EmbeddingConfig, MixtureConfig, MixtureHead, load_checkpoint,
                         save_checkpoint)


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

    def test_negative_finetune(self):
        with pytest.raises(ConfigError):
            RunConfig(finetune_steps=-1)


class TestTrainerChecks:
    """The trainer's values are checked once, when the run config is made,
    so every command that loads a config refuses a bad one."""

    @pytest.mark.parametrize("key, value, message", [
        ("classes_per_batch", 1, "classes_per_batch must be >= 2, got 1"),
        ("instances_per_class", 0, "instances_per_class must be >= 1, got 0"),
        ("batch_strategy", "round_robin", "unknown batch strategy 'round_robin'"),
        ("lr", 0.0, "lr must be positive, got 0.0"),
        ("iterations", 0, "iterations must be >= 1, got 0"),
        ("optimizer", "lbfgs", "optimizer must be 'sgd' or 'adam', got 'lbfgs'"),
        ("weight_decay", -0.1, "weight_decay must be nonnegative"),
        ("finetune_lr", 0.0, "finetune_lr must be positive, got 0.0"),
        ("finetune_lr", -1.0, "finetune_lr must be positive, got -1.0"),
    ], ids=["one_class_per_batch", "no_instances_per_class", "unknown_batch_strategy",
            "zero_lr", "zero_iterations", "unknown_optimizer", "negative_weight_decay",
            "zero_finetune_lr", "negative_finetune_lr"])
    def test_bad_trainer_value_is_refused(self, key, value, message):
        for build in (lambda: RunConfig(**{key: value}), lambda: config_from({key: value}),
                      lambda: dataclasses.replace(RunConfig(), **{key: value})):
            with pytest.raises(ConfigError) as exc:
                build()
            assert str(exc.value) == message

    def test_trainer_values_in_range_are_kept(self):
        c = RunConfig(classes_per_batch=2, instances_per_class=1, batch_strategy="image_group",
                      optimizer="adam", iterations=1, lr=1e-9, finetune_lr=1e-9)
        assert (c.classes_per_batch, c.batch_strategy, c.optimizer, c.lr) == (
            2, "image_group", "adam", 1e-9)


class TestFactories:
    def test_embedding_config(self):
        c = RunConfig(layer_widths=(16, 8), bn_momentum=0.8)
        e = c.embedding_config(12)
        assert e.input_dim == 12
        assert e.layer_widths == (16, 8)
        assert e.bn_momentum == 0.8

    def test_embedding_config_needs_a_dim(self):
        with pytest.raises(ConfigError):
            RunConfig().embedding_config()
        assert RunConfig(input_dim=6).embedding_config().input_dim == 6

    def test_mixture_config(self):
        m = RunConfig(sigma=0.25, margin=0.1).mixture_config(4)
        assert (m.num_classes, m.modes_per_class) == (4, 3)
        assert (m.sigma, m.margin) == (0.25, 0.1)

    def test_episode_spec_shot_override(self):
        c = RunConfig(shots=1, ways=3, episode_count=7, seed=4)
        assert c.episode_spec().shots == 1
        s = c.episode_spec(shots=5)
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
        with pytest.raises(ConfigError, match=f"'{key}' must be"):
            config_from(doc)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_in_a_file_is_refused(self, tmp_path, token):
        p = tmp_path / "run.json"
        p.write_text('{"sigma": %s}' % token, encoding="utf-8")
        with pytest.raises(ConfigError, match="config key 'sigma' must be a finite number"):
            load_run_config(p)

    def test_checkpoint_with_an_infinite_sigma_is_refused(self, tmp_path):
        doc = saved_checkpoint()
        doc["mixture"]["sigma"] = float("inf")
        p = tmp_path / "checkpoint.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert '"sigma": Infinity' in p.read_text(encoding="utf-8")
        with pytest.raises(ConfigError, match="mixture key 'sigma' must be a finite number"):
            load_checkpoint(p)

    def test_numbers_and_nulls_fit_where_annotated(self):
        c = config_from({"sigma": 1, "lr": 0.5, "input_dim": None, "layer_widths": None,
                         "synth": {"spread": 0}})
        assert (c.sigma, c.lr, c.input_dim, c.layer_widths, c.synth.spread) == (1, 0.5, None,
                                                                                 None, 0)

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
    for build in (config.embedding_config, lambda: config.embedding_config(8),
                  lambda: config.mixture_config(3), config.episode_spec):
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


@pytest.mark.parametrize("section", [{"input_dim": "20"}, {"final_l2_normalize": "no"},
                                     {"layer_widths": [8.0, 4]}, {"bn_momentum": True}])
def test_checkpoint_section_of_another_type_is_refused(tmp_path, section):
    # the first two loaded, as input_dim 20 and final_l2_normalize on
    path = tmp_path / "checkpoint.json"
    path.write_bytes(with_values(CHECKPOINT, embedding=section))
    with pytest.raises(ConfigError, match=f"embedding key '{next(iter(section))}' must be"):
        load_checkpoint(path)
