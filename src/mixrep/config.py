"""Every config schema, the one check of their values (`check_fields`, of the
rule each field declares and the type its annotation names), the JSON reader
that builds them, and the writer of sorted, indented JSON files; no engine code.
`RunConfig` is one declarative run configuration covering head, trainer,
episodes, and evaluation. Defaults follow the reference setup: sigma 0.5, 3
modes per class for classification heads and 5 for detection, 12x4
class-balanced batches, wide classification widths (2048, 1024) vs detection
(1024, 1024, 256), 500 episodes of 10 queries per class. Every record of a
dataset is already a labelled ROI, so the reference setup's IoU-0.7
selection of support ROIs around ground-truth boxes has no counterpart here."""

import dataclasses
import functools
import json
import numbers
import operator
import reprlib
import sys
import typing
from dataclasses import dataclass

from .errors import ConfigError


def read_json(path):
    """The JSON value of a whole file, a run config or a checkpoint. Text that
    is not one JSON value the decoder can hold raises ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None


def write_json(path, doc) -> None:
    """Write `doc` as JSON with sorted keys, indented by two spaces and
    ending in a newline: a resolved run config or a gradient check."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# the values of each field annotation, and the words of a fault; NaN and
# Infinity, which Python's json reads but JSON does not allow, fit no float
_KINDS = {
    bool: ("must be true or false", lambda v: type(v) is bool),
    int: ("must be an integer", lambda v: type(v) is int),
    float: ("must be a finite number",
            lambda v: type(v) in (float, int) and abs(v) <= sys.float_info.max),
    str: ("must be a string", lambda v: type(v) is str),
    tuple: ("must be an array of integers",
            lambda v: type(v) in (list, tuple) and all(type(w) is int for w in v)),
}


def rule(default=dataclasses.MISSING, *, low=None, within=None, one_of=None):
    """A schema field with its value rule: an integer lower bound `low` (of
    each entry, for an array), a number range `within` written as its
    message shows it, such as "(0, 1]" or "[0, inf)", or the choices `one_of`."""
    if within is not None:
        low_end, high_end = map(float, within[1:-1].split(", "))
        above = operator.le if within[0] == "[" else operator.lt
        below = operator.le if within[-1] == "]" else operator.lt
        within = within, lambda v: above(low_end, v) and below(v, high_end)
    return dataclasses.field(default=default, metadata={"rule": (low, within, one_of)})


@functools.cache
def _rules(schema) -> dict:
    """Each field of the dataclass `schema` by name: (its kind, whether None
    fits, the test and words of its type, and its `rule`: low, within, one_of)."""
    rules = {}
    for f in dataclasses.fields(schema):
        kind, *none = typing.get_args(f.type) or (f.type,)  # X | None: (X, NoneType)
        words, fits = _KINDS.get(kind) or (f"must be a {kind.__name__}",
                                           lambda v, kind=kind: type(v) is kind)
        rules[f.name] = (kind, bool(none), fits, words + " or null" * bool(none),
                         *f.metadata.get("rule", (None, None, None)))
    return rules


def check_fields(config) -> None:
    """The one check of a schema's values, which every schema's
    `__post_init__` runs first: `check_value` of each field, in order. An
    array is stored as a tuple, every other value as given."""
    for name in _rules(type(config)):
        value = getattr(config, name)
        check_value(name, value, type(config))
        if type(value) is list:
            object.__setattr__(config, name, tuple(value))


def check_value(name: str, value, schema, field: str | None = None) -> None:
    """Refuse `value` for the field `field` (by default `name`) of the
    dataclass `schema` unless it meets the type rule of the field's annotation
    (`_KINDS`; None only where annotated) and its `rule`; the ConfigError
    names `name`."""
    kind, none, fits, words, low, within, one_of = _rules(schema)[field or name]
    if value is None and none:
        return
    if not fits(value):
        raise ConfigError(f"{name} {words}, got {reprlib.repr(value)}")
    if low is not None:
        for v in value if kind is tuple else (value,):
            check_at_least(f"{name} entry" if kind is tuple else name, v, low)
    if within and not within[1](value):
        raise ConfigError(f"{name} must be within {within[0]}, got {value!r}")
    if one_of and value not in one_of:
        raise ConfigError(choice_words(name, one_of).format(value))


def choice_words(name: str, choices) -> str:
    """The one wording of a choice, of configs and records; `{!r}` is the value."""
    return f"{name} must be one of {choices}, got {{!r}}"


def from_json(cls, doc, what: str, section: str = ""):
    """The dataclass `cls` made from `doc`, a decoded JSON object that `what`
    names in errors: the one place a config object is made from JSON. An
    unknown or missing key, or a nested object that is not one, raises
    ConfigError; `cls` checks the values. `section`, the path of a nested
    object (such as "synth."), leads the words of its faults."""
    if type(doc) is not dict:
        raise ConfigError(f"{what} must be a JSON object, got {reprlib.repr(doc)}")
    rules, values = _rules(cls), dict(doc)
    if set(doc) - set(rules):
        raise ConfigError(f"unknown {what} keys: {sorted(set(doc) - set(rules))}")
    for f in dataclasses.fields(cls):
        if f.name not in doc and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{what} is missing key {f.name!r}")
    for key, value in doc.items():
        if dataclasses.is_dataclass(rules[key][0]) and value is not None:
            values[key] = from_json(rules[key][0], value, key, f"{section}{key}.")
    try:
        return cls(**values)
    except ConfigError as e:
        raise ConfigError(f"{section}{e}") from None


def check_at_least(name: str, value, low: int) -> None:
    """The one integer rule, of config fields and of arguments, which may be numpy's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} {_KINDS[int][0]}, got {reprlib.repr(value)}")
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


def check_distinct(what: str, values, shown) -> None:
    """Refuse a value repeated in `values`, a list `shown` as written."""
    seen: set = set()
    repeats = [value for value in values if value in seen or seen.add(value)]
    if repeats:
        raise ConfigError(f"{what} {repeats[0]} is repeated in {shown!r}")


GROUPS = ("seen", "unseen")  # of records, and of the classes an episode draws
CLASSIFICATION_WIDTHS = (2048, 1024)
DETECTION_WIDTHS = (1024, 1024, 256)
DETECTION_MODES = 5


@dataclass(frozen=True)
class EmbeddingConfig:
    """Widths and switches of the embedding stack.

    All layers are affine; every layer except the last is followed by batch
    norm and ReLU, the last is linear, and the output is projected to the
    unit sphere unless `final_l2_normalize` is off. The last width is the
    embedding dimension.
    """

    input_dim: int = rule(low=1)
    layer_widths: tuple = rule(low=1)
    final_l2_normalize: bool = True
    bn_momentum: float = rule(0.9, within="[0, 1]")
    bn_epsilon: float = rule(1e-5, within="(0, inf)")

    def __post_init__(self):
        check_fields(self)
        if not self.layer_widths:
            raise ConfigError("layer_widths must not be empty")

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]


@dataclass(frozen=True)
class MixtureConfig:
    num_classes: int = rule(low=1)
    modes_per_class: int = rule(3, low=1)
    sigma: float = rule(0.5, within="(0, inf)")
    margin: float = rule(0.5, within="(0, inf)")
    posterior_mode: str = rule("normalized", one_of=("max", "normalized"))

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class EpisodeSpec:
    """Benchmark shape. An episode file stores each episode's support at
    every shot count from 1 to max_shots, so classes need queries_per_class
    + max_shots items, and a run may ask for any of those counts."""

    shots: int = rule(low=1)
    ways: int = rule(low=1)
    queries_per_class: int = rule(10, low=1)
    episode_count: int = rule(500, low=1)
    seed: int = rule(0, low=0)
    class_pool: str = rule("unseen", one_of=GROUPS)
    background_queries: int = rule(0, low=0)
    max_shots: int = rule(10, low=1)

    def __post_init__(self):
        check_fields(self)
        if self.shots > self.max_shots:
            raise ConfigError(f"shots {self.shots} exceeds max_shots {self.max_shots}")


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs for the synthetic oracle dataset.

    Classes are Gaussian mixtures: `modes_per_class` centers per class,
    all centers (across classes) kept at least `min_separation` apart, with
    isotropic per-mode noise of scale `spread`. Optional clutter records
    labeled background are drawn at least `min_separation` from every
    center. The true centers go into the dataset header for oracle checks.
    """

    num_classes: int = rule(5, low=1)
    modes_per_class: int = rule(3, low=1)
    input_dim: int = rule(20, low=1)
    samples_per_mode: int = rule(40, low=1)
    spread: float = rule(0.05, within="[0, inf)")
    background_fraction: float = rule(0.0, within="[0, 1]")
    unseen_classes: int = rule(0, low=0)
    test_fraction: float = rule(0.2, within="[0, 1)")
    min_separation: float = rule(1.0, within="[0, inf)")
    with_boxes: bool = False
    rois_per_image: int = rule(8, low=2)

    def __post_init__(self):
        check_fields(self)
        if self.unseen_classes > self.num_classes:
            raise ConfigError("unseen_classes must not exceed num_classes")


@dataclass(frozen=True)
class RunConfig:
    task_mode: str = rule("classification", one_of=("classification", "detection"))
    seed: int = 0

    # head; widths and modes fall back to the task-mode defaults above, the rest to the schemas'
    layer_widths: tuple | None = None
    modes_per_class: int | None = None
    sigma: float = MixtureConfig.sigma
    margin: float = MixtureConfig.margin
    posterior_mode: str = MixtureConfig.posterior_mode
    final_l2_normalize: bool = EmbeddingConfig.final_l2_normalize
    bn_momentum: float = EmbeddingConfig.bn_momentum
    bn_epsilon: float = EmbeddingConfig.bn_epsilon

    # trainer
    iterations: int = rule(500, low=1)
    optimizer: str = rule("sgd", one_of=("sgd", "adam"))
    lr: float = rule(0.01, within="(0, inf)")
    momentum: float = rule(0.9, within="[0, 1)")
    weight_decay: float = rule(0.0, within="[0, inf)")
    classes_per_batch: int = rule(12, low=2)
    instances_per_class: int = rule(4, low=1)
    batch_strategy: str = rule("class_balanced", one_of=("class_balanced", "image_group"))

    # episodes; `seed` above is the root of every substream, not EpisodeSpec's
    shots: int = 1
    ways: int = 5
    queries_per_class: int = EpisodeSpec.queries_per_class
    episode_count: int = EpisodeSpec.episode_count
    class_pool: str = EpisodeSpec.class_pool
    background_queries: int = EpisodeSpec.background_queries
    max_shots: int = EpisodeSpec.max_shots
    finetune_steps: int = rule(50, low=0)
    finetune_lr: float = rule(0.01, within="(0, inf)")

    # evaluation
    match_iou: float = rule(0.5, within="(0, 1]")
    recall_ks: tuple = rule((10, 100), low=1)

    # synthetic data generation (synth-data command)
    synth: SynthConfig | None = None

    def __post_init__(self):
        check_fields(self)  # a field a schema shares meets that schema's rule below
        check_distinct("recall_ks entry", self.recall_ks, self.recall_ks)
        self.embedding_config(1)
        self.mixture_config(1)
        self.episode_spec()

    # ---- resolved values -------------------------------------------------

    def resolved_widths(self) -> tuple:
        if self.layer_widths is not None:
            return self.layer_widths
        return CLASSIFICATION_WIDTHS if self.task_mode == "classification" else DETECTION_WIDTHS

    def resolved_modes(self) -> int:
        if self.modes_per_class is not None:
            return self.modes_per_class
        return MixtureConfig.modes_per_class if self.task_mode == "classification" \
            else DETECTION_MODES

    def embedding_config(self, input_dim: int) -> EmbeddingConfig:
        return EmbeddingConfig(
            input_dim=input_dim,
            layer_widths=self.resolved_widths(),
            final_l2_normalize=self.final_l2_normalize,
            bn_momentum=self.bn_momentum,
            bn_epsilon=self.bn_epsilon,
        )

    def mixture_config(self, num_classes: int) -> MixtureConfig:
        return MixtureConfig(
            num_classes=num_classes,
            modes_per_class=self.resolved_modes(),
            sigma=self.sigma,
            margin=self.margin,
            posterior_mode=self.posterior_mode,
        )

    def episode_spec(self) -> EpisodeSpec:
        return EpisodeSpec(
            shots=self.shots,
            ways=self.ways,
            queries_per_class=self.queries_per_class,
            episode_count=self.episode_count,
            seed=self.seed,
            class_pool=self.class_pool,
            background_queries=self.background_queries,
            max_shots=self.max_shots,
        )


def load_run_config(path) -> RunConfig:
    return from_json(RunConfig, read_json(path), "config")


def write_resolved_config(config: RunConfig, path) -> None:
    """Log the fully resolved run config; feeding the file back reproduces
    the run bit-exactly."""
    write_json(path, {**dataclasses.asdict(config), "layer_widths": config.resolved_widths(),
                      "modes_per_class": config.resolved_modes()})
