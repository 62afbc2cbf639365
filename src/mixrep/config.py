"""Every config schema, and the JSON reader that builds them; no engine code.
`RunConfig` is one declarative run configuration covering head, trainer,
episodes, and evaluation. Defaults follow the reference setup: sigma 0.5, 3
modes per class for classification heads and 5 for detection, 12x4
class-balanced batches, wide classification widths (2048, 1024) vs detection
(1024, 1024, 256), 500 episodes of 10 queries per class. Every record of a
dataset is already a labelled ROI, so the reference setup's IoU-0.7
selection of support ROIs around ground-truth boxes has no counterpart here."""

import dataclasses
import json
import math
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


# the JSON values that fill a field of each annotation, and their name in errors;
# NaN and Infinity, which Python's json reads but JSON does not allow, fit no float
_JSON_TYPES = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) in (float, int) and abs(v) <= sys.float_info.max),
    str: ("a string", lambda v: type(v) is str),
    tuple: ("an array of integers", lambda v: type(v) is list and all(type(w) is int for w in v)),
}


def from_json(cls, doc, what: str):
    """The dataclass `cls` made from `doc`, a decoded JSON object that `what`
    names in errors: the one place a config object is made from JSON. An
    unknown or missing key, or a value unlike its field's type (`_JSON_TYPES`;
    null only where None is annotated), raises ConfigError naming the key."""
    if type(doc) is not dict:
        raise ConfigError(f"{what} must be a JSON object, got {reprlib.repr(doc)}")
    hints, values = typing.get_type_hints(cls), {}
    if set(doc) - set(hints):
        raise ConfigError(f"unknown {what} keys: {sorted(set(doc) - set(hints))}")
    for f in dataclasses.fields(cls):
        if f.name not in doc and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{what} is missing key {f.name!r}")
    for key, value in doc.items():
        kind, *none = typing.get_args(hints[key]) or (hints[key],)  # X | None: (X, NoneType)
        if value is None and none:
            values[key] = None
        elif dataclasses.is_dataclass(kind):
            values[key] = from_json(kind, value, key)
        elif _JSON_TYPES[kind][1](value):
            values[key] = tuple(value) if kind is tuple else value
        else:
            raise ConfigError(f"{what} key {key!r} must be {_JSON_TYPES[kind][0]}"
                              f"{' or null' if none else ''}, got {reprlib.repr(value)}")
    return cls(**values)


@dataclass(frozen=True)
class EmbeddingConfig:
    """Widths and switches of the embedding stack.

    All layers are affine; every layer except the last is followed by batch
    norm and ReLU, the last is linear, and the output is projected to the
    unit sphere unless `final_l2_normalize` is off. The last width is the
    embedding dimension.
    """

    input_dim: int
    layer_widths: tuple
    final_l2_normalize: bool = True
    bn_momentum: float = 0.9
    bn_epsilon: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(self.layer_widths))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be positive, got {self.input_dim}")
        if not self.layer_widths or any(w < 1 for w in self.layer_widths):
            raise ConfigError(f"layer_widths must be positive, got {self.layer_widths}")
        if not 0 < self.bn_epsilon < math.inf:
            raise ConfigError(f"bn_epsilon must be a finite number > 0, got {self.bn_epsilon!r}")
        if not 0 <= self.bn_momentum <= 1:
            raise ConfigError(f"bn_momentum must be a number in [0, 1], got {self.bn_momentum!r}")

    @property
    def output_dim(self) -> int:
        return self.layer_widths[-1]


@dataclass(frozen=True)
class MixtureConfig:
    num_classes: int
    modes_per_class: int = 3
    sigma: float = 0.5
    margin: float = 0.5
    posterior_mode: str = "normalized"  # "max" | "normalized"

    def __post_init__(self):
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.modes_per_class < 1:
            raise ConfigError(f"modes_per_class must be >= 1, got {self.modes_per_class}")
        if not self.sigma > 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        if not self.margin > 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if self.posterior_mode not in ("max", "normalized"):
            raise ConfigError(f"posterior_mode must be 'max' or 'normalized', got {self.posterior_mode!r}")


@dataclass(frozen=True)
class EpisodeSpec:
    """Benchmark shape. max_shots bounds the shot counts the episode file
    must stay valid for; classes need queries_per_class + max_shots items."""

    shots: int
    ways: int
    queries_per_class: int = 10
    episode_count: int = 500
    seed: int = 0
    class_pool: str = "unseen"  # "seen" | "unseen"
    background_queries: int = 0
    max_shots: int = 10

    def __post_init__(self):
        if self.shots < 1:
            raise ConfigError(f"shots must be >= 1, got {self.shots}")
        if self.ways < 1:
            raise ConfigError(f"ways must be >= 1, got {self.ways}")
        if self.shots > self.max_shots:
            raise ConfigError(f"shots {self.shots} exceeds max_shots {self.max_shots}")
        if self.queries_per_class < 1:
            raise ConfigError("queries_per_class must be >= 1")
        if self.episode_count < 1:
            raise ConfigError("episode_count must be >= 1")
        if self.class_pool not in ("seen", "unseen"):
            raise ConfigError(f"class_pool must be 'seen' or 'unseen', got {self.class_pool!r}")
        if self.background_queries < 0:
            raise ConfigError("background_queries must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs for the synthetic oracle dataset.

    Classes are Gaussian mixtures: `modes_per_class` centers per class,
    all centers (across classes) kept at least `min_separation` apart, with
    isotropic per-mode noise of scale `spread`. Optional clutter records
    labeled background are drawn at least `min_separation` from every
    center. The true centers go into the dataset header for oracle checks.
    """

    num_classes: int = 5
    modes_per_class: int = 3
    input_dim: int = 20
    samples_per_mode: int = 40
    spread: float = 0.05
    background_fraction: float = 0.0
    unseen_classes: int = 0
    test_fraction: float = 0.2
    min_separation: float = 1.0
    with_boxes: bool = False
    rois_per_image: int = 8

    def __post_init__(self):
        if self.num_classes < 1 or self.modes_per_class < 1 or self.samples_per_mode < 1:
            raise ConfigError("synth counts must be positive")
        if self.input_dim < 1:
            raise ConfigError("input_dim must be positive")
        if self.spread < 0:
            raise ConfigError("spread must be nonnegative")
        if not 0 <= self.background_fraction <= 1:
            raise ConfigError("background_fraction must lie in [0, 1]")
        if not 0 <= self.unseen_classes <= self.num_classes:
            raise ConfigError("unseen_classes must not exceed num_classes")
        if not 0 <= self.test_fraction < 1:
            raise ConfigError("test_fraction must lie in [0, 1)")
        if self.rois_per_image < 2:
            raise ConfigError("rois_per_image must be at least 2")


CLASSIFICATION_WIDTHS = (2048, 1024)
DETECTION_WIDTHS = (1024, 1024, 256)
DETECTION_MODES = 5


@dataclass(frozen=True)
class RunConfig:
    task_mode: str = "classification"
    seed: int = 0

    # head; widths and modes fall back to the task-mode defaults above, the rest to the schemas'
    input_dim: int | None = None
    layer_widths: tuple | None = None
    modes_per_class: int | None = None
    sigma: float = MixtureConfig.sigma
    margin: float = MixtureConfig.margin
    posterior_mode: str = MixtureConfig.posterior_mode
    final_l2_normalize: bool = EmbeddingConfig.final_l2_normalize
    bn_momentum: float = EmbeddingConfig.bn_momentum
    bn_epsilon: float = EmbeddingConfig.bn_epsilon

    # trainer
    iterations: int = 500
    optimizer: str = "sgd"
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    classes_per_batch: int = 12
    instances_per_class: int = 4
    batch_strategy: str = "class_balanced"

    # episodes; `seed` above is the root of every substream, not EpisodeSpec's
    shots: int = 1
    ways: int = 5
    queries_per_class: int = EpisodeSpec.queries_per_class
    episode_count: int = EpisodeSpec.episode_count
    class_pool: str = EpisodeSpec.class_pool
    background_queries: int = EpisodeSpec.background_queries
    max_shots: int = EpisodeSpec.max_shots
    finetune_steps: int = 50
    finetune_lr: float = 0.01

    # evaluation
    match_iou: float = 0.5
    recall_ks: tuple = (10, 100)

    # synthetic data generation (synth-data command)
    synth: SynthConfig | None = None

    def __post_init__(self):
        if self.task_mode not in ("classification", "detection"):
            raise ConfigError(
                f"task_mode must be 'classification' or 'detection', got {self.task_mode!r}"
            )
        if self.layer_widths is not None:
            object.__setattr__(self, "layer_widths", tuple(self.layer_widths))
        object.__setattr__(self, "recall_ks", tuple(self.recall_ks))
        if any(k < 1 for k in self.recall_ks):
            raise ConfigError(f"recall_ks must be >= 1, got {self.recall_ks}")
        if not 0.0 < self.match_iou <= 1.0:
            raise ConfigError(f"match_iou must be in (0, 1], got {self.match_iou}")
        if self.finetune_steps < 0:
            raise ConfigError("finetune_steps must be >= 0")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not self.finetune_lr > 0:
            raise ConfigError(f"finetune_lr must be positive, got {self.finetune_lr}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if self.classes_per_batch < 2:
            raise ConfigError(f"classes_per_batch must be >= 2, got {self.classes_per_batch}")
        if self.instances_per_class < 1:
            raise ConfigError(f"instances_per_class must be >= 1, got {self.instances_per_class}")
        if self.batch_strategy not in ("class_balanced", "image_group"):
            raise ConfigError(f"unknown batch strategy {self.batch_strategy!r}")
        # head and episode values, the seed among them, are checked by the
        # configs they build
        self.embedding_config(1 if self.input_dim is None else self.input_dim)
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
    doc = {**dataclasses.asdict(config), "layer_widths": config.resolved_widths(),
           "modes_per_class": config.resolved_modes()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
