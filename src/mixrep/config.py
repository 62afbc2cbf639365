"""One declarative run configuration covering head, trainer, episodes, and
evaluation. Defaults follow the reference setup: sigma 0.5, 3 modes per class
for classification heads and 5 for detection, 12x4 class-balanced batches,
wide classification widths (2048, 1024) vs detection (1024, 1024, 256), 500
episodes of 10 queries per class. Every record of a dataset is already a
labelled ROI, so the reference setup's IoU-0.7 selection of support ROIs
around ground-truth boxes has no counterpart here."""

import dataclasses
import json
from dataclasses import dataclass

from .data import SynthConfig, from_json, read_json
from .episodes import EpisodeSpec
from .errors import ConfigError
from .head import EmbeddingConfig, MixtureConfig

CLASSIFICATION_WIDTHS = (2048, 1024)
DETECTION_WIDTHS = (1024, 1024, 256)


@dataclass
class RunConfig:
    task_mode: str = "classification"
    seed: int = 0

    # head; widths and modes fall back to the task-mode defaults above
    input_dim: int | None = None
    layer_widths: tuple | None = None
    modes_per_class: int | None = None
    sigma: float = 0.5
    margin: float = 0.5
    posterior_mode: str = "normalized"
    final_l2_normalize: bool = True
    bn_momentum: float = 0.9
    bn_epsilon: float = 1e-5

    # trainer
    iterations: int = 500
    optimizer: str = "sgd"
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    classes_per_batch: int = 12
    instances_per_class: int = 4
    batch_strategy: str = "class_balanced"

    # episodes
    shots: int = 1
    ways: int = 5
    queries_per_class: int = 10
    episode_count: int = 500
    class_pool: str = "unseen"
    background_queries: int = 0
    max_shots: int = 10
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.layer_widths is not None:
            self.layer_widths = tuple(self.layer_widths)
        self.recall_ks = tuple(self.recall_ks)
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

    # ---- resolved values -------------------------------------------------

    def resolved_widths(self) -> tuple:
        if self.layer_widths is not None:
            return self.layer_widths
        return CLASSIFICATION_WIDTHS if self.task_mode == "classification" else DETECTION_WIDTHS

    def resolved_modes(self) -> int:
        if self.modes_per_class is not None:
            return self.modes_per_class
        return 3 if self.task_mode == "classification" else 5

    def embedding_config(self, input_dim: int | None = None) -> EmbeddingConfig:
        dim = self.input_dim if input_dim is None else input_dim
        if dim is None:
            raise ConfigError("input_dim is not set and no dataset provided it")
        return EmbeddingConfig(
            input_dim=dim,
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

    def episode_spec(self, shots: int | None = None) -> EpisodeSpec:
        return EpisodeSpec(
            shots=self.shots if shots is None else shots,
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
