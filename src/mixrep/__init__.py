"""Distance-based recognition with per-class mixture representatives.

The embedding network and the representatives train jointly against a
distance posterior; held-out classes are then handled episodically from a
handful of examples, with an explicit background posterior for open-set
rejection."""

from .autodiff import Node, backward, finite_difference_check, zero_grads
from .config import RunConfig, load_run_config, write_resolved_config
from .data import (
    BACKGROUND_LABEL,
    Dataset,
    SynthConfig,
    load_dataset,
    save_dataset,
    synth_dataset,
)
from .episodes import (
    Episode,
    EpisodeSpec,
    episode_finetune,
    evaluate_episodes,
    finetune_episodes,
    generate_episodes,
    load_episodes,
    replace_representatives,
    run_episode,
    save_episodes,
    score_queries,
)
from .errors import ConfigError, DatasetError, MixrepError, ShapeError, TrainingDiverged
from .head import (
    BACKGROUND,
    EmbeddingConfig,
    EmbeddingNet,
    HeadOutput,
    MixtureConfig,
    MixtureHead,
    Scores,
    load_checkpoint,
    save_checkpoint,
)
from .metrics import (
    Detections,
    GroundTruth,
    PRCurve,
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
from .rng import substream
from .training import (
    Adam,
    SGD,
    batch_groups,
    class_index_map,
    fit,
    make_optimizer,
    sample_batch,
    train_step,
    write_loss_trace,
)

__version__ = "0.1.0"
