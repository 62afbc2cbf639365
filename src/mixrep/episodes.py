"""Episodic few-shot evaluation: build episodes from held-out classes, run
each on an episode head whose representatives are the support embeddings,
optionally fine-tune it, score.

The trained head's hidden layers are frozen for an episode, so they run
once per episode row: the episode head is a one-layer head of its own over
the penultimate features, and fine-tuning and query scoring run only that
last layer and the representatives. It is built from three arrays (the last
weight and bias of the trained head and the support embeddings), so no
initial values are drawn for it.

A pass (`evaluate_episodes`) runs its episodes in blocks of one shape and
fine-tunes each block as one stack: every step builds a single loss graph
over all the block's episode heads (`finetune_episodes`), and each episode
still takes, bit for bit, the steps it would take alone. `run_episode` and
`episode_finetune` are the one-episode forms of the same pass.

Episode sampling is arranged so that one seed pins the whole benchmark for
every shot count at once: class choice, query choice, and distractor choice
never look at the number of shots, and the support draw gets its own
substream keyed by it. Running 1-, 5-, and 10-shot against the same seed
therefore scores identical query sets.
"""

import dataclasses
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import BACKGROUND_LABEL, SCHEMA_VERSION, Dataset, group_rows, read_json_lines
from .errors import ConfigError, DatasetError
from .head import MixtureHead, parameter_layout
from .metrics import Detections, GroundTruth
from .rng import substream
from .training import SGD

# Entries per fine-tune graph. A pass fine-tunes its episodes in blocks, one
# graph per step for each block. Per episode, a graph's arrays are about a
# dozen (rows, modes) tables and a few copies of the episode head's
# parameters, so a block holds as many episodes as keep one table plus the
# parameters of each under this bound, and peak memory does not grow with
# the episode count. At README scale (width 64, e = 32) that is 15 one-shot,
# 10 five-shot or 5 ten-shot episodes a graph. Episodes are independent, so
# blocking changes no result bit.
BLOCK_ENTRIES = 36_000


@dataclass
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


@dataclass
class Episode:
    """One episode over the rows of `dataset`: `support` is a (ways, shots)
    array whose row i holds the support rows of class `class_ids[i]`, and
    `queries` the query rows, in order."""

    episode_id: int
    class_ids: list[str]
    support: np.ndarray
    queries: np.ndarray
    dataset: Dataset

    def __post_init__(self):
        try:
            self.support = np.asarray(self.support, dtype=np.intp)
        except ValueError:
            raise ConfigError("support must hold the same shot count per class") from None
        self.queries = np.asarray(self.queries, dtype=np.intp).reshape(-1)
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ConfigError("episode classes must be distinct")
        if self.support.ndim != 2 or len(self.support) != len(self.class_ids):
            raise ConfigError(f"support must be a (ways, shots) array of rows for "
                              f"{len(self.class_ids)} classes, got shape {self.support.shape}")
        if not self.support.shape[1]:
            raise ConfigError("support must hold at least one item per class")
        overlap = self.support_ids() & set(self.query_ids())
        if overlap:
            raise ConfigError(f"support and query items overlap: {sorted(overlap)[:5]}")

    def support_ids(self) -> set:
        return set(self.dataset.id[self.support.ravel()])

    def query_ids(self) -> list[str]:
        return self.dataset.id[self.queries].tolist()


def _pool_classes(dataset: Dataset, class_pool: str) -> dict[str, np.ndarray]:
    """The rows of each foreground class of the pool, in id order."""
    rows = np.flatnonzero(~dataset.is_background
                          & ((dataset.group == "unseen") == (class_pool == "unseen")))
    rows = rows[np.argsort(dataset.id[rows], kind="stable")]
    return group_rows(rows, dataset.label[rows])


def generate_episodes(dataset: Dataset, spec: EpisodeSpec) -> list[Episode]:
    """Sample spec.episode_count episodes from the chosen class pool.

    Classes too small for queries_per_class + max_shots items are skipped
    with a warning; running out of classes is an error. Pure function of
    (dataset, spec): the rng substreams are derived from spec.seed alone.
    """
    by_class = _pool_classes(dataset, spec.class_pool)
    need = spec.queries_per_class + spec.max_shots
    eligible = sorted(label for label, rows in by_class.items() if len(rows) >= need)
    skipped = sorted(set(by_class) - set(eligible))
    if skipped:
        warnings.warn(f"skipping classes with fewer than {need} items: {skipped}")
    if len(eligible) < spec.ways:
        raise DatasetError(
            f"{spec.ways}-way episodes need {spec.ways} usable classes, have {len(eligible)}"
        )
    bg_pool = np.flatnonzero(dataset.is_background)
    bg_pool = bg_pool[np.argsort(dataset.id[bg_pool], kind="stable")]
    if spec.background_queries > len(bg_pool):
        raise DatasetError(
            f"episodes need {spec.background_queries} background queries, "
            f"dataset has {len(bg_pool)}"
        )

    episodes = []
    for i in range(spec.episode_count):
        rng = substream(spec.seed, "episode", i, "classes")
        picked = rng.choice(len(eligible), size=spec.ways, replace=False)
        classes = [eligible[int(j)] for j in picked]

        rng = substream(spec.seed, "episode", i, "queries")
        queries, rest = [], []
        for label in classes:
            rows = by_class[label]
            idx = rng.choice(len(rows), size=spec.queries_per_class, replace=False)
            queries.append(rows[idx])
            rest.append(np.delete(rows, idx))
        if spec.background_queries:
            rng = substream(spec.seed, "episode", i, "background")
            queries.append(bg_pool[rng.choice(len(bg_pool), size=spec.background_queries,
                                              replace=False)])

        rng = substream(spec.seed, "episode", i, "support", spec.shots)
        support = [rows[rng.choice(len(rows), size=spec.shots, replace=False)] for rows in rest]
        episodes.append(Episode(i, classes, np.stack(support), np.concatenate(queries), dataset))
    return episodes


# ---------------------------------------------------------------------------
# episode heads


def support_embeddings(head: MixtureHead, support) -> np.ndarray:
    """The support set's embeddings under `head`: its (ways, shots, width)
    penultimate features through the last layer, a (ways, shots, dim) array."""
    ways, shots, width = support.shape
    E = head.embedding.last_layer(support.reshape(ways * shots, width)).value
    return E.reshape(ways, shots, -1)


def replace_representatives(head: MixtureHead, support) -> MixtureHead:
    """An episode head whose mixture is the support set, one mode per
    support embedding; `head` itself is left unchanged.

    support: (ways, shots, dim) embeddings. The episode head is a head of
    its own over the penultimate features of `head` (see
    `EmbeddingNet.hidden_features`), built from three arrays with
    `MixtureHead.from_arrays`, so no initial values are drawn: a one-layer
    net starting from copies of the last weight and bias of `head`, and the
    support embeddings as its representatives. It shares no parameter or
    array with `head`, so tuning it never reaches `head`.
    """
    try:
        values = np.asarray(support, dtype=np.float64)
    except ValueError:
        raise ConfigError("support must hold the same number of embeddings per class") from None
    dim = head.embedding.config.output_dim
    if values.ndim != 3 or values.shape[2] != dim or 0 in values.shape:
        raise ConfigError(
            f"support embeddings must be (ways, shots, {dim}) with ways, shots >= 1, "
            f"got {values.shape}"
        )
    ways, shots, _ = values.shape
    last = head.embedding.weights[-1].value
    return MixtureHead.from_arrays(
        dataclasses.replace(head.embedding.config, input_dim=last.shape[0], layer_widths=(dim,)),
        dataclasses.replace(head.mixture, num_classes=ways, modes_per_class=shots),
        head.task_mode,
        {"layers.0.weight": last, "layers.0.bias": head.embedding.last_bias.value,
         "representatives.weight": values},
    )


# ---------------------------------------------------------------------------
# episode fine-tuning


@dataclass
class FinetuneResult:
    losses: list[float]
    kept_step: int


def finetune_episodes(heads, support, steps: int, lr: float = 0.01) -> list[FinetuneResult]:
    """Adapt each of `heads`, episode heads from `replace_representatives`,
    to its support set: every parameter of it, that is the last embedding
    layer and the representatives, is tuned on the penultimate features of
    its support, `support` being an (E, ways, shots, width) stack with
    class i as row i of each episode. The frozen layers of the trained head
    are not run.

    The episodes share one graph per step, built on a stack of the heads
    (`MixtureHead.from_arrays` with `stack`). Its root sums the episodes'
    losses and SGD is elementwise, so each episode takes bit for bit the
    steps it would take alone. Each episode keeps its best-loss iterate, so
    its final support loss never exceeds its initial one.
    """
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if steps == 0:
        return [FinetuneResult([], 0) for _ in heads]
    count, ways, shots, width = support.shape
    X = support.reshape(count, ways * shots, width)
    labels = np.repeat(np.arange(ways), shots)
    first = heads[0]
    layout = parameter_layout(first.embedding.config, first.mixture, count)
    stacked = MixtureHead.from_arrays(
        first.embedding.config, first.mixture, first.task_mode,
        {name: np.stack([h.named_parameters()[name].value for h in heads]).reshape(shape)
         for name, shape in layout.items()}, stack=count)
    tuned = stacked.parameters()
    optimizer = SGD({"no_decay": tuned}, lr=lr, momentum=0.0)

    losses = []
    best_loss, best_step = np.full(count, np.inf), np.zeros(count, dtype=int)
    best = [p.value.copy() for p in tuned]
    for step in range(steps + 1):
        loss, parts = stacked.total_loss(X, labels)
        value = parts["total"]
        losses.append(value)
        better = value < best_loss
        best_loss[better], best_step[better] = value[better], step
        for kept, p in zip(best, tuned):
            kept[better] = p.value[better]
        if step == steps:
            break
        ad.zero_grads(tuned)
        ad.backward(loss)
        optimizer.step()
        del loss  # free this step's graph before the next one is built
    worse = losses[-1] > best_loss
    for kept, p in zip(best, tuned):
        p.value[worse] = kept[worse]
    for i, head in enumerate(heads):
        for p, q in zip(head.parameters(), tuned):
            p.value = q.value[i].reshape(p.value.shape).copy()
    kept_step = np.where(worse, best_step, steps)
    return [FinetuneResult(trace.tolist(), int(k)) for trace, k in zip(np.array(losses).T, kept_step)]


def episode_finetune(head: MixtureHead, support, steps: int,
                     lr: float = 0.01) -> FinetuneResult:
    """`finetune_episodes` for one episode head and its (ways, shots, width)
    support features."""
    return finetune_episodes([head], np.asarray(support)[None], steps, lr)[0]


# ---------------------------------------------------------------------------
# scoring


def _places(records: Dataset):
    """Where each row sits: its image (the record itself when it has none)
    and its box (the unit box when it has none)."""
    image = np.where(np.equal(records.image_id, None), records.id, records.image_id)
    boxes = np.where(np.isnan(records.box), np.array([0.0, 0.0, 1.0, 1.0]), records.box)
    return image, boxes


def score_queries(head: MixtureHead, queries: Dataset, features, episode_id: int,
                  class_ids) -> Detections:
    """One detection per row of `queries`, scored by the episode head `head`
    from `features`, the queries' penultimate features, one row per query:
    best-mode class posterior as the score, background label when the
    background posterior beats every class. The queries are scored as one
    batch whose rows do not depend on each other, so order never matters."""
    if not len(queries):
        return Detections.concat([])
    scores = head.score_batch(features, posterior_mode="max")
    background = scores.is_background
    image, boxes = _places(queries)
    return Detections(
        episode_id=np.full(len(queries), episode_id),
        image_id=image,
        class_id=np.where(background, BACKGROUND_LABEL,
                          np.asarray(class_ids)[scores.predicted_class]),
        boxes=boxes,
        scores=np.clip(np.where(background, scores.background_posterior,
                                scores.class_posterior.max(axis=1)), 0.0, 1.0),
        record_id=[f"e{episode_id:05d}-q{j:04d}-{rid}" for j, rid in enumerate(queries.id)],
    )


def _run_block(head: MixtureHead, episodes, steps: int, lr: float) -> list[Detections]:
    """Full pass over `episodes` on episode heads built from `head`, which
    stays unchanged: put the support and query rows of every episode through
    the frozen layers in one call, install each episode's support
    representatives, optionally fine-tune all the episodes together, score
    each one's queries. The frozen layers are row-invariant, so each row's
    features are the bits it would get alone."""
    features = head.embedding.hidden_features(np.concatenate(
        [ep.dataset.features[np.concatenate([ep.support.ravel(), ep.queries])]
         for ep in episodes]))
    heads, supports, queries = [], [], []
    start = 0
    for ep in episodes:
        ways, shots = ep.support.shape
        stop = start + ways * shots + len(ep.queries)
        supports.append(features[start:start + ways * shots].reshape(ways, shots, -1))
        queries.append(features[start + ways * shots:stop])
        heads.append(replace_representatives(head, support_embeddings(head, supports[-1])))
        start = stop
    if steps:
        finetune_episodes(heads, np.stack(supports), steps, lr)
    return [score_queries(h, ep.dataset[ep.queries], q, ep.episode_id, ep.class_ids)
            for h, ep, q in zip(heads, episodes, queries)]


def run_episode(head: MixtureHead, episode: Episode, finetune_steps: int = 0,
                finetune_lr: float = 0.01) -> Detections:
    """Full episode pass on an episode head built from `head`, which stays
    unchanged: put the support and the queries through the frozen layers
    once, install the support representatives, optionally fine-tune, score
    the queries."""
    return _run_block(head, [episode], finetune_steps, finetune_lr)[0]


@dataclass
class EpisodeEvaluation:
    """Pooled outcome of one pass over a set of episodes."""

    detections: Detections  # every query not called background
    foreground: int = 0
    foreground_correct: int = 0
    background: int = 0
    background_accepted: int = 0

    @property
    def accuracy(self) -> float:
        return self.foreground_correct / self.foreground

    @property
    def false_accept(self) -> float | None:
        """Share of background queries given a class; None without any."""
        return self.background_accepted / self.background if self.background else None


def evaluate_episodes(head: MixtureHead, episodes, steps: int = 0,
                      lr: float = 0.01) -> EpisodeEvaluation:
    """Run every episode (fine-tuning `steps` steps at `lr`) and pool its
    detections with the query accuracy and background false-accept counts.

    Episodes run in blocks that each fine-tune as one stacked graph per
    step; a block holds as many episodes as `BLOCK_ENTRIES` allows. To be
    fine-tuned, all episodes must have the same ways and shots."""
    episodes = list(episodes)
    shapes = {ep.support.shape for ep in episodes}
    if steps and len(shapes) > 1:
        raise ConfigError("episodes fine-tuned in one pass must have the same ways and shots")
    rows = max((ways * shots for ways, shots in shapes), default=1)
    width, dim = head.embedding.weights[-1].value.shape
    per_block = max(1, BLOCK_ENTRIES // (rows * rows + (width + 1 + rows) * dim))
    result, kept = EpisodeEvaluation(Detections.concat([])), []
    for start in range(0, len(episodes), per_block):
        block = episodes[start:start + per_block]
        for ep, detections in zip(block, _run_block(head, block, steps, lr)):
            labels = ep.dataset.label[ep.queries]
            accepted = np.isin(detections.class_id, ep.class_ids)
            background = labels == BACKGROUND_LABEL
            correct = detections.class_id == labels.astype(str)
            result.foreground += int(np.count_nonzero(~background))
            result.foreground_correct += int(np.count_nonzero(~background & correct))
            result.background += int(np.count_nonzero(background))
            result.background_accepted += int(np.count_nonzero(background & accepted))
            kept.append(detections[accepted])
    result.detections = Detections.concat(kept)
    return result


def episode_ground_truth(episode: Episode) -> GroundTruth:
    """Ground truth for the foreground queries of one episode."""
    queries = episode.dataset[episode.queries]
    foreground = queries[~queries.is_background]
    image, boxes = _places(foreground)
    return GroundTruth(
        episode_id=np.full(len(foreground), episode.episode_id),
        image_id=image,
        class_id=foreground.label,
        boxes=boxes,
    )


# ---------------------------------------------------------------------------
# episode files: JSON Lines, one episode per line

def save_episodes(episodes, spec: EpisodeSpec, path) -> None:
    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": "episodes",
        "spec": dataclasses.asdict(spec),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for ep in episodes:
            fh.write(json.dumps({
                "episode_id": ep.episode_id,
                "class_ids": ep.class_ids,
                "support_item_ids": ep.dataset.id[ep.support.ravel()].tolist(),
                "query_item_ids": ep.query_ids(),
            }) + "\n")


def load_episodes(path, dataset: Dataset) -> tuple[list[Episode], EpisodeSpec]:
    """Rebuild episodes from ids against the dataset they were drawn from.
    Every episode must have the spec's shape, `ways` classes of `shots`
    support items each, as the passes over the file fine-tune its episodes
    together."""
    spec = None
    episodes = []
    for line_no, obj in read_json_lines(path, "episodes"):
        if "kind" in obj:
            try:
                spec = EpisodeSpec(**obj["spec"])
            except (KeyError, TypeError) as e:
                raise DatasetError(f"bad episode spec: {e}", line_no) from None
            continue
        if spec is None:
            raise DatasetError("missing header line", line_no)
        try:
            support_rows = dataset.rows_of(obj["support_item_ids"])
            queries = dataset.rows_of(obj["query_item_ids"])
            class_ids = list(obj["class_ids"])
            support: dict[str, list[int]] = {c: [] for c in class_ids}
            episode_id = obj["episode_id"]
        except KeyError as e:
            raise DatasetError(f"unknown id or missing key {e.args[0]!r}", line_no) from None
        except TypeError as e:
            raise DatasetError(f"malformed episode ({e})", line_no) from None
        if type(episode_id) is not int:
            raise DatasetError(f"episode_id must be an integer, got {episode_id!r}", line_no)
        for row, label in zip(support_rows, dataset.label[support_rows]):
            if label not in support:
                raise DatasetError(
                    f"support item {dataset.id[row]} has label {label!r} outside the episode",
                    line_no)
            support[label].append(row)
        shots = sorted({len(rows) for rows in support.values()})
        if len(class_ids) != spec.ways or shots != [spec.shots]:
            raise DatasetError(
                f"episode {episode_id} has {len(class_ids)} classes with {shots} support items "
                f"each, the spec says {spec.ways}-way {spec.shots}-shot", line_no)
        episodes.append(Episode(episode_id, class_ids, [support[c] for c in class_ids], queries,
                                dataset))
    if spec is None:
        raise DatasetError("missing header line")
    return episodes, spec
