"""Episodic few-shot evaluation: build episodes from held-out classes, run
each on an episode head whose representatives are the support embeddings,
optionally fine-tune it, score.

The trained head's hidden layers are frozen for an episode, so they run
once per episode row: the episode head is a one-layer head of its own over
the penultimate features, and fine-tuning and query scoring run only that
last layer and the representatives. It is built from three arrays (the last
weight and bias of the trained head and the support embeddings), so no
initial values are drawn for it.

A pass (`evaluate_episodes`) holds at least one episode, all of one dataset
and one (ways, shots) shape, fine-tuned or not. It runs them in blocks, each
block's support one stack from the frozen layers to the fine-tune: every
step builds a single loss graph over all the block's episode heads
(`finetune_episodes`), and each episode still takes, bit for bit, the steps
it would take alone. It returns an `EpisodePass`, a table with a row per
query that every figure is read from.
`run_episode` and `episode_finetune` are the one-episode forms of the pass.

Episode sampling is arranged so that one seed pins the whole benchmark for
every shot count at once: class choice, query choice, and distractor choice
never look at the number of shots, and the support draw gets its own
substream keyed by it. Running 1-, 5-, and 10-shot against the same seed
therefore scores identical query sets. An episode file stores each
episode's support at every count from 1 to max_shots (`generate_passes`,
`save_episodes`), so evaluation reads the support of any count from the
file (`load_episodes`) and draws nothing.
"""

import dataclasses
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .config import EpisodeSpec, RunConfig, check_at_least, from_json
from .data import (BACKGROUND_LABEL, Dataset, group_rows, naming_records, read_json_lines,
                   write_json_lines)
from .errors import ConfigError, DatasetError
from .head import MixtureHead, parameter_layout
from .metrics import Detections, GroundTruth
from .rng import substream
from .training import SGD

# Entries per fine-tune graph. A pass fine-tunes its episodes in blocks, one
# graph per step for each block. Per episode, a graph holds the episode
# head's last layer and its activations, a few copies of its parameters
# and gradients, and the loss node's few (rows, modes) tables, so a block
# holds as many episodes as keep one table plus the parameters of each
# under this bound, and peak memory does not grow with the episode count.
# At README scale (width 64, e = 32) that is 15 one-shot, 10 five-shot or
# 5 ten-shot episodes a graph. Episodes are independent, so blocking
# changes no result bit.
BLOCK_ENTRIES = 36_000


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
        if BACKGROUND_LABEL in self.class_ids:
            raise ConfigError(f"episode classes must not include {BACKGROUND_LABEL!r}")
        rows, counts = np.unique(np.concatenate([self.support.ravel(), self.queries]),
                                 return_counts=True)
        if (counts > 1).any():
            raise ConfigError(f"items listed more than once among the support and queries: "
                              f"{self.dataset.id[rows[counts > 1][:5]].tolist()}")
        if (self.dataset.label[self.queries] == BACKGROUND_LABEL).all():
            raise ConfigError(f"episode {self.episode_id} has no foreground query")

    def query_ids(self) -> list[str]:
        return self.dataset.id[self.queries].tolist()


def _pool_classes(dataset: Dataset, class_pool: str) -> dict[str, np.ndarray]:
    """The rows of each foreground class of the pool, in id order."""
    rows = np.flatnonzero(~dataset.is_background
                          & ((dataset.group == "unseen") == (class_pool == "unseen")))
    rows = rows[np.argsort(dataset.id[rows], kind="stable")]
    return group_rows(rows, dataset.label[rows])


def generate_episodes(dataset: Dataset, spec: EpisodeSpec) -> list[Episode]:
    """The episodes of `spec` at spec.shots: `generate_passes`' pass at that
    count."""
    return generate_passes(dataset, spec, [spec.shots])[spec.shots]


def generate_passes(dataset: Dataset, spec: EpisodeSpec, shot_counts) -> dict[int, list[Episode]]:
    """Sample spec.episode_count episodes from the chosen class pool, each
    with its support at every count of `shot_counts`: one pass per count,
    in that order, the passes sharing each episode's classes and queries.

    Classes too small for queries_per_class + max_shots items are skipped
    with a warning; running out of classes is an error. Pure function of
    (dataset, spec): the rng substreams are derived from spec.seed alone,
    so each count's pass is the same whatever counts are drawn with it.
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

    passes = {shots: [] for shots in shot_counts}
    for i in range(spec.episode_count):
        rng = substream(spec.seed, "episode", i, "classes")
        picked = rng.choice(len(eligible), size=spec.ways, replace=False)
        classes = [eligible[int(j)] for j in picked]

        rng = substream(spec.seed, "episode", i, "queries")
        queries = []
        for label in classes:
            rows = by_class[label]
            queries.append(rows[rng.choice(len(rows), size=spec.queries_per_class, replace=False)])
        if spec.background_queries:
            rng = substream(spec.seed, "episode", i, "background")
            queries.append(bg_pool[rng.choice(len(bg_pool), size=spec.background_queries,
                                              replace=False)])
        queries = np.concatenate(queries)
        supports = _draw_supports(dataset, by_class, classes, queries, spec, i, passes)
        for shots, support in supports.items():
            passes[shots].append(Episode(i, classes, support, queries, dataset))
    return passes


def _draw_supports(dataset: Dataset, by_class: dict, class_ids, queries, spec: EpisodeSpec,
                   episode_id: int, shot_counts) -> dict[int, np.ndarray]:
    """The (ways, shots) support rows of an episode over `dataset` at each
    of `shot_counts`: `shots` rows of each class's pool rows (`by_class`,
    from `_pool_classes`) that are not among its `queries`, drawn on the
    episode's support substream of that count. Those free rows are found
    once for every count."""
    free = np.ones(len(dataset), dtype=bool)
    free[queries] = False
    pools = [by_class[label][free[by_class[label]]] for label in class_ids]
    most = max(shot_counts)
    for label, rows in zip(class_ids, pools):
        if len(rows) < most:
            raise DatasetError(f"episode {episode_id}: class {label!r} has {len(rows)} "
                               f"{spec.class_pool}-pool items besides its queries, too few "
                               f"for {most} shots")
    supports = {}
    for shots in shot_counts:
        rng = substream(spec.seed, "episode", episode_id, "support", shots)
        supports[shots] = np.stack([rows[rng.choice(len(rows), size=shots, replace=False)]
                                    for rows in pools])
    return supports


# ---------------------------------------------------------------------------
# episode heads


def support_embeddings(head: MixtureHead, support) -> np.ndarray:
    """Support embeddings under `head`: penultimate features of any leading
    shape, such as (ways, shots, width) or a block's (episodes, ways, shots,
    width), through the last layer, one dim-row each. The layer is
    row-invariant, so each episode of a stack gets the bits it gets alone.
    A support row the layer maps to non-finite values raises
    NonFiniteRowError naming its place in the flattened stack."""
    E = head.embedding.last_layer_batch(support.reshape(-1, support.shape[-1]))
    return E.reshape(*support.shape[:-1], -1)


def replace_representatives(head: MixtureHead, support) -> MixtureHead:
    """An episode head whose mixture is the support set, one mode per
    support embedding; `head` itself is left unchanged.

    support: (ways, shots, dim) embeddings. The episode head is a head of
    its own over the penultimate features of `head` (see
    `EmbeddingNet.hidden_features`), built from three arrays with
    `MixtureHead.from_arrays`, so no initial values are drawn: a one-layer
    net starting from copies of the last weight and bias of `head`, and the
    support embeddings as its representatives. Whatever the rule of `head`,
    its posterior rule is 'max': queries score open-set by their best mode.
    It shares no parameter or array with `head`, so tuning it never reaches
    `head`.
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
        dataclasses.replace(head.mixture, num_classes=ways, modes_per_class=shots,
                            posterior_mode="max"),
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


def finetune_episodes(heads, support, steps: int,
                      lr: float = RunConfig.finetune_lr) -> list[FinetuneResult]:
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
    check_at_least("steps", steps, 0)
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
                     lr: float = RunConfig.finetune_lr) -> FinetuneResult:
    """`finetune_episodes` for one episode head and its (ways, shots, width)
    support features."""
    return finetune_episodes([head], np.asarray(support)[None], steps, lr)[0]


# ---------------------------------------------------------------------------
# scoring


def score_queries(head: MixtureHead, queries: Dataset, features, episode_id: int,
                  class_ids) -> Detections:
    """One detection per row of `queries`, scored by the episode head `head`
    from `features`, the queries' penultimate features, one row per query:
    best-mode class posterior (the rule of every episode head) as the score,
    background label when the background posterior beats every class. A
    query without an image is its own image, and one without a box holds the
    unit box. The queries are scored as one batch whose rows do not depend
    on each other, so order never matters."""
    scores = head.score_batch(features)
    background = scores.is_background
    return Detections(
        episode_id=np.full(len(queries), episode_id),
        image_id=np.where(np.equal(queries.image_id, None), queries.id, queries.image_id),
        class_id=np.where(background, BACKGROUND_LABEL,
                          np.asarray(class_ids, dtype=object)[scores.predicted_class]),
        boxes=np.where(np.isnan(queries.box), np.array([0.0, 0.0, 1.0, 1.0]), queries.box),
        scores=np.clip(np.where(background, scores.background_posterior,
                                scores.class_posterior.max(axis=1)), 0.0, 1.0),
        record_id=[f"e{episode_id:05d}-q{j:04d}-{rid}" for j, rid in enumerate(queries.id)],
    )


def _run_block(head: MixtureHead, episodes, steps: int, lr: float) -> list[Detections]:
    """Full pass over `episodes`, of one dataset and one shape, on episode
    heads built from `head`, which stays unchanged: put each episode's
    support, then its queries, through the frozen layers in one call, embed
    the block's (episodes, ways, shots, width) support in one call, install
    each episode's representatives, fine-tune the episodes together, score
    each one's queries. Each row gets the bits it would get alone, and the
    first row in that order that maps to non-finite values, in the frozen
    layers or the last one, raises NonFiniteRowError naming its record."""
    dataset = episodes[0].dataset
    parts = [part for ep in episodes for part in (ep.support.ravel(), ep.queries)]
    rows = np.concatenate(parts)
    with naming_records(dataset, rows):
        features = np.split(head.embedding.hidden_features(dataset.features[rows]),
                            np.cumsum([len(part) for part in parts[:-1]]))
    support = np.stack(features[0::2]).reshape(len(episodes), *episodes[0].support.shape, -1)
    with naming_records(dataset, np.concatenate(parts[0::2])):
        embedded = support_embeddings(head, support)
    heads = [replace_representatives(head, E) for E in embedded]
    finetune_episodes(heads, support, steps, lr)
    detections = []
    for h, ep, q in zip(heads, episodes, features[1::2]):
        with naming_records(dataset, ep.queries):
            detections.append(score_queries(h, dataset[ep.queries], q, ep.episode_id,
                                            ep.class_ids))
    return detections


def run_episode(head: MixtureHead, episode: Episode, finetune_steps: int = 0,
                finetune_lr: float = RunConfig.finetune_lr) -> Detections:
    """Full episode pass on an episode head built from `head`, which stays
    unchanged: put the support and the queries through the frozen layers
    once, install the support representatives, optionally fine-tune, score
    the queries."""
    return _run_block(head, [episode], finetune_steps, finetune_lr)[0]


@dataclass
class EpisodePass:
    """One pass over a list of episodes as a table with a row per query, in
    episode and query order: `queries`, each query's detection, whose class
    id is BACKGROUND_LABEL where the episode head rejects the query, and
    `label`, its true label. Every figure of the pass is read from these
    two columns."""

    queries: Detections
    label: np.ndarray

    @cached_property
    def detections(self) -> Detections:
        """The accepted queries, which keep their places in the ranking."""
        return self.queries[self.queries.class_id != BACKGROUND_LABEL]

    @cached_property
    def truth(self) -> GroundTruth:
        """A ground-truth box for each foreground query, where it sits."""
        fg = self.label != BACKGROUND_LABEL
        q = self.queries
        return GroundTruth(q.episode_id[fg], q.image_id[fg], self.label[fg], q.boxes[fg])

    @property
    def accuracy(self) -> float:
        """Share of foreground queries given their true class."""
        foreground = self.label != BACKGROUND_LABEL
        correct = self.queries.class_id[foreground] == self.label[foreground]
        return int(np.count_nonzero(correct)) / len(correct)

    @property
    def false_accept(self) -> float | None:
        """Share of background queries given a class; None without any."""
        accepted = self.queries.class_id[self.label == BACKGROUND_LABEL] != BACKGROUND_LABEL
        return int(np.count_nonzero(accepted)) / len(accepted) if len(accepted) else None


def evaluate_episodes(head: MixtureHead, episodes, steps: int = 0,
                      lr: float = RunConfig.finetune_lr) -> EpisodePass:
    """Run every episode (fine-tuning `steps` steps at `lr`) and gather the
    detection and the true label of each of its queries.

    A pass holds at least one episode, all drawn from one dataset and of
    one (ways, shots) shape, fine-tuned or not; anything else raises
    ConfigError. Episodes run in blocks that each fine-tune as one stacked
    graph per step; a block holds as many episodes as `BLOCK_ENTRIES`
    allows."""
    episodes = list(episodes)
    if not episodes:
        raise ConfigError("a pass needs at least one episode")
    first = episodes[0]
    if any(ep.dataset is not first.dataset for ep in episodes):
        raise ConfigError("episodes of one pass must be drawn from one dataset")
    if any(ep.support.shape != first.support.shape for ep in episodes):
        raise ConfigError("episodes of one pass must have the same ways and shots")
    rows = first.support.size
    width, dim = head.embedding.weights[-1].value.shape
    per_block = max(1, BLOCK_ENTRIES // (rows * rows + (width + 1 + rows) * dim))
    queries = [detections for start in range(0, len(episodes), per_block)
               for detections in _run_block(head, episodes[start:start + per_block], steps, lr)]
    return EpisodePass(Detections.concat(queries),
                       first.dataset.label[np.concatenate([ep.queries for ep in episodes])])


# ---------------------------------------------------------------------------
# episode files: JSON Lines, one episode per line

def save_episodes(passes: dict[int, list[Episode]], spec: EpisodeSpec, path) -> None:
    """Write an episode file of `passes`, the same episodes at each shot
    count, as `generate_passes` draws them; gen-episodes draws every count
    from 1 to spec.max_shots. Each line holds an episode's id, classes and
    queries once, and in `support_item_ids` an object from each count, as
    text, to that count's ways x shots support ids, class by class."""
    def lines():
        for same in zip(*passes.values(), strict=True):
            ep = same[0]
            yield {
                "episode_id": ep.episode_id,
                "class_ids": ep.class_ids,
                "support_item_ids": {str(shots): ep.dataset.id[at.support.ravel()].tolist()
                                     for shots, at in zip(passes, same)},
                "query_item_ids": ep.query_ids(),
            }

    write_json_lines(path, "episodes", lines(), spec=dataclasses.asdict(spec))


def load_episodes(path, dataset: Dataset,
                  shot_counts=None) -> tuple[dict[int, list[Episode]], EpisodeSpec]:
    """Rebuild the passes of an episode file against the dataset it was
    drawn from: its episodes at each of `shot_counts`, by default the spec's
    own count, one pass per count in that order. Only those counts'
    supports are read, each as the file stores it; a count above the spec's
    max_shots raises ConfigError.

    At each count, every episode must have the spec's ways and that many
    support items per class, as a pass fine-tunes its episodes together, an
    id of its own, as its detections are matched by it, and a foreground
    query. A fault raises DatasetError naming its line. The map from id to
    row lives only while the file is read."""
    rows_of = dataset.row_lookup()
    spec = None
    passes: dict[int, list[Episode]] = {}
    episode_ids = set()
    for line_no, obj in read_json_lines(path, "episodes"):
        if "kind" in obj:
            try:
                spec = from_json(EpisodeSpec, obj.get("spec"), "episode spec")
            except ConfigError as e:
                raise DatasetError(str(e), line_no) from None
            # each count's spec refuses a count above max_shots
            passes = {dataclasses.replace(spec, shots=shots).shots: []
                      for shots in shot_counts or [spec.shots]}
            continue
        try:
            if spec is None:
                raise ConfigError("missing header line")
            try:
                supports = obj["support_item_ids"]
                support_rows = {shots: rows_of(supports[str(shots)]) for shots in passes}
                queries = rows_of(obj["query_item_ids"])
                class_ids = list(obj["class_ids"])
                place = {c: i for i, c in enumerate(class_ids)}
                episode_id = obj["episode_id"]
            except KeyError as e:
                raise ConfigError(f"unknown id or missing key {e.args[0]!r}") from None
            except TypeError as e:
                raise ConfigError(f"malformed episode ({e})") from None
            if type(episode_id) is not int or not -2**63 <= episode_id < 2**63:
                raise ConfigError(f"episode_id must be a 64-bit integer, got {episode_id!r}")
            if episode_id in episode_ids:
                raise ConfigError(f"episode_id {episode_id} is taken by an earlier episode")
            episode_ids.add(episode_id)
            for shots, rows in support_rows.items():
                support: list[list[int]] = [[] for _ in class_ids]
                for row, label in zip(rows, dataset.label[rows]):
                    if label not in place:
                        raise ConfigError(f"support item {dataset.id[row]} has label {label!r} "
                                          f"outside the episode")
                    support[place[label]].append(row)
                counts = sorted({len(items) for items in support})
                if len(class_ids) != spec.ways or counts != [shots]:
                    raise ConfigError(
                        f"episode {episode_id} has {len(class_ids)} classes with {counts} support "
                        f"items each, the spec says {spec.ways}-way {shots}-shot")
                passes[shots].append(Episode(episode_id, class_ids, support, queries, dataset))
        except ConfigError as e:
            raise DatasetError(str(e), line_no) from None
    if not episode_ids:
        raise DatasetError(f"no episodes in {path}")
    return passes, spec
