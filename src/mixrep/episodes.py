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
still takes, bit for bit, the steps it would take alone. It returns an
`EpisodePass`, a table with a row per query that every figure is read from.
`run_episode` and `episode_finetune` are the one-episode forms of the pass.

Episode sampling is arranged so that one seed pins the whole benchmark for
every shot count at once: class choice, query choice, and distractor choice
never look at the number of shots, and the support draw gets its own
substream keyed by it. Running 1-, 5-, and 10-shot against the same seed
therefore scores identical query sets, and `redraw_support` gives a file's
episodes the support that generation would draw at another shot count.
"""

import dataclasses
import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .config import EpisodeSpec, from_json
from .data import (BACKGROUND_LABEL, SCHEMA_VERSION, Dataset, group_rows, naming_records,
                   read_json_lines)
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
        if self.dataset.is_background[self.queries].all():
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
        queries = []
        for label in classes:
            rows = by_class[label]
            queries.append(rows[rng.choice(len(rows), size=spec.queries_per_class, replace=False)])
        if spec.background_queries:
            rng = substream(spec.seed, "episode", i, "background")
            queries.append(bg_pool[rng.choice(len(bg_pool), size=spec.background_queries,
                                              replace=False)])
        queries = np.concatenate(queries)
        support = _draw_support(dataset, by_class, classes, queries, spec, i)
        episodes.append(Episode(i, classes, support, queries, dataset))
    return episodes


def _draw_support(dataset: Dataset, by_class: dict, class_ids, queries, spec: EpisodeSpec,
                  episode_id: int) -> np.ndarray:
    """The (ways, shots) support rows of an episode over `dataset`: spec.shots
    rows of each class's pool rows (`by_class`, from `_pool_classes`) that are
    not among its `queries`, drawn on the episode's support substream."""
    rng = substream(spec.seed, "episode", episode_id, "support", spec.shots)
    free = np.ones(len(dataset), dtype=bool)
    free[queries] = False
    support = []
    for label in class_ids:
        rows = by_class.get(label, np.empty(0, dtype=np.intp))
        rows = rows[free[rows]]
        if len(rows) < spec.shots:
            raise DatasetError(f"episode {episode_id}: class {label!r} has {len(rows)} "
                               f"{spec.class_pool}-pool items besides its queries, too few "
                               f"for {spec.shots} shots")
        support.append(rows[rng.choice(len(rows), size=spec.shots, replace=False)])
    return np.stack(support)


def redraw_support(episodes, spec: EpisodeSpec) -> list[Episode]:
    """`episodes` with the support of each drawn anew for spec.shots from
    its classes' pool rows outside its queries, as `generate_episodes` draws
    it: classes and queries stay as they are, so a file of episodes serves
    every shot count."""
    by_class = _pool_classes(episodes[0].dataset, spec.class_pool) if episodes else {}
    redrawn = []
    for ep in episodes:
        support = _draw_support(ep.dataset, by_class, ep.class_ids, ep.queries, spec,
                                ep.episode_id)
        redrawn.append(Episode(ep.episode_id, ep.class_ids, support, ep.queries, ep.dataset))
    return redrawn


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


def score_queries(head: MixtureHead, queries: Dataset, features, episode_id: int,
                  class_ids) -> Detections:
    """One detection per row of `queries`, scored by the episode head `head`
    from `features`, the queries' penultimate features, one row per query:
    best-mode class posterior as the score, background label when the
    background posterior beats every class. A query without an image is
    its own image, and one without a box holds the unit box. The queries
    are scored as one batch whose rows do not depend on each other, so
    order never matters."""
    if not len(queries):
        return Detections.concat([])
    scores = head.score_batch(features, posterior_mode="max")
    background = scores.is_background
    return Detections(
        episode_id=np.full(len(queries), episode_id),
        image_id=np.where(np.equal(queries.image_id, None), queries.id, queries.image_id),
        class_id=np.where(background, BACKGROUND_LABEL,
                          np.asarray(class_ids)[scores.predicted_class]),
        boxes=np.where(np.isnan(queries.box), np.array([0.0, 0.0, 1.0, 1.0]), queries.box),
        scores=np.clip(np.where(background, scores.background_posterior,
                                scores.class_posterior.max(axis=1)), 0.0, 1.0),
        record_id=[f"e{episode_id:05d}-q{j:04d}-{rid}" for j, rid in enumerate(queries.id)],
    )


def _run_block(head: MixtureHead, episodes, steps: int, lr: float) -> list[Detections]:
    """Full pass over `episodes`, drawn from one dataset, on episode heads
    built from `head`, which stays unchanged: put the support and query rows
    of every episode through the frozen layers in one call, install each
    episode's support representatives, optionally fine-tune all the episodes
    together, score each one's queries. The frozen layers are row-invariant,
    so each row's features are the bits it would get alone."""
    dataset = episodes[0].dataset
    rows = np.concatenate([part for ep in episodes for part in (ep.support.ravel(), ep.queries)])
    with naming_records(dataset, rows):
        features = head.embedding.hidden_features(dataset.features[rows])
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
        correct = self.queries.class_id[foreground] == self.label[foreground].astype(str)
        return int(np.count_nonzero(correct)) / len(correct)

    @property
    def false_accept(self) -> float | None:
        """Share of background queries given a class; None without any."""
        accepted = self.queries.class_id[self.label == BACKGROUND_LABEL] != BACKGROUND_LABEL
        return int(np.count_nonzero(accepted)) / len(accepted) if len(accepted) else None


def evaluate_episodes(head: MixtureHead, episodes, steps: int = 0,
                      lr: float = 0.01) -> EpisodePass:
    """Run every episode (fine-tuning `steps` steps at `lr`) and gather the
    detection and the true label of each of its queries.

    Episodes run in blocks that each fine-tune as one stacked graph per
    step; a block holds as many episodes as `BLOCK_ENTRIES` allows. All
    episodes must be drawn from one dataset and, to be fine-tuned, have the
    same ways and shots."""
    episodes = list(episodes)
    if any(ep.dataset is not episodes[0].dataset for ep in episodes):
        raise ConfigError("episodes of one pass must be drawn from one dataset")
    shapes = {ep.support.shape for ep in episodes}
    if steps and len(shapes) > 1:
        raise ConfigError("episodes fine-tuned in one pass must have the same ways and shots")
    rows = max((ways * shots for ways, shots in shapes), default=1)
    width, dim = head.embedding.weights[-1].value.shape
    per_block = max(1, BLOCK_ENTRIES // (rows * rows + (width + 1 + rows) * dim))
    queries = [detections for start in range(0, len(episodes), per_block)
               for detections in _run_block(head, episodes[start:start + per_block], steps, lr)]
    return EpisodePass(Detections.concat(queries), np.concatenate(
        [np.empty(0, dtype=object)] + [ep.dataset.label[ep.queries] for ep in episodes]))


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
    together, an id of its own, as its detections are matched by it, and a
    foreground query. A fault raises DatasetError naming its line."""
    spec = None
    episodes, episode_ids = [], set()
    for line_no, obj in read_json_lines(path, "episodes"):
        try:
            if "kind" in obj:
                spec = from_json(EpisodeSpec, obj.get("spec"), "episode spec")
                continue
            if spec is None:
                raise ConfigError("missing header line")
            try:
                support_rows = dataset.rows_of(obj["support_item_ids"])
                queries = dataset.rows_of(obj["query_item_ids"])
                class_ids = list(obj["class_ids"])
                support: dict[str, list[int]] = {c: [] for c in class_ids}
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
            for row, label in zip(support_rows, dataset.label[support_rows]):
                if label not in support:
                    raise ConfigError(
                        f"support item {dataset.id[row]} has label {label!r} outside the episode")
                support[label].append(row)
            shots = sorted({len(rows) for rows in support.values()})
            if len(class_ids) != spec.ways or shots != [spec.shots]:
                raise ConfigError(
                    f"episode {episode_id} has {len(class_ids)} classes with {shots} support "
                    f"items each, the spec says {spec.ways}-way {spec.shots}-shot")
            episodes.append(Episode(episode_id, class_ids, [support[c] for c in class_ids],
                                    queries, dataset))
        except ConfigError as e:
            raise DatasetError(str(e), line_no) from None
    if not episodes:
        raise DatasetError(f"no episodes in {path}")
    return episodes, spec
