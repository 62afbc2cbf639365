"""mixrep benchmark: the README workflow commands, run as users run them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this file's directory.
Every command is a fresh ``mixrep <command>`` process (the console-script
entry point, with the checkout's ``src/`` on the path and BLAS pinned to one
thread), so interpreter start and ``import mixrep`` are part of each time.

Set-up makes the workload's inputs from ``--seed`` with the CLI itself
(``synth-data``, plus ``train`` and ``gen-episodes`` where the workload
needs a checkpoint and an episode file). It runs several times, must give
byte-identical inputs each time, and its median is ``setup_s``. The timed
phase repeats the workload's command sequence until ``--seconds`` have
passed and reports medians over the repetitions. Every repetition's outputs
are checked and must be byte-identical to the first repetition's.

With ``--trace 1`` the commands also run under ``perfbench/tracer.py``,
alternating with untraced repetitions; the per-layer metrics come from the
traced spans and the tracing overhead is traced minus untraced wall time.
``perfbench/README.md`` lists the workloads and maps each per-layer metric
to the end-to-end metric and workload it should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with per-repetition figures and the environment, is written under
``perfbench/results/``; the inputs and outputs under ``perfbench/work/`` are
kept only when a check failed. The exit code is 1 when a command or an
output check failed, and 2 when the checkout holds no mixrep sources or
set-up failed.
"""

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"
TRACER = BENCH_DIR / "tracer.py"

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
COMMAND_CPU_LIMIT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# what the installed `mixrep` console script runs
LAUNCH = "import sys; from mixrep.cli import main; sys.exit(main())"

# The README detection workflow: 15 classes (10 held out), 414 records,
# widths [64, 32], batches of 5 classes x 6 instances, 150 iterations.
README_SEED = 30
README_CONFIG = {
    "task_mode": "detection",
    "layer_widths": [64, 32],
    "iterations": 150,
    "classes_per_batch": 5,
    "instances_per_class": 6,
    "ways": 5,
    "queries_per_class": 10,
    "background_queries": 10,
    "synth": {"num_classes": 15, "modes_per_class": 1, "samples_per_mode": 24,
              "input_dim": 20, "spread": 0.05, "unseen_classes": 10,
              "background_fraction": 0.15, "test_fraction": 0.0},
}
SHOTS = "1,5"

# Acceptance criterion 4: 100 one-shot episodes, accuracy >= 95%, background
# false-accept <= 5%, and fine-tuning costs at most one point of accuracy.
# Three episodes are far too few for the false-accept bound (one episode's
# classes can sit near the clutter), so the bound is checked once per run on
# a criterion-sized episode file, without fine-tuning, outside the timing.
CRITERION_4 = {"episode_count": 100, "finetune_steps": 0}
ACCURACY_FLOOR = 0.95
FALSE_ACCEPT_CEILING = 0.05
FINETUNE_ACCURACY_SLACK = 0.01
CLASSIFY_ERROR_CEILING = 0.05

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    config: dict
    setup: list[str]  # commands that make the inputs, in order
    timed: list[str]  # the measured command sequence
    item_commands: list[str]  # commands whose work items make items_per_s
    item_name: str  # what items_per_s counts, under its roadmap name
    # When set, the dataset and checkpoint come from this seed (the README's,
    # where criterion 4 is established) and the episodes from the workload seed.
    data_seed: int | None = None
    # config overrides for a criterion-4 check made once per run
    validation: dict | None = None


WORKLOADS = {
    "train": Workload(
        "train", README_CONFIG, setup=["synth-data"], timed=["train"],
        item_commands=["train"], item_name="train_samples_per_s"),
    "episodes_finetune": Workload(
        "episodes_finetune", {**README_CONFIG, "episode_count": 3},
        setup=["synth-data", "train", "gen-episodes"], timed=["eval-episodes"],
        item_commands=["eval-episodes"], item_name="episode_passes_per_s",
        data_seed=README_SEED, validation=CRITERION_4),
    "episodes_score": Workload(
        "episodes_score",
        {**README_CONFIG, "iterations": 50, "episode_count": 40, "finetune_steps": 0,
         "synth": {**README_CONFIG["synth"], "num_classes": 40, "unseen_classes": 30,
                   "samples_per_mode": 110, "test_fraction": 0.2}},
        setup=["synth-data", "train", "gen-episodes"],
        timed=["eval-classify", "export-embeddings", "eval-episodes"],
        item_commands=["eval-classify", "eval-episodes"], item_name="queries_per_s"),
}

# where each command writes, inside one set-up or repetition directory
OUT_DIR = {"synth-data": "data", "train": "model", "gen-episodes": "episodes",
           "eval-classify": "classify", "export-embeddings": "embeddings",
           "eval-episodes": "report"}


def command_args(command: str, config: Path, inputs: Path, episode_seed: int | None,
                 shots: str = SHOTS, episodes: Path | None = None) -> list[str]:
    """Arguments of one command reading the inputs under `inputs`; the
    episode file may live elsewhere."""
    episodes = episodes or inputs / "episodes"
    args = [command, "--config", str(config)]
    if command == "gen-episodes" and episode_seed is not None:
        args += ["--seed", str(episode_seed)]
    if command != "synth-data":
        args += ["--data", str(inputs / "data" / "dataset.jsonl")]
    if command in ("eval-classify", "export-embeddings", "eval-episodes"):
        args += ["--checkpoint", str(inputs / "model" / "checkpoint.json")]
    if command == "eval-episodes":
        args += ["--episodes", str(episodes / "episodes.jsonl"), "--shots", shots]
    return args


# ---------------------------------------------------------------------------
# output checks: each returns the number of work items the command completed


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(value: str, what: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise CheckFailed(f"{what} is not finite: {value}")
    return x


def _dataset_records(inputs: Path) -> int:
    with open(inputs / "data" / "dataset.jsonl", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1  # minus the header line


def _episode_queries(inputs: Path) -> list[int]:
    with open(inputs / "episodes" / "episodes.jsonl", encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return [len(ep["query_item_ids"]) for ep in lines[1:]]


def check_train(out: Path, config: dict, inputs: Path) -> int:
    losses = [_finite(r["total"], "loss") for r in _read_csv(out / "loss_trace.csv")]
    if len(losses) != config["iterations"]:
        raise CheckFailed(f"loss trace has {len(losses)} rows, expected {config['iterations']}")
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"last loss {losses[-1]} is not below first loss {losses[0]}")
    doc = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
    if doc.get("kind") != "checkpoint":
        raise CheckFailed("checkpoint.json is not a checkpoint")
    return config["iterations"] * config["classes_per_batch"] * config["instances_per_class"]


def check_classify(out: Path, config: dict, inputs: Path) -> int:
    rows = _read_csv(out / "classification.csv")
    if sorted(r["split"] for r in rows) != ["test", "train"]:
        raise CheckFailed(f"classification splits {[r['split'] for r in rows]}")
    for r in rows:
        err = _finite(r["error"], f"{r['split']} error")
        if err > CLASSIFY_ERROR_CEILING:
            raise CheckFailed(f"{r['split']} error {err} above {CLASSIFY_ERROR_CEILING}")
    return sum(int(r["count"]) for r in rows)


def check_export(out: Path, config: dict, inputs: Path) -> int:
    rows = _read_csv(out / "embeddings.csv")
    expected = _dataset_records(inputs)
    if len(rows) != expected:
        raise CheckFailed(f"export has {len(rows)} rows for {expected} records")
    return len(rows)


def _episode_rows(out: Path, shots: list[int], variants: list[int]) -> dict:
    rows = _read_csv(out / "episode_report.csv")
    got = [(int(r["shots"]), int(r["finetune_steps"])) for r in rows]
    if got != [(s, v) for s in shots for v in variants]:
        raise CheckFailed(f"report rows (shots, finetune_steps) {got}")
    for r in rows:
        for key in ("map", "accuracy", "background_false_accept"):
            _finite(r[key], key)
    return {pair: r for pair, r in zip(got, rows)}


def check_episodes(out: Path, config: dict, inputs: Path) -> int:
    """Episode passes for a fine-tuning config, else queries scored."""
    shots = [int(s) for s in SHOTS.split(",")]
    variants = sorted({0, config.get("finetune_steps", 50)})
    rows = _episode_rows(out, shots, variants)
    if len(variants) == 1:
        return sum(_episode_queries(inputs)) * len(shots)
    acc = float(rows[(1, 0)]["accuracy"])
    acc_ft = float(rows[(1, variants[1])]["accuracy"])
    if acc_ft < acc - FINETUNE_ACCURACY_SLACK - 1e-12:
        raise CheckFailed(f"fine-tuned 1-shot accuracy {acc_ft} below {acc} - {FINETUNE_ACCURACY_SLACK}")
    return len(_episode_queries(inputs)) * len(shots) * len(variants)


def check_criterion_4(out: Path, config: dict, inputs: Path) -> int:
    row = _episode_rows(out, [1], [0])[(1, 0)]
    acc, false_accept = float(row["accuracy"]), float(row["background_false_accept"])
    if acc < ACCURACY_FLOOR:
        raise CheckFailed(f"1-shot accuracy {acc} below {ACCURACY_FLOOR}")
    if false_accept > FALSE_ACCEPT_CEILING:
        raise CheckFailed(f"1-shot background false-accept {false_accept} above {FALSE_ACCEPT_CEILING}")
    return 0


CHECKS = {"train": check_train, "eval-classify": check_classify,
          "export-embeddings": check_export, "eval-episodes": check_episodes}


def differing_files(a: Path, b: Path) -> list[str]:
    """Names of the files that differ between two output directories."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [n for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and (a / n).read_bytes() == (b / n).read_bytes())]


# ---------------------------------------------------------------------------
# running commands


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MIXREP_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _limit_cpu() -> None:
    resource.setrlimit(resource.RLIMIT_CPU, (COMMAND_CPU_LIMIT_S, COMMAND_CPU_LIMIT_S))


def run_process(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one process to its end: (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT, preexec_fn=_limit_cpu)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class CommandRun:
    command: str
    wall_s: float
    rss_mb: float
    items: int = 0
    error: str | None = None


def run_command(args: list[str], base: Path, spans: Path | None, run_id: str) -> CommandRun:
    """One mixrep command, plain or under the tracer; logs to base/<command>.log."""
    command = args[0]
    if spans is None:
        argv = [sys.executable, "-c", LAUNCH, *args]
    else:
        argv = [sys.executable, str(TRACER), str(spans), run_id, *args]
    log = base / f"{command}.log"
    code, wall, rss = run_process(argv, base, log)
    run = CommandRun(command, wall, rss)
    if code != 0:
        last = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        run.error = f"exit {code}: {' '.join(last)}"
    return run


def check_outputs(run: CommandRun, check, out: Path, config: dict, inputs: Path,
                  reference: Path | None) -> None:
    """Run the output check and compare with the reference outputs, if any;
    a failure becomes the run's error."""
    if run.error:
        return
    try:
        if check is not None:
            run.items = check(out, config, inputs)
        if reference is not None:
            differ = differing_files(reference, out)
            if differ:
                raise CheckFailed(f"outputs differ from the first run: {differ}")
    except (CheckFailed, OSError, ValueError, KeyError) as e:
        run.error = f"output check: {e}"


# ---------------------------------------------------------------------------
# per-layer metrics from spans

# Per-layer metrics describe one traced repetition of the timed sequence,
# except for these layers, which set-up also enters and whose time moves
# setup_s: their metrics add the traced set-up's spans.
SETUP_LAYERS = ("data.synth_dataset", "data.save_dataset", "head.save_checkpoint")
TIMED_COMMANDS = [c for c in OUT_DIR if any(c in w.timed for w in WORKLOADS.values())]
# name -> (unit, better); the per_layer list of BENCHMARK.json
PER_LAYER = {
    "autodiff.backward.s": ("s", "lower"),
    "autodiff.backward.calls": ("count", "lower"),
    "autodiff.graph_nodes_per_loss": ("count", "lower"),
    "head.total_loss.s": ("s", "lower"),
    "head.total_loss.calls": ("count", "lower"),
    "head.total_loss.rows": ("count", "higher"),
    "head.score.s": ("s", "lower"),
    "head.score.calls": ("count", "lower"),
    "head.embed_batch.s": ("s", "lower"),
    "head.embed_batch.rows": ("count", "higher"),
    "head.load_checkpoint.s": ("s", "lower"),
    "head.save_checkpoint.s": ("s", "lower"),
    "training.fit.s": ("s", "lower"),
    "training.train_step.self_s": ("s", "lower"),
    "training.sample_batch.s": ("s", "lower"),
    "training.optimizer_step.s": ("s", "lower"),
    "data.load_dataset.s": ("s", "lower"),
    "data.load_dataset.records": ("count", "higher"),
    "data.synth_dataset.s": ("s", "lower"),
    "data.save_dataset.s": ("s", "lower"),
    "episodes.run_episode.s": ("s", "lower"),
    "episodes.run_episode.calls": ("count", "higher"),
    "episodes.episode_finetune.s": ("s", "lower"),
    "episodes.episode_finetune.steps": ("count", "lower"),
    "episodes.finetune_kept_ratio": ("ratio", "higher"),
    "episodes.score_queries.s": ("s", "lower"),
    "episodes.score_queries.queries": ("count", "higher"),
    "episodes.support_embeddings.s": ("s", "lower"),
    "episodes.replace_representatives.s": ("s", "lower"),
    "episodes.generate_episodes.s": ("s", "lower"),
    "episodes.load_episodes.s": ("s", "lower"),
    "metrics.map_over_episodes.s": ("s", "lower"),
    "metrics.recall_at_k.s": ("s", "lower"),
    "metrics.match_detections.calls": ("count", "lower"),
    "metrics.detections": ("count", "higher"),
    "metrics.classification_error.s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.{c}.self_s": ("s", "lower") for c in TIMED_COMMANDS},
    "trace.overhead_s": ("s", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
}


def load_spans(paths: list[Path]) -> list[dict]:
    spans = []
    for path in paths:
        spans.extend(json.loads(path.read_text(encoding="utf-8"))["spans"])
    return spans


def span_totals(spans: list[dict]) -> dict:
    """Per span name: inclusive seconds "s", "self_s", "calls", and the sum of
    each count recorded on the spans. The tracer's own "trace.*" spans are
    left out of every other span's time."""
    by_id = {(s["run"], s["id"]): s for s in spans}
    child_time: dict[tuple, float] = {}
    tracer_time: dict[tuple, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        if s["parent"] is not None:
            key = (s["run"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + dur
        if s["name"].startswith("trace."):
            parent = s["parent"]
            while parent is not None:
                tracer_time[(s["run"], parent)] = tracer_time.get((s["run"], parent), 0.0) + dur
                parent = by_id[(s["run"], parent)]["parent"]
    totals: dict[str, dict] = {}
    for s in spans:
        t = totals.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        key = (s["run"], s["id"])
        dur = s["end"] - s["start"]
        t["s"] += dur - tracer_time.get(key, 0.0)
        t["self_s"] += dur - child_time.get(key, 0.0)
        t["calls"] += 1
        for k, v in s.get("counts", {}).items():
            t[k] = t.get(k, 0) + v
    return totals


def layer_metrics(spans: list[dict], setup_spans: list[dict]) -> dict:
    """Every span-derived per-layer metric; a layer the workload never
    entered reads 0."""
    totals = span_totals(spans)
    setup_totals = span_totals(setup_spans)

    def total(name, key):
        value = totals.get(name, {}).get(key, 0)
        if name in SETUP_LAYERS:
            value += setup_totals.get(name, {}).get(key, 0)
        return value

    m = {metric: total(*metric.rsplit(".", 1)) for metric in PER_LAYER}
    nodes = [s["counts"]["nodes"] for s in spans if s["name"] == "head.total_loss"]
    m["autodiff.graph_nodes_per_loss"] = statistics.median(nodes) if nodes else 0
    steps = total("episodes.episode_finetune", "steps")
    m["episodes.finetune_kept_ratio"] = (
        total("episodes.episode_finetune", "kept") / steps if steps else 0.0)
    m["metrics.detections"] = total("metrics.map_over_episodes", "detections")
    return m


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the run


class SetupFailed(Exception):
    pass


class Bench:
    def __init__(self, workload: Workload, seed: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.config = {**workload.config, "seed": workload.data_seed or seed}
        self.config_path = self.dir / "run.json"
        self.episode_seed = seed if workload.data_seed else None
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[dict] = []

    def _run(self, args: list[str], base: Path, inputs: Path, check=None,
             reference: Path | None = None, traced: bool = False) -> CommandRun:
        """Run, check and count one command invocation writing to base."""
        command = args[0]
        out = base / OUT_DIR[command]
        spans = base / f"spans-{command}.json" if traced else None
        run = run_command(args + ["--out", str(out)], base, spans,
                          f"{self.w.name}-seed{self.seed}-{base.name}")
        check_outputs(run, check, out, self.config, inputs,
                      reference / OUT_DIR[command] if reference else None)
        self.attempted += 1
        if run.error:
            self.failures.append(f"{base.name} {run.command}: {run.error}")
        return run

    def setup(self, base: Path, reference: Path | None, traced: bool = False) -> float:
        """Make the workload's inputs in base; returns the seconds taken."""
        base.mkdir()
        start = time.perf_counter()
        for command in self.w.setup:
            args = command_args(command, self.config_path, base, self.episode_seed)
            run = self._run(args, base, base, reference=reference, traced=traced)
            if run.error and reference is None:
                raise SetupFailed(f"{command}: {run.error}")
        return time.perf_counter() - start

    def repetition(self, index: int, inputs: Path, traced: bool) -> dict:
        base = self.dir / f"rep-{index}"
        base.mkdir()
        reference = self.dir / "rep-0" if index else None
        runs = [self._run(command_args(command, self.config_path, inputs, self.episode_seed),
                          base, inputs, CHECKS.get(command), reference, traced)
                for command in self.w.timed]
        item_runs = [r for r in runs if r.command in self.w.item_commands]
        rep = {
            "traced": traced,
            "wall_s": sum(r.wall_s for r in runs),
            "peak_rss_mb": max(r.rss_mb for r in runs),
            "items": sum(r.items for r in item_runs),
            "items_per_s": sum(r.items for r in item_runs) / sum(r.wall_s for r in item_runs),
            "commands": {r.command: {"wall_s": r.wall_s, "rss_mb": r.rss_mb, "items": r.items,
                                     "error": r.error} for r in runs},
        }
        if index:
            # the first repetition stays as the byte-identity reference
            for command in self.w.timed:
                shutil.rmtree(base / OUT_DIR[command], ignore_errors=True)
        return rep

    def validate(self, inputs: Path) -> None:
        """The workload's criterion-sized check, once per run, untimed."""
        base = self.dir / "validate"
        base.mkdir()
        config = base / "check.json"
        config.write_text(json.dumps({**self.config, **self.w.validation}, indent=2) + "\n",
                          encoding="utf-8")
        self._run(command_args("gen-episodes", config, inputs, self.episode_seed), base, inputs)
        self._run(command_args("eval-episodes", config, inputs, None, shots="1",
                               episodes=base / "episodes"), base, inputs, check_criterion_4)

    def import_seconds(self) -> list[float]:
        times = []
        for _ in range(IMPORT_REPEATS):
            code, wall, _ = run_process([sys.executable, "-c", "import mixrep"], self.dir,
                                        self.dir / "import.log")
            if code != 0:
                raise SetupFailed("import mixrep failed")
            times.append(wall)
        return times

    def run(self, seconds: float) -> dict:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
        inputs = self.dir / "setup-0"
        setup_s = [self.setup(inputs, None)]
        if self.trace:
            self.setup(self.dir / "setup-traced", inputs, traced=True)
        else:
            for i in range(1, SETUP_REPEATS):
                setup_s.append(self.setup(self.dir / f"setup-{i}", inputs))
        import_s = self.import_seconds() if self.trace else []

        reps = []
        deadline = time.perf_counter() + seconds
        while not reps or time.perf_counter() < deadline or (self.trace and len(reps) < 2):
            traced = self.trace and len(reps) % 2 == 1
            reps.append(self.repetition(len(reps), inputs, traced))
        if self.w.validation:
            self.validate(inputs)

        plain = [r for r in reps if not r["traced"]]
        result = {
            "workload": self.w.name, "seed": self.seed, "trace": self.trace,
            "seconds": seconds, "config": self.config, "environment": environment(self.seed),
            "setup_s": setup_s, "import_s": import_s, "repetitions": reps,
            "attempted": self.attempted, "failures": self.failures,
            "end_to_end": {
                "setup_s": statistics.median(setup_s),
                "wall_s": statistics.median(r["wall_s"] for r in plain),
                "items_per_s": statistics.median(r["items_per_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            },
            "by_command": {
                "failed_ops_ratio": (len(self.failures) / self.attempted,
                                     f"of {self.attempted} commands"),
                self.w.item_name: (statistics.median(r["items_per_s"] for r in plain), "1/s"),
                **{f"{c.replace('-', '_')}_s": (
                    statistics.median(r["commands"][c]["wall_s"] for r in plain), "s")
                   for c in self.w.timed},
            },
        }
        if self.trace:
            result["per_layer"], self.spans = self.per_layer(reps, import_s)
        return result

    def per_layer(self, reps: list[dict], import_s: list[float]) -> tuple[dict, list]:
        """Median per-layer metrics over the traced repetitions, each joined
        with the traced set-up, and all spans recorded."""
        setup = load_spans(sorted((self.dir / "setup-traced").glob("spans-*.json")))
        import_median = statistics.median(import_s)
        per_rep, all_spans = [], list(setup)
        for i, rep in enumerate(reps):
            if not rep["traced"]:
                continue
            spans = load_spans(sorted((self.dir / f"rep-{i}").glob("spans-*.json")))
            all_spans += spans
            m = layer_metrics(spans, setup)
            self_total = sum(t["self_s"] for t in span_totals(spans).values())
            m["trace.unaccounted_s"] = rep["wall_s"] - self_total - len(self.w.timed) * import_median
            per_rep.append(m)
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics["cli.import_s"] = import_median
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in reps if r["traced"])
            - statistics.median(r["wall_s"] for r in reps if not r["traced"]))
        return {k: metrics[k] for k in PER_LAYER}, all_spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so the running command is
    # killed and waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "mixrep" / "cli.py").is_file():
        print(f"error: no mixrep sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        result = bench.run(args.seconds)
    except SetupFailed as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans_out = out.with_name(out.stem + "-spans.json")
        spans_out.write_text(json.dumps({"spans": bench.spans}) + "\n", encoding="utf-8")

    env = result["environment"]
    print(f"mixrep benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(result['repetitions'])} repetitions in {args.seconds:g} s; "
          f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"commit {env['git_commit']}")
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name, value in result["end_to_end"].items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    for name, (value, unit) in result["by_command"].items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        for name, value in result["per_layer"].items():
            print(f"{name} = {value:.6g} {PER_LAYER[name][0]}")
    print(f"result written to {out.relative_to(ROOT)}")

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["end_to_end"].items()}
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    if bench.failures:
        return 1
    shutil.rmtree(bench.dir)  # inputs and outputs; kept only when a check failed
    return 0


if __name__ == "__main__":
    sys.exit(main())
