"""Command-line workflows: synth-data, train, eval-classify, gen-episodes,
eval-episodes, grad-check, export-embeddings.

Every command accepts --config/--seed/--out, writes a resolved-config.json
alongside its outputs, and exits nonzero with a one-line cause on bad input;
`main` does this once for every command, as registered in COMMANDS.
Outputs carry no timestamps, so a rerun from the same seed and config is
byte-identical. MIXREP_OUT_DIR, when set, anchors relative --out paths."""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import finite_difference_check
from .config import (RunConfig, check_at_least, check_distinct, load_run_config, write_json,
                     write_resolved_config)
from .data import load_dataset, naming_records, save_dataset, synth_dataset, write_csv
from .episodes import evaluate_episodes, generate_passes, load_episodes, save_episodes
from .errors import ConfigError, MixrepError
from .head import MixtureHead, load_checkpoint, save_checkpoint
from .metrics import classification_error, map_over_episodes, recall_at_k
from .rng import substream
from .training import class_index_map, fit, head_class_map, write_loss_trace

GRAD_CHECK_TOLERANCE = 1e-4


class _OutDir:
    """The files one command writes. Each is written under a temporary name
    in the output directory and moved into place by `commit` after the
    command returns, so a failed run changes no earlier output."""

    def __init__(self, path):
        self.dir = Path(path)
        self.made = False  # whether this run created the directory
        self.pending: list[tuple[Path, Path]] = []

    def file(self, name) -> Path:
        if not self.dir.is_dir():
            self.dir.mkdir(parents=True)
            self.made = True
        temp = self.dir / f".{name}.{os.getpid()}.tmp"
        self.pending.append((temp, self.dir / name))
        return temp

    def commit(self) -> None:
        for temp, final in self.pending:
            os.replace(temp, final)

    def discard(self) -> None:
        """Remove this run's temporary files, and the directory if this run
        created it and it is empty."""
        for temp, _ in self.pending:
            temp.unlink(missing_ok=True)
        if self.made:
            try:
                self.dir.rmdir()
            except OSError:
                pass


def _out_dir(raw: str | None) -> _OutDir | None:
    """--out, under MIXREP_OUT_DIR when that is set and --out is relative."""
    base = os.environ.get("MIXREP_OUT_DIR")
    if raw is None and not base:
        return None
    return _OutDir(Path(base or "") / (raw or ""))


def _head_and_data(args, config: RunConfig):
    """The head and the dataset in --data: the head in --checkpoint, refused
    unless as wide as the dataset, or for `train` one the config builds for it."""
    if "checkpoint" not in args.inputs:
        dataset = load_dataset(args.data)
        return _build_head(config, dataset), dataset
    head, dataset = load_checkpoint(args.checkpoint), load_dataset(args.data)
    width = head.embedding.config.input_dim
    if dataset.feature_dim != width:
        raise ConfigError(f"dataset {args.data} has {dataset.feature_dim} features per record, "
                          f"but checkpoint {args.checkpoint} takes {width}")
    return head, dataset


def _build_head(config: RunConfig, dataset) -> MixtureHead:
    num_classes = len(class_index_map(dataset))
    if num_classes < 1:
        raise ConfigError("dataset has no trainable classes")
    return MixtureHead(
        config.embedding_config(dataset.feature_dim),
        config.mixture_config(num_classes),
        task_mode=config.task_mode,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_synth_data(args, config, out):
    if config.synth is None:
        raise ConfigError("synth-data needs a 'synth' section in the config")
    dataset = synth_dataset(config.synth, seed=config.seed)
    save_dataset(dataset, out.file("dataset.jsonl"))
    background = dataset.is_background
    print(f"wrote {len(dataset)} records ({len(set(dataset.label[~background].tolist()))} classes, "
          f"{np.count_nonzero(background)} background) to {out.dir}")
    return 0


def cmd_train(args, config, out):
    head, dataset = _head_and_data(args, config)
    trace = fit(head, dataset, config)
    save_checkpoint(head, out.file("checkpoint.json"))
    write_loss_trace(trace, out.file("loss_trace.csv"))
    first, last = trace[0]["total"], trace[-1]["total"]
    print(f"trained {config.iterations} iterations: loss {first:.4f} -> {last:.4f}")
    print(f"checkpoint and loss trace in {out.dir}")
    return 0


def cmd_eval_classify(args, config, out):
    head, dataset = _head_and_data(args, config)
    cmap = head_class_map(head, dataset)
    seen = np.isin(dataset.label, list(cmap))
    splits = [("train", np.flatnonzero(seen & dataset.train_split)),
              ("test", np.flatnonzero(seen & (dataset.split == "test")))]
    if args.config:  # without one, the checkpoint's own posterior rule applies
        head.mixture = dataclasses.replace(head.mixture, posterior_mode=config.posterior_mode)
    rows = []
    for name, split_rows in splits:
        if not len(split_rows):
            continue
        with naming_records(dataset, split_rows):
            err = classification_error(head, dataset[split_rows], cmap)
        rows.append(((name, len(split_rows)), (err,)))
        print(f"{name}: {err * 100:.2f}% error over {len(split_rows)} records")
    if out is not None:
        write_csv(out.file("classification.csv"), ["split", "count", "error"], rows)
    return 0


def cmd_gen_episodes(args, config, out):
    dataset = load_dataset(args.data)
    spec = config.episode_spec()
    # the support of every count, so that evaluation draws nothing
    passes = generate_passes(dataset, spec, range(1, spec.max_shots + 1))
    save_episodes(passes, spec, out.file("episodes.jsonl"))
    print(f"wrote {len(passes[spec.shots])} episodes ({spec.ways}-way {spec.shots}-shot, "
          f"{spec.queries_per_class} queries/class) to {out.dir}")
    return 0


def cmd_eval_episodes(args, config, out):
    shot_counts = []  # none given: the episode file's own count
    if args.shots is not None:  # checked before any input is read
        try:
            shot_counts = [int(s) for s in args.shots.split(",")]
        except ValueError:
            raise ConfigError(f"bad --shots list {args.shots!r}") from None
        for shots in shot_counts:
            check_at_least("--shots count", shots, 1)
        check_distinct("--shots count", shot_counts, args.shots)
    head, dataset = _head_and_data(args, config)
    # each count's support as the episode file stores it
    passes, _ = load_episodes(args.episodes, dataset, shot_counts or None)

    rows = []
    for shots, episodes in passes.items():
        for steps in dict.fromkeys((0, config.finetune_steps)):
            result = evaluate_episodes(head, episodes, steps, config.finetune_lr)
            mean_ap = map_over_episodes(result.detections, result.truth, config.match_iou)
            recalls = [recall_at_k(result.detections, result.truth, k, config.match_iou)
                       for k in config.recall_ks]
            false_accept = "" if result.false_accept is None else result.false_accept
            rows.append(((shots, steps), (mean_ap, *recalls, result.accuracy, false_accept)))
            recall_text = "  ".join(f"R@{k} {r:.3f}" for k, r in zip(config.recall_ks, recalls))
            bg_part = (f"  bg-accept {result.false_accept:.3f}"
                       if result.false_accept is not None else "")
            print(f"shots={shots} finetune={steps}: mAP {mean_ap:.3f}  {recall_text}"
                  f"  acc {result.accuracy:.3f}{bg_part}")
            del result  # free this pass's table before the next pass runs

    write_csv(out.file("episode_report.csv"),
              ["shots", "finetune_steps", "map", *(f"recall_at_{k}" for k in config.recall_ks),
               "accuracy", "background_false_accept"], rows)
    print(f"report in {out.dir}")
    return 0


def cmd_grad_check(args, config, out):
    # fixed desk-scale shape: 4 classes x 2 modes, 8-dim embedding, batch 8
    head = MixtureHead(
        dataclasses.replace(config.embedding_config(8), layer_widths=(12, 8)),
        dataclasses.replace(config.mixture_config(4), modes_per_class=2),
        task_mode=config.task_mode,
        seed=config.seed,
    )
    rng = substream(config.seed, "gradcheck", "inputs")
    X = rng.normal(size=(8, 8))
    labels = [0, 1, 2, 3, 0, 1, 2, -1 if config.task_mode == "detection" else 3]
    params = head.parameters()
    max_err = float(finite_difference_check(
        lambda _params: head.total_loss(X, labels, train=True)[0], params
    ))
    passed = max_err <= GRAD_CHECK_TOLERANCE
    print(f"max relative gradient error: {max_err:.3e} "
          f"({'OK' if passed else 'FAIL'}, tolerance {GRAD_CHECK_TOLERANCE:.0e})")
    if out is not None:
        write_json(out.file("grad_check.json"),
                   {"max_rel_err": max_err, "tolerance": GRAD_CHECK_TOLERANCE, "passed": passed})
    return 0 if passed else 1


def cmd_export_embeddings(args, config, out):
    head, dataset = _head_and_data(args, config)
    dim = head.embedding.config.output_dim
    with naming_records(dataset, range(len(dataset))):
        emb = head.embedding.embed_batch(dataset.features)
    write_csv(out.file("embeddings.csv"), ["id", "label"] + [f"e{i}" for i in range(dim)],
              zip(zip(dataset.id, dataset.label), map(np.ndarray.tolist, emb)))
    print(f"wrote {len(dataset)} embedding rows to {out.dir / 'embeddings.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser


# the input files a command may read, in the order they are checked, with
# their help text
INPUTS = {"checkpoint": "checkpoint JSON path", "episodes": "episode JSONL path",
          "data": "dataset JSONL path"}

# name: (function, help, inputs it reads, whether it must write)
COMMANDS = {
    "synth-data": (cmd_synth_data, "generate a synthetic dataset", (), True),
    "train": (cmd_train, "train a head on a dataset", ("data",), True),
    "eval-classify": (cmd_eval_classify, "closed-set error of a checkpoint",
                      ("checkpoint", "data"), False),
    "gen-episodes": (cmd_gen_episodes, "sample an episode benchmark file", ("data",), True),
    "eval-episodes": (cmd_eval_episodes, "run the episodic benchmark",
                      ("checkpoint", "episodes", "data"), True),
    "grad-check": (cmd_grad_check, "finite-difference check of the loss gradient", (), False),
    "export-embeddings": (cmd_export_embeddings, "embed a dataset to CSV",
                          ("checkpoint", "data"), True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixrep",
        description="Distance-based classification with per-class mixture "
                    "representatives: training, episodic evaluation, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, inputs, writes) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="run config JSON path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        for flag in inputs:
            p.add_argument(f"--{flag}", help=INPUTS[flag])
        if name == "eval-episodes":
            p.add_argument("--shots", help="comma-separated shot counts, e.g. 1,5,10")
        p.set_defaults(func=func, inputs=inputs, writes=writes)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _out_dir(args.out)
    try:
        config = load_run_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.writes and out is None:
            raise ConfigError("this command writes files: pass --out (or set MIXREP_OUT_DIR)")
        for flag in INPUTS:
            if flag in args.inputs and not getattr(args, flag):
                raise ConfigError(f"missing --{flag} ({INPUTS[flag]})")
        code = args.func(args, config, out)
        if out is not None:
            write_resolved_config(config, out.file("resolved-config.json"))
            out.commit()
    except BaseException as e:
        if out is not None:
            out.discard()
        if not isinstance(e, (MixrepError, OSError)):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, MixrepError) else 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
