import base64
import csv
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixrep import cli
from mixrep.config import EmbeddingConfig, MixtureConfig, RunConfig, load_run_config
from mixrep.data import Dataset, load_dataset, save_dataset
from mixrep.episodes import evaluate_episodes, load_episodes
from mixrep.errors import ConfigError, DatasetError
from mixrep.head import MixtureHead, load_checkpoint, save_checkpoint
from mixrep.metrics import classification_error
from mixrep.training import class_index_map, fit

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    """The benchmark's span tracer, loaded read-only (no bytecode is cached
    next to it)."""
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


TRACED = _load_tracer().TARGETS

RUN = {
    "task_mode": "detection",
    "seed": 30,
    "layer_widths": [32, 16],
    "modes_per_class": 2,
    "iterations": 60,
    "lr": 0.01,
    "classes_per_batch": 5,
    "instances_per_class": 4,
    "shots": 1,
    "ways": 3,
    "queries_per_class": 6,
    "episode_count": 3,
    "background_queries": 6,
    "finetune_steps": 5,
    "synth": {
        "num_classes": 10,
        "modes_per_class": 1,
        "samples_per_mode": 16,
        "input_dim": 12,
        "spread": 0.05,
        "unseen_classes": 5,
        "background_fraction": 0.2,
        "test_fraction": 0.25,
    },
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One trained pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.json"
    config.write_text(json.dumps(RUN), encoding="utf-8")
    paths = {
        "root": root,
        "config": config,
        "data": root / "data" / "dataset.jsonl",
        "checkpoint": root / "model" / "checkpoint.json",
        "episodes": root / "eps" / "episodes.jsonl",
    }
    assert cli.main(["synth-data", "--config", str(config),
                     "--out", str(root / "data")]) == 0
    assert cli.main(["train", "--config", str(config), "--data", str(paths["data"]),
                     "--out", str(root / "model")]) == 0
    assert cli.main(["gen-episodes", "--config", str(config), "--data", str(paths["data"]),
                     "--out", str(root / "eps")]) == 0
    return paths


class TestSynthData:
    def test_outputs(self, pipeline):
        data_dir = pipeline["data"].parent
        assert (data_dir / "resolved-config.json").exists()
        lines = pipeline["data"].read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["schema_version"] == 1
        # 10 classes x 16 samples plus background clutter
        assert len(lines) - 1 > 160

    def test_missing_out_is_a_config_error(self, pipeline, capsys, monkeypatch):
        monkeypatch.delenv("MIXREP_OUT_DIR", raising=False)
        assert cli.main(["synth-data", "--config", str(pipeline["config"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_synth_section(self, pipeline, tmp_path, capsys):
        assert cli.main(["synth-data", "--out", str(tmp_path / "x")]) == 2
        assert "synth" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"warp_factor": 9}', encoding="utf-8")
        out = tmp_path / "never"
        assert cli.main(["synth-data", "--config", str(bad), "--out", str(out)]) == 2
        assert "warp_factor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("sigma", -1), ("shots", 20), ("layer_widths", [0]),
                                            ("posterior_mode", "soft")])
    def test_bad_head_or_episode_value_is_refused_at_load(self, tmp_path, capsys, key, value):
        # synth-data builds no head and no episodes, yet refuses the config
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**RUN, key: value}), encoding="utf-8")
        out = tmp_path / "never"
        assert cli.main(["synth-data", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err
        assert not out.exists()

    def test_class_count_does_not_import_numpy_ma(self, tmp_path):
        # a plain np.unique imports numpy.ma, 11-19 ms of every synth-data run
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 30, "synth": {
            "num_classes": 15, "modes_per_class": 1, "samples_per_mode": 4, "input_dim": 4,
            "unseen_classes": 10, "background_fraction": 0.15}}), encoding="utf-8")
        script = ("import sys\nfrom mixrep import cli\n"
                  f"code = cli.main(['synth-data', '--config', {str(config)!r}, "
                  f"'--out', {str(tmp_path / 'data')!r}])\n"
                  "print(code, 'numpy.ma' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        summary, result = run.stdout.splitlines()
        assert "(15 classes, " in summary
        assert result == "0 False"


class TestTrain:
    def test_outputs(self, pipeline):
        model_dir = pipeline["checkpoint"].parent
        assert (model_dir / "loss_trace.csv").exists()
        assert (model_dir / "resolved-config.json").exists()

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "again"
        assert cli.main(["train", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]), "--out", str(out)]) == 0
        for name in ("checkpoint.json", "loss_trace.csv", "resolved-config.json"):
            assert (out / name).read_bytes() == \
                (pipeline["checkpoint"].parent / name).read_bytes()

    def test_missing_data(self, pipeline, tmp_path, capsys):
        assert cli.main(["train", "--config", str(pipeline["config"]),
                         "--out", str(tmp_path / "x")]) == 2
        assert "--data" in capsys.readouterr().err

    def test_seed_override_lands_in_resolved_config(self, pipeline, tmp_path):
        out = tmp_path / "seeded"
        assert cli.main(["train", "--config", str(pipeline["config"]), "--seed", "99",
                         "--data", str(pipeline["data"]), "--out", str(out)]) == 0
        doc = json.loads((out / "resolved-config.json").read_text(encoding="utf-8"))
        assert doc["seed"] == 99

    def test_layer_widths_as_text_is_refused(self, pipeline, tmp_path, capsys):
        # "64" trained a (6, 4) network
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN, "layer_widths": "64"}), encoding="utf-8")
        out = tmp_path / "model"
        assert cli.main(["train", "--config", str(config), "--data", str(pipeline["data"]),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: layer_widths must be an array of integers or null, got '64'\n"
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"layer_widths": [2**62, 4]},
         "cannot allocate parameter layers.0.weight of shape (12, 4611686018427387904): "),
    ], ids=["width_too_big_for_an_array"])
    def test_head_numpy_cannot_allocate_is_refused(self, pipeline, tmp_path, capsys, change,
                                                   message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN, **change}), encoding="utf-8")
        out = tmp_path / "model"
        assert cli.main(["train", "--config", str(config), "--data", str(pipeline["data"]),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_infinite_sigma_is_refused(self, pipeline, tmp_path, capsys):
        # it trained, wrote "sigma": Infinity to the checkpoint, and
        # eval-classify reported 80% error with exit 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN, "sigma": float("inf")}), encoding="utf-8")
        out = tmp_path / "model"
        assert cli.main(["train", "--config", str(config), "--data", str(pipeline["data"]),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: sigma must be a finite number, got inf\n"
        assert not out.exists()

    # the input files each command reads besides its config
    INPUTS = {"train": ["data"], "eval-classify": ["data", "checkpoint"],
              "gen-episodes": ["data"], "eval-episodes": ["data", "checkpoint", "episodes"],
              "export-embeddings": ["data", "checkpoint"], "grad-check": []}

    @pytest.mark.parametrize("command", INPUTS)
    def test_bad_trainer_value_is_refused_by_every_command(self, pipeline, tmp_path, capsys,
                                                          command):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN, "iterations": 0}), encoding="utf-8")
        out = tmp_path / "out"
        args = [command, "--config", str(config), "--out", str(out)]
        for name in self.INPUTS[command]:
            args += [f"--{name}", str(pipeline[name])]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == "error: iterations must be >= 1, got 0\n"
        assert not out.exists()


class TestGenEpisodes:
    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out = tmp_path / "eps2"
        assert cli.main(["gen-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]), "--out", str(out)]) == 0
        assert (out / "episodes.jsonl").read_bytes() == pipeline["episodes"].read_bytes()

    def test_episode_count(self, pipeline):
        lines = pipeline["episodes"].read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + RUN["episode_count"]

    def test_file_stores_the_support_of_every_count(self, pipeline):
        header, *episodes = map(json.loads, pipeline["episodes"].read_text(
            encoding="utf-8").splitlines())
        assert header["schema_version"] == 2
        max_shots = header["spec"]["max_shots"]
        for episode in episodes:
            supports = episode["support_item_ids"]
            assert list(supports) == [str(shots) for shots in range(1, max_shots + 1)]
            assert all(len(ids) == RUN["ways"] * int(shots) for shots, ids in supports.items())

    def test_version_1_file_is_refused_in_one_line(self, pipeline, tmp_path, capsys):
        # the file as version 1 wrote it, with the support of its own count only
        header, *lines = map(json.loads, pipeline["episodes"].read_text(
            encoding="utf-8").splitlines())
        header["schema_version"] = 1
        for obj in lines:
            obj["support_item_ids"] = obj["support_item_ids"][str(header["spec"]["shots"])]
        episodes = tmp_path / "episodes.jsonl"
        episodes.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *lines]),
                            encoding="utf-8")
        out = tmp_path / "report"
        assert cli.main(["eval-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(episodes), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: line 1: unsupported schema_version 1; "
                                           "regenerate the episode file with gen-episodes\n")
        assert not out.exists()

    def test_cleanup_after_late_failure(self, pipeline, tmp_path, monkeypatch, capsys):
        def boom(episodes, spec, path):
            path.write_text("partial", encoding="utf-8")
            raise DatasetError("disk full, probably")

        monkeypatch.setattr(cli, "save_episodes", boom)
        out = tmp_path / "doomed"
        assert cli.main(["gen-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]), "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("error", [DatasetError("disk full, probably"), KeyboardInterrupt()],
                             ids=["mixrep-error", "interrupt"])
    def test_failed_rerun_keeps_earlier_outputs(self, pipeline, tmp_path, monkeypatch, error):
        out = tmp_path / "eps"
        args = ["gen-episodes", "--config", str(pipeline["config"]),
                "--data", str(pipeline["data"]), "--out", str(out)]
        assert cli.main(args) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}

        def boom(episodes, spec, path):
            path.write_text("partial", encoding="utf-8")
            raise error

        monkeypatch.setattr(cli, "save_episodes", boom)
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                cli.main(args)
        else:
            assert cli.main(args) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier


class TestEvalClassify:
    def test_reports_train_and_test_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "cls"
        assert cli.main(["eval-classify", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "train:" in shown and "test:" in shown
        with open(out / "classification.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["split"] for r in rows] == ["train", "test"]
        assert all(0.0 <= float(r["error"]) <= 1.0 for r in rows)
        # the trained head should separate this desk-scale data cleanly
        assert float(rows[0]["error"]) <= 0.05

    def test_posterior_rule_is_the_checkpoints_unless_a_config_is_given(self, tmp_path):
        """Embedding is the identity on one feature. Class a has one mode on
        0 and one far away; class b has two modes 0.3 from 0, each of
        likelihood exp(-0.18) > 0.5. So near 0 the best mode says a and the
        mode mass says b, while at 100 both say a and at -0.3 both say b."""
        def head(rule):
            return MixtureHead.from_arrays(
                EmbeddingConfig(1, (1,), final_l2_normalize=False),
                MixtureConfig(2, 2, sigma=0.5, posterior_mode=rule), "classification",
                {"layers.0.weight": [[1.0]], "layers.0.bias": [0.0],
                 "representatives.weight": [[[0.0], [100.0]], [[0.3], [-0.3]]]})

        data = Dataset(["r0", "r1", "r2", "r3"], ["a", "a", "a", "b"],
                       [[0.0], [0.05], [100.0], [-0.3]])
        save_dataset(data, tmp_path / "data.jsonl")
        save_checkpoint(head("max"), tmp_path / "checkpoint.json")
        (tmp_path / "run.json").write_text(json.dumps({"posterior_mode": "normalized"}))
        reported = {}
        for rule, flags in (("max", []), ("normalized", ["--config", str(tmp_path / "run.json")])):
            out = tmp_path / rule
            assert cli.main(["eval-classify", *flags, "--data", str(tmp_path / "data.jsonl"),
                             "--checkpoint", str(tmp_path / "checkpoint.json"),
                             "--out", str(out)]) == 0
            with open(out / "classification.csv", newline="", encoding="utf-8") as fh:
                [row] = csv.DictReader(fh)
            reported[rule] = float(row["error"])
            assert reported[rule] == classification_error(head(rule), data, class_index_map(data))
        assert reported == {"max": 0.0, "normalized": 0.5}

    def test_missing_checkpoint_flag(self, pipeline, capsys):
        assert cli.main(["eval-classify", "--data", str(pipeline["data"])]) == 2
        assert capsys.readouterr().err == "error: missing --checkpoint (checkpoint JSON path)\n"


    @pytest.mark.parametrize("damage", ["truncate", "drop_task_mode", "empty_bn_running",
                                        "nan_representative", "negative_variance",
                                        "unknown_key", "negative_bn_epsilon",
                                        "bn_momentum_not_a_number", "nested_too_deep"])
    def test_bad_checkpoint_is_a_config_error(self, pipeline, tmp_path, capsys, damage):
        text = pipeline["checkpoint"].read_text(encoding="utf-8")
        if damage == "truncate":
            text = text[: len(text) // 2]
        elif damage == "nested_too_deep":
            text = '{"params": ' + "[" * 100_000 + "]" * 100_000 + "}"
        else:
            doc = json.loads(text)
            if damage == "drop_task_mode":
                del doc["task_mode"]
            elif damage == "empty_bn_running":
                doc["bn_running"] = []
            elif damage == "nan_representative":
                _set_first_value(doc["params"]["representatives.weight"], np.nan)
            elif damage == "negative_variance":
                _set_first_value(doc["bn_running"][0]["var"], -1.0)
            elif damage == "negative_bn_epsilon":
                doc["embedding"]["bn_epsilon"] = -10.0
            elif damage == "bn_momentum_not_a_number":
                doc["embedding"]["bn_momentum"] = "fast"
            else:
                doc["comment"] = "not a checkpoint key"
            text = json.dumps(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        assert cli.main(["eval-classify", "--data", str(pipeline["data"]),
                         "--checkpoint", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def _set_first_value(encoded, value):
    """Overwrite the first element of a base64 float64 array in a checkpoint."""
    values = np.frombuffer(base64.b64decode(encoded["data"]), dtype="<f8").copy()
    values[0] = value
    encoded["data"] = base64.b64encode(values.tobytes()).decode("ascii")


def _edit_first_episode(edit):
    """Damage that rewrites the first episode line of an episode file."""
    def damage(raw: bytes) -> bytes:
        lines = raw.decode("utf-8").splitlines()
        lines[1] = json.dumps(edit(json.loads(lines[1])))
        return ("\n".join(lines) + "\n").encode("utf-8")
    return damage


def _not_utf8(raw: bytes) -> bytes:
    return raw + b"\xff\n"


def _header_meta_not_an_object(raw: bytes) -> bytes:
    header, rest = raw.split(b"\n", 1)
    return json.dumps({**json.loads(header), "meta": 5}).encode("utf-8") + b"\n" + rest


class TestEvalEpisodes:
    def test_one_file_three_shot_counts(self, pipeline, tmp_path, capsys):
        out = tmp_path / "report"
        assert cli.main(["eval-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(pipeline["episodes"]),
                         "--shots", "1,2,5", "--out", str(out)]) == 0
        with open(out / "episode_report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        # each shot count appears with and without fine-tuning
        assert [(r["shots"], r["finetune_steps"]) for r in rows] == [
            ("1", "0"), ("1", "5"), ("2", "0"), ("2", "5"), ("5", "0"), ("5", "5"),
        ]
        for r in rows:
            assert 0.0 <= float(r["map"]) <= 1.0
            assert 0.0 <= float(r["accuracy"]) <= 1.0
            assert 0.0 <= float(r["background_false_accept"]) <= 1.0
            assert float(r["recall_at_10"]) >= float(r["map"]) - 1e-9
        assert capsys.readouterr().out.count("shots=") == 6

    def test_no_background_query_leaves_the_false_accept_cell_empty(self, pipeline, tmp_path):
        # no other report writes this cell: it is empty, not 0 and not ""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN, "background_queries": 0}), encoding="utf-8")
        assert cli.main(["gen-episodes", "--config", str(config), "--data", str(pipeline["data"]),
                         "--out", str(tmp_path / "eps")]) == 0
        out = tmp_path / "report"
        assert cli.main(["eval-episodes", "--config", str(config),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(tmp_path / "eps" / "episodes.jsonl"),
                         "--out", str(out)]) == 0
        header, *rows, end = (out / "episode_report.csv").read_bytes().split(b"\r\n")
        assert header == (b"shots,finetune_steps,map,recall_at_10,recall_at_100,accuracy,"
                          b"background_false_accept") and end == b""
        assert [row.split(b",")[:2] for row in rows] == [[b"1", b"0"], [b"1", b"5"]]
        assert [row.rsplit(b",", 1)[1] for row in rows] == [b"", b""]
        assert all(b'"' not in row for row in rows)

    def test_shot_count_from_file_when_flag_omitted(self, pipeline, tmp_path):
        out = tmp_path / "plain"
        assert cli.main(["eval-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(pipeline["episodes"]),
                         "--out", str(out)]) == 0
        with open(out / "episode_report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["shots"] for r in rows] == ["1", "1"]

    def test_every_shot_count_reads_the_episode_file(self, pipeline, tmp_path, monkeypatch):
        # the file cut to its first two episodes, the first with two queries
        # dropped by hand; every pass reads its support from the file
        lines = pipeline["episodes"].read_text(encoding="utf-8").splitlines()[:3]
        first = json.loads(lines[1])
        first["query_item_ids"] = first["query_item_ids"][2:]
        lines[1] = json.dumps(first)
        episodes = tmp_path / "episodes.jsonl"
        episodes.write_text("\n".join(lines) + "\n", encoding="utf-8")
        in_file = [(obj["episode_id"], obj["query_item_ids"]) for obj in map(json.loads, lines[1:])]
        passes = []

        def spy(head, eps, steps, lr):
            passes.append([(ep.episode_id, ep.query_ids(), ep.support.shape) for ep in eps])
            assert not any(np.isin(ep.support, ep.queries).any() for ep in eps)
            return evaluate_episodes(head, eps, steps, lr)

        monkeypatch.setattr(cli, "evaluate_episodes", spy)
        assert cli.main(["eval-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(episodes), "--shots", "1,2,5",
                         "--out", str(tmp_path / "report")]) == 0
        assert len(passes) == 6
        for shots, seen in zip([1, 1, 2, 2, 5, 5], passes):
            assert seen == [(eid, queries, (3, shots)) for eid, queries in in_file]

    @pytest.mark.parametrize("target, damage", [
        ("episodes", _edit_first_episode(lambda obj: [1, 2])),
        ("episodes", _edit_first_episode(lambda obj: {**obj, "episode_id": "abc"})),
        ("episodes", _edit_first_episode(
            lambda obj: {**obj, "support_item_ids": {**obj["support_item_ids"], "1": 5}})),
        ("episodes", _not_utf8),
        ("data", _not_utf8),
        ("data", _header_meta_not_an_object),
        ("config", _not_utf8),
    ], ids=["episode_not_an_object", "episode_id_not_an_integer", "support_ids_not_a_list",
            "episodes_not_utf8", "data_not_utf8", "data_meta_not_an_object", "config_not_utf8"])
    def test_bad_input_is_one_error_line(self, pipeline, tmp_path, capsys, target, damage):
        paths = dict(pipeline)
        paths[target] = tmp_path / pipeline[target].name
        paths[target].write_bytes(damage(pipeline[target].read_bytes()))
        out = tmp_path / "report"
        assert cli.main(["eval-episodes", "--config", str(paths["config"]),
                         "--data", str(paths["data"]),
                         "--checkpoint", str(paths["checkpoint"]),
                         "--episodes", str(paths["episodes"]), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("reshape", ["drop_a_class", "drop_a_support_item",
                                         "add_a_support_item"])
    def test_episode_of_another_shape_is_refused(self, pipeline, tmp_path, capsys, reshape):
        # the passes fine-tune a file's episodes together, so every episode
        # must have the spec's ways and shots
        dataset = load_dataset(pipeline["data"])
        lines = pipeline["episodes"].read_text(encoding="utf-8").splitlines()
        episode = json.loads(lines[2])
        support = episode["support_item_ids"]  # the run's count is the file's, 1
        rows_of = dataset.row_lookup()
        if reshape == "drop_a_class":
            dropped = episode["class_ids"].pop()
            support["1"] = [i for i in support["1"] if dataset.label[rows_of([i])[0]] != dropped]
        elif reshape == "drop_a_support_item":
            support["1"].pop()
        else:
            used = set(support["1"]) | set(episode["query_item_ids"])
            label = dataset.label[rows_of(support["1"][:1])[0]]
            support["1"].append(next(
                rid for rid in dataset.id[dataset.label == label] if rid not in used))
        lines[2] = json.dumps(episode)
        episodes = tmp_path / "episodes.jsonl"
        episodes.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "report"
        assert cli.main(["eval-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(episodes), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("lr", [0.0, -1.0])
    def test_finetune_lr_not_positive_is_refused(self, pipeline, tmp_path, capsys, lr):
        # the best-iterate rule kept the untuned head, so a finetune=5 row
        # reported a fine-tune that never happened
        config = tmp_path / "run.json"
        config.write_text(json.dumps({**RUN, "finetune_lr": lr}), encoding="utf-8")
        out = tmp_path / "report"
        assert cli.main(["eval-episodes", "--config", str(config),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(pipeline["episodes"]), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: finetune_lr must be within (0, inf), got {lr}\n"
        assert not out.exists()

    def test_bad_shots_list(self, pipeline, tmp_path, capsys):
        assert cli.main(["eval-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(pipeline["episodes"]),
                         "--shots", "1,many", "--out", str(tmp_path / "x")]) == 2
        assert "--shots" in capsys.readouterr().err

    def test_repeated_shot_count_is_refused(self, pipeline, tmp_path, capsys):
        out = tmp_path / "x"
        assert cli.main(["eval-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(pipeline["episodes"]),
                         "--shots", "1,2,1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --shots count 1 is repeated in '1,2,1'\n"
        assert not out.exists()

    @pytest.mark.parametrize("shots, message", [
        ("1,1", "--shots count 1 is repeated in '1,1'"), ("1,many", "bad --shots list '1,many'"),
        ("", "bad --shots list ''"), ("1,5,0", "--shots count must be >= 1, got 0")])
    def test_shots_are_checked_before_any_input_is_read(self, pipeline, tmp_path, capsys,
                                                        shots, message):
        # none of the three input files exists, so reading one would exit 1
        out = tmp_path / "x"
        assert cli.main(["eval-episodes", "--config", str(pipeline["config"]),
                         "--data", str(tmp_path / "nowhere.jsonl"),
                         "--checkpoint", str(tmp_path / "nowhere.json"),
                         "--episodes", str(tmp_path / "nowhere-episodes.jsonl"),
                         "--shots", shots, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("shots, message", [
        ("1,2,0", "--shots count must be >= 1, got 0"),
        ("1,2,11", "shots 11 exceeds max_shots 10")])
    def test_no_pass_runs_before_a_bad_shot_count_is_refused(self, pipeline, tmp_path, capsys,
                                                            shots, message):
        # both lists ran their first passes, printing a line each, before
        # the bad count was refused
        out = tmp_path / "x"
        assert cli.main(["eval-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--episodes", str(pipeline["episodes"]),
                         "--shots", shots, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


class TestExportEmbeddings:
    def test_one_row_per_record(self, pipeline, tmp_path):
        out = tmp_path / "emb"
        assert cli.main(["export-embeddings", "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--out", str(out)]) == 0
        with open(out / "embeddings.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        n_records = len(pipeline["data"].read_text(encoding="utf-8").splitlines()) - 1
        assert len(rows) == 1 + n_records
        assert rows[0][:2] == ["id", "label"]
        assert rows[0][2:] == [f"e{i}" for i in range(16)]
        values = [float(v) for v in rows[1][2:]]
        assert abs(sum(v * v for v in values) - 1.0) < 1e-9

    def test_rows_are_the_embeddings_scoring_uses(self, pipeline, tmp_path):
        out = tmp_path / "emb"
        assert cli.main(["export-embeddings", "--data", str(pipeline["data"]),
                         "--checkpoint", str(pipeline["checkpoint"]),
                         "--out", str(out)]) == 0
        with open(out / "embeddings.csv", newline="", encoding="utf-8") as fh:
            exported = {row[0]: np.array([float(v) for v in row[2:]])
                        for row in list(csv.reader(fh))[1:]}
        head = load_checkpoint(pipeline["checkpoint"])
        records = load_dataset(pipeline["data"]).records
        # scoring embeds whatever subset it is given: a stride of the
        # records as one batch, and single records on their own
        subset = records[::3]
        scored = head.score_batch(subset.features).embeddings
        for rid, emb in zip(subset.id, scored):
            assert np.array_equal(exported[rid], emb), rid
        for rid, x in zip(records.id[1::7], records.features[1::7]):
            assert np.array_equal(exported[rid], head.score(x).embedding), rid


def reference_embeddings_csv(ids, labels, emb) -> bytes:
    """embeddings.csv as export-embeddings wrote it before it formatted a
    row in one pass: every float through repr, every field through csv."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["id", "label"] + [f"e{i}" for i in range(emb.shape[1])])
    for rid, label, row in zip(ids, labels, emb):
        writer.writerow([rid, label] + [repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


# text that csv has to quote, and text beyond ASCII
csv_text = st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n", " ", "é", "日"]),
                             st.characters(blacklist_categories=("Cs",))),
                   min_size=1, max_size=6)


@st.composite
def export_inputs(draw):
    """(ids, labels, features) of a dataset for the pipeline's 12-input head."""
    ids = draw(st.lists(csv_text, min_size=1, max_size=5, unique=True))
    labels = draw(st.lists(csv_text, min_size=len(ids), max_size=len(ids)))
    rows = draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12),
                         min_size=len(ids), max_size=len(ids)))
    return ids, labels, np.array(rows)


@settings(max_examples=40, deadline=None)
@given(export_inputs())
# every character csv quotes, in ids and in labels
@example((['a,b', 'say "hi"', "two\nlines", "cr\r", "crlf\r\n"], ["ü", ",", '"', "x", "\n"],
          np.linspace(-3.0, 3.0, 5 * 12).reshape(5, 12)))
def test_export_bytes_match_the_per_float_writer(pipeline, inputs):
    ids, labels, features = inputs
    head = load_checkpoint(pipeline["checkpoint"])
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.jsonl"
        save_dataset(Dataset(ids, labels, features), data)
        with redirect_stdout(io.StringIO()):
            assert cli.main(["export-embeddings", "--data", str(data), "--checkpoint",
                             str(pipeline["checkpoint"]), "--out", str(Path(tmp) / "emb")]) == 0
        got = (Path(tmp) / "emb" / "embeddings.csv").read_bytes()
    assert got == reference_embeddings_csv(ids, labels, head.embedding.embed_batch(features))


@pytest.mark.parametrize("command", ["eval-classify", "export-embeddings", "eval-episodes"])
def test_a_dataset_of_another_width_than_the_head_is_refused(pipeline, tmp_path, capsys,
                                                             command):
    # each command reported a shape error from inside the network, sized by
    # its block of rows, such as (32, 13) against (batch, 12)
    ds = load_dataset(pipeline["data"])
    wide = tmp_path / "wide.jsonl"
    save_dataset(Dataset(ds.id, ds.label, np.hstack([ds.features, ds.features[:, :1]]),
                         box=ds.box, image_id=ds.image_id, split=ds.split, group=ds.group,
                         meta=ds.meta), wide)
    out = tmp_path / "out"
    args = [command, "--config", str(pipeline["config"]), "--data", str(wide), "--out", str(out),
            "--checkpoint", str(pipeline["checkpoint"])]
    if command == "eval-episodes":
        args += ["--episodes", str(pipeline["episodes"])]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (f"error: dataset {wide} has 13 features per record, "
                                       f"but checkpoint {pipeline['checkpoint']} takes 12\n")
    assert not out.exists()


def test_fit_and_eval_classify_refuse_a_class_count_in_the_same_words(pipeline, tmp_path,
                                                                      capsys):
    # the checkpoint holds the 5 seen classes; without the group column all
    # 10 classes of the dataset are seen
    ds = load_dataset(pipeline["data"])
    ungrouped = tmp_path / "ungrouped.jsonl"
    save_dataset(Dataset(ds.id, ds.label, ds.features, box=ds.box, image_id=ds.image_id,
                         split=ds.split, meta=ds.meta), ungrouped)
    message = "head has 5 classes, dataset has 10"
    with pytest.raises(ConfigError) as exc:
        fit(load_checkpoint(pipeline["checkpoint"]), load_dataset(ungrouped), RunConfig())
    assert str(exc.value) == message
    assert cli.main(["eval-classify", "--data", str(ungrouped),
                     "--checkpoint", str(pipeline["checkpoint"])]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_config_with_input_dim_is_refused(pipeline, tmp_path, capsys):
    # the head's input width is the dataset's; a config or resolved-config.json
    # that still carries the key is refused, whatever width it names
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**RUN, "input_dim": 12}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--data", str(pipeline["data"]),
                     "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: unknown config keys: ['input_dim']\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval-classify", "export-embeddings"])
def test_input_with_no_finite_embedding_is_a_dataset_error(pipeline, tmp_path, capsys, command):
    # 1e308 passes the loader's finiteness check but overflows the network,
    # which warns nothing: a numpy RuntimeWarning fails the suite
    lines = pipeline["data"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])
    record["features"] = [1e308] * len(record["features"])
    lines[3] = json.dumps(record)
    data = tmp_path / "huge.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main([command, "--data", str(data), "--checkpoint", str(pipeline["checkpoint"]),
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (f"error: record {record['id']!r} (row 2 of {len(lines) - 1}) maps to "
                   f"non-finite features (largest |input| 1e+308)\n")
    assert not out.exists()


def test_eval_episodes_names_the_record_with_no_finite_embedding(pipeline, tmp_path, capsys):
    # an episode block goes through the network as one batch; the error
    # names the record and its dataset row, not its place in that batch
    query = json.loads(pipeline["episodes"].read_text(encoding="utf-8").splitlines()[2])[
        "query_item_ids"][3]
    lines = pipeline["data"].read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines) if json.loads(text).get("id") == query)
    record = json.loads(lines[line])
    record["features"] = [1e308] * len(record["features"])
    lines[line] = json.dumps(record)
    data = tmp_path / "huge.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "report"
    assert cli.main(["eval-episodes", "--config", str(pipeline["config"]), "--data", str(data),
                     "--checkpoint", str(pipeline["checkpoint"]),
                     "--episodes", str(pipeline["episodes"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: record {query!r} (row {line - 1} of {len(lines) - 1}) maps to non-finite "
        f"features (largest |input| 1e+308)\n")
    assert not out.exists()


@pytest.mark.parametrize("role", ["support_item_ids", "query_item_ids"])
def test_eval_episodes_names_the_record_that_overflows_in_the_last_layer(pipeline, tmp_path,
                                                                       capsys, role):
    # finite through the frozen layers, so the overflow comes in the last
    # layer: a support item's in the embeddings that become the
    # representatives, a query's when the episode head scores it
    episode = json.loads(pipeline["episodes"].read_text(encoding="utf-8").splitlines()[1])
    # the support of the run's count, the file's own
    ids = episode[role][str(RUN["shots"])] if role == "support_item_ids" else episode[role]
    record_id = ids[0]
    lines = pipeline["data"].read_text(encoding="utf-8").splitlines()
    line = next(i for i, text in enumerate(lines) if json.loads(text).get("id") == record_id)
    record = json.loads(lines[line])
    record["features"] = [1e300] + [0.0] * (len(record["features"]) - 1)
    head = load_checkpoint(pipeline["checkpoint"])
    assert np.isfinite(head.embedding.hidden_features([record["features"]])).all()
    lines[line] = json.dumps(record)
    data = tmp_path / "huge.jsonl"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "report"
    assert cli.main(["eval-episodes", "--config", str(pipeline["config"]), "--data", str(data),
                     "--checkpoint", str(pipeline["checkpoint"]),
                     "--episodes", str(pipeline["episodes"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: record {record_id!r} (row {line - 1} of {len(lines) - 1}) maps to non-finite "
        f"features (largest |input| 1e+300)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval-classify", "export-embeddings", "eval-episodes"])
def test_a_command_that_draws_nothing_loads_no_rng(pipeline, tmp_path, command):
    # numpy.random and OpenSSL's _hashlib, which only `rng.substream` needs,
    # add about 6 MB to the peak RSS of these commands. eval-episodes reads
    # every count's support from the episode file, so its 5-shot pass on a
    # 1-shot file draws nothing.
    argv = [command, "--data", str(pipeline["data"]),
            "--checkpoint", str(pipeline["checkpoint"]), "--out", str(tmp_path / "out")]
    if command == "eval-episodes":
        argv += ["--config", str(pipeline["config"]), "--episodes", str(pipeline["episodes"]),
                 "--shots", "1,5"]
    script = ("import sys\nfrom mixrep import cli\n"
              f"code = cli.main({argv!r})\n"
              "print(code, [m for m in ('numpy.random', '_hashlib') if m in sys.modules])\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"


@pytest.fixture(scope="module")
def score_pipeline(tmp_path_factory):
    """A 5,060-record dataset (40 classes, 30 of them unseen, a fifth of
    each class in the test split) and a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("score")
    config = root / "run.json"
    config.write_text(json.dumps({
        **RUN, "layer_widths": [64, 32], "modes_per_class": 1, "iterations": 5,
        "synth": {"num_classes": 40, "modes_per_class": 1, "samples_per_mode": 110,
                  "input_dim": 20, "spread": 0.05, "unseen_classes": 30,
                  "background_fraction": 0.15, "test_fraction": 0.2}}), encoding="utf-8")
    data = root / "data" / "dataset.jsonl"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["synth-data", "--config", str(config), "--out", str(data.parent)]) == 0
        assert cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(root / "model")]) == 0
    return data, root / "model" / "checkpoint.json"


@pytest.mark.parametrize("command, scale", [
    ("eval-classify", None), ("export-embeddings", None),
    ("eval-classify", 1e160), ("export-embeddings", 1e160),
], ids=["eval-classify", "export-embeddings", "eval-classify-norm-overflow",
        "export-embeddings-norm-overflow"])
def test_non_finite_embedding_names_the_record_and_its_dataset_row(score_pipeline, tmp_path,
                                                                   command, scale):
    data, checkpoint = score_pipeline
    dataset = load_dataset(data)
    # a test-split record of a seen class: its row within the split is 11
    assert dataset.id[99] == "r000099" and dataset.split[99] == "test"
    lines = data.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[100])
    assert record["id"] == "r000099"
    if scale is None:  # the network overflows
        record["features"] = [1e308] * len(record["features"])
    else:  # finite embedding whose squared norm overflows: no all-zero "unit" vector
        record["features"] = [v * scale for v in record["features"]]
    largest = max(map(abs, record["features"]))
    lines[100] = json.dumps(record)
    huge = tmp_path / "huge.jsonl"
    huge.write_text("\n".join(lines) + "\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # a process of its own, so stderr is all a user sees, warnings included
    run = subprocess.run(
        [sys.executable, "-m", "mixrep.cli", command, "--data", str(huge),
         "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 2
    assert run.stderr == ("error: record 'r000099' (row 99 of 5060) maps to non-finite "
                          f"features (largest |input| {largest:.3g})\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("given, missing", [
    ((), "--checkpoint (checkpoint JSON path)"),
    (("--data",), "--checkpoint (checkpoint JSON path)"),
    (("--checkpoint",), "--episodes (episode JSONL path)"),
    (("--checkpoint", "--episodes"), "--data (dataset JSONL path)"),
])
def test_the_first_missing_input_is_named_before_any_file_is_read(tmp_path, capsys, given,
                                                                   missing):
    # each given flag names a file that does not exist: reading one would exit 1, not 2
    argv = ["eval-episodes"] + [arg for flag in given for arg in (flag, str(tmp_path / flag))]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: missing {missing}\n"
    assert not (tmp_path / "out").exists()


class TestGradCheck:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "gc"
        assert cli.main(["grad-check", "--seed", "3", "--out", str(out)]) == 0
        assert "max relative gradient error" in capsys.readouterr().out
        doc = json.loads((out / "grad_check.json").read_text(encoding="utf-8"))
        assert doc["passed"] is True
        assert doc["max_rel_err"] < 1e-4

    def test_no_out_needed(self, capsys):
        assert cli.main(["grad-check"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("bn_epsilon", -10.0), ("bn_epsilon", float("inf")),
                                            ("bn_momentum", "fast"), ("bn_momentum", 1.5)])
    def test_bad_batch_norm_setting_is_a_config_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        out = tmp_path / "gc"
        assert cli.main(["grad-check", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("widths, message", [
        ([0, 4], "layer_widths entry must be >= 1, got 0"),
        ([], "layer_widths must not be empty")], ids=["zero_width", "no_layer"])
    def test_bad_layer_widths_are_a_config_error(self, tmp_path, capsys, widths, message):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"layer_widths": widths}), encoding="utf-8")
        out = tmp_path / "gc"
        assert cli.main(["grad-check", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, source):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": -1 if source == "config" else 0}),
                          encoding="utf-8")
        args = ["grad-check", "--config", str(config), "--out", str(tmp_path / "gc")]
        assert cli.main(args + (["--seed", "-1"] if source == "flag" else [])) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestOutDirEnvVar:
    def test_relative_out_is_anchored(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("MIXREP_OUT_DIR", str(tmp_path))
        assert cli.main(["gen-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]), "--out", "nested/eps"]) == 0
        assert (tmp_path / "nested" / "eps" / "episodes.jsonl").exists()

    def test_env_var_alone_names_the_out_dir(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("MIXREP_OUT_DIR", str(tmp_path / "implied"))
        assert cli.main(["gen-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"])]) == 0
        assert (tmp_path / "implied" / "episodes.jsonl").exists()

    def test_absolute_out_wins(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("MIXREP_OUT_DIR", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        assert cli.main(["gen-episodes", "--config", str(pipeline["config"]),
                         "--data", str(pipeline["data"]), "--out", str(out)]) == 0
        assert (out / "episodes.jsonl").exists()
        assert not (tmp_path / "ignored").exists()


def test_module_entry_point(tmp_path):
    run = subprocess.run(
        [sys.executable, "-m", "mixrep.cli", "grad-check", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    assert "OK" in run.stdout


class TestBenchmarkTracer:
    """The benchmark tracer finds what it traces by name and reads some
    arguments by position; a rename must fail here, not in a traced run."""

    @pytest.mark.parametrize("span, module_name, attr", TRACED,
                             ids=[f"{m}:{a}" for _, m, a in TRACED])
    def test_target_resolves(self, span, module_name, attr):
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), span

    @staticmethod
    def traced(tmp_path, *args) -> dict:
        """The spans of one traced CLI command, by span name."""
        spans_path = tmp_path / "spans.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-B", str(TRACER_PATH), str(spans_path), "t", *args],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 0, run.stderr
        spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        by_name: dict = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        return by_name

    def test_traced_eval_classify_counts_the_records(self, pipeline, tmp_path):
        by_name = self.traced(tmp_path, "eval-classify", "--config", str(pipeline["config"]),
                              "--data", str(pipeline["data"]),
                              "--checkpoint", str(pipeline["checkpoint"]),
                              "--out", str(tmp_path / "cls"))
        lines = pipeline["data"].read_text(encoding="utf-8").splitlines()
        assert [s["counts"]["records"] for s in by_name["data.load_dataset"]] == [len(lines) - 1]
        with open(tmp_path / "cls" / "classification.csv", newline="", encoding="utf-8") as fh:
            splits = list(csv.DictReader(fh))
        assert len(by_name["metrics.classification_error"]) == len(splits)
        assert all(s["counts"]["rows"] >= 1 for s in by_name["head.embed_batch"])

    def test_traced_eval_episodes_counts_its_work(self, pipeline, tmp_path):
        by_name = self.traced(tmp_path, "eval-episodes",
                              "--config", str(pipeline["config"]), "--data", str(pipeline["data"]),
                              "--checkpoint", str(pipeline["checkpoint"]),
                              "--episodes", str(pipeline["episodes"]),
                              "--out", str(tmp_path / "report"))
        # 3 episodes, each without and with RUN's 5 fine-tune steps; a pass
        # runs its episodes as one block, not through the one-episode calls
        assert "episodes.run_episode" not in by_name
        assert "episodes.episode_finetune" not in by_name
        assert len(by_name["episodes.replace_representatives"]) == 6
        # each block embeds its stacked support in one call: one block a pass
        assert len(by_name["episodes.support_embeddings"]) == 2
        queries = RUN["ways"] * RUN["queries_per_class"] + RUN["background_queries"]
        assert [s["counts"]["queries"] for s in by_name["episodes.score_queries"]] == [queries] * 6
        assert all(s["counts"]["rows"] >= 1 for s in by_name["head.embed_batch"])
        # the fine-tuned pass builds one loss graph per step and one for the
        # last iterate, each over all 3 episodes: the stacked support, the
        # last layer's weight, matmul, bias, add and l2_normalize, the
        # representatives, and the one mixture_loss node; the frozen layers
        # are not in it. Rows count one episode's support.
        steps = RUN["finetune_steps"]
        assert [s["counts"]["nodes"] for s in by_name["head.total_loss"]] == [8] * (steps + 1)
        assert [s["counts"]["rows"] for s in by_name["head.total_loss"]] == \
            [RUN["ways"] * RUN["shots"]] * (steps + 1)
        assert len(by_name["autodiff.backward"]) == steps
        # map_over_episodes counts the non-background detections of its pass
        config = load_run_config(pipeline["config"])
        head = load_checkpoint(pipeline["checkpoint"])
        passes, _ = load_episodes(pipeline["episodes"], load_dataset(pipeline["data"]))
        episodes = passes[RUN["shots"]]
        pooled = [len(evaluate_episodes(head, episodes, steps, config.finetune_lr).detections)
                  for steps in (0, RUN["finetune_steps"])]
        # some queries are called background, so this is not the query count
        assert 0 < min(pooled) and max(pooled) < len(episodes) * queries
        assert [s["counts"]["detections"] for s in by_name["metrics.map_over_episodes"]] == pooled
