import dataclasses
import json

import pytest

from mixrep.config import (
    CLASSIFICATION_WIDTHS,
    DETECTION_WIDTHS,
    RunConfig,
    load_run_config,
    write_resolved_config,
)
from mixrep.data import SynthConfig
from mixrep.errors import ConfigError


class TestDefaults:
    def test_core_defaults(self):
        c = RunConfig()
        assert c.task_mode == "classification"
        assert c.seed == 0
        assert c.sigma == 0.5
        assert c.margin == 0.5
        assert c.posterior_mode == "normalized"
        assert c.lr == 0.01
        assert c.iterations == 500
        assert c.classes_per_batch == 12
        assert c.instances_per_class == 4
        assert c.episode_count == 500
        assert c.queries_per_class == 10
        assert c.recall_ks == (10, 100)

    def test_widths_resolve_per_task(self):
        assert RunConfig().resolved_widths() == CLASSIFICATION_WIDTHS
        assert RunConfig(task_mode="detection").resolved_widths() == DETECTION_WIDTHS
        assert RunConfig(layer_widths=[64, 32]).resolved_widths() == (64, 32)

    def test_modes_resolve_per_task(self):
        assert RunConfig().resolved_modes() == 3
        assert RunConfig(task_mode="detection").resolved_modes() == 5
        assert RunConfig(modes_per_class=7).resolved_modes() == 7

    def test_bad_task_mode(self):
        with pytest.raises(ConfigError):
            RunConfig(task_mode="segmentation")

    def test_bad_iou(self):
        with pytest.raises(ConfigError):
            RunConfig(match_iou=0.0)
        with pytest.raises(ConfigError):
            RunConfig(match_iou=1.5)

    def test_bad_recall_ks(self):
        with pytest.raises(ConfigError):
            RunConfig(recall_ks=(0,))

    def test_negative_finetune(self):
        with pytest.raises(ConfigError):
            RunConfig(finetune_steps=-1)


class TestFactories:
    def test_embedding_config(self):
        c = RunConfig(layer_widths=(16, 8), bn_momentum=0.8)
        e = c.embedding_config(12)
        assert e.input_dim == 12
        assert e.layer_widths == (16, 8)
        assert e.bn_momentum == 0.8

    def test_embedding_config_needs_a_dim(self):
        with pytest.raises(ConfigError):
            RunConfig().embedding_config()
        assert RunConfig(input_dim=6).embedding_config().input_dim == 6

    def test_mixture_config(self):
        m = RunConfig(sigma=0.25, margin=0.1).mixture_config(4)
        assert (m.num_classes, m.modes_per_class) == (4, 3)
        assert (m.sigma, m.margin) == (0.25, 0.1)

    def test_train_config_carries_seed(self):
        t = RunConfig(seed=9, lr=0.5, iterations=3).train_config()
        assert (t.seed, t.lr, t.iterations) == (9, 0.5, 3)

    def test_batch_spec(self):
        b = RunConfig(classes_per_batch=5, instances_per_class=2).batch_spec()
        assert (b.classes_per_batch, b.instances_per_class) == (5, 2)

    def test_episode_spec_shot_override(self):
        c = RunConfig(shots=1, ways=3, episode_count=7, seed=4)
        assert c.episode_spec().shots == 1
        s = c.episode_spec(shots=5)
        assert (s.shots, s.ways, s.episode_count, s.seed) == (5, 3, 7, 4)

    def test_bad_downstream_value_surfaces_at_factory(self):
        # deep validation lives in the component configs
        with pytest.raises(ConfigError):
            RunConfig(sigma=-1.0).mixture_config(3)
        with pytest.raises(ConfigError):
            RunConfig(shots=99).episode_spec()


class TestWireForm:
    def test_round_trip(self):
        c = RunConfig(task_mode="detection", seed=3, layer_widths=(8, 4),
                      synth=SynthConfig(num_classes=4, modes_per_class=1,
                                        samples_per_mode=5, input_dim=6))
        back = RunConfig.from_dict(c.to_dict())
        assert back == c

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys.*learning_rate"):
            RunConfig.from_dict({"learning_rate": 0.1})
        # the support-ROI IoU knob was removed: every record is already a ROI
        with pytest.raises(ConfigError, match="unknown config keys.*support_iou"):
            RunConfig.from_dict({"support_iou": 0.7})

    def test_unknown_synth_key_rejected(self):
        with pytest.raises(ConfigError, match="synth"):
            RunConfig.from_dict({"synth": {"num_classes": 3, "flavor": "mild"}})

    def test_synth_must_be_object(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"synth": [1, 2]})

    def test_lists_become_tuples(self):
        c = RunConfig.from_dict({"layer_widths": [32, 16], "recall_ks": [5]})
        assert c.layer_widths == (32, 16)
        assert c.recall_ks == (5,)

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(p)

    @pytest.mark.parametrize("text", ['{"seed": ' + "1" * 5000 + "}",
                                      '{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                             ids=["integer_of_5000_digits", "arrays_nested_too_deep"])
    def test_load_rejects_json_the_decoder_cannot_hold(self, tmp_path, text):
        p = tmp_path / "run.json"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_run_config(p)

    def test_load_round_trip(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"task_mode": "detection", "seed": 5}), encoding="utf-8")
        c = load_run_config(p)
        assert (c.task_mode, c.seed) == ("detection", 5)


class TestResolvedLog:
    def test_resolved_file_pins_defaults(self, tmp_path):
        p = tmp_path / "resolved.json"
        write_resolved_config(RunConfig(task_mode="detection"), p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        assert doc["layer_widths"] == list(DETECTION_WIDTHS)
        assert doc["modes_per_class"] == 5

    def test_feeding_the_log_back_reproduces_the_config(self, tmp_path):
        c = RunConfig(task_mode="detection", seed=11, sigma=0.3)
        p = tmp_path / "resolved.json"
        write_resolved_config(c, p)
        back = load_run_config(p)
        assert back.resolved_widths() == c.resolved_widths()
        assert back.resolved_modes() == c.resolved_modes()
        assert back.seed == c.seed and back.sigma == c.sigma
        # a second write of the reloaded config is byte-identical
        q = tmp_path / "again.json"
        write_resolved_config(back, q)
        assert q.read_bytes() == p.read_bytes()

    def test_replace_revalidates(self):
        c = RunConfig()
        with pytest.raises(ConfigError):
            dataclasses.replace(c, task_mode="nope")
