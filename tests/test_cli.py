"""Tests for the command-line surface: config resolution, the four verbs,
artifact layout, exit codes, and the machine-readable error summary.

Everything drives ``main(argv)`` in-process; one test goes through a real
subprocess to pin the installed entry point and the stderr contract.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from lidartrack import cli
from lidartrack.augment import AugmentConfig
from lidartrack.cli import BASELINES, main
from lidartrack.config import ConfigError, ExperimentConfig, PRESETS
from lidartrack.data import SceneSpec, read_native
from lidartrack.evaluation import run_ope, score_predictions
from lidartrack.nn import Model, ModelConfig, load_checkpoint, save_checkpoint
from lidartrack.pipeline import NetworkTracker, TrainConfig


def write_config(path: Path, **keys) -> str:
    path.write_text(json.dumps(keys) + "\n", encoding="utf-8")
    return str(path)


TINY = dict(n_tracklets=3, n_frames=4, epochs=2, batch_size=8, n_points=48, seed=0)
FLOAT_KEYS = sorted(key for key, kind in get_type_hints(ExperimentConfig).items() if kind is float)
NAN, INF = float("nan"), float("inf")

# The published config keys, each with its (type, default).  Exposing a
# module field no user sets (``clutter_density``, ``dtype``, ``start_epoch``
# ...) or dropping a key fails the test that compares them.
SCHEMA = {
    "seed": (int, 0),
    "n_tracklets": (int, 100),
    "n_frames": (int, 20),
    "n_distractors": (int, 0),
    "motion": (str, "mixed"),
    "speed_min": (float, 0.0),
    "speed_max": (float, 2.0),
    "category": (str, "car"),
    "noise_sigma": (float, 0.02),
    "point_widths": (tuple[int, ...], (64, 128, 256)),
    "head_hidden": (int, 128),
    "epochs": (int, 10),
    "batch_size": (int, 32),
    "lr": (float, 1e-3),
    "lr_decay": (float, 0.1),
    "lr_decay_every": (int, 20),
    "n_points": (int, 1024),
    "margin": (float, 2.0),
    "resample_each_epoch": (bool, True),
    "lambda_cls_target": (float, 0.1),
    "lambda_cls_motion": (float, 0.1),
    "lambda_reg": (float, 1.0),
    "flip_prob": (float, 0.5),
    "rot_range_deg": (float, 10.0),
    "trans_range": (float, 0.3),
    "prev_box_shift": (float, 0.3),
    "prev_box_yaw_shift_deg": (float, 10.0),
}


def tree_digest(root: Path, skip=("config.resolved.json",)) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig.from_sources()
        assert cfg.seed == 0
        assert cfg.motion == "mixed"

    def test_presets(self):
        paper = ExperimentConfig.from_sources(preset="paper")
        assert paper.batch_size == 256
        assert paper.epochs == 40
        assert paper.n_points == 1024
        assert paper.lr == 1e-3
        desk = ExperimentConfig.from_sources(preset="desk")
        assert desk.batch_size == 32
        assert desk.epochs <= 40
        assert set(PRESETS) == {"paper", "desk"}

    def test_file_overrides_preset_and_flags_override_file(self, tmp_path):
        path = write_config(tmp_path / "c.json", batch_size=16, seed=3)
        cfg = ExperimentConfig.from_sources(
            preset="paper", config_file=path, overrides={"seed": 9}
        )
        assert cfg.batch_size == 16     # file beats preset
        assert cfg.epochs == 40         # preset survives where the file is silent
        assert cfg.seed == 9            # flag beats file

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", epochz=3)
        with pytest.raises(ConfigError, match="epochz"):
            ExperimentConfig.from_sources(config_file=path)

    def test_wrong_type_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", epochs="ten")
        with pytest.raises(ConfigError, match="epochs"):
            ExperimentConfig.from_sources(config_file=path)
        path2 = write_config(tmp_path / "c2.json", epochs=True)
        with pytest.raises(ConfigError, match="epochs"):
            ExperimentConfig.from_sources(config_file=path2)

    @pytest.mark.parametrize(
        "key, value",
        [("lr", "fast"), ("resample_each_epoch", 1), ("motion", 3), ("point_widths", [64, 1.5])],
    )
    def test_wrong_type_names_key(self, tmp_path, key, value):
        path = write_config(tmp_path / "c.json", **{key: value})
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_sources(config_file=path)

    def test_bad_values_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="motion"):
            ExperimentConfig.from_sources(overrides={"motion": "warp"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_sources(overrides={"lr": -1.0})

    def test_config_file_is_closed(self, tmp_path):
        path = write_config(tmp_path / "c.json", seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ExperimentConfig.from_sources(config_file=path)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="object"):
            ExperimentConfig.from_sources(config_file=str(path))

    def test_published_schema(self):
        assert len(SCHEMA) == 27
        kinds = get_type_hints(ExperimentConfig)
        assert {f.name: (kinds[f.name], f.default) for f in fields(ExperimentConfig)} == SCHEMA

    def test_defaults_build_the_module_defaults(self):
        # every default is declared once, in the module config that uses it
        cfg = ExperimentConfig()
        assert cfg.train_config() == TrainConfig()
        assert cfg.model_config() == ModelConfig()
        assert cfg.augment_config() == AugmentConfig()
        assert cfg.scene_template() == SceneSpec()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("category", "truck"),
            ("point_widths", []),
            ("epochs", 0),
            ("flip_prob", 2.0),
            ("noise_sigma", -1.0),
            # converted keys name the key the user wrote, not the module field
            ("rot_range_deg", -1.0),
            ("prev_box_yaw_shift_deg", -2.0),
            ("speed_min", 3.0),
            ("speed_max", -1.0),
            ("lambda_cls_target", -0.1),
            ("lambda_cls_motion", -0.1),
            ("lambda_reg", -1.0),
            # checked by the config itself, which owns the key
            ("n_tracklets", 0),
            ("n_tracklets", -3),
        ],
    )
    def test_module_checks_surface_as_config_errors(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_sources(overrides={key: value})

    # the settings NetworkTracker rejects when it is built
    @pytest.mark.parametrize("key, value", [
        ("n_points", 0), ("margin", -1.0), ("margin", float("inf")), ("margin", float("nan")),
    ])
    def test_bad_crop_setting_names_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be "):
            ExperimentConfig.from_sources(overrides={key: value})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_names_key(self, tmp_path, key, literal):
        path = tmp_path / "c.json"
        path.write_text(f'{{"{key}": {literal}}}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: {key} must be finite, got (nan|inf)$"):
            ExperimentConfig.from_sources(config_file=str(path))

    @pytest.mark.parametrize("text, message", [
        (b'{"epochz": 3}', r"unknown config keys: \['epochz'\]"),
        (b'{"epochs": 0}', "epochs must be at least 1, got 0$"),
        (b'{"seed": 1}\xff', r"not valid JSON \('utf-8' codec can't decode byte 0xff"),
    ])
    def test_file_errors_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: {message}"):
            ExperimentConfig.from_sources(preset="desk", config_file=str(path), overrides={"seed": 2})

    # built directly, each module config names the one field at fault
    @pytest.mark.parametrize("kind, field, value", [
        (TrainConfig, "lr", NAN),
        (TrainConfig, "lr", INF),
        (TrainConfig, "lr_decay", NAN),
        (TrainConfig, "lambda_reg", INF),
        (TrainConfig, "epochs", 0),
        (TrainConfig, "batch_size", 0),
        (TrainConfig, "lr_decay_every", 0),
        (AugmentConfig, "trans_range", NAN),
        (AugmentConfig, "rot_range_deg", INF),
        (AugmentConfig, "rot_range_deg", -1.0),
        (AugmentConfig, "prev_box_shift", NAN),
        (AugmentConfig, "prev_box_yaw_shift_deg", NAN),
        (SceneSpec, "speed_min", 3.0),
        (SceneSpec, "speed_max", INF),
        (ModelConfig, "head_hidden", 0),
    ])
    def test_module_config_names_the_bad_field(self, kind, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must "):
            kind(**{field: value})

    def test_dict_round_trip(self):
        cfg = ExperimentConfig.from_sources(preset="desk")
        again = ExperimentConfig.from_sources(overrides=cfg.to_dict())
        assert again == cfg
        json.dumps(cfg.to_dict())  # flat and JSON-ready


class TestGenerate:
    def test_writes_dataset_and_snapshot(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", **TINY)
        out = tmp_path / "ds"
        assert main(["generate", "--out", str(out), "--config", cfg]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["tracklets"]) == 3
        dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(dirs) == 3
        snapshot = json.loads((out / "config.resolved.json").read_text())
        assert snapshot["command"] == "generate"
        assert snapshot["config"]["n_tracklets"] == 3
        text = capsys.readouterr().out
        assert "3 tracklets" in text and "12 frames" in text

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **TINY)
        out = tmp_path / "ds"
        main(["generate", "--out", str(out), "--config", cfg, "--seed", "9"])
        snapshot = json.loads((out / "config.resolved.json").read_text())
        assert snapshot["config"]["seed"] == 9

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", **TINY)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--out", str(a), "--config", cfg]) == 0
        assert main(["generate", "--out", str(b), "--config", cfg]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_distractor_tracks_recorded(self, tmp_path, monkeypatch):
        # the generated scenes hold the distractor tracks in memory; the
        # native format stores frames and boxes only
        written = []
        write_native = cli.write_native

        def record(dataset, root):
            written.append(dataset)
            write_native(dataset, root)

        monkeypatch.setattr(cli, "write_native", record)
        cfg = write_config(tmp_path / "c.json", n_tracklets=2, n_frames=3, n_distractors=5)
        out = tmp_path / "ds"
        assert main(["generate", "--out", str(out), "--config", cfg]) == 0
        (dataset,) = written
        assert len(dataset) == 2
        for t in dataset:
            assert len(t.oracle.distractor_boxes) == 5
            assert all(len(track) == 3 for track in t.oracle.distractor_boxes)
        assert [t.oracle for t in read_native(out)] == [None, None]

    def test_unwritable_out_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["generate", "--out", str(blocker / "ds")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert set(err) >= {"error", "message"}

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", epochz=1)
        rc = main(["generate", "--out", str(tmp_path / "ds"), "--config", cfg])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "epochz" in err["message"]

    def test_integer_beyond_float_range_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"lr": 1' + "0" * 400 + "}\n", encoding="utf-8")
        rc = main(["generate", "--out", str(tmp_path / "ds"), "--config", str(path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"{path}: lr must be finite, got an integer too large for a float"

    @pytest.mark.parametrize("head_hidden", [0, -1])
    def test_bad_head_hidden_is_exit_2(self, tmp_path, capsys, head_hidden):
        path = write_config(tmp_path / "c.json", **TINY, head_hidden=head_hidden)
        rc = main(["train", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "out"), "--config", path])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"{path}: head_hidden must be at least 1, got {head_hidden}"

    def test_no_tracklets_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_tracklets=0)
        out = tmp_path / "ds"
        assert main(["generate", "--out", str(out), "--config", cfg]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "n_tracklets" in err["message"]
        assert not out.exists()


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli") / "ds"
    cfg = root.parent / "gen.json"
    write_config(cfg, **TINY)
    assert main(["generate", "--out", str(root), "--config", str(cfg)]) == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, tiny_dataset) -> Path:
    out = tmp_path_factory.mktemp("cli-train")
    cfg = out / "train.json"
    write_config(cfg, **TINY)
    rc = main([
        "train", "--dataset", str(tiny_dataset), "--out", str(out), "--config", str(cfg)
    ])
    assert rc == 0
    return out


class TestTrain:
    def test_artifacts(self, trained):
        model, extra = load_checkpoint(trained / "checkpoint.lidartrack")
        assert extra["epochs_completed"] == 2
        rows = [json.loads(l) for l in (trained / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1]
        assert all(np.isfinite(r["loss"]) for r in rows)
        assert (trained / "config.resolved.json").exists()

    def test_resume_continues_epoch_counter(self, tmp_path, tiny_dataset, trained):
        out = tmp_path / "resumed"
        cfg = write_config(tmp_path / "c.json", **{**TINY, "epochs": 4})
        rc = main([
            "train", "--dataset", str(tiny_dataset), "--out", str(out),
            "--config", cfg, "--resume", str(trained / "checkpoint.lidartrack"),
        ])
        assert rc == 0
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [2, 3]
        _, extra = load_checkpoint(out / "checkpoint.lidartrack")
        assert extra["epochs_completed"] == 4

    def test_resume_into_the_same_out_keeps_earlier_rows(self, tmp_path, tiny_dataset, trained):
        out = tmp_path / "run"
        shutil.copytree(trained, out)

        def train_into(epochs, *resume):
            cfg = write_config(tmp_path / "c.json", **{**TINY, "epochs": epochs})
            assert main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                         "--config", cfg, *resume]) == 0
            return [json.loads(l)["epoch"] for l in (out / "metrics.jsonl").read_text().splitlines()]

        assert train_into(4, "--resume", str(out / "checkpoint.lidartrack")) == [0, 1, 2, 3]
        assert train_into(2) == [0, 1]  # a fresh run replaces the log

    def test_resume_past_target_fails(self, tmp_path, tiny_dataset, trained):
        cfg = write_config(tmp_path / "c.json", **TINY)  # epochs=2, already done
        rc = main([
            "train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "o"),
            "--config", cfg, "--resume", str(trained / "checkpoint.lidartrack"),
        ])
        assert rc == 1

    def test_resume_other_architecture_fails(self, tmp_path, tiny_dataset, trained, capsys):
        cfg = write_config(tmp_path / "c.json", **{**TINY, "epochs": 4, "head_hidden": 64})
        rc = main([
            "train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "o"),
            "--config", cfg, "--resume", str(trained / "checkpoint.lidartrack"),
        ])
        assert rc == 1
        assert "architecture" in json.loads(capsys.readouterr().err)["message"]

    def test_resume_ignores_the_init_seed(self, tmp_path, tiny_dataset, trained):
        # the stored seed only drew the initial weights the checkpoint replaced
        cfg = write_config(tmp_path / "c.json", **{**TINY, "epochs": 3})
        rc = main([
            "train", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "o"), "--seed", "5",
            "--config", cfg, "--resume", str(trained / "checkpoint.lidartrack"),
        ])
        assert rc == 0

    def test_seed_changes_metrics(self, tmp_path, tiny_dataset):
        losses = []
        for seed in (0, 1):
            out = tmp_path / f"s{seed}"
            cfg = write_config(tmp_path / f"c{seed}.json", **{**TINY, "epochs": 1})
            assert main([
                "train", "--dataset", str(tiny_dataset), "--out", str(out),
                "--config", cfg, "--seed", str(seed),
            ]) == 0
            row = json.loads((out / "metrics.jsonl").read_text().splitlines()[0])
            losses.append(row["loss"])
        assert losses[0] != losses[1]

    def test_missing_dataset_fails(self, tmp_path, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "tracklet" in json.loads(capsys.readouterr().err)["message"]

    def test_dataset_without_manifest_fails(self, tmp_path, tiny_dataset, capsys):
        # tracklet directories the manifest does not list are not a dataset
        root = tmp_path / "ds"
        shutil.copytree(tiny_dataset, root)
        (root / "manifest.json").unlink()
        assert main(["train", "--dataset", str(root), "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == f"no tracklets found at {root}"


class TestTrack:
    def test_baseline_rows_and_latency(self, tmp_path, tiny_dataset, capsys):
        out = tmp_path / "trk"
        rc = main([
            "track", "--dataset", str(tiny_dataset), "--out", str(out),
            "--baseline", "zero-motion",
        ])
        assert rc == 0
        rows = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert len(rows) == 3 * 4
        tracklets = {t.id: t for t in read_native(tiny_dataset)}
        first = rows[0]
        np.testing.assert_allclose(
            first["box"], tracklets[first["tracklet_id"]].gt_boxes[0].as_vector()
        )
        assert "ms" in capsys.readouterr().out
        assert (out / "config.resolved.json").exists()

    def test_checkpoint_tracking(self, tmp_path, tiny_dataset, trained):
        out = tmp_path / "trk"
        cfg = write_config(tmp_path / "c.json", n_points=48)
        rc = main([
            "track", "--dataset", str(tiny_dataset), "--out", str(out),
            "--checkpoint", str(trained / "checkpoint.lidartrack"), "--config", cfg,
        ])
        assert rc == 0
        rows = (out / "predictions.jsonl").read_text().splitlines()
        assert len(rows) == 3 * 4

    @pytest.mark.parametrize("source", ["zero-motion", "kalman-cv", "checkpoint"])
    def test_exported_predictions_score_as_run_ope(self, tmp_path, tiny_dataset, trained, source):
        cfg_path = write_config(tmp_path / "c.json", n_points=48)
        if source == "checkpoint":
            ckpt = trained / "checkpoint.lidartrack"
            flags = ["--checkpoint", str(ckpt)]
            cfg = ExperimentConfig.from_sources(config_file=cfg_path)
            tracker = NetworkTracker(
                load_checkpoint(ckpt)[0], seed=cfg.seed, margin=cfg.margin, n_points=cfg.n_points
            )
        else:
            flags = ["--baseline", source]
            tracker = BASELINES[source]()
        out = tmp_path / "trk"
        rc = main(["track", "--dataset", str(tiny_dataset), "--out", str(out), "--config", cfg_path, *flags])
        assert rc == 0
        tracklets = read_native(tiny_dataset)
        scored = score_predictions(out / "predictions.jsonl", tracklets)
        direct = run_ope(tracker, tracklets)
        assert (scored.success, scored.precision) == (direct.success, direct.precision)
        assert scored.traces == direct.traces

    def test_source_is_mutually_exclusive_and_required(self, tmp_path, tiny_dataset):
        args = ["track", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "o")]
        assert main(args) == 2
        assert main(args + ["--baseline", "zero-motion", "--checkpoint", "x"]) == 2

    def test_corrupt_checkpoint_fails(self, tmp_path, tiny_dataset, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        rc = main([
            "track", "--dataset", str(tiny_dataset), "--out", str(tmp_path / "o"),
            "--checkpoint", str(bad),
        ])
        assert rc == 1
        assert "checkpoint" in json.loads(capsys.readouterr().err)["message"]


class TestEval:
    def gt_predictions(self, dataset: Path, path: Path) -> Path:
        rows = []
        for t in read_native(dataset):
            for i, b in enumerate(t.gt_boxes):
                rows.append({
                    "tracklet_id": t.id, "frame_index": i,
                    "box": [float(v) for v in b.as_vector()],
                    "dynamic": False, "wall_ms": 0.0,
                })
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        return path

    def test_gt_predictions_score_perfectly(self, tmp_path, tiny_dataset, capsys):
        preds = self.gt_predictions(tiny_dataset, tmp_path / "p.jsonl")
        out = tmp_path / "ev"
        rc = main([
            "eval", "--dataset", str(tiny_dataset), "--predictions", str(preds),
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["overall"]["success"] - 100.0) < 1e-9
        assert abs(report["overall"]["precision"] - 100.0) < 1e-9
        assert "overall" in capsys.readouterr().out
        assert (out / "report.txt").exists()

    def test_identical_inputs_identical_report_bytes(self, tmp_path, tiny_dataset):
        preds = self.gt_predictions(tiny_dataset, tmp_path / "p.jsonl")
        blobs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main([
                "eval", "--dataset", str(tiny_dataset), "--predictions", str(preds),
                "--out", str(out),
            ]) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_baseline_eval(self, tmp_path, tiny_dataset):
        out = tmp_path / "ev"
        rc = main([
            "eval", "--dataset", str(tiny_dataset), "--baseline", "zero-motion",
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tracker"] == "zero-motion"
        assert report["overall"]["n_frames"] == 12

    def test_distractor_sweep_rows_and_k0_identity(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", n_tracklets=3, n_frames=4, n_distractors=0)
        ds = tmp_path / "ds"
        assert main(["generate", "--out", str(ds), "--config", cfg]) == 0
        plain_out = tmp_path / "plain"
        assert main([
            "eval", "--dataset", str(ds), "--baseline", "zero-motion",
            "--out", str(plain_out), "--config", cfg,
        ]) == 0
        sweep_out = tmp_path / "sweep"
        rc = main([
            "eval", "--baseline", "zero-motion", "--out", str(sweep_out),
            "--config", cfg, "--distractor-sweep", "0,2",
        ])
        assert rc == 0
        sweep = json.loads((sweep_out / "distractor_sweep.json").read_text())
        assert [row["k"] for row in sweep["rows"]] == [0, 2]
        plain = json.loads((plain_out / "report.json").read_text())
        k0 = sweep["rows"][0]["report"]["overall"]
        assert abs(k0["success"] - plain["overall"]["success"]) < 1e-9
        assert abs(k0["precision"] - plain["overall"]["precision"]) < 1e-9
        assert "K" in capsys.readouterr().out

    def test_predictions_with_sweep_rejected(self, tmp_path, tiny_dataset):
        preds = self.gt_predictions(tiny_dataset, tmp_path / "p.jsonl")
        rc = main([
            "eval", "--predictions", str(preds), "--out", str(tmp_path / "o"),
            "--distractor-sweep", "0,2",
        ])
        assert rc == 2

    def test_plain_eval_requires_dataset(self, tmp_path):
        rc = main(["eval", "--baseline", "zero-motion", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_truncated_predictions_fail(self, tmp_path, tiny_dataset, capsys):
        preds = self.gt_predictions(tiny_dataset, tmp_path / "p.jsonl")
        lines = preds.read_text().splitlines()
        preds.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        rc = main([
            "eval", "--dataset", str(tiny_dataset), "--predictions", str(preds),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1

    def test_malformed_predictions_name_the_file(self, tmp_path, tiny_dataset, capsys):
        preds = self.gt_predictions(tiny_dataset, tmp_path / "p.jsonl")
        text = preds.read_text()
        preds.write_text(text[:-20], encoding="utf-8")  # cut the last line short
        rc = main([
            "eval", "--dataset", str(tiny_dataset), "--predictions", str(preds),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{preds}:{text.count(chr(10))}: ")


class TestEntryPoint:
    def test_subprocess_error_contract(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from lidartrack.cli import main; sys.exit(main(sys.argv[1:]))",
             "train", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert set(err) >= {"error", "message"}
