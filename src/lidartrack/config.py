"""Experiment configuration: one flat, schema-checked namespace.

A run is described by a single layer of scalar keys (plus one int list for
the network widths) so that config files stay diffable and the resolved
snapshot written next to every run's outputs fully reproduces it together
with the seed. Resolution order: built-in defaults, then a named preset,
then the config file, then explicit flag overrides; unknown keys and wrong
types are hard errors.

Two presets ship with the package. ``paper`` carries the full-scale
training values (batch 256, 40 epochs, learning rate 1e-3 decayed 10x
every 20 epochs, 1024 points per crop). ``desk`` scales the same recipe
down to a single commodity CPU: batch 32, 12 epochs, 128-point crops, and
scenes with 3 distractors, which is the setting the acceptance run uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional, get_type_hints

import numpy as np

from lidartrack.augment import AugmentConfig
from lidartrack.data import CAR_SIZE, MOTION_MODELS, PEDESTRIAN_SIZE, SceneSpec
from lidartrack.nn import ModelConfig
from lidartrack.pipeline import TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "PRESETS"]


class ConfigError(ValueError):
    """Invalid configuration input; the CLI maps this to exit code 2."""


_CATEGORY_SIZES = {"car": CAR_SIZE, "pedestrian": PEDESTRIAN_SIZE}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs beyond file paths, seeds included."""

    # reproducibility
    seed: int = 0
    # synthetic scenes
    n_tracklets: int = 100
    n_frames: int = 20
    n_distractors: int = 0
    motion: str = "mixed"
    speed_min: float = 0.0
    speed_max: float = 2.0
    category: str = "car"
    noise_sigma: float = 0.02
    # network
    point_widths: tuple[int, ...] = (64, 128, 256)
    head_hidden: int = 128
    # training
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    lr_decay: float = 0.1
    lr_decay_every: int = 20
    n_points: int = 1024
    margin: float = 2.0
    resample_each_epoch: bool = True
    lambda_cls_target: float = 0.1
    lambda_cls_motion: float = 0.1
    lambda_reg: float = 1.0
    # augmentation
    flip_prob: float = 0.5
    rot_range_deg: float = 10.0
    trans_range: float = 0.3
    prev_box_shift: float = 0.3
    prev_box_yaw_shift_deg: float = 10.0

    def __post_init__(self):
        if self.motion != "mixed" and self.motion not in MOTION_MODELS:
            raise ConfigError(
                f"motion must be 'mixed' or one of {MOTION_MODELS}, got {self.motion!r}"
            )
        if self.category not in _CATEGORY_SIZES:
            raise ConfigError(
                f"category must be one of {sorted(_CATEGORY_SIZES)}, got {self.category!r}"
            )
        if not self.point_widths or any(w < 1 for w in self.point_widths):
            raise ConfigError("point_widths must be a non-empty list of positive ints")
        # the sub-configs own the numeric range rules; surface their
        # complaints as config errors so the CLI exits with a usage status
        try:
            self.scene_template()
            self.model_config()
            self.augment_config()
            self.train_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # -- derived module configs ------------------------------------------

    def scene_template(self) -> SceneSpec:
        # a concrete stand-in motion; the cycle below handles "mixed"
        motion = "constant_velocity" if self.motion == "mixed" else self.motion
        return SceneSpec(
            target_size=_CATEGORY_SIZES[self.category],
            category=self.category,
            motion=motion,
            speed_range=(self.speed_min, self.speed_max),
            n_frames=self.n_frames,
            n_distractors=self.n_distractors,
            noise_sigma=self.noise_sigma,
            seed=self.seed,
        )

    def motion_cycle(self) -> Optional[tuple[str, ...]]:
        """Per-tracklet motion assignment; None keeps the template's motion."""
        return MOTION_MODELS if self.motion == "mixed" else None

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            point_widths=self.point_widths, head_hidden=self.head_hidden, seed=self.seed
        )

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(
            flip_prob=self.flip_prob,
            rot_range=float(np.deg2rad(self.rot_range_deg)),
            trans_range=self.trans_range,
            prev_box_shift=self.prev_box_shift,
            prev_box_yaw_shift=float(np.deg2rad(self.prev_box_yaw_shift_deg)),
        )

    def train_config(self, start_epoch: int = 0) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            lr_decay=self.lr_decay,
            lr_decay_every=self.lr_decay_every,
            n_points=self.n_points,
            margin=self.margin,
            seed=self.seed,
            augment=self.augment_config(),
            resample_each_epoch=self.resample_each_epoch,
            lambda_cls_target=self.lambda_cls_target,
            lambda_cls_motion=self.lambda_cls_motion,
            lambda_reg=self.lambda_reg,
            start_epoch=start_epoch,
        )

    # -- resolution and serialization ------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_sources(
        cls,
        preset: Optional[str] = None,
        config_file: Optional[str] = None,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> "ExperimentConfig":
        merged: dict[str, Any] = {}
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
            merged.update(PRESETS[preset])
        if config_file is not None:
            try:
                raw = json.loads(open(config_file, "r", encoding="utf-8").read())
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{config_file}: not valid JSON ({exc})") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"{config_file}: top level must be a JSON object")
            merged.update(raw)
        if overrides:
            merged.update(overrides)
        return cls(**_coerced(merged))


def _coerced(raw: Mapping[str, Any]) -> dict[str, Any]:
    """Check keys against the dataclass fields and coerce JSON values to their types."""
    kinds = get_type_hints(ExperimentConfig)
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return {key: _coerce_one(key, value, kinds[key]) for key, value in raw.items()}


def _coerce_one(key: str, value: Any, kind: Any) -> Any:
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        return float(value)
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
    if kind == tuple[int, ...]:
        if (
            isinstance(value, bool)
            or not isinstance(value, (list, tuple))
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in value)
        ):
            raise ConfigError(f"{key} must be a list of integers, got {value!r}")
        return tuple(int(v) for v in value)
    raise AssertionError(f"unhandled field type {kind}")


PRESETS: dict[str, dict[str, Any]] = {
    # full-scale training values; not runnable in reasonable time on a desk
    "paper": {
        "epochs": 40,
        "batch_size": 256,
        "lr": 1e-3,
        "lr_decay": 0.1,
        "lr_decay_every": 20,
        "n_points": 1024,
    },
    # same recipe scaled to one CPU; used by the acceptance run
    "desk": {
        "epochs": 12,
        "batch_size": 32,
        "lr": 1e-3,
        "lr_decay": 0.1,
        "lr_decay_every": 20,
        "n_points": 128,
        "n_frames": 20,
        "n_distractors": 3,
    },
}
