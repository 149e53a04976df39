"""Experiment configuration: one flat, schema-checked namespace.

A run is described by a single layer of scalar keys (plus one int list for
the network widths) so that config files stay diffable and the resolved
snapshot written next to every run's outputs fully reproduces it together
with the seed. Resolution order: built-in defaults, then a named preset,
then the config file, then explicit flag overrides; unknown keys and wrong
types are hard errors.

Each setting is declared, defaulted and range-checked once, in the module
config that uses it (``TrainConfig``, ``ModelConfig``, ``AugmentConfig``,
``SceneSpec``). Those are built from this namespace by shared field name;
only the keys whose form differs are converted here: the two ``*_deg``
angles, the ``speed_min``/``speed_max`` pair and the ``"mixed"`` motion.

Two presets ship with the package. ``paper`` carries the full-scale
training values (batch 256, 40 epochs, learning rate 1e-3 decayed 10x
every 20 epochs, 1024 points per crop). ``desk`` scales the same recipe
down to a single commodity CPU: batch 32, 12 epochs, 128-point crops, and
scenes with 3 distractors, which is the setting the acceptance run uses.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Optional, TypeVar, get_type_hints

import numpy as np

from lidartrack.augment import AugmentConfig
from lidartrack.data import MOTION_MODELS, SceneSpec
from lidartrack.nn import ModelConfig
from lidartrack.pipeline import TrainConfig
from lidartrack.pointcloud import DEFAULT_MARGIN, DEFAULT_POINTS

__all__ = ["ConfigError", "ExperimentConfig", "PRESETS"]


class ConfigError(ValueError):
    """Invalid configuration input; the CLI maps this to exit code 2."""


# The keys converted below (`augment_config`, `scene_template`) reach their
# module config under another name: module field -> the key a user writes,
# so a module's complaint names the user's key.
_USER_KEYS = {
    "rot_range": "rot_range_deg",
    "prev_box_yaw_shift": "prev_box_yaw_shift_deg",
    "speed_range": "(speed_min, speed_max)",
}
_USER_FIELD = re.compile(r"\b(?:" + "|".join(_USER_KEYS) + r")\b")


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
    n_points: int = DEFAULT_POINTS
    margin: float = DEFAULT_MARGIN
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
        # only this namespace knows "mixed"; every other value is checked by
        # the module config that uses it, and its complaint surfaces as a
        # config error so the CLI exits with a usage status
        if self.motion != "mixed" and self.motion not in MOTION_MODELS:
            raise ConfigError(
                f"motion must be 'mixed' or one of {MOTION_MODELS}, got {self.motion!r}"
            )
        if self.n_tracklets < 1:
            raise ConfigError(f"n_tracklets must be at least 1, got {self.n_tracklets}")
        try:
            self.scene_template()
            self.model_config()
            self.train_config()
        except ValueError as exc:
            raise ConfigError(_USER_FIELD.sub(lambda m: _USER_KEYS[m.group(0)], str(exc))) from exc

    # -- derived module configs ------------------------------------------

    def scene_template(self) -> SceneSpec:
        # a concrete stand-in motion; the cycle below handles "mixed"
        motion = "constant_velocity" if self.motion == "mixed" else self.motion
        return _derive(SceneSpec, self, motion=motion, speed_range=(self.speed_min, self.speed_max))

    def motion_cycle(self) -> Optional[tuple[str, ...]]:
        """Per-tracklet motion assignment; None keeps the template's motion."""
        return MOTION_MODELS if self.motion == "mixed" else None

    def model_config(self) -> ModelConfig:
        return _derive(ModelConfig, self)

    def augment_config(self) -> AugmentConfig:
        return _derive(
            AugmentConfig,
            self,
            rot_range=float(np.deg2rad(self.rot_range_deg)),
            prev_box_yaw_shift=float(np.deg2rad(self.prev_box_yaw_shift_deg)),
        )

    def train_config(self, start_epoch: int = 0) -> TrainConfig:
        return _derive(TrainConfig, self, augment=self.augment_config(), start_epoch=start_epoch)

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
                raw = json.loads(Path(config_file).read_text(encoding="utf-8"))
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


_Module = TypeVar("_Module")


def _derive(kind: type[_Module], cfg: ExperimentConfig, **explicit: Any) -> _Module:
    """A `kind` module config from every field of `cfg` it shares by name,
    with `explicit` supplying (or replacing) the rest."""
    shared = {f.name for f in fields(kind)} & {f.name for f in fields(cfg)}
    return kind(**{**{name: getattr(cfg, name) for name in shared}, **explicit})


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
        if not math.isfinite(value):  # json.loads accepts NaN and Infinity
            raise ConfigError(f"{key} must be finite, got {value!r}")
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
