"""Experiment configuration: one flat, schema-checked namespace.

A run is described by a single layer of scalar keys (plus one int list for
the network widths) so that config files stay diffable and the resolved
snapshot written next to every run's outputs fully reproduces it together
with the seed. Resolution order: built-in defaults, then a named preset,
then the config file, then explicit flag overrides; unknown keys and wrong
types are hard errors.  A config file must be valid over its preset on its
own, so every error its contents cause names the file.

Each key is declared, defaulted and range-checked once, in the unit a user
writes, by the module config that uses it (``SceneSpec``, ``ModelConfig``,
``TrainConfig``, ``AugmentConfig``). ``ExperimentConfig`` is generated from
their fields, less those ``_UNEXPOSED`` lists, and builds each module config
back by shared field name, so a module's complaint names the user's key.

Two presets ship with the package. ``paper`` carries the full-scale
training values (batch 256, 40 epochs, learning rate 1e-3 decayed 10x
every 20 epochs, 1024 points per crop). ``desk`` scales the same recipe
down to a single commodity CPU: batch 32, 12 epochs, 128-point crops, and
scenes with 3 distractors, which is the setting the acceptance run uses.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, make_dataclass
from pathlib import Path
from typing import Any, Mapping, Optional, TypeVar, get_type_hints

from lidartrack.augment import AugmentConfig
from lidartrack.data import MOTION_MODELS, SceneSpec
from lidartrack.nn import ModelConfig
from lidartrack.pipeline import TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "PRESETS"]


class ConfigError(ValueError):
    """Invalid configuration input; the CLI maps this to exit code 2."""


# Each module config a run is built from, with its fields that no user sets.
_UNEXPOSED = {
    SceneSpec: ("clutter_density", "initial_center", "initial_yaw"),
    ModelConfig: ("dtype",),
    TrainConfig: ("augment", "start_epoch"),
    AugmentConfig: (),
}
# The keys declared here, name -> (type, default): `n_tracklets`, which no
# module config has, and `motion`, whose "mixed" SceneSpec does not take.
_OWN_KEYS = {"n_tracklets": (int, 100), "motion": (str, "mixed")}


def _keys() -> dict[str, tuple[Any, Any]]:
    """Every config key -> (type, default), taken from the module configs'
    fields; a name several of them declare must agree on both."""
    keys = dict(_OWN_KEYS)
    for kind, unexposed in _UNEXPOSED.items():
        hints = get_type_hints(kind)
        for f in fields(kind):
            if f.name in unexposed or f.name in _OWN_KEYS:
                continue
            spec = (hints[f.name], f.default)
            if keys.setdefault(f.name, spec) != spec:
                raise TypeError(f"{kind.__name__}.{f.name} is {spec}, another module config's is {keys[f.name]}")
    return keys


class _ExperimentConfigBase:
    """Everything a run needs beyond file paths, seeds included; the fields
    of `ExperimentConfig` come from `_keys()`, its methods from here."""

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
            raise ConfigError(str(exc)) from exc

    # -- derived module configs ------------------------------------------

    def scene_template(self) -> SceneSpec:
        # a concrete stand-in motion; the cycle below handles "mixed"
        motion = "constant_velocity" if self.motion == "mixed" else self.motion
        return _derive(SceneSpec, self, motion=motion)

    def motion_cycle(self) -> Optional[tuple[str, ...]]:
        """Per-tracklet motion assignment; None keeps the template's motion."""
        return MOTION_MODELS if self.motion == "mixed" else None

    def model_config(self) -> ModelConfig:
        return _derive(ModelConfig, self)

    def augment_config(self) -> AugmentConfig:
        return _derive(AugmentConfig, self)

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
            except ValueError as exc:  # JSONDecodeError, and UnicodeDecodeError for bytes not UTF-8
                raise ConfigError(f"{config_file}: not valid JSON ({exc})") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"{config_file}: top level must be a JSON object")
            merged.update(raw)
            # the file must be valid over its preset, so its errors name it
            try:
                cls(**_coerced(merged))
            except ConfigError as exc:
                raise ConfigError(f"{config_file}: {exc}") from exc
        if overrides:
            merged.update(overrides)
        return cls(**_coerced(merged))


ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(name, kind, default) for name, (kind, default) in _keys().items()],
    bases=(_ExperimentConfigBase,),
    frozen=True,
    namespace={"__module__": __name__},
)

_Module = TypeVar("_Module")


def _derive(kind: type[_Module], cfg: _ExperimentConfigBase, **explicit: Any) -> _Module:
    """A `kind` module config from every field of `cfg` it shares by name,
    with `explicit` supplying (or replacing) the rest."""
    shared = {f.name for f in fields(kind)} & {f.name for f in fields(cfg)}
    return kind(**{**{name: getattr(cfg, name) for name in shared}, **explicit})


def _coerced(raw: Mapping[str, Any]) -> dict[str, Any]:
    """Check keys against the dataclass fields and coerce JSON values to their types."""
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
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
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(f"{key} must be finite, got an integer too large for a float") from None
        if not math.isfinite(number):  # json.loads accepts NaN and Infinity
            raise ConfigError(f"{key} must be finite, got {value!r}")
        return number
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
