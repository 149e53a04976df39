"""Training-time perturbations.

Two independent mechanisms:

* `perturb_prev_box` simulates tracker drift by jittering the previous
  frame's box horizontally and in yaw, so training never sees a perfect
  prior box.
* `motion_augment` diversifies relative motion.  A fair-coin mirror across
  the scene's xz-plane is applied jointly to both frames (keeping the pair
  a consistent scene), then each frame independently rotates its target
  points and box about the box center and translates them per axis.  Only
  target points participate; scene clutter is cropped later and is not
  part of the inputs here.

Every sampled value is returned in an AugmentSample so callers and tests
can reconstruct the applied transforms exactly.  Draws occur only for
knobs with a nonzero range, which makes the all-zero config a bit-exact
identity; draw order is flip coin, previous rotation, current rotation,
previous translation, current translation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lidartrack.geometry import Box3D, yaw_matrix

__all__ = ["AugmentConfig", "AugmentSample", "perturb_prev_box", "motion_augment"]


@dataclass(frozen=True)
class AugmentConfig:
    flip_prob: float = 0.5
    rot_range: float = float(np.deg2rad(10.0))
    trans_range: float = 0.3
    prev_box_shift: float = 0.3
    prev_box_yaw_shift: float = float(np.deg2rad(10.0))

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        for name in ("rot_range", "trans_range", "prev_box_shift", "prev_box_yaw_shift"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class AugmentSample:
    """The transform values actually drawn for one augmented pair."""

    flipped: bool
    rot_prev: float
    rot_cur: float
    trans_prev: np.ndarray
    trans_cur: np.ndarray


def perturb_prev_box(b: Box3D, cfg: AugmentConfig, rng: np.random.Generator) -> Box3D:
    """Jitter a box horizontally and in yaw; size and height stay fixed."""
    center = np.array(b.center)
    if cfg.prev_box_shift > 0:
        center[:2] += rng.uniform(-cfg.prev_box_shift, cfg.prev_box_shift, size=2)
    yaw = b.yaw
    if cfg.prev_box_yaw_shift > 0:
        yaw = yaw + rng.uniform(-cfg.prev_box_yaw_shift, cfg.prev_box_yaw_shift)
    return Box3D(center=center, size=b.size, yaw=yaw)


def _mirror_points(points: np.ndarray) -> np.ndarray:
    out = points.copy()
    out[:, 1] = -out[:, 1]
    return out


def _mirror_box(b: Box3D) -> Box3D:
    center = np.array(b.center)
    center[1] = -center[1]
    return Box3D(center=center, size=b.size, yaw=-b.yaw)


def _rigid_frame_transform(
    points: np.ndarray, box: Box3D, rot: float, trans: np.ndarray
) -> tuple[np.ndarray, Box3D]:
    if rot != 0.0:
        r = yaw_matrix(rot)
        points = (points - box.center) @ r.T + box.center
        box = Box3D(center=box.center, size=box.size, yaw=box.yaw + rot)
    if np.any(trans != 0.0):
        points = points + trans
        box = Box3D(center=box.center + trans, size=box.size, yaw=box.yaw)
    return points, box


def motion_augment(
    prev_target_pts: np.ndarray,
    prev_box: Box3D,
    cur_target_pts: np.ndarray,
    cur_box: Box3D,
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, Box3D, np.ndarray, Box3D, AugmentSample]:
    """Joint mirror plus per-frame rotation and translation of GT targets."""
    prev_pts = np.asarray(prev_target_pts, dtype=np.float64)
    cur_pts = np.asarray(cur_target_pts, dtype=np.float64)

    flipped = bool(cfg.flip_prob > 0 and rng.uniform() < cfg.flip_prob)
    if flipped:
        prev_pts, prev_box = _mirror_points(prev_pts), _mirror_box(prev_box)
        cur_pts, cur_box = _mirror_points(cur_pts), _mirror_box(cur_box)

    rot_prev = float(rng.uniform(-cfg.rot_range, cfg.rot_range)) if cfg.rot_range > 0 else 0.0
    rot_cur = float(rng.uniform(-cfg.rot_range, cfg.rot_range)) if cfg.rot_range > 0 else 0.0
    if cfg.trans_range > 0:
        trans_prev = rng.uniform(-cfg.trans_range, cfg.trans_range, size=3)
        trans_cur = rng.uniform(-cfg.trans_range, cfg.trans_range, size=3)
    else:
        trans_prev = np.zeros(3)
        trans_cur = np.zeros(3)

    prev_pts, prev_box = _rigid_frame_transform(prev_pts, prev_box, rot_prev, trans_prev)
    cur_pts, cur_box = _rigid_frame_transform(cur_pts, cur_box, rot_cur, trans_cur)
    sample = AugmentSample(
        flipped=flipped,
        rot_prev=rot_prev,
        rot_cur=rot_cur,
        trans_prev=trans_prev.copy(),
        trans_cur=trans_cur.copy(),
    )
    return prev_pts, prev_box, cur_pts, cur_box, sample
