"""Spatial-temporal point clouds and their per-point feature channels.

A tracking step looks at two frames at once. Both are cropped around the
previous box, merged into one cloud with a temporal flag per point
(0 = previous frame, 1 = current frame), and enriched with two channels
derived from the previous box:

- a prior-targetness value in {0, 0.5, 1}: previous-frame points keep their
  known inside/outside status, current-frame points get the agnostic 0.5;
- a 9-column distance map holding each previous-frame point's Euclidean
  distances to the box's 8 corners and center, zero rows for current-frame
  points.

The network consumes ``points(4) | targetness(1) | distmap(9)`` in exactly
that column order (see :func:`assemble_features`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from lidartrack.geometry import Box3D, RTM, box_key_points, points_in_box, yaw_matrix

__all__ = [
    "DEFAULT_MARGIN",
    "DEFAULT_POINTS",
    "EmptyRegionError",
    "Frame",
    "STCloud",
    "assemble_features",
    "box_aware_distmap",
    "build_st_cloud",
    "check_crop_settings",
    "crop_and_pad",
    "crop_and_sample",
    "motion_assisted_merge",
    "prior_targetness_map",
    "split_by_time",
    "with_channels",
]


class EmptyRegionError(ValueError):
    """A crop region contained zero points.

    The tracking loop catches this and degrades per its documented policy
    (substitute a degenerate point for the previous frame, or emit the
    previous box unchanged when the current frame is empty).
    """


@dataclass(frozen=True, eq=False)
class Frame:
    """A single LiDAR sweep: (N, 3) world-frame points plus a frame index."""

    points: np.ndarray
    timestamp: int = 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(pts)):
            row = int(np.argmin(np.isfinite(pts).all(axis=1)))
            raise ValueError(f"frame points must be finite; row {row} is {pts[row]}")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "timestamp", int(self.timestamp))

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class STCloud:
    """A two-frame cloud: (N, 4) rows of (x, y, z, temporal flag).

    ``targetness`` and ``distmap`` start as None and are attached by
    :func:`with_channels` once the previous box is known.
    """

    points: np.ndarray
    targetness: Optional[np.ndarray] = None
    distmap: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 4)
        t = pts[:, 3]
        if not np.all((t == 0.0) | (t == 1.0)):
            raise ValueError("temporal channel must be 0 or 1")
        if np.any(np.diff(t) < 0):
            raise ValueError("previous-frame rows must precede current-frame rows")
        object.__setattr__(self, "points", pts)
        n = pts.shape[0]
        if self.targetness is not None:
            tg = np.asarray(self.targetness, dtype=np.float64).reshape(n)
            object.__setattr__(self, "targetness", tg)
        if self.distmap is not None:
            dm = np.asarray(self.distmap, dtype=np.float64).reshape(n, 9)
            object.__setattr__(self, "distmap", dm)

    @property
    def prev_rows(self) -> np.ndarray:
        return self.points[:, 3] == 0.0

    @property
    def xyz(self) -> np.ndarray:
        return self.points[:, :3]

    def __len__(self) -> int:
        return self.points.shape[0]


# default crop settings: meters added to every face of the previous box,
# and the most points a crop keeps
DEFAULT_MARGIN = 2.0
DEFAULT_POINTS = 1024


def check_crop_settings(margin: float, n_points: int) -> None:
    """Raise ``ValueError`` naming the setting unless ``margin`` is finite and
    >= 0 and ``n_points`` is an integer >= 1."""
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 1):
        raise ValueError(f"n_points must be an integer >= 1, got {n_points!r}")
    if not 0 <= margin < np.inf:
        raise ValueError(f"margin must be finite and >= 0, got {margin!r}")


def crop_and_sample(
    f: Frame, b: Box3D, margin: float = DEFAULT_MARGIN, n: int = DEFAULT_POINTS, rng_seed: int = 0
) -> Frame:
    """Crop a frame to the box enlarged by ``margin`` and keep at most ``n`` points.

    The margin pads every face, i.e. the enlarged size is ``size + 2*margin``.
    With at least ``n`` candidates the sample is uniform without replacement,
    deterministic given ``rng_seed``; with fewer, every candidate is returned
    once, in coordinate order.  No row repeats: the network's per-point
    layers and max-pools give a point's copies nothing a single row does
    not, so tracking sees each distinct point once and only training pads
    (:func:`crop_and_pad`).

    Candidates are ordered by coordinates before sampling, so the result
    depends only on the set of points in the frame, not on their row order.

    Raises ``EmptyRegionError`` when the region holds no points at all.
    """
    check_crop_settings(margin, n)
    enlarged = Box3D(center=b.center, size=b.size + 2.0 * margin, yaw=b.yaw)
    inside = points_in_box(f.points, enlarged) if len(f) else np.zeros(0, dtype=bool)
    candidates = np.flatnonzero(inside)
    cand_pts = f.points[candidates]
    candidates = candidates[np.lexsort((cand_pts[:, 2], cand_pts[:, 1], cand_pts[:, 0]))]
    if candidates.size == 0:
        raise EmptyRegionError(
            f"no points inside box at {np.round(b.center, 3)} enlarged by {margin} m"
        )
    if candidates.size >= n:
        candidates = np.random.default_rng(rng_seed).choice(candidates, size=n, replace=False)
    return Frame(points=f.points[candidates], timestamp=f.timestamp)


def crop_and_pad(
    f: Frame, b: Box3D, margin: float = DEFAULT_MARGIN, n: int = DEFAULT_POINTS, rng_seed: int = 0
) -> Frame:
    """:func:`crop_and_sample` padded to exactly ``n`` rows, for batched training.

    Training stacks equal-size samples and weights every row of the loss
    alike, so a crop of ``c < n`` points is upsampled: each point appears
    ``floor(n/c)`` or ``floor(n/c)+1`` times, then the rows are shuffled.
    The draw uses ``rng_seed``'s stream, which :func:`crop_and_sample`
    leaves untouched whenever there is something to pad.
    """
    crop = crop_and_sample(f, b, margin=margin, n=n, rng_seed=rng_seed)
    c = len(crop)
    if c == n:
        return crop
    rng = np.random.default_rng(rng_seed)
    reps, rem = divmod(n, c)
    idx = np.concatenate([np.tile(np.arange(c), reps), rng.choice(c, size=rem, replace=False)])
    return Frame(points=crop.points[rng.permutation(idx)], timestamp=crop.timestamp)


def build_st_cloud(prev: Frame, cur: Frame) -> STCloud:
    """Stack two frames into one cloud with a temporal flag column.

    Row order is previous-frame rows (flag 0) then current-frame rows
    (flag 1); xyz columns pass through bit-identically.
    """
    n1, n2 = len(prev), len(cur)
    pts = np.empty((n1 + n2, 4), dtype=np.float64)
    pts[:n1, :3] = prev.points
    pts[:n1, 3] = 0.0
    pts[n1:, :3] = cur.points
    pts[n1:, 3] = 1.0
    return STCloud(points=pts)


def prior_targetness_map(st: STCloud, b_prev: Box3D) -> np.ndarray:
    """Per-point prior confidence of being a target point.

    Previous-frame points inside ``b_prev`` get 1, outside get 0; every
    current-frame point gets exactly 0.5.
    """
    tg = np.full(len(st), 0.5)
    prev = st.prev_rows
    tg[prev] = points_in_box(st.points[prev, :3], b_prev).astype(np.float64)
    return tg


def box_aware_distmap(st: STCloud, b_prev: Box3D) -> np.ndarray:
    """Distances from previous-frame points to the box's 9 key points.

    Row i holds the Euclidean distances to the 8 corners followed by the
    center (order per ``geometry.box_key_points``) when point i belongs to
    the previous frame, and is identically zero otherwise.
    """
    dm = np.zeros((len(st), 9))
    prev = st.prev_rows
    if np.any(prev):
        kp = box_key_points(b_prev)
        diff = st.points[prev, :3][:, None, :] - kp[None, :, :]
        dm[prev] = np.sqrt(np.sum(diff * diff, axis=-1))
    return dm


def with_channels(st: STCloud, b_prev: Box3D) -> STCloud:
    """Attach targetness and distance-map channels derived from ``b_prev``."""
    return replace(
        st,
        targetness=prior_targetness_map(st, b_prev),
        distmap=box_aware_distmap(st, b_prev),
    )


def assemble_features(st: STCloud) -> np.ndarray:
    """The (N, 14) network input: points(4) | targetness(1) | distmap(9)."""
    if st.targetness is None or st.distmap is None:
        raise ValueError("STCloud is missing targetness/distmap channels")
    return np.concatenate(
        [st.points, st.targetness[:, None], st.distmap], axis=1
    )


def split_by_time(st: STCloud, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Route masked points into (previous, current) xyz arrays."""
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape[0] != len(st):
        raise ValueError(f"mask length {mask.shape[0]} != cloud size {len(st)}")
    prev = st.prev_rows
    return st.points[mask & prev, :3], st.points[mask & ~prev, :3]


def motion_assisted_merge(
    p_prev: np.ndarray,
    p_cur: np.ndarray,
    m: RTM,
    prev_box: Box3D,
    dynamic: bool,
) -> np.ndarray:
    """Densify the current target by transporting previous points forward.

    For a dynamic target, previous-frame points are rotated by ``dtheta``
    about ``prev_box.center`` and translated by ``(dx, dy, dz)``, the
    point-level realization of the box motion convention, then concatenated
    with the current points. A static target is concatenated unchanged.
    """
    p_prev = np.asarray(p_prev, dtype=np.float64).reshape(-1, 3)
    p_cur = np.asarray(p_cur, dtype=np.float64).reshape(-1, 3)
    # exact identity motion transports nothing; skip the arithmetic so the
    # dynamic branch stays bit-identical to the static one
    identity = m.dtheta == 0.0 and m.dx == 0.0 and m.dy == 0.0 and m.dz == 0.0
    if dynamic and not identity:
        rot = yaw_matrix(m.dtheta)
        moved = (p_prev - prev_box.center) @ rot.T + prev_box.center + m.translation
        return np.vstack([moved, p_cur])
    return np.vstack([p_prev, p_cur])
