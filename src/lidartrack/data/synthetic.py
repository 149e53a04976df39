"""Synthetic LiDAR scene generator.

Scenes put the sensor at the origin.  The target box starts on a ring 6 to
14 m out at a drawn heading, seated on the ground plane, and
follows one of three motion models: static (exactly zero motion), constant
velocity (one sampled speed, driving along the initial heading), or
turning (constant speed plus a constant yaw rate, with the displacement
rotating along).  Distractors are car-sized boxes placed on an annulus
around the target with independently sampled motion; they never overlap
anything at frame 0 but may cross paths later, which is the point of the
distractor experiments.

Points are sampled fresh every frame, uniformly over each box face whose
outward normal points toward the sensor (a cheap stand-in for LiDAR
self-occlusion), then perturbed with isotropic Gaussian noise.  Ground
clutter is uniform over a fixed square extent.  Everything is drawn from a
single generator seeded by ``SceneSpec.seed``, so identical scene specs give
bit-identical tracklets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from lidartrack.data.tracklets import Tracklet, TrackletOracle
from lidartrack.geometry import Box3D, iou3d, wrap_angle, yaw_matrix
from lidartrack.pointcloud import Frame

__all__ = [
    "CAR_SIZE",
    "PEDESTRIAN_SIZE",
    "SceneSpec",
    "generate_synthetic_tracklet",
    "make_synthetic_dataset",
]

CAR_SIZE = (1.8, 4.0, 1.6)          # width, length, height
PEDESTRIAN_SIZE = (0.6, 0.8, 1.7)

MOTION_MODELS = ("static", "constant_velocity", "turning")
_SCENE_HALF_EXTENT = 20.0           # clutter square, meters
_CLUTTER_HEIGHT = 2.0
_TARGET_RING = (6.0, 14.0)
_DISTRACTOR_RING = (3.0, 10.0)
_TARGET_SIZES = {"car": CAR_SIZE, "pedestrian": PEDESTRIAN_SIZE}
_POINT_DENSITY = 50.0               # points per m^2 of visible surface
_CLUTTER_DENSITY = 0.05             # points per m^2 of ground extent
_YAW_RATE_RANGE = (-np.deg2rad(5.0), np.deg2rad(5.0))   # turning, rad per frame


@dataclass(frozen=True)
class SceneSpec:
    """Full description of one synthetic tracklet; seed makes it exact.

    The target's size follows from its category (``CAR_SIZE`` or
    ``PEDESTRIAN_SIZE``).  A moving box's speed is drawn uniformly from
    [``speed_min``, ``speed_max``] m per frame.  Every box face is sampled
    at 50 points per m^2 of visible surface, ground clutter at 0.05 per m^2,
    and a turning target's yaw rate is drawn from ±5 degrees per frame.  The
    target's initial center and heading are drawn from ``seed``.
    """

    category: str = "car"
    motion: str = "constant_velocity"
    speed_min: float = 0.0          # m per frame
    speed_max: float = 2.0
    n_frames: int = 20
    n_distractors: int = 0
    noise_sigma: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.category not in _TARGET_SIZES:
            raise ValueError(f"category must be one of {sorted(_TARGET_SIZES)}, got {self.category!r}")
        if self.motion not in MOTION_MODELS:
            raise ValueError(f"motion must be one of {MOTION_MODELS}, got {self.motion!r}")
        if self.n_frames < 1:
            raise ValueError("n_frames must be at least 1")
        if self.n_distractors < 0:
            raise ValueError("n_distractors must be non-negative")
        for name in ("noise_sigma", "speed_min", "speed_max"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if self.speed_min > self.speed_max:
            raise ValueError(f"speed_min must not exceed speed_max, got {self.speed_min} > {self.speed_max}")

    @property
    def target_size(self) -> tuple[float, float, float]:
        return _TARGET_SIZES[self.category]


def _box_track(
    spec: SceneSpec,
    rng: np.random.Generator,
    size,
    center0: np.ndarray,
    yaw0: float,
    motion: str,
) -> list[Box3D]:
    boxes = [Box3D(center=center0, size=size, yaw=yaw0)]
    if motion == "static":
        return boxes * spec.n_frames
    speed = rng.uniform(spec.speed_min, spec.speed_max)
    yaw_rate = rng.uniform(*_YAW_RATE_RANGE) if motion == "turning" else 0.0
    center, yaw = np.array(center0, dtype=float), yaw0
    for _ in range(spec.n_frames - 1):
        center = center + speed * np.array([np.cos(yaw), np.sin(yaw), 0.0])
        yaw = wrap_angle(yaw + yaw_rate)
        boxes.append(Box3D(center=center, size=size, yaw=yaw))
    return boxes


# index pairs: for each local axis, the two axes spanning its faces
_FACE_SPANS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def _surface_points(box: Box3D, rng: np.random.Generator, noise_sigma: float) -> np.ndarray:
    """Uniform samples on faces visible from the origin, plus isotropic noise."""
    full = np.array([box.length, box.width, box.height])
    rot = yaw_matrix(box.yaw)
    chunks = []
    for axis in range(3):
        for sign in (1.0, -1.0):
            normal_local = np.zeros(3)
            normal_local[axis] = sign
            face_center_local = normal_local * full[axis] / 2.0
            face_center = rot @ face_center_local + box.center
            if np.dot(rot @ normal_local, -face_center) <= 0:
                continue
            i, j = _FACE_SPANS[axis]
            count = int(round(full[i] * full[j] * _POINT_DENSITY))
            if count == 0:
                continue
            local = np.tile(face_center_local, (count, 1))
            local[:, i] = rng.uniform(-full[i] / 2, full[i] / 2, size=count)
            local[:, j] = rng.uniform(-full[j] / 2, full[j] / 2, size=count)
            chunks.append(local @ rot.T + box.center)
    if not chunks:
        return np.zeros((0, 3))
    points = np.vstack(chunks)
    if noise_sigma > 0:
        points = points + rng.normal(0.0, noise_sigma, size=points.shape)
    return points


def _place_distractor(rng: np.random.Generator, target0: Box3D, placed: list[Box3D]) -> tuple[np.ndarray, float]:
    lo, hi = _DISTRACTOR_RING
    for attempt in range(200):
        # widen the ring if the neighborhood is crowded
        radius = rng.uniform(lo, hi + 2.0 * (attempt // 20))
        angle = rng.uniform(-np.pi, np.pi)
        center = np.array(target0.center) + radius * np.array([np.cos(angle), np.sin(angle), 0.0])
        center[2] = CAR_SIZE[2] / 2.0
        yaw = rng.uniform(-np.pi, np.pi)
        candidate = Box3D(center=center, size=CAR_SIZE, yaw=yaw)
        if iou3d(candidate, target0) == 0.0 and all(iou3d(candidate, p) == 0.0 for p in placed):
            return center, yaw
    raise RuntimeError("could not place a distractor without overlap")


def generate_synthetic_tracklet(spec: SceneSpec, tracklet_id: str | None = None) -> Tracklet:
    rng = np.random.default_rng(spec.seed)

    radius = rng.uniform(*_TARGET_RING)
    angle = rng.uniform(-np.pi, np.pi)
    center0 = np.array([radius * np.cos(angle), radius * np.sin(angle), spec.target_size[2] / 2.0])
    yaw0 = rng.uniform(-np.pi, np.pi)
    target_boxes = _box_track(spec, rng, spec.target_size, center0, yaw0, spec.motion)

    distractor_tracks: list[list[Box3D]] = []
    placed: list[Box3D] = []
    for _ in range(spec.n_distractors):
        center, yaw = _place_distractor(rng, target_boxes[0], placed)
        motion = str(rng.choice(MOTION_MODELS))
        track = _box_track(spec, rng, CAR_SIZE, center, yaw, motion)
        distractor_tracks.append(track)
        placed.append(track[0])

    clutter_area = (2.0 * _SCENE_HALF_EXTENT) ** 2
    n_clutter = int(round(_CLUTTER_DENSITY * clutter_area))

    frames: list[Frame] = []
    masks: list[np.ndarray] = []
    for t in range(spec.n_frames):
        target_pts = _surface_points(target_boxes[t], rng, spec.noise_sigma)
        parts = [target_pts]
        parts += [_surface_points(track[t], rng, spec.noise_sigma) for track in distractor_tracks]
        clutter = np.empty((n_clutter, 3))
        clutter[:, :2] = rng.uniform(-_SCENE_HALF_EXTENT, _SCENE_HALF_EXTENT, size=(n_clutter, 2))
        clutter[:, 2] = rng.uniform(0.0, _CLUTTER_HEIGHT, size=n_clutter)
        parts.append(clutter)
        points = np.vstack(parts)
        mask = np.zeros(len(points), dtype=bool)
        mask[: len(target_pts)] = True
        frames.append(Frame(points=points, timestamp=t))
        masks.append(mask)

    return Tracklet(
        id=tracklet_id or f"syn-{spec.seed}",
        frames=tuple(frames),
        gt_boxes=tuple(target_boxes),
        category=spec.category,
        oracle=TrackletOracle(target_masks=masks, distractor_boxes=distractor_tracks),
    )


def make_synthetic_dataset(
    n_tracklets: int,
    template: SceneSpec,
    master_seed: int = 0,
    motions: tuple[str, ...] | None = MOTION_MODELS,
) -> list[Tracklet]:
    """Generate tracklets with per-index seeds, cycling the motion models."""
    out = []
    for idx in range(n_tracklets):
        seed = int(np.random.SeedSequence([master_seed, idx]).generate_state(1)[0])
        spec = replace(
            template,
            seed=seed,
            motion=motions[idx % len(motions)] if motions else template.motion,
        )
        out.append(generate_synthetic_tracklet(spec, tracklet_id=f"syn-{master_seed}-{idx:04d}"))
    return out
