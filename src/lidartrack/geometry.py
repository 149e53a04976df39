"""Oriented-box algebra, rigid motions, canonical frames, and rotated IoU.

Conventions
-----------
Everything else in the package builds on the conventions fixed here:

- A box is ``(center, size, yaw)`` with ``size = (width, length, height)``.
  Length runs along the box's local +x axis (the heading), width along
  local +y, height along local +z. Yaw rotates about +z (up) and is kept in
  ``(-pi, pi]``.
- A 4-DOF motion ``(dx, dy, dz, dtheta)`` moves a box by translating its
  center in the *world* frame and incrementing its yaw about its own center.
  Under this convention the motion between two boxes is the plain difference
  of their parameters, composition is addition, and inversion is negation.
- The canonical frame of a box maps a world point ``p`` to
  ``R(-yaw) @ (p - center)``: the box sits at the origin with its heading
  along +x.
- Containment is boundary-inclusive (with a 1e-9 m slack absorbing the
  rotate/unrotate round-off of points constructed exactly on a face).

All functions are pure and operate on immutable inputs; arrays handed to the
dataclasses are copied and frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Box3D",
    "RTM",
    "apply_rtm",
    "box_key_points",
    "canonical_to_world",
    "center_distance",
    "infer_rtm",
    "iou3d",
    "points_in_box",
    "world_to_canonical",
    "wrap_angle",
    "yaw_matrix",
]

# Slack for boundary-inclusive containment tests, in meters. Large enough to
# absorb one rotate/unrotate round trip at double precision, far below any
# physically meaningful distance.
CONTAINMENT_ATOL = 1e-9

# Sign pattern of the 8 box corners in the local frame, lexicographic over
# (x, y, z) with minus before plus; the center is appended as key point 9.
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


def wrap_angle(a):
    """Reduce an angle (or array of angles) to the interval ``(-pi, pi]``.

    Parameters
    ----------
    a : float or ndarray
        Angle in radians. Must be finite.

    Returns
    -------
    float or ndarray
        ``a`` reduced modulo 2*pi into ``(-pi, pi]``; in particular
        ``wrap_angle(-pi) == pi``.
    """
    if isinstance(a, (float, int)):
        # Python's float modulo takes the divisor's sign, as np.mod does, so
        # this scalar form is bit-identical to the array form below
        a = float(a)
        if not math.isfinite(a):
            raise ValueError("wrap_angle requires finite input")
        out = (a + math.pi) % (2.0 * math.pi) - math.pi
        return math.pi if out == -math.pi else out
    arr = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("wrap_angle requires finite input")
    out = np.mod(arr + np.pi, 2.0 * np.pi) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    if np.ndim(a) == 0:
        return float(out)
    return out


def yaw_matrix(yaw: float) -> np.ndarray:
    """3x3 rotation matrix about +z by ``yaw`` radians."""
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _invalid_box(center: np.ndarray, size: np.ndarray) -> ValueError:
    """The error naming the first bad part of a box that failed its check."""
    for name, arr in (("center", center), ("size", size)):
        if not np.all(np.isfinite(arr)):
            return ValueError(f"{name} must be finite, got {arr}")
    return ValueError(f"size components must be positive, got {size}")


@dataclass(frozen=True, eq=False)
class Box3D:
    """An oriented 3D bounding box.

    Parameters
    ----------
    center : array-like of 3 floats
        Box center in world coordinates, meters.
    size : array-like of 3 floats
        ``(width, length, height)`` in meters, all > 0. Length is the extent
        along the local heading (+x), width along local +y, height along +z.
    yaw : float
        Heading about +z in radians; normalized to ``(-pi, pi]`` on
        construction.
    """

    center: np.ndarray
    size: np.ndarray
    yaw: float

    def __post_init__(self):
        center = np.array(self.center, dtype=np.float64).reshape(3)
        size = np.array(self.size, dtype=np.float64).reshape(3)
        # one pass over the six floats; wrap_angle checks the yaw
        values = center.tolist() + size.tolist()
        if not (all(map(math.isfinite, values)) and min(values[3:]) > 0):
            raise _invalid_box(center, size)
        center.flags.writeable = False
        size.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))

    @property
    def width(self) -> float:
        return float(self.size[0])

    @property
    def length(self) -> float:
        return float(self.size[1])

    @property
    def height(self) -> float:
        return float(self.size[2])

    def as_vector(self) -> np.ndarray:
        """The 7-parameter form ``(cx, cy, cz, w, l, h, yaw)``."""
        return np.concatenate([self.center, self.size, [self.yaw]])

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "Box3D":
        v = np.asarray(v, dtype=np.float64).reshape(7)
        return cls(center=v[:3], size=v[3:6], yaw=float(v[6]))


@dataclass(frozen=True)
class RTM:
    """A 4-DOF relative motion ``(dx, dy, dz, dtheta)``.

    ``(dx, dy, dz)`` is a world-frame center translation in meters;
    ``dtheta`` is a yaw increment in radians, normalized to ``(-pi, pi]``.
    """

    dx: float
    dy: float
    dz: float
    dtheta: float

    def __post_init__(self):
        for name in ("dx", "dy", "dz"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "dtheta", wrap_angle(float(self.dtheta)))

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz])

    def as_vector(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz, self.dtheta])

    def inverse(self) -> "RTM":
        """The motion undoing this one (plain negation under the
        world-frame center-translation convention)."""
        return RTM(-self.dx, -self.dy, -self.dz, -self.dtheta)


def apply_rtm(b: Box3D, m: RTM) -> Box3D:
    """Move a box by a relative motion.

    The center translates by ``(dx, dy, dz)`` in the world frame and the yaw
    increments by ``dtheta``; size is motion-invariant.
    """
    return Box3D(
        center=b.center + m.translation,
        size=b.size,
        yaw=b.yaw + m.dtheta,
    )


def infer_rtm(prev: Box3D, cur: Box3D) -> RTM:
    """The motion carrying ``prev`` onto ``cur``.

    Exact inverse of :func:`apply_rtm`: the center difference plus the
    wrapped yaw difference.
    """
    d = cur.center - prev.center
    return RTM(float(d[0]), float(d[1]), float(d[2]), wrap_angle(cur.yaw - prev.yaw))


def box_key_points(b: Box3D) -> np.ndarray:
    """The 8 corners of a box followed by its center, shape (9, 3).

    Corner order is fixed: lexicographic over the local-frame sign pattern
    ``(±l/2, ±w/2, ±h/2)`` with minus before plus, rotated by yaw and
    translated by the center. The 9th row is the center.
    """
    w, l, h = b.size
    local = _CORNER_SIGNS * np.array([l / 2, w / 2, h / 2])
    corners = local @ yaw_matrix(b.yaw).T + b.center
    return np.vstack([corners, b.center])


def points_in_box(points: np.ndarray, b: Box3D, atol: float = CONTAINMENT_ATOL) -> np.ndarray:
    """Boundary-inclusive containment mask for an (N, 3) point array.

    A point is inside iff its canonical-frame coordinates satisfy
    ``|x| <= l/2``, ``|y| <= w/2``, ``|z| <= h/2`` (up to ``atol``).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    local = world_to_canonical(pts, b)
    w, l, h = b.size
    half = np.array([l / 2, w / 2, h / 2]) + atol
    return np.all(np.abs(local) <= half, axis=1)


def world_to_canonical(points: np.ndarray, b: Box3D) -> np.ndarray:
    """Express world points in the box frame: ``R(-yaw) @ (p - center)``."""
    pts = np.asarray(points, dtype=np.float64)
    return (pts - b.center) @ yaw_matrix(-b.yaw).T


def canonical_to_world(points: np.ndarray, b: Box3D) -> np.ndarray:
    """Inverse of :func:`world_to_canonical`."""
    pts = np.asarray(points, dtype=np.float64)
    return pts @ yaw_matrix(b.yaw).T + b.center


def center_distance(a: Box3D, b: Box3D) -> float:
    """Euclidean distance between two box centers, meters."""
    return float(np.linalg.norm(a.center - b.center))


# ---------------------------------------------------------------------------
# Rotated IoU via exact convex polygon clipping.
# ---------------------------------------------------------------------------

# Area below which a clipped polygon is treated as degenerate (slivers from
# nearly tangent rectangles); contributes exactly 0, never a negative value.
_DEGENERATE_AREA = 1e-12


def _bev_corners(b: Box3D) -> np.ndarray:
    """The box footprint in the ground plane as a CCW (4, 2) polygon."""
    w, l = b.width, b.length
    local = np.array([[l / 2, w / 2], [-l / 2, w / 2], [-l / 2, -w / 2], [l / 2, -w / 2]])
    c, s = np.cos(b.yaw), np.sin(b.yaw)
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + b.center[:2]


def _polygon_area(poly: list[np.ndarray]) -> float:
    """Shoelace area of a CCW polygon given as a list of 2-vectors."""
    n = len(poly)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc

def _clip_polygon(subject: list[np.ndarray], clip: np.ndarray) -> list[np.ndarray]:
    """Sutherland-Hodgman: clip a polygon by a convex CCW polygon.

    Keeps the region on the left of every clip edge. Exact line/segment
    intersections; no discretization.
    """
    output = subject
    m = len(clip)
    for e in range(m):
        if not output:
            return []
        a = clip[e]
        bb = clip[(e + 1) % m]
        ex, ey = bb[0] - a[0], bb[1] - a[1]
        inp = output
        output = []
        # signed distance (up to scale) of each vertex from the clip line
        sides = [ex * (p[1] - a[1]) - ey * (p[0] - a[0]) for p in inp]
        n = len(inp)
        for i in range(n):
            p, q = inp[i], inp[(i + 1) % n]
            sp, sq = sides[i], sides[(i + 1) % n]
            if sp >= 0.0:
                output.append(p)
                if sq < 0.0:
                    t = sp / (sp - sq)
                    output.append(p + t * (q - p))
            elif sq >= 0.0:
                t = sp / (sp - sq)
                output.append(p + t * (q - p))
    return output


def iou3d(a: Box3D, b: Box3D) -> float:
    """Exact rotated 3D IoU of two oriented boxes.

    The bird's-eye-view footprints are intersected by convex polygon
    clipping; the intersection volume is that polygon's area times the
    vertical overlap. Symmetric in its arguments; degenerate slivers count
    as zero, so the result is always in [0, 1].
    """
    z_lo = max(a.center[2] - a.height / 2, b.center[2] - b.height / 2)
    z_hi = min(a.center[2] + a.height / 2, b.center[2] + b.height / 2)
    dz = z_hi - z_lo
    if dz <= 0.0:
        return 0.0
    poly = _clip_polygon(list(_bev_corners(a)), _bev_corners(b))
    area = _polygon_area(poly)
    if area < _DEGENERATE_AREA:
        return 0.0
    inter = area * dz
    vol_a = float(np.prod(a.size))
    vol_b = float(np.prod(b.size))
    union = vol_a + vol_b - inter
    return float(min(max(inter / union, 0.0), 1.0))
