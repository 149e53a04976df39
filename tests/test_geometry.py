"""Tests for oriented-box algebra, rigid motions, and rotated IoU.

Conventions under test (fixed across the whole package):

- ``Box3D.size`` is ``(width, length, height)``; length runs along the box's
  local +x (heading), width along local +y, height along local +z.
- ``yaw`` is a rotation about +z, normalized to ``(-pi, pi]``.
- A motion ``(dx, dy, dz, dtheta)`` translates the center in the world frame
  and increments yaw about the box's own center.
- The canonical frame of a box maps a world point ``p`` to
  ``R(-yaw) @ (p - center)``.

The Monte-Carlo IoU oracle below deliberately re-derives containment with its
own inline math so that it shares no code with the implementation it checks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import canonical_to_world
from lidartrack.geometry import (
    CONTAINMENT_ATOL,
    RTM,
    Box3D,
    apply_rtm,
    box_key_points,
    center_distance,
    infer_rtm,
    iou3d,
    points_in_box,
    world_to_canonical,
    wrap_angle,
    yaw_matrix,
)


def random_box(rng: np.random.Generator, *, near: np.ndarray | None = None) -> Box3D:
    """A box with size in [0.5, 3] m; optionally centered near another box."""
    if near is None:
        center = rng.uniform(-5.0, 5.0, size=3)
    else:
        center = near + rng.uniform(-2.0, 2.0, size=3)
    size = rng.uniform(0.5, 3.0, size=3)
    yaw = rng.uniform(-np.pi, np.pi)
    return Box3D(center=center, size=size, yaw=yaw)


def mc_iou(a: Box3D, b: Box3D, n: int, seed: int) -> float:
    """Monte-Carlo IoU oracle: sample the overlap of the two AABBs uniformly.

    Box volumes are analytic (w*l*h); only the intersection volume is
    estimated. Containment is computed inline (rotate into each box frame
    with explicit cos/sin), independent of lidartrack.geometry.
    """

    def aabb(box: Box3D) -> tuple[np.ndarray, np.ndarray]:
        w, l, h = box.size
        local = np.array(
            [[sx * l / 2, sy * w / 2, sz * h / 2]
             for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        )
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        corners = local @ rot.T + box.center
        return corners.min(axis=0), corners.max(axis=0)

    def inside(points: np.ndarray, box: Box3D) -> np.ndarray:
        c, s = math.cos(-box.yaw), math.sin(-box.yaw)
        d = points - box.center
        x = c * d[:, 0] - s * d[:, 1]
        y = s * d[:, 0] + c * d[:, 1]
        z = d[:, 2]
        w, l, h = box.size
        return (np.abs(x) <= l / 2) & (np.abs(y) <= w / 2) & (np.abs(z) <= h / 2)

    lo_a, hi_a = aabb(a)
    lo_b, hi_b = aabb(b)
    lo, hi = np.maximum(lo_a, lo_b), np.minimum(hi_a, hi_b)
    if np.any(hi <= lo):
        return 0.0
    vol_region = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, 3))
    inter = vol_region * float(np.mean(inside(pts, a) & inside(pts, b)))
    vol_a = float(np.prod(a.size))
    vol_b = float(np.prod(b.size))
    return inter / (vol_a + vol_b - inter)


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_modular_reduction(self):
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi, abs=1e-15)

    def test_half_open_interval(self):
        # -pi maps to +pi: the interval is (-pi, pi].
        assert wrap_angle(-np.pi) == pytest.approx(np.pi, abs=1e-15)
        assert wrap_angle(np.pi) == pytest.approx(np.pi, abs=1e-15)

    def test_congruence_and_range(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-50, 50, size=1000)
        w = wrap_angle(a)
        assert np.all((w > -np.pi) & (w <= np.pi))
        # result == input (mod 2*pi)
        k = (a - w) / (2 * np.pi)
        np.testing.assert_allclose(k, np.round(k), atol=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(float("nan"))
        with pytest.raises(ValueError):
            wrap_angle(float("inf"))


class TestBox3D:
    def test_yaw_normalized_on_construction(self):
        b = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=3 * np.pi)
        assert b.yaw == pytest.approx(np.pi)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            Box3D(center=(0, 0, 0), size=(1, 0, 1), yaw=0.0)
        with pytest.raises(ValueError):
            Box3D(center=(0, 0, 0), size=(1, -1, 1), yaw=0.0)

    def test_rtm_dtheta_normalized(self):
        m = RTM(dx=0, dy=0, dz=0, dtheta=-np.pi)
        assert m.dtheta == pytest.approx(np.pi)


class TestApplyInferRtm:
    def test_translation_plus_yaw(self):
        b = Box3D(center=(1, 2, 0), size=(1, 1, 1), yaw=0.0)
        m = RTM(dx=1, dy=0, dz=0, dtheta=np.pi / 2)
        out = apply_rtm(b, m)
        np.testing.assert_allclose(out.center, [2, 2, 0])
        np.testing.assert_allclose(out.size, b.size)
        assert out.yaw == pytest.approx(np.pi / 2)

    def test_identity_motion(self):
        b = Box3D(center=(3, -1, 2), size=(2, 4, 1.5), yaw=0.7)
        out = apply_rtm(b, RTM(0, 0, 0, 0))
        np.testing.assert_allclose(out.center, b.center)
        assert out.yaw == b.yaw

    def test_yaw_wraps_at_pi(self):
        b = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=3 * np.pi / 4)
        out = apply_rtm(b, RTM(0, 0, 0, np.pi / 2))
        assert out.yaw == pytest.approx(-3 * np.pi / 4)

    def test_infer_identity(self):
        b = Box3D(center=(1, 1, 1), size=(1, 2, 3), yaw=-0.3)
        m = infer_rtm(b, b)
        assert (m.dx, m.dy, m.dz, m.dtheta) == (0, 0, 0, 0)

    def test_infer_direct_difference(self):
        prev = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        cur = Box3D(center=(2, 0, 0), size=(1, 1, 1), yaw=0.1)
        m = infer_rtm(prev, cur)
        assert (m.dx, m.dy, m.dz) == (2, 0, 0)
        assert m.dtheta == pytest.approx(0.1)

    def test_infer_shortest_wrapped_difference(self):
        prev = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=np.pi)
        cur = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=-np.pi + 0.1)
        assert infer_rtm(prev, cur).dtheta == pytest.approx(0.1)

    def test_round_trip_1000_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            prev = random_box(rng)
            cur = random_box(rng)
            back = apply_rtm(prev, infer_rtm(prev, cur))
            assert np.max(np.abs(back.center - cur.center)) < 1e-9
            assert abs(wrap_angle(back.yaw - cur.yaw)) < 1e-9

    def test_inverse_motion(self):
        # Pure center-translation convention => the inverse is plain negation.
        rng = np.random.default_rng(5)
        for _ in range(100):
            b = random_box(rng)
            m = RTM(*rng.uniform(-2, 2, size=3), rng.uniform(-np.pi, np.pi))
            back = apply_rtm(apply_rtm(b, m), RTM(-m.dx, -m.dy, -m.dz, -m.dtheta))
            assert np.max(np.abs(back.center - b.center)) < 1e-9
            assert abs(wrap_angle(back.yaw - b.yaw)) < 1e-9


class TestBoxKeyPoints:
    def test_unit_cube_corners_and_center(self):
        b = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        kp = box_key_points(b)
        assert kp.shape == (9, 3)
        # lexicographic sign order over local (x, y, z), minus before plus
        expected = 0.5 * np.array(
            [[-1, -1, -1], [-1, -1, 1], [-1, 1, -1], [-1, 1, 1],
             [1, -1, -1], [1, -1, 1], [1, 1, -1], [1, 1, 1]]
        )
        np.testing.assert_allclose(kp[:8], expected, atol=1e-15)
        np.testing.assert_allclose(kp[8], [0, 0, 0], atol=1e-15)

    def test_quarter_turn_permutes_xy(self):
        b = Box3D(center=(0, 0, 0), size=(1, 2, 1), yaw=np.pi / 2)
        kp = box_key_points(b)
        # local (+l/2, +w/2, .) = (1, 0.5, .) maps to world (-0.5, 1, .)
        np.testing.assert_allclose(kp[7], [-0.5, 1.0, 0.5], atol=1e-12)

    def test_translation_equivariance(self):
        b0 = Box3D(center=(0, 0, 0), size=(1.5, 2.5, 1.0), yaw=0.4)
        b1 = Box3D(center=(3, -2, 1), size=(1.5, 2.5, 1.0), yaw=0.4)
        np.testing.assert_allclose(
            box_key_points(b1), box_key_points(b0) + np.array([3, -2, 1]), atol=1e-12
        )

    def test_key_points_inside_own_box(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            b = random_box(rng)
            assert points_in_box(box_key_points(b), b).all()


def reference_points_in_box(points: np.ndarray, b: Box3D) -> np.ndarray:
    """The containment test as one reduction over the 3-wide axis: the form
    ``points_in_box`` replaced with three column compares."""
    w, l, h = b.size
    half = np.array([l / 2, w / 2, h / 2]) + CONTAINMENT_ATOL
    return np.all(np.abs(world_to_canonical(points, b)) <= half, axis=1)


class TestPointsInBox:
    def test_equals_reference_on_random_points(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            b = random_box(rng)
            pts = b.center + rng.uniform(-2.0, 2.0, size=(int(rng.integers(0, 300)), 3))
            np.testing.assert_array_equal(points_in_box(pts, b), reference_points_in_box(pts, b))

    def test_equals_reference_on_and_beside_each_face(self):
        rng = np.random.default_rng(13)
        for b in [Box3D(center=(0, 0, 0), size=(1, 2, 0.5), yaw=0.0)] + [random_box(rng) for _ in range(30)]:
            w, l, h = b.size
            half = np.array([l / 2, w / 2, h / 2])
            local = []
            for axis in range(3):
                for sign in (-1.0, 1.0):
                    for offset in (-2 * CONTAINMENT_ATOL, -CONTAINMENT_ATOL, 0.0,
                                   CONTAINMENT_ATOL, 2 * CONTAINMENT_ATOL):
                        p = rng.uniform(-0.9, 0.9, size=3) * half
                        p[axis] = sign * (half[axis] + offset)
                        local.append(p)
            pts = canonical_to_world(np.array(local), b)
            got = points_in_box(pts, b)
            np.testing.assert_array_equal(got, reference_points_in_box(pts, b))
            if b.yaw == 0.0:  # exact canonical coordinates: the slack is inclusive
                np.testing.assert_array_equal(got, np.tile([True] * 4 + [False], 6))

    def test_equals_reference_on_zero_and_one_row(self):
        b = Box3D(center=(0.5, -1.0, 2.0), size=(1.2, 2.0, 0.8), yaw=0.9)
        empty = points_in_box(np.zeros((0, 3)), b)
        assert empty.shape == (0,) and empty.dtype == bool
        for p in ([[0.5, -1.0, 2.0]], [[9.0, 9.0, 9.0]]):
            np.testing.assert_array_equal(points_in_box(np.array(p), b), reference_points_in_box(np.array(p), b))

    @pytest.mark.parametrize(
        "points, message",
        [
            ([[0.0, np.nan, 0.0]], "points must be finite"),
            ([[np.inf, 0.0, 0.0]], "points must be finite"),
            ([[0.0, 0.0, -np.inf]], "points must be finite"),
            (np.zeros((4, 2)), r"expected \(N, 3\) points"),
            (np.zeros(3), r"expected \(N, 3\) points"),
        ],
    )
    def test_public_form_rejects_bad_points(self, points, message):
        with pytest.raises(ValueError, match=message):
            points_in_box(np.asarray(points, dtype=np.float64), Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0))

    def test_center_inside(self):
        b = Box3D(center=(1, 2, 3), size=(1, 2, 0.5), yaw=1.0)
        assert points_in_box(np.array([[1.0, 2.0, 3.0]]), b)[0]

    def test_far_point_outside(self):
        b = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.3)
        half_diag = np.linalg.norm(b.size) / 2
        p = b.center + np.array([2 * half_diag, 0, 0])
        assert not points_in_box(p[None, :], b)[0]

    def test_corner_inclusive(self):
        b = Box3D(center=(0.5, -1.0, 2.0), size=(1.2, 2.0, 0.8), yaw=0.9)
        corners = box_key_points(b)[:8]
        assert points_in_box(corners, b).all()

    def test_rigid_invariance(self):
        # Jointly moving points and box never changes membership.
        rng = np.random.default_rng(42)
        for _ in range(50):
            b = random_box(rng)
            pts = b.center + rng.uniform(-2, 2, size=(64, 3))
            before = points_in_box(pts, b)
            m = RTM(*rng.uniform(-3, 3, size=3), rng.uniform(-np.pi, np.pi))
            moved_box = apply_rtm(b, m)
            rot = yaw_matrix(m.dtheta)
            moved_pts = (pts - b.center) @ rot.T + b.center + np.array([m.dx, m.dy, m.dz])
            after = points_in_box(moved_pts, moved_box)
            assert np.array_equal(before, after)


class TestCanonicalFrame:
    def test_center_maps_to_origin(self):
        b = Box3D(center=(4, 5, 6), size=(1, 1, 1), yaw=2.0)
        out = world_to_canonical(np.array([[4.0, 5.0, 6.0]]), b)
        np.testing.assert_allclose(out, [[0, 0, 0]], atol=1e-12)

    def test_identity_box_is_noop(self):
        b = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        pts = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(world_to_canonical(pts, b), pts)

    def test_round_trip_100_points(self):
        rng = np.random.default_rng(3)
        b = random_box(rng)
        pts = rng.uniform(-10, 10, size=(100, 3))
        back = canonical_to_world(world_to_canonical(pts, b), b)
        assert np.max(np.abs(back - pts)) < 1e-9

    def test_heading_point_lands_on_local_x(self):
        # A point one meter ahead of the center along the heading has
        # canonical coordinates (1, 0, 0).
        b = Box3D(center=(2, 2, 0), size=(1, 2, 1), yaw=0.7)
        ahead = b.center + np.array([np.cos(0.7), np.sin(0.7), 0.0])
        np.testing.assert_allclose(
            world_to_canonical(ahead[None], b), [[1, 0, 0]], atol=1e-12
        )


class TestIou3d:
    def test_identical_boxes(self):
        b = Box3D(center=(1, 2, 3), size=(1.5, 3.0, 1.2), yaw=0.77)
        assert iou3d(b, b) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_boxes(self):
        a = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.2)
        b = Box3D(center=(10, 0, 0), size=(1, 1, 1), yaw=-0.4)
        assert iou3d(a, b) == 0.0

    def test_half_offset_unit_cubes(self):
        # overlap 0.5 x 1 x 1 = 0.5; union 1 + 1 - 0.5 = 1.5; IoU = 1/3
        a = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        b = Box3D(center=(0.5, 0, 0), size=(1, 1, 1), yaw=0.0)
        assert iou3d(a, b) == pytest.approx(1 / 3, abs=1e-9)

    def test_vertical_half_offset(self):
        a = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        b = Box3D(center=(0, 0, 0.5), size=(1, 1, 1), yaw=0.0)
        assert iou3d(a, b) == pytest.approx(1 / 3, abs=1e-9)

    def test_stacked_boxes_touching_faces(self):
        a = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        b = Box3D(center=(0, 0, 1.0), size=(1, 1, 1), yaw=0.0)
        assert iou3d(a, b) == 0.0

    def test_rotated_square_octagon(self):
        # Unit cube vs itself rotated 45 deg about the shared center: the BEV
        # intersection is a regular octagon of area 2*(sqrt(2)-1), so
        # IoU = 2(sqrt2-1) / (2 - 2(sqrt2-1)) = 1/sqrt(2).
        a = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        b = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=np.pi / 4)
        assert iou3d(a, b) == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            a = random_box(rng)
            b = random_box(rng, near=a.center)
            assert iou3d(a, b) == pytest.approx(iou3d(b, a), abs=1e-10)

    def test_range_and_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = random_box(rng)
            b = random_box(rng, near=a.center)
            v = iou3d(a, b)
            assert 0.0 <= v <= 1.0

    def test_monte_carlo_oracle_100_pairs(self):
        rng = np.random.default_rng(2024)
        for i in range(100):
            a = random_box(rng)
            b = random_box(rng, near=a.center)
            assert iou3d(a, b) == pytest.approx(mc_iou(a, b, 100_000, seed=i), abs=0.01)


class TestCenterDistance:
    def test_zero_for_identical_centers(self):
        a = Box3D(center=(1, 1, 1), size=(1, 1, 1), yaw=0.0)
        b = Box3D(center=(1, 1, 1), size=(2, 2, 2), yaw=1.0)
        assert center_distance(a, b) == 0.0

    def test_3_4_5(self):
        a = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        b = Box3D(center=(3, 4, 0), size=(1, 1, 1), yaw=0.0)
        assert center_distance(a, b) == pytest.approx(5.0)

    def test_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert center_distance(a, b) == center_distance(b, a)
