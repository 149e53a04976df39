"""Tests for training-time perturbations.

The transform-consistency oracle recomputes the augmented box parameters
analytically in the test (mirror, rotate about center, translate) and
checks both the returned boxes and the relative motion inferred from them.
"""

from __future__ import annotations

import numpy as np
import pytest

from lidartrack.augment import AugmentConfig, motion_augment, perturb_prev_box
from conftest import canonical_to_world
from lidartrack.geometry import Box3D, infer_rtm, points_in_box, wrap_angle

ZERO = AugmentConfig(
    flip_prob=0.0, rot_range_deg=0.0, trans_range=0.0, prev_box_shift=0.0, prev_box_yaw_shift_deg=0.0
)
FULL = AugmentConfig(
    flip_prob=0.5,
    rot_range_deg=10.0,
    trans_range=0.3,
    prev_box_shift=0.3,
    prev_box_yaw_shift_deg=10.0,
)


def random_box(rng) -> Box3D:
    return Box3D(
        center=rng.uniform(-5, 5, size=3),
        size=rng.uniform(0.5, 3.0, size=3),
        yaw=rng.uniform(-np.pi, np.pi),
    )


def points_inside(box: Box3D, n: int, rng) -> np.ndarray:
    local = rng.uniform(-0.5, 0.5, size=(n, 3)) * np.array(
        [box.length, box.width, box.height]
    )
    return canonical_to_world(local, box)


class TestAugmentConfig:
    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(rot_range_deg=np.rad2deg(-0.1))

    def test_bad_flip_prob_rejected(self):
        with pytest.raises(ValueError):
            AugmentConfig(flip_prob=1.5)


class TestPerturbPrevBox:
    def test_zero_ranges_identity(self):
        rng = np.random.default_rng(0)
        b = random_box(rng)
        out = perturb_prev_box(b, ZERO, rng)
        np.testing.assert_array_equal(out.center, b.center)
        assert out.yaw == b.yaw

    def test_offsets_bounded_and_horizontal_only(self):
        rng = np.random.default_rng(1)
        b = Box3D(center=[1.0, 2.0, 0.8], size=[1.8, 4.0, 1.6], yaw=0.3)
        for _ in range(10_000):
            out = perturb_prev_box(b, FULL, rng)
            d = out.center - b.center
            assert abs(d[0]) <= FULL.prev_box_shift
            assert abs(d[1]) <= FULL.prev_box_shift
            assert d[2] == 0.0
            assert abs(wrap_angle(out.yaw - b.yaw)) <= np.deg2rad(FULL.prev_box_yaw_shift_deg)

    def test_size_never_altered(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            b = random_box(rng)
            np.testing.assert_array_equal(perturb_prev_box(b, FULL, rng).size, b.size)

    def test_deterministic_given_rng_state(self):
        b = Box3D(center=[0, 0, 0], size=[1, 2, 1], yaw=0.0)
        a = perturb_prev_box(b, FULL, np.random.default_rng(7))
        c = perturb_prev_box(b, FULL, np.random.default_rng(7))
        np.testing.assert_array_equal(a.center, c.center)
        assert a.yaw == c.yaw


class TestMotionAugment:
    def test_zero_config_identity(self):
        rng = np.random.default_rng(3)
        bp, bc = random_box(rng), random_box(rng)
        pp, pc = points_inside(bp, 20, rng), points_inside(bc, 20, rng)
        ap, abp, ac, abc, sample = motion_augment(pp, bp, pc, bc, ZERO, rng)
        np.testing.assert_array_equal(ap, pp)
        np.testing.assert_array_equal(ac, pc)
        np.testing.assert_array_equal(abp.as_vector(), bp.as_vector())
        np.testing.assert_array_equal(abc.as_vector(), bc.as_vector())
        assert not sample.flipped

    def test_membership_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            bp, bc = random_box(rng), random_box(rng)
            pp, pc = points_inside(bp, 40, rng), points_inside(bc, 40, rng)
            ap, abp, ac, abc, _ = motion_augment(pp, bp, pc, bc, FULL, rng)
            assert points_in_box(ap, abp).all()
            assert points_in_box(ac, abc).all()

    def test_flip_is_involution(self):
        flip_only = AugmentConfig(
            flip_prob=1.0, rot_range_deg=0.0, trans_range=0.0, prev_box_shift=0.0, prev_box_yaw_shift_deg=0.0
        )
        rng = np.random.default_rng(5)
        bp, bc = random_box(rng), random_box(rng)
        pp, pc = points_inside(bp, 25, rng), points_inside(bc, 25, rng)
        p1, b1, c1, d1, s1 = motion_augment(pp, bp, pc, bc, flip_only, rng)
        p2, b2, c2, d2, s2 = motion_augment(p1, b1, c1, d1, flip_only, rng)
        assert s1.flipped and s2.flipped
        np.testing.assert_allclose(p2, pp, atol=1e-12)
        np.testing.assert_allclose(c2, pc, atol=1e-12)
        np.testing.assert_allclose(b2.as_vector(), bp.as_vector(), atol=1e-12)
        np.testing.assert_allclose(d2.as_vector(), bc.as_vector(), atol=1e-12)

    def test_sampled_values_bounded(self):
        rng = np.random.default_rng(6)
        b = Box3D(center=[2, 0, 0.8], size=[1.8, 4.0, 1.6], yaw=0.0)
        pts = points_inside(b, 5, rng)
        flips = 0
        for _ in range(10_000):
            _, _, _, _, s = motion_augment(pts, b, pts, b, FULL, rng)
            assert abs(s.rot_prev) <= np.deg2rad(FULL.rot_range_deg)
            assert abs(s.rot_cur) <= np.deg2rad(FULL.rot_range_deg)
            assert np.all(np.abs(s.trans_prev) <= FULL.trans_range)
            assert np.all(np.abs(s.trans_cur) <= FULL.trans_range)
            flips += s.flipped
        assert 4_000 < flips < 6_000

    def test_boxes_match_analytic_composition(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            bp, bc = random_box(rng), random_box(rng)
            pp, pc = points_inside(bp, 10, rng), points_inside(bc, 10, rng)
            _, abp, _, abc, s = motion_augment(pp, bp, pc, bc, FULL, rng)
            for box, out, rot, trans in ((bp, abp, s.rot_prev, s.trans_prev),
                                         (bc, abc, s.rot_cur, s.trans_cur)):
                cx, cy, cz = box.center
                yaw = box.yaw
                if s.flipped:
                    cy, yaw = -cy, -yaw
                want_center = np.array([cx, cy, cz]) + trans
                want_yaw = wrap_angle(yaw + rot)
                np.testing.assert_allclose(out.center, want_center, atol=1e-12)
                assert abs(wrap_angle(out.yaw - want_yaw)) < 1e-12
                np.testing.assert_array_equal(out.size, box.size)

    def test_inferred_motion_matches_composed_transforms(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            bp, bc = random_box(rng), random_box(rng)
            pp, pc = points_inside(bp, 10, rng), points_inside(bc, 10, rng)
            _, abp, _, abc, s = motion_augment(pp, bp, pc, bc, FULL, rng)
            # compose the sampled transforms by hand and predict the motion
            def moved(box, rot, trans):
                cy = -box.center[1] if s.flipped else box.center[1]
                yaw = -box.yaw if s.flipped else box.yaw
                return np.array([box.center[0], cy, box.center[2]]) + trans, yaw + rot

            c_prev, y_prev = moved(bp, s.rot_prev, s.trans_prev)
            c_cur, y_cur = moved(bc, s.rot_cur, s.trans_cur)
            m = infer_rtm(abp, abc)
            np.testing.assert_allclose(m.translation, c_cur - c_prev, atol=1e-12)
            assert abs(wrap_angle(m.dtheta - wrap_angle(y_cur - y_prev))) < 1e-12
