"""Property tests for the geometry kernels and cropping.

Each property holds for every input, so hypothesis draws the boxes,
motions and clouds: rotated IoU is a bounded, symmetric similarity;
``infer_rtm`` inverts ``apply_rtm``; the scalar ``wrap_angle`` equals its
array form bit for bit; ``crop_and_sample`` depends only on the
set of points; ``points_in_box`` agrees with the box's canonical-frame
bounds, which are computed here apart from the program.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidartrack.geometry import RTM, Box3D, apply_rtm, infer_rtm, iou3d, points_in_box, wrap_angle
from lidartrack.pointcloud import EmptyRegionError, Frame, crop_and_sample

PROPERTY = settings(deadline=None, max_examples=150)

coords = st.floats(-20.0, 20.0)
sizes = st.floats(0.2, 6.0)
yaws = st.floats(-np.pi, np.pi)


@st.composite
def boxes(draw, center=coords):
    return Box3D(
        center=[draw(center) for _ in range(3)],
        size=[draw(sizes) for _ in range(3)],
        yaw=draw(yaws),
    )


@st.composite
def box_pairs(draw):
    """Two boxes, the second often overlapping the first."""
    a = draw(boxes())
    offset = st.floats(-3.0, 3.0)
    b = draw(st.one_of(boxes(), boxes(center=offset)))
    if draw(st.booleans()):
        b = Box3D(center=a.center + b.center * 0.5, size=b.size, yaw=b.yaw)
    return a, b


class TestIou3d:
    @PROPERTY
    @given(box_pairs())
    def test_bounded_and_symmetric(self, pair):
        a, b = pair
        ab, ba = iou3d(a, b), iou3d(b, a)
        assert 0.0 <= ab <= 1.0
        assert abs(ab - ba) <= 1e-9

    @PROPERTY
    @given(boxes())
    def test_box_with_itself_is_one(self, box):
        assert abs(iou3d(box, box) - 1.0) <= 1e-9


class TestRtm:
    @PROPERTY
    @given(boxes(), st.tuples(coords, coords, coords, st.floats(-3 * np.pi, 3 * np.pi)))
    def test_infer_inverts_apply(self, box, motion):
        m = RTM(*motion)
        got = infer_rtm(box, apply_rtm(box, m))
        np.testing.assert_allclose(got.translation, m.translation, rtol=0, atol=1e-9)
        assert abs(wrap_angle(got.dtheta - m.dtheta)) <= 1e-9


def numpy_wrap(a: float) -> np.float64:
    """The array form of ``wrap_angle``, applied to one angle."""
    out = np.mod(np.float64(a) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)[()]


class TestWrapAngle:
    @PROPERTY
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-np.pi)
    @example(np.pi)
    @example(3 * np.pi)
    @example(-3 * np.pi)
    @example(2 * np.pi)
    @example(-2 * np.pi)
    @example(0.0)
    @example(-0.0)
    @example(1e6 * np.pi)
    @example(-(2**40) * np.pi)
    @example(1e300)
    @example(5e-324)
    def test_scalar_equals_array_form_bit_for_bit(self, a):
        got = wrap_angle(a)
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == numpy_wrap(a).tobytes()
        assert np.float64(got).tobytes() == wrap_angle(np.array([a]))[0].tobytes()


# a coarse grid makes duplicate points and coordinate ties common
grid = st.integers(-12, 12).map(lambda v: v * 0.25)


class TestCropAndSample:
    @PROPERTY
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 60), st.just(3)), elements=grid),
        boxes(center=st.floats(-2.0, 2.0)),
        st.integers(1, 80),
        st.integers(0, 2**31 - 1),
        st.data(),
    )
    def test_invariant_to_row_order(self, points, box, n, seed, data):
        order = np.array(data.draw(st.permutations(range(len(points)))))

        def crop(pts):
            try:
                return crop_and_sample(Frame(points=pts, timestamp=3), box, margin=1.0, n=n, rng_seed=seed)
            except EmptyRegionError:
                return None

        a, b = crop(points), crop(points[order])
        assert (a is None) == (b is None)
        if a is not None:
            assert a.timestamp == b.timestamp
            assert np.array_equal(a.points, b.points)


# canonical coordinates in units of the half-size, kept 1e-6 away from the
# faces so that rounding cannot move a point across one
unit = st.floats(-2.0, 2.0).filter(lambda u: abs(abs(u) - 1.0) > 1e-6)


class TestPointsInBox:
    @PROPERTY
    @given(boxes(), st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=40))
    def test_agrees_with_canonical_bounds(self, box, units):
        u = np.array(units)
        w, l, h = box.size
        local = u * np.array([l / 2, w / 2, h / 2])
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        world = np.stack(
            [c * local[:, 0] - s * local[:, 1], s * local[:, 0] + c * local[:, 1], local[:, 2]], axis=1
        ) + box.center
        np.testing.assert_array_equal(points_in_box(world, box), np.all(np.abs(u) <= 1.0, axis=1))
