"""Tests for spatial-temporal cloud construction and its feature channels.

The two-frame cloud carries four point columns (x, y, z, temporal flag),
a prior-targetness channel in {0, 0.5, 1}, and a 9-column distance map
against the previous box's corners + center (zero rows for current-frame
points). Expected values below are hand-computed from the fixture geometry.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import canonical_to_world
from lidartrack.geometry import RTM, Box3D, box_key_points, points_in_box
from lidartrack.pointcloud import (
    EmptyRegionError,
    Frame,
    STCloud,
    box_aware_distmap,
    build_st_cloud,
    crop_and_pad,
    crop_and_sample,
    motion_assisted_merge,
    prior_targetness_map,
    split_by_time,
    with_channels,
)


def make_frame(points, t=0) -> Frame:
    return Frame(points=np.asarray(points, dtype=np.float64), timestamp=t)


UNIT_BOX = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)


class TestCropAndSample:
    def test_many_candidates_sampled_without_replacement(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.5, 0.5, size=(5000, 3))
        out = crop_and_sample(make_frame(pts), UNIT_BOX, margin=0.0, n=1024, rng_seed=1)
        assert out.points.shape == (1024, 3)
        assert len(np.unique(out.points, axis=0)) == 1024  # all distinct

    def test_few_candidates_upsampled_with_every_point_present(self):
        pts = np.random.default_rng(2).uniform(-0.4, 0.4, size=(10, 3))
        frame = make_frame(pts)
        # the crop keeps each candidate once, in coordinate order ...
        out = crop_and_sample(frame, UNIT_BOX, margin=0.0, n=1024, rng_seed=3)
        np.testing.assert_array_equal(out.points, pts[np.lexsort(pts.T[::-1])])
        # ... and the training pad repeats each floor(n/c) or ceil(n/c) times
        padded = crop_and_pad(frame, UNIT_BOX, margin=0.0, n=1024, rng_seed=3)
        assert padded.points.shape == (1024, 3)
        rows, counts = np.unique(padded.points, axis=0, return_counts=True)
        assert len(rows) == 10
        assert set(counts) == {102, 103} and counts.sum() == 1024

    def test_empty_region_raises(self):
        pts = np.array([[10.0, 10.0, 10.0]])
        with pytest.raises(EmptyRegionError):
            crop_and_sample(make_frame(pts), UNIT_BOX, margin=0.0, n=16, rng_seed=0)

    def test_margin_pads_every_face(self):
        # enlarged half-extent along x = 0.5 + margin
        inside = np.array([[0.5 + 1.9, 0.0, 0.0]])
        outside = np.array([[0.5 + 2.1, 0.0, 0.0]])
        frame = make_frame(np.vstack([inside, outside]))
        got = crop_and_sample(frame, UNIT_BOX, margin=2.0, n=4, rng_seed=0)
        np.testing.assert_array_equal(got.points, inside)
        padded = crop_and_pad(frame, UNIT_BOX, margin=2.0, n=4, rng_seed=0)
        np.testing.assert_array_equal(padded.points, np.repeat(inside, 4, axis=0))

    @pytest.mark.parametrize("c", [1, 7, 63, 64, 65, 200])
    def test_at_most_n_rows_each_candidate_once(self, c):
        pts = np.random.default_rng(c).uniform(-0.5, 0.5, size=(c, 3))
        out = crop_and_sample(make_frame(pts), UNIT_BOX, margin=0.0, n=64, rng_seed=4)
        assert len(out) == min(c, 64)
        assert len(np.unique(out.points, axis=0)) == len(out)

    def test_pad_draws_only_when_short(self):
        # a full crop is returned as drawn; a short one takes the seed's
        # stream, which the crop left unused
        rng = np.random.default_rng(6)
        frame = make_frame(rng.uniform(-0.5, 0.5, size=(300, 3)))
        for n in (100, 300):
            a = crop_and_sample(frame, UNIT_BOX, margin=0.0, n=n, rng_seed=9)
            b = crop_and_pad(frame, UNIT_BOX, margin=0.0, n=n, rng_seed=9)
            np.testing.assert_array_equal(a.points, b.points)
        a = crop_and_pad(frame, UNIT_BOX, margin=0.0, n=500, rng_seed=9)
        b = crop_and_pad(frame, UNIT_BOX, margin=0.0, n=500, rng_seed=10)
        assert not np.array_equal(a.points, b.points)
        np.testing.assert_array_equal(np.unique(a.points, axis=0), np.unique(b.points, axis=0))

    def test_output_lies_in_enlarged_box(self):
        rng = np.random.default_rng(5)
        box = Box3D(center=(1, 2, 0), size=(1.5, 3.0, 1.0), yaw=0.8)
        pts = rng.uniform(-6, 6, size=(4000, 3)) + box.center
        out = crop_and_sample(make_frame(pts), box, margin=1.0, n=256, rng_seed=9)
        enlarged = Box3D(center=box.center, size=box.size + 2.0, yaw=box.yaw)
        from lidartrack.geometry import points_in_box
        assert points_in_box(out.points, enlarged).all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-2, 2, size=(500, 3))
        a = crop_and_sample(make_frame(pts), UNIT_BOX, margin=2.0, n=128, rng_seed=42)
        b = crop_and_sample(make_frame(pts), UNIT_BOX, margin=2.0, n=128, rng_seed=42)
        np.testing.assert_array_equal(a.points, b.points)
        c = crop_and_sample(make_frame(pts), UNIT_BOX, margin=2.0, n=128, rng_seed=43)
        assert not np.array_equal(a.points, c.points)

    def test_timestamp_preserved(self):
        pts = np.zeros((4, 3))
        assert crop_and_sample(make_frame(pts, t=17), UNIT_BOX, n=8, rng_seed=0).timestamp == 17
        assert crop_and_pad(make_frame(pts, t=17), UNIT_BOX, n=8, rng_seed=0).timestamp == 17

    @pytest.mark.parametrize("n", [16, 1024])  # sampled, and every candidate
    def test_rows_are_read_only_copies_of_the_selected_rows(self, n):
        rng = np.random.default_rng(21)
        frame = make_frame(rng.uniform(-1.5, 1.5, size=(400, 3)), t=3)
        enlarged = Box3D(center=UNIT_BOX.center, size=UNIT_BOX.size + 0.5, yaw=UNIT_BOX.yaw)
        selected = np.flatnonzero(points_in_box(frame.points, enlarged))
        cand = frame.points[selected]
        selected = selected[np.lexsort((cand[:, 2], cand[:, 1], cand[:, 0]))]
        if selected.size >= n:
            selected = np.random.default_rng(4).choice(selected, size=n, replace=False)
        out = crop_and_sample(frame, UNIT_BOX, margin=0.25, n=n, rng_seed=4)
        np.testing.assert_array_equal(out.points, frame.points[selected])
        padded = crop_and_pad(frame, UNIT_BOX, margin=0.25, n=n, rng_seed=4)
        for crop in (out, padded):
            assert crop.points.dtype == np.float64 and crop.points.flags.c_contiguous
            assert not crop.points.flags.writeable
            assert not np.shares_memory(crop.points, frame.points)
            assert crop.timestamp == 3

    def test_row_order_of_input_is_irrelevant(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2, 2, size=(400, 3))
        perm = rng.permutation(400)
        a = crop_and_sample(make_frame(pts), UNIT_BOX, margin=1.0, n=64, rng_seed=5)
        b = crop_and_sample(make_frame(pts[perm]), UNIT_BOX, margin=1.0, n=64, rng_seed=5)
        np.testing.assert_array_equal(a.points, b.points)


class TestSTCloudChecks:
    @pytest.mark.parametrize(
        "row, message",
        [
            ([0.0, np.nan, 0.0, 0.0], "cloud points must be finite"),
            ([np.inf, 0.0, 0.0, 1.0], "cloud points must be finite"),
            ([0.0, 0.0, 0.0, 0.5], "temporal channel must be 0 or 1"),
        ],
    )
    def test_bad_rows_rejected(self, row, message):
        with pytest.raises(ValueError, match=message):
            STCloud(points=np.array([[0.0, 0.0, 0.0, 0.0], row]))

    def test_rows_out_of_time_order_rejected(self):
        with pytest.raises(ValueError, match="must precede"):
            STCloud(points=np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]]))

    def test_built_and_channelled_clouds_pass_the_checks(self):
        rng = np.random.default_rng(22)
        st = build_st_cloud(make_frame(rng.normal(size=(6, 3))), make_frame(rng.normal(size=(4, 3)), t=1))
        checked = STCloud(points=st.points)
        np.testing.assert_array_equal(checked.points, st.points)
        chan = with_channels(st, UNIT_BOX)
        assert chan.points is st.points
        assert chan.targetness.shape == (10,) and chan.distmap.shape == (10, 9)


class TestBuildSTCloud:
    def test_temporal_column(self):
        prev = make_frame([[0, 0, 0], [1, 1, 1]], t=0)
        cur = make_frame([[2, 2, 2], [3, 3, 3], [4, 4, 4]], t=1)
        st = build_st_cloud(prev, cur)
        assert st.points.shape == (5, 4)
        np.testing.assert_array_equal(st.points[:, 3], [0, 0, 1, 1, 1])
        np.testing.assert_array_equal(st.prev_rows, [True, True, False, False, False])

    def test_empty_prev(self):
        prev = make_frame(np.zeros((0, 3)), t=0)
        cur = make_frame([[1, 2, 3]], t=1)
        st = build_st_cloud(prev, cur)
        np.testing.assert_array_equal(st.points[:, 3], [1])

    def test_xyz_passthrough_bit_identical(self):
        rng = np.random.default_rng(1)
        p, c = rng.normal(size=(7, 3)), rng.normal(size=(9, 3))
        st = build_st_cloud(make_frame(p), make_frame(c, t=1))
        np.testing.assert_array_equal(st.points[:7, :3], p)
        np.testing.assert_array_equal(st.points[7:, :3], c)


class TestPriorTargetness:
    def test_eq3_three_cases_on_six_point_fixture(self):
        # prev: inside, outside, exactly on a face (inclusive -> 1)
        prev = make_frame([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        cur = make_frame([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.1, 0.2, 0.3]], t=1)
        st = build_st_cloud(prev, cur)
        tg = prior_targetness_map(st, UNIT_BOX)
        np.testing.assert_array_equal(tg, [1.0, 0.0, 1.0, 0.5, 0.5, 0.5])

    def test_values_exactly_in_allowed_set(self):
        rng = np.random.default_rng(4)
        prev = make_frame(rng.uniform(-2, 2, size=(100, 3)))
        cur = make_frame(rng.uniform(-2, 2, size=(80, 3)), t=1)
        tg = prior_targetness_map(build_st_cloud(prev, cur), UNIT_BOX)
        assert set(np.unique(tg)) <= {0.0, 0.5, 1.0}
        assert np.all(tg[100:] == 0.5)

    def test_agrees_with_points_in_box_on_prev_rows(self):
        from lidartrack.geometry import points_in_box
        rng = np.random.default_rng(6)
        box = Box3D(center=(0.5, -0.5, 0.2), size=(1, 2, 1), yaw=0.6)
        prev = make_frame(rng.uniform(-2, 2, size=(64, 3)))
        cur = make_frame(rng.uniform(-2, 2, size=(64, 3)), t=1)
        st = build_st_cloud(prev, cur)
        tg = prior_targetness_map(st, box)
        np.testing.assert_array_equal(tg[:64] == 1.0, points_in_box(prev.points, box))


class TestBoxAwareDistmap:
    def test_center_point_zero_distance_to_ninth_key_point(self):
        prev = make_frame([[0.0, 0.0, 0.0]])
        cur = make_frame([[1.0, 1.0, 1.0]], t=1)
        dm = box_aware_distmap(build_st_cloud(prev, cur), UNIT_BOX)
        assert dm.shape == (2, 9)
        assert dm[0, 8] == 0.0  # center is key point index 8
        # distance from center to every corner of the unit cube = sqrt(3)/2
        np.testing.assert_allclose(dm[0, :8], np.sqrt(3) / 2, atol=1e-12)

    def test_corner_point_distances(self):
        corner = box_key_points(UNIT_BOX)[0]
        prev = make_frame([corner])
        cur = make_frame(np.zeros((0, 3)), t=1)
        dm = box_aware_distmap(build_st_cloud(prev, cur), UNIT_BOX)
        assert dm[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert dm[0, 8] == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_current_rows_exactly_zero(self):
        rng = np.random.default_rng(9)
        prev = make_frame(rng.normal(size=(5, 3)))
        cur = make_frame(rng.normal(size=(7, 3)), t=1)
        dm = box_aware_distmap(build_st_cloud(prev, cur), UNIT_BOX)
        assert np.all(dm[5:] == 0.0)
        assert np.all(dm >= 0.0)

    def test_equals_reference_reduction_bit_for_bit(self):
        # the column sum adds in the order of np.sum over the last axis
        rng = np.random.default_rng(23)
        for n_prev, n_cur in [(0, 3), (1, 0), (37, 12), (600, 250)]:
            box = Box3D(center=rng.normal(size=3), size=rng.uniform(0.5, 4, size=3), yaw=rng.uniform(-3, 3))
            st = build_st_cloud(
                make_frame(rng.normal(size=(n_prev, 3)) * 3), make_frame(rng.normal(size=(n_cur, 3)), t=1)
            )
            want = np.zeros((len(st), 9))
            diff = st.points[:n_prev, None, :3] - box_key_points(box)[None, :, :]
            want[:n_prev] = np.sqrt(np.sum(diff * diff, axis=-1))
            assert np.array_equal(box_aware_distmap(st, box), want)

    def test_matches_naive_distance_oracle(self):
        rng = np.random.default_rng(10)
        box = Box3D(center=(1, -1, 0.5), size=(1.2, 2.5, 1.1), yaw=-0.9)
        prev_pts = rng.uniform(-3, 3, size=(32, 3))
        st = build_st_cloud(make_frame(prev_pts), make_frame(np.zeros((0, 3)), t=1))
        dm = box_aware_distmap(st, box)
        kp = box_key_points(box)
        naive = np.sqrt(((prev_pts[:, None, :] - kp[None, :, :]) ** 2).sum(-1))
        np.testing.assert_allclose(dm[:32], naive, atol=1e-12)


class TestSplitByTime:
    def _st(self):
        prev = make_frame([[0, 0, 0], [1, 0, 0]])
        cur = make_frame([[2, 0, 0], [3, 0, 0], [4, 0, 0]], t=1)
        return build_st_cloud(prev, cur)

    def test_all_true(self):
        p, c = split_by_time(self._st(), np.ones(5, dtype=bool))
        assert p.shape == (2, 3) and c.shape == (3, 3)

    def test_all_false(self):
        p, c = split_by_time(self._st(), np.zeros(5, dtype=bool))
        assert p.shape == (0, 3) and c.shape == (0, 3)

    def test_prev_only_mask(self):
        mask = np.array([True, True, False, False, False])
        p, c = split_by_time(self._st(), mask)
        assert p.shape == (2, 3) and c.shape == (0, 3)
        np.testing.assert_array_equal(p, [[0, 0, 0], [1, 0, 0]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            split_by_time(self._st(), np.ones(4, dtype=bool))


class TestMotionAssistedMerge:
    def test_static_is_plain_concatenation(self):
        p = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        c = np.array([[5.0, 5.0, 5.0]])
        m = RTM(1.0, 2.0, 3.0, 0.5)
        merged = motion_assisted_merge(p, c, m, UNIT_BOX, dynamic=False)
        np.testing.assert_array_equal(merged, np.vstack([p, c]))

    def test_identity_rtm_dynamic_equals_static_bitwise(self):
        rng = np.random.default_rng(12)
        p, c = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
        # off-center box: the identity motion must not round-trip through
        # the (p - center) + center arithmetic
        box = Box3D(center=(0.1, 0.2, 0.3), size=(1, 1, 1), yaw=0.4)
        stat = motion_assisted_merge(p, c, RTM(0, 0, 0, 0), box, dynamic=False)
        dyn = motion_assisted_merge(p, c, RTM(0, 0, 0, 0), box, dynamic=True)
        np.testing.assert_array_equal(stat, dyn)

    def test_pure_translation(self):
        p = np.array([[0.0, 0.0, 0.0], [0.25, 0.25, 0.0]])
        merged = motion_assisted_merge(p, np.zeros((0, 3)), RTM(1, 0, 0, 0),
                                       UNIT_BOX, dynamic=True)
        np.testing.assert_allclose(merged, p + np.array([1.0, 0, 0]), atol=1e-15)

    def test_rigid_transport_matches_box_motion(self):
        # Points rigidly attached to the box must land on the moved box:
        # rotate about the previous center by dtheta, then translate.
        rng = np.random.default_rng(13)
        box = Box3D(center=(2, 1, 0), size=(1.8, 4.0, 1.6), yaw=0.3)
        m = RTM(0.7, -0.4, 0.1, 0.6)
        local = rng.uniform(-0.5, 0.5, size=(50, 3)) * box.size[[1, 0, 2]]
        from lidartrack.geometry import apply_rtm, world_to_canonical
        world_prev = canonical_to_world(local, box)
        merged = motion_assisted_merge(world_prev, np.zeros((0, 3)), m, box, dynamic=True)
        moved_box = apply_rtm(box, m)
        np.testing.assert_allclose(world_to_canonical(merged, moved_box), local, atol=1e-9)


class TestWithChannels:
    def test_with_channels_populates_invariants(self):
        rng = np.random.default_rng(14)
        prev = make_frame(rng.uniform(-1, 1, size=(20, 3)))
        cur = make_frame(rng.uniform(-1, 1, size=(30, 3)), t=1)
        st = with_channels(build_st_cloud(prev, cur), UNIT_BOX)
        assert st.targetness is not None and st.distmap is not None
        assert np.all(st.targetness[20:] == 0.5)
        assert np.all(st.distmap[20:] == 0.0)
