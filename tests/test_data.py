"""Tests for dataset generation, the native on-disk format, and KITTI ingestion.

The KITTI conversion is anchored two ways: a frozen hand-computed fixture
under the standard permutation calibration (LiDAR x-forward to camera
z-forward), and a random round-trip through an arbitrary rigid calibration.
"""

from __future__ import annotations

import json
import re
import struct

import numpy as np
import pytest

from lidartrack.data import (
    CAR_SIZE,
    PEDESTRIAN_SIZE,
    SceneSpec,
    Tracklet,
    camera_label_from_box,
    generate_synthetic_tracklet,
    is_dynamic,
    load_kitti_tracklets,
    make_synthetic_dataset,
    make_training_pairs,
    read_native,
    write_native,
)
from lidartrack.data.native import read_point_file
from lidartrack.data.synthetic import _surface_points
from lidartrack.geometry import Box3D, RTM, apply_rtm, infer_rtm, iou3d, points_in_box, wrap_angle


def expanded(box: Box3D, pad: float) -> Box3D:
    return Box3D(center=box.center, size=np.asarray(box.size) + 2 * pad, yaw=box.yaw)


def box_motions(t: Tracklet) -> list[RTM]:
    """The target motion between consecutive frames, read off the GT boxes."""
    return [infer_rtm(a, b) for a, b in zip(t.gt_boxes, t.gt_boxes[1:])]


class TestSceneSpecValidation:
    def test_bad_motion_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(motion="drifting")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(n_frames=0)
        with pytest.raises(ValueError):
            SceneSpec(n_distractors=-1)
        with pytest.raises(ValueError):
            SceneSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["noise_sigma", "speed_max"])
    def test_non_finite_float_rejected_naming_field(self, field, value):
        # NaN fails `noise_sigma > 0` and once generated noise-free scenes
        with pytest.raises(ValueError, match=rf"^{field} must be finite and non-negative, got "):
            SceneSpec(**{field: value})

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="truck"):
            SceneSpec(category="truck")

    def test_target_size_follows_category(self):
        assert SceneSpec().target_size == CAR_SIZE
        assert SceneSpec(category="pedestrian").target_size == PEDESTRIAN_SIZE


class TestSyntheticGenerator:
    def test_static_spec_zero_motion(self):
        t = generate_synthetic_tracklet(SceneSpec(motion="static", noise_sigma=0.0, seed=1))
        for m in box_motions(t):
            np.testing.assert_array_equal(m.as_vector(), np.zeros(4))
        assert not any(is_dynamic(m) for m in box_motions(t))

    def test_unit_displacement_rtm(self):
        # a constant-velocity target moves 1 m per frame along its drawn heading
        spec = SceneSpec(motion="constant_velocity", speed_min=1.0, speed_max=1.0, n_frames=8, seed=2)
        t = generate_synthetic_tracklet(spec)
        yaw = t.gt_boxes[0].yaw
        for box, m in zip(t.gt_boxes, box_motions(t)):
            assert box.yaw == yaw
            np.testing.assert_allclose(m.as_vector(), [np.cos(yaw), np.sin(yaw), 0.0, 0.0], atol=1e-12)
        assert all(is_dynamic(m) for m in box_motions(t))

    def test_turning_constant_yaw_rate(self):
        spec = SceneSpec(motion="turning", n_frames=10, seed=3)
        t = generate_synthetic_tracklet(spec)
        rates = [m.dtheta for m in box_motions(t)]
        np.testing.assert_allclose(rates, rates[0], atol=1e-12)
        assert abs(rates[0]) <= np.deg2rad(5.0)

    def test_deterministic_given_seed(self):
        spec = SceneSpec(n_distractors=2, seed=4)
        a = generate_synthetic_tracklet(spec)
        b = generate_synthetic_tracklet(spec)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.points, fb.points)
        for ba, bb in zip(a.gt_boxes, b.gt_boxes):
            np.testing.assert_array_equal(ba.as_vector(), bb.as_vector())
        for ma, mb in zip(a.oracle.target_masks, b.oracle.target_masks):
            np.testing.assert_array_equal(ma, mb)

    def test_target_only_scene_points_near_box(self):
        # without distractors a frame is the target's surface plus the ground
        # clutter: 0.05 points per m^2 over the 40 m square, 80 points
        spec = SceneSpec(n_distractors=0, noise_sigma=0.02, seed=5)
        t = generate_synthetic_tracklet(spec)
        total = inside3 = 0
        for frame, box, mask in zip(t.frames, t.gt_boxes, t.oracle.target_masks):
            assert (~mask).sum() == 80
            target = frame.points[mask]
            assert points_in_box(target, expanded(box, 6 * 0.02)).all()
            inside3 += points_in_box(target, expanded(box, 3 * 0.02)).sum()
            total += len(target)
        assert inside3 / total >= 0.997

    def test_visibility_culling_single_face(self):
        # a car straight ahead with yaw 0: only the rear face (x = 10 - l/2)
        # faces the sensor, so all noise-free points lie on that plane
        box = Box3D(center=(10.0, 0.0, 0.8), size=CAR_SIZE, yaw=0.0)
        points = _surface_points(box, np.random.default_rng(6), noise_sigma=0.0)
        assert len(points) == round(1.8 * 1.6 * 50)  # the face's area at 50 points per m^2
        np.testing.assert_allclose(points[:, 0], 8.0, atol=1e-12)
        assert np.all(np.abs(points[:, 1]) <= 0.9 + 1e-12)
        assert np.all((points[:, 2] >= -1e-12) & (points[:, 2] <= 1.6 + 1e-12))

    def test_distractors_present_and_initially_disjoint(self):
        spec = SceneSpec(n_distractors=3, seed=7)
        t = generate_synthetic_tracklet(spec)
        assert len(t.oracle.distractor_boxes) == 3
        first = [track[0] for track in t.oracle.distractor_boxes]
        for i, d in enumerate(first):
            assert iou3d(d, t.gt_boxes[0]) == 0.0
            for other in first[i + 1 :]:
                assert iou3d(d, other) == 0.0
        # masks pick out the target rows only (3-sigma rule holds in aggregate)
        inside = total = 0
        for frame, box, mask in zip(t.frames, t.gt_boxes, t.oracle.target_masks):
            assert 0 < mask.sum() < len(frame)
            inside += points_in_box(frame.points[mask], expanded(box, 3 * spec.noise_sigma)).sum()
            total += mask.sum()
        assert inside / total >= 0.997

    def test_pedestrian_preset(self):
        t = generate_synthetic_tracklet(
            SceneSpec(category="pedestrian", seed=8)
        )
        np.testing.assert_array_equal(t.gt_boxes[0].size, PEDESTRIAN_SIZE)
        assert t.category == "pedestrian"

    def test_dataset_builder_cycles_and_ids(self):
        ds = make_synthetic_dataset(6, SceneSpec(n_frames=3, seed=0), master_seed=9)
        assert len(ds) == 6
        assert len({t.id for t in ds}) == 6
        # motions cycle static / constant-velocity / turning
        static = ds[0], ds[3]
        for t in static:
            np.testing.assert_array_equal(t.gt_boxes[0].as_vector(), t.gt_boxes[-1].as_vector())
        moving = ds[1], ds[4]
        for t in moving:
            assert not np.array_equal(t.gt_boxes[0].center, t.gt_boxes[-1].center)

    def test_dataset_builder_deterministic(self):
        a = make_synthetic_dataset(3, SceneSpec(n_frames=3), master_seed=10)
        b = make_synthetic_dataset(3, SceneSpec(n_frames=3), master_seed=10)
        for ta, tb in zip(a, b):
            for fa, fb in zip(ta.frames, tb.frames):
                np.testing.assert_array_equal(fa.points, fb.points)


class TestTrainingPairs:
    def test_pair_count(self):
        t = generate_synthetic_tracklet(SceneSpec(n_frames=7, seed=11))
        assert len(make_training_pairs([t])) == 6

    def test_single_frame_no_pairs(self):
        t = generate_synthetic_tracklet(SceneSpec(n_frames=1, seed=12))
        assert make_training_pairs([t]) == []

    def test_pair_owns_its_target_masks(self):
        t = generate_synthetic_tracklet(SceneSpec(n_frames=3, n_distractors=2, seed=13))
        pair = make_training_pairs([t])[1]
        prev_mask, cur_mask = pair.target_masks
        np.testing.assert_array_equal(prev_mask, points_in_box(pair.prev_frame.points, pair.prev_box))
        np.testing.assert_array_equal(cur_mask, points_in_box(pair.cur_frame.points, pair.cur_box))
        assert prev_mask.any() and not prev_mask.all()
        assert not prev_mask.flags.writeable and not cur_mask.flags.writeable
        again = pair.target_masks
        assert again[0] is prev_mask and again[1] is cur_mask

    def test_dynamic_threshold(self):
        b0 = Box3D(center=[0, 0, 0.8], size=CAR_SIZE, yaw=0.0)

        def dynamic(displacement: float) -> bool:
            return is_dynamic(infer_rtm(b0, apply_rtm(b0, RTM(displacement, 0.0, 0.0, 0.0))))

        assert dynamic(0.2) is True
        assert dynamic(0.1) is False
        # rule is strictly greater than 0.15 m
        assert dynamic(0.15) is False


class TestNativeFormat:
    def make_dataset(self):
        return make_synthetic_dataset(
            2, SceneSpec(n_frames=4, n_distractors=1, seed=0), master_seed=13
        )

    def test_round_trip_stable_at_float32(self, tmp_path):
        ds = self.make_dataset()
        write_native(ds, tmp_path)
        once = read_native(tmp_path)
        write_native(once, tmp_path / "again")
        twice = read_native(tmp_path / "again")
        assert [t.id for t in once] == [t.id for t in ds]
        for a, b in zip(once, twice):
            assert a.id == b.id and a.category == b.category
            for fa, fb in zip(a.frames, b.frames):
                np.testing.assert_array_equal(fa.points, fb.points)
                assert fa.timestamp == fb.timestamp
            for ba, bb in zip(a.gt_boxes, b.gt_boxes):
                np.testing.assert_array_equal(ba.as_vector(), bb.as_vector())

    def test_v2_stores_only_what_the_boxes_cannot_give(self, tmp_path):
        write_native(self.make_dataset(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format_version"] == 2
        assert [set(entry) for entry in manifest["tracklets"]] == [{"dir"}, {"dir"}]
        for meta_path in sorted(tmp_path.rglob("meta.json")):
            meta = json.loads(meta_path.read_text())
            assert meta["format_version"] == 2
            assert set(meta) == {"format_version", "id", "category", "timestamps", "boxes"}

    def check_oracle_block_ignored(self, tmp_path, version: int) -> None:
        """Add what earlier writers stored to a fresh write: an ``id`` and a
        ``split`` tag per manifest entry, and a ``source`` tag and an
        ``oracle`` block per tracklet (distractor tracks; in version 1 also
        target masks and the box motion).  It reads back as the fresh write
        does, bit for bit, in the same order, without an oracle."""
        ds = self.make_dataset()
        assert all(len(t.oracle.distractor_boxes) == 1 for t in ds)
        write_native(ds, tmp_path / "plain")
        write_native(ds, tmp_path / "old")
        generated = {t.id: t for t in ds}
        for meta_path in sorted((tmp_path / "old").rglob("meta.json")):
            meta = json.loads(meta_path.read_text())
            t = generated[meta["id"]]
            oracle = {"distractor_boxes": [
                [[float(v) for v in b.as_vector()] for b in track] for track in t.oracle.distractor_boxes
            ]}
            if version == 1:
                motions = box_motions(t)
                oracle.update(
                    target_masks=[mask.astype(int).tolist() for mask in t.oracle.target_masks],
                    rtms=[[float(v) for v in m.as_vector()] for m in motions],
                    dynamic_flags=[is_dynamic(m) for m in motions],
                )
            meta.update(format_version=version, source="synthetic", oracle=oracle)
            meta_path.write_text(json.dumps(meta) + "\n")
        manifest_path = tmp_path / "old" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = version
        for entry, t in zip(manifest["tracklets"], ds):
            entry.update(id=t.id, split="train")
        manifest_path.write_text(json.dumps(manifest))

        old, plain = read_native(tmp_path / "old"), read_native(tmp_path / "plain")
        assert [t.id for t in old] == [t.id for t in plain] == [t.id for t in ds]
        for a, b, gen in zip(old, plain, ds):
            for ba, bb, bg in zip(a.gt_boxes, b.gt_boxes, gen.gt_boxes):
                np.testing.assert_array_equal(ba.as_vector(), bb.as_vector())
                np.testing.assert_array_equal(ba.as_vector(), bg.as_vector())
            for fa, fb, fg in zip(a.frames, b.frames, gen.frames):
                np.testing.assert_array_equal(fa.points, fb.points)
                np.testing.assert_array_equal(fa.points, fg.points.astype(np.float32).astype(np.float64))
                assert fa.timestamp == fb.timestamp == fg.timestamp
            assert a.oracle is None and b.oracle is None

    def test_v1_dataset_still_reads(self, tmp_path):
        self.check_oracle_block_ignored(tmp_path, version=1)

    def test_v2_distractor_tracks_are_ignored(self, tmp_path):
        # version 2 as written before the writer dropped distractor tracks
        self.check_oracle_block_ignored(tmp_path, version=2)

    def test_boxes_survive_exactly(self, tmp_path):
        ds = self.make_dataset()
        write_native(ds, tmp_path)
        back = read_native(tmp_path)
        for a, b in zip(ds, back):
            for ba, bb in zip(a.gt_boxes, b.gt_boxes):
                np.testing.assert_array_equal(ba.as_vector(), bb.as_vector())

    def test_empty_directory_is_empty_dataset(self, tmp_path):
        assert read_native(tmp_path) == []

    def test_no_manifest_is_empty_dataset(self, tmp_path):
        # the manifest is the dataset: tracklet directories it does not list are not read
        write_native(self.make_dataset(), tmp_path)
        (tmp_path / "manifest.json").unlink()
        assert len(list(tmp_path.glob("*/meta.json"))) == 2
        assert read_native(tmp_path) == []

    def test_missing_meta_rejected(self, tmp_path):
        ds = self.make_dataset()
        write_native(ds, tmp_path)
        metas = sorted(tmp_path.rglob("meta.json"))
        metas[0].unlink()
        with pytest.raises(FileNotFoundError):
            read_native(tmp_path)

    def test_truncated_manifest_names_file(self, tmp_path):
        write_native(self.make_dataset(), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        text = manifest_path.read_text()
        manifest = json.loads(text)

        def with_entry(entry) -> str:
            return json.dumps({**manifest, "tracklets": [entry, *manifest["tracklets"][1:]]})

        first = manifest["tracklets"][0]
        for bad, message in [
            (text[: len(text) // 2], ""),
            (json.dumps([manifest]), "top level is a JSON list"),
            (with_entry(first["dir"]), "tracklets entry 0 is a JSON str"),
            (with_entry({key: v for key, v in first.items() if key != "dir"}), "missing key 'dir'"),
            (json.dumps({**manifest, "tracklets": 5}), "tracklets is a JSON int, not an array"),
            (with_entry({**first, "dir": 3}), "tracklets entry 0 dir is a JSON int, not a string"),
        ]:
            manifest_path.write_text(bad)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(manifest_path))}: {message}"):
                read_native(tmp_path)

    def test_manifest_version_checked(self, tmp_path):
        write_native(self.make_dataset(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            read_native(tmp_path)

    def rewrite_meta(self, tmp_path, edit):
        write_native(self.make_dataset(), tmp_path)
        meta_path = sorted(tmp_path.rglob("meta.json"))[1]
        meta_path.write_text(edit(meta_path.read_text()))
        return re.escape(str(meta_path))

    def test_truncated_meta_names_file(self, tmp_path):
        path = self.rewrite_meta(tmp_path, lambda text: text[: len(text) // 2])
        with pytest.raises(ValueError, match=rf"^{path}: "):
            read_native(tmp_path)

    def test_fewer_boxes_than_frames_names_file(self, tmp_path):
        def drop_box(text):
            meta = json.loads(text)
            meta["boxes"].pop()
            return json.dumps(meta)

        path = self.rewrite_meta(tmp_path, drop_box)
        with pytest.raises(ValueError, match=rf"^{path}: .*frames and boxes"):
            read_native(tmp_path)

    @pytest.mark.parametrize("key", ["boxes", "timestamps"])
    def test_missing_key_names_file(self, tmp_path, key):
        def drop_key(text):
            meta = json.loads(text)
            del meta[key]
            return json.dumps(meta)

        path = self.rewrite_meta(tmp_path, drop_key)
        with pytest.raises(ValueError, match=rf"^{path}: missing key '{key}'"):
            read_native(tmp_path)

    def test_zero_size_box_names_file(self, tmp_path):
        def flatten_box(text):
            meta = json.loads(text)
            meta["boxes"][2][5] = 0.0  # (cx, cy, cz, w, l, h, yaw)
            return json.dumps(meta)

        path = self.rewrite_meta(tmp_path, flatten_box)
        with pytest.raises(ValueError, match=rf"^{path}: size components must be positive"):
            read_native(tmp_path)


# LiDAR x-forward / camera z-forward permutation used by the real sensors
CANON_ROT = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])


def write_kitti_sequence(root, labels: list[str], frame_points: dict[int, np.ndarray],
                         calib_rot=CANON_ROT, calib_t=(0.0, 0.0, 0.0), seq="0000"):
    seq_dir = root / seq
    (seq_dir / "velodyne").mkdir(parents=True)
    (seq_dir / "label_02").mkdir()
    (seq_dir / "calib").mkdir()
    tr = np.hstack([calib_rot, np.asarray(calib_t).reshape(3, 1)])
    calib_lines = [
        "P2: " + " ".join(["0"] * 12),
        "Tr_velo_to_cam: " + " ".join(f"{v:.12g}" for v in tr.reshape(-1)),
    ]
    (seq_dir / "calib" / f"{seq}.txt").write_text("\n".join(calib_lines) + "\n")
    (seq_dir / "label_02" / f"{seq}.txt").write_text("\n".join(labels) + "\n")
    for frame, pts in frame_points.items():
        xyzr = np.hstack([pts, np.full((len(pts), 1), 0.5)]).astype("<f4")
        (seq_dir / "velodyne" / f"{frame:06d}.bin").write_bytes(xyzr.tobytes())
    return seq_dir


def label_row(frame, tid, loc, hwl, ry, kind="Car"):
    h, w, l = hwl
    x, y, z = loc
    return (f"{frame} {tid} {kind} 0 0 0.0 0 0 50 50 "
            f"{h} {w} {l} {x} {y} {z} {ry}")


class TestKittiIngestion:
    def test_frozen_canonical_fixture(self, tmp_path):
        # loc (0,0,10) in camera = 10 m straight ahead; ry=0 means camera-x
        # heading, which is LiDAR yaw -pi/2 under the canonical calibration
        labels = [
            label_row(0, 0, (0.0, 0.0, 10.0), (1.6, 1.8, 4.0), 0.0),
            label_row(1, 0, (0.0, 0.0, 11.0), (1.6, 1.8, 4.0), 0.0),
        ]
        pts = {0: np.array([[1.0, 2.0, 3.0]]), 1: np.zeros((0, 3))}
        seq_dir = write_kitti_sequence(tmp_path, labels, pts)
        tracklets = load_kitti_tracklets(seq_dir)
        assert len(tracklets) == 1
        t = tracklets[0]
        assert len(t.frames) == 2
        np.testing.assert_allclose(t.gt_boxes[0].center, [10.0, 0.0, 0.8], atol=1e-6)
        np.testing.assert_allclose(t.gt_boxes[1].center, [11.0, 0.0, 0.8], atol=1e-6)
        np.testing.assert_array_equal(t.gt_boxes[0].size, [1.8, 4.0, 1.6])
        assert abs(wrap_angle(t.gt_boxes[0].yaw - (-np.pi / 2))) < 1e-6
        np.testing.assert_allclose(t.frames[0].points, [[1.0, 2.0, 3.0]], atol=1e-6)
        assert len(t.frames[1]) == 0

    def test_round_trip_through_rotated_calib(self, tmp_path):
        # a physical calibration keeps the LiDAR up-axis aligned with camera
        # -y: canonical permutation composed with a rotation about up, plus
        # an arbitrary lever arm; yaw-only boxes survive exactly
        rng = np.random.default_rng(14)
        a = rng.uniform(-np.pi, np.pi)
        spin = np.array(
            [[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]]
        )
        calib_rot = CANON_ROT @ spin
        calib_t = rng.uniform(-1, 1, size=3)
        tr = np.eye(4)
        tr[:3, :3], tr[:3, 3] = calib_rot, calib_t

        labels = []
        want = []
        for frame in range(3):
            box = Box3D(center=rng.uniform(-8, 8, size=3), size=CAR_SIZE,
                        yaw=rng.uniform(-np.pi, np.pi))
            loc, hwl, ry = camera_label_from_box(box, tr)
            labels.append(label_row(frame, 0, loc, hwl, ry))
            want.append(box)
        pts = {f: np.zeros((0, 3)) for f in range(3)}
        seq_dir = write_kitti_sequence(tmp_path, labels, pts, calib_rot, calib_t)
        got = load_kitti_tracklets(seq_dir)[0].gt_boxes
        for w, g in zip(want, got):
            np.testing.assert_allclose(g.center, w.center, atol=1e-6)
            np.testing.assert_allclose(g.size, w.size, atol=1e-6)
            assert abs(wrap_angle(g.yaw - w.yaw)) < 1e-6

    def test_dontcare_skipped(self, tmp_path):
        labels = [
            label_row(0, 0, (0, 0, 10), (1.6, 1.8, 4.0), 0.0),
            label_row(0, 1, (0, 0, 20), (1.6, 1.8, 4.0), 0.0, kind="DontCare"),
        ]
        seq_dir = write_kitti_sequence(tmp_path, labels, {0: np.zeros((0, 3))})
        assert len(load_kitti_tracklets(seq_dir)) == 1

    def test_frame_gap_splits_tracklet(self, tmp_path):
        labels = [
            label_row(f, 0, (0, 0, 10.0 + f), (1.6, 1.8, 4.0), 0.0) for f in (0, 1, 3, 4)
        ]
        pts = {f: np.zeros((0, 3)) for f in (0, 1, 3, 4)}
        seq_dir = write_kitti_sequence(tmp_path, labels, pts)
        tracklets = load_kitti_tracklets(seq_dir)
        assert sorted(len(t.frames) for t in tracklets) == [2, 2]
        assert len({t.id for t in tracklets}) == 2

    def test_missing_calib_is_error(self, tmp_path):
        labels = [label_row(0, 0, (0, 0, 10), (1.6, 1.8, 4.0), 0.0)]
        seq_dir = write_kitti_sequence(tmp_path, labels, {0: np.zeros((0, 3))})
        (seq_dir / "calib" / "0000.txt").unlink()
        with pytest.raises(FileNotFoundError):
            load_kitti_tracklets(seq_dir)

    def test_non_numeric_calib_names_file(self, tmp_path):
        labels = [label_row(0, 0, (0, 0, 10), (1.6, 1.8, 4.0), 0.0)]
        seq_dir = write_kitti_sequence(tmp_path, labels, {0: np.zeros((0, 3))})
        path = seq_dir / "calib" / "0000.txt"
        text = path.read_text()
        assert "Tr_velo_to_cam: 0 " in text
        path.write_text(text.replace("Tr_velo_to_cam: 0 ", "Tr_velo_to_cam: x "))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: could not convert string to float"):
            load_kitti_tracklets(seq_dir)

    @pytest.mark.parametrize("calib_rot", [np.zeros((3, 3)), np.full((3, 3), np.nan)])
    def test_singular_or_non_finite_calib_names_file(self, tmp_path, calib_rot):
        # every label box maps through the inverse, so the label file is not at fault
        labels = [label_row(0, 0, (0, 0, 10), (1.6, 1.8, 4.0), 0.0)]
        seq_dir = write_kitti_sequence(tmp_path, labels, {0: np.zeros((0, 3))}, calib_rot)
        path = seq_dir / "calib" / "0000.txt"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: Tr_velo_to_cam must be finite and invertible$"):
            load_kitti_tracklets(seq_dir)

    @pytest.mark.parametrize("part", ["calib", "label_02"])
    def test_non_utf8_text_names_file(self, tmp_path, part):
        labels = [label_row(0, 0, (0, 0, 10), (1.6, 1.8, 4.0), 0.0)]
        seq_dir = write_kitti_sequence(tmp_path, labels, {0: np.zeros((0, 3))})
        path = seq_dir / part / "0000.txt"
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
            load_kitti_tracklets(seq_dir)

    def test_reflectance_dropped(self, tmp_path):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        labels = [label_row(0, 0, (0, 0, 10), (1.6, 1.8, 4.0), 0.0)]
        seq_dir = write_kitti_sequence(tmp_path, labels, {0: pts})
        frame = load_kitti_tracklets(seq_dir)[0].frames[0]
        assert frame.points.shape == (2, 3)
        np.testing.assert_allclose(frame.points, pts, atol=1e-6)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0 0 Car 0 0 0.0 0 0 50 50 1.6 wide 4.0 0 0 10 0", "could not convert string to float"),
            (label_row(1, 0, (0, 0, 11), (1.6, 0.0, 4.0), 0.0), "size components must be positive"),
            (label_row(1, 0, (float("nan"), 0, 11), (1.6, 1.8, 4.0), 0.0), "center must be finite"),
        ],
        ids=["non-numeric", "zero-size", "nan"],
    )
    def test_bad_label_row_names_file_and_line(self, tmp_path, row, message):
        labels = [label_row(0, 0, (0, 0, 10), (1.6, 1.8, 4.0), 0.0), "", row]
        seq_dir = write_kitti_sequence(tmp_path, labels, {0: np.zeros((0, 3)), 1: np.zeros((0, 3))})
        path = seq_dir / "label_02" / "0000.txt"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: {message}"):
            load_kitti_tracklets(seq_dir)


def damage_point_file(path, columns: int, fault: str) -> str:
    """Damage one packed float32 point file; return the start of the message
    its read must raise after the file's path."""
    if fault == "missing":
        path.unlink()
        return "missing point file"
    raw = path.read_bytes()
    if fault == "partial":
        path.write_bytes(raw + b"\x00" * 8)
        return rf"corrupt point file, row {len(raw) // (4 * columns)} is partial"
    rows = np.frombuffer(raw, dtype="<f4").reshape(-1, columns).copy()
    rows[3, 1] = np.nan
    rows[4, 0] = -np.inf
    path.write_bytes(rows.tobytes())
    return r"frame points must be finite; row 3 is"


@pytest.mark.parametrize("fault", ["missing", "partial", "non-finite"])
@pytest.mark.parametrize("layout", ["native", "kitti"])
def test_point_file_fault_names_file_and_row(tmp_path, layout, fault):
    # both formats read their point files through one reader
    if layout == "native":
        write_native(make_synthetic_dataset(1, SceneSpec(n_frames=3), master_seed=13), tmp_path)
        path, columns = tmp_path / "syn-13-0000" / "points_001.bin", 3

        def read():
            return read_native(tmp_path)
    else:
        labels = [label_row(0, 0, (0, 0, 10), (1.6, 1.8, 4.0), 0.0)]
        seq_dir = write_kitti_sequence(tmp_path, labels, {0: np.zeros((6, 3))})
        path, columns = seq_dir / "velodyne" / "000000.bin", 4

        def read():
            return load_kitti_tracklets(seq_dir)
    message = damage_point_file(path, columns, fault)
    with pytest.raises(FileNotFoundError if fault == "missing" else ValueError,
                       match=rf"^{re.escape(str(path))}: {message}"):
        read()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_signalling_nan_names_file_and_row_without_a_warning(tmp_path):
    # a float32 signalling NaN warns when cast to float64; the reader must
    # reject its row without casting it
    raw = bytearray(np.arange(12, dtype="<f4").tobytes())
    raw[2 * 12 + 4: 2 * 12 + 8] = struct.pack("<I", 0x7FA00000)  # row 2, y
    path = tmp_path / "points_000.bin"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: frame points must be finite; row 2 is"):
        read_point_file(path, 0, 3)
