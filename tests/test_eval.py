"""Tests for the one-pass evaluation metrics, baselines, and protocols.

The AUC metrics have closed forms that double as oracles; the Kalman
baseline is checked against a rigid corner-point fixture whose centroid
coincides with the box center, making the constant-velocity lock-on exact.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from lidartrack.data import SceneSpec, generate_synthetic_tracklet, make_synthetic_dataset
from lidartrack.geometry import Box3D, box_key_points, center_distance, iou3d
from lidartrack.evaluation import (
    FrameDiagnostics,
    KalmanCVTracker,
    OpeReport,
    TrackResult,
    ZeroMotionTracker,
    distractor_protocol,
    export_predictions,
    precision_auc,
    render_report,
    run_ope,
    score_predictions,
    success_auc,
)
from lidartrack.nn import Model, ModelConfig
from lidartrack.pipeline import NetworkTracker, make_oracle_overrides, track_sequence
from lidartrack.pointcloud import Frame


def key_point_frames(box: Box3D, velocity, n_frames: int) -> tuple[list[Frame], list[Box3D]]:
    """A rigid 9-point target (8 corners + center) under constant velocity."""
    v = np.asarray(velocity, dtype=np.float64)
    frames, boxes = [], []
    for t in range(n_frames):
        b = Box3D(center=np.asarray(box.center) + t * v, size=box.size, yaw=box.yaw)
        frames.append(Frame(points=box_key_points(b), timestamp=t))
        boxes.append(b)
    return frames, boxes


class TestSuccessAuc:
    def test_closed_forms(self):
        assert success_auc([1.0, 1.0, 1.0]) == 100.0
        assert abs(success_auc([0.5] * 7) - 50.0) < 1e-12
        assert abs(success_auc([1.0, 0.0]) - 50.0) < 1e-12

    def test_equals_scaled_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            overlaps = rng.uniform(0, 1, size=rng.integers(1, 40))
            assert abs(success_auc(overlaps) - 100.0 * overlaps.mean()) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            success_auc([])
        with pytest.raises(ValueError):
            success_auc([1.2])
        with pytest.raises(ValueError):
            success_auc([-0.1])


class TestPrecisionAuc:
    def test_closed_forms(self):
        assert precision_auc([0.0, 0.0]) == 100.0
        assert abs(precision_auc([1.0] * 5) - 50.0) < 1e-12
        assert precision_auc([2.0, 3.0, 100.0]) == 0.0

    def test_equals_clamped_linear_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            errors = rng.uniform(0, 4, size=rng.integers(1, 40))
            want = 100.0 * np.mean((2.0 - np.minimum(errors, 2.0)) / 2.0)
            assert abs(precision_auc(errors) - want) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            precision_auc([])
        with pytest.raises(ValueError):
            precision_auc([-0.5])

    def test_infinite_error_scores_zero(self):
        assert abs(precision_auc([0.0, np.inf]) - 50.0) < 1e-12


class TestZeroMotion:
    def test_static_scene_is_perfect(self):
        t = generate_synthetic_tracklet(SceneSpec(motion="static", n_frames=6, seed=0))
        report = run_ope(ZeroMotionTracker(), [t])
        assert abs(report.success - 100.0) < 1e-9
        assert abs(report.precision - 100.0) < 1e-9

    def test_constant_velocity_error_grows_linearly(self):
        spec = SceneSpec(
            motion="constant_velocity", speed_min=1.0, speed_max=1.0, n_frames=6, seed=1
        )
        t = generate_synthetic_tracklet(spec)
        report = run_ope(ZeroMotionTracker(), [t])
        errors = report.traces[t.id][1]
        for step, err in enumerate(errors):
            assert abs(err - step * 1.0) < 1e-9

    def test_single_frame_tracklet(self):
        t = generate_synthetic_tracklet(SceneSpec(n_frames=1, seed=2))
        report = run_ope(ZeroMotionTracker(), [t])
        assert report.success == 100.0 and report.precision == 100.0


class TestKalmanCV:
    def test_locks_onto_constant_velocity(self):
        box = Box3D(center=[4.0, -2.0, 0.8], size=[1.8, 4.0, 1.6], yaw=0.3)
        frames, boxes = key_point_frames(box, velocity=(0.8, -0.4, 0.0), n_frames=8)
        out = KalmanCVTracker().track(frames, boxes[0])
        errs = [center_distance(p, g) for p, g in zip(out, boxes)]
        assert errs[0] == 0.0
        assert all(e < 1e-3 for e in errs[2:])
        # yaw carried constant from the initial box
        assert all(b.yaw == boxes[0].yaw for b in out)

    def test_static_target_stays_put(self):
        box = Box3D(center=[2.0, 2.0, 0.8], size=[1.8, 4.0, 1.6], yaw=-1.0)
        frames, boxes = key_point_frames(box, velocity=(0.0, 0.0, 0.0), n_frames=10)
        out = KalmanCVTracker().track(frames, boxes[0])
        assert all(center_distance(p, box) < 1e-6 for p in out)

    def test_covariance_positive_definite_long_run(self):
        box = Box3D(center=[0.0, 0.0, 0.8], size=[1.8, 4.0, 1.6], yaw=0.0)
        frames, boxes = key_point_frames(box, velocity=(0.3, 0.1, 0.0), n_frames=1000)
        tracker = KalmanCVTracker()
        tracker.track(frames, boxes[0])
        eig = np.linalg.eigvalsh(tracker.covariance)
        assert np.all(eig > 0)

    def test_empty_gate_dead_reckons(self):
        box = Box3D(center=[0.0, 0.0, 0.8], size=[1.8, 4.0, 1.6], yaw=0.0)
        frames, boxes = key_point_frames(box, velocity=(0.5, 0.0, 0.0), n_frames=6)
        # wipe one mid-sequence frame: points far outside any plausible gate
        frames[3] = Frame(points=np.full((4, 3), 300.0), timestamp=3)
        out = KalmanCVTracker().track(frames, boxes[0])
        assert center_distance(out[3], boxes[3]) < 0.05  # prediction carries through
        assert center_distance(out[5], boxes[5]) < 0.05

    def test_deterministic(self):
        t = generate_synthetic_tracklet(
            SceneSpec(motion="constant_velocity", speed_min=0.5, speed_max=1.5, n_frames=8, seed=3)
        )
        a = KalmanCVTracker().track(t.frames, t.gt_boxes[0])
        b = KalmanCVTracker().track(t.frames, t.gt_boxes[0])
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.as_vector(), y.as_vector())


def untimed(boxes) -> TrackResult:
    """A test tracker's result: the boxes, with zero wall time per tracked frame."""
    boxes = tuple(boxes)
    return TrackResult(boxes=boxes, diagnostics=tuple(FrameDiagnostics(wall_ms=0.0) for _ in boxes[1:]))


class GtEchoTracker:
    """Test-only tracker that replays boxes captured per frame count."""

    name = "gt-echo"

    def __init__(self, tracklets):
        self._by_key = {self.key(t.frames): list(t.gt_boxes) for t in tracklets}

    @staticmethod
    def key(frames):
        return tuple(f.timestamp for f in frames) + (len(frames[0]),)

    def track(self, frames, initial_box):
        return untimed(self._by_key[self.key(frames)])


class FailOnPedestrians:
    name = "fails-on-pedestrians"

    def track(self, frames, initial_box):
        if len(frames[0]) < 200:  # pedestrian clouds are much sparser
            raise RuntimeError("lost track")
        return untimed(initial_box for _ in frames)


def small_mixed_dataset():
    car = SceneSpec(motion="static", n_frames=5, seed=10)
    ped = SceneSpec(
        motion="static",
        n_frames=4,
        seed=11,
        category="pedestrian",
        initial_center=(5.0, 1.0, 0.85),
    )
    return [generate_synthetic_tracklet(car), generate_synthetic_tracklet(ped)]


class TestRunOpe:
    def test_gt_echo_is_perfect(self):
        tracklets = small_mixed_dataset()
        report = run_ope(GtEchoTracker(tracklets), tracklets)
        assert abs(report.success - 100.0) < 1e-9
        assert abs(report.precision - 100.0) < 1e-9
        assert report.n_frames == 9
        assert set(report.categories) == {"car", "pedestrian"}

    def test_tracker_sees_only_frames_and_initial_box(self):
        seen = []

        class Spy:
            def track(self, frames, initial_box):
                seen.append((frames, initial_box))
                return untimed(initial_box for _ in frames)

        t = generate_synthetic_tracklet(SceneSpec(motion="static", n_frames=3, seed=12))
        run_ope(Spy(), [t])
        frames, initial = seen[0]
        assert list(frames) == list(t.frames)
        np.testing.assert_array_equal(initial.as_vector(), t.gt_boxes[0].as_vector())

    def test_failure_scored_as_zero_and_run_continues(self):
        tracklets = small_mixed_dataset()
        report = run_ope(FailOnPedestrians(), tracklets)
        ped = [t for t in tracklets if t.category == "pedestrian"][0]
        assert report.failures == {ped.id: "RuntimeError: lost track"}
        overlaps, errors = report.traces[ped.id]
        assert overlaps[0] == 1.0 and all(o == 0.0 for o in overlaps[1:])
        assert all(np.isinf(e) for e in errors[1:])
        # the car tracklet is static, so zero-motion output stays perfect
        assert abs(report.categories["car"].success - 100.0) < 1e-9

    def test_overall_is_the_all_frames_curve(self):
        # unequal frame counts per category: the overall score is each curve
        # over every frame, not recomputed from the category means
        tracklets = small_mixed_dataset()
        report = run_ope(FailOnPedestrians(), tracklets)
        assert {name: m.n_frames for name, m in report.categories.items()} == {"car": 5, "pedestrian": 4}
        overlaps = [o for t in tracklets for o in report.traces[t.id][0]]
        errors = [e for t in tracklets for e in report.traces[t.id][1]]
        assert report.success == success_auc(overlaps)
        assert report.precision == precision_auc(errors)

    def test_deterministic_metrics(self):
        tracklets = small_mixed_dataset()
        a = run_ope(ZeroMotionTracker(), tracklets)
        b = run_ope(ZeroMotionTracker(), tracklets)
        assert a.success == b.success and a.precision == b.precision
        assert a.traces == b.traces

    def test_wrong_length_output_counts_as_failure(self):
        class Short:
            def track(self, frames, initial_box):
                return untimed([initial_box])

        t = generate_synthetic_tracklet(SceneSpec(motion="static", n_frames=4, seed=13))
        report = run_ope(Short(), [t])
        assert report.failures == {
            t.id: "ValueError: 1 boxes and 0 diagnostics for 4 frames; want 4 and 3"
        }

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            run_ope(ZeroMotionTracker(), [])


class TestDistractorProtocol:
    def test_k_zero_equals_plain_evaluation(self):
        template = SceneSpec(motion="static", n_frames=4, seed=0)
        rows = distractor_protocol(
            ZeroMotionTracker(), template, n_tracklets=3, k_values=(0, 2), master_seed=5
        )
        assert [k for k, _ in rows] == [0, 2]
        plain = run_ope(
            ZeroMotionTracker(), make_synthetic_dataset(3, template, master_seed=5)
        )
        k0 = rows[0][1]
        assert k0.success == plain.success and k0.precision == plain.precision

    def test_row_per_k(self):
        template = SceneSpec(motion="static", n_frames=3, seed=1)
        rows = distractor_protocol(
            ZeroMotionTracker(), template, n_tracklets=2, k_values=(0, 1, 3), master_seed=6
        )
        assert len(rows) == 3
        assert all(isinstance(r, OpeReport) for _, r in rows)


class TestScorePredictions:
    def test_round_trip_from_export(self, tmp_path):
        t = generate_synthetic_tracklet(
            SceneSpec(motion="constant_velocity", speed_min=0.5, speed_max=1.5, n_frames=5, seed=20)
        )
        res = track_sequence(t, model=Model(ModelConfig()), overrides=make_oracle_overrides(t))
        path = tmp_path / "preds.jsonl"
        export_predictions([(t.id, res)], path)
        report = score_predictions(path, [t])
        assert report.success > 100.0 - 1e-6
        assert report.precision > 100.0 - 1e-6

    def test_unknown_tracklet_rejected(self, tmp_path):
        t = generate_synthetic_tracklet(SceneSpec(n_frames=2, seed=21))
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"tracklet_id": "nope", "frame_index": 0, "box": [0,0,0,1,1,1,0], "dynamic": false, "wall_ms": 0.0}\n'
        )
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*unknown tracklet ids: \['nope'\]"):
            score_predictions(path, [t])

    def test_missing_tracklet_names_file(self, tmp_path):
        a, b = (generate_synthetic_tracklet(SceneSpec(n_frames=2, seed=s)) for s in (21, 22))
        path = tmp_path / "preds.jsonl"
        export_predictions([(a.id, ZeroMotionTracker().track(list(a.frames), a.gt_boxes[0]))], path)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no predictions for tracklet ids: \['{b.id}'\]"):
            score_predictions(path, [a, b])

    def test_non_utf8_byte_names_file(self, tmp_path):
        t = generate_synthetic_tracklet(SceneSpec(n_frames=2, seed=21))
        path = tmp_path / "preds.jsonl"
        export_predictions([(t.id, ZeroMotionTracker().track(list(t.frames), t.gt_boxes[0]))], path)
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
            score_predictions(path, [t])

    def test_frame_count_mismatch_rejected(self, tmp_path):
        t = generate_synthetic_tracklet(SceneSpec(n_frames=3, seed=22))
        res = track_sequence(t, model=Model(ModelConfig()), overrides=make_oracle_overrides(t))
        path = tmp_path / "preds.jsonl"
        export_predictions([(t.id, res)], path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: tracklet .* do not cover 0\.\.2"):
            score_predictions(path, [t])

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"tracklet_id": "syn-21", "frame_', "Unterminated string"),
            ('{"frame_index": 1, "box": [0, 0, 0, 1, 1, 1, 0]}', "missing key 'tracklet_id'"),
            ('{"tracklet_id": "syn-21", "frame_index": 1, "box": [0, 0, 0, 0, 1, 1, 0]}',
             "size components must be positive"),
            ('{"tracklet_id": "syn-21", "frame_index": 1, "box": [0, 0, 0, 1, 1, 1, 0], "wall_ms": NaN}',
             "wall_ms must be finite and non-negative, got nan"),
            ('{"tracklet_id": "syn-21", "frame_index": 1, "box": [0, 0, 0, 1, 1, 1, 0], "wall_ms": -1.5}',
             "wall_ms must be finite and non-negative, got -1.5"),
            ('{"tracklet_id": "syn-21", "frame_index": 1.9, "box": [0, 0, 0, 1, 1, 1, 0]}',
             "frame_index must be a JSON integer, got 1.9"),
            ('{"tracklet_id": "syn-21", "frame_index": "1", "box": [0, 0, 0, 1, 1, 1, 0]}',
             "frame_index must be a JSON integer, got '1'"),
            ('{"tracklet_id": "syn-21", "frame_index": true, "box": [0, 0, 0, 1, 1, 1, 0]}',
             "frame_index must be a JSON integer, got True"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, line, message):
        t = generate_synthetic_tracklet(SceneSpec(n_frames=2, seed=21))
        path = tmp_path / "preds.jsonl"
        export_predictions([(t.id, ZeroMotionTracker().track(list(t.frames), t.gt_boxes[0]))], path)
        first = path.read_text().splitlines()[0]
        path.write_text(f"{first}\n{line}\n")
        with pytest.raises(ValueError) as err:
            score_predictions(path, [t])
        assert str(err.value).startswith(f"{path}:2: ")
        assert message in str(err.value)

    def test_mean_wall_counts_tracked_frames_only(self, tmp_path):
        import json

        tracklets = [generate_synthetic_tracklet(SceneSpec(n_frames=n, seed=23 + n)) for n in (4, 7)]
        path = tmp_path / "preds.jsonl"
        path.write_text("".join(
            json.dumps({
                "tracklet_id": t.id,
                "frame_index": i,
                "box": [float(v) for v in box.as_vector()],
                "dynamic": False,
                "wall_ms": 0.0 if i == 0 else 2.0,
            }) + "\n"
            for t in tracklets
            for i, box in enumerate(t.gt_boxes)
        ))
        assert score_predictions(path, tracklets).mean_wall_ms == 2.0


class TestReportRendering:
    def test_table_contains_categories_and_overall(self):
        tracklets = small_mixed_dataset()
        report = run_ope(ZeroMotionTracker(), tracklets)
        text = render_report(report)
        assert "car" in text and "pedestrian" in text
        assert "overall" in text
        assert "Success" in text and "Precision" in text

    def test_failure_causes_shown(self):
        import json

        tracklets = small_mixed_dataset()
        report = run_ope(FailOnPedestrians(), tracklets)
        ped = [t for t in tracklets if t.category == "pedestrian"][0]
        assert f"{ped.id}: RuntimeError: lost track" in render_report(report)
        back = json.loads(json.dumps(report.to_dict()))
        assert back["failures"] == {ped.id: "RuntimeError: lost track"}

    def test_dict_round_trips_through_json(self):
        import json

        report = run_ope(ZeroMotionTracker(), small_mixed_dataset())
        blob = json.dumps(report.to_dict())
        back = json.loads(blob)
        assert abs(back["overall"]["success"] - report.success) < 1e-12
        assert back["tracker"] == "zero-motion"
        assert set(back["categories"]) == {"car", "pedestrian"}


def protocol_trackers():
    return [
        ZeroMotionTracker(),
        KalmanCVTracker(),
        NetworkTracker(Model(ModelConfig(point_widths=(16, 32), head_hidden=16)), n_points=64),
    ]


class RecordingTracker:
    """Passes ``track`` through to a tracker and keeps every result."""

    def __init__(self, tracker):
        self.tracker = tracker
        self.results = []

    def track(self, frames, initial_box):
        self.results.append(self.tracker.track(frames, initial_box))
        return self.results[-1]


class TestTrackerProtocol:
    @pytest.mark.parametrize("tracker", protocol_trackers(), ids=lambda t: t.name)
    def test_result_has_a_box_per_frame_and_diagnostics_per_tracked_frame(self, tracker):
        t = generate_synthetic_tracklet(
            SceneSpec(motion="constant_velocity", speed_min=0.5, speed_max=1.5, n_frames=5, seed=30)
        )
        result = tracker.track(list(t.frames), t.gt_boxes[0])
        assert isinstance(result, TrackResult)
        assert len(result.boxes) == 5 and len(result.diagnostics) == 4
        assert all(isinstance(d, FrameDiagnostics) and d.wall_ms >= 0.0 for d in result.diagnostics)
        np.testing.assert_array_equal(result.boxes[0].as_vector(), t.gt_boxes[0].as_vector())
        # the result reads as its boxes
        assert len(result) == 5 and list(result) == list(result.boxes) and result[-1] is result.boxes[-1]

    @pytest.mark.parametrize("tracker", protocol_trackers(), ids=lambda t: t.name)
    def test_mean_wall_is_mean_of_the_trackers_own_diagnostics(self, tracker):
        tracklets = make_synthetic_dataset(3, SceneSpec(n_frames=4, seed=31), master_seed=31)
        recorder = RecordingTracker(tracker)
        report = run_ope(recorder, tracklets)
        walls = [d.wall_ms for r in recorder.results for d in r.diagnostics]
        assert len(walls) == 9
        assert report.mean_wall_ms == sum(walls) / len(walls)
