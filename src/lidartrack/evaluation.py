"""One-pass evaluation: the tracker protocol, AUC metrics, classical
baselines, OPE, and the prediction file.

A tracker is anything with ``track(frames, initial_box) -> TrackResult``:
one box per frame, the given box first, and one ``FrameDiagnostics`` per
tracked frame whose wall time the tracker measured itself.  The protocol
hands the tracker the raw frames and the ground-truth box of frame 0,
nothing else; scoring happens afterwards against the full ground truth.
Per-frame overlap is rotated 3D IoU and per-frame error is center
distance. Both curve metrics have closed forms, so no threshold grid is
involved:

- Success is the area under the recall-vs-IoU-threshold curve, which for
  thresholds on [0, 1] equals the mean overlap, reported as a percentage.
- Precision is the area under the recall-vs-distance-threshold curve up to
  ``MAX_ERROR`` = 2 m, which equals the mean of
  ``(MAX_ERROR - min(error, MAX_ERROR)) / MAX_ERROR``, as a percentage.

A tracker that raises, or returns the wrong number of boxes or
diagnostics, is flagged with the cause: its first frame keeps the
by-construction perfect score, every later frame counts as overlap 0 /
infinite error, and the run continues with the remaining tracklets.  The
mean wall time per frame is taken from the diagnostics of the tracklets
that did not fail.

``export_predictions`` writes a run as JSON lines and ``score_predictions``
reads them back, so the same boxes score the same either way.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Protocol, Sequence

import numpy as np

from lidartrack.data import MOTION_MODELS, SceneSpec, Tracklet, make_synthetic_dataset
from lidartrack.data.native import box_from_json, read_text
from lidartrack.geometry import Box3D, center_distance, iou3d, points_in_box
from lidartrack.pointcloud import Frame

__all__ = [
    "CategoryMetrics",
    "FrameDiagnostics",
    "KalmanCVTracker",
    "OpeReport",
    "TrackResult",
    "Tracker",
    "ZeroMotionTracker",
    "distractor_protocol",
    "export_predictions",
    "mean_wall_ms",
    "precision_auc",
    "render_report",
    "run_ope",
    "score_predictions",
    "success_auc",
]

MAX_ERROR = 2.0  # m; the precision curve's distance range

# The Kalman baseline's constant-velocity model on the box center.
KALMAN_ACCEL_VAR = 0.25  # white acceleration driving the model, (m/frame^2)^2
KALMAN_MEASUREMENT_VAR = 1e-2  # centroid-shift measurement, m^2
# prior velocity variance: a large value makes the filter lock onto the
# observed motion within a couple of frames
KALMAN_INIT_VELOCITY_VAR = 25.0
KALMAN_GATE_MARGIN = 2.0  # per-face enlargement of the gate box around the last output, m


@dataclass(frozen=True)
class FrameDiagnostics:
    """A tracker's account of one tracked frame.

    ``wall_ms`` is the frame's wall time as the tracker measured it.  The
    other fields describe the network's stages; trackers without them keep
    the defaults.
    """

    wall_ms: float
    dynamic: bool = False
    fallback_mask: bool = False
    degenerate: bool = False
    refined_prev_box: Optional[Box3D] = None
    coarse_box: Optional[Box3D] = None

    @classmethod
    def since(cls, start: float, **fields) -> "FrameDiagnostics":
        """Diagnostics of a frame whose work began at ``perf_counter() == start``."""
        return cls(wall_ms=(time.perf_counter() - start) * 1e3, **fields)


@dataclass(frozen=True)
class TrackResult:
    """One tracked sequence: a box per frame, the given box first, and the
    diagnostics of every tracked frame (frame 1 onward).

    It also reads as the sequence of its boxes.
    """

    boxes: tuple[Box3D, ...]
    diagnostics: tuple[FrameDiagnostics, ...]

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self) -> Iterator[Box3D]:
        return iter(self.boxes)

    def __getitem__(self, index):
        return self.boxes[index]


class Tracker(Protocol):
    """Tracks one sequence from its frame-0 box.

    ``track`` returns ``len(frames)`` boxes and ``len(frames) - 1``
    diagnostics, each frame timed by the tracker itself.
    """

    def track(self, frames: Sequence[Frame], initial_box: Box3D) -> TrackResult: ...


# ---------------------------------------------------------------------------
# curve metrics


def success_auc(overlaps: Iterable[float]) -> float:
    """Mean IoU as a percentage; exact AUC of the success curve."""
    arr = np.asarray(list(overlaps), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one overlap")
    if np.any(np.isnan(arr)) or np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
        raise ValueError("overlaps must lie in [0, 1]")
    return 100.0 * float(np.mean(np.clip(arr, 0.0, 1.0)))


def precision_auc(errors: Iterable[float]) -> float:
    """AUC of the precision curve up to ``MAX_ERROR`` meters, as a percentage.

    Errors at or beyond ``MAX_ERROR`` contribute zero; infinite errors are
    allowed and score zero, which is how failed frames enter the average.
    """
    arr = np.asarray(list(errors), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one error")
    if np.any(np.isnan(arr)) or np.any(arr < 0):
        raise ValueError("errors must be non-negative")
    clamped = np.minimum(arr, MAX_ERROR)
    return 100.0 * float(np.mean((MAX_ERROR - clamped) / MAX_ERROR))


# ---------------------------------------------------------------------------
# report structure


@dataclass(frozen=True)
class CategoryMetrics:
    success: float
    precision: float
    n_frames: int
    n_tracklets: int


@dataclass(frozen=True)
class OpeReport:
    """Scores of one tracker over one set of tracklets.

    ``success`` and ``precision`` are the curves over every scored frame,
    and each category's over that category's frames.  ``traces`` keeps the
    raw per-frame (overlaps, errors) per tracklet so downstream analysis
    never needs to re-run the tracker.  ``mean_wall_ms``
    is wall time per tracked frame: the given frame 0 is not counted.
    ``failures`` maps each failed tracklet id to its cause,
    ``"<ExceptionType>: <message>"``.
    """

    tracker: str
    categories: dict[str, CategoryMetrics]
    success: float
    precision: float
    n_frames: int
    n_tracklets: int
    mean_wall_ms: float
    traces: dict[str, tuple[tuple[float, ...], tuple[float, ...]]]
    failures: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe view; non-finite errors become null."""
        return {
            "tracker": self.tracker,
            "overall": {
                "success": self.success,
                "precision": self.precision,
                "n_frames": self.n_frames,
                "n_tracklets": self.n_tracklets,
                "mean_wall_ms": self.mean_wall_ms,
            },
            "categories": {
                name: {
                    "success": m.success,
                    "precision": m.precision,
                    "n_frames": m.n_frames,
                    "n_tracklets": m.n_tracklets,
                }
                for name, m in self.categories.items()
            },
            "failures": dict(self.failures),
            "traces": {
                tid: {
                    "overlaps": list(ov),
                    "errors": [e if np.isfinite(e) else None for e in err],
                }
                for tid, (ov, err) in self.traces.items()
            },
        }


def _score_boxes(
    predicted: Sequence[Box3D], gt_boxes: Sequence[Box3D]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    overlaps = tuple(float(iou3d(p, g)) for p, g in zip(predicted, gt_boxes))
    errors = tuple(float(center_distance(p, g)) for p, g in zip(predicted, gt_boxes))
    return overlaps, errors


def _failure_trace(n_frames: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # frame 0 is the ground-truth initialization and stays perfect
    overlaps = (1.0,) + (0.0,) * (n_frames - 1)
    errors = (0.0,) + (float("inf"),) * (n_frames - 1)
    return overlaps, errors


def mean_wall_ms(wall_ms: Sequence[float]) -> float:
    """Mean wall time per tracked frame, 0 for no frames."""
    return sum(wall_ms) / len(wall_ms) if wall_ms else 0.0


def _build_report(
    tracker_name: str,
    tracklets: Sequence[Tracklet],
    traces: dict[str, tuple[tuple[float, ...], tuple[float, ...]]],
    failures: dict[str, str],
    wall_ms: Sequence[float],
) -> OpeReport:
    per_cat_overlaps: dict[str, list[float]] = defaultdict(list)
    per_cat_errors: dict[str, list[float]] = defaultdict(list)
    per_cat_count: dict[str, int] = defaultdict(int)
    for t in tracklets:
        ov, err = traces[t.id]
        per_cat_overlaps[t.category].extend(ov)
        per_cat_errors[t.category].extend(err)
        per_cat_count[t.category] += 1
    categories = {
        name: CategoryMetrics(
            success=success_auc(per_cat_overlaps[name]),
            precision=precision_auc(per_cat_errors[name]),
            n_frames=len(per_cat_overlaps[name]),
            n_tracklets=per_cat_count[name],
        )
        for name in sorted(per_cat_overlaps)
    }
    all_overlaps = [o for t in tracklets for o in traces[t.id][0]]
    return OpeReport(
        tracker=tracker_name,
        categories=categories,
        success=success_auc(all_overlaps),
        precision=precision_auc(e for t in tracklets for e in traces[t.id][1]),
        n_frames=len(all_overlaps),
        n_tracklets=len(tracklets),
        mean_wall_ms=mean_wall_ms(wall_ms),
        traces=traces,
        failures=failures,
    )


def _by_id(tracklets: Sequence[Tracklet]) -> dict[str, Tracklet]:
    """The tracklets keyed by id; traces are keyed by id, so a repeated id
    raises ``ValueError`` naming it."""
    by_id = {t.id: t for t in tracklets}
    if len(by_id) != len(tracklets):
        repeated = sorted(tid for tid, n in Counter(t.id for t in tracklets).items() if n > 1)
        raise ValueError(f"tracklet ids must be unique; repeated: {repeated}")
    return by_id


def run_ope(tracker: Tracker, tracklets: Iterable[Tracklet]) -> OpeReport:
    """One-pass evaluation: initialize at the frame-0 box, track, score.

    The tracker never sees ground truth past the initialization box. Every
    frame is scored, frame 0 included.  Tracklet ids must be unique.
    """
    tracklets = list(tracklets)
    if not tracklets:
        raise ValueError("need at least one tracklet")
    _by_id(tracklets)
    name = getattr(tracker, "name", type(tracker).__name__)
    traces: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {}
    failures: dict[str, str] = {}
    wall_ms: list[float] = []
    for t in tracklets:
        n = len(t.frames)
        try:
            result = tracker.track(list(t.frames), t.gt_boxes[0])
            if len(result.boxes) != n or len(result.diagnostics) != n - 1:
                raise ValueError(
                    f"{len(result.boxes)} boxes and {len(result.diagnostics)} diagnostics "
                    f"for {n} frames; want {n} and {n - 1}"
                )
        except Exception as exc:  # a failed tracklet is scored, not fatal
            failures[t.id] = f"{type(exc).__name__}: {exc}"
            traces[t.id] = _failure_trace(n)
        else:
            traces[t.id] = _score_boxes(result.boxes, t.gt_boxes)
            wall_ms.extend(d.wall_ms for d in result.diagnostics)
    return _build_report(name, tracklets, traces, failures, wall_ms)


# ---------------------------------------------------------------------------
# classical baselines


class ZeroMotionTracker:
    """Repeats the initialization box on every frame."""

    name = "zero-motion"

    def track(self, frames: Sequence[Frame], initial_box: Box3D) -> TrackResult:
        boxes, diags = [initial_box], []
        for _ in range(1, len(frames)):
            start = time.perf_counter()
            boxes.append(initial_box)
            diags.append(FrameDiagnostics.since(start))
        return TrackResult(boxes=tuple(boxes), diagnostics=tuple(diags))


class KalmanCVTracker:
    """Constant-velocity Kalman baseline, dead-reckoning from its own output.

    State is (center, velocity) in world coordinates. The measurement is
    the previous predicted center shifted by the displacement of the gated
    point centroid between consecutive frames, so the filter re-anchors on
    its own track rather than on any absolute detection; errors therefore
    accumulate open-loop, which is the documented limitation of this
    baseline. If the gate catches no points in either frame the update is
    skipped and the filter coasts on its prediction. Size and yaw are
    carried unchanged from the initialization box. The update uses the
    Joseph form, which keeps the covariance symmetric positive definite;
    the filter state, covariance included, lives for one ``track`` call.
    The noise variances and the gate margin are the ``KALMAN_*`` constants.
    """

    name = "kalman-cv"

    def track(self, frames: Sequence[Frame], initial_box: Box3D) -> TrackResult:
        eye3 = np.eye(3)
        x = np.zeros(6)
        x[:3] = initial_box.center
        P = np.diag([KALMAN_MEASUREMENT_VAR] * 3 + [KALMAN_INIT_VELOCITY_VAR] * 3)
        F = np.eye(6)
        F[:3, 3:] = eye3
        q = KALMAN_ACCEL_VAR  # discrete white-acceleration noise, dt = 1 frame
        Q = np.block([[q / 4 * eye3, q / 2 * eye3], [q / 2 * eye3, q * eye3]])
        H = np.hstack([eye3, np.zeros((3, 3))])
        R = KALMAN_MEASUREMENT_VAR * eye3
        size, yaw = initial_box.size, initial_box.yaw

        boxes, diags = [initial_box], []
        for t in range(1, len(frames)):
            start = time.perf_counter()
            x = F @ x
            P = F @ P @ F.T + Q
            gate = Box3D(
                center=boxes[-1].center, size=size + 2.0 * KALMAN_GATE_MARGIN, yaw=yaw
            )
            prev_pts = frames[t - 1].points
            cur_pts = frames[t].points
            prev_in = prev_pts[points_in_box(prev_pts, gate)]
            cur_in = cur_pts[points_in_box(cur_pts, gate)]
            if len(prev_in) and len(cur_in):
                z = np.asarray(boxes[-1].center) + (cur_in.mean(axis=0) - prev_in.mean(axis=0))
                innovation = z - H @ x
                S = H @ P @ H.T + R
                K = np.linalg.solve(S, H @ P).T
                x = x + K @ innovation
                ikh = np.eye(6) - K @ H
                P = ikh @ P @ ikh.T + K @ R @ K.T
            boxes.append(Box3D(center=x[:3], size=size, yaw=yaw))
            diags.append(FrameDiagnostics.since(start))
        return TrackResult(boxes=tuple(boxes), diagnostics=tuple(diags))


# ---------------------------------------------------------------------------
# protocols on top of run_ope


def distractor_protocol(
    tracker: Tracker,
    template: SceneSpec,
    n_tracklets: int,
    k_values: Sequence[int],
    master_seed: int = 0,
    motions: tuple[str, ...] | None = MOTION_MODELS,
) -> list[tuple[int, OpeReport]]:
    """Evaluate over regenerated scenes with K distractors per scene.

    Scenes are rebuilt from the template for every K with the same master
    seed and motion cycle, so K = 0 reproduces the plain synthetic
    evaluation exactly. One (K, report) row per requested K; any trend
    over K is left to the reader, not asserted.
    """
    if not k_values:
        raise ValueError("need at least one K value")
    rows = []
    for k in k_values:
        spec = replace(template, n_distractors=int(k))
        dataset = make_synthetic_dataset(
            n_tracklets, spec, master_seed=master_seed, motions=motions
        )
        rows.append((int(k), run_ope(tracker, dataset)))
    return rows


def score_predictions(path, tracklets: Iterable[Tracklet]) -> OpeReport:
    """Score an exported prediction file against ground-truth tracklets.

    The file is JSON lines as written by :func:`export_predictions`; every
    listed tracklet id must exist in ``tracklets`` and cover exactly its
    frame count, and the ids in ``tracklets`` must be unique. Wall times
    of the tracked frames are taken from the file.
    A line that is not JSON, lacks a key, or holds a value of the wrong JSON
    type (a ``tracklet_id`` that is not a string, a ``frame_index`` that is
    not an integer, a box or a ``wall_ms`` that is not numbers; a bool is
    not a number), an invalid box or a non-finite or negative wall time
    raises ``ValueError('<path>:<line>: ...')``;
    bytes that are not UTF-8, and ids or frame indices that do not match the
    tracklets, raise ``ValueError('<path>: ...')``.
    """
    tracklets = list(tracklets)
    by_id = _by_id(tracklets)
    # per tracklet id: (frame index, box, wall ms) in file order
    rows_by_id: dict[str, list[tuple[int, Box3D, float]]] = defaultdict(list)
    # text mode reads every line ending as "\n", as iterating the file would
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
            tid = row["tracklet_id"]
            if type(tid) is not str:
                raise ValueError(f"tracklet_id must be a JSON string, got {tid!r}")
            wall = row.get("wall_ms", 0.0)
            if type(wall) not in (int, float):
                raise ValueError(f"wall_ms must be a JSON number, got {wall!r}")
            wall = float(wall)
            if not (np.isfinite(wall) and wall >= 0.0):
                raise ValueError(f"wall_ms must be finite and non-negative, got {wall}")
            if type(row["frame_index"]) is not int:  # refuse a JSON float, string or bool
                raise ValueError(f"frame_index must be a JSON integer, got {row['frame_index']!r}")
            parsed = (row["frame_index"], box_from_json(row["box"]), wall)
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:  # overflow: a huge JSON integer
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        rows_by_id[tid].append(parsed)

    unknown = sorted(set(rows_by_id) - set(by_id))
    if unknown:
        raise ValueError(f"{path}: predictions reference unknown tracklet ids: {unknown}")
    missing = sorted(set(by_id) - set(rows_by_id))
    if missing:
        raise ValueError(f"{path}: no predictions for tracklet ids: {missing}")

    traces = {}
    wall_ms: list[float] = []
    for tid, rows in rows_by_id.items():
        t = by_id[tid]
        rows = sorted(rows, key=lambda r: r[0])
        indices = [index for index, _, _ in rows]
        if indices != list(range(len(t.frames))):
            raise ValueError(
                f"{path}: tracklet {tid!r}: frame indices {indices} do not cover "
                f"0..{len(t.frames) - 1}"
            )
        traces[tid] = _score_boxes([box for _, box, _ in rows], t.gt_boxes)
        wall_ms.extend(ms for _, _, ms in rows[1:])
    return _build_report("predictions", tracklets, traces, {}, wall_ms)


def export_predictions(results: Iterable[tuple[str, TrackResult]], path) -> None:
    """Write per-frame predictions as JSON lines, the input of :func:`score_predictions`.

    Frame 0 echoes the initial box with ``dynamic`` false and zero wall
    time; later frames carry the tracker's diagnostics.
    """
    with open(str(path), "w", encoding="utf-8") as fh:
        for tracklet_id, result in results:
            per_frame = [(result.boxes[0], False, 0.0)] + [
                (box, d.dynamic, d.wall_ms) for box, d in zip(result.boxes[1:], result.diagnostics)
            ]
            for t, (box, dynamic, wall_ms) in enumerate(per_frame):
                row = {
                    "tracklet_id": tracklet_id,
                    "frame_index": t,
                    "box": [float(v) for v in box.as_vector()],
                    "dynamic": bool(dynamic),
                    "wall_ms": float(wall_ms),
                }
                fh.write(json.dumps(row) + "\n")


def render_report(report: OpeReport) -> str:
    """Aligned human-readable table; one row per category plus overall."""
    header = f"{'category':<14}{'Success':>10}{'Precision':>12}{'frames':>9}{'tracklets':>11}"
    lines = [f"tracker: {report.tracker}", header, "-" * len(header)]
    for name, m in report.categories.items():
        lines.append(
            f"{name:<14}{m.success:>10.2f}{m.precision:>12.2f}"
            f"{m.n_frames:>9d}{m.n_tracklets:>11d}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'overall':<14}{report.success:>10.2f}{report.precision:>12.2f}"
        f"{report.n_frames:>9d}{report.n_tracklets:>11d}"
    )
    lines.append(f"mean wall per frame: {report.mean_wall_ms:.3f} ms")
    lines.append(f"failed tracklets: {len(report.failures) or 'none'}")
    lines.extend(f"  {tid}: {cause}" for tid, cause in report.failures.items())
    return "\n".join(lines) + "\n"
