"""KITTI tracking-format ingestion.

One sequence per directory, named ``<seq>``, in the one layout read:

    <seq_dir>/velodyne/<frame>.bin      packed little-endian float32 x y z reflectance
    <seq_dir>/label_02/<seq>.txt        one annotation row per object per frame
    <seq_dir>/calib/<seq>.txt           provides the LiDAR-to-camera transform

Point files are read by the native format's reader, which drops the
reflectance column.

Label boxes live in the camera frame: dimensions are h w l, the location
is the bottom-face center (camera y points down), and rotation_y is the
heading about the camera y-axis with zero meaning camera x.  Conversion to
a LiDAR-frame Box3D lifts the center by h/2 against camera y, maps it
through the inverse calibration, and recovers yaw by pushing the heading
direction (cos ry, 0, -sin ry) through the calibration rotation.
`camera_label_from_box` is the exact inverse, used to build test fixtures
and to export.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lidartrack.data.native import read_point_file, read_text
from lidartrack.data.tracklets import Tracklet
from lidartrack.geometry import Box3D
from lidartrack.pointcloud import Frame

__all__ = ["load_kitti_tracklets", "lidar_box_from_camera", "camera_label_from_box"]

_CALIB_KEYS = ("Tr_velo_to_cam", "Tr_velo_cam")


def _read_calib(path: Path) -> np.ndarray:
    for line in read_text(path).splitlines():
        if ":" not in line:
            continue
        key, rest = line.split(":", 1)
        if key.strip() in _CALIB_KEYS:
            try:  # a value that is not a number: name the file
                vals = np.array([float(v) for v in rest.split()])
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            if vals.size != 12:
                raise ValueError(f"{path}: {key} must have 12 values, found {vals.size}")
            tr = np.eye(4)
            tr[:3, :] = vals.reshape(3, 4)
            # every label box maps through its inverse: a bad transform is this file's fault
            if not (np.isfinite(vals).all() and np.linalg.det(tr[:3, :3]) != 0.0):
                raise ValueError(f"{path}: {key} must be finite and invertible")
            return tr
    raise ValueError(f"{path}: no LiDAR-to-camera transform ({' or '.join(_CALIB_KEYS)})")


def lidar_box_from_camera(loc, hwl, ry: float, tr_velo_to_cam: np.ndarray) -> Box3D:
    """Convert a camera-frame label box to a LiDAR-frame Box3D."""
    return _lidar_box(loc, hwl, ry, tr_velo_to_cam, np.linalg.inv(tr_velo_to_cam))


def _lidar_box(loc, hwl, ry: float, tr_velo_to_cam: np.ndarray, inv: np.ndarray) -> Box3D:
    """`lidar_box_from_camera` with the calibration's inverse computed once per sequence."""
    h, w, l = (float(v) for v in hwl)
    center_cam = np.array([loc[0], loc[1] - h / 2.0, loc[2], 1.0])
    center = (inv @ center_cam)[:3]
    rot_cam_from_velo = tr_velo_to_cam[:3, :3]
    heading_cam = np.array([np.cos(ry), 0.0, -np.sin(ry)])
    heading = rot_cam_from_velo.T @ heading_cam
    yaw = float(np.arctan2(heading[1], heading[0]))
    return Box3D(center=center, size=(w, l, h), yaw=yaw)


def camera_label_from_box(box: Box3D, tr_velo_to_cam: np.ndarray):
    """Inverse of lidar_box_from_camera: returns (loc, (h, w, l), ry)."""
    center_cam = (tr_velo_to_cam @ np.append(box.center, 1.0))[:3]
    h = box.height
    loc = center_cam + np.array([0.0, h / 2.0, 0.0])
    heading = np.array([np.cos(box.yaw), np.sin(box.yaw), 0.0])
    heading_cam = tr_velo_to_cam[:3, :3] @ heading
    ry = float(np.arctan2(-heading_cam[2], heading_cam[0]))
    return loc, (h, box.width, box.length), ry


def load_kitti_tracklets(seq_dir) -> list[Tracklet]:
    """One Tracklet per (track id, contiguous frame run); DontCare skipped."""
    seq_dir = Path(seq_dir)
    seq = seq_dir.name
    tr = _read_calib(seq_dir / "calib" / f"{seq}.txt")
    inv = np.linalg.inv(tr)
    label_path = seq_dir / "label_02" / f"{seq}.txt"

    # frame -> (box, category) lists keyed by track id, in file order
    per_track: dict[int, list[tuple[int, Box3D, str]]] = {}
    for lineno, line in enumerate(read_text(label_path).splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) < 17:
            raise ValueError(f"{label_path}:{lineno}: malformed label row: {line!r}")
        kind = fields[2]
        if kind == "DontCare":
            continue
        try:  # bad numbers, sizes or positions: name the file and line
            frame, tid = int(fields[0]), int(fields[1])
            hwl = [float(v) for v in fields[10:13]]
            loc = [float(v) for v in fields[13:16]]
            box = _lidar_box(loc, hwl, float(fields[16]), tr, inv)
        except ValueError as exc:
            raise ValueError(f"{label_path}:{lineno}: {exc}") from None
        per_track.setdefault(tid, []).append((frame, box, kind))

    frame_cache: dict[int, Frame] = {}

    def read_frame(frame: int) -> Frame:
        if frame not in frame_cache:
            frame_cache[frame] = read_point_file(seq_dir / "velodyne" / f"{frame:06d}.bin", frame, 4)
        return frame_cache[frame]

    tracklets: list[Tracklet] = []
    for tid, rows in sorted(per_track.items()):
        rows.sort(key=lambda r: r[0])
        # split at frame gaps: annotated tracklets must be contiguous
        runs: list[list[tuple[int, Box3D, str]]] = [[rows[0]]]
        for row in rows[1:]:
            if row[0] == runs[-1][-1][0] + 1:
                runs[-1].append(row)
            else:
                runs.append([row])
        for run_idx, run in enumerate(runs):
            frames = tuple(read_frame(frame) for frame, _, _ in run)
            boxes = tuple(box for _, box, _ in run)
            suffix = f"-s{run_idx}" if len(runs) > 1 else ""
            tracklets.append(
                Tracklet(
                    id=f"kitti-{seq}-{tid}{suffix}",
                    frames=frames,
                    gt_boxes=boxes,
                    category=run[0][2].lower(),
                    source="kitti",
                )
            )
    return tracklets
