"""Native on-disk dataset format, version 2.

Layout under a root directory:

    manifest.json                      format version + the ordered list of tracklet directories
    <tracklet-dir>/meta.json           id, category, source, timestamps, boxes
    <tracklet-dir>/points_000.bin      packed little-endian float32, xyz per point

A tracklet is read if and only if the manifest lists its directory, in
the listed order; a root without a manifest is an empty dataset.  Older
manifest entries also carry an ``id`` and a ``split`` tag, which are ignored.

Boxes live in JSON (lossless for float64 via repr-style serialization);
point coordinates are quantized to float32 by the binary files, so a first
write is lossy at most to that precision and every later round-trip is
bit-stable.  Training and evaluation need only frames and boxes: the
target motion and its masks follow from the boxes, so no generator ground
truth is stored and a tracklet reads back without an oracle.  Files that
still hold an ``oracle`` block (version 1 with target masks, RTMs, dynamic
flags and distractor tracks; early version 2 with distractor tracks) read,
and the block is ignored.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from lidartrack.data.tracklets import Tracklet
from lidartrack.geometry import Box3D
from lidartrack.pointcloud import Frame

__all__ = ["write_native", "read_native"]

_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)


def _dir_name(tracklet_id: str, taken: set[str]) -> str:
    base = re.sub(r"[^A-Za-z0-9_.-]+", "_", tracklet_id) or "tracklet"
    name, n = base, 1
    while name in taken:
        n += 1
        name = f"{base}_{n}"
    taken.add(name)
    return name


def _box_list(boxes: Sequence[Box3D]) -> list[list[float]]:
    return [[float(v) for v in b.as_vector()] for b in boxes]


@contextmanager
def _naming(path: Path):
    """Re-raise a malformed file's error as ValueError('<path>: ...')."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except ValueError as exc:  # also json.JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None


def _load_json(path: Path) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"top level is a JSON {type(doc).__name__}, not an object")
    if doc.get("format_version") not in _READABLE_VERSIONS:
        raise ValueError(f"unsupported format version {doc.get('format_version')}")
    return doc


def write_native(tracklets: Sequence[Tracklet], root) -> None:
    """Write each tracklet to its own directory, then the manifest listing them."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    taken: set[str] = set()
    index = []
    for t in tracklets:
        name = _dir_name(t.id, taken)
        tdir = root / name
        tdir.mkdir(exist_ok=True)
        meta = {
            "format_version": _FORMAT_VERSION,
            "id": t.id,
            "category": t.category,
            "source": t.source,
            "timestamps": [f.timestamp for f in t.frames],
            "boxes": _box_list(t.gt_boxes),
        }
        (tdir / "meta.json").write_text(json.dumps(meta) + "\n", encoding="utf-8")
        for i, frame in enumerate(t.frames):
            data = frame.points.astype("<f4").tobytes()
            (tdir / f"points_{i:03d}.bin").write_bytes(data)
        index.append({"dir": name})
    manifest = {"format_version": _FORMAT_VERSION, "tracklets": index}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def read_point_file(path: Path, timestamp: int, columns: int) -> Frame:
    """A frame from packed little-endian float32 rows of ``columns`` values.

    The first three values of a row are x y z; the rest (KITTI's
    reflectance) are dropped.  A missing file, a partial last row and a
    non-finite coordinate raise errors that name the file, and the row
    where there is one.
    """
    if not path.is_file():
        raise FileNotFoundError(f"{path}: missing point file")
    raw = path.read_bytes()
    row_bytes = 4 * columns
    if len(raw) % row_bytes:
        raise ValueError(
            f"{path}: corrupt point file, row {len(raw) // row_bytes} is partial: "
            f"{len(raw)} bytes is not a whole number of {columns}-column float32 rows"
        )
    points = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(-1, columns)[:, :3]
    try:
        return Frame(points=points, timestamp=timestamp)
    except ValueError as exc:  # non-finite points: name the file as well as the row
        raise ValueError(f"{path}: {exc}") from None


def _read_tracklet(tdir: Path) -> Tracklet:
    meta_path = tdir / "meta.json"
    if not meta_path.is_file():
        raise FileNotFoundError(f"{meta_path}: missing tracklet metadata")
    with _naming(meta_path):  # truncated JSON, a missing key, bad boxes
        meta = _load_json(meta_path)
        timestamps = [int(ts) for ts in meta["timestamps"]]
        boxes = tuple(Box3D.from_vector(v) for v in meta["boxes"])
    frames = tuple(read_point_file(tdir / f"points_{i:03d}.bin", ts, 3) for i, ts in enumerate(timestamps))
    with _naming(meta_path):  # a box count that does not match the frames
        return Tracklet(id=meta["id"], frames=frames, gt_boxes=boxes,
                        category=meta["category"], source=meta["source"])


def read_native(root) -> list[Tracklet]:
    """Load the tracklets the manifest lists, in its order; a root without
    ``manifest.json`` is an empty dataset."""
    root = Path(root)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        return []
    with _naming(manifest_path):  # one tracklet directory per entry
        listed = _load_json(manifest_path)["tracklets"]
        if not isinstance(listed, list):
            raise ValueError(f"tracklets is a JSON {type(listed).__name__}, not an array")
        names = []
        for i, entry in enumerate(listed):
            if not isinstance(entry, dict):
                raise ValueError(f"tracklets entry {i} is a JSON {type(entry).__name__}, not an object")
            if not isinstance(entry["dir"], str):
                raise ValueError(f"tracklets entry {i} dir is a JSON {type(entry['dir']).__name__}, not a string")
            names.append(entry["dir"])
    return [_read_tracklet(root / name) for name in names]
