"""Native on-disk dataset format, version 2.

Layout under a root directory:

    manifest.json                      format version + tracklet index with split tags
    <tracklet-dir>/meta.json           id, category, source, timestamps, boxes
    <tracklet-dir>/points_000.bin      packed little-endian float32, xyz per point

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
from typing import Optional, Sequence

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


def write_native(tracklets: Sequence[Tracklet], root, splits: Optional[dict[str, str]] = None) -> None:
    """Write tracklets plus a manifest; splits maps tracklet id to a tag."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    splits = splits or {}
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
        index.append({"dir": name, "id": t.id, "split": splits.get(t.id, "train")})
    manifest = {"format_version": _FORMAT_VERSION, "tracklets": index}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _read_frame(path: Path, timestamp: int) -> Frame:
    if not path.is_file():
        raise FileNotFoundError(f"{path}: missing point file")
    raw = path.read_bytes()
    if len(raw) % 12 != 0:
        raise ValueError(f"{path}: corrupt point file, {len(raw)} bytes is not a whole number of xyz float32 triples")
    points = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(-1, 3)
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
    frames = tuple(_read_frame(tdir / f"points_{i:03d}.bin", ts) for i, ts in enumerate(timestamps))
    with _naming(meta_path):  # a box count that does not match the frames
        return Tracklet(id=meta["id"], frames=frames, gt_boxes=boxes,
                        category=meta["category"], source=meta["source"])


def read_native(root, split: Optional[str] = None) -> list[Tracklet]:
    """Load a dataset; an empty or absent manifest yields an empty dataset."""
    root = Path(root)
    manifest_path = root / "manifest.json"
    if manifest_path.is_file():
        with _naming(manifest_path):  # (directory, split tag) per entry
            entries = []
            listed = _load_json(manifest_path)["tracklets"]
            if not isinstance(listed, list):
                raise ValueError(f"tracklets is a JSON {type(listed).__name__}, not an array")
            for i, entry in enumerate(listed):
                if not isinstance(entry, dict):
                    raise ValueError(f"tracklets entry {i} is a JSON {type(entry).__name__}, not an object")
                entries.append((entry["dir"], entry.get("split", "train")))
                for key, value in zip(("dir", "split"), entries[-1]):
                    if not isinstance(value, str):
                        raise ValueError(f"tracklets entry {i} {key} is a JSON {type(value).__name__}, not a string")
    else:
        # no manifest: scan for tracklet directories; empty dir is fine
        entries = [(p.parent.name, "train") for p in sorted(root.glob("*/meta.json"))]
    return [_read_tracklet(root / name) for name, tag in entries if split is None or tag == split]
