"""Mutation fuzz of every file reader.

One valid file of each kind is written to a temporary directory, then
rewritten with byte flips, truncations, span deletions and swaps of two
neighbouring bytes drawn from a fixed seed, and read back after each
mutation.  A read either returns (a mutation can leave a valid file: a
flipped digit is another box) or raises ``ValueError`` (``ConfigError`` is
one) naming the mutated file, or ``FileNotFoundError`` naming a missing
file of the same dataset.  Any other exception, or one that names no file,
fails the test.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from lidartrack.config import ExperimentConfig
from lidartrack.data import SceneSpec, load_kitti_tracklets, make_synthetic_dataset, read_native, write_native
from lidartrack.evaluation import ZeroMotionTracker, export_predictions, score_predictions
from lidartrack.nn import Model, ModelConfig, load_checkpoint, save_checkpoint

MUTATIONS = 500


class Case(NamedTuple):
    path: Path  # the file each mutation rewrites
    root: Path  # a missing file must lie under this directory
    read: Callable[[], object]


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    n = len(data)
    i = int(rng.integers(n))
    kind = int(rng.integers(4))
    if kind == 0:  # flip one bit
        return data[:i] + bytes([data[i] ^ (1 << int(rng.integers(8)))]) + data[i + 1:]
    if kind == 1:  # truncate
        return data[:i]
    if kind == 2:  # delete a span of up to 16 bytes
        return data[:i] + data[i + 1 + int(rng.integers(16)):]
    i = min(i, n - 2)  # swap two neighbouring bytes
    return data[:i] + data[i + 1:i + 2] + data[i:i + 1] + data[i + 2:]


def native_cases(root: Path) -> dict[str, Case]:
    tracklets = make_synthetic_dataset(1, SceneSpec(n_frames=3, n_distractors=1, seed=0), master_seed=5)
    write_native(tracklets, root)
    tdir = root / json.loads((root / "manifest.json").read_text())["tracklets"][0]["dir"]
    read = partial(read_native, root)
    return {
        "native manifest": Case(root / "manifest.json", root, read),
        "native meta": Case(tdir / "meta.json", root, read),
        "native points": Case(tdir / "points_001.bin", root, read),
    }


def kitti_cases(root: Path) -> dict[str, Case]:
    seq_dir = root / "0000"
    for sub in ("velodyne", "label_02", "calib"):
        (seq_dir / sub).mkdir(parents=True)
    (seq_dir / "calib" / "0000.txt").write_text(
        "P2: " + " ".join(["0"] * 12) + "\nTr_velo_to_cam: 0 -1 0 0.1 0 0 -1 -0.2 1 0 0 -0.3\n"
    )
    (seq_dir / "label_02" / "0000.txt").write_text(
        "0 0 Car 0 0 0.0 0 0 50 50 1.6 1.8 4.0 0.5 1.2 10.0 0.1\n"
        "1 0 Car 0 0 0.0 0 0 50 50 1.6 1.8 4.0 0.6 1.2 11.0 0.12\n"
        "1 -1 DontCare -1 -1 -10 0 0 10 10 -1 -1 -1 -1000 -1000 -1000 -10\n"
    )
    rng = np.random.default_rng(0)
    for frame in (0, 1):
        xyzr = np.hstack([rng.normal(size=(16, 3)) * 5.0, np.full((16, 1), 0.5)]).astype("<f4")
        (seq_dir / "velodyne" / f"{frame:06d}.bin").write_bytes(xyzr.tobytes())
    read = partial(load_kitti_tracklets, seq_dir)
    return {
        "kitti calib": Case(seq_dir / "calib" / "0000.txt", root, read),
        "kitti label": Case(seq_dir / "label_02" / "0000.txt", root, read),
        "kitti velodyne": Case(seq_dir / "velodyne" / "000001.bin", root, read),
    }


def other_cases(root: Path) -> dict[str, Case]:
    root.mkdir()
    ckpt = root / "model.lidartrack"
    save_checkpoint(Model(ModelConfig(point_widths=(4, 8), head_hidden=4)), ckpt, extra={"epochs_completed": 2})
    tracklets = make_synthetic_dataset(2, SceneSpec(n_frames=3, seed=0), master_seed=9)
    preds = root / "predictions.jsonl"
    export_predictions(
        [(t.id, ZeroMotionTracker().track(list(t.frames), t.gt_boxes[0])) for t in tracklets], preds
    )
    config = root / "config.json"
    config.write_text(json.dumps({
        "n_tracklets": 3, "n_frames": 4, "epochs": 2, "batch_size": 8, "n_points": 48,
        "lr": 0.001, "point_widths": [8, 16], "motion": "mixed", "resample_each_epoch": True,
    }))
    return {
        "checkpoint": Case(ckpt, root, partial(load_checkpoint, ckpt)),
        "predictions": Case(preds, root, partial(score_predictions, preds, tracklets)),
        "config": Case(config, root, partial(ExperimentConfig.from_sources, config_file=str(config))),
    }


@pytest.fixture(scope="module")
def cases(tmp_path_factory) -> dict[str, Case]:
    root = tmp_path_factory.mktemp("fuzz")
    return {**native_cases(root / "native"), **kitti_cases(root / "kitti"), **other_cases(root / "other")}


KINDS = [
    "native manifest", "native meta", "native points",
    "kitti calib", "kitti label", "kitti velodyne",
    "checkpoint", "predictions", "config",
]


# a flipped bit can make a signalling NaN, which the point reader must
# reject, naming the file, without the warning its cast to float64 gives
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
def test_every_read_of_a_mutated_file_returns_or_names_the_file(cases, kind):
    case = cases[kind]
    original = case.path.read_bytes()
    case.read()  # the valid file reads
    rng = np.random.default_rng([KINDS.index(kind), 17])
    unnamed = []
    try:
        for _ in range(MUTATIONS):
            mutated = mutate(original, rng)
            case.path.write_bytes(mutated)
            try:
                case.read()
            except FileNotFoundError as exc:
                if str(case.root) not in str(exc):
                    unnamed.append((mutated, exc))
            except ValueError as exc:
                if str(case.path) not in str(exc):
                    unnamed.append((mutated, exc))
            except Exception as exc:  # any other type is a reader fault
                unnamed.append((mutated, exc))
    finally:
        case.path.write_bytes(original)
    assert not unnamed, f"{len(unnamed)} of {MUTATIONS} mutations: " + "; ".join(
        f"{type(exc).__name__}: {exc}" for _, exc in unnamed[:5]
    )
