"""Tracklet containers and consecutive-frame training pairs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from lidartrack.geometry import RTM, Box3D, points_in_box
from lidartrack.pointcloud import Frame

__all__ = [
    "DYNAMIC_DISPLACEMENT",
    "Tracklet",
    "TrackletOracle",
    "TrainingPair",
    "is_dynamic",
    "make_training_pairs",
]

# a target whose inter-frame displacement exceeds this is labeled dynamic
DYNAMIC_DISPLACEMENT = 0.15


@dataclass(frozen=True)
class TrackletOracle:
    """Ground truth the box track cannot give; the motion comes from the boxes.

    Only the synthetic generator knows it, so only generated tracklets carry
    it; the native format does not store it.

    target_masks: per frame, True for rows belonging to the target
    distractor_boxes: one full box track per distractor object
    """

    target_masks: tuple[np.ndarray, ...]
    distractor_boxes: tuple[tuple[Box3D, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "target_masks", tuple(np.asarray(m, dtype=bool) for m in self.target_masks))
        object.__setattr__(self, "distractor_boxes", tuple(tuple(track) for track in self.distractor_boxes))


@dataclass(frozen=True)
class Tracklet:
    """One tracked object: frames and the GT box per frame."""

    id: str
    frames: tuple[Frame, ...]
    gt_boxes: tuple[Box3D, ...]
    category: str = "car"
    oracle: Optional[TrackletOracle] = None

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))
        object.__setattr__(self, "gt_boxes", tuple(self.gt_boxes))
        if len(self.frames) != len(self.gt_boxes) or len(self.frames) == 0:
            raise ValueError("need equally many frames and boxes, at least one each")
        stamps = [f.timestamp for f in self.frames]
        if any(b <= a for a, b in zip(stamps, stamps[1:])):
            raise ValueError("frame timestamps must be strictly increasing")
        if self.oracle is not None:
            if len(self.oracle.target_masks) != len(self.frames):
                raise ValueError("oracle masks must cover every frame")
            for mask, frame in zip(self.oracle.target_masks, self.frames):
                if mask.shape != (len(frame),):
                    raise ValueError("oracle mask length must match its frame")

    def __len__(self) -> int:
        return len(self.frames)


def is_dynamic(m: RTM) -> bool:
    """Strictly-greater displacement rule on the translation norm."""
    return bool(np.linalg.norm(m.translation) > DYNAMIC_DISPLACEMENT)


@dataclass(frozen=True)
class TrainingPair:
    """Two consecutive frames of one tracklet and their ground-truth boxes."""

    prev_frame: Frame
    cur_frame: Frame
    prev_box: Box3D
    cur_box: Box3D

    @cached_property
    def target_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Each frame's rows inside its own box.

        They depend on the pair only, so they are computed at first use and
        kept, read-only, for the pair's lifetime: every epoch that
        re-augments the pair reads the same masks.
        """
        masks = (
            points_in_box(self.prev_frame.points, self.prev_box),
            points_in_box(self.cur_frame.points, self.cur_box),
        )
        for mask in masks:
            mask.flags.writeable = False
        return masks


def make_training_pairs(tracklets: Sequence[Tracklet]) -> list[TrainingPair]:
    """One sample per consecutive annotated frame pair across all tracklets."""
    return [
        TrainingPair(t.frames[i], t.frames[i + 1], t.gt_boxes[i], t.gt_boxes[i + 1])
        for t in tracklets
        for i in range(len(t) - 1)
    ]
