"""Tracklet datasets: synthetic generation, native storage, KITTI ingestion."""

from lidartrack.data.kitti import (
    camera_label_from_box,
    load_kitti_tracklets,
)
from lidartrack.data.native import read_native, write_native
from lidartrack.data.synthetic import (
    CAR_SIZE,
    MOTION_MODELS,
    PEDESTRIAN_SIZE,
    SceneSpec,
    generate_synthetic_tracklet,
    make_synthetic_dataset,
)
from lidartrack.data.tracklets import (
    DYNAMIC_DISPLACEMENT,
    Tracklet,
    TrackletOracle,
    TrainingPair,
    is_dynamic,
    make_training_pairs,
)

__all__ = [
    "CAR_SIZE",
    "DYNAMIC_DISPLACEMENT",
    "MOTION_MODELS",
    "PEDESTRIAN_SIZE",
    "SceneSpec",
    "Tracklet",
    "TrackletOracle",
    "TrainingPair",
    "camera_label_from_box",
    "generate_synthetic_tracklet",
    "is_dynamic",
    "load_kitti_tracklets",
    "make_synthetic_dataset",
    "make_training_pairs",
    "read_native",
    "write_native",
]
