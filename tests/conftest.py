"""Child interpreters that tests start import the package from ``src/``,
and tests place points on a box with :func:`canonical_to_world`.

``pyproject.toml`` puts ``src/`` on the test process's own path; a test
that runs ``sys.executable`` needs it in ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

import numpy as np

from lidartrack.geometry import Box3D, yaw_matrix

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def canonical_to_world(points, b: Box3D) -> np.ndarray:
    """Box-frame points placed on ``b``: the inverse of
    ``geometry.world_to_canonical``."""
    return np.asarray(points, dtype=np.float64) @ yaw_matrix(b.yaw).T + b.center
