"""Adam optimizer with bias correction.

The moment decay rates and the denominator's epsilon are fixed at the
values of Kingma & Ba (``BETA1``, ``BETA2``, ``EPS``); only the learning
rate is a setting.  Moments live alongside the parameters and are not part
of checkpoints; resuming training restarts them from zero.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from lidartrack.nn.autograd import Tensor

__all__ = ["Adam"]

BETA1 = 0.9  # decay of the first-moment (mean) estimate
BETA2 = 0.999  # decay of the second-moment (uncentered variance) estimate
EPS = 1e-8  # keeps the step finite where the second moment is ~0


class Adam:
    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3):
        self.params = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update from the gradients currently on the parameters."""
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient reached the optimizer")
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            # in place: a step leaves no new array behind in the memory the
            # next batch's graph reuses
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
