"""Adam optimizer with bias correction.

Moments live alongside the parameters and are not part of checkpoints;
resuming training restarts them from zero.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from lidartrack.nn.autograd import Tensor

__all__ = ["Adam"]


class Adam:
    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("no parameters to optimize")
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update from the gradients currently on the parameters."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient reached the optimizer")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
