"""Scalar training losses built on the autograd Tensor extension API.

Both losses reduce by the mean so their magnitudes stay comparable across
batch sizes, and both raise on non-finite results rather than letting a
poisoned value propagate into the optimizer.
"""

from __future__ import annotations

import numpy as np

from lidartrack.nn.autograd import Tensor

__all__ = ["cross_entropy", "huber"]

HUBER_DELTA = 1.0  # Huber's quadratic-to-linear switch, in the regressed units (m, rad)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax.

    Computed through a shifted log-sum-exp so saturated logits stay exact.
    """
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {logits.data.shape}")
    n, k = logits.data.shape
    if labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be {n} integers, got {labels.shape} {labels.dtype}")
    if n == 0:
        raise ValueError("cross_entropy on an empty batch")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")

    z = logits.data
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1)) + m[:, 0]
    rows = np.arange(n)
    loss = np.mean(lse - z[rows, labels])
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite cross-entropy")

    softmax = np.exp(shifted)
    softmax /= softmax.sum(axis=1, keepdims=True)

    def bw(g: np.ndarray):
        gx = softmax.copy()
        gx[rows, labels] -= 1.0
        return (gx * (g / n),)

    return Tensor(np.asarray(loss, dtype=z.dtype), parents=(logits,), backward_fn=bw, op="cross_entropy")


def huber(pred: Tensor, target) -> Tensor:
    """Mean Huber loss over all elements: quadratic within ``HUBER_DELTA``,
    linear beyond."""
    target = np.asarray(target, dtype=pred.data.dtype)
    if target.shape != pred.data.shape:
        raise ValueError(f"target shape {target.shape} does not match pred {pred.data.shape}")
    if pred.data.size == 0:
        raise ValueError("huber on an empty input")
    r = pred.data - target
    a = np.abs(r)
    per = np.where(a <= HUBER_DELTA, 0.5 * r * r, HUBER_DELTA * (a - 0.5 * HUBER_DELTA))
    loss = per.mean()
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite Huber loss")
    k = r.size

    def bw(g: np.ndarray):
        return (np.clip(r, -HUBER_DELTA, HUBER_DELTA) * (g / k),)

    return Tensor(np.asarray(loss, dtype=pred.data.dtype), parents=(pred,), backward_fn=bw, op="huber")
