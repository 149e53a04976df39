"""Finite-difference validation of analytic gradients.

The checker compares backward-pass gradients with central differences.
ReLU breaks that comparison whenever a pre-activation sits within the
finite-difference step of zero, so before checking we walk the graph and
shift the offending layer biases just far enough that every recorded
pre-activation clears the kink.  The shift changes the function being
tested, not the correctness question: analytic and numeric gradients must
still agree at the shifted point.

Run the check at float64; float32 models do not have enough precision for
a 1e-5 step.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from lidartrack.nn.autograd import Tensor

__all__ = ["grad_check"]

_KINK_TOL = 1e-3


def _relu_nodes(root: Tensor) -> list[Tensor]:
    out, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op == "relu":
            out.append(node)
        stack.extend(node.parents)
    return out


def _nudge_relu_kinks(loss_fn: Callable[[], Tensor], max_rounds: int = 100) -> None:
    """Shift layer biases until no pre-activation is near a ReLU kink.

    Each round rebuilds the graph, finds ReLU inputs with |value| below the
    tolerance, and raises the producing layer's bias for those columns.
    Shifts only ever increase the bias, so every row eventually clears the
    window and the loop terminates.
    """
    for _ in range(max_rounds):
        moved = False
        for node in _relu_nodes(loss_fn()):
            pre = node.parents[0]
            if pre.op not in ("linear", "pooled_linear"):
                continue
            bias = pre.parents[-1]  # both layer ops take the bias last
            near = np.abs(pre.data) < _KINK_TOL
            cols = np.flatnonzero(near.any(axis=0))
            if cols.size:
                bias.data[cols] += 4.0 * _KINK_TOL
                moved = True
        if not moved:
            return


def grad_check(
    params: Sequence[Tensor],
    loss_fn: Callable[[], Tensor],
    nudge: bool = True,
    eps: float = 1e-5,
    max_entries: int = 256,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    `loss_fn` must rebuild the scalar loss from the live parameter data on
    every call.  When the parameters hold more than `max_entries` scalars a
    random subset is checked.  Relative error uses a 1e-6 floor so zero
    gradients compare cleanly.
    """
    from lidartrack.nn.autograd import backward, zero_grad

    params = list(params)
    rng = rng or np.random.default_rng(0)
    if nudge:
        _nudge_relu_kinks(loss_fn)

    zero_grad(params)
    backward(loss_fn())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    sizes = [p.data.size for p in params]
    total = int(np.sum(sizes))
    chosen = np.arange(total)
    if total > max_entries:
        chosen = rng.choice(total, size=max_entries, replace=False)
    bounds = np.cumsum([0] + sizes)

    worst = 0.0
    for flat_index in chosen:
        pi = int(np.searchsorted(bounds, flat_index, side="right") - 1)
        offset = int(flat_index - bounds[pi])
        view = params[pi].data.reshape(-1)
        saved = view[offset]
        view[offset] = saved + eps
        f_plus = loss_fn().item()
        view[offset] = saved - eps
        f_minus = loss_fn().item()
        view[offset] = saved
        fd = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[pi].reshape(-1)[offset])
        rel = abs(a - fd) / max(1e-6, abs(a), abs(fd))
        worst = max(worst, rel)
    return worst
