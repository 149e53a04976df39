"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray together with the recipe that produced it: its
parent Tensors and a backward function mapping the output gradient to one
gradient per parent (or None for parents that do not need one).  Calling
backward() on a scalar Tensor walks the recorded graph in reverse
topological order and accumulates gradients into every Tensor that
requires them.

The op set is deliberately small: affine layers (plain, and joined with a
per-block pooled row), ReLU, max pooling over row blocks of any sizes,
column slice, elementwise add/scale, and multiplication by a constant
matrix (one for all rows, or one per row).  That is enough to express
every network in this package while keeping each backward rule a few
lines of numpy.  New ops can be added from outside by constructing a
Tensor with explicit parents and backward_fn, which the gradient-checker
tests use to inject a deliberately broken rule.

Gradients for ReLU at exactly zero and for ties in max pooling use fixed
conventions: zero subgradient, and the lowest row index wins.  Work that
only a gradient needs is done in the backward rule: max pooling takes its
argmax, and ReLU its positive mask, when the backward pass runs.

Inside a ``no_grad()`` block no graph is recorded: every Tensor is built
without parents or a backward function, so op results do not require
gradients and their inputs are freed as soon as nothing else holds them.
Inference runs in this mode; values are the same as with recording on.
Those prompt frees let glibc trim the heap after every frame and fault it
back in on the next (~2,700 minor faults per frame at 1024 points), so the
first ``no_grad()`` of a process pins glibc's mmap and trim thresholds with
``mallopt`` (:func:`pin_heap`; training pins them too): the faults drop to ~0
and a 1024-point frame takes about a fifth less time.  This is
process-global, changes no value and is a no-op off glibc.
"""

from __future__ import annotations

import ctypes
import platform
from contextlib import contextmanager
from itertools import accumulate
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "pin_heap",
    "backward",
    "zero_grad",
    "linear",
    "pooled_linear",
    "relu",
    "segment_maxpool",
    "slice_cols",
    "add",
    "scale",
    "add_const",
    "matmul_const",
]

BackwardFn = Callable[[np.ndarray], tuple]

# process-wide recording switch, flipped only by no_grad()
_recording = True

# glibc malloc thresholds, pinned once per process by pin_heap(): 2x
# the largest block a process that tracks and trains frees again and again, a
# desk batch's activation (32 x 2 x 128 rows x 256 float32 = 8 MiB).
MMAP_THRESHOLD_BYTES = 16 << 20
TRIM_THRESHOLD_BYTES = 32 << 20
_heap_pinned = False


def pin_heap() -> None:
    """Keep freed activations on the heap across frames and batches (glibc only).

    Runs once per process: the first ``no_grad()`` calls it, and so does
    ``pipeline.train``; later calls do nothing.
    """
    global _heap_pinned
    if _heap_pinned:
        return
    _heap_pinned = True
    if platform.libc_ver()[0] == "glibc":
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, MMAP_THRESHOLD_BYTES)  # M_MMAP_THRESHOLD
        mallopt(-1, TRIM_THRESHOLD_BYTES)  # M_TRIM_THRESHOLD


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block; the previous mode returns on exit.

    Leaves keep the ``requires_grad`` they are built with, so parameters
    created inside the block can still be trained outside it.
    """
    global _recording
    pin_heap()
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """An ndarray plus the graph edge that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_fn", "op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Optional[BackwardFn] = None,
        op: str = "leaf",
    ):
        self.data = np.asarray(data)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        self.grad: Optional[np.ndarray] = None
        self.op = op
        if _recording:
            self.parents = tuple(parents)
            self.backward_fn = backward_fn
            self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        else:
            self.parents = ()
            self.backward_fn = None
            self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"


def zero_grad(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor) -> None:
    """Accumulate gradients of a scalar root into every requiring Tensor."""
    if root.data.shape != ():
        raise ValueError(f"backward needs a scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        raise ValueError("root does not depend on any parameter")
    root.grad = np.ones((), dtype=root.data.dtype)
    for node in reversed(_topo_order(root)):
        if node.backward_fn is None or node.grad is None:
            continue
        parent_grads = node.backward_fn(node.grad)
        if len(parent_grads) != len(node.parents):
            raise ValueError(f"op {node.op!r} returned {len(parent_grads)} gradients "
                             f"for {len(node.parents)} parents")
        for parent, g in zip(node.parents, parent_grads):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


def _as2d(t: Tensor, op: str) -> None:
    if t.data.ndim != 2:
        raise ValueError(f"{op} expects a 2-d input, got shape {t.data.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of row vectors: x @ w + b, with w of shape (in, out)."""
    _as2d(x, "linear")
    if w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shape mismatch: x {x.data.shape} vs w {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"linear bias shape {b.data.shape} does not match w {w.data.shape}")
    out = x.data @ w.data + b.data

    def bw(g: np.ndarray):
        gx = g @ w.data.T if x.requires_grad else None
        gw = x.data.T @ g if w.requires_grad else None
        gb = g.sum(axis=0) if b.requires_grad else None
        return gx, gw, gb

    return Tensor(out, parents=(x, w, b), backward_fn=bw, op="linear")


def pooled_linear(local: Tensor, pooled: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``[local | pooled row of its block] @ w + b`` without building the join.

    `local` is (B * n, C), `pooled` is (B, P) and w is (C + P, out): the
    pooled half of w is applied once per block and broadcast onto its n rows.
    """
    _as2d(local, "pooled_linear")
    _as2d(pooled, "pooled_linear")
    (rows, c), blocks = local.data.shape, pooled.data.shape[0]
    if blocks == 0 or rows % blocks != 0:
        raise ValueError(f"pooled_linear: {rows} rows do not split into {blocks} blocks")
    if w.data.ndim != 2 or w.data.shape[0] != c + pooled.data.shape[1]:
        raise ValueError(f"pooled_linear shape mismatch: local {local.data.shape}, "
                         f"pooled {pooled.data.shape} vs w {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"pooled_linear bias shape {b.data.shape} does not match w {w.data.shape}")
    n, h = rows // blocks, w.data.shape[1]
    out = (local.data @ w.data[:c]).reshape(blocks, n, h)
    out += (pooled.data @ w.data[c:] + b.data)[:, None, :]

    def bw(g: np.ndarray):
        gsum = g.reshape(blocks, n, h).sum(axis=1)
        glocal = g @ w.data[:c].T if local.requires_grad else None
        gpooled = gsum @ w.data[c:].T if pooled.requires_grad else None
        gw = np.vstack([local.data.T @ g, pooled.data.T @ gsum]) if w.requires_grad else None
        gb = gsum.sum(axis=0) if b.requires_grad else None
        return glocal, gpooled, gw, gb

    return Tensor(out.reshape(rows, h), parents=(local, pooled, w, b), backward_fn=bw, op="pooled_linear")


def relu(x: Tensor) -> Tensor:
    # np.maximum keeps NaN visible instead of flushing it to 0, so a
    # poisoned parameter still surfaces as a non-finite loss downstream
    return Tensor(
        np.maximum(x.data, 0.0),
        parents=(x,),
        backward_fn=lambda g: (g * (x.data > 0),),
        op="relu",
    )


def segment_maxpool(x: Tensor, counts: Sequence[int]) -> Tensor:
    """Per-column max over consecutive row blocks of the given row counts.

    Block i holds ``counts[i]`` rows; the result has one row per block.
    """
    _as2d(x, "segment_maxpool")
    rows, cols = x.data.shape
    counts = [int(n) for n in counts]
    if not counts or min(counts) < 1:
        raise ValueError(f"segment_maxpool needs positive row counts, got {counts[:8]}")
    bounds = list(accumulate(counts, initial=0))
    if bounds[-1] != rows:
        raise ValueError(f"row counts sum to {bounds[-1]}, but the input has {rows} rows")
    spans = list(zip(bounds[:-1], bounds[1:]))
    out = np.empty((len(counts), cols), dtype=x.data.dtype)
    for i, (lo, hi) in enumerate(spans):
        # max propagates NaN, and argmax picks the first NaN, so both agree
        x.data[lo:hi].max(axis=0, out=out[i])

    def bw(g: np.ndarray):
        # ties resolve to the lowest row of each block
        arg = np.array([x.data[lo:hi].argmax(axis=0) + lo for lo, hi in spans])
        gx = np.zeros_like(x.data)
        gx[arg, np.arange(cols)] = g
        return (gx,)

    return Tensor(out, parents=(x,), backward_fn=bw, op="segment_maxpool")


def slice_cols(x: Tensor, lo: int, hi: int) -> Tensor:
    _as2d(x, "slice_cols")
    if not (0 <= lo < hi <= x.data.shape[1]):
        raise ValueError(f"column slice [{lo}, {hi}) out of range for shape {x.data.shape}")
    out = x.data[:, lo:hi].copy()

    def bw(g: np.ndarray):
        gx = np.zeros_like(x.data)
        gx[:, lo:hi] = g
        return (gx,)

    return Tensor(out, parents=(x,), backward_fn=bw, op="slice_cols")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return Tensor(a.data + b.data, parents=(a, b), backward_fn=lambda g: (g, g), op="add")


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return Tensor(x.data * s, parents=(x,), backward_fn=lambda g: (g * s,), op="scale")


def add_const(x: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=x.data.dtype)
    out = x.data + c
    if out.shape != x.data.shape:
        raise ValueError("add_const must not broadcast beyond the input shape")
    return Tensor(out, parents=(x,), backward_fn=lambda g: (g,), op="add_const")


def matmul_const(x: Tensor, m: np.ndarray) -> Tensor:
    """Row vectors through constant matrices: ``x @ m.T`` (m maps in -> out).

    ``m`` is one (out, in) matrix for every row, or a (rows, out, in) stack
    holding one matrix per row.
    """
    _as2d(x, "matmul_const")
    m = np.asarray(m, dtype=x.data.dtype)
    rows, cols = x.data.shape
    if m.ndim == 2 and m.shape[1] == cols:
        return Tensor(x.data @ m.T, parents=(x,), backward_fn=lambda g: (g @ m,), op="matmul_const")
    if m.ndim == 3 and m.shape[0] == rows and m.shape[2] == cols:
        out = np.matmul(x.data[:, None, :], m.transpose(0, 2, 1))[:, 0, :]
        return Tensor(
            out,
            parents=(x,),
            backward_fn=lambda g: (np.matmul(g[:, None, :], m)[:, 0, :],),
            op="matmul_const",
        )
    raise ValueError(f"matmul_const shape mismatch: x {x.data.shape} vs m {m.shape}")
