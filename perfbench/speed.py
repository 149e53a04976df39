"""Machine-speed reference, interleaved with the measured work.

The benchmark shares its machine with other tenants.  On the 2-core box it
was written on, a fixed numpy-and-Python loop ran at 18-19 ms per call in
normal periods and 25-28 ms in slow periods lasting from about a second to
whole runs, so raw timings of the same code moved by up to ~50% between
runs.  The benchmark therefore runs this module's fixed reference loop
between its samples (before every round and every tracklet) and scales
each sample by the reference's speed over it and the second either side: a
timing is reported at the machine's normal speed, ``NOMINAL_S`` per
reference call.  On that box, over ~1 s blocks of tracking work, the
scaling cut the spread of the block times from 18% to 5% of their median
at 1024 points and from 18% to 6% at 128 points.  Raw timings are kept in
each run's context line.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 1.85e-3  # one reference call at normal speed on the reference box
WINDOW_S = 1.0  # reference samples up to this long before or after a span count
MIN_REFS = 3
REPEATS = 2  # reference calls per interleaving point

_RNG = np.random.default_rng(0)
_A = _RNG.random((256, 64))
_W = _RNG.random((64, 128))
_D = _RNG.random((2048, 9))
_X32 = _RNG.random((2048, 64)).astype(np.float32)
_W32 = _RNG.random((64, 256)).astype(np.float32)


def _reference() -> float:
    """Small and 2048-row float32 matmuls, elementwise and interpreter work,
    the mix of a tracked frame at 128 to 1024 points."""
    acc = 0.0
    for _ in range(2):
        acc += float((_A @ _W).max())
        acc += float((_X32 @ _W32).max(axis=0).sum())
        acc += float(np.sqrt(_D * _D).sum())
        acc += sum(range(400))
    return acc


class Clock:
    """Reference samples taken during a run, and the scaling they imply."""

    def __init__(self):
        self._mids: list[float] = []
        self._durs: list[float] = []

    def ref(self) -> None:
        for _ in range(REPEATS):
            start = time.perf_counter()
            _reference()
            end = time.perf_counter()
            self._mids.append((start + end) / 2.0)
            self._durs.append(end - start)

    def slowdown(self, start: float, end: float) -> float:
        """Reference time from ``WINDOW_S`` before ``start`` to ``WINDOW_S``
        after ``end``, over its nominal time."""
        lo = bisect.bisect_left(self._mids, start - WINDOW_S)
        hi = bisect.bisect_right(self._mids, end + WINDOW_S)
        near = self._durs[lo:hi]
        if len(near) < MIN_REFS:
            mid = (start + end) / 2.0
            order = sorted(range(len(self._mids)), key=lambda i: abs(self._mids[i] - mid))
            near = [self._durs[i] for i in order[:MIN_REFS]]
        return statistics.median(near) / NOMINAL_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the machine's normal speed."""
        return (end - start) / self.slowdown(start, end)

    def median_slowdown(self) -> float:
        return statistics.median(self._durs) / NOMINAL_S
