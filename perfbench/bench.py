"""Workload runner: set-up, rounds, checks, metrics, traced rounds.

A workload repeats its own phase for ``--seconds`` and each of the other
two phases for 35% of ``--seconds``, so every run reports every end-to-end
metric.  Rounds of the three phases are interleaved, the next round going
to the phase furthest behind its share, so each phase's samples spread
over the whole run.  A phase stops before the round that would overrun its
time and always runs at least one round.  With tracing on, the run instead
does fixed work: a checked round per phase, then ``TRACE_ROUNDS`` rounds of
the workload's own phase and one round of each other phase, each run
untraced and then traced right after it.  The per-layer metrics come from
the traced rounds, so their counts repeat exactly for a seed; the tracing
overhead is the traced rounds' time minus the untraced rounds' time.

Every timing is a span scaled to the machine's normal speed by the
reference loop in ``speed.py``; rates are work over the median scaled time
of equal-work samples (rounds, or tracklets for ``ope_frames_per_s``).
"""

from __future__ import annotations

import json
import resource
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as W
from speed import Clock

SETUP_REPEATS = 3
COMPANION_SHARE = 0.35
# rounds of its own phase when traced: about twice the time of the
# other two phases' single rounds, so the workload's own layers dominate
TRACE_ROUNDS = {"train": 8, "track-128": 2, "track-1024": 1, "dataset": 6}

# per workload: the other two (phase, n_points) it also runs, and its own phase
PLANS = {
    "train": ([("track", 128), ("dataset", None)], ("train", None)),
    "track-128": ([("train", None), ("dataset", None)], ("track", 128)),
    "track-1024": ([("train", None), ("dataset", None)], ("track", 1024)),
    "dataset": ([("train", None), ("track", 128)], ("dataset", None)),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_pairs_per_s": "pairs/s",
    "frame_ms_p50": "ms",
    "frame_ms_p95": "ms",
    "ope_frames_per_s": "frames/s",
    "success": "%",
    "precision": "%",
    "generate_frames_per_s": "frames/s",
    "native_read_frames_per_s": "frames/s",
    "native_bytes_per_frame": "bytes",
    "kitti_read_frames_per_s": "frames/s",
    "baseline_frames_per_s": "frames/s",
}


# outputs kept only from a phase's first round; later rounds keep timings
HEAVY = ("generated", "native", "kitti", "zero", "kalman")


class Runner:
    def __init__(self, inp: W.Inputs, workdir: Path, clock: Clock):
        self.inp = inp
        self.workdir = workdir
        self.clock = clock
        self.ledger = W.Ledger()
        self.tracer: tracing.Tracer | None = None
        self.rounds: dict[str, list] = {"train": [], "track": [], "dataset": []}
        self.repeats: dict[str, bool] = {}

    def round(self, phase: str, n_points) -> dict:
        if self.tracer is not None:
            self.tracer.phase = phase
        if phase == "train":
            return W.train_round(self.inp, self.ledger, self.clock)
        if phase == "track":
            return W.track_round(self.inp, n_points, self.ledger, self.clock)
        return W.dataset_round(self.inp, self.ledger, self.clock, self.workdir)

    def interleave(self, budgets: dict) -> None:
        """Whole rounds of each ``(phase, n_points)`` for its budget in
        seconds, at least one each; later rounds of a phase must return its
        first round's outputs."""
        spent = {key: 0.0 for key in budgets}
        done = {key: 0 for key in budgets}
        active = set(budgets)
        while active:
            key = min(active, key=lambda k: (spent[k] / budgets[k] if budgets[k] else 0.0, k[0]))
            phase, n_points = key
            start = time.perf_counter()
            r = self.round(phase, n_points)
            spent[key] += time.perf_counter() - start
            done[key] += 1
            kept = self.rounds[phase]
            if kept:
                same = W.same_output(phase, kept[0], r)
                self.repeats[phase] = self.repeats.get(phase, True) and same
                r = {k: v for k, v in r.items() if k not in HEAVY}
            kept.append(r)
            if spent[key] * (done[key] + 1) / done[key] > budgets[key]:
                active.discard(key)

    def traced_pairs(self, schedule, tracer: tracing.Tracer, checks: W.Checks):
        """``count`` rounds of each ``(phase, n_points, count)``, each run
        untraced and then traced; returns each phase's last traced outputs
        and the untraced and traced time at normal machine speed."""
        plain_s = traced_s = 0.0
        out = {}
        same = {}
        for phase, n, count in schedule:
            for _ in range(count):
                start = time.perf_counter()
                plain = self.round(phase, n)
                plain_s += self.clock.scaled(start, time.perf_counter())
                tracer.install()
                self.tracer = tracer
                try:
                    start = time.perf_counter()
                    out[phase] = self.round(phase, n)
                    traced_s += self.clock.scaled(start, time.perf_counter())
                finally:
                    tracer.uninstall()
                    self.tracer = None
                same[phase] = same.get(phase, True) and W.same_output(phase, plain, out[phase])
        for phase, ok in same.items():
            checks.record(f"{phase}.traced_output_unchanged", ok)
        return out, plain_s, traced_s


def _end_to_end(rounds: dict, setup_spans: list, seconds) -> dict[str, float]:
    """The end-to-end metrics; ``seconds(span)`` turns a span into a time."""
    train = [r for r in rounds["train"] if r["losses"] is not None]
    track = rounds["track"]
    data = [r for r in rounds["dataset"] if not r.get("error")]
    latencies_ms = [1e3 * seconds(sp) for r in track for sp in r["frame_spans"]]
    first = track[0]["report"]
    d0 = data[0]

    def rate(work, spans):
        return work / float(np.median([seconds(sp) for sp in spans]))

    def data_rate(key, work):
        return rate(work, [r[key] for r in data])

    return {
        "setup_s": float(np.median([seconds(sp) for sp in setup_spans])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_pairs_per_s": rate(train[0]["pair_steps"], [r["span"] for r in train]),
        "frame_ms_p50": float(np.percentile(latencies_ms, 50)),
        "frame_ms_p95": float(np.percentile(latencies_ms, 95)),
        "ope_frames_per_s": rate(track[0]["frames_per_tracklet"], [sp for r in track for sp in r["ope_spans"]]),
        "success": first.success,
        "precision": first.precision,
        "generate_frames_per_s": data_rate("generate_span", d0["frames"]),
        "native_read_frames_per_s": data_rate("read_span", d0["frames"]),
        "native_bytes_per_frame": d0["native_bytes"] / d0["frames"],
        "kitti_read_frames_per_s": data_rate("kitti_span", d0["frames"]),
        "baseline_frames_per_s": data_rate("baseline_span", 2 * d0["tracked_frames"]),
    }


def _check_rounds(runner: Runner, n_track, checks: W.Checks) -> None:
    """Output checks on each phase's first round; later rounds must repeat it."""
    inp = runner.inp
    for phase, results in runner.rounds.items():
        first = results[0]
        if phase == "train":
            W.check_train_round(first, checks)
            checks.record("train.round_losses_finite",
                          all(r["losses"] is not None and np.all(np.isfinite(r["losses"])) for r in results),
                          f"{len(results)} rounds")
        elif phase == "track":
            W.check_track_round(inp, first, checks)
            W.check_track_program(inp, n_track, first, checks)
        else:
            W.check_dataset_round(inp, first, checks)
        checks.record(f"{phase}.rounds_repeat", runner.repeats.get(phase, True), f"{len(results)} rounds")


def _write_spans(tracer: tracing.Tracer, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for row in tracer.span_rows():
            fh.write(json.dumps(row) + "\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work_root: Path):
    clock = Clock()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        clock.ref()
        start = time.perf_counter()
        inp = W.setup(seed)
        setup_spans.append((start, time.perf_counter()))
    clock.ref()

    companions, primary = PLANS[workload]
    plan = companions + [primary]
    n_track = next(n for phase, n in plan if phase == "track")
    checks = W.Checks()
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work_root))
    runner = Runner(inp, workdir, clock)
    details: dict = {}
    try:
        if workload == "train":
            W.check_train_program(inp, checks)
        budgets = {key: COMPANION_SHARE * seconds for key in companions}
        budgets[primary] = seconds
        runner.interleave({key: 0.0 for key in budgets} if trace else budgets)
        rounds = runner.rounds
        _check_rounds(runner, n_track, checks)
        details["rounds"] = {k: len(v) for k, v in rounds.items()}
        track = rounds["track"]
        details["full_frame_ratio"] = sum(r["full_frames"] for r in track) / sum(
            len(r["frame_spans"]) for r in track
        )

        if trace:
            schedule = [(phase, n, 1) for phase, n in companions] + [(*primary, TRACE_ROUNDS[workload])]
            tracer = tracing.Tracer()
            traced, plain_s, traced_s = runner.traced_pairs(schedule, tracer, checks)
            tr = traced["track"]
            layers = tracing.layer_metrics(tracer, len(tr["frame_spans"]), tr["full_frames"])
            data = traced["dataset"]
            if not data.get("error"):
                layers["data.native.meta_bytes"] = (data["meta_bytes"], "bytes")
                layers["data.native.point_bytes"] = (data["point_bytes"], "bytes")
            layers["trace.overhead_ms"] = ((traced_s - plain_s) * 1e3, "ms")
            layers["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
            metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layers.items()}
            spans_file = work_root.parent / "results" / f"spans-{workload}-seed{seed}.jsonl"
            _write_spans(tracer, spans_file)
            details["spans_file"] = str(spans_file.relative_to(work_root.parent.parent))
            details["traced_s"] = traced_s
            details["untraced_s"] = plain_s
        else:
            checks.record("untraced_run_records_no_spans", tracing.untouched())
            values = _end_to_end(rounds, setup_spans, lambda sp: clock.scaled(*sp))
            metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            details["raw_metrics"] = _end_to_end(rounds, setup_spans, lambda sp: sp[1] - sp[0])
            details["median_slowdown"] = clock.median_slowdown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details["setup_s"] = [end - start for start, end in setup_spans]
    details["operations"] = {k: {"attempted": a, "failed": f} for k, (a, f) in runner.ledger.counts.items()}
    details["failures"] = runner.ledger.errors
    details["checks"] = checks.results
    result = {
        "correct": checks.ok,
        "attempted": runner.ledger.attempted,
        "failed": runner.ledger.failed,
        "metrics": metrics,
    }
    return result, details
