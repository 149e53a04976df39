"""Span tracing installed from outside the program.

Each wrapper replaces a public function under every name its callers look
it up by (for example ``lidartrack.pipeline.crop_and_sample`` and
``lidartrack.nn.network.linear``), or a method on its class
(``Adam.step``), records a span around the call and restores the original
on ``uninstall``.  A span is ``(name, start, end, parent, unit, phase,
site)``: ``parent`` is the index of the enclosing span, ``unit`` the
per-frame or per-batch id, ``phase`` the benchmark phase that ran it and
``site`` the module whose binding was called.  Spans stay in memory until
the run writes them out.

Backward time of ``linear`` and ``segment_maxpool`` is recorded by
wrapping the ``backward_fn`` of the Tensor the op returns.  Hot helpers
called tens of thousands of times per epoch (``wrap_angle``, ``Box3D``
construction, ``Tensor`` construction) are counted, not spanned.

A target that no longer exists under its expected name makes
``install`` raise ``MissingTarget`` naming it, so a renamed function cannot
pass as a layer with zero time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PKG = "lidartrack"

# (home module, attribute, span name or None for count-only, modules that
# must bind the same object under that name)
FUNCTION_TARGETS = [
    ("lidartrack.geometry", "points_in_box", "geometry.points_in_box",
     ["lidartrack.pointcloud", "lidartrack.pipeline", "lidartrack.evaluation"]),
    ("lidartrack.geometry", "iou3d", "geometry.iou3d",
     ["lidartrack.evaluation", "lidartrack.data.synthetic"]),
    ("lidartrack.geometry", "center_distance", "geometry.center_distance", ["lidartrack.evaluation"]),
    ("lidartrack.geometry", "wrap_angle", None, ["lidartrack.pipeline", "lidartrack.data.synthetic"]),
    ("lidartrack.pointcloud", "crop_and_sample", "pointcloud.crop_and_sample", ["lidartrack.pipeline"]),
    ("lidartrack.pointcloud", "build_st_cloud", "pointcloud.build_st_cloud", ["lidartrack.pipeline"]),
    ("lidartrack.pointcloud", "with_channels", "pointcloud.with_channels", ["lidartrack.pipeline"]),
    ("lidartrack.pointcloud", "motion_assisted_merge", "pointcloud.motion_assisted_merge",
     ["lidartrack.pipeline"]),
    ("lidartrack.augment", "motion_augment", "augment.motion_augment", ["lidartrack.pipeline"]),
    ("lidartrack.nn.autograd", "linear", "nn.linear", ["lidartrack.nn.network"]),
    ("lidartrack.nn.autograd", "segment_maxpool", "nn.segment_maxpool", ["lidartrack.nn.network"]),
    ("lidartrack.nn.autograd", "backward", "nn.backward", ["lidartrack.pipeline"]),
    ("lidartrack.nn.network", "segment_forward", "nn.segment_forward", ["lidartrack.pipeline"]),
    ("lidartrack.nn.network", "segment_forward_batched", "nn.segment_forward_batched",
     ["lidartrack.pipeline"]),
    ("lidartrack.nn.network", "stage1_forward", "nn.stage1_forward", ["lidartrack.pipeline"]),
    ("lidartrack.nn.network", "stage2_forward", "nn.stage2_forward", ["lidartrack.pipeline"]),
    ("lidartrack.pipeline", "prepare_pair_example", "pipeline.prepare_pair_example", []),
    ("lidartrack.pipeline", "forward_pair", "pipeline.forward_pair", []),
    ("lidartrack.pipeline", "total_loss", "pipeline.total_loss", []),
    ("lidartrack.pipeline", "track_frame", "pipeline.track_frame", []),
    ("lidartrack.pipeline", "canonical_features", "pipeline.canonical_features", []),
    ("lidartrack.pipeline", "prior_target_mask", "pipeline.prior_target_mask", []),
    ("lidartrack.pipeline", "stage1_predict", "pipeline.stage1_predict", []),
    ("lidartrack.pipeline", "stage2_refine", "pipeline.stage2_refine", []),
    ("lidartrack.data.synthetic", "generate_synthetic_tracklet", "data.synthetic.tracklet", []),
    ("lidartrack.data.native", "write_native", "data.native.write", ["lidartrack.data"]),
    ("lidartrack.data.native", "read_native", "data.native.read", ["lidartrack.data"]),
    ("lidartrack.data.kitti", "load_kitti_tracklets", "data.kitti.read", ["lidartrack.data"]),
    ("lidartrack.evaluation", "run_ope", "evaluation.run_ope", []),
]

# (module, class, method, span name or None for count-only)
METHOD_TARGETS = [
    ("lidartrack.geometry", "Box3D", "__post_init__", None),
    ("lidartrack.nn.autograd", "Tensor", "__init__", None),
    ("lidartrack.nn.optim", "Adam", "step", "nn.adam.step"),
    ("lidartrack.evaluation", "KalmanCVTracker", "track", "evaluation.kalman.track"),
]


class MissingTarget(RuntimeError):
    """A function or method the tracer wraps is gone or was renamed."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []
        self._unit = ""
        self._frames = 0
        self._batches = 0
        self._in_frame = 0
        self._pending_nodes = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _open(self, name: str, site: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._unit, self.phase, site])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name: str, site: str, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = self._open(name, site)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_backward(self, out, name: str, flop: float) -> None:
        inner = out.backward_fn
        if inner is None:
            return

        def bw(g):
            self.counts[f"{name}.bwd_flop"] += flop
            sid = self._open(f"{name}.bwd", "backward")
            try:
                return inner(g)
            finally:
                self._close(sid)

        out.backward_fn = bw

    # -- per-target hooks ----------------------------------------------------

    def _hooks(self, name: str):
        """(before, after) callbacks that count work at a layer boundary."""
        counts = self.counts

        def count_rows(key):
            def before(args, kwargs):
                counts[key] += len(args[0])
            return before

        def linear_after(args, out):
            rows, fan_in = args[0].data.shape
            flop = 2.0 * rows * fan_in * args[1].data.shape[1]
            counts["nn.linear.fwd_flop"] += flop
            self._timed_backward(out, "nn.linear", 2.0 * flop)

        def backward_before(args, kwargs):
            counts["backward_nodes"] += self._pending_nodes
            self._pending_nodes = 0

        def prepare_after(args, out):
            counts["prepare_useful"] += out is not None

        def batch_before(args, kwargs):
            if self.phase == "train":
                self._batches += 1
                self._unit = f"batch-{self._batches}"

        return {
            "geometry.points_in_box": (count_rows("pib_rows"), None),
            "pointcloud.crop_and_sample": (count_rows("crop_rows"), None),
            "nn.linear": (None, linear_after),
            "nn.segment_maxpool": (None, lambda a, out: self._timed_backward(out, "nn.segment_maxpool", 0.0)),
            "nn.backward": (backward_before, None),
            "pipeline.prepare_pair_example": (None, prepare_after),
            "nn.segment_forward_batched": (batch_before, None),
        }.get(name, (None, None))

    def _track_frame_wrapper(self, fn, site: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._frames += 1
            self._unit = f"frame-{self._frames}"
            self._in_frame += 1
            sid = self._open("pipeline.track_frame", site)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                self._in_frame -= 1

        return wrapper

    def _tensor_init_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(tensor, *args, **kwargs):
            fn(tensor, *args, **kwargs)
            self.counts["tensors"] += 1
            if self._in_frame:
                self.counts["tensors_in_frames"] += 1
            if self.phase == "train" and tensor.requires_grad and tensor.parents:
                self._pending_nodes += 1

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            for home, attr, name, sites in FUNCTION_TARGETS:
                self._install_function(home, attr, name, sites)
            for mod_name, cls_name, meth, name in METHOD_TARGETS:
                cls = getattr(_module(mod_name), cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise MissingTarget(f"{mod_name}.{cls_name}.{meth}")
                orig = vars(cls)[meth]
                if meth == "__init__" and cls_name == "Tensor":
                    wrapped = self._tensor_init_wrapper(orig)
                elif name is None:
                    wrapped = self._counted(orig, f"{mod_name}.{cls_name}.{meth}")
                else:
                    wrapped = self._spanned(orig, name, mod_name)
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _install_function(self, home: str, attr: str, name, sites: list[str]) -> None:
        orig = getattr(_module(home), attr, None)
        if orig is None or not callable(orig):
            raise MissingTarget(f"{home}.{attr}")
        for site in sites:
            if getattr(_module(site), attr, None) is not orig:
                raise MissingTarget(f"{site}.{attr} (callers look up {home}.{attr} under this name)")
        before, after = self._hooks(name) if name else (None, None)
        # every lidartrack module that binds the original object gets a wrapper
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
                continue
            if vars(mod).get(attr) is not orig:
                continue
            if name is None:
                wrapped = self._counted(orig, f"{home}.{attr}")
            elif name == "pipeline.track_frame":
                wrapped = self._track_frame_wrapper(orig, mod_name)
            else:
                wrapped = self._spanned(orig, name, mod_name, before, after)
            self._restore.append((mod, attr, orig))
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- export --------------------------------------------------------------

    def span_rows(self):
        for i, (name, start, end, parent, unit, phase, site) in enumerate(self.spans):
            yield {
                "id": i,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "unit": unit,
                "phase": phase,
                "site": site,
            }


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise MissingTarget(name) from exc


def untouched() -> bool:
    """True when every traced binding is the program's own function."""
    for home, attr, _, sites in FUNCTION_TARGETS:
        orig = getattr(_module(home), attr, None)
        if getattr(orig, "__wrapped__", None) is not None:
            return False
        if any(getattr(_module(s), attr, None) is not orig for s in sites):
            return False
    for mod_name, cls_name, meth, _ in METHOD_TARGETS:
        if getattr(vars(getattr(_module(mod_name), cls_name)).get(meth), "__wrapped__", None) is not None:
            return False
    return True


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(tracer: Tracer, frames_tracked: int, full_frames: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and counts of the traced rounds."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start

    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    by_phase: dict[tuple[str, str], float] = defaultdict(float)
    phase_calls: dict[tuple[str, str], int] = defaultdict(int)
    score = 0.0
    for i, (name, start, end, parent, unit, phase, site) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_t[name] += dur - child[i]
        by_phase[(phase, name)] += dur
        phase_calls[(phase, name)] += 1
        if site == "lidartrack.evaluation" and name in ("geometry.iou3d", "geometry.center_distance"):
            score += dur

    c = tracer.counts
    lin_s = total["nn.linear"] + total["nn.linear.bwd"]
    lin_gflop = (c["nn.linear.fwd_flop"] + c["nn.linear.bwd_flop"]) / 1e9
    batches = phase_calls[("train", "nn.adam.step")]
    stage_graphs = sum(
        phase_calls[("train", n)]
        for n in ("nn.segment_forward_batched", "nn.stage1_forward", "nn.stage2_forward")
    )
    n_frames = calls["pipeline.track_frame"]

    def tr(*names):
        return _ms(sum(by_phase[("track", n)] for n in names))

    def train_ms(*names):
        return _ms(sum(by_phase[("train", n)] for n in names))

    return {
        "geometry.points_in_box.calls": (calls["geometry.points_in_box"], "count"),
        "geometry.points_in_box.rows": (c["pib_rows"], "count"),
        "geometry.points_in_box.self_ms": (_ms(self_t["geometry.points_in_box"]), "ms"),
        "geometry.iou3d.calls": (calls["geometry.iou3d"], "count"),
        "geometry.iou3d.self_ms": (_ms(self_t["geometry.iou3d"]), "ms"),
        "geometry.box3d.constructions": (c["lidartrack.geometry.Box3D.__post_init__"], "count"),
        "geometry.wrap_angle.calls": (c["lidartrack.geometry.wrap_angle"], "count"),
        "pointcloud.crop_and_sample.calls": (calls["pointcloud.crop_and_sample"], "count"),
        "pointcloud.crop_and_sample.rows_in": (c["crop_rows"], "count"),
        "pointcloud.crop_and_sample.self_ms": (_ms(self_t["pointcloud.crop_and_sample"]), "ms"),
        "pointcloud.with_channels.self_ms": (_ms(self_t["pointcloud.with_channels"]), "ms"),
        "pointcloud.motion_assisted_merge.self_ms": (_ms(self_t["pointcloud.motion_assisted_merge"]), "ms"),
        "augment.motion_augment.calls": (calls["augment.motion_augment"], "count"),
        "augment.motion_augment.self_ms": (_ms(self_t["augment.motion_augment"]), "ms"),
        "nn.linear.calls": (calls["nn.linear"], "count"),
        "nn.linear.fwd_ms": (_ms(self_t["nn.linear"]), "ms"),
        "nn.linear.bwd_ms": (_ms(self_t["nn.linear.bwd"]), "ms"),
        "nn.linear.gflop": (lin_gflop, "GFLOP"),
        "nn.linear.gflops": (lin_gflop / lin_s if lin_s > 0 else 0.0, "GFLOP/s"),
        "nn.segment_maxpool.calls": (calls["nn.segment_maxpool"], "count"),
        "nn.segment_maxpool.fwd_ms": (_ms(self_t["nn.segment_maxpool"]), "ms"),
        "nn.segment_maxpool.bwd_ms": (_ms(self_t["nn.segment_maxpool.bwd"]), "ms"),
        "nn.tensors_per_frame": (c["tensors_in_frames"] / n_frames if n_frames else 0.0, "count"),
        "nn.backward.calls": (calls["nn.backward"], "count"),
        "nn.backward.nodes": (c["backward_nodes"], "count"),
        "nn.backward.self_ms": (_ms(self_t["nn.backward"]), "ms"),
        "nn.adam.step.calls": (calls["nn.adam.step"], "count"),
        "nn.adam.step.self_ms": (_ms(self_t["nn.adam.step"]), "ms"),
        "pipeline.train.prepare_ms": (train_ms("pipeline.prepare_pair_example"), "ms"),
        "pipeline.train.forward_ms": (
            train_ms("nn.segment_forward_batched", "pipeline.forward_pair", "pipeline.total_loss"), "ms"),
        "pipeline.train.backward_ms": (train_ms("nn.backward"), "ms"),
        "pipeline.train.step_ms": (train_ms("nn.adam.step"), "ms"),
        "pipeline.train.stage_graphs_per_batch": (stage_graphs / batches if batches else 0.0, "count"),
        "pipeline.prepare.useful_ratio": (
            c["prepare_useful"] / calls["pipeline.prepare_pair_example"]
            if calls["pipeline.prepare_pair_example"] else 0.0, "ratio"),
        "pipeline.track.crop_ms": (tr("pointcloud.crop_and_sample"), "ms"),
        "pipeline.track.channels_ms": (tr("pointcloud.build_st_cloud", "pointcloud.with_channels"), "ms"),
        "pipeline.track.segment_ms": (
            tr("pipeline.canonical_features", "nn.segment_forward", "pipeline.prior_target_mask"), "ms"),
        "pipeline.track.stage1_ms": (tr("pipeline.stage1_predict"), "ms"),
        "pipeline.track.stage2_ms": (tr("pipeline.stage2_refine"), "ms"),
        "pipeline.track.full_frame_ratio": (full_frames / frames_tracked if frames_tracked else 0.0, "ratio"),
        "data.synthetic.tracklet_ms": (_ms(total["data.synthetic.tracklet"]), "ms"),
        "data.native.write_ms": (_ms(total["data.native.write"]), "ms"),
        "data.native.read_ms": (_ms(total["data.native.read"]), "ms"),
        "data.kitti.read_ms": (_ms(total["data.kitti.read"]), "ms"),
        "evaluation.run_ope.ms": (_ms(total["evaluation.run_ope"]), "ms"),
        "evaluation.kalman.track_ms": (_ms(total["evaluation.kalman.track"]), "ms"),
        "evaluation.score_ms": (_ms(score), "ms"),
    }
