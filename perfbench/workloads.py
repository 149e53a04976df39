"""Inputs, timed rounds and output checks of the benchmark's phases.

There are three phases.  ``train`` runs the desk training recipe from a
freshly seeded model; ``track`` tracks a held-out desk set with the fixed
checkpoint, once frame by frame and once through ``run_ope``; ``dataset``
generates tracklets, writes and reads them in the native format, reads
them back through the KITTI reader and runs both baselines on them.  A
round of a phase always does the same work, so repeated rounds of one run
return identical outputs and only their timings differ.

The tracked scenes are one fixed held-out desk set, so ``success`` and
``precision`` repeat exactly; the run seed sets the order they are tracked
in and the Monte-Carlo sample.  Every other input (training pairs, model
weights, generated datasets) comes from the run seed.  The benchmark calls
the program through module attributes (``pipeline.track_frame``, not a
from-import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from speed import Clock

from lidartrack import config as lt_config
from lidartrack import data as lt_data
from lidartrack import evaluation, geometry, pipeline
from lidartrack import nn as lt_nn

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "checkpoint" / "desk.lidartrack"

TRACK_TRACKLETS = 16
# Per-tracklet success spreads widely (std ~30 points), so a seed-drawn set
# of 16 tracklets moves success by ~17% of its median from seed to seed;
# the tracked scenes are therefore a fixed set: the first tracklets of the
# acceptance test's held-out desk set.
TRACK_MASTER_SEED = 202
TRAIN_TRACKLETS = 4
TRAIN_PAIRS = 64  # two full desk batches
ROUND_EPOCHS = 1  # timed rounds: one whole epoch from a fresh model
CHECK_EPOCHS = 3  # the loss-decrease check trains longer, untimed
DATASET_TRACKLETS = 12
TRACK_SEED = 0  # sampling seed handed to the tracker

# sub-seed keys: every input derives from (run seed, key)
KEY_TRACK, KEY_TRAIN, KEY_MODEL, KEY_DATASET, KEY_MC = 1, 2, 3, 4, 5

# a typical KITTI LiDAR-to-camera transform (axes swap plus a small offset)
TR_VELO_TO_CAM = np.array(
    [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, -0.08], [1.0, 0.0, 0.0, -0.27], [0.0, 0.0, 0.0, 1.0]]
)

# Gaussian noise is unbounded: a 5-sigma face margin is crossed with
# probability 5.7e-7 per coordinate, so over ~1e5 target points per round
# the check would fail on some seeds; at 6 sigma (2e-9) it would not.
ORACLE_SIGMAS = 6.0
IOU_MC_SAMPLES = 100_000
IOU_MC_FRAMES = 8
IOU_MC_TOL = 0.01  # acceptance criterion 2's tolerance
GRAD_TOL = 1e-4  # acceptance criterion 3's tolerance
GRAD_SEED = 0


def sub_seed(seed: int, key: int) -> int:
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def desk_config(seed: int) -> lt_config.ExperimentConfig:
    return replace(lt_config.ExperimentConfig.from_sources(preset="desk"), seed=seed)


@dataclass
class Ledger:
    """Operations attempted and failed per kind, with each failure's cause."""

    counts: dict[str, list[int]] = field(default_factory=dict)
    errors: list[dict] = field(default_factory=list)

    def attempt(self, kind: str, count: int = 1) -> None:
        self.counts.setdefault(kind, [0, 0])[0] += count

    def fail(self, kind: str, count: int, where: str, kind_of_error: str, message: str) -> None:
        self.counts.setdefault(kind, [0, 0])[1] += count
        self.errors.append({"where": where, "type": kind_of_error, "message": message})

    def fail_exc(self, kind: str, count: int, where: str, exc: BaseException) -> None:
        self.fail(kind, count, where, type(exc).__name__, str(exc))

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.counts.values())


@dataclass
class Checks:
    """Named pass/fail verdicts; a check that raises counts as failed."""

    results: list[dict] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})

    def run(self, name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failed check, reported by name
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.record(name, ok, detail)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results)


@dataclass
class Inputs:
    seed: int
    cfg: lt_config.ExperimentConfig
    checkpoint: lt_nn.Model
    track_set: list
    train_pairs: list


def setup(seed: int) -> Inputs:
    """Load the checkpoint and generate the tracking and training inputs."""
    cfg = desk_config(seed)
    template = cfg.scene_template()
    model, _ = lt_nn.load_checkpoint(CHECKPOINT)
    scenes = lt_data.make_synthetic_dataset(
        TRACK_TRACKLETS, template, master_seed=TRACK_MASTER_SEED, motions=cfg.motion_cycle()
    )
    order = np.random.default_rng(sub_seed(seed, KEY_TRACK)).permutation(len(scenes))
    track_set = [scenes[i] for i in order]
    train_set = lt_data.make_synthetic_dataset(
        TRAIN_TRACKLETS, template, master_seed=sub_seed(seed, KEY_TRAIN), motions=cfg.motion_cycle()
    )
    pairs = lt_data.make_training_pairs(train_set)[:TRAIN_PAIRS]
    if len(pairs) != TRAIN_PAIRS:
        raise RuntimeError(f"expected {TRAIN_PAIRS} training pairs, got {len(pairs)}")
    return Inputs(seed=seed, cfg=cfg, checkpoint=model, track_set=track_set, train_pairs=pairs)


# ---------------------------------------------------------------------------
# train


def _train_config(cfg: lt_config.ExperimentConfig, epochs: int) -> pipeline.TrainConfig:
    return replace(cfg, epochs=epochs).train_config()


def _fresh_model(inp: Inputs) -> lt_nn.Model:
    return lt_nn.Model(replace(inp.cfg.model_config(), seed=sub_seed(inp.seed, KEY_MODEL)))


def train_round(inp: Inputs, ledger: Ledger, clock: Clock, epochs: int = ROUND_EPOCHS) -> dict:
    """Whole desk epochs (prepare, forward, backward, step) from a fresh model.

    Times are ``(start, end)`` spans, scaled to normal machine speed later.
    """
    tc = _train_config(inp.cfg, epochs)
    batches = epochs * -(-len(inp.train_pairs) // tc.batch_size)
    model = _fresh_model(inp)
    ledger.attempt("train.batches", batches)
    clock.ref()
    start = time.perf_counter()
    try:
        rows = pipeline.train(model, inp.train_pairs, tc)
    except Exception as exc:  # the round's batches all count as failed
        ledger.fail_exc("train.batches", batches, "train", exc)
        return {"span": (start, time.perf_counter()), "pair_steps": 0, "losses": None}
    return {
        "span": (start, time.perf_counter()),
        "pair_steps": len(inp.train_pairs) * epochs,
        "losses": [row["loss"] for row in rows],
    }


def check_train_round(r: dict, checks: Checks) -> None:
    losses = r["losses"]
    if losses is None:
        checks.record("train.completed", False, "training raised")
        return
    checks.record("train.losses_finite", all(np.isfinite(losses)), f"losses {losses}")


def _desk_batch(pairs, cfg: lt_config.ExperimentConfig, seed: int) -> list:
    tc = _train_config(cfg, 1)
    examples = [
        pipeline.prepare_pair_example(pair, tc, np.random.default_rng([seed, i]))
        for i, pair in enumerate(pairs[: tc.batch_size])
    ]
    return [ex for ex in examples if ex is not None]


def check_train_program(inp: Inputs, checks: Checks) -> None:
    """Loss decrease, gradients and batched segmentation, before timing.

    The loss-decrease check trains ``CHECK_EPOCHS`` epochs on the run's
    pairs; after the single Adam step per batch of a one-epoch round the
    loss does not yet fall on every seed.

    The gradient check runs on one desk batch drawn from the fixed seed
    ``GRAD_SEED``, not from the run seed: central differences across the
    ReLU kinks of a 32-pair batch (8192 segmentation rows) strayed by up to
    7e-5 at step 1e-6 on seed-drawn batches (6e-4 at the default 1e-5), so
    a seed-dependent batch would make the verdict depend on the seed rather
    than on the gradients.  Bias nudging is off: on this many rows it stops
    at its round cap without clearing the kinks, after ~150 evaluations.

    ``forward_pair`` deliberately carries no gradient through the stage-two
    merge geometry, so a finite difference of the full loss with respect to
    the stage-one weights follows a path autograd leaves out by design.  The
    stage-one weights are therefore checked with the stage-two regression
    term held at zero (the stage-two box set to its target); every other
    weight is checked against the full total loss.
    """
    r = train_round(inp, Ledger(), Clock(), epochs=CHECK_EPOCHS)
    check_train_round(r, checks)
    losses = r["losses"] or [float("nan")]
    checks.record("train.loss_decreases", losses[-1] < losses[0],
                  f"{CHECK_EPOCHS} epochs: first {losses[0]:.5f} last {losses[-1]:.5f}")

    cfg = desk_config(GRAD_SEED)
    grad_set = lt_data.make_synthetic_dataset(
        2, cfg.scene_template(), master_seed=GRAD_SEED, motions=cfg.motion_cycle()
    )
    examples = _desk_batch(lt_data.make_training_pairs(grad_set), cfg, GRAD_SEED)
    feats = np.vstack([ex.features for ex in examples])
    labels = np.concatenate([ex.seg_labels for ex in examples])
    model64 = lt_nn.Model(replace(cfg.model_config(), dtype="float64"))

    def total(hold_stage2: bool):
        def loss():
            logits = lt_nn.segment_forward_batched(feats, model64, batch=len(examples))
            fwds = [f for f in (pipeline.forward_pair(ex, model64) for ex in examples) if f is not None]
            if hold_stage2:
                fwds = [replace(f, box2_4=lt_nn.Tensor(f.box2_target)) for f in fwds]
            return pipeline.total_loss(logits, labels, fwds)[0]

        return loss

    def grad(params, hold_stage2):
        def run():
            err = lt_nn.grad_check(
                params, total(hold_stage2), nudge=False, eps=1e-6, max_entries=16,
                rng=np.random.default_rng(GRAD_SEED),
            )
            return err < GRAD_TOL, f"max rel err {err:.2e} over {len(examples)} pairs"

        return run

    checks.run("train.grad_check.seg_stage2",
               grad(model64.seg_parameters() + model64.stage2_parameters(), False))
    checks.run("train.grad_check.stage1", grad(model64.stage1_parameters(), True))

    def batched():
        ex = _desk_batch(inp.train_pairs, inp.cfg, inp.seed)
        model = _fresh_model(inp)
        batched = lt_nn.segment_forward_batched(
            np.vstack([e.features for e in ex]), model, batch=len(ex)
        ).data
        single = np.vstack([lt_nn.segment_forward(e.features, model).data for e in ex])
        gap = float(np.max(np.abs(batched - single)))
        return bool(np.allclose(batched, single, rtol=1e-5, atol=1e-5)), f"max gap {gap:.2e}"

    checks.run("train.batched_segmentation", batched)


# ---------------------------------------------------------------------------
# track


class RecordingTracker(pipeline.NetworkTracker):
    """The network tracker, keeping the boxes ``run_ope`` does not return
    and each tracklet's span: its tracking plus its scoring, which
    ``run_ope`` does before it asks for the next tracklet."""

    def __init__(self, clock: Clock, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.clock = clock
        self.outputs: list[list] = []
        self.starts: list[float] = []
        self.ends: list[float] = []

    def track(self, frames, initial_box):
        if self.starts:
            self.ends.append(time.perf_counter())
        self.clock.ref()
        self.starts.append(time.perf_counter())
        boxes = super().track(frames, initial_box)
        self.outputs.append(boxes)
        return boxes


def track_round(inp: Inputs, n_points: int, ledger: Ledger, clock: Clock) -> dict:
    """Online per-frame latency, then offline ``run_ope`` throughput."""
    model, margin = inp.checkpoint, inp.cfg.margin
    frame_spans: list[tuple[float, float]] = []
    boxes: list[list] = []
    full = 0
    for t in inp.track_set:
        out = [t.gt_boxes[0]]
        clock.ref()
        for i in range(1, len(t.frames)):
            ledger.attempt("track.frames")
            start = time.perf_counter()
            try:
                box, diag = pipeline.track_frame(
                    t.frames[i - 1], t.frames[i], out[-1], model,
                    seed=TRACK_SEED, frame_index=i, margin=margin, n_points=n_points,
                )
            except Exception as exc:  # the rest of this tracklet cannot be tracked
                ledger.attempt("track.frames", len(t.frames) - i - 1)
                ledger.fail_exc("track.frames", len(t.frames) - i, f"{t.id} frame {i}", exc)
                break
            frame_spans.append((start, time.perf_counter()))
            out.append(box)
            full += not (diag.degenerate or diag.fallback_mask)
        boxes.append(out)

    tracker = RecordingTracker(clock, model, seed=TRACK_SEED, margin=margin, n_points=n_points)
    ledger.attempt("track.ope_tracklets", len(inp.track_set))
    report = evaluation.run_ope(tracker, inp.track_set)
    tracker.ends.append(time.perf_counter())
    for tid in report.failures:
        ledger.fail("track.ope_tracklets", 1, f"run_ope {tid}", "unknown", "run_ope keeps no cause")
    return {
        "frame_spans": frame_spans,
        "boxes": boxes,
        "ope_boxes": tracker.outputs,
        "ope_spans": list(zip(tracker.starts, tracker.ends)),
        "frames_per_tracklet": len(inp.track_set[0].frames) - 1,
        "full_frames": full,
        "report": report,
    }


def _box_vectors(boxes) -> np.ndarray:
    return np.array([b.as_vector() for b in boxes])


def _inside(points: np.ndarray, box, pad: float = 0.0) -> np.ndarray:
    """Containment in the box's canonical frame, computed apart from the program."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    d = np.asarray(points, dtype=np.float64) - np.asarray(box.center)
    local = np.stack([c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1], d[:, 2]], axis=1)
    w, l, h = box.size
    return np.all(np.abs(local) <= np.array([l / 2, w / 2, h / 2]) + pad, axis=1)


def _mc_iou(a, b, rng: np.random.Generator) -> float:
    w, l, h = a.size
    local = rng.uniform(-0.5, 0.5, size=(IOU_MC_SAMPLES, 3)) * np.array([l, w, h])
    c, s = np.cos(a.yaw), np.sin(a.yaw)
    pts = np.stack([c * local[:, 0] - s * local[:, 1], s * local[:, 0] + c * local[:, 1], local[:, 2]], axis=1)
    pts += np.asarray(a.center)
    vol_a, vol_b = float(np.prod(a.size)), float(np.prod(b.size))
    inter = vol_a * float(np.mean(_inside(pts, b)))
    return inter / (vol_a + vol_b - inter)


def check_track_round(inp: Inputs, r: dict, checks: Checks) -> None:
    report = r["report"]
    checks.record("track.ope_no_failures", not report.failures, f"failed {list(report.failures)}")
    same = len(r["ope_boxes"]) == len(r["boxes"]) and all(
        len(a) == len(b) and np.array_equal(_box_vectors(a), _box_vectors(b))
        for a, b in zip(r["boxes"], r["ope_boxes"])
    )
    checks.record("track.loop_equals_run_ope", same, "per-frame loop vs run_ope boxes, bitwise")

    ious, errs = [], []
    for t, boxes in zip(inp.track_set, r["boxes"]):
        for box, gt in zip(boxes, t.gt_boxes):
            ious.append(geometry.iou3d(box, gt))
            errs.append(float(np.linalg.norm(np.asarray(box.center) - np.asarray(gt.center))))
    success = 100.0 * float(np.mean(ious))
    precision = 100.0 * float(np.mean((2.0 - np.minimum(errs, 2.0)) / 2.0))
    checks.record("track.success_is_mean_iou", abs(success - report.success) <= 1e-9,
                  f"run_ope {report.success:.9f} vs 100*mean IoU {success:.9f}")
    checks.record("track.precision_closed_form", abs(precision - report.precision) <= 1e-9,
                  f"run_ope {report.precision:.9f} vs closed form {precision:.9f}")

    rng = np.random.default_rng(sub_seed(inp.seed, KEY_MC))
    scored = [(ti, fi) for ti, t in enumerate(inp.track_set) for fi in range(1, len(t.frames))]
    worst = 0.0
    for k in rng.choice(len(scored), size=IOU_MC_FRAMES, replace=False):
        ti, fi = scored[k]
        pred, gt = r["boxes"][ti][fi], inp.track_set[ti].gt_boxes[fi]
        worst = max(worst, abs(geometry.iou3d(pred, gt) - _mc_iou(pred, gt, rng)))
    checks.record("track.iou3d_vs_monte_carlo", worst <= IOU_MC_TOL,
                  f"max gap {worst:.4f} over {IOU_MC_FRAMES} scored frames")


def check_track_program(inp: Inputs, n_points: int, r: dict, checks: Checks) -> None:
    """Oracle plumbing and the zero-motion floor on the workload's tracklets."""

    def oracle():
        # A target moving at most DYNAMIC_DISPLACEMENT per frame is labeled
        # static, and the oracle then keeps its box, so the chain drifts on
        # such slow movers.  The identity is checked on the other tracklets
        # and the slow movers' drift is reported alongside.
        worst, slow_worst, slow = 1.0, 1.0, 0
        for t in inp.track_set:
            res = pipeline.track_sequence(
                t, inp.checkpoint, overrides=pipeline.make_oracle_overrides(t),
                margin=inp.cfg.margin, n_points=n_points,
            )
            iou = min(geometry.iou3d(b, g) for b, g in zip(res.boxes, t.gt_boxes))
            steps = np.linalg.norm(np.diff(_box_vectors(t.gt_boxes)[:, :3], axis=0), axis=1)
            if np.any((steps > 0.0) & (steps <= lt_data.DYNAMIC_DISPLACEMENT)):
                slow += 1
                slow_worst = min(slow_worst, iou)
            else:
                worst = min(worst, iou)
        return worst >= 1.0 - 1e-6, (
            f"min IoU {worst:.9f} on {len(inp.track_set) - slow} tracklets; "
            f"{slow} slow movers left out, min IoU {slow_worst:.6f}"
        )

    def beats_zero():
        zero = evaluation.run_ope(evaluation.ZeroMotionTracker(), inp.track_set)
        net = r["report"].success
        return net > zero.success, f"network {net:.2f} vs zero-motion {zero.success:.2f}"

    checks.run("track.oracle_reproduces_gt", oracle)
    checks.run("track.beats_zero_motion", beats_zero)


# ---------------------------------------------------------------------------
# dataset


def _write_kitti(tracklets, root: Path, write: bool = True) -> list[Path]:
    """One KITTI tracking sequence per tracklet; the target is track 0.

    Returns the sequence directories; with ``write`` off only their names.
    """
    tr = " ".join(repr(float(v)) for v in TR_VELO_TO_CAM[:3].reshape(-1))
    seq_dirs = []
    for idx, t in enumerate(tracklets):
        seq = f"{idx:04d}"
        d = root / seq
        seq_dirs.append(d)
        if not write:
            continue
        for sub in ("velodyne", "label_02", "calib"):
            (d / sub).mkdir(parents=True, exist_ok=True)
        (d / "calib" / f"{seq}.txt").write_text(f"P2: {' '.join(['0'] * 12)}\nTr_velo_to_cam: {tr}\n")
        rows = []
        for i, (frame, box) in enumerate(zip(t.frames, t.gt_boxes)):
            loc, (h, w, l), ry = lt_data.camera_label_from_box(box, TR_VELO_TO_CAM)
            nums = " ".join(repr(float(v)) for v in (h, w, l, *loc, ry))
            rows.append(f"{frame.timestamp} 0 Car 0 0 0 0 0 0 0 {nums}")
            xyzr = np.zeros((len(frame), 4), dtype="<f4")
            xyzr[:, :3] = frame.points
            (d / "velodyne" / f"{frame.timestamp:06d}.bin").write_bytes(xyzr.tobytes())
        (d / "label_02" / f"{seq}.txt").write_text("\n".join(rows) + "\n")
    return seq_dirs


def _dir_bytes(root: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in root.glob(pattern) if p.is_file())


def dataset_round(inp: Inputs, ledger: Ledger, clock: Clock, workdir: Path) -> dict:
    """Generate, write and read native, read KITTI, run both baselines."""
    cfg = inp.cfg
    n = DATASET_TRACKLETS
    # every round writes over the same files: deleting files mid-run, or
    # writing ever more of them, makes later writes wait on the disk
    native_root, kitti_root = workdir / "native", workdir / "kitti"
    r: dict = {}
    kinds = ("dataset.written", "dataset.read_native", "dataset.read_kitti")
    for kind in kinds:
        ledger.attempt(kind, n)
    ledger.attempt("dataset.tracked", 2 * n)  # by both baselines
    clock.ref()
    try:
        start = time.perf_counter()
        generated = lt_data.make_synthetic_dataset(
            n, cfg.scene_template(), master_seed=sub_seed(inp.seed, KEY_DATASET), motions=cfg.motion_cycle()
        )
        r["generate_span"] = (start, time.perf_counter())

        lt_data.write_native(generated, native_root)
        r["meta_bytes"] = _dir_bytes(native_root, "*/meta.json")
        r["point_bytes"] = _dir_bytes(native_root, "*/points_*.bin")
        r["native_bytes"] = _dir_bytes(native_root, "**/*")

        clock.ref()
        start = time.perf_counter()
        native = lt_data.read_native(native_root)
        r["read_span"] = (start, time.perf_counter())

        # every round reads the same KITTI export, written by the first
        seq_dirs = _write_kitti(native, kitti_root, write=not kitti_root.exists())
        clock.ref()
        start = time.perf_counter()
        kitti = [t for d in seq_dirs for t in lt_data.load_kitti_tracklets(d)]
        r["kitti_span"] = (start, time.perf_counter())

        clock.ref()
        start = time.perf_counter()
        zero = evaluation.run_ope(evaluation.ZeroMotionTracker(), native)
        kalman = evaluation.run_ope(evaluation.KalmanCVTracker(), native)
        r["baseline_span"] = (start, time.perf_counter())
    except Exception as exc:  # the round's operations all count as failed
        for kind in kinds:
            ledger.fail_exc(kind, n, "dataset round", exc)
        ledger.fail_exc("dataset.tracked", 2 * n, "dataset round", exc)
        return {"error": True}
    for report in (zero, kalman):
        for tid in report.failures:
            ledger.fail("dataset.tracked", 1, f"run_ope {report.tracker} {tid}", "unknown", "run_ope keeps no cause")
    r.update(
        error=False,
        frames=sum(len(t.frames) for t in generated),
        tracked_frames=sum(len(t.frames) - 1 for t in generated),
        generated=generated,
        native=native,
        kitti=kitti,
        zero=zero,
        kalman=kalman,
    )
    return r


def _wrapped_gap(a: float, b: float) -> float:
    return abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)


def check_dataset_round(inp: Inputs, r: dict, checks: Checks) -> None:
    if r.get("error"):
        checks.record("dataset.completed", False, "dataset round raised")
        return
    gen, native, kitti = r["generated"], r["native"], r["kitti"]

    def native_exact():
        if [t.id for t in native] != [t.id for t in gen]:
            return False, "tracklet ids differ"
        for a, b in zip(gen, native):
            if not np.array_equal(_box_vectors(a.gt_boxes), _box_vectors(b.gt_boxes)):
                return False, f"{a.id}: boxes differ"
            for fa, fb in zip(a.frames, b.frames):
                if not np.array_equal(fa.points.astype(np.float32).astype(np.float64), fb.points):
                    return False, f"{a.id}: points are not the float32 rounding"
        return True, f"{len(gen)} tracklets, boxes bitwise, points at float32"

    def kitti_close():
        if len(kitti) != len(gen):
            return False, f"{len(kitti)} KITTI tracklets for {len(gen)} written"
        worst = 0.0
        for a, b in zip(gen, kitti):
            for ba, bb in zip(a.gt_boxes, b.gt_boxes):
                worst = max(worst, float(np.max(np.abs(ba.center - bb.center))),
                            float(np.max(np.abs(ba.size - bb.size))), _wrapped_gap(ba.yaw, bb.yaw))
        return worst <= 1e-6, f"max box gap {worst:.2e}"

    def oracle_points():
        pad = ORACLE_SIGMAS * inp.cfg.noise_sigma
        outside = total = 0
        for t in gen:
            for frame, mask, box in zip(t.frames, t.oracle.target_masks, t.gt_boxes):
                pts = frame.points[mask]
                total += len(pts)
                outside += int(np.sum(~_inside(pts, box, pad)))
        return outside == 0, f"{outside} of {total} target points outside GT box + {ORACLE_SIGMAS:g} sigma"

    def zero_static():
        static = [t for t in native if np.all(_box_vectors(t.gt_boxes) == t.gt_boxes[0].as_vector())]
        overlaps = [ov for t in static for ov in r["zero"].traces[t.id][0]]
        s = 100.0 * float(np.mean(overlaps)) if overlaps else float("nan")
        return bool(static) and abs(s - 100.0) <= 1e-9, f"{len(static)} static tracklets, success {s:.9f}"

    checks.run("dataset.native_round_trip", native_exact)
    checks.run("dataset.kitti_round_trip", kitti_close)
    checks.run("dataset.oracle_points_in_box", oracle_points)
    checks.run("dataset.zero_motion_static", zero_static)
    checks.record("dataset.baselines_no_failures", not (r["zero"].failures or r["kalman"].failures),
                  f"zero {list(r['zero'].failures)} kalman {list(r['kalman'].failures)}")


# ---------------------------------------------------------------------------
# round equality: repeated rounds of one run must return identical outputs


def same_output(phase: str, a: dict, b: dict) -> bool:
    if phase == "train":
        return a["losses"] == b["losses"]
    if phase == "track":
        return all(
            np.array_equal(_box_vectors(x), _box_vectors(y)) for x, y in zip(a["boxes"], b["boxes"])
        ) and a["report"].success == b["report"].success and a["report"].precision == b["report"].precision
    if a.get("error") or b.get("error"):
        return False
    return (
        a["native_bytes"] == b["native_bytes"]
        and a["zero"].success == b["zero"].success
        and a["kalman"].success == b["kalman"].success
        and all(
            np.array_equal(_box_vectors(x.gt_boxes), _box_vectors(y.gt_boxes))
            for x, y in zip(a["native"], b["native"])
        )
    )
