"""Two-stage point tracker: segmentation, motion regression, refinement.

Frame-to-frame tracking proceeds in two stages.  Stage one classifies each
point of a joined two-frame cloud as target or background, pools the target
points, and regresses the inter-frame motion together with a correction of
the (possibly drifted) previous box; applying the motion to the corrected
box yields a coarse current box.  Stage two transports the previous target
points through the predicted motion, merges them with the current ones, and
regresses a residual in the coarse-box frame.

All regressed 4-vectors live in the frame of the box they correct: the
network never sees absolute world coordinates.  The override seam
(`TrackOverrides`) lets any stage be replaced by ground truth, which is how
the plumbing is validated end to end.

Training and inference run the same code for each stage: the prior-mask
fallback, stage one's rotation to world axes and box construction, and
stage two's merge, canonicalization, forward pass and rotation.  Training
teacher-forces the discrete structure: stage inputs come from the
ground-truth target mask and the static/dynamic branch follows the
ground-truth motion label, keeping the regression targets stationary while
the segmentation and motion classifiers are still learning.  Inference takes
the predicted mask and the predicted branch instead, and its public entry
points (`track_frame`, `stage1_predict`, `stage2_refine`) run under
``no_grad()``: tracking records no autograd graph.

Each stage takes a batch of pairs: the encoders run over all pairs' points
at once and pool per pair.  Training builds three graphs per batch
(segmentation, stage one, stage two) and inference runs the same stage code
with one pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from lidartrack.augment import AugmentConfig, motion_augment, perturb_prev_box
from lidartrack.data.tracklets import Tracklet, TrainingPair, is_dynamic
from lidartrack.evaluation import FrameDiagnostics, TrackResult
# points_in_box is bound here, though training labels test rows of validated
# frames with _in_box, so that perfbench's tracer finds it
from lidartrack.geometry import (  # noqa: F401
    Box3D,
    RTM,
    _in_box,
    apply_rtm,
    infer_rtm,
    points_in_box,
    world_to_canonical,
    wrap_angle,
    yaw_matrix,
)
from lidartrack.nn import (
    Adam,
    Model,
    Tensor,
    add,
    add_const,
    backward,
    cross_entropy,
    huber,
    matmul_const,
    no_grad,
    pin_heap,
    scale,
    segment_forward,
    segment_forward_batched,
    stage1_forward,
    stage2_forward,
    zero_grad,
)
from lidartrack.pointcloud import (
    DEFAULT_MARGIN,
    DEFAULT_POINTS,
    EmptyRegionError,
    Frame,
    STCloud,
    assemble_features,
    build_st_cloud,
    check_crop_settings,
    crop_and_pad,
    crop_and_sample,
    motion_assisted_merge,
    split_by_time,
    with_channels,
)

__all__ = [
    "Stage1Output",
    "TrackOverrides",
    "TrainConfig",
    "PairExample",
    "PairForward",
    "NetworkTracker",
    "canonical_features",
    "prior_target_mask",
    "stage1_predict",
    "stage2_refine",
    "track_frame",
    "track_sequence",
    "make_oracle_overrides",
    "prepare_pair_example",
    "forward_batch",
    "forward_pair",
    "total_loss",
    "scheduled_lr",
    "train",
]

# Every network input channel is multiplied by this constant.  Without
# normalization layers, small uniform activations are what keep Adam's
# scale-free steps from swinging the meter-valued head outputs by whole
# meters; the flag channels shrink with the coordinates so no channel
# re-inflates the activations.  Outputs are NOT scaled back up; the heads
# regress meters directly.
COORD_SCALE = 0.05


# ---------------------------------------------------------------------------
# Feature preparation.
# ---------------------------------------------------------------------------


def canonical_features(st: STCloud, b_prev: Box3D) -> np.ndarray:
    """Network input (N, 14) with xyz expressed in the previous-box frame.

    All channels are converted to network units via ``COORD_SCALE``; the
    distance channels must have been attached from the same prior box.
    """
    feats = assemble_features(st)
    feats[:, :3] = world_to_canonical(st.xyz, b_prev)
    feats *= COORD_SCALE
    return feats


def _rows_in_boxes(st: STCloud, prev_box: Box3D, cur_box: Box3D) -> np.ndarray:
    """Each row inside its own frame's box: previous rows in ``prev_box``,
    current rows in ``cur_box``."""
    # previous rows precede current rows, so each box tests only its own rows
    n_prev = int(np.count_nonzero(st.prev_rows))
    return np.concatenate([_in_box(st.xyz[:n_prev], prev_box), _in_box(st.xyz[n_prev:], cur_box)])


def prior_target_mask(st: STCloud) -> np.ndarray:
    """Motion-free target guess, read from the prior-targetness channel:
    previous points inside the previous box and every current point.

    The crop already holds the current points to the previous box plus its
    margin, and it is never empty, so neither is this mask.
    """
    return st.targetness > 0


def _with_prior_fallback(mask: np.ndarray, st: STCloud) -> tuple[np.ndarray, bool]:
    """The given target mask, or the prior mask when it selects nothing.

    Returns the mask in use and whether it is the prior.
    """
    if mask.any():
        return mask, False
    return prior_target_mask(st), True


def _no_lone_row(x: np.ndarray) -> np.ndarray:
    """``x`` with a lone row doubled.

    numpy sends a one-row matmul to BLAS gemv, which rounds differently from
    the gemm any longer input takes.  Two copies of a row pool to the same
    embedding through gemm, so a stage gives one point what it gives any
    number of that point's copies.
    """
    return np.repeat(x, 2, axis=0) if len(x) == 1 else x


def _segment(st: STCloud, model: Model, b_prev: Box3D) -> np.ndarray:
    """Predicted target mask over the joined cloud."""
    logits = segment_forward(canonical_features(st, b_prev), model)
    return logits.data.argmax(axis=1) == 1


# ---------------------------------------------------------------------------
# Stage one: motion prediction from segmented points.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stage1Output:
    """Coarse localization: predicted motion plus the boxes it produced.

    ``dynamic`` is the branch ``coarse_box`` followed: the argmax of the
    motion logits at inference, the motion label in training and in the
    oracle overrides.
    """

    rtm: RTM
    dynamic: bool
    refined_prev_box: Box3D
    coarse_box: Box3D


def _yaw_blocks(boxes: Sequence[Box3D]) -> np.ndarray:
    """Per box, the 4x4 map taking a canonical (dx, dy, dz, dyaw) vector to
    world axes, stacked (len(boxes), 4, 4)."""
    m = np.zeros((len(boxes), 4, 4))
    for block, box in zip(m, boxes):
        block[:3, :3] = yaw_matrix(box.yaw)
    m[:, 3, 3] = 1.0
    return m


@dataclass(frozen=True)
class _Stage1Graph:
    """Stage one's results, one per pair, and its world-frame graph nodes,
    one row per pair."""

    outputs: tuple[Stage1Output, ...]
    rtm4: Tensor
    logits: Tensor
    refine4: Tensor


def _stage1(
    canon_xyzt: np.ndarray,
    sizes: Optional[Sequence[int]],
    b_prevs: Sequence[Box3D],
    model: Model,
    dynamic: Optional[Sequence[bool]],
) -> _Stage1Graph:
    """Run stage one on the pairs' canonical, network-scaled target points.

    `canon_xyzt` stacks each pair's points (n_i, 4), `sizes` holds the n_i
    (None for one pair) and `b_prevs` each pair's previous box.  Both
    regressed 4-vectors are rotated from each previous-box frame to world
    axes.  The static/dynamic branch is ``dynamic`` when given (training
    follows the labels) and the argmax of the motion logits otherwise.
    """
    rtm4_c, logits, refine4_c = stage1_forward(canon_xyzt, model, sizes)
    blocks = _yaw_blocks(b_prevs)
    rtm4 = matmul_const(rtm4_c, blocks)
    refine4 = matmul_const(refine4_c, blocks)
    if dynamic is None:
        # index 1 is the dynamic class; argmax resolves a tie to static
        dynamic = logits.data.argmax(axis=1) == 1
    outputs = []
    for b_prev, dyn, rtm_row, refine_row in zip(b_prevs, dynamic, rtm4.data, refine4.data):
        rtm = RTM(*rtm_row)
        refined = apply_rtm(b_prev, RTM(*refine_row))
        outputs.append(Stage1Output(
            rtm=rtm,
            dynamic=bool(dyn),
            refined_prev_box=refined,
            coarse_box=apply_rtm(refined, rtm) if dyn else refined,
        ))
    return _Stage1Graph(outputs=tuple(outputs), rtm4=rtm4, logits=logits, refine4=refine4)


def stage1_predict(targets_xyzt: np.ndarray, b_prev: Box3D, model: Model) -> Stage1Output:
    """Run the motion stage on segmented target points (n, 4) in world xyzt.

    No points raise ValueError; :func:`track_frame` always passes some.
    """
    pts = _no_lone_row(np.asarray(targets_xyzt, dtype=np.float64).reshape(-1, 4))
    canon = pts.copy()
    canon[:, :3] = world_to_canonical(pts[:, :3], b_prev)
    canon *= COORD_SCALE
    with no_grad():
        return _stage1(canon, None, [b_prev], model, dynamic=None).outputs[0]


# ---------------------------------------------------------------------------
# Stage two: refinement in the coarse-box frame.
# ---------------------------------------------------------------------------


def _stage2(
    targets: Sequence[tuple[np.ndarray, np.ndarray]], s1: Sequence[Stage1Output], model: Model
) -> Tensor:
    """World-frame residuals (pairs, 4) of the coarse boxes from stage one.

    `targets` holds each pair's (previous, current) target xyz.  Stage
    one's motion moves the previous target points onto the current ones on
    the dynamic branch, and each pair's merged points are expressed in its
    coarse-box frame.
    """
    canon = [
        world_to_canonical(
            motion_assisted_merge(
                prev_xyz, cur_xyz, out.rtm, prev_box=out.refined_prev_box, dynamic=out.dynamic
            ),
            out.coarse_box,
        ) * COORD_SCALE
        for (prev_xyz, cur_xyz), out in zip(targets, s1)
    ]
    out4 = stage2_forward(np.vstack(canon), model, [len(c) for c in canon])
    return matmul_const(out4, _yaw_blocks([out.coarse_box for out in s1]))


def stage2_refine(
    prev_xyz: np.ndarray, cur_xyz: np.ndarray, s1: Stage1Output, model: Model
) -> Box3D:
    """Refine the coarse box from the motion-merged target points (at least one)."""
    if len(prev_xyz) + len(cur_xyz) == 1:
        prev_xyz, cur_xyz = _no_lone_row(prev_xyz), _no_lone_row(cur_xyz)
    with no_grad():
        residual = _stage2([(prev_xyz, cur_xyz)], [s1], model)
    return apply_rtm(s1.coarse_box, RTM(*residual.data[0]))


# ---------------------------------------------------------------------------
# Frame-to-frame tracking with an override seam.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackOverrides:
    """Replace individual pipeline stages, e.g. with ground-truth plumbing.

    Each callable receives the frame index of the current frame within its
    sequence.  ``segment_fn(i, st, b_prev)`` returns a boolean mask over the
    joined cloud; ``stage1_fn(i, targets_xyzt, b_prev)`` returns a
    :class:`Stage1Output`; ``stage2_fn(i, prev_xyz, cur_xyz, s1)`` returns
    the final box.
    """

    segment_fn: Optional[Callable[[int, STCloud, Box3D], np.ndarray]] = None
    stage1_fn: Optional[Callable[[int, np.ndarray, Box3D], Stage1Output]] = None
    stage2_fn: Optional[Callable[[int, np.ndarray, np.ndarray, Stage1Output], Box3D]] = None


def track_frame(
    prev: Frame,
    cur: Frame,
    b_prev: Box3D,
    model: Model,
    seed: int = 0,
    frame_index: int = 0,
    overrides: Optional[TrackOverrides] = None,
    margin: float = DEFAULT_MARGIN,
    n_points: int = DEFAULT_POINTS,
) -> tuple[Box3D, FrameDiagnostics]:
    """Estimate the current-frame box from one frame pair.

    Degenerate inputs degrade gracefully: an empty previous crop is replaced
    by a single synthetic point at the previous box center, and an empty
    current crop keeps the previous box and flags the frame as degenerate.
    A non-empty current crop always leaves target points: an empty mask
    falls back to the prior mask, which holds every current point.

    Each crop holds at most ``n_points`` distinct points and repeats none,
    so every per-point network runs once per distinct point.
    """
    t0 = time.perf_counter()
    with no_grad():
        seed_prev, seed_cur = (int(s) for s in np.random.SeedSequence([seed, frame_index]).generate_state(2))
        try:
            prev_crop = crop_and_sample(prev, b_prev, margin=margin, n=n_points, rng_seed=seed_prev)
        except EmptyRegionError:
            center = np.array(b_prev.center).reshape(1, 3)
            prev_crop = Frame(points=center, timestamp=prev.timestamp)
        try:
            cur_crop = crop_and_sample(cur, b_prev, margin=margin, n=n_points, rng_seed=seed_cur)
        except EmptyRegionError:
            return b_prev, FrameDiagnostics.since(t0, degenerate=True)

        st = with_channels(build_st_cloud(prev_crop, cur_crop), b_prev)
        if overrides is not None and overrides.segment_fn is not None:
            mask = np.asarray(overrides.segment_fn(frame_index, st, b_prev), dtype=bool).reshape(-1)
            if mask.shape[0] != len(st):
                raise ValueError(f"override mask length {mask.shape[0]} != cloud size {len(st)}")
        else:
            mask = _segment(st, model, b_prev)
        mask, fallback = _with_prior_fallback(mask, st)

        targets = st.points[mask]
        if overrides is not None and overrides.stage1_fn is not None:
            s1 = overrides.stage1_fn(frame_index, targets, b_prev)
        else:
            s1 = stage1_predict(targets, b_prev, model)

        prev_xyz, cur_xyz = split_by_time(st, mask)
        if overrides is not None and overrides.stage2_fn is not None:
            box = overrides.stage2_fn(frame_index, prev_xyz, cur_xyz, s1)
        else:
            box = stage2_refine(prev_xyz, cur_xyz, s1, model)

        diag = FrameDiagnostics.since(
            t0,
            n_prev_target=prev_xyz.shape[0],
            n_cur_target=cur_xyz.shape[0],
            dynamic=s1.dynamic,
            fallback_mask=fallback,
            refined_prev_box=s1.refined_prev_box,
            coarse_box=s1.coarse_box,
        )
        return box, diag


class NetworkTracker:
    """The two-stage network as a tracker (``lidartrack.evaluation.Tracker``).

    Each frame is tracked from the previous output box by
    :func:`track_frame`, with ``overrides`` replacing stages if given.
    """

    name = "network"

    def __init__(
        self,
        model: Model,
        seed: int = 0,
        margin: float = DEFAULT_MARGIN,
        n_points: int = DEFAULT_POINTS,
        overrides: Optional[TrackOverrides] = None,
    ):
        check_crop_settings(margin, n_points)
        self.model = model
        self.seed = seed
        self.margin = margin
        self.n_points = n_points
        self.overrides = overrides

    def track(self, frames: Sequence[Frame], initial_box: Box3D) -> TrackResult:
        if len(frames) == 0:
            raise ValueError("cannot track an empty sequence")
        boxes = [initial_box]
        diags = []
        for t in range(1, len(frames)):
            box, diag = track_frame(
                frames[t - 1],
                frames[t],
                boxes[-1],
                self.model,
                seed=self.seed,
                frame_index=t,
                overrides=self.overrides,
                margin=self.margin,
                n_points=self.n_points,
            )
            boxes.append(box)
            diags.append(diag)
        return TrackResult(boxes=tuple(boxes), diagnostics=tuple(diags))


def track_sequence(
    tracklet: Tracklet,
    model: Model,
    seed: int = 0,
    overrides: Optional[TrackOverrides] = None,
    margin: float = DEFAULT_MARGIN,
    n_points: int = DEFAULT_POINTS,
) -> TrackResult:
    """Track a tracklet from its first ground-truth box."""
    tracker = NetworkTracker(model, seed=seed, margin=margin, n_points=n_points, overrides=overrides)
    return tracker.track(tracklet.frames, tracklet.gt_boxes[0])


def make_oracle_overrides(tracklet: Tracklet) -> TrackOverrides:
    """Ground-truth plumbing: GT masks, GT motion, coarse box as final box.

    With these overrides the tracker must reproduce the annotation chain; any
    deviation beyond float rounding indicates broken plumbing.
    """
    boxes = tracklet.gt_boxes

    def segment(i: int, st: STCloud, b_prev: Box3D) -> np.ndarray:
        return _rows_in_boxes(st, boxes[i - 1], boxes[i])

    def stage1(i: int, targets: np.ndarray, b_prev: Box3D) -> Stage1Output:
        m = infer_rtm(boxes[i - 1], boxes[i])
        # the branch flag follows the motion label, but the box follows the
        # motion itself: a slow mover labeled static still moves
        coarse = apply_rtm(b_prev, m) if m.as_vector().any() else b_prev
        return Stage1Output(rtm=m, dynamic=is_dynamic(m), refined_prev_box=b_prev, coarse_box=coarse)

    def stage2(i: int, prev_xyz: np.ndarray, cur_xyz: np.ndarray, s1: Stage1Output) -> Box3D:
        return s1.coarse_box

    return TrackOverrides(segment_fn=segment, stage1_fn=stage1, stage2_fn=stage2)


# ---------------------------------------------------------------------------
# Training: per-pair examples, the joint loss, and the optimization loop.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    lr_decay: float = 0.1
    lr_decay_every: int = 20
    n_points: int = DEFAULT_POINTS
    margin: float = DEFAULT_MARGIN
    seed: int = 0
    augment: AugmentConfig = AugmentConfig()
    resample_each_epoch: bool = True
    lambda_cls_target: float = 0.1
    lambda_cls_motion: float = 0.1
    lambda_reg: float = 1.0
    start_epoch: int = 0  # resumed runs keep the absolute epoch counter

    def __post_init__(self):
        for name in ("epochs", "batch_size", "lr_decay_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        check_crop_settings(self.margin, self.n_points)
        for name in ("lr", "lr_decay"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("lambda_cls_target", "lambda_cls_motion", "lambda_reg"):
            weight = getattr(self, name)
            if not 0 <= weight < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {weight!r}")
        if not 0 <= self.start_epoch <= self.epochs:
            raise ValueError("start_epoch must lie in [0, epochs]")


def scheduled_lr(cfg: TrainConfig, epoch: int) -> float:
    """Step decay: multiply by ``lr_decay`` every ``lr_decay_every`` epochs."""
    return cfg.lr * cfg.lr_decay ** (epoch // cfg.lr_decay_every)


@dataclass(frozen=True)
class PairExample:
    """One augmented, cropped, feature-complete training pair."""

    st: STCloud
    b_prev: Box3D
    features: np.ndarray
    seg_labels: np.ndarray
    gt_cur: Box3D
    rtm_target: RTM
    refine_target: RTM
    motion_label: int


@dataclass
class PairForward:
    """Graph nodes and aligned targets of the regression terms, one row per pair.

    ``motion_label`` holds one label per row (a plain int for one row);
    ``stage1`` holds each pair's stage-one output.
    """

    motion_logits: Tensor
    motion_label: np.ndarray | int
    rtm4: Tensor
    rtm_target: np.ndarray
    refine4: Tensor
    refine_target: np.ndarray
    box1_4: Tensor
    box1_target: np.ndarray
    box2_4: Tensor
    box2_target: np.ndarray
    stage1: tuple[Stage1Output, ...] = ()

    @property
    def rows(self) -> int:
        return self.rtm4.data.shape[0]


def prepare_pair_example(
    pair: TrainingPair, cfg: TrainConfig, rng: np.random.Generator
) -> Optional[PairExample]:
    """Augment, perturb, crop, and label one training pair.

    Each crop is padded to exactly ``cfg.n_points`` rows, so a batch's
    samples stack to equal size.  Returns None when a crop region is empty,
    so callers simply drop the pair for this epoch.
    """
    prev_pts = pair.prev_frame.points
    cur_pts = pair.cur_frame.points
    prev_target, cur_target = pair.target_masks
    aug_prev, gt_prev, aug_cur, gt_cur, _ = motion_augment(
        prev_pts[prev_target], pair.prev_box, cur_pts[cur_target], pair.cur_box, cfg.augment, rng
    )
    prev_frame = Frame(
        points=np.vstack([aug_prev, prev_pts[~prev_target]]), timestamp=pair.prev_frame.timestamp
    )
    cur_frame = Frame(
        points=np.vstack([aug_cur, cur_pts[~cur_target]]), timestamp=pair.cur_frame.timestamp
    )
    b_prev = perturb_prev_box(gt_prev, cfg.augment, rng)

    try:
        prev_crop = crop_and_pad(
            prev_frame, b_prev, margin=cfg.margin, n=cfg.n_points, rng_seed=int(rng.integers(2**31))
        )
        cur_crop = crop_and_pad(
            cur_frame, b_prev, margin=cfg.margin, n=cfg.n_points, rng_seed=int(rng.integers(2**31))
        )
    except EmptyRegionError:
        return None

    st = with_channels(build_st_cloud(prev_crop, cur_crop), b_prev)
    seg_labels = _rows_in_boxes(st, gt_prev, gt_cur).astype(np.int64)
    rtm_target = infer_rtm(gt_prev, gt_cur)
    return PairExample(
        st=st,
        b_prev=b_prev,
        features=canonical_features(st, b_prev),
        seg_labels=seg_labels,
        gt_cur=gt_cur,
        rtm_target=rtm_target,
        refine_target=infer_rtm(b_prev, gt_prev),
        motion_label=int(is_dynamic(rtm_target)),
    )


def _box4(boxes: Sequence[Box3D]) -> np.ndarray:
    """Rows ``(cx, cy, cz, yaw)``, one per box."""
    return np.array([[*b.center, b.yaw] for b in boxes])


def _aligned_vec4(target: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Regression targets (rows, 4) whose yaw sits within pi of the prediction.

    Shifting the target by whole turns instead of wrapping the difference
    keeps the loss surface continuous around the prediction.
    """
    out = np.array(target, dtype=np.float64)
    out[:, 3] = pred[:, 3] + wrap_angle(target[:, 3] - pred[:, 3])
    return out


def forward_batch(examples: Sequence[PairExample], model: Model) -> PairForward:
    """Build one stage-one and one stage-two graph over prepared pairs.

    Both stages run over all pairs' points at once and pool per pair, so
    every returned node holds one row per pair.  Training
    teacher-forces the structure the losses cannot supervise directly: the
    stage inputs use the ground-truth target mask and the static/dynamic
    branch follows the ground-truth motion label, while the motion values
    themselves stay predicted.  Inference runs the same stage code with the
    predicted mask and predicted branch.  A pair with no target label falls
    back to the prior mask, as inference does.
    """
    masks = [_with_prior_fallback(ex.seg_labels.astype(bool), ex.st)[0] for ex in examples]
    labels = np.array([ex.motion_label for ex in examples], dtype=np.int64)
    targets = [ex.features[mask, :4] for ex, mask in zip(examples, masks)]
    b_prevs = [ex.b_prev for ex in examples]
    g = _stage1(np.vstack(targets), [len(t) for t in targets], b_prevs, model, dynamic=labels == 1)

    # static pairs take no motion: their rows of rtm4 pass through zeros
    moving = np.where(labels[:, None, None] == 1, np.eye(4), 0.0)
    box1_4 = add_const(add(g.refine4, matmul_const(g.rtm4, moving)), _box4(b_prevs))

    # the merge geometry is driven by predicted motion values; only the
    # stage-two output vectors carry gradient here
    split = [split_by_time(ex.st, mask) for ex, mask in zip(examples, masks)]
    residual = _stage2(split, g.outputs, model)
    box2_4 = add_const(residual, _box4([out.coarse_box for out in g.outputs]))

    gt_cur = _box4([ex.gt_cur for ex in examples])
    return PairForward(
        motion_logits=g.logits,
        motion_label=labels,
        rtm4=g.rtm4,
        rtm_target=_aligned_vec4(np.array([ex.rtm_target.as_vector() for ex in examples]), g.rtm4.data),
        refine4=g.refine4,
        refine_target=_aligned_vec4(np.array([ex.refine_target.as_vector() for ex in examples]), g.refine4.data),
        box1_4=box1_4,
        box1_target=_aligned_vec4(gt_cur, box1_4.data),
        box2_4=box2_4,
        box2_target=_aligned_vec4(gt_cur, box2_4.data),
        stage1=g.outputs,
    )


def forward_pair(example: PairExample, model: Model) -> PairForward:
    """:func:`forward_batch` of one pair."""
    return forward_batch([example], model)


def _row_mean(terms: list[tuple[Tensor, int]]) -> Tensor:
    """Mean over all rows of per-record row means, each weighted by its rows."""
    rows = sum(n for _, n in terms)
    acc = None
    for term, n in terms:
        part = scale(term, n / rows)
        acc = part if acc is None else add(acc, part)
    return acc


def total_loss(
    seg_logits: Tensor,
    seg_labels: np.ndarray,
    pairs: Sequence[PairForward],
    lambda_cls_target: float = 0.1,
    lambda_cls_motion: float = 0.1,
    lambda_reg: float = 1.0,
) -> tuple[Tensor, dict]:
    """Weighted sum of the classification and regression terms.

    Each pair term is the mean over all rows of all records, so B one-row
    records give the same loss as one B-row record.  Returns the scalar
    loss node and a float breakdown whose entries are the unweighted
    per-term means; the weighted sum reproduces ``total`` exactly.  At
    least one record is needed.
    """
    if not pairs:
        raise ValueError("total_loss needs at least one pair record")
    cls_target = cross_entropy(seg_logits, seg_labels)

    def mean(term) -> Tensor:
        return _row_mean([(term(p), p.rows) for p in pairs])

    cls_motion = mean(lambda p: cross_entropy(p.motion_logits, np.asarray(p.motion_label).reshape(-1)))
    reg_motion = mean(lambda p: huber(p.rtm4, p.rtm_target))
    reg_refine = mean(lambda p: huber(p.refine4, p.refine_target))
    reg_stage1 = mean(lambda p: huber(p.box1_4, p.box1_target))
    reg_stage2 = mean(lambda p: huber(p.box2_4, p.box2_target))

    total = add(scale(cls_target, lambda_cls_target), scale(cls_motion, lambda_cls_motion))
    reg_sum = add(add(reg_motion, reg_refine), add(reg_stage1, reg_stage2))
    total = add(total, scale(reg_sum, lambda_reg))

    parts = {
        "cls_target": cls_target,
        "cls_motion": cls_motion,
        "reg_motion": reg_motion,
        "reg_refine_prev": reg_refine,
        "reg_stage1": reg_stage1,
        "reg_stage2": reg_stage2,
        "total": total,
    }
    return total, {key: float(t.item()) for key, t in parts.items()}


def train(model: Model, pairs: Sequence[TrainingPair], cfg: TrainConfig) -> list[dict]:
    """Optimize the model in place; returns one metrics row per epoch.

    Each batch builds three graphs: batched segmentation, then stage one and
    stage two over all the batch's pairs (:func:`forward_batch`), then the
    loss.  Examples are re-augmented every epoch unless
    ``resample_each_epoch`` is off, in which case the same prepared examples
    are reused so a small set can be overfit exactly; each pair's raw target
    masks are computed once.  Every random draw derives from ``cfg.seed``.
    A row carries the epoch's loss terms and its wall-time split in seconds
    (``prepare_s``, ``forward_s``, ``backward_s``, ``step_s``) with
    ``pairs_per_s`` over the whole epoch.  Like inference, training pins
    the process's malloc thresholds (:func:`lidartrack.nn.pin_heap`).
    """
    if not pairs:
        raise ValueError("no training pairs")
    pin_heap()
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    prepared: Optional[list[Optional[PairExample]]] = None
    metrics: list[dict] = []

    for epoch in range(cfg.start_epoch, cfg.epochs):
        epoch_start = time.perf_counter()
        phases = {"prepare_s": 0.0, "forward_s": 0.0, "backward_s": 0.0, "step_s": 0.0}
        lr = scheduled_lr(cfg, epoch)
        opt.lr = lr
        if prepared is None or cfg.resample_each_epoch:
            prep_key = epoch if cfg.resample_each_epoch else 0
            prepared = [
                prepare_pair_example(
                    pair,
                    cfg,
                    np.random.default_rng(np.random.SeedSequence([cfg.seed, prep_key, 1, i])),
                )
                for i, pair in enumerate(pairs)
            ]
            phases["prepare_s"] = time.perf_counter() - epoch_start
        order = np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch, 0])).permutation(
            len(pairs)
        )
        sums: dict[str, float] = {}
        n_batches = 0
        n_skipped = sum(1 for ex in prepared if ex is None)

        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            examples = [prepared[j] for j in batch if prepared[j] is not None]
            if not examples:
                continue
            batch_id = f"epoch {epoch}, batch {start // cfg.batch_size}"
            try:
                t0 = time.perf_counter()
                feats = np.vstack([ex.features for ex in examples])
                labels = np.concatenate([ex.seg_labels for ex in examples])
                logits = segment_forward_batched(feats, model, batch=len(examples))
                loss, terms = total_loss(
                    logits,
                    labels,
                    [forward_batch(examples, model)],
                    lambda_cls_target=cfg.lambda_cls_target,
                    lambda_cls_motion=cfg.lambda_cls_motion,
                    lambda_reg=cfg.lambda_reg,
                )
                t1 = time.perf_counter()
                zero_grad(params)
                backward(loss)
                t2 = time.perf_counter()
                opt.step()
                t3 = time.perf_counter()
            except FloatingPointError as err:
                raise FloatingPointError(f"training aborted at {batch_id}: {err}") from err
            phases["forward_s"] += t1 - t0
            phases["backward_s"] += t2 - t1
            phases["step_s"] += t3 - t2
            for key, value in terms.items():
                sums[key] = sums.get(key, 0.0) + value
            n_batches += 1

        denom = max(n_batches, 1)
        row = {"epoch": epoch, "lr": lr, "n_batches": n_batches, "n_skipped_pairs": n_skipped}
        row["loss"] = sums.get("total", 0.0) / denom
        for key in ("cls_target", "cls_motion", "reg_motion", "reg_refine_prev", "reg_stage1", "reg_stage2"):
            row[key] = sums.get(key, 0.0) / denom
        row.update(phases)
        row["pairs_per_s"] = len(pairs) / (time.perf_counter() - epoch_start)
        metrics.append(row)
    return metrics
