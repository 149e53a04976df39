"""Tests for the two-stage tracker, its training loss, and the train loop.

Oracle strategy: ground-truth plumbing is injected through TrackOverrides
and must reproduce GT boxes exactly; stage rules are pinned by zeroing or
biasing individual heads; the loss bookkeeping is checked against
hand-built graph nodes; training is checked by overfitting a tiny fixed
batch.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from lidartrack import pipeline
from lidartrack.augment import AugmentConfig
from lidartrack.config import ExperimentConfig
from lidartrack.data import SceneSpec, generate_synthetic_tracklet, make_synthetic_dataset, make_training_pairs
from lidartrack.geometry import (
    Box3D,
    RTM,
    apply_rtm,
    infer_rtm,
    iou3d,
    points_in_box,
    wrap_angle,
    world_to_canonical,
    yaw_matrix,
)
from lidartrack.evaluation import export_predictions
from lidartrack.nn import (
    Model,
    ModelConfig,
    Tensor,
    backward,
    grad_check,
    segment_forward,
    segment_forward_batched,
    zero_grad,
)
from lidartrack.pipeline import (
    COORD_SCALE,
    NetworkTracker,
    PairForward,
    Stage1Output,
    TrackOverrides,
    TrainConfig,
    canonical_features,
    forward_batch,
    forward_pair,
    make_oracle_overrides,
    prepare_pair_example,
    prior_target_mask,
    scheduled_lr,
    stage1_predict,
    stage2_refine,
    total_loss,
    track_frame,
    track_sequence,
    train,
)
from lidartrack.pointcloud import (
    EmptyRegionError,
    Frame,
    build_st_cloud,
    crop_and_pad,
    crop_and_sample,
    split_by_time,
    with_channels,
)

NO_AUG = AugmentConfig(
    flip_prob=0.0, rot_range_deg=0.0, trans_range=0.0, prev_box_shift=0.0, prev_box_yaw_shift_deg=0.0
)


def model32(seed=0) -> Model:
    return Model(ModelConfig(seed=seed))


def zero_final(mlp) -> None:
    w, b = mlp.layers[-1]
    w.data[:] = 0.0
    b.data[:] = 0.0


def moving_tracklet(n_frames=6, seed=0, k=0):
    spec = SceneSpec(
        motion="constant_velocity",
        speed_min=0.5,
        speed_max=2.0,
        n_frames=n_frames,
        n_distractors=k,
        seed=seed,
    )
    return generate_synthetic_tracklet(spec)


def st_for_pair(tracklet, i, b_prev, n=256, seed=0, margin=2.0):
    prev = crop_and_sample(tracklet.frames[i - 1], b_prev, margin=margin, n=n, rng_seed=seed)
    cur = crop_and_sample(tracklet.frames[i], b_prev, margin=margin, n=n, rng_seed=seed + 1)
    return with_channels(build_st_cloud(prev, cur), b_prev)


def all_background(model: Model) -> Model:
    zero_final(model.seg_head)
    model.seg_head.layers[-1][1].data[0] = 100.0  # every point classified background
    return model


def track_first_frame(monkeypatch, t, model, margin=2.0):
    """`track_frame` from frame 0 to frame 1 of `t`, starting at the GT box.

    Returns the joined cloud the frame built, the rows stage one received
    (through a recording ``stage1_fn`` that runs the network's stage one)
    and the frame's diagnostics.
    """
    with_channels = pipeline.with_channels
    clouds, fed = [], []

    def record_cloud(*args):
        clouds.append(with_channels(*args))
        return clouds[-1]

    def record_stage1(i, targets, b_prev):
        fed.append(targets)
        return stage1_predict(targets, b_prev, model)

    monkeypatch.setattr(pipeline, "with_channels", record_cloud)
    _, diag = track_frame(
        t.frames[0], t.frames[1], t.gt_boxes[0], model, margin=margin, n_points=256,
        overrides=TrackOverrides(stage1_fn=record_stage1),
    )
    (st,), (targets,) = clouds, fed
    return st, targets, diag


class TestSegmentTarget:
    """The target rows `track_frame` hands stage one."""

    def test_stage_one_gets_the_predicted_rows(self, monkeypatch):
        t = moving_tracklet()
        b_prev = t.gt_boxes[0]
        model = model32()

        def target_margin(st):
            logits = segment_forward(canonical_features(st, b_prev), model).data
            return logits[:, 1] - logits[:, 0]

        # centre the target logit's lead on a sample crop, so that about
        # half the rows are predicted target
        model.seg_head.layers[-1][1].data[1] -= np.median(target_margin(st_for_pair(t, 1, b_prev)))
        st, targets, diag = track_first_frame(monkeypatch, t, model)
        predicted = target_margin(st) > 0
        assert 0 < predicted.sum() < len(st)
        np.testing.assert_array_equal(targets, st.points[predicted])
        assert not diag.fallback_mask
        assert diag.n_prev_target + diag.n_cur_target == len(targets)

    def test_all_background_logits_fall_back_to_prior(self, monkeypatch):
        # cropped at 5 m, stage one still gets every current row of the
        # crop, plus the previous rows inside the previous box
        t = moving_tracklet(k=3)
        b_prev = t.gt_boxes[0]
        st, targets, diag = track_first_frame(monkeypatch, t, all_background(model32()), margin=5.0)
        near = Box3D(center=b_prev.center, size=b_prev.size + 4.0, yaw=b_prev.yaw)
        assert not points_in_box(st.xyz[~st.prev_rows], near).all()  # rows beyond 2 m
        assert diag.fallback_mask
        want = np.where(st.prev_rows, points_in_box(st.xyz, b_prev), True)
        np.testing.assert_array_equal(targets, st.points[want])
        assert (diag.n_prev_target, diag.n_cur_target) == (
            int(want[st.prev_rows].sum()), int((~st.prev_rows).sum())
        )

    def test_all_target_logits_select_everything(self, monkeypatch):
        t = moving_tracklet()
        model = model32()
        zero_final(model.seg_head)
        model.seg_head.layers[-1][1].data[1] = 100.0
        st, targets, diag = track_first_frame(monkeypatch, t, model)
        np.testing.assert_array_equal(targets, st.points)
        assert not diag.fallback_mask

    def test_fallback_holds_every_current_row(self):
        # the prior is the targetness channel: previous rows inside the
        # previous box, and every current row the crop kept, whatever the
        # margin it was cropped at
        t = moving_tracklet(k=3)
        b_prev = t.gt_boxes[0]
        st = st_for_pair(t, 1, b_prev, margin=5.0)
        near = Box3D(center=b_prev.center, size=b_prev.size + 4.0, yaw=b_prev.yaw)
        assert not points_in_box(st.xyz[~st.prev_rows], near).all()  # rows beyond 2 m
        mask = prior_target_mask(st)
        prev = st.prev_rows
        np.testing.assert_array_equal(mask[prev], points_in_box(st.xyz[prev], b_prev))
        assert mask[~prev].all()


class TestStage1Predict:
    def test_requires_points(self):
        with pytest.raises(ValueError, match="positive row counts"):
            stage1_predict(np.zeros((0, 4)), Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=0), model32())

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        pts = np.hstack([rng.normal(size=(40, 3)), rng.integers(0, 2, size=(40, 1))])
        b = Box3D(center=[1, 2, 0.5], size=[1.8, 4.0, 1.6], yaw=0.4)
        model = model32()
        a = stage1_predict(pts, b, model)
        c = stage1_predict(pts[rng.permutation(40)], b, model)
        np.testing.assert_array_equal(a.coarse_box.as_vector(), c.coarse_box.as_vector())
        np.testing.assert_array_equal(a.refined_prev_box.as_vector(), c.refined_prev_box.as_vector())
        np.testing.assert_array_equal(a.rtm.as_vector(), c.rtm.as_vector())
        assert a.dynamic == c.dynamic

    def test_static_classification_freezes_box(self):
        rng = np.random.default_rng(1)
        pts = np.hstack([rng.normal(size=(20, 3)), np.ones((20, 1))])
        b = Box3D(center=[3, -1, 0.5], size=[1.8, 4.0, 1.6], yaw=-0.7)
        model = model32()
        model.motion_head.layers[-1][1].data[4] = 100.0  # static logit dominates
        out = stage1_predict(pts, b, model)
        assert not out.dynamic
        np.testing.assert_array_equal(out.coarse_box.as_vector(), out.refined_prev_box.as_vector())

    def test_dynamic_classification_applies_motion(self):
        rng = np.random.default_rng(2)
        pts = np.hstack([rng.normal(size=(20, 3)), np.zeros((20, 1))])
        b = Box3D(center=[3, -1, 0.5], size=[1.8, 4.0, 1.6], yaw=0.2)
        model = model32()
        model.motion_head.layers[-1][1].data[5] = 100.0  # dynamic logit dominates
        out = stage1_predict(pts, b, model)
        assert out.dynamic
        want = apply_rtm(out.refined_prev_box, out.rtm)
        np.testing.assert_allclose(out.coarse_box.as_vector(), want.as_vector(), atol=1e-12)

    def test_zeroed_heads_identity(self):
        rng = np.random.default_rng(3)
        pts = np.hstack([rng.normal(size=(10, 3)), np.zeros((10, 1))])
        b = Box3D(center=[5, 5, 0.5], size=[1.8, 4.0, 1.6], yaw=1.0)
        model = model32()
        zero_final(model.motion_head)
        zero_final(model.prev_refine_head)
        out = stage1_predict(pts, b, model)
        np.testing.assert_array_equal(out.rtm.as_vector(), np.zeros(4))
        np.testing.assert_array_equal(out.refined_prev_box.as_vector(), b.as_vector())
        assert not out.dynamic  # tie resolves to static
        np.testing.assert_array_equal(out.coarse_box.as_vector(), b.as_vector())


class TestStage2Refine:
    def make_s1(self, coarse):
        return Stage1Output(
            rtm=RTM(0, 0, 0, 0),
            dynamic=False,
            refined_prev_box=coarse,
            coarse_box=coarse,
        )

    def test_zero_net_returns_coarse(self):
        coarse = Box3D(center=[2, 1, 0.5], size=[1.8, 4.0, 1.6], yaw=0.3)
        model = model32()
        zero_final(model.stage2_head)
        rng = np.random.default_rng(4)
        out = stage2_refine(rng.normal(size=(12, 3)), rng.normal(size=(9, 3)), self.make_s1(coarse), model)
        np.testing.assert_array_equal(out.as_vector(), coarse.as_vector())

    def test_canonical_residual_recovers_gt(self):
        rng = np.random.default_rng(5)
        model = Model(ModelConfig(dtype="float64"))
        w, b = model.stage2_head.layers[-1]
        w.data[:] = 0.0
        for _ in range(30):
            coarse = Box3D(center=rng.uniform(-5, 5, 3), size=[1.8, 4.0, 1.6], yaw=rng.uniform(-3, 3))
            gt = Box3D(center=coarse.center + rng.uniform(-1, 1, 3), size=coarse.size,
                       yaw=coarse.yaw + rng.uniform(-0.5, 0.5))
            # residual computed from first principles in the coarse frame,
            # emitted by the stage-two head whatever its input
            delta = yaw_matrix(-coarse.yaw) @ (np.asarray(gt.center) - np.asarray(coarse.center))
            b.data[:] = [delta[0], delta[1], delta[2], wrap_angle(gt.yaw - coarse.yaw)]
            got = stage2_refine(rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), self.make_s1(coarse), model)
            np.testing.assert_allclose(got.center, gt.center, atol=1e-9)
            assert abs(wrap_angle(got.yaw - gt.yaw)) < 1e-9

    def test_empty_merge_rejected(self):
        coarse = Box3D(center=[0, 0, 0.5], size=[1.8, 4.0, 1.6], yaw=0.0)
        with pytest.raises(ValueError, match="positive row counts"):
            stage2_refine(np.zeros((0, 3)), np.zeros((0, 3)), self.make_s1(coarse), model32())


class TestTrackFrame:
    def test_full_oracle_recovers_gt(self):
        t = moving_tracklet(n_frames=3, seed=6, k=2)
        overrides = make_oracle_overrides(t)
        box, diag = track_frame(
            t.frames[0], t.frames[1], t.gt_boxes[0], model32(), seed=0, frame_index=1, overrides=overrides
        )
        assert iou3d(box, t.gt_boxes[1]) >= 1 - 1e-9
        assert not diag.degenerate

    def test_missing_target_returns_prev_box(self):
        t = moving_tracklet(n_frames=2, seed=7)
        empty_cur = Frame(points=np.full((5, 3), 400.0), timestamp=1)
        b_prev = t.gt_boxes[0]
        box, diag = track_frame(t.frames[0], empty_cur, b_prev, model32(), seed=0)
        np.testing.assert_array_equal(box.as_vector(), b_prev.as_vector())
        assert diag.degenerate

    def test_deterministic(self):
        t = moving_tracklet(n_frames=2, seed=8)
        args = (t.frames[0], t.frames[1], t.gt_boxes[0], model32())
        a, _ = track_frame(*args, seed=3)
        b, _ = track_frame(*args, seed=3)
        np.testing.assert_array_equal(a.as_vector(), b.as_vector())

    def test_builds_no_graph(self, monkeypatch):
        init = Tensor.__init__
        built = []

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(bool(self.parents))

        monkeypatch.setattr(Tensor, "__init__", spy)
        t = moving_tracklet(n_frames=2, seed=8)
        _, diag = track_frame(t.frames[0], t.frames[1], t.gt_boxes[0], model32(), seed=0)
        assert not diag.degenerate
        assert built and not any(built)

    def test_failed_frame_leaves_training_recording(self):
        t = moving_tracklet(n_frames=3, seed=10)
        short_mask = TrackOverrides(segment_fn=lambda i, st, b: np.ones(len(st) - 1, dtype=bool))
        with pytest.raises(ValueError, match="override mask length"):
            track_frame(t.frames[0], t.frames[1], t.gt_boxes[0], model32(), overrides=short_mask)
        model = model32(seed=6)
        cfg = TrainConfig(epochs=1, batch_size=4, n_points=64, augment=NO_AUG)
        train(model, make_training_pairs([t]), cfg)
        assert all(p.grad is not None and np.any(p.grad != 0) for p in model.parameters())

    def test_point_order_irrelevant(self):
        t = moving_tracklet(n_frames=2, seed=9)
        rng = np.random.default_rng(0)
        prev = Frame(points=t.frames[0].points[rng.permutation(len(t.frames[0]))], timestamp=0)
        cur = Frame(points=t.frames[1].points[rng.permutation(len(t.frames[1]))], timestamp=1)
        model = model32()
        a, _ = track_frame(t.frames[0], t.frames[1], t.gt_boxes[0], model, seed=5)
        b, _ = track_frame(prev, cur, t.gt_boxes[0], model, seed=5)
        np.testing.assert_array_equal(a.as_vector(), b.as_vector())


class TestDistinctCrop:
    """Tracking each distinct point once gives what the padded crop gives.

    The per-point layers act on each row alone and max-pooling ignores
    copies, so the training pad (:func:`crop_and_pad`) put in place of the
    tracker's crop must leave every box and flag bitwise unchanged.
    """

    @staticmethod
    def desk_frames():
        cfg = ExperimentConfig.from_sources(preset="desk")
        t = generate_synthetic_tracklet(replace(cfg.scene_template(), seed=5))
        model = Model(cfg.model_config())
        b_prev = t.gt_boxes[0]
        logits = segment_forward(canonical_features(st_for_pair(t, 1, b_prev, n=1024), b_prev), model).data
        # centre the target logit's lead so that some rows are predicted target
        model.seg_head.layers[-1][1].data[1] -= np.quantile(logits[:, 1] - logits[:, 0], 0.8)
        return t, model

    @staticmethod
    def track_both(monkeypatch, prev, cur, b_prev, model, n_points, overrides=None):
        def run():
            return track_frame(prev, cur, b_prev, model, seed=4, frame_index=1, n_points=n_points,
                               overrides=overrides)

        distinct = run()
        with monkeypatch.context() as m:
            m.setattr(pipeline, "crop_and_sample", crop_and_pad)
            padded = run()
        return distinct, padded

    @staticmethod
    def assert_same(distinct, padded):
        (box_a, a), (box_b, b) = distinct, padded
        np.testing.assert_array_equal(box_a.as_vector(), box_b.as_vector())
        assert (a.dynamic, a.fallback_mask, a.degenerate) == (b.dynamic, b.fallback_mask, b.degenerate)
        for name in ("refined_prev_box", "coarse_box"):
            np.testing.assert_array_equal(getattr(a, name).as_vector(), getattr(b, name).as_vector())

    @pytest.mark.parametrize("n_points", [128, 1024])
    def test_padding_changes_nothing(self, monkeypatch, n_points):
        t, model = self.desk_frames()
        fallbacks = []
        for i in range(1, 6):
            for thin in (1, 8):  # thinned frames crop fewer than 128 points
                cur = Frame(points=t.frames[i].points[::thin], timestamp=i)
                distinct, padded = self.track_both(monkeypatch, t.frames[i - 1], cur, t.gt_boxes[i - 1],
                                                   model, n_points)
                self.assert_same(distinct, padded)
                fallbacks.append(distinct[1].fallback_mask)
        assert not all(fallbacks)

    @pytest.mark.parametrize("n_points", [128, 1024])
    def test_lone_target_point(self, monkeypatch, n_points):
        # stage one and stage two each get one distinct row: the padded crop
        # repeats it, and one row alone would take BLAS's gemv path
        t, model = self.desk_frames()
        cur = Frame(points=t.frames[1].points[::16], timestamp=1)

        def one_point(i, st, b_prev):
            cur_rows = st.xyz[~st.prev_rows]
            first = cur_rows[np.lexsort(cur_rows.T[::-1])[0]]
            return ~st.prev_rows & np.all(st.xyz == first, axis=1)

        distinct, padded = self.track_both(monkeypatch, t.frames[0], cur, t.gt_boxes[0], model, n_points,
                                           overrides=TrackOverrides(segment_fn=one_point))
        self.assert_same(distinct, padded)
        assert (distinct[1].n_prev_target, distinct[1].n_cur_target) == (0, 1)
        assert padded[1].n_cur_target > 1


BAD_CROP_SETTINGS = [
    ({"n_points": 0}, "n_points must be an integer >= 1, got 0"),
    ({"n_points": 2.5}, "n_points must be an integer >= 1, got 2.5"),
    ({"margin": -1.0}, "margin must be finite and >= 0, got -1.0"),
    ({"margin": float("inf")}, "margin must be finite and >= 0, got inf"),
    ({"margin": float("nan")}, "margin must be finite and >= 0, got nan"),
]


class TestNetworkTracker:
    @pytest.mark.parametrize("setting, message", BAD_CROP_SETTINGS)
    def test_bad_setting_rejected_when_built(self, setting, message):
        with pytest.raises(ValueError, match=message):
            NetworkTracker(model32(), **setting)


class TestTrackSequence:
    def test_single_frame(self):
        t = generate_synthetic_tracklet(SceneSpec(n_frames=1, seed=10))
        res = track_sequence(t, model=model32())
        assert len(res.boxes) == 1 and len(res.diagnostics) == 0
        np.testing.assert_array_equal(res.boxes[0].as_vector(), t.gt_boxes[0].as_vector())

    def test_full_oracle_tracks_gt(self):
        for seed, motion in ((11, "constant_velocity"), (12, "turning"), (13, "static")):
            spec = SceneSpec(motion=motion, speed_min=0.5, speed_max=2.0, n_frames=8, n_distractors=2, seed=seed)
            t = generate_synthetic_tracklet(spec)
            res = track_sequence(t, model=model32(), overrides=make_oracle_overrides(t))
            for pred, gt in zip(res.boxes, t.gt_boxes):
                assert iou3d(pred, gt) >= 1 - 1e-6

    def test_full_oracle_tracks_slow_movers(self):
        # every step is below the dynamic threshold, so the motion label is
        # static while the target still moves
        for seed, motion in ((23, "constant_velocity"), (24, "turning")):
            spec = SceneSpec(motion=motion, speed_min=0.02, speed_max=0.12, n_frames=8, n_distractors=2, seed=seed)
            t = generate_synthetic_tracklet(spec)
            res = track_sequence(t, model=model32(), overrides=make_oracle_overrides(t))
            for pred, gt in zip(res.boxes, t.gt_boxes):
                assert iou3d(pred, gt) >= 1 - 1e-6

    def test_zero_heads_on_static_scene(self):
        t = generate_synthetic_tracklet(SceneSpec(motion="static", n_frames=6, seed=14))
        model = model32()
        zero_final(model.motion_head)
        zero_final(model.prev_refine_head)
        zero_final(model.stage2_head)
        res = track_sequence(t, model=model)
        for pred, gt in zip(res.boxes, t.gt_boxes):
            assert iou3d(pred, gt) >= 1 - 1e-9

    def test_result_shapes(self):
        t = moving_tracklet(n_frames=5, seed=15)
        res = track_sequence(t, model=model32())
        assert len(res.boxes) == 5 and len(res.diagnostics) == 4
        assert all(np.isfinite(b.as_vector()).all() for b in res.boxes)


def dummy_forward(rng, perfect: bool) -> PairForward:
    def vec(x):
        return Tensor(np.asarray(x, dtype=np.float64).reshape(1, 4))

    rtm_t = rng.normal(size=(1, 4))
    refine_t = rng.normal(size=(1, 4))
    box_t = rng.normal(size=(1, 4))
    if perfect:
        return PairForward(
            motion_logits=Tensor(np.array([[-100.0, 100.0]])),
            motion_label=1,
            rtm4=vec(rtm_t), rtm_target=rtm_t,
            refine4=vec(refine_t), refine_target=refine_t,
            box1_4=vec(box_t), box1_target=box_t,
            box2_4=vec(box_t), box2_target=box_t,
        )
    return PairForward(
        motion_logits=Tensor(rng.normal(size=(1, 2))),
        motion_label=int(rng.integers(0, 2)),
        rtm4=vec(rng.normal(size=4)), rtm_target=rtm_t,
        refine4=vec(rng.normal(size=4)), refine_target=refine_t,
        box1_4=vec(rng.normal(size=4)), box1_target=box_t,
        box2_4=vec(rng.normal(size=4)), box2_target=box_t,
    )


def dummy_seg(rng, n=8, perfect=False):
    labels = rng.integers(0, 2, size=n)
    if perfect:
        logits = np.where(labels[:, None] == 1, [-100.0, 100.0], [100.0, -100.0])
    else:
        logits = rng.normal(size=(n, 2))
    return Tensor(logits.astype(np.float64)), labels


def reference_crop(f, b, margin=2.0, n=1024, rng_seed=0):
    """Crop and upsample to exactly ``n`` rows in one draw: the reference
    training's padded crop must reproduce row for row."""
    enlarged = Box3D(center=b.center, size=b.size + 2.0 * margin, yaw=b.yaw)
    candidates = np.flatnonzero(points_in_box(f.points, enlarged))
    cand_pts = f.points[candidates]
    candidates = candidates[np.lexsort((cand_pts[:, 2], cand_pts[:, 1], cand_pts[:, 0]))]
    c = candidates.size
    if c == 0:
        raise EmptyRegionError("no points")
    rng = np.random.default_rng(rng_seed)
    if c >= n:
        idx = rng.choice(candidates, size=n, replace=False)
    else:
        reps, rem = divmod(n, c)
        idx = np.concatenate(
            [np.tile(candidates, reps), rng.choice(candidates, size=rem, replace=False)]
        )
        idx = rng.permutation(idx)
    return Frame(points=f.points[idx], timestamp=f.timestamp)


class TestRowsInBoxes:
    def test_equals_both_boxes_on_every_row_then_picked(self):
        # the reference tests every row against both boxes, then keeps each
        # row's own frame's answer
        rng = np.random.default_rng(31)
        for n_prev, n_cur in [(0, 5), (1, 1), (5, 0), (128, 128), (700, 300)]:
            prev_box = Box3D(center=rng.normal(size=3), size=rng.uniform(0.5, 3, size=3), yaw=rng.uniform(-3, 3))
            cur_box = Box3D(center=rng.normal(size=3), size=rng.uniform(0.5, 3, size=3), yaw=rng.uniform(-3, 3))
            st = build_st_cloud(
                Frame(points=rng.uniform(-2.5, 2.5, size=(n_prev, 3))),
                Frame(points=rng.uniform(-2.5, 2.5, size=(n_cur, 3)), timestamp=1),
            )
            want = np.where(st.prev_rows, points_in_box(st.xyz, prev_box), points_in_box(st.xyz, cur_box))
            got = pipeline._rows_in_boxes(st, prev_box, cur_box)
            assert got.dtype == bool
            np.testing.assert_array_equal(got, want)
            if len(st) >= 10:  # both answers occur
                assert want.any() and not want.all()


class TestPrepareCrop:
    def test_matches_reference_crop(self, monkeypatch):
        cfg = ExperimentConfig.from_sources(preset="desk")
        pairs = make_training_pairs(make_synthetic_dataset(2, cfg.scene_template(), master_seed=3))

        def prepare_all(tc):
            return [prepare_pair_example(p, tc, np.random.default_rng([5, i])) for i, p in enumerate(pairs)]

        padded = set()
        for n_points in (128, 512, 1024):
            tc = replace(cfg.train_config(), n_points=n_points)
            got = prepare_all(tc)
            with monkeypatch.context() as m:
                m.setattr(pipeline, "crop_and_pad", reference_crop)
                want = prepare_all(tc)
            for a, b in zip(got, want):
                assert (a is None) == (b is None)
                if a is None:
                    continue
                np.testing.assert_array_equal(a.features, b.features)
                np.testing.assert_array_equal(a.seg_labels, b.seg_labels)
                for name in ("b_prev", "gt_cur", "rtm_target", "refine_target"):
                    np.testing.assert_array_equal(getattr(a, name).as_vector(), getattr(b, name).as_vector())
                assert a.motion_label == b.motion_label
                padded.add(len(np.unique(a.st.points, axis=0)) < len(a.st))
        # both branches of the crop ran: some samples were padded, some not
        assert padded == {False, True}


class TestTotalLoss:
    def test_perfect_predictions(self):
        rng = np.random.default_rng(16)
        seg_logits, labels = dummy_seg(rng, perfect=True)
        pairs = [dummy_forward(rng, perfect=True) for _ in range(3)]
        loss, terms = total_loss(seg_logits, labels, pairs)
        assert terms["reg_motion"] == 0.0
        assert terms["reg_refine_prev"] == 0.0
        assert terms["reg_stage1"] == 0.0
        assert terms["reg_stage2"] == 0.0
        assert terms["cls_target"] < 1e-12 and terms["cls_motion"] < 1e-12
        assert loss.item() < 1e-12

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(17)
        seg_logits, labels = dummy_seg(rng)
        pairs = [dummy_forward(rng, perfect=False) for _ in range(4)]
        loss, terms = total_loss(seg_logits, labels, pairs)
        reg = (terms["reg_motion"] + terms["reg_refine_prev"]
               + terms["reg_stage1"] + terms["reg_stage2"])
        want = 0.1 * terms["cls_target"] + 0.1 * terms["cls_motion"] + 1.0 * reg
        assert abs(loss.item() - want) < 1e-12
        assert all(v >= 0 for v in terms.values())

    def test_needs_a_record(self):
        seg_logits, labels = dummy_seg(np.random.default_rng(19))
        with pytest.raises(ValueError, match="at least one"):
            total_loss(seg_logits, labels, [])

    def test_lambda_linearity(self):
        rng = np.random.default_rng(18)
        seg_logits, labels = dummy_seg(rng)
        pairs = [dummy_forward(rng, perfect=False) for _ in range(2)]
        base, terms = total_loss(seg_logits, labels, pairs, lambda_reg=1.0)
        double, _ = total_loss(seg_logits, labels, pairs, lambda_reg=2.0)
        reg = (terms["reg_motion"] + terms["reg_refine_prev"]
               + terms["reg_stage1"] + terms["reg_stage2"])
        assert abs((double.item() - base.item()) - reg) < 1e-12


class TestTraining:
    def toy_pairs(self, n_frames=11, seed=3):
        # brisk motion keeps the Huber terms in their linear region for the
        # whole overfit window, so the descent has room to stay strict
        spec = SceneSpec(motion="constant_velocity", speed_min=3.5, speed_max=5.0, n_frames=n_frames, seed=seed)
        return make_training_pairs([generate_synthetic_tracklet(spec)])

    def toy_config(self, **kw):
        base = dict(
            epochs=2, batch_size=16, lr=1e-3, n_points=128, margin=5.0,
            augment=NO_AUG, resample_each_epoch=False, seed=0,
        )
        base.update(kw)
        return TrainConfig(**base)

    @pytest.mark.parametrize("setting, message", BAD_CROP_SETTINGS)
    def test_bad_crop_setting_rejected(self, setting, message):
        # the settings NetworkTracker rejects, with the same messages
        with pytest.raises(ValueError, match=message):
            TrainConfig(**setting)

    def test_lr_schedule(self):
        cfg = TrainConfig(lr=1e-3, lr_decay=0.1, lr_decay_every=20)
        assert scheduled_lr(cfg, 0) == pytest.approx(1e-3)
        assert scheduled_lr(cfg, 19) == pytest.approx(1e-3)
        assert scheduled_lr(cfg, 20) == pytest.approx(1e-4)
        assert scheduled_lr(cfg, 40) == pytest.approx(1e-5)

    def test_overfit_fixed_batch_decreases(self):
        pairs = self.toy_pairs()[:10]
        model = model32(seed=1)
        log = train(model, pairs, self.toy_config(epochs=10))
        losses = [row["loss"] for row in log]
        assert len(losses) == 10
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_deterministic_metrics(self):
        pairs = self.toy_pairs(n_frames=4)
        a = train(model32(seed=2), pairs, self.toy_config())
        b = train(model32(seed=2), pairs, self.toy_config())
        # only the wall-time split may differ between runs
        assert [without_timings(row) for row in a] == [without_timings(row) for row in b]

    def test_metrics_carry_phase_timings(self):
        pairs = self.toy_pairs(n_frames=4)
        start = time.perf_counter()
        log = train(model32(seed=6), pairs, self.toy_config(resample_each_epoch=True))
        wall = time.perf_counter() - start
        epoch_walls = []
        for row in log:
            assert all(row[key] >= 0.0 for key in PHASE_KEYS)
            assert row["pairs_per_s"] > 0.0
            epoch_walls.append(len(pairs) / row["pairs_per_s"])
            assert sum(row[key] for key in PHASE_KEYS) <= epoch_walls[-1]
        assert sum(epoch_walls) <= wall

    def test_empty_labels_feed_stage_one_every_current_row(self, monkeypatch):
        # toy_config crops at 5 m; the fallback keeps every current row of
        # that crop, on the one-pair path and inside train alike
        cfg = self.toy_config(epochs=1)
        pairs = self.toy_pairs(n_frames=4)
        stage1_forward = pipeline.stage1_forward
        fed = []

        def spy(canon_xyzt, model, sizes):
            fed.append((canon_xyzt, sizes))
            return stage1_forward(canon_xyzt, model, sizes)

        monkeypatch.setattr(pipeline, "stage1_forward", spy)

        def unlabeled(ex):
            return replace(ex, seg_labels=np.zeros_like(ex.seg_labels))

        ex = unlabeled(prepare_pair_example(pairs[0], cfg, np.random.default_rng(0)))
        forward_pair(ex, model32())
        (canon, _), = fed
        n_cur = int((~ex.st.prev_rows).sum())
        assert int((canon[:, 3] > 0).sum()) == n_cur
        assert len(canon) == int((ex.st.targetness > 0).sum())

        prepare = pipeline.prepare_pair_example
        prepared = []

        def prepare_unlabeled(*args):
            prepared.append(unlabeled(prepare(*args)))
            return prepared[-1]

        monkeypatch.setattr(pipeline, "prepare_pair_example", prepare_unlabeled)
        fed.clear()
        train(model32(seed=1), pairs, cfg)
        (canon, sizes), = fed
        assert sorted(sizes) == sorted(int((ex.st.targetness > 0).sum()) for ex in prepared)
        assert int((canon[:, 3] > 0).sum()) == sum(int((~ex.st.prev_rows).sum()) for ex in prepared)

    def test_metrics_carry_lr(self):
        pairs = self.toy_pairs(n_frames=3)
        log = train(model32(seed=3), pairs, self.toy_config(epochs=1))
        assert log[0]["lr"] == pytest.approx(1e-3)

    def test_non_finite_loss_aborts_with_batch(self):
        pairs = self.toy_pairs(n_frames=3)
        model = model32(seed=4)
        model.seg_trunk.layers[0][0].data[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="batch"):
            train(model, pairs, self.toy_config(epochs=1))

    def test_training_path_matches_inference_path(self):
        pairs = self.toy_pairs(n_frames=3)
        cfg = self.toy_config()
        model = model32(seed=5)
        rng = np.random.default_rng(0)
        ex = prepare_pair_example(pairs[0], cfg, rng)
        assert ex is not None
        fwd = forward_pair(ex, model)
        # same mask, same prev box: the inference entry points run the same
        # stage code the training graph used
        mask = ex.seg_labels.astype(bool)
        if not mask.any():
            mask = prior_target_mask(ex.st)
        s1 = stage1_predict(ex.st.points[mask], ex.b_prev, model)
        (train_s1,) = fwd.stage1
        np.testing.assert_array_equal(s1.refined_prev_box.as_vector(), train_s1.refined_prev_box.as_vector())
        np.testing.assert_array_equal(s1.rtm.as_vector(), RTM(*fwd.rtm4.data[0]).as_vector())
        # inference takes the branch the training graph's logits point to
        assert s1.dynamic == (fwd.motion_logits.data[0].argmax() == 1)
        want_coarse = (
            apply_rtm(train_s1.refined_prev_box, RTM(*fwd.rtm4.data[0]))
            if ex.motion_label
            else train_s1.refined_prev_box
        )
        np.testing.assert_array_equal(train_s1.coarse_box.as_vector(), want_coarse.as_vector())

        # stage two on the training branch: the world-frame residual (the
        # input of box2_4's base addition) is identical on both paths, and the
        # boxes differ only because training adds the base in float32
        s1_train = Stage1Output(
            rtm=RTM(*fwd.rtm4.data[0]),
            dynamic=bool(ex.motion_label),
            refined_prev_box=train_s1.refined_prev_box,
            coarse_box=train_s1.coarse_box,
        )
        box = stage2_refine(*split_by_time(ex.st, mask), s1_train, model)
        (residual,) = fwd.box2_4.parents
        want = apply_rtm(train_s1.coarse_box, RTM(*residual.data[0]))
        np.testing.assert_array_equal(box.as_vector(), want.as_vector())
        box2 = fwd.box2_4.data[0].astype(np.float64)
        tol = 2 * np.finfo(np.float32).eps * np.abs(box2).max()
        np.testing.assert_allclose(box.center, box2[:3], rtol=0, atol=tol)
        assert abs(wrap_angle(box.yaw - box2[3])) <= tol


PHASE_KEYS = ("prepare_s", "forward_s", "backward_s", "step_s")


def without_timings(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in PHASE_KEYS + ("pairs_per_s",)}


def desk_batch() -> tuple[ExperimentConfig, list]:
    """One desk batch with both motion labels, unequal target counts and
    one pair that falls back to the prior mask."""
    cfg = ExperimentConfig.from_sources(preset="desk")
    tc = cfg.train_config()
    tracklets = make_synthetic_dataset(3, cfg.scene_template(), master_seed=7, motions=cfg.motion_cycle())
    pairs = make_training_pairs(tracklets)[: tc.batch_size]
    examples = [prepare_pair_example(p, tc, np.random.default_rng([7, i])) for i, p in enumerate(pairs)]
    examples = [ex for ex in examples if ex is not None]
    examples[2] = replace(examples[2], seg_labels=np.zeros_like(examples[2].seg_labels))
    return cfg, examples


class TestForwardBatch:
    def test_one_row_per_surviving_pair(self):
        cfg, examples = desk_batch()
        model = Model(cfg.model_config())
        assert {ex.motion_label for ex in examples} == {0, 1}
        assert len({int(ex.seg_labels.sum()) for ex in examples}) > 1
        fwd = forward_batch(examples, model)
        assert fwd.rows == len(examples)
        # stage one's box rows are the coarse boxes: the motion is added on
        # the dynamic rows only
        coarse = np.array([[*s1.coarse_box.center, s1.coarse_box.yaw] for s1 in fwd.stage1])
        box1 = fwd.box1_4.data.astype(np.float64)
        np.testing.assert_allclose(box1[:, :3], coarse[:, :3], rtol=0, atol=1e-4)
        assert np.abs(wrap_angle(box1[:, 3] - coarse[:, 3])).max() < 1e-5

    def test_stage1_records_the_branch_it_took(self):
        # training follows the motion label, wherever the logits point
        cfg, examples = desk_batch()
        fwd = forward_batch(examples, Model(cfg.model_config()))
        predicted = [int(np.argmax(row)) for row in fwd.motion_logits.data]
        assert predicted != list(fwd.motion_label)
        for s1, label in zip(fwd.stage1, fwd.motion_label):
            assert s1.dynamic == bool(label)

    @pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-5)])
    def test_batch_equals_per_pair_records(self, dtype, tol):
        cfg, examples = desk_batch()
        model = Model(replace(cfg.model_config(), dtype=dtype))
        params = model.parameters()
        feats = np.vstack([ex.features for ex in examples])
        labels = np.concatenate([ex.seg_labels for ex in examples])

        def loss_and_grads(records):
            logits = segment_forward_batched(feats, model, batch=len(examples))
            loss, _ = total_loss(logits, labels, records())
            zero_grad(params)
            backward(loss)
            return loss.item(), [p.grad.copy() for p in params]

        per_pair, per_pair_grads = loss_and_grads(
            lambda: [forward_pair(ex, model) for ex in examples]
        )
        # one record, and two records of unequal rows (10 and 22 pairs)
        for records in (
            lambda: [forward_batch(examples, model)],
            lambda: [forward_batch(examples[:10], model), forward_batch(examples[10:], model)],
        ):
            batched, batched_grads = loss_and_grads(records)
            assert abs(batched - per_pair) <= tol * abs(per_pair)
            for a, b in zip(batched_grads, per_pair_grads):
                np.testing.assert_allclose(a, b, rtol=0, atol=tol * np.abs(b).max())

    def test_batched_stage_losses_pass_grad_check(self):
        cfg, examples = desk_batch()
        three = [examples[5], examples[2], examples[0]]  # static, prior fallback, dynamic
        assert [ex.motion_label for ex in three] == [0, 1, 1]
        # a narrower model keeps the ReLU-kink nudging and differences fast
        model = Model(replace(cfg.model_config(), dtype="float64", point_widths=(32, 64), head_hidden=32))
        no_seg = Tensor(np.zeros((1, 2)))

        def loss(hold_stage2):
            def fn():
                fwd = forward_batch(three, model)
                if hold_stage2:
                    # no gradient flows through the merge geometry by design,
                    # so stage one is checked with the stage-two term held
                    fwd = replace(fwd, box2_4=Tensor(fwd.box2_target))
                return total_loss(no_seg, np.array([0]), [fwd])[0]
            return fn

        rng = np.random.default_rng(8)
        assert grad_check(model.stage1_parameters(), loss(True), max_entries=64, rng=rng) < 1e-4
        assert grad_check(model.stage2_parameters(), loss(False), max_entries=64, rng=rng) < 1e-4


class TestExportPredictions:
    def test_jsonl_round_trip(self, tmp_path):
        t = moving_tracklet(n_frames=4, seed=19)
        res = NetworkTracker(model32(), seed=0).track(t.frames, t.gt_boxes[0])
        path = tmp_path / "preds.jsonl"
        export_predictions([(t.id, res)], path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 4
        assert rows[0]["frame_index"] == 0
        np.testing.assert_allclose(rows[0]["box"], t.gt_boxes[0].as_vector())
        for row in rows:
            assert row["tracklet_id"] == t.id
            assert len(row["box"]) == 7
            assert isinstance(row["dynamic"], bool)
            assert row["wall_ms"] >= 0.0


class TestCanonicalFeatures:
    def test_xyz_canonicalized_rest_untouched(self):
        t = moving_tracklet(n_frames=2, seed=20)
        b = t.gt_boxes[0]
        st = st_for_pair(t, 1, b)
        feats = canonical_features(st, b)
        assert feats.shape == (len(st), 14)
        np.testing.assert_allclose(
            feats[:, :3], world_to_canonical(st.xyz, b) * COORD_SCALE, atol=1e-12
        )
        np.testing.assert_array_equal(feats[:, 3], st.points[:, 3] * COORD_SCALE)
        np.testing.assert_array_equal(feats[:, 4], st.targetness * COORD_SCALE)
        np.testing.assert_allclose(feats[:, 5:], st.distmap * COORD_SCALE, atol=1e-15)
