"""Acceptance gate: ten end-to-end criteria at pinned tolerances.

Each test prints one ``criterion N: PASS`` line with its measured numbers
(visible with ``pytest -s``); a failing criterion fails its test, so the
``pytest -v`` listing reads as the pass/fail ledger. Criteria 7 and 8
share one desk-scale training run through a module-scoped fixture.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest

from lidartrack.augment import AugmentConfig
from lidartrack.config import ExperimentConfig
from lidartrack.data import (
    SceneSpec,
    generate_synthetic_tracklet,
    load_kitti_tracklets,
    make_synthetic_dataset,
    make_training_pairs,
    read_native,
    write_native,
)
from lidartrack.evaluation import (
    KalmanCVTracker,
    ZeroMotionTracker,
    distractor_protocol,
    precision_auc,
    run_ope,
    success_auc,
)
from lidartrack.geometry import (
    Box3D,
    apply_rtm,
    box_key_points,
    center_distance,
    infer_rtm,
    iou3d,
    points_in_box,
    wrap_angle,
)
from lidartrack.nn import (
    Model,
    ModelConfig,
    Tensor,
    cross_entropy,
    grad_check,
    huber,
    load_checkpoint,
    mlp_forward,
    save_checkpoint,
    segment_forward,
    stage1_forward,
    stage2_forward,
)
from lidartrack.nn import autograd as ag
from lidartrack.pipeline import (
    NetworkTracker,
    PairForward,
    TrainConfig,
    make_oracle_overrides,
    total_loss,
    track_sequence,
    train,
)
from lidartrack.pointcloud import STCloud, with_channels


def report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


def random_box(rng: np.random.Generator) -> Box3D:
    return Box3D(
        center=rng.uniform([-5, -5, -1], [5, 5, 1]),
        size=rng.uniform(0.8, 3.0, size=3),
        yaw=rng.uniform(-np.pi, np.pi),
    )


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_rtm_round_trip():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_center, worst_yaw = 0.0, 0.0
    for _ in range(1000):
        prev, cur = random_box(rng), random_box(rng)
        back = apply_rtm(prev, infer_rtm(prev, cur))
        worst_center = max(worst_center, float(np.abs(back.center - cur.center).max()))
        worst_yaw = max(worst_yaw, abs(wrap_angle(back.yaw - cur.yaw)))
    elapsed = time.perf_counter() - start
    assert worst_center <= 1e-9
    assert worst_yaw <= 1e-9
    assert elapsed < 1.0
    report(1, f"1000 pairs, max center {worst_center:.1e} m, max yaw {worst_yaw:.1e} rad, {elapsed:.2f}s")


# -- 2 ----------------------------------------------------------------------


def mc_iou(a: Box3D, b: Box3D, n: int, rng: np.random.Generator) -> float:
    w, l, h = a.size
    local = rng.uniform(-0.5, 0.5, size=(n, 3)) * np.array([l, w, h])
    c, s = np.cos(a.yaw), np.sin(a.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    pts = local @ rot.T + np.asarray(a.center)
    vol_a = float(np.prod(a.size))
    vol_b = float(np.prod(b.size))
    inter = vol_a * float(np.mean(points_in_box(pts, b)))
    return inter / (vol_a + vol_b - inter)


def test_criterion_02_iou_against_monte_carlo():
    start = time.perf_counter()
    # analytic fixtures first
    unit = Box3D(center=[0, 0, 0], size=[1, 1, 1], yaw=0.0)
    assert iou3d(unit, unit) == 1.0
    apart = Box3D(center=[5, 0, 0], size=[1, 1, 1], yaw=0.0)
    assert iou3d(unit, apart) == 0.0
    half = Box3D(center=[0.5, 0, 0], size=[1, 1, 1], yaw=0.0)
    assert abs(iou3d(unit, half) - 1.0 / 3.0) <= 1e-9

    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        a = random_box(rng)
        b = Box3D(
            center=np.asarray(a.center) + rng.uniform(-1.0, 1.0, size=3) * 0.4,
            size=np.asarray(a.size) * rng.uniform(0.7, 1.3, size=3),
            yaw=a.yaw + rng.uniform(-0.5, 0.5),
        )
        worst = max(worst, abs(iou3d(a, b) - mc_iou(a, b, 100_000, rng)))
    elapsed = time.perf_counter() - start
    assert worst <= 0.01
    assert elapsed < 30.0
    report(2, f"100 pairs vs 1e5-sample MC, max gap {worst:.4f}, fixtures exact, {elapsed:.1f}s")


# -- 3 ----------------------------------------------------------------------


def test_criterion_03_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0

    model = Model(ModelConfig(dtype="float64", seed=7))
    n_seg = int(rng.integers(8, 33))
    feats = rng.normal(size=(n_seg, 14))
    labels = rng.integers(0, 2, size=n_seg)
    worst = max(
        worst,
        grad_check(
            model.seg_parameters(),
            lambda: cross_entropy(segment_forward(feats, model), labels),
            rng=rng,
        ),
    )

    pts1 = rng.normal(size=(int(rng.integers(8, 33)), 4))
    t_rtm, t_ref = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))

    def stage1_loss():
        rtm4, logits, refine4 = stage1_forward(pts1, model)
        return ag.add(
            ag.add(huber(rtm4, t_rtm), cross_entropy(logits, np.array([1]))),
            huber(refine4, t_ref),
        )

    worst = max(worst, grad_check(model.stage1_parameters(), stage1_loss, rng=rng))

    pts2 = rng.normal(size=(int(rng.integers(8, 33)), 3))
    t_s2 = rng.normal(size=(1, 4))
    worst = max(
        worst,
        grad_check(
            model.stage2_parameters(),
            lambda: huber(stage2_forward(pts2, model), t_s2),
            rng=rng,
        ),
    )
    assert worst < 1e-4

    # negative control: a backward rule scaled by 1.5 must be flagged
    def corrupted(t: Tensor) -> Tensor:
        return Tensor(t.data, parents=(t,), backward_fn=lambda g: (1.5 * g,), op="bad")

    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    x = rng.normal(size=(6, 4))
    bad_labels = rng.integers(0, 2, size=6)
    bad = grad_check(
        [w, b],
        lambda: cross_entropy(corrupted(mlp_forward(Tensor(x), [(w, b)])), bad_labels),
        rng=rng,
    )
    assert bad > 1e-2

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"max rel err {worst:.2e} over seg/stage1/stage2, control {bad:.2e}, {elapsed:.1f}s")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_oracle_plumbing_identity():
    start = time.perf_counter()
    template = SceneSpec(
        motion="constant_velocity",
        speed_min=0.5,
        speed_max=2.0,
        n_frames=20,
        n_distractors=3,
    )
    tracklets = make_synthetic_dataset(20, template, master_seed=1004)
    model = Model(ModelConfig())
    overlaps: list[float] = []
    errors: list[float] = []
    worst_iou = 1.0
    for t in tracklets:
        result = track_sequence(t, model, overrides=make_oracle_overrides(t))
        for box, gt in zip(result.boxes, t.gt_boxes):
            ov = iou3d(box, gt)
            overlaps.append(ov)
            errors.append(center_distance(box, gt))
            worst_iou = min(worst_iou, ov)
    assert worst_iou >= 1.0 - 1e-6
    success = success_auc(overlaps)
    precision = precision_auc(errors)
    assert abs(success - 100.0) <= 0.01
    assert abs(precision - 100.0) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(4, f"20 tracklets, min IoU {worst_iou:.9f}, S {success:.3f}, P {precision:.3f}, {elapsed:.1f}s")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_metric_closed_forms():
    assert abs(success_auc([0.5] * 9) - 50.0) <= 1e-12
    assert abs(precision_auc([1.0] * 9) - 50.0) <= 1e-12
    rng = np.random.default_rng(1005)
    for _ in range(200):
        overlaps = rng.uniform(0, 1, size=rng.integers(1, 60))
        errors = rng.uniform(0, 4, size=rng.integers(1, 60))
        assert abs(success_auc(overlaps) - 100.0 * overlaps.mean()) <= 1e-12
        want = 100.0 * np.mean((2.0 - np.minimum(errors, 2.0)) / 2.0)
        assert abs(precision_auc(errors) - want) <= 1e-12
    report(5, "success/precision equal 100*mean(clamped) to 1e-12; 0.5->50, 1m->50")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_prior_feature_channels():
    box = Box3D(center=[2.0, -1.0, 0.5], size=[1.8, 4.0, 1.6], yaw=0.4)
    inside = np.asarray(box.center) + [0.3, 0.2, -0.1]
    outside = np.asarray(box.center) + [8.0, 0.0, 0.0]
    pts = np.array(
        [
            [*inside, 0.0],          # previous frame, inside the box  -> 1
            [*outside, 0.0],         # previous frame, outside          -> 0
            [*box.center, 0.0],      # previous frame, exactly at center
            [*inside, 1.0],          # current frame                    -> 0.5
            [*outside, 1.0],
            [*(np.asarray(box.center) + [0.0, 0.5, 0.0]), 1.0],
        ]
    )
    st = with_channels(STCloud(points=pts), box)
    np.testing.assert_array_equal(st.targetness, [1.0, 0.0, 1.0, 0.5, 0.5, 0.5])
    # current-frame rows carry an exactly zero distance map
    np.testing.assert_array_equal(st.distmap[3:], np.zeros((3, 9)))
    # the center point's distance to the 9th key point (the center) is zero
    assert st.distmap[2, 8] == 0.0
    # and the previous-frame rows match direct corner distances
    keys = box_key_points(box)
    for row, p in zip(st.distmap[:3], pts[:3, :3]):
        np.testing.assert_allclose(row, np.linalg.norm(keys - p, axis=1), atol=1e-12)
    report(6, "targetness {0, 0.5, 1} on 6-point fixture, current rows exactly zero")


# -- desk-scale fixture shared by criteria 7 and 8 ---------------------------


@pytest.fixture(scope="module")
def desk_run():
    cfg = ExperimentConfig.from_sources(preset="desk")
    template = cfg.scene_template()
    t0 = time.perf_counter()
    train_set = make_synthetic_dataset(400, template, master_seed=101, motions=cfg.motion_cycle())
    test_set = make_synthetic_dataset(100, template, master_seed=202, motions=cfg.motion_cycle())
    gen_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    model = Model(cfg.model_config())
    metrics = train(model, make_training_pairs(train_set), cfg.train_config())
    train_s = time.perf_counter() - t1
    return {
        "cfg": cfg,
        "template": template,
        "model": model,
        "test_set": test_set,
        "metrics": metrics,
        "gen_s": gen_s,
        "train_s": train_s,
    }


def _network_tracker(run) -> NetworkTracker:
    cfg = run["cfg"]
    return NetworkTracker(
        run["model"], seed=cfg.seed, margin=cfg.margin, n_points=cfg.n_points
    )


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_desk_scale_learning(desk_run):
    cfg = desk_run["cfg"]
    assert cfg.point_widths == (64, 128, 256)
    assert cfg.batch_size == 32
    assert cfg.epochs <= 40

    t0 = time.perf_counter()
    trained = run_ope(_network_tracker(desk_run), desk_run["test_set"])
    zero = run_ope(ZeroMotionTracker(), desk_run["test_set"])
    kalman = run_ope(KalmanCVTracker(), desk_run["test_set"])
    eval_s = time.perf_counter() - t0
    total_s = desk_run["gen_s"] + desk_run["train_s"] + eval_s

    ds = trained.success - zero.success
    dp = trained.precision - kalman.precision
    assert ds >= 10.0, (
        f"success margin {ds:.2f} < 10 (trained {trained.success:.2f}, zero-motion {zero.success:.2f})"
    )
    assert dp >= 5.0, (
        f"precision margin {dp:.2f} < 5 (trained {trained.precision:.2f}, kalman {kalman.precision:.2f})"
    )
    assert total_s < 3600.0
    report(
        7,
        f"S {trained.success:.2f} vs zero {zero.success:.2f} (+{ds:.2f}), "
        f"P {trained.precision:.2f} vs kalman {kalman.precision:.2f} (+{dp:.2f}), "
        f"{total_s / 60:.1f} min total",
    )


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_distractor_protocol_integrity(desk_run):
    tracker = _network_tracker(desk_run)
    template = desk_run["template"]
    rows = distractor_protocol(
        tracker, template, n_tracklets=20, k_values=(0, 2, 4), master_seed=303
    )
    assert [k for k, _ in rows] == [0, 2, 4]
    plain = run_ope(
        tracker,
        make_synthetic_dataset(20, replace(template, n_distractors=0), master_seed=303),
    )
    k0 = rows[0][1]
    assert abs(k0.success - plain.success) <= 1e-9
    assert abs(k0.precision - plain.precision) <= 1e-9
    trend = ", ".join(f"K={k}: S {r.success:.2f}" for k, r in rows)
    report(8, f"3-row sweep ({trend}); K=0 equals plain eval")


# -- 9 ----------------------------------------------------------------------


def _const(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def _pair_forward(rtm4, rtm_t, refine4, refine_t, box1, box1_t, box2, box2_t, logits, label):
    return PairForward(
        motion_logits=_const([logits]),
        motion_label=label,
        rtm4=_const([rtm4]),
        rtm_target=np.asarray([rtm_t], dtype=np.float64),
        refine4=_const([refine4]),
        refine_target=np.asarray([refine_t], dtype=np.float64),
        box1_4=_const([box1]),
        box1_target=np.asarray([box1_t], dtype=np.float64),
        box2_4=_const([box2]),
        box2_target=np.asarray([box2_t], dtype=np.float64),
    )


def test_criterion_09_loss_bookkeeping():
    rng = np.random.default_rng(1009)
    # weighted-sum identity on random terms
    seg_logits = _const(rng.normal(size=(12, 2)))
    seg_labels = rng.integers(0, 2, size=12)
    pairs = []
    for _ in range(3):
        vals = [rng.normal(size=4) for _ in range(8)]
        pairs.append(
            _pair_forward(
                vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6], vals[7],
                rng.normal(size=2), int(rng.integers(0, 2)),
            )
        )
    loss, terms = total_loss(
        seg_logits, seg_labels, pairs,
        lambda_cls_target=0.1, lambda_cls_motion=0.1, lambda_reg=1.0,
    )
    recomposed = (
        0.1 * terms["cls_target"]
        + 0.1 * terms["cls_motion"]
        + 1.0 * (
            terms["reg_motion"]
            + terms["reg_refine_prev"]
            + terms["reg_stage1"]
            + terms["reg_stage2"]
        )
    )
    assert abs(float(loss.data) - recomposed) <= 1e-12
    assert abs(terms["total"] - float(loss.data)) <= 1e-12

    # perfect predictions: every regression term is exactly zero
    v = rng.normal(size=4)
    perfect = [_pair_forward(v, v, v, v, v, v, v, v, [10.0, -10.0], 0)]
    _, pterms = total_loss(seg_logits, seg_labels, perfect)
    for key in ("reg_motion", "reg_refine_prev", "reg_stage1", "reg_stage2"):
        assert pterms[key] == 0.0

    # overfit sanity: strict decrease over the first 10 steps at lr 1e-3
    spec = SceneSpec(motion="constant_velocity", speed_min=3.5, speed_max=5.0, n_frames=11, seed=3)
    toy_pairs = make_training_pairs([generate_synthetic_tracklet(spec)])
    assert len(toy_pairs) == 10
    cfg = TrainConfig(
        epochs=10,
        batch_size=16,
        lr=1e-3,
        n_points=128,
        margin=5.0,
        seed=0,
        augment=AugmentConfig(
            flip_prob=0.0, rot_range_deg=0.0, trans_range=0.0,
            prev_box_shift=0.0, prev_box_yaw_shift_deg=0.0,
        ),
        resample_each_epoch=False,
    )
    losses = [row["loss"] for row in train(Model(ModelConfig(seed=0)), toy_pairs, cfg)]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses
    report(9, f"weighted sum to 1e-12, perfect Huber exactly 0, overfit {losses[0]:.3f}->{losses[-1]:.3f}")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_format_round_trips(tmp_path):
    # native storage: one float32 quantization on write, then bit-stable
    ds = make_synthetic_dataset(2, SceneSpec(n_frames=4, n_distractors=1), master_seed=1010)
    write_native(ds, tmp_path / "a")
    once = read_native(tmp_path / "a")
    write_native(once, tmp_path / "b")
    twice = read_native(tmp_path / "b")
    for a, b in zip(once, twice):
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa.points, fb.points)
        for ba, bb in zip(a.gt_boxes, b.gt_boxes):
            np.testing.assert_array_equal(ba.as_vector(), bb.as_vector())
    # boxes survive the first write exactly (stored as JSON doubles)
    for a, b in zip(ds, once):
        for ba, bb in zip(a.gt_boxes, b.gt_boxes):
            np.testing.assert_array_equal(ba.as_vector(), bb.as_vector())

    # checkpoints: save -> load -> save is byte-identical
    model = Model(ModelConfig(seed=4))
    save_checkpoint(model, tmp_path / "m1.ckpt", extra={"note": "x"})
    loaded, extra = load_checkpoint(tmp_path / "m1.ckpt")
    assert extra["note"] == "x"
    save_checkpoint(loaded, tmp_path / "m2.ckpt", extra={"note": "x"})
    assert (tmp_path / "m1.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()
    for p, q in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(p.data, q.data)

    # KITTI mini-fixture: camera-frame labels land on precomputed boxes
    seq = tmp_path / "kitti" / "0000"
    (seq / "velodyne").mkdir(parents=True)
    (seq / "label_02").mkdir()
    (seq / "calib").mkdir()
    canon = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    tr = np.hstack([canon, np.zeros((3, 1))])
    (seq / "calib" / "0000.txt").write_text(
        "P2: " + " ".join(["0"] * 12) + "\n"
        "Tr_velo_to_cam: " + " ".join(f"{v:.12g}" for v in tr.reshape(-1)) + "\n"
    )
    (seq / "label_02" / "0000.txt").write_text(
        "0 0 Car 0 0 0.0 0 0 50 50 1.6 1.8 4.0 0.0 0.0 10.0 0.0\n"
        "1 0 Car 0 0 0.0 0 0 50 50 1.6 1.8 4.0 0.0 0.0 11.0 0.0\n"
    )
    for frame in (0, 1):
        pts = np.array([[10.0, 0.0, 0.5, 0.5]], dtype="<f4")
        (seq / "velodyne" / f"{frame:06d}.bin").write_bytes(pts.tobytes())
    boxes = load_kitti_tracklets(seq)[0].gt_boxes
    expected = [
        Box3D(center=[10.0, 0.0, 0.8], size=[1.8, 4.0, 1.6], yaw=-np.pi / 2),
        Box3D(center=[11.0, 0.0, 0.8], size=[1.8, 4.0, 1.6], yaw=-np.pi / 2),
    ]
    for got, want in zip(boxes, expected):
        np.testing.assert_allclose(got.as_vector(), want.as_vector(), atol=1e-6)
    report(10, "native stable at f32, checkpoint byte-identical, KITTI fixture within 1e-6")
