"""Tests for the minimal differentiable network library.

Gradients are validated against central finite differences at 64-bit
(epsilon 1e-5); the checker itself is validated by a negative control that
injects a deliberately wrong backward rule through the Tensor extension API.
Loss closed forms (ln 2 cross-entropy, Huber branch values) are frozen from
hand computation.
"""

from __future__ import annotations

import platform
import re
import struct
import subprocess
import sys
import textwrap
import types
import weakref

import numpy as np
import pytest

from lidartrack.nn import (
    Adam,
    Model,
    ModelConfig,
    Tensor,
    backward,
    cross_entropy,
    grad_check,
    huber,
    load_checkpoint,
    mlp_forward,
    no_grad,
    save_checkpoint,
    segment_forward,
    segment_forward_batched,
    stage1_forward,
    stage2_forward,
    zero_grad,
)
from lidartrack.nn import autograd as ag


def f64_model(seed=0) -> Model:
    return Model(ModelConfig(dtype="float64", seed=seed))


def param(a) -> Tensor:
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)


class TestMlpForward:
    def test_identity_layer_zero_bias(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        layers = [(param(np.eye(4)), param(np.zeros(4)))]
        y = mlp_forward(x, layers)
        np.testing.assert_array_equal(y.data, x.data)

    def test_all_negative_preactivations_kill_gradient(self):
        x = Tensor(np.ones((2, 3)))
        w1, b1 = param(-np.eye(3)), param(np.zeros(3))
        w2, b2 = param(np.ones((3, 1))), param(np.zeros(1))
        y = mlp_forward(x, [(w1, b1), (w2, b2)])
        np.testing.assert_array_equal(y.data, np.zeros((2, 1)))
        loss = huber(y, np.ones((2, 1)))
        zero_grad([w1, b1, w2, b2])
        backward(loss)
        np.testing.assert_array_equal(w1.grad, np.zeros_like(w1.data))
        np.testing.assert_array_equal(b1.grad, np.zeros_like(b1.data))

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            mlp_forward(x, [(param(np.ones((4, 2))), param(np.zeros(2)))])

    def test_no_activation_after_final_layer(self):
        # single layer mapping to a negative value: ReLU would clamp it
        x = Tensor(np.ones((1, 1)))
        y = mlp_forward(x, [(param([[-3.0]]), param([0.0]))])
        assert y.data[0, 0] == -3.0


class TestMaxpool:
    def test_single_row_passthrough(self):
        x = Tensor(np.array([[1.0, -2.0, 3.0]]))
        np.testing.assert_array_equal(ag.segment_maxpool(x, [1]).data, [[1.0, -2.0, 3.0]])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(16, 8))
        a = ag.segment_maxpool(Tensor(d), [16]).data
        b = ag.segment_maxpool(Tensor(d[rng.permutation(16)]), [16]).data
        np.testing.assert_array_equal(a, b)

    def test_tie_routes_gradient_to_lowest_row(self):
        x = param(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
        y = ag.segment_maxpool(x, [3])
        zero_grad([x])
        backward(huber(y, np.zeros((1, 2))))
        # rows 0 and 1 tie; all gradient must land on row 0
        assert np.all(x.grad[1] == 0.0) and np.all(x.grad[2] == 0.0)
        assert np.any(x.grad[0] != 0.0)

    def test_segment_tie_routes_gradient_to_lowest_row_of_each_block(self):
        x = param(np.array([
            [0.0, 5.0], [3.0, 5.0], [3.0, 1.0],   # block 0: column 0 ties at rows 1 and 2
            [7.0, 2.0], [7.0, 2.0], [7.0, 0.0],   # block 1: both columns tie from row 3
        ]))
        y = ag.segment_maxpool(x, [3, 3])
        np.testing.assert_array_equal(y.data, [[3.0, 5.0], [7.0, 2.0]])
        zero_grad([x])
        backward(huber(y, np.zeros((2, 2))))
        hit = x.grad != 0.0
        np.testing.assert_array_equal(hit, [
            [False, True], [True, False], [False, False],
            [True, True], [False, False], [False, False],
        ])

    def test_nan_pools_to_nan(self):
        x = param(np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, -1.0], [4.0, 5.0]]))
        y = ag.segment_maxpool(x, [2, 2])
        np.testing.assert_array_equal(y.data, [[np.nan, 2.0], [4.0, 5.0]])
        # the backward rule routes the NaN column's gradient to the NaN row
        (gx,) = y.backward_fn(np.ones((2, 2)))
        np.testing.assert_array_equal(gx[:, 0], [0.0, 1.0, 0.0, 1.0])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ag.segment_maxpool(Tensor(np.zeros((0, 4))), [0])

    def test_finite_difference(self):
        rng = np.random.default_rng(1)
        x = param(rng.normal(size=(6, 5)))
        target = rng.normal(size=(1, 5))
        err = grad_check([x], lambda: huber(ag.segment_maxpool(x, [6]), target), rng=rng)
        assert err < 1e-4

    def test_unequal_blocks_max_and_ties(self):
        x = param(np.array([
            [1.0, 0.0],                           # block 0: one row
            [5.0, -1.0], [2.0, 2.0],              # block 1
            [2.0, 3.0], [2.0, 3.0], [-1.0, 4.0],  # block 2: column 0 ties at rows 3 and 4
        ]))
        y = ag.segment_maxpool(x, [1, 2, 3])
        np.testing.assert_array_equal(y.data, [[1.0, 0.0], [5.0, 2.0], [2.0, 4.0]])
        zero_grad([x])
        backward(huber(y, np.zeros((3, 2))))
        np.testing.assert_array_equal(x.grad != 0.0, [
            [True, False],
            [True, False], [False, True],
            [True, False], [False, False], [False, True],
        ])

    def test_unequal_blocks_finite_difference(self):
        rng = np.random.default_rng(3)
        x = param(rng.normal(size=(7, 5)))
        target = rng.normal(size=(3, 5))
        err = grad_check([x], lambda: huber(ag.segment_maxpool(x, [1, 4, 2]), target), rng=rng)
        assert err < 1e-4

    @pytest.mark.parametrize("counts", [[2, 0, 4], [], [2, 3], [4, 4]])
    def test_bad_counts_rejected(self, counts):
        # zero counts, no blocks, and counts that do not sum to the rows
        with pytest.raises(ValueError):
            ag.segment_maxpool(param(np.ones((6, 2))), counts)


class TestMatmulConst:
    def test_per_row_matrices(self):
        rng = np.random.default_rng(4)
        x = param(rng.normal(size=(3, 4)))
        m = rng.normal(size=(3, 2, 4))
        got = ag.matmul_const(x, m).data
        np.testing.assert_allclose(got, [m[i] @ x.data[i] for i in range(3)], rtol=0, atol=1e-12)
        target = rng.normal(size=(3, 2))
        assert grad_check([x], lambda: huber(ag.matmul_const(x, m), target), rng=rng) < 1e-4

    def test_shape_mismatch_rejected(self):
        x = param(np.ones((3, 4)))
        for m in (np.ones((2, 4, 4)), np.ones((3, 4, 3)), np.ones((4, 3)), np.ones((2, 4))):
            with pytest.raises(ValueError):
                ag.matmul_const(x, m)


class TestPooledLinear:
    @staticmethod
    def inputs(blocks, n=4, c=5, p=3, h=2, seed=0):
        rng = np.random.default_rng(seed)
        return (param(rng.normal(size=(blocks * n, c))), param(rng.normal(size=(blocks, p))),
                param(rng.normal(size=(c + p, h))), param(rng.normal(size=h)))

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_equals_joined_reference(self, blocks):
        local, pooled, w, b = self.inputs(blocks)
        n = local.data.shape[0] // blocks
        joined = np.hstack([local.data, np.repeat(pooled.data, n, axis=0)])
        got = ag.pooled_linear(local, pooled, w, b).data
        np.testing.assert_allclose(got, joined @ w.data + b.data, rtol=0, atol=1e-12)

    def test_finite_difference(self):
        local, pooled, w, b = self.inputs(3, seed=1)
        target = np.random.default_rng(2).normal(size=(12, 2))
        params = [local, pooled, w, b]
        err = grad_check(params, lambda: huber(ag.pooled_linear(*params), target))
        assert err < 1e-4

    @pytest.mark.parametrize(
        "bad",
        [
            {"local": np.zeros((10, 5))},   # 10 rows do not split into 3 blocks
            {"w": np.zeros((7, 2))},        # needs 5 + 3 input rows
            {"b": np.zeros(3)},             # needs one bias per output column
        ],
    )
    def test_shape_mismatch_rejected(self, bad):
        args = dict(zip(("local", "pooled", "w", "b"), self.inputs(3)))
        args.update({k: param(v) for k, v in bad.items()})
        with pytest.raises(ValueError):
            ag.pooled_linear(args["local"], args["pooled"], args["w"], args["b"])


class TestNoGrad:
    @staticmethod
    def records() -> bool:
        p = param([1.0])
        return bool(ag.add(p, p).parents)

    def test_ops_record_no_graph(self):
        rng = np.random.default_rng(5)
        x = param(rng.normal(size=(4, 3)))
        w, b = param(rng.normal(size=(3, 2))), param(np.zeros(2))
        w_joined = param(rng.normal(size=(5, 2)))
        with no_grad():
            h = ag.linear(x, w, b)
            outs = [
                h,
                ag.relu(h),
                ag.segment_maxpool(h, [2, 2]),
                ag.pooled_linear(x, ag.segment_maxpool(h, [2, 2]), w_joined, b),
                ag.slice_cols(x, 0, 2),
                ag.add(x, x),
                ag.scale(x, 2.0),
                ag.add_const(x, 1.0),
                ag.matmul_const(x, np.tile(np.eye(3), (4, 1, 1))),
                cross_entropy(h, np.array([0, 1, 1, 0])),
                huber(h, np.zeros((4, 2))),
            ]
        for out in outs:
            assert out.parents == () and out.backward_fn is None and out.requires_grad is False, out.op
        assert self.records()

    def test_leaves_keep_requires_grad(self):
        p = param([1.0])
        with no_grad():
            q = param([2.0])
            assert p.requires_grad and q.requires_grad
        zero_grad([q])
        backward(huber(ag.add(q, q), np.zeros(1)))
        assert q.grad is not None

    def test_mode_restored_after_exception(self):
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("inside")
        assert self.records()

    def test_nested_use(self):
        with no_grad():
            with no_grad():
                assert not self.records()
            assert not self.records()
        assert self.records()

    def test_backward_on_root_built_under_it_raises(self):
        p = param([1.0, -2.0])
        with no_grad():
            loss = huber(ag.scale(p, 3.0), np.zeros(2))
        with pytest.raises(ValueError, match="does not depend on any parameter"):
            backward(loss)

    def test_forwards_bit_identical_at_1024_points(self):
        model = Model()
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(1024, 14)).astype(np.float32)
        pts4 = rng.normal(size=(600, 4)).astype(np.float32)
        pts3 = rng.normal(size=(900, 3)).astype(np.float32)

        def run():
            return [
                segment_forward(feats, model).data,
                *(t.data for t in stage1_forward(pts4, model)),
                stage2_forward(pts3, model).data,
            ]

        with no_grad():
            free = run()
        for got, want in zip(free, run()):
            np.testing.assert_array_equal(got, want)


class TestRelease:
    """backward walks a graph once and frees it as it goes."""

    @staticmethod
    def seg_loss(model):
        rng = np.random.default_rng(8)
        logits = segment_forward_batched(rng.normal(size=(16, 14)), model, batch=2)
        return logits, cross_entropy(logits, rng.integers(0, 2, size=16))

    def test_activations_freed_while_root_and_logits_live(self):
        logits, loss = self.seg_loss(f64_model())
        hidden, stack = {}, [logits]
        while stack:
            node = stack.pop()
            if node.op == "relu":
                hidden[id(node)] = weakref.ref(node.data)
            stack.extend(node.parents)
        del node
        assert len(hidden) == 3  # two trunk hidden layers and the head's
        backward(loss)
        assert [ref() for ref in hidden.values()] == [None] * 3
        assert logits.parents == () and loss.parents == ()

    def test_leaf_gradients_match_a_kept_graph(self):
        model = f64_model()
        _, loss = self.seg_loss(model)
        backward(loss)
        released = [p.grad for p in model.parameters()]
        zero_grad(model.parameters())
        _, loss = self.seg_loss(model)
        # reference: the same walk without the release
        for node in reversed(ag._topo_order(loss)):
            node.grad = np.ones(()) if node is loss else node.grad
            if node.backward_fn is not None and node.grad is not None:
                for parent, g in zip(node.parents, node.backward_fn(node.grad)):
                    if g is not None and parent.requires_grad:
                        parent.grad = g if parent.grad is None else parent.grad + g
        assert sum(g is not None for g in released) == 10  # the segmentation network's five layers
        for got, p in zip(released, model.parameters()):
            np.testing.assert_array_equal(got, p.grad)

    def test_second_walk_raises_naming_the_op(self):
        model = f64_model()
        _, loss = self.seg_loss(model)
        backward(loss)
        grads = [p.grad for p in model.parameters()]
        with pytest.raises(ValueError, match="op 'cross_entropy' was released by an earlier backward"):
            backward(loss)
        assert all(p.grad is g for g, p in zip(grads, model.parameters()))

    def test_root_sharing_a_released_node_raises_before_any_gradient(self):
        p = param([1.0, -2.0])
        shared = ag.scale(p, 3.0)
        backward(huber(shared, np.zeros(2)))
        before = p.grad.copy()
        with pytest.raises(ValueError, match="op 'scale' was released"):
            backward(huber(ag.add(shared, p), np.zeros(2)))
        np.testing.assert_array_equal(p.grad, before)


class TestHeapPin:
    """The first no_grad() or train() of a process pins glibc's malloc thresholds."""

    def test_off_glibc_is_a_no_op(self, monkeypatch):
        def no_ctypes(*args, **kwargs):
            raise AssertionError("ctypes called off glibc")

        monkeypatch.setattr(ag.platform, "libc_ver", lambda *args, **kwargs: ("musl", "1.2"))
        monkeypatch.setattr(ag.ctypes, "CDLL", no_ctypes)
        monkeypatch.setattr(ag, "_heap_pinned", False)
        with no_grad():
            assert not TestNoGrad.records()
        assert TestNoGrad.records()
        assert ag._heap_pinned

    def test_each_threshold_set_once(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ag.platform, "libc_ver", lambda *args, **kwargs: ("glibc", "2.36"))
        monkeypatch.setattr(ag.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        monkeypatch.setattr(ag, "_heap_pinned", False)
        for _ in range(2):
            with no_grad():
                pass
        # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
        assert calls == [(-3, ag.MMAP_THRESHOLD_BYTES), (-1, ag.TRIM_THRESHOLD_BYTES)]

    def test_training_pins_the_heap(self):
        # a fresh process that trains and never enters no_grad()
        script = textwrap.dedent("""
            import types
            from lidartrack.data import SceneSpec, generate_synthetic_tracklet, make_training_pairs
            from lidartrack.nn import Model, ModelConfig, autograd as ag
            from lidartrack.pipeline import TrainConfig, train

            calls = []
            ag.platform.libc_ver = lambda *args, **kwargs: ("glibc", "2.36")
            ag.ctypes.CDLL = lambda name: types.SimpleNamespace(
                mallopt=lambda param, value: calls.append((param, value)) or 1
            )
            pairs = make_training_pairs([generate_synthetic_tracklet(SceneSpec(n_frames=3, seed=1))])
            model = Model(ModelConfig(point_widths=(8, 16), head_hidden=8))
            assert not ag._heap_pinned
            for _ in range(2):
                train(model, pairs, TrainConfig(epochs=1, batch_size=2, n_points=32))
            print(calls == [(-3, ag.MMAP_THRESHOLD_BYTES), (-1, ag.TRIM_THRESHOLD_BYTES)])
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are pinned on glibc only")
    def test_tracking_at_1024_points_does_not_fault_per_frame(self):
        # a fresh process: one no_grad() earlier in this one has pinned the heap already
        script = textwrap.dedent("""
            import resource
            from dataclasses import replace
            from lidartrack.config import ExperimentConfig
            from lidartrack.data import generate_synthetic_tracklet
            from lidartrack.nn import Model
            from lidartrack.pipeline import track_frame

            spec = replace(ExperimentConfig.from_sources(preset="desk").scene_template(), seed=5)
            t = generate_synthetic_tracklet(spec)
            model = Model()

            def track(i):
                track_frame(t.frames[i - 1], t.frames[i], t.gt_boxes[i - 1], model, frame_index=i, n_points=1024)

            # crops differ in size, so the heap grows the first time a
            # larger frame arrives; a first pass over the tracklet takes
            # those first-touch faults, and the second pass is measured
            for i in range(1, len(t.frames)):
                track(i)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for i in range(1, len(t.frames)):
                track(i)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            print(len(t.frames) - 1, after - before)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        frames, faults = (int(v) for v in proc.stdout.split())
        assert frames >= 10
        assert faults / frames < 50, f"{faults} minor faults over {frames} frames"


    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are pinned on glibc only")
    def test_desk_training_does_not_fault_per_batch(self):
        # backward frees a whole batch's graph at once; the trim threshold
        # must keep that memory on the heap for the next batch
        script = textwrap.dedent("""
            import resource
            from dataclasses import replace
            from lidartrack.config import ExperimentConfig
            from lidartrack.data import make_synthetic_dataset, make_training_pairs
            from lidartrack.nn import Model
            from lidartrack.pipeline import train

            cfg = ExperimentConfig.from_sources(preset="desk")
            tracklets = make_synthetic_dataset(4, cfg.scene_template(), master_seed=3,
                                               motions=cfg.motion_cycle())
            pairs = make_training_pairs(tracklets)[:64]
            tc = replace(cfg, epochs=1).train_config()
            assert (tc.n_points, tc.batch_size) == (128, 32)
            model = Model(cfg.model_config())
            train(model, pairs, tc)  # warm-up: the heap grows to a batch's size
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            train(model, pairs, tc)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            print(len(pairs) // tc.batch_size, after - before)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        batches, faults = (int(v) for v in proc.stdout.split())
        assert batches == 2
        assert faults / batches < 50, f"{faults} minor faults over {batches} batches"


class TestSegmentForward:
    def test_output_shape(self):
        model = f64_model()
        feats = np.random.default_rng(2).normal(size=(10, 14))
        assert segment_forward(feats, model).data.shape == (10, 2)

    def test_row_permutation_equivariance(self):
        model = f64_model()
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(12, 14))
        perm = rng.permutation(12)
        a = segment_forward(feats, model).data
        b = segment_forward(feats[perm], model).data
        np.testing.assert_allclose(b, a[perm], atol=1e-12)

    def test_batched_matches_per_sample(self):
        model = f64_model()
        rng = np.random.default_rng(4)
        f1, f2, f3 = (rng.normal(size=(8, 14)) for _ in range(3))
        stacked = np.vstack([f1, f2, f3])
        got = segment_forward_batched(stacked, model, batch=3).data
        want = np.vstack([segment_forward(f, model).data for f in (f1, f2, f3)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            segment_forward(np.zeros((0, 14)), f64_model())


class TestCrossEntropy:
    def test_uniform_logits_ln2(self):
        logits = np.zeros((5, 2))
        labels = np.array([0, 1, 0, 1, 1])
        assert cross_entropy(Tensor(logits), labels).item() == pytest.approx(np.log(2), abs=1e-15)

    def test_saturated_correct(self):
        loss = cross_entropy(Tensor(np.array([[50.0, -50.0]])), np.array([0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_softmax_log(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(40, 2)) * 3
        labels = rng.integers(0, 2, size=40)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        naive = float(np.mean(-np.log(p[np.arange(40), labels])))
        assert cross_entropy(Tensor(logits), labels).item() == pytest.approx(naive, abs=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        x = param(rng.normal(size=(9, 2)))
        labels = rng.integers(0, 2, size=9)
        assert grad_check([x], lambda: cross_entropy(x, labels), rng=rng) < 1e-4


class TestHuber:
    def test_quadratic_branch(self):
        # r = 0.5, delta = 1 -> 0.5 * 0.25 = 0.125
        assert huber(Tensor(np.array([0.5])), np.array([0.0])).item() == pytest.approx(0.125)

    def test_linear_branch(self):
        # r = 2, delta = 1 -> 1 * (2 - 0.5) = 1.5
        assert huber(Tensor(np.array([2.0])), np.array([0.0])).item() == pytest.approx(1.5)

    def test_continuity_at_delta(self):
        # both branches give 0.5 * delta^2 at |r| = delta
        v = huber(Tensor(np.array([1.0])), np.array([0.0])).item()
        assert v == pytest.approx(0.5, abs=1e-15)

    def test_zero_at_equality_and_mean_semantics(self):
        x = np.array([0.5, 2.0])
        assert huber(Tensor(x), x).item() == 0.0
        v = huber(Tensor(x), np.zeros(2)).item()
        assert v == pytest.approx((0.125 + 1.5) / 2)

    def test_gradient_covers_both_branches(self):
        rng = np.random.default_rng(7)
        x = param(np.array([0.3, -0.2, 1.7, -2.5]))
        assert grad_check([x], lambda: huber(x, np.zeros(4)), rng=rng) < 1e-4


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = param(np.array([1.0, 2.0]))
        opt = Adam([p], lr=1e-3)
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_lr(self):
        p = param(np.array([1.0, -1.0]))
        opt = Adam([p], lr=1e-3)
        p.grad = np.array([0.25, -4.0])
        opt.step()
        # bias-corrected m/sqrt(v) = sign(g) regardless of |g|
        np.testing.assert_allclose(p.data, [1.0 - 1e-3, -1.0 + 1e-3], rtol=1e-6)

    def test_lr_zero_is_identity(self):
        p = param(np.array([3.0]))
        opt = Adam([p], lr=0.0)
        p.grad = np.array([1.23])
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_non_finite_gradient_aborts(self):
        p = param(np.array([1.0]))
        opt = Adam([p], lr=1e-3)
        p.grad = np.array([np.nan])
        with pytest.raises(FloatingPointError):
            opt.step()

    def test_deterministic(self):
        def run():
            p = param(np.array([1.0, 2.0, 3.0]))
            opt = Adam([p], lr=1e-2)
            for t in range(5):
                p.grad = np.sin(np.arange(3.0) + t)
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestGradCheckNets:
    """Criterion-level gradient checks on all five sub-networks, 64-bit."""

    def test_seg_net(self):
        model = f64_model(seed=1)
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(12, 14))
        labels = rng.integers(0, 2, size=12)
        params = model.seg_parameters()
        err = grad_check(params, lambda: cross_entropy(segment_forward(feats, model), labels), rng=rng)
        assert err < 1e-4

    def test_stage1_encoder_and_heads(self):
        model = f64_model(seed=2)
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(9, 4))
        t_rtm, t_ref = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))

        def loss():
            rtm4, logits, refine4 = stage1_forward(pts, model)
            return ag.add(
                ag.add(huber(rtm4, t_rtm), cross_entropy(logits, np.array([1]))),
                huber(refine4, t_ref),
            )

        err = grad_check(model.stage1_parameters(), loss, rng=rng)
        assert err < 1e-4

    def test_stage2_net(self):
        model = f64_model(seed=3)
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(15, 3))
        target = rng.normal(size=(1, 4))
        err = grad_check(
            model.stage2_parameters(), lambda: huber(stage2_forward(pts, model), target), rng=rng
        )
        assert err < 1e-4

    def test_negative_control_corrupted_backward(self):
        # identity forward whose backward multiplies gradients by 1.5: the
        # checker must flag it well above the 1e-2 bar
        def corrupted(t: Tensor) -> Tensor:
            return Tensor(
                t.data,
                parents=(t,),
                backward_fn=lambda g: (1.5 * g,),
                op="corrupted-identity",
            )

        rng = np.random.default_rng(13)
        w = param(rng.normal(size=(4, 2)))
        b = param(np.zeros(2))
        x = rng.normal(size=(6, 4))
        labels = rng.integers(0, 2, size=6)

        def loss():
            return cross_entropy(corrupted(mlp_forward(Tensor(x), [(w, b)])), labels)

        assert grad_check([w, b], loss, rng=rng) > 1e-2

    def test_relu_kink_nudging(self):
        # preactivation exactly at the ReLU kink: without nudging the finite
        # difference disagrees with the (zero) analytic subgradient
        def build():
            w = param(np.array([[0.0]]))
            b = param(np.array([0.0]))
            def loss():
                h = mlp_forward(Tensor(np.array([[1.0]])), [(w, b), (param(np.array([[1.0]])), param(np.array([0.0])))])
                return huber(h, np.array([[5.0]]))
            return [w, b], loss

        params, loss = build()
        assert grad_check(params, loss, nudge=False, rng=np.random.default_rng(0)) > 1e-2
        params, loss = build()
        assert grad_check(params, loss, nudge=True, rng=np.random.default_rng(0)) < 1e-4

    def test_relu_kink_nudging_in_segmentation_head(self):
        # one hidden unit of the head's first layer (the joined local +
        # pooled input) has an all-zero pre-activation on every row
        def build():
            model = f64_model(seed=4)
            w, b = model.seg_head.layers[0]
            w.data[:, 5] = 0.0
            b.data[5] = 0.0
            return model, b

        rng = np.random.default_rng(15)
        feats = rng.normal(size=(12, 14))
        labels = rng.integers(0, 2, size=12)
        for nudge, holds in ((False, False), (True, True)):
            model, b = build()
            err = grad_check([b], lambda: cross_entropy(segment_forward(feats, model), labels),
                             nudge=nudge, rng=np.random.default_rng(0))
            assert (err < 1e-4) == holds, err

    def test_nudging_gives_up_loudly(self):
        # one ReLU column whose inputs sit 4e-3 apart below zero: each round
        # clears one row and shifts the next onto the kink, so 150 rows
        # outlast the 100-round cap
        n = 150
        x = Tensor(-4e-3 * np.arange(float(n)).reshape(n, 1))
        w, b = param([[1.0]]), param([0.0])
        with pytest.raises(RuntimeError, match="after 100 nudge rounds: 1 pre-activation"):
            grad_check([w, b], lambda: huber(ag.relu(ag.linear(x, w, b)), np.zeros((n, 1))))


class TestModelAndCheckpoint:
    def test_init_deterministic_per_seed(self):
        a = Model(ModelConfig(seed=5))
        b = Model(ModelConfig(seed=5))
        c = Model(ModelConfig(seed=6))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert any(
            not np.array_equal(pa.data, pc.data)
            for pa, pc in zip(a.parameters(), c.parameters())
        )

    def test_checkpoint_round_trip_bit_identical(self, tmp_path):
        model = Model(ModelConfig(seed=7))  # float32 production mode
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, extra={"epochs_trained": 3})
        loaded, extra = load_checkpoint(path)
        assert extra["epochs_trained"] == 3
        assert loaded.config == model.config
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            assert pa.data.dtype == pb.data.dtype
            np.testing.assert_array_equal(pa.data, pb.data)
        # second save of the loaded model is byte-identical
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(loaded, path2, extra={"epochs_trained": 3})
        assert path.read_bytes() == path2.read_bytes()

    def test_sidecar_config_written(self, tmp_path):
        import json
        model = Model(ModelConfig(seed=8))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        sidecar = json.loads((tmp_path / "m.ckpt.json").read_text())
        assert sidecar["config"]["seed"] == 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Model(ModelConfig()), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_undecodable_header_names_the_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Model(ModelConfig()), path)
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFF  # the header's first byte: not UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad header"):
            load_checkpoint(path)

    def test_header_without_config_names_the_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Model(ModelConfig()), path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        header = raw[12 : 12 + header_len].replace(b'"config"', b'"konfig"')
        path.write_bytes(raw[:12] + header + raw[12 + header_len :])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: header lacks key 'config'"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(Model(ModelConfig()), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_parameter_count_plausible(self):
        model = Model(ModelConfig())
        n = sum(p.data.size for p in model.parameters())
        # seg trunk 14->64->128->256 alone is ~42k weights
        assert n > 100_000
