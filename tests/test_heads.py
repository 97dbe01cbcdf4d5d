"""Prediction heads, the four losses, and their weighted combination."""

import numpy as np
import pytest

from gazecast import heads as H
from gazecast import nn
from gazecast import tensor as T
from gazecast.config import RunConfig
from gazecast.errors import ShapeMismatchError
from gazecast.fusion import DropoutPlan
from gazecast.tensor import Tensor

CFG = RunConfig()
MODALITIES = CFG.modalities
D = CFG.feature_channels


def test_heatmap_head_shape_and_range():
    head = H.HeatmapHead(CFG, np.random.default_rng(0))
    fmap = Tensor(np.random.default_rng(1).normal(size=(2, D, 16, 16)))
    out = head(fmap)
    assert out.shape == (2, 1, 64, 64)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_heatmap_head_unbounded_option():
    head = H.HeatmapHead(RunConfig(heatmap_bounded=False), np.random.default_rng(0))
    out = head(Tensor(np.random.default_rng(1).normal(size=(1, D, 16, 16))))
    assert out.data.min() < 0.0 or out.data.max() > 1.0


def test_heatmap_gradient_reaches_feature_map():
    head = H.HeatmapHead(CFG, np.random.default_rng(2))
    fmap = Tensor(np.random.default_rng(3).normal(size=(1, D, 16, 16)), requires_grad=True)
    T.backward(T.tsum(head(fmap)))
    assert fmap.grad is not None and np.abs(fmap.grad).max() > 0.0


def test_argmax_point_one_hot_and_ties():
    img = np.zeros((1, 64, 64))
    img[0, 10, 20] = 1.0
    assert H.argmax_point(img) == ((20 + 0.5) / 64, (10 + 0.5) / 64)
    flat = np.full((1, 8, 8), 0.3)
    assert H.argmax_point(flat) == (0.5 / 8, 0.5 / 8)


def test_argmax_invariant_to_positive_scaling():
    rng = np.random.default_rng(5)
    img = rng.random((1, 32, 32))
    assert H.argmax_point(img) == H.argmax_point(img * 7.3)


def test_inout_head_range_and_concat_width():
    head = H.InOutHead(CFG, np.random.default_rng(6))
    fmap = Tensor(np.random.default_rng(7).normal(size=(3, D, 16, 16)))
    emb = Tensor(np.random.default_rng(8).normal(size=(3, CFG.embedding_size)))
    out = head(fmap, emb)
    assert out.shape == (3,)
    assert np.all((out.data > 0.0) & (out.data < 1.0))
    assert head.fc1.weight.shape == (CFG.embedding_size, 2 * CFG.embedding_size)


def test_loss_gaze_values():
    a = Tensor(np.random.default_rng(9).random((2, 1, 8, 8)))
    both = np.ones(2)
    assert H.loss_gaze(a, a, both).item() == 0.0
    b = Tensor(a.data + 0.1)
    assert H.loss_gaze(b, a, both).item() == pytest.approx(0.01, abs=1e-12)
    with pytest.raises(ShapeMismatchError):
        H.loss_gaze(a, Tensor(np.zeros((2, 1, 4, 4))), both)


def test_loss_gaze_matches_scalar_loop():
    rng = np.random.default_rng(10)
    p = rng.random((2, 1, 5, 5))
    q = rng.random((2, 1, 5, 5))
    got = H.loss_gaze(Tensor(p), Tensor(q), np.ones(2)).item()
    acc = 0.0
    for n in range(2):
        for i in range(5):
            for j in range(5):
                acc += (p[n, 0, i, j] - q[n, 0, i, j]) ** 2
    assert abs(got - acc / 50.0) < 1e-12


def test_loss_gaze_respects_sample_mask():
    rng = np.random.default_rng(11)
    p = Tensor(rng.random((3, 1, 4, 4)))
    q = Tensor(rng.random((3, 1, 4, 4)))
    mask = np.array([1.0, 0.0, 1.0])
    got = H.loss_gaze(p, q, mask).item()
    expect = (((p.data - q.data) ** 2)[[0, 2]]).mean()
    assert got == pytest.approx(expect, abs=1e-12)
    assert H.loss_gaze(p, q, np.zeros(3)).item() == 0.0


def test_loss_dir_extremes():
    e = Tensor(np.array([[1.0, 0.0]]))
    for target, loss in (([1.0, 0.0], 0.0), ([-1.0, 0.0], 2.0), ([0.0, 1.0], 1.0)):
        got = H.loss_dir(e, Tensor(np.array([target])), np.ones(1)).item()
        assert got == pytest.approx(loss, abs=1e-12)


def test_loss_io_values_and_formula():
    p = Tensor(np.array([0.5]))
    assert H.loss_io(p, np.array([1.0])).item() == pytest.approx(np.log(2.0), abs=1e-12)
    near = Tensor(np.array([0.999999]))
    assert H.loss_io(near, np.array([1.0])).item() < 1e-5

    rng = np.random.default_rng(12)
    probs = rng.uniform(0.01, 0.99, size=8)
    labels = rng.integers(0, 2, size=8).astype(float)
    got = H.loss_io(Tensor(probs), labels).item()
    ref = -np.mean(labels * np.log(probs) + (1 - labels) * np.log(1 - probs))
    assert abs(got - ref) < 1e-12


def test_loss_io_extreme_inputs_clamped():
    p = Tensor(np.array([0.0, 1.0]))
    val = H.loss_io(p, np.array([1.0, 0.0])).item()
    assert np.isfinite(val)


def test_loss_att_empty_and_uniform():
    w = Tensor(np.full((4, 3), 1.0 / 3.0))
    empty = H.loss_att(w, DropoutPlan(frozenset(), 0), MODALITIES)
    assert empty.item() == 0.0
    plan = DropoutPlan(frozenset({"depth", "pose"}), 0)
    assert H.loss_att(w, plan, MODALITIES).item() == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_loss_att_gradient_pushes_dropped_weight_down():
    logits = Tensor(np.zeros((2, 3)), requires_grad=True)
    w = T.softmax(logits, axis=1)
    plan = DropoutPlan(frozenset({"pose"}), 0)
    loss = H.loss_att(w, plan, MODALITIES)
    T.backward(loss)
    # descending on the loss lowers the dropped modality's logit
    assert logits.grad[0, 2] > 0.0
    assert logits.grad[0, 0] < 0.0 and logits.grad[0, 1] < 0.0


def test_total_loss_paper_coefficients():
    cfg = RunConfig()
    zero = Tensor(np.zeros(()))
    parts = H.total_loss(zero, zero, zero, zero, cfg)
    assert parts.total_value == 0.0

    gaze = Tensor(np.asarray(0.01))
    parts = H.total_loss(gaze, zero, zero, zero, cfg)
    assert parts.total_value == pytest.approx(1.0, abs=1e-15)

    d1 = H.total_loss(zero, Tensor(np.asarray(0.5)), zero, zero, cfg).total_value
    d2 = H.total_loss(zero, Tensor(np.asarray(1.0)), zero, zero, cfg).total_value
    assert d2 - d1 == pytest.approx(0.1 * 0.5, abs=1e-15)


def test_total_loss_bit_exact_decomposition():
    cfg = RunConfig()
    rng = np.random.default_rng(13)
    vals = [Tensor(np.asarray(v)) for v in rng.random(4)]
    parts = H.total_loss(*vals, cfg)
    recomputed = (
        cfg.lambda_gaze * parts.gaze
        + cfg.lambda_dir * parts.direction
        + cfg.lambda_io * parts.inout
        + cfg.lambda_att * parts.attention
    )
    assert recomputed == parts.total_value  # bit-exact


def test_one_optimizer_step_decreases_total_loss():
    # learning-sanity at lr=1e-3 over 10 seeds; at least 9 must improve
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        head = H.HeatmapHead(RunConfig(heatmap_resolution=32), np.random.default_rng(seed + 100))
        fmap = Tensor(rng.normal(size=(2, D, 16, 16)))
        target = Tensor(rng.random((2, 1, 32, 32)))

        def run_loss():
            return H.loss_gaze(head(fmap), target, np.ones(2))

        T.fresh_tape()
        loss0 = run_loss()
        T.backward(T.scale(loss0, 100.0))
        opt = nn.AdamW(head.parameters(), lr=1e-3, betas=(0.9, 0.999),
                       epsilon=1e-8, weight_decay=0.0)
        opt.step()
        T.fresh_tape()
        if run_loss().item() < loss0.item():
            wins += 1
        head.zero_grad()
    assert wins >= 9
