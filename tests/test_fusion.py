"""Attention fusion contracts and the modality-dropout sampler."""

import numpy as np
import pytest

from gazecast import fusion as F
from gazecast import tensor as T
from gazecast.config import RunConfig
from gazecast.errors import DomainError, ShapeMismatchError
from gazecast.tensor import Tensor

CFG = RunConfig()
MODALITIES = CFG.modalities
D = CFG.feature_channels


def make_fusion(seed=0):
    return F.AttentionFusion(CFG, np.random.default_rng(seed))


def rand_maps(seed=0, n=2, hw=16):
    rng = np.random.default_rng(seed)
    return {m: Tensor(rng.normal(size=(n, D, hw, hw))) for m in MODALITIES}


def test_transform_identity_initialized():
    fus = make_fusion()
    eye = np.eye(D).reshape(D, D, 1, 1)
    fus.transforms["raw"].weight.data = eye.copy()
    fus.transforms["raw"].bias.data = np.zeros(D)
    fmap = Tensor(np.random.default_rng(1).normal(size=(2, D, 16, 16)))
    out = fus.transforms["raw"](fmap)
    np.testing.assert_allclose(out.data, fmap.data, atol=1e-12)


def test_transform_shapes_and_disjoint_weights():
    fus = make_fusion()
    fmap = Tensor(np.random.default_rng(2).normal(size=(1, D, 16, 16)))
    assert fus.transforms["pose"](fmap).shape == (1, D, 16, 16)
    before = fus.transforms["pose"](fmap).data.copy()
    fus.transforms["raw"].weight.data += 5.0
    np.testing.assert_array_equal(fus.transforms["pose"](fmap).data, before)


def test_embed_shape_trajectory_and_zero_input():
    fus = make_fusion()
    tmap = Tensor(np.zeros((2, D, 16, 16)))
    emb = fus.embedders["depth"](tmap)
    assert emb.shape == (2, CFG.embedding_size)
    # zero input through zero-bias convs and linear stays exactly zero
    np.testing.assert_array_equal(emb.data, np.zeros((2, CFG.embedding_size)))


def test_embedding_sensitive_to_channel_max():
    fus = make_fusion(3)
    rng = np.random.default_rng(4)
    tmap = rng.normal(size=(1, D, 16, 16))
    base = fus.embedders["raw"](Tensor(tmap)).data.copy()
    bumped = tmap.copy()
    bumped[0, 0, 7, 9] += 10.0  # new channel max somewhere mid-map
    out = fus.embedders["raw"](Tensor(bumped)).data
    assert np.abs(out - base).max() > 0.0


def test_attention_weights_uniform_and_saturated():
    fus = make_fusion()
    n_mod = len(MODALITIES)
    fus.projection.weight.data = np.zeros_like(fus.projection.weight.data)
    fus.projection.bias.data = np.zeros(n_mod)
    embs = [Tensor(np.random.default_rng(5).normal(size=(3, CFG.embedding_size)))
            for _ in MODALITIES]
    w = fus.attention_weights(embs)
    np.testing.assert_allclose(w.data, 1.0 / n_mod, atol=1e-12)

    big = 500.0 / fus.logit_scale  # saturating gap after logit scaling
    fus.projection.bias.data = np.array([big, -big, -big])
    w2 = fus.attention_weights(embs)
    np.testing.assert_allclose(w2.data[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(w2.data[:, 1:], 0.0, atol=1e-12)


def test_attention_weights_shift_invariant_and_simplex():
    fus = make_fusion(6)
    rng = np.random.default_rng(6)
    embs = [Tensor(rng.normal(size=(4, CFG.embedding_size))) for _ in MODALITIES]
    w1 = fus.attention_weights(embs).data
    fus.projection.bias.data = fus.projection.bias.data + 3.7
    w2 = fus.attention_weights(embs).data
    np.testing.assert_allclose(w1, w2, atol=1e-12)
    np.testing.assert_allclose(w1.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(w1 > 0.0) and np.all(w1 < 1.0)


def test_fuse_one_hot_and_uniform():
    maps = rand_maps(7)
    stack = [maps[m] for m in MODALITIES]
    one_hot = Tensor(np.tile([1.0, 0.0, 0.0], (2, 1)))
    np.testing.assert_array_equal(F.fuse(stack, one_hot).data, maps["raw"].data)

    same = [maps["depth"]] * 3
    uniform = Tensor(np.full((2, 3), 1.0 / 3.0))
    np.testing.assert_allclose(F.fuse(same, uniform).data, maps["depth"].data, atol=1e-12)


def test_fuse_superposition_linearity():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(1, D, 8, 8)))
    b = Tensor(rng.normal(size=(1, D, 8, 8)))
    other = Tensor(rng.normal(size=(1, D, 8, 8)))
    w = Tensor(np.array([[0.6, 0.4]]))
    lhs = F.fuse([T.add(a, b), other], w).data
    rhs = F.fuse([a, other], w).data + F.fuse([b, Tensor(np.zeros_like(other.data))], w).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_fuse_gradient_wrt_weight_is_map():
    maps = rand_maps(11, n=1, hw=4)
    w = Tensor(np.full((1, 3), 1.0 / 3.0), requires_grad=True)
    out = F.fuse([maps[m] for m in MODALITIES], w)
    T.backward(T.tsum(out))
    for mi, m in enumerate(MODALITIES):
        assert w.grad[0, mi] == pytest.approx(maps[m].data.sum(), rel=1e-12)


def test_fuse_count_mismatch():
    maps = rand_maps(12, n=1, hw=4)
    with pytest.raises(ShapeMismatchError):
        F.fuse([maps["raw"], maps["depth"]], Tensor(np.full((1, 3), 1 / 3)))


def test_dropout_plan_probability():
    rng = np.random.default_rng(13)
    draws = 10_000
    nonempty = sum(
        bool(F.sample_dropout_plan(MODALITIES, 0.3, rng).dropped) for _ in range(draws)
    )
    assert abs(nonempty / draws - 0.3) < 0.02


def test_dropout_plan_contracts():
    rng = np.random.default_rng(14)
    for _ in range(500):
        plan = F.sample_dropout_plan(MODALITIES, 0.9, rng)
        assert plan.dropped != frozenset(MODALITIES)
    assert not F.sample_dropout_plan(MODALITIES, 0.0, rng).dropped
    with pytest.raises(DomainError):
        F.sample_dropout_plan(("raw",), 0.5, rng)


def test_dropout_plan_covers_all_strict_subsets():
    rng = np.random.default_rng(15)
    seen = set()
    for _ in range(2000):
        plan = F.sample_dropout_plan(MODALITIES, 1.0, rng)
        seen.add(plan.dropped)
    assert len(seen) == 6  # 2^3 - 2 nonempty strict subsets


def test_apply_dropout_passthrough_and_noise():
    img = np.random.default_rng(16).random((3, 8, 8))
    clean = F.apply_dropout(img, F.DropoutPlan(frozenset(), 42), "raw")
    assert clean is img

    plan = F.DropoutPlan(frozenset({"raw"}), 1234)
    noisy1 = F.apply_dropout(img, plan, "raw")
    noisy2 = F.apply_dropout(img, plan, "raw")
    assert noisy1.min() >= 0.0 and noisy1.max() < 1.0
    np.testing.assert_array_equal(noisy1, noisy2)
    assert np.abs(noisy1 - img).max() > 0.0
    # different modality id under the same seed gives different noise
    plan2 = F.DropoutPlan(frozenset({"raw", "pose"}), 1234)
    other = F.apply_dropout(img, plan2, "pose")
    assert np.abs(other - noisy1).max() > 0.0


def test_full_forward_weights_and_recombination():
    fus = make_fusion(17)
    maps = rand_maps(18)
    out = fus(maps)
    np.testing.assert_allclose(out.weights.data.sum(axis=1), 1.0, atol=1e-9)
    recombined = F.fuse([fus.transforms[m](maps[m]) for m in MODALITIES], out.weights)
    np.testing.assert_array_equal(out.combined.data, recombined.data)


def test_late_fusion_inject_shapes_and_constant_cone():
    rng = np.random.default_rng(19)
    inject = F.LateFusionInject(D, np.random.default_rng(20))
    fmap = Tensor(rng.normal(size=(2, D, 16, 16)))
    cone = Tensor(np.full((2, 1, 64, 64), 0.25))
    mask = Tensor(rng.random((2, 1, 64, 64)))
    # project input channel D (the pooled cone) onto output channel 0
    inject.project.weight.data[:] = 0.0
    inject.project.weight.data[0, D] = 1.0
    inject.project.bias.data[:] = 0.0
    out = inject(fmap, cone, mask)
    assert out.shape == (2, D, 16, 16)
    np.testing.assert_allclose(out.data[:, 0], 0.25, atol=1e-12)
    with pytest.raises(ShapeMismatchError):
        inject(fmap, Tensor(np.zeros((2, 1, 60, 60))), mask)
