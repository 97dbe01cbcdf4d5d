"""Shape contracts, parameter layout, and gradient reachability of encoders."""

import numpy as np
import pytest

from gazecast import encoders as E
from gazecast import tensor as T
from gazecast.config import RunConfig
from gazecast.errors import ConfigError, ShapeMismatchError
from gazecast.tensor import Tensor

CFG = RunConfig()


def test_config_resolution_contract():
    assert CFG.feature_resolution == 16
    with pytest.raises(ConfigError):
        RunConfig(input_resolution=60)


def test_concat_modality_inputs_order():
    rng = np.random.default_rng(0)
    mod = Tensor(rng.random((3, 64, 64)))
    cone = Tensor(rng.random((1, 64, 64)))
    mask = Tensor(rng.random((1, 64, 64)))
    out = E.concat_modality_inputs(mod, cone, mask)
    assert out.shape == (5, 64, 64)
    np.testing.assert_array_equal(out.data[3], cone.data[0])
    np.testing.assert_array_equal(out.data[4], mask.data[0])
    with pytest.raises(ShapeMismatchError):
        E.concat_modality_inputs(mod, Tensor(rng.random((1, 32, 32))), mask)


def test_gaze_subnet_unit_norm_and_determinism():
    rng = np.random.default_rng(1)
    net = E.GazeSubnet(CFG, np.random.default_rng(7))
    crop = Tensor(rng.random((4, 3, 64, 64)))
    out1 = net(crop)
    out2 = net(crop)
    norms = np.linalg.norm(out1.direction.data, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)
    np.testing.assert_array_equal(out1.direction.data, out2.direction.data)
    np.testing.assert_array_equal(out1.embedding.data, out2.embedding.data)
    assert out1.embedding.shape == (4, CFG.embedding_size)


def test_gaze_subnet_rejects_wrong_channels():
    net = E.GazeSubnet(CFG, np.random.default_rng(7))
    with pytest.raises(ShapeMismatchError):
        net(Tensor(np.zeros((1, 4, 64, 64))))


def test_scene_extractor_output_shape():
    net = E.SceneExtractor(CFG, np.random.default_rng(3))
    x = Tensor(np.random.default_rng(0).random((2, 5, 64, 64)))
    out = net(x)
    assert out.shape == (2, CFG.feature_channels, 16, 16)


def test_noskip_same_shape_different_params():
    cfg_skip = RunConfig()
    cfg_nosk = RunConfig(variant="no_skip")
    a = E.SceneExtractor(cfg_skip, np.random.default_rng(3))
    b = E.SceneExtractor(cfg_nosk, np.random.default_rng(3))
    x = Tensor(np.random.default_rng(1).random((1, 5, 64, 64)))
    assert a(x).shape == b(x).shape

    names_a = {n for n, _ in a.named_parameters()}
    names_b = {n for n, _ in b.named_parameters()}
    extra = names_a - names_b
    assert extra == {
        "lateral_mid.weight", "lateral_mid.bias",
        "lateral_quarter.weight", "lateral_quarter.bias",
    }
    assert names_b - names_a == set()


def test_gradient_reaches_every_stage_with_skips():
    net = E.SceneExtractor(CFG, np.random.default_rng(5))
    x = Tensor(np.random.default_rng(2).random((2, 5, 64, 64)))
    out = net(x)
    T.backward(T.tsum(out))
    for name, p in net.named_parameters():
        assert p.grad is not None, f"{name} got no gradient"
        assert np.abs(p.grad).max() > 0.0, f"{name} gradient identically zero"


def test_extractors_have_disjoint_parameters():
    rng = np.random.default_rng(11)
    nets = {m: E.SceneExtractor(CFG, rng) for m in CFG.modalities}
    ids = {}
    for m, net in nets.items():
        for name, p in net.named_parameters():
            key = id(p)
            assert key not in ids, f"parameter shared between {ids.get(key)} and {m}.{name}"
            ids[key] = f"{m}.{name}"
    # perturbing one extractor leaves the others' outputs unchanged
    x = Tensor(np.random.default_rng(0).random((1, 5, 64, 64)))
    before = nets["pose"](x).data.copy()
    nets["raw"].stages[0].weight.data += 1.0
    np.testing.assert_array_equal(nets["pose"](x).data, before)
