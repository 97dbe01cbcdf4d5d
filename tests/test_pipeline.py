"""Model assembly, variant matrix wiring, and training-loop contracts."""

import numpy as np
import pytest

from conftest import without_raw
from gazecast import data as D
from gazecast import tensor as T
from gazecast.config import VARIANTS, RunConfig, config_from_text, load_config
from gazecast.errors import ConfigError
from gazecast.evaluate import evaluate_model
from gazecast.model import GazeTargetModel, build_batch, compute_losses
from gazecast.train import train_model


@pytest.fixture(scope="module")
def tiny_sets():
    plain = D.generate_dataset(D.SceneSpec(rng_seed=9), 20)
    with_out = D.generate_dataset(D.SceneSpec(rng_seed=10, p_out_of_frame=0.3), 20)
    return plain, with_out


def small_cfg(variant, **kw):
    defaults = dict(variant=variant, input_resolution=32, heatmap_resolution=32,
                    epochs=1, batch_size=10, learning_rate=1e-3, seed=3)
    defaults.update(kw)
    return RunConfig(**defaults)


def test_config_roundtrip_and_hash():
    cfg = RunConfig(variant="privacy", epochs=7, learning_rate=3e-4)
    text = cfg.to_text()
    back = config_from_text(text)
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    other = RunConfig(variant="privacy", epochs=8, learning_rate=3e-4)
    assert other.config_hash() != cfg.config_hash()


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nmodel.variant = pose_only\ntrain.lr = 2e-3  # inline\n")
    cfg = load_config(p)
    assert cfg.variant == "pose_only"
    assert cfg.learning_rate == 2e-3
    p.write_text("bogus.key = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_variant_constraints():
    assert RunConfig(variant="no_modrop", p_drop=0.3).effective_p_drop == 0.0
    assert RunConfig(variant="image_only", p_drop=0.3).effective_p_drop == 0.0
    assert RunConfig(variant="multimodal", p_drop=0.3).effective_p_drop == 0.3
    assert RunConfig(variant="privacy").modalities == ("depth", "pose")
    assert RunConfig(variant="privacy").head_crop_source == "pose"
    assert RunConfig(variant="no_skip").skip_connections is False
    with pytest.raises(ConfigError):
        RunConfig(variant="imaginary")


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_matrix_smoke(variant, tiny_sets):
    """Every variant trains one epoch with finite losses and predicts
    shape-identical heatmaps through the same code path."""
    plain, _ = tiny_sets
    cfg = small_cfg(variant)
    if variant == "privacy":
        plain = without_raw(plain)  # the privacy variant never needs the raw image
    model = train_model(cfg, plain)
    batch = build_batch(plain[:4], cfg)
    with T.no_grad():
        result = model(batch)
        losses = compute_losses(result, batch, cfg)
    assert np.isfinite(losses.total_value)
    assert result.heatmap.shape == (4, 1, 32, 32)
    assert np.isfinite(result.heatmap.data).all()
    if cfg.fusion_enabled:
        np.testing.assert_allclose(result.weights.data.sum(axis=1), 1.0, atol=1e-6)
    else:
        assert result.weights is None


def test_inout_variant_trains(tiny_sets):
    _, with_out = tiny_sets
    cfg = small_cfg("multimodal", inout_head=True)
    model = train_model(cfg, with_out)
    report, dumps = evaluate_model(model, with_out, cfg)
    assert report.ap is not None
    assert all(d.inout_score is not None for d in dumps)


@pytest.mark.parametrize("first,second", [("f64", "f32"), ("f32", "f64")])
def test_model_precision_does_not_leak(tiny_sets, first, second):
    """Building a model of another precision leaves a model's outputs alone."""
    plain, _ = tiny_sets
    dtype = {"f64": np.float64, "f32": np.float32}[first]
    cfg = small_cfg("multimodal", precision=first)
    model = GazeTargetModel(cfg)
    assert all(p.dtype == dtype for p in model.parameters())
    with T.no_grad():
        before = model(build_batch(plain[:4], cfg)).heatmap.data
        GazeTargetModel(small_cfg("multimodal", precision=second))
        after = model(build_batch(plain[:4], cfg)).heatmap.data
    assert before.dtype == after.dtype == dtype
    np.testing.assert_array_equal(after, before)


def test_eval_results_do_not_depend_on_thread_count(tiny_sets, monkeypatch):
    plain, with_out = tiny_sets
    cfg = small_cfg("multimodal", inout_head=True)
    model = GazeTargetModel(cfg)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GAZECAST_THREADS", threads)
        report, dumps = evaluate_model(model, plain + with_out, cfg, batch_size=8)
        runs.append((report.to_json(), [d.to_json() for d in dumps]))
    assert len(runs[0][1]) == 40  # five batches
    assert runs[0] == runs[1]
    assert len(T.tape()) == 0


def test_training_is_deterministic(tiny_sets):
    plain, _ = tiny_sets
    cfg = small_cfg("multimodal", epochs=2)
    state_a = train_model(cfg, plain).state_dict()
    state_b = train_model(cfg, plain).state_dict()
    assert list(state_a) == list(state_b)
    for k in state_a:
        np.testing.assert_array_equal(state_a[k], state_b[k])


def test_init_from_single_modality_checkpoint(tiny_sets):
    plain, _ = tiny_sets
    single = train_model(small_cfg("image_only"), plain)
    single_state = single.state_dict()

    cfg = small_cfg("multimodal")
    model = GazeTargetModel(cfg)
    loaded = model.load_state_dict(single_state, strict=False)
    assert any(name.startswith("extractors.raw.") for name in loaded)
    for name, param in model.named_parameters():
        if name in single_state:
            np.testing.assert_array_equal(param.data, single_state[name])


def test_loss_decreases_over_training(tiny_sets):
    plain, _ = tiny_sets
    cfg = small_cfg("multimodal", epochs=4, seed=11)
    fresh = GazeTargetModel(cfg)
    batch = build_batch(plain, cfg)
    with T.no_grad():
        before = compute_losses(fresh(batch), batch, cfg).total_value
    model = train_model(cfg, plain)
    with T.no_grad():
        after = compute_losses(model(batch), batch, cfg).total_value
    assert after < before


def test_gradient_reaches_gaze_subnet_through_cone(tiny_sets):
    """With the direction loss switched off, heatmap loss gradients still
    reach the gaze subnetwork -- the cone keeps the path differentiable."""
    plain, _ = tiny_sets
    cfg = small_cfg("multimodal", lambda_dir=0.0, p_drop=0.0)
    model = GazeTargetModel(cfg)
    batch = build_batch(plain[:6], cfg)
    T.fresh_tape()
    losses = compute_losses(model(batch), batch, cfg)
    T.backward(losses.total)
    grads = [np.abs(p.grad).max() for n, p in model.named_parameters()
             if n.startswith("gaze_subnet.") and p.grad is not None]
    assert grads and max(grads) > 0.0


def test_loss_csv_format(tiny_sets, tmp_path):
    plain, _ = tiny_sets
    csv_path = tmp_path / "loss.csv"
    train_model(small_cfg("multimodal"), plain, csv_path=csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "step,loss_gaze,loss_dir,loss_io,loss_att,loss_total"
    assert len(lines) == 1 + 2  # 20 samples / batch 10 = 2 steps
    parts = lines[1].split(",")
    assert len(parts) == 6
    # total reproducible from components under the config's coefficients
    cfg = small_cfg("multimodal")
    total = (cfg.lambda_gaze * float(parts[1]) + cfg.lambda_dir * float(parts[2])
             + cfg.lambda_io * float(parts[3]) + cfg.lambda_att * float(parts[4]))
    assert total == pytest.approx(float(parts[5]), rel=1e-12)
