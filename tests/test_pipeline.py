"""Model assembly, variant matrix wiring, and training-loop contracts."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import without_raw
from gazecast import data as D
from gazecast import metrics as M
from gazecast import nn
from gazecast import tensor as T
from gazecast.cli import SCENE_KEYS, _load_scene_spec
from gazecast.config import RUN_KEYS, VARIANTS, RunConfig, config_from_text, load_config
from gazecast.errors import ConfigError, DatasetError
from gazecast.evaluate import evaluate_model
from gazecast.model import GazeTargetModel, build_batch, compute_losses
from gazecast.train import train_model


@pytest.fixture(scope="module")
def tiny_sets():
    plain = D.generate_dataset(D.SceneSpec(seed=9), 20)
    with_out = D.generate_dataset(D.SceneSpec(seed=10, p_out_of_frame=0.3), 20)
    return plain, with_out


def small_cfg(variant, **kw):
    defaults = dict(variant=variant, input_resolution=32, heatmap_resolution=32,
                    epochs=1, batch_size=10, lr=1e-3, seed=3)
    defaults.update(kw)
    return RunConfig(**defaults)


def test_config_roundtrip_and_hash():
    cfg = RunConfig(variant="privacy", epochs=7, lr=3e-4)
    text = cfg.to_text()
    back = config_from_text(text)
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    other = RunConfig(variant="privacy", epochs=8, lr=3e-4)
    assert other.config_hash() != cfg.config_hash()


def test_canonical_config_hash_is_pinned():
    """Checkpoints embed this hash; a change to the config text orphans them."""
    assert RunConfig().config_hash() == "e283e0d65d72a0a5"
    assert RunConfig(precision="f32").config_hash() == "c9076d896e6eece6"


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nmodel.variant = pose_only\ntrain.lr = 2e-3  # inline\n")
    cfg = load_config(p)
    assert cfg.variant == "pose_only"
    assert cfg.lr == 2e-3
    p.write_text("bogus.key = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_every_setting_has_exactly_one_key():
    """Each file key is ``<section>.<field>``, and each field has one key.
    The pinned config hash fixes the run keys; the scene keys are pinned
    here, since renaming a ``SceneSpec`` field renames its key."""
    for keys, cls in ((RUN_KEYS, RunConfig), (SCENE_KEYS, D.SceneSpec)):
        assert sorted(keys.values()) == sorted(f.name for f in dataclasses.fields(cls))
        assert all(key.partition(".")[2] == name for key, name in keys.items())
    assert sorted(SCENE_KEYS) == ["scene.depth_layers", "scene.n_objects", "scene.n_people",
                                  "scene.p_out_of_frame", "scene.resolution", "scene.seed",
                                  "scene.target_rule"]


# every field of RunConfig set away from its default, as a valid combination
NON_DEFAULT_RUN = dict(
    variant="privacy", input_resolution=48, heatmap_resolution=24, feature_channels=8,
    embedding_size=16, stage_channels=(4, 8, 12, 16), heatmap_bounded=False, inout_head=True,
    aperture=2.5, precision="f32", lambda_gaze=50.0, lambda_dir=0.2, lambda_io=2.0,
    lambda_att=0.5, lr=3e-4, weight_decay=0.02, beta1=0.8, beta2=0.99, epsilon=1e-7,
    epochs=3, batch_size=4, p_drop=0.2, seed=9, sigma=2.0, binarization_radius=5.0,
)


def test_every_setting_round_trips(tmp_path):
    """A field missing from the keys would drop out of the canonical text
    and the hash, and come back from a checkpoint as its default."""
    assert set(NON_DEFAULT_RUN) == {f.name for f in dataclasses.fields(RunConfig)}
    default = RunConfig()
    assert all(getattr(default, k) != v for k, v in NON_DEFAULT_RUN.items())
    cfg = RunConfig(**NON_DEFAULT_RUN)
    assert len(cfg.to_text().splitlines()) == len(NON_DEFAULT_RUN)
    assert config_from_text(cfg.to_text()) == cfg
    p = tmp_path / "run.cfg"
    p.write_text(cfg.to_text())
    assert load_config(p) == cfg

    spec = D.SceneSpec(n_objects=5, n_people=3, depth_layers=4, resolution=48, seed=7,
                       target_rule="person", p_out_of_frame=0.25)
    assert all(getattr(spec, f.name) != f.default for f in dataclasses.fields(D.SceneSpec))
    p.write_text("".join(f"{key} = {getattr(spec, name)}\n" for key, name in SCENE_KEYS.items()))
    assert _load_scene_spec(str(p)) == spec
    assert _load_scene_spec(str(p), seed=8) == dataclasses.replace(spec, seed=8)


def test_binarization_radius_follows_sigma_unless_set(tmp_path):
    assert RunConfig().binarization_radius == 9.0
    assert RunConfig(sigma=2.0).binarization_radius == 6.0
    assert RunConfig(sigma=2.0, binarization_radius=4.5).binarization_radius == 4.5
    p = tmp_path / "run.cfg"
    p.write_text("data.sigma = 2\n")
    cfg = load_config(p)
    assert cfg.binarization_radius == 6.0
    assert config_from_text(cfg.to_text()) == cfg


@pytest.mark.parametrize("hm,inp", [(4, 16), (32, 32), (64, 64)])
def test_radius_that_reaches_every_pixel_is_rejected(hm, inp):
    """From the bound up every pixel lies within the radius of any point,
    so every mask is single-class; just below it a corner point's mask is
    not."""
    bound = np.sqrt(2.0) * (hm - 1)
    below, above = bound - 1e-9, bound + 1e-9
    cfg = dict(variant="image_only", input_resolution=inp, heatmap_resolution=hm)
    assert RunConfig(**cfg, binarization_radius=below).binarization_radius == below
    assert not M.binarize_gt([(0.0, 0.0)], hm, hm, below).all()
    for point in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.3)]:
        assert M.binarize_gt([point], hm, hm, above).all()
    with pytest.raises(ConfigError, match="metrics.binarization_radius .*data.sigma"):
        RunConfig(**cfg, binarization_radius=above)
    if hm == 4:   # the default radius of 3 * sigma = 9 covers a 4x4 heatmap
        with pytest.raises(ConfigError, match="model.heatmap_resolution"):
            RunConfig(**cfg)


def test_variant_constraints():
    assert RunConfig(variant="no_modrop", p_drop=0.3).effective_p_drop == 0.0
    assert RunConfig(variant="image_only", p_drop=0.3).effective_p_drop == 0.0
    assert RunConfig(variant="multimodal", p_drop=0.3).effective_p_drop == 0.3
    assert RunConfig(variant="privacy").modalities == ("depth", "pose")
    assert RunConfig(variant="privacy").head_crop_source == "pose"
    assert RunConfig(variant="no_skip").skip_connections is False
    with pytest.raises(ConfigError):
        RunConfig(variant="imaginary")


def test_train_model_on_no_samples_is_data_error():
    with pytest.raises(DatasetError, match="dataset is empty"):
        train_model(small_cfg("multimodal"), [], log=print)


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_matrix_smoke(variant, tiny_sets):
    """Every variant trains one epoch with finite losses and predicts
    shape-identical heatmaps through the same code path."""
    plain, _ = tiny_sets
    cfg = small_cfg(variant)
    if variant == "privacy":
        plain = without_raw(plain)  # the privacy variant never needs the raw image
    model, _ = train_model(cfg, plain)
    batch = build_batch(plain[:4], cfg)
    with T.no_grad():
        result = model(batch)
        losses = compute_losses(result, batch, cfg)
    assert np.isfinite(losses.total_value)
    assert result.heatmap.shape == (4, 1, 32, 32)
    assert np.isfinite(result.heatmap.data).all()
    assert result.weights.shape == (4, len(cfg.modalities))
    assert result.weights.dtype == cfg.dtype
    np.testing.assert_allclose(result.weights.data.sum(axis=1), 1.0, atol=1e-6)


def test_inout_variant_trains(tiny_sets):
    _, with_out = tiny_sets
    cfg = small_cfg("multimodal", inout_head=True)
    model, _ = train_model(cfg, with_out)
    report, dumps = evaluate_model(model, with_out)
    assert report.ap is not None
    assert all(d.inout is not None for d in dumps)


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


def test_eval_results_repeat_exactly(tiny_sets):
    plain, with_out = tiny_sets
    cfg = small_cfg("multimodal", inout_head=True)
    model = GazeTargetModel(cfg)
    runs = []
    for _ in range(2):
        report, dumps = evaluate_model(model, plain + with_out)
        runs.append((report.to_json(), [d.to_json() for d in dumps]))
    assert len(runs[0][1]) == 40  # two batches: 32 + 8
    assert runs[0] == runs[1]
    assert len(T.tape()) == 0


def test_training_is_deterministic(tiny_sets):
    plain, _ = tiny_sets
    cfg = small_cfg("multimodal", epochs=2)
    state_a = train_model(cfg, plain)[0].state_dict()
    state_b = train_model(cfg, plain)[0].state_dict()
    assert list(state_a) == list(state_b)
    for k in state_a:
        np.testing.assert_array_equal(state_a[k], state_b[k])


def test_init_from_single_modality_checkpoint(tiny_sets):
    plain, _ = tiny_sets
    single, _ = train_model(small_cfg("image_only"), plain)
    single_state = single.state_dict()

    cfg = small_cfg("multimodal")
    model = GazeTargetModel(cfg)
    loaded = model.load_state_dict(single_state, strict=False)
    assert any(name.startswith("extractors.raw.") for name in loaded)
    for name, param in model.named_parameters():
        if name in single_state:
            np.testing.assert_array_equal(param.data, single_state[name])


def test_training_leaves_init_states_unchanged(tiny_sets):
    """AdamW updates the parameters in place; the arrays a run starts from
    are the caller's and stay as they were."""
    plain, _ = tiny_sets
    state = GazeTargetModel(small_cfg("multimodal", seed=8)).state_dict()
    before = {name: arr.copy() for name, arr in state.items()}
    model, _ = train_model(small_cfg("multimodal"), plain[:10], init_states=[state])
    params = dict(model.named_parameters())
    for name, arr in state.items():
        np.testing.assert_array_equal(arr, before[name], err_msg=name)
        assert params[name].data is not arr, name


@pytest.mark.parametrize("variant,precision", [("multimodal", "f32"), ("late_fusion", "f64")])
def test_model_built_from_state_equals_fresh_model_loaded_with_it(variant, precision):
    """A state from a differently seeded f64 model, so that every weight
    differs from the fresh draw and the f32 model casts it."""
    cfg = small_cfg(variant, precision=precision, inout_head=True)
    state = GazeTargetModel(small_cfg(variant, inout_head=True, seed=4)).state_dict()
    loaded = GazeTargetModel(cfg)
    loaded.load_state_dict(state)
    built = GazeTargetModel(cfg, state)
    want, got = dict(loaded.named_parameters()), dict(built.named_parameters())
    assert list(got) == list(want)
    for name, p in got.items():
        assert p.data.dtype == want[name].data.dtype == cfg.dtype
        assert p.data.tobytes() == want[name].data.tobytes(), name


def test_model_built_from_state_draws_no_random_number(monkeypatch):
    cfg = small_cfg("multimodal", inout_head=True)
    state = GazeTargetModel(cfg).state_dict()
    kaiming_uniform = nn.kaiming_uniform

    def undrawn(rng, shape, fan_in):
        if rng is not None:
            raise AssertionError(f"a {shape} weight was drawn")
        return kaiming_uniform(rng, shape, fan_in)

    def no_generator(*args):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(nn, "kaiming_uniform", undrawn)
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    model = GazeTargetModel(cfg, state)
    for name, p in model.named_parameters():
        np.testing.assert_array_equal(p.data, state[name])


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_model_built_from_state_takes_its_arrays(precision):
    """Arrays of the configured precision become the parameters as they
    are; the others are cast, and the layers allocate no placeholder."""
    cfg = small_cfg("multimodal", precision=precision, inout_head=True)
    state = GazeTargetModel(small_cfg("multimodal", precision="f32", inout_head=True)).state_dict()
    tracemalloc.start()
    try:
        model = GazeTargetModel(cfg, state)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cast = 0 if precision == "f32" else sum(a.nbytes * 2 for a in state.values())
    assert allocated < cast + (1 << 20)
    for name, p in model.named_parameters():
        assert p.data.dtype == cfg.dtype
        assert (p.data is state[name]) == (precision == "f32"), name
        np.testing.assert_array_equal(p.data, state[name])


def test_train_shard_backward_peak_memory():
    """One b8 f32 multimodal forward and backward at 64x64, the unit a train
    worker runs, keeps below 20 MB after its forward and peaks below 28 MB:
    each conv and its ReLU keep one output, the stride-1 convs keep no
    padded copy of their input, the strided convs keep neither phase images
    nor columns but rebuild both from their input, each FPN join keeps one
    sum and no upsampled map, and the replay frees each node once passed."""
    cfg = RunConfig(variant="multimodal", precision="f32")
    model = GazeTargetModel(cfg)
    batch = build_batch(D.generate_dataset(D.SceneSpec(seed=3), 8), cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = compute_losses(model(batch), batch, cfg).total
        kept = tracemalloc.get_traced_memory()[0] - base
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in model.parameters())
    assert kept < 20e6, kept / 1e6
    assert peak < 28e6, peak / 1e6


def test_loss_decreases_over_training(tiny_sets):
    plain, _ = tiny_sets
    cfg = small_cfg("multimodal", epochs=4, seed=11)
    fresh = GazeTargetModel(cfg)
    batch = build_batch(plain, cfg)
    with T.no_grad():
        before = compute_losses(fresh(batch), batch, cfg).total_value
    model, _ = train_model(cfg, plain)
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


def test_loss_csv_format(tiny_sets):
    plain, _ = tiny_sets
    _, loss_csv = train_model(small_cfg("multimodal"), plain)
    lines = loss_csv.strip().splitlines()
    assert lines[0] == "step,loss_gaze,loss_dir,loss_io,loss_att,loss_total"
    assert len(lines) == 1 + 2  # 20 samples / batch 10 = 2 steps
    parts = lines[1].split(",")
    assert len(parts) == 6
    # total reproducible from components under the config's coefficients
    cfg = small_cfg("multimodal")
    total = (cfg.lambda_gaze * float(parts[1]) + cfg.lambda_dir * float(parts[2])
             + cfg.lambda_io * float(parts[3]) + cfg.lambda_att * float(parts[4]))
    assert total == pytest.approx(float(parts[5]), rel=1e-12)
