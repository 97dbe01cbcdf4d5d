"""End-to-end command flows via the CLI entry point (in-process)."""

import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from conftest import without_raw
from gazecast.cli import main
from gazecast.data import read_dataset, write_dataset
from gazecast.geometry import read_pgm


def dir_hash(path):
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            h.update(name.encode())
            with open(os.path.join(root, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + one trained tiny checkpoint, shared here."""
    tmp = tmp_path_factory.mktemp("cli")
    scene = tmp / "scene.cfg"
    scene.write_text("scene.seed = 21\nscene.resolution = 32\n")
    assert main(["gen", "--spec", str(scene), "--out", str(tmp / "data"),
                 "--count", "30"]) == 0
    cfg = tmp / "run.cfg"
    cfg.write_text(
        "model.variant = multimodal\n"
        "model.input_resolution = 32\n"
        "model.heatmap_resolution = 32\n"
        "model.precision = f32\n"
        "train.epochs = 2\n"
        "train.lr = 1e-3\n"
        "train.batch_size = 10\n"
    )
    assert main(["train", "--config", str(cfg), "--data", str(tmp / "data"),
                 "--out", str(tmp / "model.ckpt"), "--csv", str(tmp / "loss.csv")]) == 0
    return tmp


def test_gen_empty_dataset(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "empty"), "--count", "0"]) == 0
    assert (tmp_path / "empty" / "manifest.jsonl").exists()


def test_gen_deterministic_hash(tmp_path):
    scene = tmp_path / "scene.cfg"
    scene.write_text("scene.seed = 77\nscene.resolution = 32\n")
    assert main(["gen", "--spec", str(scene), "--out", str(tmp_path / "a"), "--count", "10"]) == 0
    assert main(["gen", "--spec", str(scene), "--out", str(tmp_path / "b"), "--count", "10"]) == 0
    assert dir_hash(tmp_path / "a") == dir_hash(tmp_path / "b")


@pytest.mark.parametrize("spec", ["scene.bogus = 1\n", "scene.n_objects = abc\n"],
                         ids=["unknown-key", "bad-value"])
def test_gen_rejects_bad_spec(tmp_path, spec):
    bad = tmp_path / "bad.cfg"
    bad.write_text(spec)
    assert main(["gen", "--spec", str(bad), "--out", str(tmp_path / "x"), "--count", "1"]) == 1


def test_train_loss_csv_written(workspace):
    lines = (workspace / "loss.csv").read_text().strip().splitlines()
    assert lines[0].startswith("step,loss_gaze")
    assert len(lines) == 1 + 2 * 3  # 2 epochs x ceil(30/10) steps


def test_train_resume_determinism(workspace, tmp_path):
    cfg = workspace / "run.cfg"
    out1 = tmp_path / "a.ckpt"
    out2 = tmp_path / "b.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                 "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == (workspace / "model.ckpt").read_bytes()


def test_train_init_seeds_extractor(workspace, tmp_path):
    single_cfg = tmp_path / "single.cfg"
    single_cfg.write_text(
        "model.variant = image_only\n"
        "model.input_resolution = 32\n"
        "model.heatmap_resolution = 32\n"
        "model.precision = f32\n"
        "train.epochs = 1\n"
        "train.batch_size = 10\n"
    )
    single_ckpt = tmp_path / "single.ckpt"
    assert main(["train", "--config", str(single_cfg), "--data", str(workspace / "data"),
                 "--out", str(single_ckpt)]) == 0

    multi_cfg = tmp_path / "multi.cfg"
    multi_cfg.write_text(
        "model.variant = multimodal\n"
        "model.input_resolution = 32\n"
        "model.heatmap_resolution = 32\n"
        "model.precision = f32\n"
        "train.epochs = 0\n"  # initialization only
        "train.batch_size = 10\n"
    )
    multi_ckpt = tmp_path / "multi.ckpt"
    assert main(["train", "--config", str(multi_cfg), "--data", str(workspace / "data"),
                 "--out", str(multi_ckpt), "--init", str(single_ckpt)]) == 0

    from gazecast.serialization import load_checkpoint

    single_state, _, _ = load_checkpoint(single_ckpt)
    multi_state, _, _ = load_checkpoint(multi_ckpt)
    for name, arr in single_state.items():
        if name.startswith("extractors.raw."):
            np.testing.assert_array_equal(multi_state[name], arr)


def test_eval_report_and_dump_consistency(workspace, tmp_path):
    report_path = tmp_path / "report.json"
    dump_path = tmp_path / "dump.jsonl"
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"),
                 "--data", str(workspace / "data"),
                 "--report", str(report_path), "--dump", str(dump_path)]) == 0
    report = json.loads(report_path.read_text())
    dumps = [json.loads(l) for l in dump_path.read_text().strip().splitlines()]
    assert len(dumps) == report["n_samples"] == 30
    # report's mean attention equals the dump mean, same data
    for modality in ("raw", "depth", "pose"):
        vals = [d["weights"][modality] for d in dumps]
        assert np.isfinite(vals).all()
    mean_avg = np.mean([d["avg_dist"] for d in dumps if d["in_frame"]])
    assert report["avg_dist"] == pytest.approx(mean_avg, abs=1e-9)
    assert report["config_hash"]


def test_eval_oracle_upper_bound(workspace, tmp_path):
    report_path = tmp_path / "oracle.json"
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"),
                 "--data", str(workspace / "data"),
                 "--report", str(report_path), "--oracle"]) == 0
    report = json.loads(report_path.read_text())
    assert report["auc"] == 1.0
    # distances bounded by argmax pixel quantization (half-pixel diagonal)
    assert report["avg_dist"] <= (2 ** 0.5) / (2 * 32) + 1e-12


def test_infer_renders_pgm(workspace, tmp_path):
    render = tmp_path / "render"
    assert main(["infer", "--ckpt", str(workspace / "model.ckpt"),
                 "--data", str(workspace / "data"),
                 "--sample", "2", "--render", str(render)]) == 0
    heatmap = read_pgm(render / "heatmap.pgm")
    assert heatmap.shape == (32, 32)
    cone = read_pgm(render / "cone.pgm")
    assert cone.shape == (32, 32)
    overlay1 = (render / "overlay.pgm").read_bytes()
    assert main(["infer", "--ckpt", str(workspace / "model.ckpt"),
                 "--data", str(workspace / "data"),
                 "--sample", "2", "--render", str(render)]) == 0
    assert (render / "overlay.pgm").read_bytes() == overlay1


def test_infer_missing_sample(workspace, tmp_path):
    assert main(["infer", "--ckpt", str(workspace / "model.ckpt"),
                 "--data", str(workspace / "data"),
                 "--sample", "999", "--render", str(tmp_path / "r")]) == 3


def test_eval_corrupt_checkpoint_is_data_error(workspace, tmp_path):
    bad = tmp_path / "bad.ckpt"
    raw = bytearray((workspace / "model.ckpt").read_bytes())
    raw[0] ^= 0xFF
    bad.write_bytes(bytes(raw))
    assert main(["eval", "--ckpt", str(bad), "--data", str(workspace / "data"),
                 "--report", str(tmp_path / "r.json")]) == 3


def test_eval_non_utf8_config_hash_is_data_error(workspace, tmp_path):
    bad = tmp_path / "bad.ckpt"
    raw = bytearray((workspace / "model.ckpt").read_bytes())
    raw[12] = 0xFF  # first byte of the config-hash string: never valid UTF-8
    bad.write_bytes(bytes(raw))
    assert main(["eval", "--ckpt", str(bad), "--data", str(workspace / "data"),
                 "--report", str(tmp_path / "r.json")]) == 3


@pytest.mark.parametrize("old,new", [(b"data.sigma", b"eata.sigma"),
                                     (b"data.sigma = 3.0", b"data.sigma = 3.x")],
                         ids=["key", "value"])
def test_eval_corrupt_checkpoint_config_is_data_error(workspace, tmp_path, old, new):
    bad = tmp_path / "bad.ckpt"
    raw = (workspace / "model.ckpt").read_bytes()
    assert raw.count(old) == 1
    bad.write_bytes(raw.replace(old, new))
    assert main(["eval", "--ckpt", str(bad), "--data", str(workspace / "data"),
                 "--report", str(tmp_path / "r.json")]) == 3


def test_privacy_variant_runs_on_raw_free_data(workspace, tmp_path):
    data = tmp_path / "data"
    write_dataset(without_raw(read_dataset(workspace / "data")), data)
    assert not [n for n in os.listdir(data / "tensors") if n.endswith("_raw.gzt")]
    common = ("model.input_resolution = 32\nmodel.heatmap_resolution = 32\n"
              "model.precision = f32\ntrain.batch_size = 10\n")
    cfg = tmp_path / "privacy.cfg"
    cfg.write_text("model.variant = privacy\ntrain.epochs = 1\n" + common)
    ckpt = tmp_path / "privacy.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt)]) == 0
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--report", str(tmp_path / "r.json"), "--dump", str(tmp_path / "d.jsonl")]) == 0
    assert main(["infer", "--ckpt", str(ckpt), "--data", str(data),
                 "--sample", "2", "--render", str(tmp_path / "render")]) == 0

    # a variant that needs the raw image fails with a data error instead
    image_cfg = tmp_path / "image.cfg"
    image_cfg.write_text("model.variant = image_only\ntrain.epochs = 0\n" + common)
    image_ckpt = tmp_path / "image.ckpt"
    assert main(["train", "--config", str(image_cfg), "--data", str(workspace / "data"),
                 "--out", str(image_ckpt)]) == 0
    assert main(["eval", "--ckpt", str(image_ckpt), "--data", str(data),
                 "--report", str(tmp_path / "r2.json")]) == 3


@pytest.mark.parametrize("field,value", [("files", None), ("head_box", [0.5, 0.5, 0.1, 0.1])])
def test_malformed_manifest_record_is_data_error(workspace, tmp_path, capsys, field, value):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    manifest = data / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    rec = json.loads(lines[1])
    if value is None:
        del rec[field]
    else:
        rec[field] = value
    lines[1] = json.dumps(rec)
    manifest.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--data", str(data),
                 "--report", str(tmp_path / "r.json")]) == 3
    assert "manifest.jsonl:2:" in capsys.readouterr().err


def test_usage_error_exit_code(tmp_path):
    assert main(["train", "--config", str(tmp_path / "missing.cfg"),
                 "--data", str(tmp_path), "--out", str(tmp_path / "x.ckpt")]) == 1
    assert main(["definitely-not-a-command"]) == 1
