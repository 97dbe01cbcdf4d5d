"""End-to-end command flows via the CLI entry point (in-process)."""

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import shutil
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_pgm, without_raw
from gazecast import data as D
from gazecast.checks import GRAD_CASES, ORACLE_CASES, CheckResult, GradCase, OracleCase
from gazecast.cli import main
from gazecast.config import RunConfig
from gazecast.data import read_dataset, write_dataset
from gazecast.errors import DatasetError
from gazecast.evaluate import SampleDump
from gazecast.heads import sum_losses
from gazecast.model import GazeTargetModel
from gazecast.serialization import load_checkpoint, save_checkpoint
from gazecast.tensor import Tensor, read_tensor, write_tensor


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


@pytest.mark.parametrize("has_mallopt", [True, False], ids=["glibc", "no-mallopt"])
def test_main_keeps_heap_mapped_only_where_libc_has_mallopt(tmp_path, monkeypatch, has_mallopt):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args)) if has_mallopt \
        else types.SimpleNamespace()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    assert main(["gen", "--out", str(tmp_path / "data"), "--count", "2"]) == 0
    assert calls == ([(-3, 32 << 20), (-2, 64 << 20)] if has_mallopt else [])


def test_gen_deterministic_hash(tmp_path):
    scene = tmp_path / "scene.cfg"
    scene.write_text("scene.seed = 77\nscene.resolution = 32\n")
    assert main(["gen", "--spec", str(scene), "--out", str(tmp_path / "a"), "--count", "10"]) == 0
    assert main(["gen", "--spec", str(scene), "--out", str(tmp_path / "b"), "--count", "10"]) == 0
    assert dir_hash(tmp_path / "a") == dir_hash(tmp_path / "b")



def test_gen_over_a_larger_dataset_leaves_one_its_readers_accept(workspace, tmp_path):
    """Stale tensor files are removed; a directory under tensors/ is kept
    and is not a tensor file."""
    out = tmp_path / "data"
    (out / "tensors" / "sub").mkdir(parents=True)
    for count in ("6", "3"):
        assert main(["gen", "--spec", str(workspace / "scene.cfg"), "--out", str(out),
                     "--count", count]) == 0
    assert (out / "tensors" / "sub").is_dir() and len(os.listdir(out / "tensors")) == 10
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--data", str(out),
                 "--report", str(tmp_path / "r.json")]) == 0


def test_dataset_file_that_is_a_symlink_is_not_read_or_written_through(workspace, tmp_path,
                                                                       capsys):
    out = tmp_path / "data"
    shutil.copytree(workspace / "data", out)
    outside = tmp_path / "outside.gzt"
    link = out / "tensors" / "00000001_raw.gzt"
    link.rename(outside)
    link.symlink_to(outside)
    before = outside.read_bytes()
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--data", str(out),
                 "--report", str(tmp_path / "r.json")]) == 3
    assert "missing file tensors/00000001_raw.gzt" in capsys.readouterr().err
    assert main(["gen", "--spec", str(workspace / "scene.cfg"), "--out", str(out),
                 "--count", "3", "--seed", "5"]) == 1
    assert outside.read_bytes() == before


def test_symlinked_tensor_directory_is_neither_read_nor_written_through(workspace, tmp_path,
                                                                         capsys):
    """``data/tensors`` links to another dataset's tensors: readers find no
    tensor file there, and ``gen`` refuses it before writing anything."""
    other = tmp_path / "other"
    shutil.copytree(workspace / "data", other)
    before = dir_hash(other)
    out = tmp_path / "data"
    out.mkdir()
    shutil.copy(other / "manifest.jsonl", out / "manifest.jsonl")
    (out / "tensors").symlink_to(os.path.join("..", "other", "tensors"))
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--data", str(out),
                 "--report", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "missing file tensors/00000000_" in err
    assert err.count("\n") == 1
    assert main(["gen", "--out", str(out), "--count", "2", "--seed", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "tensors") in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert dir_hash(other) == before
    assert (out / "manifest.jsonl").read_bytes() == (other / "manifest.jsonl").read_bytes()


def test_gen_negative_count_is_usage_error(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "neg"), "--count", "-1"]) == 1
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize("spec,flags", [
    ("scene.bogus = 1\n", []), ("scene.n_objects = abc\n", []), ("scene.resolution = 16\n", []),
    ("scene.seed = -1\n", []), ("", ["--seed", "-1"]), ("scene.p_out_of_frame = 2\n", []),
    ("scene.p_out_of_frame = -0.5\n", []), ("scene.p_out_of_frame = nan\n", []),
    ("scene.n_objects = -1\n", []), ("scene.n_objects = 65\n", []), ("scene.n_people = 65\n", []),
    ("scene.depth_layers = 1000000000000\n", []), ("scene.resolution = 100000\n", []),
], ids=["unknown-key", "bad-value", "out-of-range", "negative-seed", "negative-seed-flag",
        "p-out-above-1", "p-out-below-0", "p-out-nan", "negative-objects", "objects-above-64",
        "people-above-64", "depth-layers-huge", "resolution-huge"])
def test_gen_rejects_bad_spec(tmp_path, capsys, spec, flags):
    bad = tmp_path / "bad.cfg"
    bad.write_text(spec)
    assert main(["gen", "--spec", str(bad), "--out", str(tmp_path / "x"), "--count", "1",
                 *flags]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("cpus", [None, {0}, {0, 1, 2}], ids=["affinity", "one-cpu", "three-cpus"])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
def test_gen_bytes_do_not_depend_on_the_number_of_shares(tmp_path, monkeypatch, capsys,
                                                         count, cpus):
    """``gen`` splits the scenes over one process per CPU; its directory is
    byte-identical to one process writing the whole list, out-of-frame
    records included."""
    spec = D.SceneSpec(resolution=32, seed=13, p_out_of_frame=0.4)
    (tmp_path / "scene.cfg").write_text(
        "scene.resolution = 32\nscene.seed = 13\nscene.p_out_of_frame = 0.4\n")
    write_dataset(D.generate_dataset(spec, count), tmp_path / "serial")
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert main(["gen", "--spec", str(tmp_path / "scene.cfg"), "--out", str(tmp_path / "gen"),
                 "--count", str(count)]) == 0
    assert dir_hash(tmp_path / "gen") == dir_hash(tmp_path / "serial")
    assert capsys.readouterr().out.startswith(f"wrote {count} samples to ")


@pytest.mark.parametrize("failing_id,error", [
    (3, DatasetError("no feasible target placement")),
    (2, DatasetError("no feasible target placement")),
    (3, KeyboardInterrupt()),
    (0, KeyboardInterrupt()),
], ids=["child-share", "own-share", "child-interrupted", "own-share-interrupted"])
def test_gen_failing_scene_reaps_every_child(tmp_path, monkeypatch, capsys, failing_id, error):
    """On two CPUs the odd ids are generated in a child. A scene that raises
    in either share ends ``gen`` with its error, once, writes no manifest
    and leaves no child process."""
    generate_scene = D.generate_scene

    def failing(spec, sample_id=0):
        if sample_id == failing_id:
            raise error
        return generate_scene(spec, sample_id)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(D, "generate_scene", failing)
    args = ["gen", "--out", str(tmp_path / "data"), "--count", "6"]
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(args)
    else:
        assert main(args) == 3
    out, err = capsys.readouterr()
    assert "wrote" not in out
    assert err == ("data error: no feasible target placement\n"
                   if isinstance(error, DatasetError) else "")
    assert not (tmp_path / "data" / "manifest.jsonl").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gen_child_that_ends_without_an_answer_is_an_error(tmp_path, monkeypatch, capsys):
    """A child that dies before it answers (killed, say) fails ``gen`` with
    one error line and no manifest."""
    generate_scene = D.generate_scene

    def dying(spec, sample_id=0):
        if sample_id == 3:
            os._exit(1)
        return generate_scene(spec, sample_id)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(D, "generate_scene", dying)
    assert main(["gen", "--out", str(tmp_path / "data"), "--count", "6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "ended without a result" in err and err.count("\n") == 1
    assert not (tmp_path / "data" / "manifest.jsonl").exists()


def test_train_loss_csv_written(workspace):
    lines = (workspace / "loss.csv").read_text().strip().splitlines()
    assert lines[0].startswith("step,loss_gaze")
    assert len(lines) == 1 + 2 * 3  # 2 epochs x ceil(30/10) steps


def test_train_checkpoint_that_cannot_be_written_leaves_no_loss_csv(workspace, tmp_path, capsys):
    """The checkpoint is written before the loss CSV: an ``--out`` that names
    a directory ends in one error line and leaves neither file."""
    (tmp_path / "outdir").mkdir()
    capsys.readouterr()
    assert main(["train", "--config", str(workspace / "run.cfg"),
                 "--data", str(workspace / "data"), "--out", str(tmp_path / "outdir")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["outdir"] and os.listdir(tmp_path / "outdir") == []


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
    assert list(report["attention_means"]) == ["raw", "depth", "pose"]
    for modality in ("raw", "depth", "pose"):
        vals = [d["weights"][modality] for d in dumps]
        assert np.isfinite(vals).all()
        assert report["attention_means"][modality] == np.mean(vals)
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


def test_eval_empty_dataset_is_data_error(workspace, tmp_path):
    assert main(["gen", "--out", str(tmp_path / "empty"), "--count", "0"]) == 0
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--data", str(tmp_path / "empty"),
                 "--report", str(tmp_path / "r.json")]) == 3



@pytest.mark.parametrize("command", ["eval-report-is-a-directory", "train-out-dir-missing"])
def test_output_that_cannot_be_written_names_the_users_path(workspace, tmp_path, capsys,
                                                            command):
    if command.startswith("eval"):
        target = tmp_path / "report"
        target.mkdir()
        argv = ["eval", "--ckpt", str(workspace / "model.ckpt"), "--data",
                str(workspace / "data"), "--report", str(target)]
    else:
        target = tmp_path / "missing" / "x.ckpt"
        cfg = tmp_path / "run.cfg"
        cfg.write_text((workspace / "run.cfg").read_text().replace("train.epochs = 2",
                                                                   "train.epochs = 1"))
        argv = ["train", "--config", str(cfg), "--data", str(workspace / "data"),
                "--out", str(target)]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(target) in err and ".tmp" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_train_empty_dataset_is_data_error(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "empty"), "--count", "0"]) == 0
    assert main(["train", "--data", str(tmp_path / "empty"),
                 "--out", str(tmp_path / "x.ckpt")]) == 3
    assert "dataset is empty" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_eval_with_no_in_frame_sample_is_data_error_before_the_forward(workspace, tmp_path,
                                                                      capsys, monkeypatch):
    scene = tmp_path / "scene.cfg"
    scene.write_text("scene.resolution = 32\nscene.p_out_of_frame = 1\n")
    assert main(["gen", "--spec", str(scene), "--out", str(tmp_path / "data"),
                 "--count", "4"]) == 0

    def evaluate_model(*args, **kwargs):
        raise AssertionError("the model ran on a dataset with nothing to score")

    monkeypatch.setattr("gazecast.cli.evaluate_model", evaluate_model)
    report = tmp_path / "r.json"
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--data", str(tmp_path / "data"),
                 "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert "no in-frame sample to score" in err and "Traceback" not in err
    assert not report.exists()

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


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    """A checkpoint of an untrained image_only model small enough to rewrite
    once per corrupted byte; it runs on ``workspace``'s 32x32 data."""
    cfg = RunConfig(variant="image_only", input_resolution=32, heatmap_resolution=32,
                    stage_channels=(4, 4, 4, 4), feature_channels=4, embedding_size=4)
    path = tmp_path_factory.mktemp("tiny") / "tiny.ckpt"
    save_checkpoint(path, GazeTargetModel(cfg).state_dict(), cfg.config_hash(), cfg.to_text())
    return path


def _infer_args(ckpt, workspace) -> list[str]:
    return ["infer", "--ckpt", str(ckpt), "--data", str(workspace / "data"),
            "--sample", "0", "--render", str(ckpt.parent / "render")]


def test_checkpoint_config_text_flipped_at_any_byte_is_data_error(workspace, tiny_ckpt, capsys):
    """The embedded config text must be the canonical text of the config it
    parses to. Every byte XOR 0x01 stops the command: a newline flipped to a
    vertical tab used to load, since ``str.splitlines`` splits on both."""
    raw = tiny_ckpt.read_bytes()
    _, config_hash, text = load_checkpoint(tiny_ckpt)
    start = 4 + 4 + 4 + len(config_hash) + 4   # magic, count, hash, text length
    assert raw[start:start + len(text)] == text.encode()
    assert main(_infer_args(tiny_ckpt, workspace)) == 0
    shutil.rmtree(tiny_ckpt.parent / "render")
    capsys.readouterr()

    bad = tiny_ckpt.with_name("flipped.ckpt")
    for offset in range(start, start + len(text)):
        flipped = bytearray(raw)
        flipped[offset] ^= 0x01
        bad.write_bytes(flipped)
        assert main(_infer_args(bad, workspace)) == 3, f"byte {offset - start} of the text"
    err = capsys.readouterr().err
    assert err.count("data error: ") == len(text) and "Traceback" not in err
    assert not (tiny_ckpt.parent / "render").exists()


def _checkpoint_header_offsets(path) -> list[int]:
    """Offsets of every byte of a checkpoint that is not parameter payload."""
    state, config_hash, text = load_checkpoint(path)
    pos = 4 + 4 + 4 + len(config_hash) + 4 + len(text.encode())
    offsets = list(range(pos))
    for name, arr in state.items():
        head = 4 + len(name.encode()) + 6 + 4 * arr.ndim   # name, GZT1 header
        offsets += range(pos, pos + head)
        pos += head + arr.nbytes
    return offsets


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cut_or_header_corrupt_checkpoint_exits_3(workspace, tiny_ckpt, data):
    """A checkpoint cut at any offset, or with one non-payload byte changed,
    stops ``infer`` with exit 3 and a data error instead of a traceback.
    Payload bytes are left out: nothing can tell them from trained weights."""
    raw = tiny_ckpt.read_bytes()
    if data.draw(st.booleans(), label="cut"):
        bad = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        offset = data.draw(st.sampled_from(_checkpoint_header_offsets(tiny_ckpt)), label="offset")
        value = data.draw(st.integers(0, 255).filter(lambda v: v != raw[offset]), label="value")
        bad = raw[:offset] + bytes([value]) + raw[offset + 1:]
    path = tiny_ckpt.with_name("fuzzed.ckpt")
    path.write_bytes(bad)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(_infer_args(path, workspace)) == 3
    assert err.getvalue().startswith("data error: ")
    assert not (tiny_ckpt.parent / "render").exists()


@pytest.mark.parametrize("command", ["eval", "infer"])
@pytest.mark.parametrize("fault", ["missing", "extra", "wrong-shape"])
def test_checkpoint_whose_state_does_not_fit_is_data_error(workspace, tmp_path, capsys,
                                                           command, fault):
    """The model is built from the checkpoint's state without drawing its
    weights, so a parameter the state does not fill must stop the command."""
    state, config_hash, text = load_checkpoint(workspace / "model.ckpt")
    name = next(iter(state))
    if fault == "missing":
        del state[name]
    elif fault == "extra":
        state["heatmap_head.extra.weight"] = np.zeros(3, dtype=state[name].dtype)
    else:
        state[name] = state[name][..., :1]
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, state, config_hash, text)
    render = tmp_path / "render"
    args = {"eval": ["eval", "--ckpt", str(bad), "--data", str(workspace / "data"),
                     "--report", str(tmp_path / "r.json")],
            "infer": ["infer", "--ckpt", str(bad), "--data", str(workspace / "data"),
                      "--sample", "0", "--render", str(render)]}[command]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "mismatch" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists() and not render.exists()


def test_run_config_with_removed_upsample_key_is_usage_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("model.upsample = nearest\ntrain.epochs = 0\n")
    assert main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    assert "model.upsample" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_checkpoint_with_removed_upsample_key_is_data_error(workspace, tmp_path, capsys):
    """A checkpoint written before the key was removed: its config text
    carries the key, under a hash that matches that text."""
    state, _, text = load_checkpoint(workspace / "model.ckpt")
    old_text = "".join(sorted(text.splitlines(keepends=True) + ["model.upsample = nearest\n"]))
    old_hash = hashlib.sha256(old_text.encode()).hexdigest()[:16]
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, state, old_hash, old_text)
    assert main(["eval", "--ckpt", str(old), "--data", str(workspace / "data"),
                 "--report", str(tmp_path / "r.json")]) == 3
    assert "model.upsample" in capsys.readouterr().err


@pytest.mark.parametrize("line,key", [
    ("model.stage_channels = 16,32", "model.stage_channels"),
    ("model.stage_channels = 16,32,64", "model.stage_channels"),
    ("model.stage_channels = 8,16,32,64,128", "model.stage_channels"),
    ("model.input_resolution = 40", "model.input_resolution"),
    ("model.heatmap_resolution = 20", "model.heatmap_resolution"),
    ("model.stage_channels = 16,0,64,128", "model.stage_channels"),
    ("model.feature_channels = 3", "model.feature_channels"),
    ("model.embedding_size = 0", "model.embedding_size"),
    ("model.input_resolution = 16", "model.input_resolution"),
    ("model.variant = image_only\nmodel.inout_head = true\nmodel.input_resolution = 16",
     "model.input_resolution"),
    ("model.heatmap_resolution = 520", "model.heatmap_resolution"),
    ("model.stage_channels = 100000,100000,100000,100000", "model.stage_channels"),
    ("model.feature_channels = 1025", "model.feature_channels"),
    ("model.embedding_size = 1025", "model.embedding_size"),
], ids=["2-stages", "3-stages", "5-stages", "input-40", "heatmap-20", "stage-width-0",
        "features-3", "embedding-0", "fused-input-16", "inout-input-16", "heatmap-520",
        "stage-width-100000", "features-1025", "embedding-1025"])
def test_bad_model_shape_is_usage_error_before_reading_data(workspace, tmp_path, capsys,
                                                            monkeypatch, line, key):
    # a row that sets the resolution itself must fail on its value, not on
    # a key set twice
    template = "" if "model.input_resolution" in line else "model.input_resolution = 32\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{template}{line}\ntrain.epochs = 0\n")

    def read_dataset(*args, **kwargs):
        raise AssertionError("dataset read before the config was checked")

    monkeypatch.setattr("gazecast.data.read_dataset", read_dataset)
    assert main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert "set a second time" not in err


@pytest.mark.parametrize("line,key", [
    ("train.seed = -1", "train.seed"),
    ("train.lr = 0", "train.lr"),
    ("train.lr = nan", "train.lr"),
    ("train.lr = inf", "train.lr"),
    ("train.beta1 = 1.0", "train.beta1"),
    ("train.beta1 = -0.1", "train.beta1"),
    ("train.beta2 = 1.0", "train.beta2"),
    ("train.epsilon = 0", "train.epsilon"),
    ("train.weight_decay = inf", "train.weight_decay"),
    ("train.weight_decay = -0.01", "train.weight_decay"),
    ("loss.lambda_gaze = -1", "loss.lambda_gaze"),
    ("loss.lambda_att = nan", "loss.lambda_att"),
    ("data.sigma = 0", "data.sigma"),
    ("metrics.binarization_radius = 0", "metrics.binarization_radius"),
    ("metrics.binarization_radius = 100", "metrics.binarization_radius"),
    ("metrics.binarization_radius = inf", "metrics.binarization_radius"),
    ("data.sigma = 30", "data.sigma"),
    ("model.aperture = 0", "model.aperture"),
    ("model.aperture = 7", "model.aperture"),
    ("train.batch_size = 0", "train.batch_size 0"),
    ("train.epochs = -1", "train.epochs -1"),
], ids=["seed-negative", "lr-0", "lr-nan", "lr-inf", "beta1-1", "beta1-negative", "beta2-1",
        "epsilon-0", "weight-decay-inf", "weight-decay-negative", "lambda-gaze-negative",
        "lambda-att-nan", "sigma-0", "radius-0", "radius-covers-heatmap", "radius-inf",
        "sigma-radius-covers-heatmap", "aperture-0", "aperture-7", "batch-size-0",
        "epochs-negative"])
def test_bad_training_constant_is_usage_error_before_reading_data(workspace, tmp_path, capsys,
                                                                  monkeypatch, line, key):
    cfg = tmp_path / "bad.cfg"
    epochs = "" if line.startswith("train.epochs") else "train.epochs = 0\n"
    cfg.write_text(f"model.input_resolution = 32\n{line}\n{epochs}")

    def read_dataset(*args, **kwargs):
        raise AssertionError("dataset read before the config was checked")

    monkeypatch.setattr("gazecast.data.read_dataset", read_dataset)
    assert main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                 "--out", str(tmp_path / "x.ckpt")]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert "set a second time" not in err


def test_checkpoint_with_bad_training_constant_is_data_error(workspace, tmp_path, capsys):
    """A checkpoint whose embedded config has beta1 = 1, under a hash that
    matches that text."""
    state, _, text = load_checkpoint(workspace / "model.ckpt")
    bad_text = "".join(("train.beta1 = 1.0\n" if line.startswith("train.beta1 ") else line)
                       for line in text.splitlines(keepends=True))
    assert bad_text != text
    bad_hash = hashlib.sha256(bad_text.encode()).hexdigest()[:16]
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, state, bad_hash, bad_text)
    assert main(["eval", "--ckpt", str(bad), "--data", str(workspace / "data"),
                 "--report", str(tmp_path / "r.json")]) == 3
    assert "train.beta1" in capsys.readouterr().err


def test_checkpoint_with_bad_model_shape_is_data_error(workspace, tmp_path, capsys):
    """A checkpoint whose embedded config has two stages, under a hash that
    matches that text."""
    state, _, text = load_checkpoint(workspace / "model.ckpt")
    lines = [("model.stage_channels = 16,32\n" if line.startswith("model.stage_channels")
              else line) for line in text.splitlines(keepends=True)]
    bad_text = "".join(lines)
    bad_hash = hashlib.sha256(bad_text.encode()).hexdigest()[:16]
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, state, bad_hash, bad_text)
    assert main(["eval", "--ckpt", str(bad), "--data", str(workspace / "data"),
                 "--report", str(tmp_path / "r.json")]) == 3
    assert "model.stage_channels" in capsys.readouterr().err


@pytest.mark.parametrize("line,key", [
    ("model.feature_channels = 2", "model.feature_channels"),
    ("model.embedding_size = 0", "model.embedding_size"),
    ("model.stage_channels = 16,32,64,1025", "model.stage_channels"),
    ("model.feature_channels = 1025", "model.feature_channels"),
    ("model.input_resolution = 528", "model.input_resolution"),
    ("metrics.binarization_radius = 43.9", "metrics.binarization_radius"),
], ids=["features-2", "embedding-0", "stage-width-1025", "features-1025", "input-528",
        "radius-covers-heatmap"])
def test_checkpoint_with_zero_width_is_data_error(workspace, tmp_path, capsys, line, key):
    """A checkpoint whose embedded config names a width that builds no
    layer, or a size above its bound, under a hash that matches that text."""
    state, _, text = load_checkpoint(workspace / "model.ckpt")
    lines = [(line + "\n" if old.startswith(key + " ") else old)
             for old in text.splitlines(keepends=True)]
    bad_text = "".join(lines)
    assert bad_text != text
    bad_hash = hashlib.sha256(bad_text.encode()).hexdigest()[:16]
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, state, bad_hash, bad_text)
    assert main(["eval", "--ckpt", str(bad), "--data", str(workspace / "data"),
                 "--report", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_image_only_trains_at_input_16(workspace, tmp_path):
    """Without embedders, the smallest input resolution stays valid."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text("model.variant = image_only\nmodel.input_resolution = 16\n"
                   "model.heatmap_resolution = 16\nmodel.precision = f32\ntrain.epochs = 0\n")
    assert main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                 "--out", str(tmp_path / "x.ckpt")]) == 0


def test_eval_reports_radius_derived_from_sigma(workspace, tmp_path):
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text("model.input_resolution = 32\nmodel.heatmap_resolution = 32\n"
                   "model.precision = f32\ntrain.epochs = 0\ndata.sigma = 2\n")
    ckpt = tmp_path / "sigma.ckpt"
    assert main(["train", "--config", str(cfg), "--data", str(workspace / "data"),
                 "--out", str(ckpt)]) == 0
    report = tmp_path / "r.json"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(workspace / "data"),
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["binarization_radius"] == 6.0


def test_eval_dump_that_fails_midway_keeps_previous_dump(workspace, tmp_path, monkeypatch):
    dump = tmp_path / "d.jsonl"
    dump.write_text("previous\n")
    written = []
    to_json = SampleDump.to_json

    def fail_on_third(self):
        if len(written) == 2:
            raise DatasetError("disk went away")
        written.append(self.sample_id)
        return to_json(self)

    monkeypatch.setattr(SampleDump, "to_json", fail_on_third)
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"),
                 "--data", str(workspace / "data"),
                 "--report", str(tmp_path / "r.json"), "--dump", str(dump)]) == 3
    assert written and dump.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "r.json"]


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


MALFORMED_RECORDS = [
    ("files", None),
    ("head_box", [0.5, 0.5, 0.1, 0.1]),
    pytest.param("gaze_points", [[0.1, 0.2, 0.3]], id="gaze-point-3-values"),
    pytest.param("gaze_points", [[1.5, 0.2]], id="gaze-point-outside"),
    pytest.param("gaze_points", [[0.5, -0.01]], id="gaze-point-negative"),
    pytest.param("gaze_points", [[float("nan"), 0.2]], id="gaze-point-nan"),
    pytest.param("gaze_points", [], id="in-frame-without-points"),
    pytest.param("oracle_gaze_dir", [float("nan"), 0.0], id="gaze-dir-nan"),
    pytest.param("in_frame", 2, id="in-frame-2"),
    pytest.param("sample_id", 1.5, id="sample-id-float"),
    pytest.param("sample_id", "3", id="sample-id-string"),
    pytest.param("sample_id", True, id="sample-id-bool"),
    pytest.param("files", {"raw": "../other/tensors/x.gzt"}, id="path-outside-dataset"),
    pytest.param("eye", b"\xff", id="not-utf8"),
    # record 0's raw file, while record 1's own stays in tensors/ as a stray
    pytest.param("files", {"raw": "tensors/00000000_raw.gzt",
                           "depth": "tensors/00000001_depth.gzt",
                           "pose": "tensors/00000001_pose.gzt"}, id="file-named-twice"),
    # a file must be exactly tensors/<name>, also where the OS would open
    # the same file
    pytest.param("files", {"raw": "tensors/sub/x.gzt"}, id="path-in-subdirectory"),
    pytest.param("files", {"raw": "./tensors/x.gzt"}, id="path-with-dot-prefix"),
    # the record's own raw file behind a doubled slash is rejected too
    pytest.param("files", {"raw": "tensors//00000001_raw.gzt",
                           "depth": "tensors/00000001_depth.gzt",
                           "pose": "tensors/00000001_pose.gzt"}, id="path-with-double-slash"),
]


@pytest.mark.parametrize("field,value", MALFORMED_RECORDS)
def test_malformed_manifest_record_is_data_error(workspace, tmp_path, capsys, field, value):
    data = _dataset_with_record(workspace, tmp_path, field, value)
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--data", str(data),
                 "--report", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "manifest.jsonl:2:" in err and "Traceback" not in err


@pytest.mark.parametrize("field,value", MALFORMED_RECORDS)
def test_malformed_record_that_infer_does_not_decode_is_data_error(workspace, tmp_path, capsys,
                                                                  field, value):
    """``infer`` decodes only the requested sample but checks the whole
    manifest: record 2 is bad, sample 0 is requested."""
    data = _dataset_with_record(workspace, tmp_path, field, value)
    render = tmp_path / "render"
    assert main(["infer", "--ckpt", str(workspace / "model.ckpt"), "--data", str(data),
                 "--sample", "0", "--render", str(render)]) == 3
    err = capsys.readouterr().err
    assert "manifest.jsonl:2:" in err and "Traceback" not in err
    assert not render.exists()


@pytest.mark.parametrize("command", ["train", "infer"])
def test_malformed_manifest_record_stops_train_and_infer(workspace, tmp_path, capsys, command):
    """Every command checks every record, also the ones ``infer`` does not
    decode."""
    data = _dataset_with_record(workspace, tmp_path, "gaze_points", [[0.1, 0.2, 0.3]])
    args = {"train": ["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt")],
            "infer": ["infer", "--ckpt", str(workspace / "model.ckpt"), "--data", str(data),
                      "--sample", "0", "--render", str(tmp_path / "render")]}[command]
    assert main(args) == 3
    assert "manifest.jsonl:2:" in capsys.readouterr().err


def _dataset_with_record(workspace, tmp_path, field, value):
    """A copy of the workspace dataset whose second record has ``field``
    set to ``value`` (deleted when None; bytes are written raw, inside a
    JSON string)."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    # a valid tensor outside the dataset, which a bad path must not reach
    (tmp_path / "other" / "tensors").mkdir(parents=True)
    shutil.copy(next((data / "tensors").iterdir()), tmp_path / "other" / "tensors" / "x.gzt")
    manifest = data / "manifest.jsonl"
    lines = manifest.read_bytes().splitlines()
    rec = json.loads(lines[1])
    assert rec["in_frame"] == 1
    if value is None:
        del rec[field]
    else:
        rec[field] = "\0" if isinstance(value, bytes) else value
    lines[1] = json.dumps(rec).encode()
    if isinstance(value, bytes):
        lines[1] = lines[1].replace(b"\\u0000", value)
    manifest.write_bytes(b"\n".join(lines) + b"\n")
    return data


@pytest.mark.parametrize("modality,shape", [
    ("depth", (32, 32)), ("depth", (3, 32, 16)), ("depth", (1, 32, 32)), ("pose", (3, 64, 64)),
], ids=["rank-2", "not-square", "one-channel", "second-resolution"])
def test_bad_modality_tensor_is_data_error(workspace, tmp_path, capsys, modality, shape):
    """Each decoded image is (3, R, R), with one R for all of a sample's
    modalities."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    rec = json.loads((data / "manifest.jsonl").read_text().splitlines()[1])
    write_tensor(data / rec["files"][modality], np.zeros(shape))
    assert main(["eval", "--ckpt", str(workspace / "model.ckpt"), "--data", str(data),
                 "--report", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "manifest.jsonl:2:" in err and "(3, R, R)" in err



@pytest.mark.parametrize("command", ["eval", "train", "infer"])
@pytest.mark.parametrize("fault", ["nan", "inf", "zero-size"])
def test_dataset_image_that_is_not_finite_or_is_empty_is_data_error(workspace, tmp_path, capsys,
                                                                    fault, command):
    """Each decoded image is finite with sides >= 1. Record 2 gets one NaN
    or +inf pixel in its first file, or (3, 0, 0) images in all its files;
    every command that decodes it, ``infer`` of that sample too, exits 3
    naming the manifest line and the file, and writes nothing."""
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    rec = json.loads((data / "manifest.jsonl").read_text().splitlines()[1])
    first = next(iter(rec["files"].values()))
    for rel in rec["files"].values():
        img = read_tensor(data / rel)
        if fault == "zero-size":
            img = np.zeros((3, 0, 0))
        elif rel == first:
            img[1, 5, 7] = np.nan if fault == "nan" else np.inf
        write_tensor(data / rel, img)
    out = tmp_path / "out"
    args = {"eval": ["eval", "--ckpt", str(workspace / "model.ckpt"), "--report", str(out)],
            "train": ["train", "--out", str(out)],
            "infer": ["infer", "--ckpt", str(workspace / "model.ckpt"),
                      "--sample", str(rec["sample_id"]), "--render", str(out)]}[command]
    assert main(args + ["--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert "manifest.jsonl:2:" in err and first in err and "Traceback" not in err
    assert not out.exists()

def test_usage_error_exit_code(tmp_path):
    assert main(["train", "--config", str(tmp_path / "missing.cfg"),
                 "--data", str(tmp_path), "--out", str(tmp_path / "x.ckpt")]) == 1
    assert main(["definitely-not-a-command"]) == 1


@pytest.mark.parametrize("case", ["config-not-utf8", "config-directory", "spec-directory",
                                  "ckpt-directory", "render-is-a-file"])
def test_unreadable_or_wrong_kind_of_path_is_usage_error(workspace, tmp_path, capsys, case):
    """A settings file that is not UTF-8, or a path of the wrong kind, ends
    in one error line and exit 1, not a traceback."""
    (tmp_path / "bad.cfg").write_bytes(b"train.epochs = 0\n\xff\n")
    (tmp_path / "file").write_text("")
    data, ckpt = str(workspace / "data"), str(workspace / "model.ckpt")
    args = {
        "config-not-utf8": ["train", "--config", str(tmp_path / "bad.cfg"), "--data", data,
                            "--out", str(tmp_path / "x.ckpt")],
        "config-directory": ["train", "--config", str(tmp_path), "--data", data,
                             "--out", str(tmp_path / "x.ckpt")],
        "spec-directory": ["gen", "--spec", str(tmp_path), "--out", str(tmp_path / "x"),
                           "--count", "1"],
        "ckpt-directory": ["eval", "--ckpt", str(tmp_path), "--data", data,
                           "--report", str(tmp_path / "r.json")],
        "render-is-a-file": ["infer", "--ckpt", ckpt, "--data", data, "--sample", "0",
                             "--render", str(tmp_path / "file")],
    }[case]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["bad.cfg", "file"]


@pytest.mark.parametrize("command", ["train", "gen"])
def test_repeated_settings_key_is_usage_error(workspace, tmp_path, capsys, command):
    """A key set twice is an error naming the line, not a silent override."""
    cfg = tmp_path / "twice.cfg"
    if command == "train":
        cfg.write_text("train.lr = 1e-3\ntrain.epochs = 0\ntrain.lr = 5e-1\n")
        args = ["train", "--config", str(cfg), "--data", str(workspace / "data"),
                "--out", str(tmp_path / "x.ckpt")]
        key = "train.lr"
    else:
        cfg.write_text("scene.seed = 1\nscene.resolution = 32\nscene.seed = 2\n")
        args = ["gen", "--spec", str(cfg), "--out", str(tmp_path / "x"), "--count", "1"]
        key = "scene.seed"
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and key in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["twice.cfg"]


def _stub_check_rows(monkeypatch, failing: str | None = None) -> None:
    """Rows report without running: each runs once, in test_gradcheck."""
    for case_type in (GradCase, OracleCase):
        monkeypatch.setattr(case_type, "run",
                            lambda case: CheckResult(case.name, case.name != failing, 0.0, 0.0))


def test_check_prints_its_table_in_order(capsys, monkeypatch):
    """``check`` prints one PASS line per row of ``GRAD_CASES``, then of
    ``ORACLE_CASES``, in table order, then a summary."""
    _stub_check_rows(monkeypatch)
    assert main(["check"]) == 0
    *results, summary = capsys.readouterr().out.splitlines()
    table = GRAD_CASES + ORACLE_CASES
    assert [line.split()[1].rstrip(":") for line in results] == [case.name for case in table]
    assert all(line.startswith("[PASS] ") for line in results)
    assert summary == f"all {len(table)} checks passed"


def test_check_failing_row_exits_2(capsys, monkeypatch):
    failing = ORACLE_CASES[0].name
    _stub_check_rows(monkeypatch, failing)
    assert main(["check"]) == 2
    *results, summary = capsys.readouterr().out.splitlines()
    assert [line for line in results if line.startswith("[FAIL] ")] == \
        [f"[FAIL] {failing}: max err 0.000e+00 (tol 0e+00)"]
    assert summary == f"1/{len(GRAD_CASES) + len(ORACLE_CASES)} checks FAILED"


@pytest.fixture(scope="module")
def no_direction(tmp_path_factory):
    """Four scenes and an untrained image_only model of stage widths 2,2,2,2,
    whose gaze embedding is all zeros after its ReLU on sample 0: its raw
    gaze direction there is the zero vector."""
    tmp = tmp_path_factory.mktemp("no_direction")
    scene = tmp / "scene.cfg"
    scene.write_text("scene.seed = 21\nscene.resolution = 32\n")
    assert main(["gen", "--spec", str(scene), "--out", str(tmp / "data"), "--count", "4"]) == 0
    cfg = tmp / "zero.cfg"
    cfg.write_text("model.variant = image_only\nmodel.stage_channels = 2,2,2,2\n"
                   "model.input_resolution = 32\nmodel.heatmap_resolution = 32\n"
                   "train.epochs = 0\n")
    assert main(["train", "--config", str(cfg), "--data", str(tmp / "data"),
                 "--out", str(tmp / "zero.ckpt")]) == 0
    return tmp


def _one_line_failure(capsys, command) -> str:
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_infer_model_without_gaze_direction_exits_2(no_direction, tmp_path, capsys):
    capsys.readouterr()
    assert main(["infer", "--ckpt", str(no_direction / "zero.ckpt"),
                 "--data", str(no_direction / "data"), "--sample", "0",
                 "--render", str(tmp_path / "render")]) == 2
    assert "no gaze direction" in _one_line_failure(capsys, "infer")
    assert not (tmp_path / "render").exists()


def test_eval_model_without_gaze_direction_exits_2(no_direction, tmp_path, capsys):
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(no_direction / "zero.ckpt"),
                 "--data", str(no_direction / "data"), "--report", str(tmp_path / "r.json"),
                 "--dump", str(tmp_path / "d.jsonl")]) == 2
    assert "no gaze direction" in _one_line_failure(capsys, "eval")
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def nan_heatmap(no_direction, tmp_path_factory):
    """A checkpoint whose heatmap head emits NaN: a default-width image_only
    model with a NaN bias on its last conv."""
    tmp = tmp_path_factory.mktemp("nan_heatmap")
    cfg = tmp / "nan.cfg"
    cfg.write_text("model.variant = image_only\nmodel.input_resolution = 32\n"
                   "model.heatmap_resolution = 32\ntrain.epochs = 0\n")
    assert main(["train", "--config", str(cfg), "--data", str(no_direction / "data"),
                 "--out", str(tmp / "fresh.ckpt")]) == 0
    state, config_hash, config_text = load_checkpoint(tmp / "fresh.ckpt")
    state["heatmap_head.conv3.bias"][:] = np.nan
    save_checkpoint(tmp / "nan.ckpt", state, config_hash, config_text)
    return tmp / "nan.ckpt"


def test_infer_model_with_nan_heatmap_exits_2(nan_heatmap, no_direction, tmp_path, capsys):
    capsys.readouterr()
    assert main(["infer", "--ckpt", str(nan_heatmap), "--data", str(no_direction / "data"),
                 "--sample", "1", "--render", str(tmp_path / "render")]) == 2
    assert "non-finite heatmap" in _one_line_failure(capsys, "infer")
    assert not (tmp_path / "render").exists()


def test_eval_model_with_nan_heatmap_exits_2(nan_heatmap, no_direction, tmp_path, capsys):
    """The error is raised before scoring, whose single-class handling would
    otherwise count a NaN map as an excluded sample."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", "--ckpt", str(nan_heatmap), "--data", str(no_direction / "data"),
                     "--report", str(tmp_path / "r.json"),
                     "--dump", str(tmp_path / "d.jsonl")]) == 2
    assert "non-finite heatmap" in _one_line_failure(capsys, "eval")
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def nan_inout(no_direction, tmp_path_factory):
    """A checkpoint whose in/out head emits NaN and whose heatmap head does
    not: an image_only model with the in/out head and a NaN bias on its
    last linear layer."""
    tmp = tmp_path_factory.mktemp("nan_inout")
    cfg = tmp / "nan.cfg"
    cfg.write_text("model.variant = image_only\nmodel.inout_head = true\n"
                   "model.input_resolution = 32\nmodel.heatmap_resolution = 32\n"
                   "train.epochs = 0\n")
    assert main(["train", "--config", str(cfg), "--data", str(no_direction / "data"),
                 "--out", str(tmp / "fresh.ckpt")]) == 0
    state, config_hash, config_text = load_checkpoint(tmp / "fresh.ckpt")
    state["inout.fc2.bias"][:] = np.nan
    save_checkpoint(tmp / "nan.ckpt", state, config_hash, config_text)
    return tmp / "nan.ckpt"


def test_eval_model_with_nan_inout_score_exits_2(nan_inout, no_direction, tmp_path, capsys):
    """A NaN in/out score would otherwise be dumped as ``NaN``, which is not
    JSON, and ranked into the AP."""
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(nan_inout), "--data", str(no_direction / "data"),
                 "--report", str(tmp_path / "r.json"), "--dump", str(tmp_path / "d.jsonl")]) == 2
    assert "non-finite score" in _one_line_failure(capsys, "eval")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("lr, precision, batch_size, epochs", [
    ("1e10", "f64", 2, 3), ("1e300", "f64", 2, 3), ("1e39", "f32", 4, 1),
], ids=["1e10", "1e300", "f32-last-step"])
def test_diverging_train_exits_2(no_direction, tmp_path, capsys, lr, precision,
                                 batch_size, epochs):
    """Weights blown up by a huge learning rate fail training with exit 2,
    whether the gaze direction, the loss or only the weights of the last
    step break, print one line and no numpy warning, and leave no
    checkpoint or loss CSV."""
    cfg = tmp_path / "lr.cfg"
    cfg.write_text("model.variant = image_only\nmodel.input_resolution = 32\n"
                   f"model.heatmap_resolution = 32\nmodel.precision = {precision}\n"
                   f"train.batch_size = {batch_size}\ntrain.epochs = {epochs}\n"
                   f"train.lr = {lr}\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", str(no_direction / "data"),
                 "--out", str(tmp_path / "model.ckpt")]) == 2
    _one_line_failure(capsys, "train")
    assert os.listdir(tmp_path) == ["lr.cfg"]


# -- input boundaries: each exits with its code and at most one stderr line --


def _one_error_line(capsys, prefix) -> str:
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err
    return err


def _eval(ckpt, data, tmp_path) -> int:
    return main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--report", str(tmp_path / "r.json")])


def test_blank_manifest_lines_are_skipped(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    lines = (data / "manifest.jsonl").read_text().splitlines(keepends=True)
    (data / "manifest.jsonl").write_text("\n" + "".join(lines[:3]) + "  \n" + "".join(lines[3:]))
    assert _eval(workspace / "model.ckpt", workspace / "data", tmp_path) == 0
    want = (tmp_path / "r.json").read_bytes()
    capsys.readouterr()
    assert _eval(workspace / "model.ckpt", data, tmp_path) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "r.json").read_bytes() == want


def test_manifest_without_tensor_directory_is_data_error(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    shutil.rmtree(data / "tensors")
    capsys.readouterr()
    assert _eval(workspace / "model.ckpt", data, tmp_path) == 3
    assert "missing file tensors/00000000_raw.gzt" in _one_error_line(capsys, "data error: ")


def test_tensor_record_with_unknown_dtype_code_is_data_error(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    raw = bytearray((data / "tensors" / "00000000_raw.gzt").read_bytes())
    raw[4] = 7   # the dtype code follows the 4-byte magic
    (data / "tensors" / "00000000_raw.gzt").write_bytes(bytes(raw))
    capsys.readouterr()
    assert _eval(workspace / "model.ckpt", data, tmp_path) == 3
    assert "unknown dtype code 7" in _one_error_line(capsys, "data error: ")


def test_checkpoint_cut_inside_its_header_is_data_error(workspace, tmp_path, capsys):
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((workspace / "model.ckpt").read_bytes()[:9])
    capsys.readouterr()
    assert _eval(cut, workspace / "data", tmp_path) == 3
    assert "truncated header" in _one_error_line(capsys, "data error: ")


def test_gen_with_unknown_target_rule_is_usage_error(tmp_path, capsys):
    (tmp_path / "scene.cfg").write_text("scene.target_rule = bogus\n")
    assert main(["gen", "--spec", str(tmp_path / "scene.cfg"), "--out", str(tmp_path / "x"),
                 "--count", "1"]) == 1
    assert "unknown target rule 'bogus'" in _one_error_line(capsys, "error: ")
    assert not (tmp_path / "x").exists()


def test_init_from_a_checkpoint_with_inout_head_skips_its_head(workspace, tmp_path, capsys):
    """The shared names load; ``inout.*`` has no place in the model."""
    common = ("model.variant = image_only\nmodel.input_resolution = 32\n"
              "model.heatmap_resolution = 32\nmodel.precision = f32\ntrain.epochs = 0\n")
    (tmp_path / "head.cfg").write_text(common + "model.inout_head = true\ntrain.seed = 1\n")
    (tmp_path / "plain.cfg").write_text(common)
    for name, init in (("head", []), ("plain", ["--init", str(tmp_path / "head.ckpt")])):
        assert main(["train", "--config", str(tmp_path / f"{name}.cfg"),
                     "--data", str(workspace / "data"), "--out", str(tmp_path / f"{name}.ckpt"),
                     *init]) == 0
    assert capsys.readouterr().err == ""
    head, _, _ = load_checkpoint(tmp_path / "head.ckpt")
    plain, _, _ = load_checkpoint(tmp_path / "plain.ckpt")
    assert any(name.startswith("inout.") for name in head)
    assert sorted(plain) == sorted(name for name in head if not name.startswith("inout."))
    for name, arr in plain.items():
        np.testing.assert_array_equal(arr, head[name], err_msg=name)


def test_gen_places_fewer_people_where_the_scene_has_no_room(tmp_path, capsys):
    (tmp_path / "scene.cfg").write_text("scene.n_people = 64\nscene.resolution = 32\n")
    assert main(["gen", "--spec", str(tmp_path / "scene.cfg"), "--out", str(tmp_path / "data"),
                 "--count", "3"]) == 0
    assert capsys.readouterr().err == ""
    spec = D.SceneSpec(n_people=64, resolution=32)
    assert all(len(D.generate_scene(spec, i).layout.persons) < 64 for i in range(3))
    assert len(read_dataset(tmp_path / "data")) == 3


@pytest.mark.parametrize("p_out,recomputed", [(0.0, None), (1.0, np.array([0.5, 0.5]))],
                         ids=["in-frame", "out-of-frame"])
def test_gen_self_check_mismatch_exits_2(tmp_path, capsys, monkeypatch, p_out, recomputed):
    """The oracle disagrees with every scene: ``gen`` reports the
    mismatches and exits 2."""
    monkeypatch.setattr(D, "expected_target", lambda layout, eye, gaze_dir: recomputed)
    (tmp_path / "scene.cfg").write_text(
        f"scene.resolution = 32\nscene.p_out_of_frame = {p_out}\n")
    assert main(["gen", "--spec", str(tmp_path / "scene.cfg"), "--out", str(tmp_path / "data"),
                 "--count", "3"]) == 2
    out, err = capsys.readouterr()
    assert "3 oracle mismatches" in out and err == ""


def test_non_finite_total_loss_exits_2_without_checkpoint(workspace, tmp_path, capsys,
                                                          monkeypatch):
    def nan_total(parts, cfg):
        return dataclasses.replace(sum_losses(parts, cfg), total=Tensor(np.array(np.nan)))

    monkeypatch.setattr("gazecast.train.sum_losses", nan_total)
    (tmp_path / "run.cfg").write_text("model.variant = image_only\nmodel.input_resolution = 32\n"
                                      "model.heatmap_resolution = 32\ntrain.epochs = 1\n")
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "run.cfg"), "--data",
                 str(workspace / "data"), "--out", str(tmp_path / "m.ckpt")]) == 2
    assert "non-finite loss nan at step 0" in _one_line_failure(capsys, "train")
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]
