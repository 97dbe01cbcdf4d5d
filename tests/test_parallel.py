"""Sample shards on threads: the runner's contract, and train and eval
bytes that do not depend on how many threads run the shards."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import gazecast
from gazecast import data as D
from gazecast import parallel
from gazecast import tensor as T
from gazecast.cli import main
from gazecast.config import VARIANTS, RunConfig
from gazecast.encoders import GazeSubnet
from gazecast.errors import DatasetError, ModelOutputError
from gazecast.evaluate import evaluate_model
from gazecast.fusion import EMPTY_PLAN, DropoutPlan
from gazecast.model import GazeTargetModel, build_batch, compute_losses, drop_modalities
from gazecast.train import sharded_backward, train_model


@pytest.fixture
def one_blas_thread():
    """OpenBLAS on one thread, as the CLI sets it, restored afterwards."""
    before = parallel.blas_threads()
    if before is None:
        pytest.skip("numpy's BLAS exports no thread-count setter")
    parallel.set_blas_threads(1)
    yield
    parallel.set_blas_threads(before)


@pytest.fixture
def thread_tapes(monkeypatch):
    """The tape length each started thread leaves when it ends."""
    tapes = []
    run = threading.Thread.run

    def watched(self):
        try:
            run(self)
        finally:
            tapes.append(len(T.tape()))

    monkeypatch.setattr(threading.Thread, "run", watched)
    return tapes


@pytest.fixture(scope="module")
def scenes():
    spec = D.SceneSpec(seed=41, resolution=32, p_out_of_frame=0.5)
    return D.generate_dataset(spec, 37)


def cfg32(**kw):
    return RunConfig(**{"input_resolution": 32, "heatmap_resolution": 32, "seed": 5, **kw})


def test_shards_are_fixed_runs_of_eight():
    assert parallel.shard_slices(0) == []
    assert parallel.shard_slices(13) == [slice(0, 8), slice(8, 13)]
    assert parallel.shard_slices(16) == [slice(0, 8), slice(8, 16)]


def test_results_come_back_in_shard_order(one_blas_thread, monkeypatch, thread_tapes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    out = parallel.run_shards(lambda worker, sl: (sl.start, sl.stop), 37)
    assert out == [(0, 8), (8, 16), (16, 24), (24, 32), (32, 37)]
    assert len(thread_tapes) == 2   # the calling thread is the third


def test_every_shard_runs_once_under_frequent_thread_switches(one_blas_thread, monkeypatch):
    """Eight threads, more than most hosts have cores, switching every
    microsecond, take each of 300 shards exactly once."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = parallel.run_shards(lambda worker, sl: runs.append(sl.start) or sl.start,
                                  300 * parallel.SHARD)
    finally:
        sys.setswitchinterval(interval)
    starts = [i * parallel.SHARD for i in range(300)]
    assert out == starts and sorted(runs) == starts


@pytest.mark.parametrize("cpus,blas,n,threads", [
    ({0, 1, 2}, 1, 8, 1),           # one shard
    ({0}, 1, 37, 1),                # one CPU
    ({0, 1, 2}, 2, 37, 1),          # BLAS runs its own threads
    ({0, 1, 2}, 1, 13, 2),          # one thread per shard at most
    ({0, 1, 2}, 1, 37, 3),
])
def test_thread_count(monkeypatch, cpus, blas, n, threads):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(parallel, "blas_threads", lambda: blas)
    assert parallel.thread_count(len(parallel.shard_slices(n))) == threads


def test_no_thread_starts_for_one_shard_or_one_cpu(one_blas_thread, monkeypatch, thread_tapes):
    callers = set()

    def fn(worker, sl):
        callers.add((worker, threading.get_ident()))

    parallel.run_shards(fn, 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    parallel.run_shards(fn, 37)
    assert thread_tapes == [] and callers == {(0, threading.get_ident())}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2}], ids=["1", "2", "3"])
def test_first_failing_shard_in_shard_order_is_raised(one_blas_thread, monkeypatch,
                                                      thread_tapes, cpus):
    """Shards 1 and 3 fail; every thread is joined and shard 1's own error
    object comes back, on any number of threads, with every tape empty."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    leaf = T.Tensor(np.ones(3), requires_grad=True)
    errors = {1: DatasetError("shard 1"), 3: ModelOutputError("shard 3")}

    def fn(worker, sl):
        T.scale(leaf, 2.0)   # a node on the running thread's tape
        i = sl.start // parallel.SHARD
        if i in errors:
            raise errors[i]
        return i

    with pytest.raises(DatasetError) as info:
        parallel.run_shards(fn, 37)
    assert info.value is errors[1]
    assert len(T.tape()) == 0 and set(thread_tapes) <= {0}
    assert len(thread_tapes) == len(cpus) - 1


def test_interrupt_of_the_calling_thread_joins_every_thread(one_blas_thread, monkeypatch,
                                                            thread_tapes):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    all_running = threading.Barrier(3, timeout=30)

    def fn(worker, sl):
        all_running.wait()   # one of the three shards per thread
        if worker == 0:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        parallel.run_shards(fn, 3 * parallel.SHARD)
    assert len(thread_tapes) == 2   # both ended before run_shards returned


def test_workers_carry_errstate_and_no_grad(one_blas_thread, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    both_running = threading.Barrier(2, timeout=30)
    leaf = T.Tensor(np.ones(3), requires_grad=True)
    seen = []

    def fn(worker, sl):
        both_running.wait()   # one shard per thread
        T.scale(leaf, 2.0)    # recorded unless no_grad holds on this thread
        seen.append((worker, np.geterr()["divide"], len(T.tape())))

    with np.errstate(divide="ignore"), T.no_grad():
        parallel.run_shards(fn, 16)
    assert sorted(seen) == [(0, "ignore", 0), (1, "ignore", 0)]


def test_no_grad_does_not_reach_a_thread_started_without_its_context():
    leaf = T.Tensor(np.ones(3), requires_grad=True)
    seen = []

    def record():
        T.scale(leaf, 2.0)
        seen.append(len(T.tape()))
        T.fresh_tape()

    with T.no_grad():
        thread = threading.Thread(target=record)
        thread.start()
        thread.join()
        T.scale(leaf, 2.0)
    assert seen == [1] and len(T.tape()) == 0


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["1", "2"])
def test_interrupt_of_the_calling_thread_empties_its_tape(one_blas_thread, monkeypatch,
                                                          thread_tapes, cpus):
    """The calling thread records a node, then is interrupted: run_shards
    leaves its tape empty, as it does for a failing shard."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    leaf = T.Tensor(np.ones(3), requires_grad=True)

    def fn(worker, sl):
        T.scale(leaf, 2.0)
        if worker == 0:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        parallel.run_shards(fn, 2 * parallel.SHARD)
    assert len(T.tape()) == 0 and set(thread_tapes) <= {0}


@pytest.mark.parametrize("dropped,first_out", [(frozenset(), False),
                                               (frozenset({"depth"}), False),
                                               (frozenset({"raw", "pose"}), True)],
                         ids=["no-drop", "drop-depth", "in-frame-in-one-shard"])
def test_sharded_loss_and_gradient_match_the_whole_batch(scenes, dropped, first_out):
    """In f64 the shards' weighted losses add up to ``compute_losses`` on the
    whole batch of 13, and their summed gradients to its gradient."""
    samples = scenes[:13]
    if first_out:
        # the in-frame samples all fall in the second shard
        out = [s for s in scenes if not s.in_frame][:8]
        samples = out + [s for s in scenes if s.in_frame][:5]
        assert len(out) == 8
    cfg = cfg32(inout_head=True)
    plan = DropoutPlan(dropped, 99)
    batch = drop_modalities(build_batch(samples, cfg), plan)

    whole = GazeTargetModel(cfg)
    want = compute_losses(whole(batch), batch, cfg, plan)
    T.backward(want.total)
    model = GazeTargetModel(cfg)
    got = sharded_backward({0: model}, batch, plan)

    for name in ("gaze", "direction", "inout", "attention", "total_value"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=1e-300)
    assert (got.attention > 0.0) == bool(dropped)
    recomputed = (cfg.lambda_gaze * got.gaze + cfg.lambda_dir * got.direction
                  + cfg.lambda_io * got.inout + cfg.lambda_att * got.attention)
    assert recomputed == got.total_value   # the logged components give the total exactly
    for (name, a), b in zip(whole.named_parameters(), model.parameters()):
        np.testing.assert_allclose(b.grad, a.grad, rtol=1e-9, atol=1e-15, err_msg=name)


@pytest.mark.parametrize("inout_head", [False, True], ids=["no-inout", "inout"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_one_sharded_step_leaves_a_gradient_on_every_parameter(scenes, variant, inout_head):
    cfg = cfg32(variant=variant, inout_head=inout_head)
    model = GazeTargetModel(cfg)
    sharded_backward({0: model}, build_batch(scenes[:13], cfg), EMPTY_PLAN)
    missing = [name for name, p in model.named_parameters() if p.grad is None]
    assert missing == []


def test_dropout_noise_does_not_depend_on_the_shards(scenes):
    cfg = cfg32()
    plan = DropoutPlan(frozenset({"depth"}), 7)
    batch = build_batch(scenes[:13], cfg)
    dropped = drop_modalities(batch, plan)
    second = drop_modalities(batch.shard(slice(8, 13)), plan)
    assert not np.array_equal(dropped.modality_images["depth"][8:],
                              second.modality_images["depth"])
    np.testing.assert_array_equal(dropped.modality_images["raw"], batch.modality_images["raw"])


def _run(scenes, cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    cfg = cfg32(precision="f32", batch_size=13, epochs=2, p_drop=0.5, inout_head=True)
    model, csv = train_model(cfg, scenes[:29])
    _, dumps = evaluate_model(model, scenes)
    state = b"".join(a.tobytes() for a in model.state_dict().values())
    return state, csv, [d.to_json() for d in dumps]


def test_train_and_eval_bytes_do_not_depend_on_the_thread_count(scenes, one_blas_thread,
                                                                 monkeypatch, thread_tapes):
    """Batches of 13 (shards of 8 and 5) and an eval set of 37 (five shards)
    give the same checkpoint, loss CSV and dumps on 1, 2 and 3 threads."""
    one = _run(scenes, {0}, monkeypatch)
    assert thread_tapes == []
    for cpus in ({0, 1}, {0, 1, 2}):
        assert _run(scenes, cpus, monkeypatch) == one
    assert thread_tapes and set(thread_tapes) == {0}


# train, then eval, in one process: ``python -c _TRAIN_THEN_EVAL <train args> -- <eval args>``
_TRAIN_THEN_EVAL = ("import sys\nfrom gazecast.cli import main\nsep = sys.argv.index('--')\n"
                    "sys.exit(main(sys.argv[1:sep]) or main(sys.argv[sep + 1:]))")


def test_cli_bytes_do_not_depend_on_openblas_num_threads(tmp_path):
    """``train`` and ``eval --dump`` in processes started with OpenBLAS at 1
    and at 2 threads write the same checkpoint, loss CSV, report and dump."""
    (tmp_path / "scene.cfg").write_text("scene.seed = 41\nscene.resolution = 32\n")
    assert main(["gen", "--spec", str(tmp_path / "scene.cfg"), "--out", str(tmp_path / "data"),
                 "--count", "29"]) == 0
    (tmp_path / "run.cfg").write_text(
        "model.input_resolution = 32\nmodel.heatmap_resolution = 32\nmodel.precision = f32\n"
        "train.batch_size = 13\ntrain.epochs = 1\ntrain.p_drop = 0.5\n")
    src = str(Path(gazecast.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-c", _TRAIN_THEN_EVAL,
             "train", "--config", str(tmp_path / "run.cfg"), "--data", str(tmp_path / "data"),
             "--out", str(out / "m.ckpt"), "--", "eval", "--ckpt", str(out / "m.ckpt"),
             "--data", str(tmp_path / "data"), "--report", str(out / "r.json"),
             "--dump", str(out / "d.jsonl")],
            env=env, check=True, capture_output=True)
        outputs.append({name: (out / name).read_bytes()
                        for name in ("m.ckpt", "m_loss.csv", "r.json", "d.jsonl")})
    assert outputs[0] == outputs[1]


def test_eval_workers_record_no_tape_nodes(scenes, one_blas_thread, monkeypatch):
    """Worker threads inherit the caller's ``no_grad``: each forward leaves
    its thread's tape empty."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forward = GazeTargetModel.forward
    both_running = threading.Barrier(2, timeout=30)
    seen = []

    def watched(self, batch):
        both_running.wait()
        out = forward(self, batch)
        seen.append((threading.get_ident(), len(T.tape())))
        return out

    monkeypatch.setattr(GazeTargetModel, "forward", watched)
    evaluate_model(GazeTargetModel(cfg32()), scenes[:16])
    assert len({ident for ident, _ in seen}) == 2
    assert [n for _, n in seen] == [0, 0]


def test_failing_train_shard_exits_2_with_one_line(tmp_path, monkeypatch, capsys,
                                                   thread_tapes):
    """The second shard's gaze subnet raises after its forward recorded
    nodes: ``train`` exits 2 with one line, writes nothing, and every
    thread ends with an empty tape."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forward = GazeSubnet.forward

    def failing(self, crops):
        out = forward(self, crops)
        if crops.shape[0] == 5:
            raise ModelOutputError("gaze subnet emitted a zero direction")
        return out

    monkeypatch.setattr(GazeSubnet, "forward", failing)
    assert main(["gen", "--out", str(tmp_path / "data"), "--count", "13", "--seed", "3"]) == 0
    (tmp_path / "run.cfg").write_text(
        "model.input_resolution = 32\nmodel.heatmap_resolution = 32\ntrain.batch_size = 13\n")
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "run.cfg"), "--data",
                 str(tmp_path / "data"), "--out", str(tmp_path / "m.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err == "train failed: gaze subnet emitted a zero direction\n"
    assert not (tmp_path / "m.ckpt").exists()
    assert thread_tapes == [0] and len(T.tape()) == 0
