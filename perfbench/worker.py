"""One fresh process of a benchmark run: set up a workload, drive it through
``gazecast.cli.main`` in a closed loop with one client, check every output.

    python3 perfbench/worker.py --workload W --seed N --seconds S \\
        --mode measure|trace --workdir DIR --result FILE

Run from the root of a source checkout; ``src/`` is put on ``sys.path``.
Set-up (imports, input generation, checkpoint creation) ends at
``first_call``, the monotonic time of the first request. That request is
a warm-up: its outputs are the reference for the identity checks and its
time is reported as ``warmup_s``, outside the request statistics. The
result JSON goes to ``--result``; run.py aggregates it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

TRAIN_SAMPLES = 32    # one epoch per request: two AdamW steps at batch 16
EVAL_SAMPLES = 32     # one forward batch of 32 per request
INFER_SAMPLES = 384   # cmd_infer reads the whole dataset on every request
GEN_SAMPLES = 64      # samples generated, written and self-checked per request

TRAIN_CONFIG = """\
model.variant = multimodal
model.precision = f32
model.heatmap_bounded = false
train.epochs = 1
train.lr = 1e-3
train.batch_size = 16
train.p_drop = 0.3
train.seed = {seed}
"""


def import_gazecast():
    sys.path.insert(0, SRC)
    import gazecast
    from gazecast import cli  # noqa: F401  (loads every layer module)

    if not os.path.abspath(gazecast.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gazecast imported from {gazecast.__file__}, not {SRC}")
    return gazecast


def digest(*paths) -> str:
    """SHA-256 over files, or over every file below a directory, in name order."""
    h = hashlib.sha256()
    for path in paths:
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, path).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class Workload:
    """Inputs, one request, and the checks on its output.

    ``argv(i)`` is request i; ``check`` returns an error string or None;
    ``finish`` runs once-per-process gates outside the timed region.
    """

    dataset_size = 0          # samples the program reads or writes per request
    samples_per_request = 1
    forward_batch = 0         # samples per model forward; 0 for no model
    gates = 0                 # operations ``finish`` performs
    outputs: list[str] = []   # removed after each check, so every request writes them
    cfg = None
    final_loss = None

    def __init__(self, gz, seed: int, workdir: str):
        self.gz = gz
        self.seed = seed
        self.dir = workdir
        self.reference = None
        self.spec = self.path("scene.cfg")
        with open(self.spec, "w") as f:
            f.write(f"scene.seed = {seed}\nscene.target_rule = mixed\n")

    def path(self, *parts) -> str:
        return os.path.join(self.dir, *parts)

    def call(self, argv) -> tuple[int, float, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            rc = self.gz.cli.main(argv)   # looked up per call, so a tracer's wrapper is used
            elapsed = time.perf_counter() - start
        return rc, elapsed, buf.getvalue()

    def generate(self, out: str, count: int, seed_offset: int = 0) -> None:
        argv = ["gen", "--spec", self.spec, "--out", out, "--count", str(count),
                "--seed", str(self.seed + seed_offset)]
        rc, _, text = self.call(argv)
        if rc != 0:
            raise SystemExit(f"input generation failed (exit {rc}): {text}")

    def make_checkpoint(self, path: str):
        """A seeded, freshly initialised multimodal model, default config."""
        from gazecast.config import RunConfig
        from gazecast.model import GazeTargetModel
        from gazecast.serialization import save_checkpoint

        cfg = RunConfig(seed=self.seed)
        save_checkpoint(path, GazeTargetModel(cfg).state_dict(), cfg.config_hash(), cfg.to_text())
        return cfg

    def same_as_first(self, value) -> str | None:
        if self.reference is None:
            self.reference = value
        return None if value == self.reference else "output differs from the first request"

    def finish(self) -> list[str]:
        return []


class Train(Workload):
    dataset_size = samples_per_request = TRAIN_SAMPLES
    forward_batch = 16

    def setup(self):
        from gazecast.config import load_config

        self.data = self.path("train")
        self.generate(self.data, TRAIN_SAMPLES)
        self.config = self.path("run.cfg")
        with open(self.config, "w") as f:
            f.write(TRAIN_CONFIG.format(seed=self.seed))
        self.cfg = load_config(self.config)
        self.ckpt, self.csv = self.path("model.ckpt"), self.path("loss.csv")
        self.outputs = [self.ckpt, self.csv]

    def argv(self, i):
        return ["train", "--config", self.config, "--data", self.data,
                "--out", self.ckpt, "--csv", self.csv]

    def check(self, i, text):
        with open(self.csv) as f:
            last = f.read().strip().splitlines()[-1]
        self.final_loss = float(last.split(",")[-1])
        if not math.isfinite(self.final_loss):
            return f"final loss {self.final_loss} is not finite"
        return self.same_as_first(digest(self.ckpt, self.csv))


class Eval(Workload):
    dataset_size = samples_per_request = EVAL_SAMPLES
    forward_batch = 32
    gates = 1

    def setup(self):
        self.data = self.path("heldout")
        self.generate(self.data, EVAL_SAMPLES, seed_offset=1)
        self.ckpt = self.path("model.ckpt")
        self.cfg = self.make_checkpoint(self.ckpt)
        self.report, self.dump = self.path("report.json"), self.path("dump.jsonl")
        self.outputs = [self.report, self.dump]

    def argv(self, i):
        return ["eval", "--ckpt", self.ckpt, "--data", self.data,
                "--report", self.report, "--dump", self.dump]

    def check(self, i, text):
        with open(self.report) as f:
            n = json.load(f)["n_samples"]
        if n != EVAL_SAMPLES:
            return f"report n_samples {n} != dataset size {EVAL_SAMPLES}"
        return self.same_as_first(digest(self.report, self.dump))

    def finish(self):
        oracle = self.path("oracle.json")
        rc, _, _ = self.call(["eval", "--ckpt", self.ckpt, "--data", self.data,
                              "--report", oracle, "--oracle"])
        if rc != 0:
            return [f"eval --oracle exited {rc}"]
        with open(oracle) as f:
            rep = json.load(f)
        # the argmax lands on the centre of the annotated pixel, so distances
        # are bounded by half a pixel diagonal rather than exactly zero
        bound = 2 ** 0.5 / (2 * self.cfg.heatmap_resolution) + 1e-12
        if rep["auc"] != 1.0 or rep["avg_dist"] > bound:
            return [f"eval --oracle gave AUC {rep['auc']}, AvgDist {rep['avg_dist']} "
                    f"(want 1 and <= {bound})"]
        return []


POINT = re.compile(r"predicted gaze point: \(([-\d.]+), ([-\d.]+)\)")


class Infer(Workload):
    dataset_size = INFER_SAMPLES
    forward_batch = 1
    gates = 1

    def setup(self):
        self.data = self.path("dataset")
        self.generate(self.data, INFER_SAMPLES, seed_offset=1)
        self.ckpt = self.path("model.ckpt")
        self.cfg = self.make_checkpoint(self.ckpt)
        self.render = self.path("render")
        self.outputs = [self.render]
        self.points: dict[int, tuple[str, str]] = {}

    def argv(self, i):
        return ["infer", "--ckpt", self.ckpt, "--data", self.data,
                "--sample", str(i % INFER_SAMPLES), "--render", self.render]

    def check(self, i, text):
        m = POINT.search(text)
        if m is None:
            return "no predicted point printed"
        for name in ("cone.pgm", "heatmap.pgm", "overlay.pgm"):
            if not os.path.isfile(os.path.join(self.render, name)):
                return f"{name} not rendered"
        self.points[i % INFER_SAMPLES] = m.groups()
        return None

    def finish(self):
        """Every predicted point must equal the batched eval dump's p_gaze."""
        subset = self.path("requested")
        copy_subset(self.data, subset, set(self.points))
        dump = self.path("reference.jsonl")
        rc, _, _ = self.call(["eval", "--ckpt", self.ckpt, "--data", subset,
                              "--report", self.path("reference.json"), "--dump", dump])
        if rc != 0:
            return [f"reference eval exited {rc}"]
        errors = []
        with open(dump) as f:
            for line in f:
                row = json.loads(line)
                want = tuple(f"{v:.4f}" for v in row["p_gaze"])
                if self.points[row["sample_id"]] != want:
                    errors.append(f"sample {row['sample_id']}: infer {self.points[row['sample_id']]}"
                                  f" != eval {want}")
        return errors


def copy_subset(src: str, dst: str, ids: set[int]) -> None:
    """A dataset directory holding only the samples in ``ids``."""
    shutil.rmtree(dst, ignore_errors=True)
    os.makedirs(os.path.join(dst, "tensors"))
    with open(os.path.join(src, "manifest.jsonl")) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    kept = [r for r in rows if r["sample_id"] in ids]
    for r in kept:
        for rel in r["files"].values():
            shutil.copyfile(os.path.join(src, rel), os.path.join(dst, rel))
    with open(os.path.join(dst, "manifest.jsonl"), "w") as f:
        f.writelines(json.dumps(r) + "\n" for r in kept)


class Gen(Workload):
    dataset_size = samples_per_request = GEN_SAMPLES

    def setup(self):
        self.out = self.path("generated")
        self.outputs = [self.out]

    def argv(self, i):
        return ["gen", "--spec", self.spec, "--out", self.out, "--count", str(GEN_SAMPLES)]

    def check(self, i, text):
        if ", 0 oracle mismatches, 0 cone violations" not in text:
            return f"self-check failed: {text.strip()}"
        return self.same_as_first(digest(self.out))


WORKLOADS = {"train_mm_f32": Train, "eval_mm_f64": Eval, "infer_mm_f64": Infer, "gen_mixed": Gen}


class Loop:
    """Closed loop with one client; every request counts as one operation."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.index = 0
        self.attempted = 0
        self.errors: list[str] = []

    def request(self) -> tuple[float, int]:
        wl, i = self.wl, self.index
        self.index += 1
        self.attempted += 1
        rc, elapsed, text = wl.call(wl.argv(i))
        error = f"exit code {rc}" if rc != 0 else wl.check(i, text)
        if error:
            self.errors.append(f"request {i}: {error}")
        for path in wl.outputs:
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        return elapsed, wl.samples_per_request

    def run(self, seconds: float) -> list[tuple[float, int]]:
        done = []
        end = time.monotonic() + seconds
        while not done or time.monotonic() < end:
            done.append(self.request())
        return done


def blas_threads():
    """OpenBLAS's own thread count, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        so = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(so, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def run_metadata(wl: Workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = ("GAZECAST_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "source_sha256": digest(os.path.join(SRC, "gazecast")),
        "commit": git_head(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k, "unset") for k in env},
        "config_hash": wl.cfg.config_hash() if wl.cfg is not None else None,
        "dataset_size": wl.dataset_size,
        "samples_per_request": wl.samples_per_request,
    }


def git_head() -> str | None:
    """The checked-out commit, read from .git when the checkout has one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    gz = import_gazecast()
    os.makedirs(args.workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](gz, args.seed, args.workdir)
    run_id = f"{args.workload}-seed{args.seed}"
    setup_tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        setup_tracer = Tracer(f"{run_id}/setup")
        setup_tracer.install(gz)
    try:
        wl.setup()
    finally:
        if setup_tracer:
            setup_tracer.uninstall()
    loop = Loop(wl)
    first_call = time.monotonic()
    warmup_s, _ = loop.request()
    result = {"first_call": first_call, "warmup_s": warmup_s,
              "meta": run_metadata(wl)}

    if args.mode == "measure":
        result["requests"] = loop.run(args.seconds)
    else:
        from layers import layer_metrics

        result["layers"] = layer_metrics(gz, wl, loop, args.seconds, setup_tracer, run_id,
                                         spans_path=os.path.join(args.workdir, "spans.jsonl"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.errors += wl.finish()
    result["attempted"] = loop.attempted + wl.gates
    result["failed"] = len(loop.errors)
    result["errors"] = loop.errors[:20]
    result["digest"] = wl.reference
    result["final_loss"] = wl.final_loss
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
