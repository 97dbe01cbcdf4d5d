"""Command-line entry point: gen / train / eval / infer / check.

Exit codes: 0 success, 1 usage or config error or a path that cannot be
read or written, 2 check or training failure, 3 data or checkpoint error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys

import numpy as np

from . import data as D
from . import tensor as T
from .config import config_from_text, load_config, read_settings, settings_text
from .errors import CheckpointError, ConfigError, DatasetError, GazecastError, ModelOutputError
from .evaluate import evaluate_model
from .geometry import containing_pixel, write_pgm
from .heads import argmax_point
from .model import GazeTargetModel, build_batch
from .parallel import set_blas_threads
from .serialization import atomic_write, load_checkpoint, save_checkpoint
from .train import TrainingDivergedError, train_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_DATA = 3

SCENE_KEYS = {f"scene.{f.name}": f.name for f in dataclasses.fields(D.SceneSpec)}


def _load_scene_spec(path, seed=None) -> D.SceneSpec:
    try:
        spec = read_settings(D.SceneSpec, settings_text(path), SCENE_KEYS)
        return spec if seed is None else dataclasses.replace(spec, seed=seed)
    except DatasetError as exc:
        raise ConfigError(f"{path or 'scene spec'}: {exc}") from exc


def cmd_gen(args) -> int:
    if args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    spec = _load_scene_spec(args.spec, args.seed)
    summary = D.write_generated(spec, args.count, args.out)
    print(f"wrote {args.count} samples to {args.out}")
    print(f"self-check: {summary['checked']} in-frame checked, "
          f"{summary['mismatches']} oracle mismatches, "
          f"{summary['cone_violations']} cone violations")
    if summary["mismatches"] or summary["cone_violations"]:
        return EXIT_CHECK
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    samples = D.read_dataset(args.data)
    init_states = []
    for path in args.init or []:
        state, _, _ = load_checkpoint(path)
        init_states.append(state)
    csv_path = args.csv or (os.path.splitext(args.out)[0] + "_loss.csv")
    model, loss_csv = train_model(cfg, samples, init_states=init_states,
                                  log=lambda msg: print(msg, flush=True))
    # the CSV follows the checkpoint: a checkpoint that cannot be written
    # leaves no CSV behind
    save_checkpoint(args.out, model.state_dict(), cfg.config_hash(), cfg.to_text())
    with atomic_write(csv_path) as f:
        f.write(loss_csv)
    print(f"checkpoint written to {args.out} (config {cfg.config_hash()})")
    return EXIT_OK


def _load_model(ckpt_path) -> GazeTargetModel:
    state, config_hash, config_text = load_checkpoint(ckpt_path)
    try:
        cfg = config_from_text(config_text)
    except ConfigError as exc:
        raise CheckpointError(f"{ckpt_path}: bad embedded config: {exc}") from exc
    if config_text != cfg.to_text():
        raise CheckpointError(f"{ckpt_path}: embedded config is not in canonical form")
    if cfg.config_hash() != config_hash:
        raise CheckpointError(f"{ckpt_path}: config hash mismatch "
                              f"({config_hash} vs {cfg.config_hash()})")
    return GazeTargetModel(cfg, state)


def cmd_eval(args) -> int:
    model = _load_model(args.ckpt)
    samples = D.read_dataset(args.data)
    if not any(s.in_frame for s in samples):
        raise DatasetError(f"{args.data}: no in-frame sample to score")
    report, dumps = evaluate_model(model, samples, oracle_heatmaps=args.oracle)
    with atomic_write(args.report) as f:
        f.write(report.to_json() + "\n")
    if args.dump:
        with atomic_write(args.dump) as f:
            for d in dumps:
                f.write(d.to_json() + "\n")
    print(f"evaluated {report.n_samples} samples: AUC {report.auc:.4f}, "
          f"AvgDist {report.avg_dist:.4f}, MinDist {report.min_dist:.4f}, "
          f"AP {report.ap if report.ap is None else round(report.ap, 4)}")
    return EXIT_OK


def cmd_infer(args) -> int:
    model = _load_model(args.ckpt)
    found = D.read_dataset(args.data, sample_id=args.sample)
    if not found:
        raise DatasetError(f"sample {args.sample} not in {args.data}")
    sample = found[-1]  # a repeated id resolves to its last record
    batch = build_batch([sample], model.cfg)
    with T.no_grad():
        result = model(batch)
    os.makedirs(args.render, exist_ok=True)
    cone = result.cone.data[0, 0]
    heatmap = result.heatmap.data[0, 0]
    write_pgm(os.path.join(args.render, "cone.pgm"), cone)
    write_pgm(os.path.join(args.render, "heatmap.pgm"), heatmap)

    overlay = sample.modality(model.cfg.modalities[0]).mean(axis=0)
    px, py = argmax_point(heatmap)
    res = overlay.shape[-1]
    _mark(overlay, px, py, res, 1.0)
    for gx, gy in sample.gaze_points:
        _mark(overlay, gx, gy, res, 0.0)
    write_pgm(os.path.join(args.render, "overlay.pgm"), overlay)
    print(f"rendered cone.pgm, heatmap.pgm, overlay.pgm to {args.render}")
    print(f"predicted gaze point: ({px:.4f}, {py:.4f})")
    return EXIT_OK


def _mark(img: np.ndarray, x: float, y: float, res: int, value: float) -> None:
    """Draw a small cross at a normalized point."""
    ci, cj = containing_pixel(x, y, res, res)
    for di in range(-2, 3):
        i = min(max(ci + di, 0), res - 1)
        img[i, cj] = value
    for dj in range(-2, 3):
        j = min(max(cj + dj, 0), res - 1)
        img[ci, j] = value


def cmd_check(args) -> int:
    from .checks import run_checks

    results = run_checks()
    failures = 0
    for res in results:
        print(res.line())
        failures += 0 if res.passed else 1
    if failures:
        print(f"{failures}/{len(results)} checks FAILED")
        return EXIT_CHECK
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gazecast",
                                     description="desk-scale multimodal gaze target prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--spec", help="scene spec file (scene.* keys)")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, help="override scene.seed")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model variant")
    p.add_argument("--config", help="run config file (model.*/train.*/loss.* keys)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--init", action="append",
                   help="checkpoint whose matching weights seed this model (repeatable)")
    p.add_argument("--csv", help="loss curve CSV path (default: alongside checkpoint)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="metrics JSON output")
    p.add_argument("--dump", help="per-sample JSONL output")
    p.add_argument("--oracle", action="store_true",
                   help="score ground-truth heatmaps instead of predictions (sanity bound)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("infer", help="run one sample and render PGM images")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sample", type=int, required=True)
    p.add_argument("--render", required=True, help="output directory")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("check", help="run the gradient and oracle checks")
    p.set_defaults(fn=cmd_check)
    return parser


M_TOP_PAD = -2              # glibc mallopt parameters
M_MMAP_THRESHOLD = -3
HEAP_TOP_PAD = 64 << 20     # bytes of freed heap kept mapped
MMAP_THRESHOLD = 32 << 20   # glibc's ceiling for its own dynamic threshold


def _keep_heap_mapped() -> None:
    """Keep freed heap mapped across training steps (glibc only).

    Each train step builds and frees a working set of tens of MB; by default
    glibc trims it from the heap at the end of the step and the next step
    faults it in again, thousands of minor faults per step. Kernel-level
    fixes (fewer or reused temporaries) only moved the faults to wherever the
    trimmed heap grew back, so this takes the process-wide setting instead.
    No output depends on it, and it is set here at the command's entry point,
    so ``import gazecast`` alone changes nothing.

    Any mallopt of M_TOP_PAD or M_TRIM_THRESHOLD also turns off glibc's
    dynamic mmap threshold and freezes it where it stands, 128 KiB in a fresh
    process, so that every larger array is mapped and unmapped per call. The
    threshold is therefore set to the ceiling the dynamic one would reach:
    with M_TOP_PAD alone a fresh ``gazecast train`` still took about 4,600
    faults per step. Never set M_TRIM_THRESHOLD on its own: that measured
    953 ms and 236K faults per train request.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TOP_PAD, HEAP_TOP_PAD)


def main(argv=None) -> int:
    _keep_heap_mapped()
    # one BLAS thread per process: train and eval run their shards on one
    # thread per CPU instead, and the bytes do not depend on either count
    set_blas_threads(1)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDivergedError, ModelOutputError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (DatasetError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except GazecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
