"""Evaluation: per-sample predictions, metric aggregation, JSONL dumps.

Per-sample work parallelizes across batches behind a deterministic-order
reducer; GAZECAST_THREADS caps the worker count (default 1).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .data import SceneSample
from .fusion import EMPTY_PLAN, DropoutPlan
from .heads import argmax_point
from .metrics import MetricsReport, SampleEval, aggregate, auc_score, distance_scores
from .model import GazeTargetModel, build_batch


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("GAZECAST_THREADS", "1")))
    except ValueError:
        return 1


@dataclass
class SampleDump:
    sample_id: int
    in_frame: int
    pred_point: tuple[float, float]
    min_dist: float | None
    avg_dist: float | None
    auc: float | None
    weights: dict[str, float]
    inout_score: float | None
    config_hash: str = ""

    def to_json(self) -> str:
        return json.dumps({
            "sample_id": self.sample_id,
            "in_frame": self.in_frame,
            "p_gaze": list(self.pred_point),
            "min_dist": self.min_dist,
            "avg_dist": self.avg_dist,
            "auc": self.auc,
            "weights": self.weights,
            "inout": self.inout_score,
            "config_hash": self.config_hash,
        })


def evaluate_model(model: GazeTargetModel, samples: list[SceneSample],
                   cfg: RunConfig, plan: DropoutPlan = EMPTY_PLAN,
                   oracle_heatmaps: bool = False,
                   batch_size: int = 32) -> tuple[MetricsReport, list[SampleDump]]:
    """Run the model over ``samples`` and aggregate metrics.

    ``oracle_heatmaps`` substitutes the ground-truth heatmap for the
    prediction (upper-bound sanity: AUC 1, distances 0). ``plan`` lets
    callers noise-substitute modalities to probe attention behavior.
    """
    batches = [samples[i : i + batch_size] for i in range(0, len(samples), batch_size)]

    def run_batch(chunk: list[SceneSample]) -> list[SampleDump]:
        batch = build_batch(chunk, cfg)
        with T.no_grad():
            result = model(batch, plan)
        rows = []
        for k, sample in enumerate(chunk):
            if oracle_heatmaps:
                pred_map = batch.gt_heatmaps[k, 0]
            else:
                pred_map = result.heatmap.data[k, 0]
            point = argmax_point(pred_map)
            weights = {}
            if result.weights is not None:
                for mi, m in enumerate(cfg.modalities):
                    weights[m] = float(result.weights.data[k, mi])
            else:
                weights[cfg.modalities[0]] = 1.0
            io_score = float(result.inout.data[k]) if result.inout is not None else None
            if sample.in_frame and sample.gaze_points:
                mn, av = distance_scores(point, sample.gaze_points)
                auc = auc_score(pred_map, sample.gaze_points, radius=cfg.binarization_radius)
            else:
                mn = av = auc = None
            rows.append(SampleDump(
                sample_id=sample.sample_id, in_frame=sample.in_frame,
                pred_point=point, min_dist=mn, avg_dist=av, auc=auc,
                weights=weights, inout_score=io_score,
                config_hash=cfg.config_hash(),
            ))
        return rows

    workers = worker_count()
    if workers > 1 and len(batches) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_batch = list(pool.map(run_batch, batches))
    else:
        per_batch = [run_batch(b) for b in batches]

    dumps = [row for rows in per_batch for row in rows]
    evals = [
        SampleEval(in_frame=bool(d.in_frame), auc=d.auc, min_dist=d.min_dist,
                   avg_dist=d.avg_dist, inout_score=d.inout_score)
        for d in dumps
    ]
    report = aggregate(evals, config_hash=cfg.config_hash(),
                       binarization_radius=cfg.binarization_radius)
    report.attention_means = {
        m: mean_attention(dumps, m) for m in cfg.modalities
    }
    return report, dumps


def mean_attention(dumps: list[SampleDump], modality: str) -> float:
    vals = [d.weights[modality] for d in dumps if modality in d.weights]
    return float(np.mean(vals))
