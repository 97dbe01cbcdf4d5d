"""Evaluation: per-sample predictions, metric aggregation, JSONL dumps."""

from __future__ import annotations

from . import tensor as T
from .config import RunConfig
from .data import SceneSample
from .heads import argmax_point
from .metrics import MetricsReport, SampleDump, aggregate, auc_score, distance_scores
from .model import GazeTargetModel, build_batch

BATCH_SIZE = 32


def evaluate_model(model: GazeTargetModel, samples: list[SceneSample], cfg: RunConfig,
                   oracle_heatmaps: bool = False) -> tuple[MetricsReport, list[SampleDump]]:
    """Run the model over ``samples`` and aggregate metrics.

    ``oracle_heatmaps`` substitutes the ground-truth heatmap for the
    prediction (upper-bound sanity: AUC 1, distances 0).
    """
    config_hash = cfg.config_hash()
    dumps = []
    for start in range(0, len(samples), BATCH_SIZE):
        chunk = samples[start : start + BATCH_SIZE]
        batch = build_batch(chunk, cfg)
        with T.no_grad():
            result = model(batch)
        for k, sample in enumerate(chunk):
            if oracle_heatmaps:
                pred_map = batch.gt_heatmaps[k, 0]
            else:
                pred_map = result.heatmap.data[k, 0]
            point = argmax_point(pred_map)
            weights = {m: float(w) for m, w in zip(cfg.modalities, result.weights.data[k])}
            io_score = float(result.inout.data[k]) if result.inout is not None else None
            if sample.in_frame and sample.gaze_points:
                mn, av = distance_scores(point, sample.gaze_points)
                auc = auc_score(pred_map, sample.gaze_points, radius=cfg.binarization_radius)
            else:
                mn = av = auc = None
            dumps.append(SampleDump(
                sample_id=sample.sample_id, in_frame=sample.in_frame,
                p_gaze=point, min_dist=mn, avg_dist=av, auc=auc,
                weights=weights, inout=io_score,
                config_hash=config_hash,
            ))
    return aggregate(dumps, cfg.binarization_radius, config_hash), dumps
