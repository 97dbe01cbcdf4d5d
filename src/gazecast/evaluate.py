"""Evaluation: per-sample predictions, metric aggregation, JSONL dumps."""

from __future__ import annotations

from . import tensor as T
from .data import SceneSample
from .heads import argmax_point
from .metrics import MetricsReport, SampleDump, aggregate, auc_score, distance_scores
from .model import GazeTargetModel, build_batch
from .parallel import run_shards


def evaluate_model(model: GazeTargetModel, samples: list[SceneSample],
                   oracle_heatmaps: bool = False) -> tuple[MetricsReport, list[SampleDump]]:
    """Run the model over ``samples`` and aggregate metrics under its config.

    The samples run in fixed shards (``parallel``); each thread builds,
    runs and scores one shard at a time, so memory does not grow with the
    number of samples beyond their dumps. ``oracle_heatmaps`` substitutes
    the ground-truth heatmap for the prediction (upper-bound sanity: AUC 1,
    distances 0).
    """
    cfg = model.cfg
    config_hash = cfg.config_hash()

    def shard(worker: int, sl: slice) -> list[SampleDump]:
        chunk = samples[sl]
        batch = build_batch(chunk, cfg)
        result = model(batch)
        dumps = []
        for k, sample in enumerate(chunk):
            if oracle_heatmaps:
                pred_map = batch.gt_heatmaps[k, 0]
            else:
                pred_map = result.heatmap.data[k, 0]
            point = argmax_point(pred_map)
            weights = {m: float(w) for m, w in zip(cfg.modalities, result.weights.data[k])}
            io_score = float(result.inout.data[k]) if result.inout is not None else None
            if sample.in_frame:
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
        return dumps

    with T.no_grad():
        dumps = [d for part in run_shards(shard, len(samples)) for d in part]
    return aggregate(dumps, cfg.binarization_radius, config_hash), dumps
