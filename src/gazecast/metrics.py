"""Evaluation metrics: heatmap AUC, gaze-point distances, average precision.

AUC compares the predicted heatmap against a binarized ground truth: pixels
within ``binarization_radius`` pixels of any annotated point are positive
(the run config sets the radius: 3*sigma unless given). The ROC sweeps
every distinct predicted value, so the area is exact, not binned. Distances
live in the unit square (range [0, sqrt(2)]). AP uses step interpolation
with descending scores, ties broken by original index.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .geometry import pixel_sq_dist


@dataclass
class MetricsReport:
    auc: float
    avg_dist: float
    min_dist: float
    ap: float | None
    n_samples: int
    config_hash: str
    binarization_radius: float
    ap_interpolation: str = "step"
    attention_means: dict[str, float] | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def binarize_gt(gt_points: list[tuple[float, float]], h: int, w: int,
                radius: float) -> np.ndarray:
    """Positive pixels lie within ``radius`` pixels of any annotated point
    (points snapped to their containing pixel, as in heatmap construction)."""
    return pixel_sq_dist(gt_points, h, w) <= radius * radius


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exact ROC area via a sweep over distinct score thresholds.

    The ROC points sit at the last entry of each group of tied scores, so
    the order within a group, which the unstable sort leaves open, cannot
    change them. That needs scores without NaN, each of which is a group
    of its own; the model's forward rejects non-finite predictions.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DomainError("ROC undefined: ground-truth mask is all one class")
    order = np.argsort(-scores)
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(~sorted_labels)
    # keep only the last entry of each tied-score group
    distinct = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tpr = np.concatenate(([0.0], tp[distinct] / n_pos))
    fpr = np.concatenate(([0.0], fp[distinct] / n_neg))
    return float(np.trapezoid(tpr, fpr))


def auc_score(pred_heatmap: np.ndarray, gt_points: list[tuple[float, float]],
              radius: float) -> float | None:
    """Heatmap AUC against the binarized ground truth; None when the mask
    degenerates to a single class (``eval`` counts such samples)."""
    img = np.asarray(pred_heatmap, dtype=np.float64)
    img = img.reshape(img.shape[-2], img.shape[-1])
    mask = binarize_gt(gt_points, img.shape[0], img.shape[1], radius)
    try:
        return roc_auc(img.ravel(), mask.ravel())
    except DomainError:
        return None


def distance_scores(pred_point: tuple[float, float],
                    gt_points: list[tuple[float, float]]) -> tuple[float, float]:
    """(min, avg) Euclidean distance from the prediction to the annotations."""
    if not gt_points:
        raise DomainError("distance_scores needs at least one ground-truth point")
    p = np.asarray(pred_point, dtype=np.float64)
    pts = np.asarray(gt_points, dtype=np.float64)
    d = np.linalg.norm(pts - p, axis=1)
    return float(d.min()), float(d.mean())


def average_precision(scores: list[float], labels: list[int]) -> float:
    """Step-interpolated AP; ranking by descending score, ties by index."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DomainError("scores and labels must be equal-length 1D sequences")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DomainError("average precision undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    tp = np.cumsum(ranked)
    precision = tp / np.arange(1, len(ranked) + 1)
    recall_step = ranked / n_pos
    return float(np.sum(precision * recall_step))


@dataclass
class SampleDump:
    """One evaluated sample: its prediction and per-sample metric inputs."""

    sample_id: int
    in_frame: int
    p_gaze: tuple[float, float]
    min_dist: float | None
    avg_dist: float | None
    auc: float | None
    weights: dict[str, float]
    inout: float | None
    config_hash: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def aggregate(per_sample: list[SampleDump], binarization_radius: float,
              config_hash: str = "") -> MetricsReport:
    """AUC/distances averaged over in-frame samples; AP and the mean
    attention weight of each modality over all samples."""
    in_frame = [s for s in per_sample if s.in_frame]
    if not in_frame:
        raise DomainError("no in-frame samples: AUC and distances undefined")
    aucs = [s.auc for s in in_frame if s.auc is not None]
    if not aucs:
        raise DomainError("every in-frame sample was excluded from AUC")
    ap = None
    scores = [s.inout for s in per_sample]
    if all(sc is not None for sc in scores):
        ap = average_precision(scores, [1 if s.in_frame else 0 for s in per_sample])
    modalities = dict.fromkeys(m for s in per_sample for m in s.weights)
    return MetricsReport(
        auc=float(np.mean(aucs)),
        avg_dist=float(np.mean([s.avg_dist for s in in_frame])),
        min_dist=float(np.mean([s.min_dist for s in in_frame])),
        ap=ap,
        n_samples=len(per_sample),
        config_hash=config_hash,
        binarization_radius=binarization_radius,
        attention_means={
            m: float(np.mean([s.weights[m] for s in per_sample if m in s.weights]))
            for m in modalities
        },
    )
