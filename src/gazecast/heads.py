"""Prediction heads (heatmap regression, in/out classification) and losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .config import RunConfig
from .fusion import DropoutPlan, ModalityEmbedder
from .errors import ShapeMismatchError
from .tensor import Tensor

BCE_CLAMP = 1e-7


@dataclass
class LossBreakdown:
    """Component losses plus their exact weighted combination.

    ``total`` is the differentiable tensor used for backward; the float
    fields are the logged values. Recomputing, with the run config's weights,
    lambda_gaze*gaze + lambda_dir*direction + lambda_io*inout + lambda_att*attention
    in that order reproduces total bit-exactly.
    """

    gaze: float
    direction: float
    inout: float
    attention: float
    total: Tensor

    @property
    def total_value(self) -> float:
        return self.total.item()


class HeatmapHead(nn.Module):
    """Parameter-free nearest upsampling to heatmap resolution followed by a
    conv stack (d -> d/2 -> d/4 -> 1), sigmoid-bounded by default. The
    upsample is folded into the first conv, which runs at the feature
    resolution."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator | None):
        d = cfg.feature_channels
        self.factor = cfg.heatmap_resolution // cfg.feature_resolution
        self.bounded = cfg.heatmap_bounded
        self.conv1 = nn.Conv2d(d, d // 2, 3, rng, padding=1)
        self.conv2 = nn.Conv2d(d // 2, d // 4, 3, rng, padding=1)
        self.conv3 = nn.Conv2d(d // 4, 1, 3, rng, padding=1)

    def forward(self, fmap: Tensor) -> Tensor:
        c1 = self.conv1
        x = T.upsample_conv2d(fmap, c1.weight, c1.bias, self.factor, c1.padding, relu=True)
        x = self.conv2(x, relu=True)
        x = self.conv3(x)
        return T.sigmoid(x) if self.bounded else x


class InOutHead(nn.Module):
    """Scene embedding (same architecture as the modality embedder) joined
    with the gaze embedding, then two linear layers and a sigmoid."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator | None):
        self.scene_embed = ModalityEmbedder(cfg, rng)
        self.fc1 = nn.Linear(2 * cfg.embedding_size, cfg.embedding_size, rng)
        self.fc2 = nn.Linear(cfg.embedding_size, 1, rng)

    def forward(self, fmap: Tensor, subnet_embedding: Tensor) -> Tensor:
        scene = self.scene_embed(fmap)
        joined = T.concat([scene, subnet_embedding], axis=1)
        logit = self.fc2(T.relu(self.fc1(joined)))
        return T.reshape(T.sigmoid(logit), (fmap.shape[0],))


def argmax_point(heatmap: np.ndarray) -> tuple[float, float]:
    """Pixel-center coordinates of the first maximum in row-major order."""
    img = heatmap.reshape(heatmap.shape[-2], heatmap.shape[-1])
    h, w = img.shape
    flat_idx = int(np.argmax(img))
    i, j = divmod(flat_idx, w)
    return ((j + 0.5) / w, (i + 0.5) / h)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def loss_gaze(pred: Tensor, target: Tensor, sample_mask: np.ndarray) -> Tensor:
    """Mean per-pixel squared error over the samples whose (N,) 0/1 mask is
    set, the in-frame ones (all-masked batches contribute 0)."""
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"heatmap shapes differ: {pred.shape} vs {target.shape}")
    diff = T.sub(pred, target)
    return _masked_mean(T.mul(diff, diff), sample_mask)


def loss_dir(pred_dir: Tensor, target_dir: Tensor, sample_mask: np.ndarray) -> Tensor:
    """1 - cos(angle) between [N,2] predicted and target unit directions, in
    [0,2], averaged over the samples whose (N,) 0/1 mask is set."""
    cos = T.cosine_similarity(pred_dir, target_dir, axis=-1)
    one_minus = T.sub(Tensor(np.ones(cos.shape, dtype=cos.dtype)), cos)
    return _masked_mean(one_minus, sample_mask)


def _masked_mean(values: Tensor, sample_mask: np.ndarray) -> Tensor:
    """Mean of ``values`` over the samples (leading axis) whose 0/1 mask is
    set; an all-masked batch gives 0 and keeps the graph connected."""
    count = float(sample_mask.sum())
    if count == 0.0:
        return T.scale(T.tsum(values), 0.0)
    per_sample = float(np.prod(values.shape[1:]))
    m = sample_mask.reshape((-1,) + (1,) * (values.ndim - 1)).astype(values.dtype)
    return T.scale(T.tsum(T.mul(values, Tensor(m))), 1.0 / (count * per_sample))


def loss_io(pred: Tensor, target: np.ndarray) -> Tensor:
    """Binary cross entropy with probabilities clamped to [1e-7, 1-1e-7]."""
    p = T.clamp(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = Tensor(np.asarray(target, dtype=p.dtype).reshape(p.shape))
    ones = Tensor(np.ones(p.shape, dtype=p.dtype))
    term = T.add(T.mul(y, T.tlog(p)), T.mul(T.sub(ones, y), T.tlog(T.sub(ones, p))))
    return T.scale(T.tmean(term), -1.0)


def loss_att(weights: Tensor, plan: DropoutPlan, modalities: tuple[str, ...]) -> Tensor:
    """Sum of attention weights of dropped modalities (batch mean); exactly
    zero when the plan is empty."""
    if not plan.dropped:
        return Tensor(np.zeros((), dtype=weights.dtype))
    picked = None
    for idx, m in enumerate(modalities):
        if m in plan.dropped:
            w_m = T.tmean(weights[:, idx])
            picked = w_m if picked is None else T.add(picked, w_m)
    return picked


def total_loss(gaze: Tensor, direction: Tensor, inout: Tensor, attention: Tensor,
               cfg: RunConfig) -> LossBreakdown:
    """Combination weighted by the config's ``lambda_*``, components
    retained for logging."""
    total = T.scale(gaze, cfg.lambda_gaze)
    total = T.add(total, T.scale(direction, cfg.lambda_dir))
    total = T.add(total, T.scale(inout, cfg.lambda_io))
    total = T.add(total, T.scale(attention, cfg.lambda_att))
    return LossBreakdown(
        gaze=float(gaze.data), direction=float(direction.data),
        inout=float(inout.data), attention=float(attention.data),
        total=total,
    )


def sum_losses(parts: list[LossBreakdown], cfg: RunConfig) -> LossBreakdown:
    """One breakdown from the weighted breakdowns of a batch's shards: each
    component summed in shard order, the total combined from the sums as
    ``total_loss`` combines. Its total is a value on no tape."""
    sums = [sum(getattr(p, name) for p in parts)
            for name in ("gaze", "direction", "inout", "attention")]
    return total_loss(*(Tensor(np.asarray(v)) for v in sums), cfg)
