"""Attention-based fusion of per-modality feature maps, plus modality dropout.

Pipeline per batch: transform each modality map with a modality-specific
1x1 conv, compress each transformed map to an embedding (three strided
convs, global max pool, projection), concatenate embeddings in the fixed
modality order, project to one logit per modality, softmax into weights,
and take the weighted sum of the transformed maps.

Modality dropout replaces a dropped modality's input image with seeded
uniform white noise; the attention loss later pushes its weight to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .config import RunConfig
from .errors import DomainError, ShapeMismatchError
from .tensor import Tensor


@dataclass(frozen=True)
class DropoutPlan:
    dropped: frozenset[str]
    noise_seed: int


EMPTY_PLAN = DropoutPlan(frozenset(), 0)


@dataclass
class FusionOutput:
    combined: Tensor                 # [N, d, h, w]
    weights: Tensor                  # [N, M] rows on the simplex


class ModalityEmbedder(nn.Module):
    """Three stride-2 convs, global max pool, projection to embedding size.

    Channel count stays at ``d`` through the conv stages; the final linear
    layer reconciles d with the configured embedding size.
    """

    def __init__(self, cfg: RunConfig, rng: np.random.Generator | None):
        d = cfg.feature_channels
        self.convs = [nn.Conv2d(d, d, 3, rng, stride=2, padding=1) for _ in range(3)]
        self.project = nn.Linear(d, cfg.embedding_size, rng)

    def forward(self, fmap: Tensor) -> Tensor:
        if fmap.shape[-1] < 8 or fmap.shape[-2] < 8:
            raise ShapeMismatchError(
                f"embedder needs spatial size >= 8 for three stride-2 convs, got {fmap.shape}"
            )
        x = fmap
        for conv in self.convs:
            x = T.relu(conv(x))
        return self.project(T.global_max_pool(x))


class AttentionFusion(nn.Module):
    """Soft-selection across modalities; see module docstring for the steps."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator | None):
        self.modalities = cfg.modalities
        self.transforms = {m: nn.Conv2d(cfg.feature_channels, cfg.feature_channels, 1, rng)
                           for m in self.modalities}
        self.embedders = {m: ModalityEmbedder(cfg, rng) for m in self.modalities}
        self.projection = nn.Linear(cfg.embedding_size * len(self.modalities),
                                    len(self.modalities), rng)
        # dot-product-style logit scaling: without it the freshly initialized
        # projection saturates the softmax (near one-hot weights, frozen
        # gradients) and the attention never recovers
        self.logit_scale = 1.0 / (cfg.embedding_size * len(self.modalities)) ** 0.5

    def attention_weights(self, embeddings: list[Tensor]) -> Tensor:
        """Softmax over one scaled logit per modality; rows sum to 1."""
        global_embedding = T.concat(embeddings, axis=1)
        logits = T.scale(self.projection(global_embedding), self.logit_scale)
        return T.softmax(logits, axis=1)

    def forward(self, feature_maps: dict[str, Tensor]) -> FusionOutput:
        transformed = {m: self.transforms[m](feature_maps[m]) for m in self.modalities}
        weights = self.attention_weights(
            [self.embedders[m](transformed[m]) for m in self.modalities])
        combined = fuse([transformed[m] for m in self.modalities], weights)
        return FusionOutput(combined=combined, weights=weights)


def fuse(transformed_maps: list[Tensor], weights: Tensor) -> Tensor:
    """Weighted sum of transformed maps: combined = sum_m w[:, m] * map_m."""
    n_mod = len(transformed_maps)
    if weights.shape[-1] != n_mod:
        raise ShapeMismatchError(
            f"{n_mod} maps but {weights.shape[-1]} attention weights"
        )
    total = None
    for m, fmap in enumerate(transformed_maps):
        w_m = T.reshape(weights[:, m], (fmap.shape[0], 1, 1, 1))
        term = T.mul(w_m, fmap)
        total = term if total is None else T.add(total, term)
    return total


class LateFusionInject(nn.Module):
    """Late-fusion variant: pool the cone and mask down to feature
    resolution, concatenate onto the modality's feature map, and project
    back to the original channel count with a 1x1 conv."""

    def __init__(self, map_channels: int, rng: np.random.Generator | None):
        self.project = nn.Conv2d(map_channels + 2, map_channels, 1, rng)

    def forward(self, fmap: Tensor, cone: Tensor, mask: Tensor) -> Tensor:
        h, w = fmap.shape[-2:]
        ch, cw = cone.shape[-2:]
        if ch % h or cw % w:
            raise ShapeMismatchError(
                f"cone resolution {(ch, cw)} is not an integer multiple of map {(h, w)}"
            )
        cone_small = T.avg_pool2d(cone, ch // h)
        mask_small = T.avg_pool2d(mask, ch // h)
        stacked = T.concat([fmap, cone_small, mask_small], axis=1)
        return self.project(stacked)


# ---------------------------------------------------------------------------
# modality dropout
# ---------------------------------------------------------------------------


def _nonempty_strict_subsets(items: tuple[str, ...]) -> list[frozenset[str]]:
    subsets = []
    n = len(items)
    for bits in range(1, 2**n - 1):
        subsets.append(frozenset(items[i] for i in range(n) if bits & (1 << i)))
    return subsets


def sample_dropout_plan(active: tuple[str, ...], p_drop: float,
                        rng: np.random.Generator) -> DropoutPlan:
    """With probability p_drop, drop a uniformly random nonempty strict
    subset of the active modalities; otherwise drop nothing."""
    if p_drop > 0.0 and len(active) < 2:
        raise DomainError("modality dropout needs at least two active modalities")
    seed = int(rng.integers(0, 2**63 - 1))
    if p_drop <= 0.0 or rng.random() >= p_drop:
        return DropoutPlan(frozenset(), seed)
    subsets = _nonempty_strict_subsets(tuple(active))
    return DropoutPlan(subsets[int(rng.integers(0, len(subsets)))], seed)


def apply_dropout(image: Tensor, plan: DropoutPlan, modality: str) -> Tensor:
    """Replace the image with seeded uniform [0,1) noise when dropped."""
    if modality not in plan.dropped:
        return image
    gen = np.random.default_rng(np.random.SeedSequence((plan.noise_seed, _stable_id(modality))))
    noise = gen.random(image.shape, dtype=np.float64).astype(image.dtype)
    return Tensor(noise)


def _stable_id(modality: str) -> int:
    return int.from_bytes(modality.encode(), "little") % (2**31)
