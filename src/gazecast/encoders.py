"""Gaze subnetwork and per-modality scene feature extractors.

Both are small strided-conv encoders. The scene extractor adds an FPN-style
decoder: lateral 1x1 projections from intermediate stages are summed into
the upsampling path, recovering quarter-resolution feature maps. Disabling
``skip_connections`` removes exactly the lateral convolutions and nothing
else, so the ablation differs from the default only in those parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .config import RunConfig
from .errors import ModelOutputError
from .tensor import Tensor

@dataclass
class GazeSubnetOutput:
    direction: Tensor  # [N, 2], unit rows
    embedding: Tensor  # [N, embedding_size]


def concat_modality_inputs(modality: Tensor, cone: Tensor, mask: Tensor) -> Tensor:
    """Channel-stack [modality(3), cone(1), mask(1)]; early-fusion input."""
    return T.concat([modality, cone, mask], axis=modality.ndim - 3)


class GazeSubnet(nn.Module):
    """Head crop -> (unit 2D gaze direction, gaze embedding)."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator | None):
        chans = [3, *cfg.stage_channels]
        self.stages = [
            nn.Conv2d(chans[i], chans[i + 1], 3, rng, stride=2, padding=1)
            for i in range(len(cfg.stage_channels))
        ]
        self.embed = nn.Linear(cfg.stage_channels[-1], cfg.embedding_size, rng)
        self.head = nn.Linear(cfg.embedding_size, 2, rng)

    def forward(self, crop: Tensor) -> GazeSubnetOutput:
        x = crop
        for stage in self.stages:
            x = stage(x, relu=True)
        pooled = T.global_max_pool(x)
        emb = T.relu(self.embed(pooled))
        raw_dir = self.head(emb)
        norm = T.reshape(T.tsqrt(T.tsum(T.mul(raw_dir, raw_dir), axis=1)), (raw_dir.shape[0], 1))
        bad = np.flatnonzero(~(np.isfinite(norm.data) & (norm.data >= 1e-12)))
        if bad.size:
            raise ModelOutputError(f"gaze subnet emitted no gaze direction: raw direction "
                                   f"norm {norm.data[bad[0], 0]} in batch row {bad[0]}")
        direction = T.div(raw_dir, norm)
        return GazeSubnetOutput(direction=direction, embedding=emb)


class SceneExtractor(nn.Module):
    """Encoder-decoder producing a quarter-resolution saliency feature map.

    Input channels: 5 with early fusion (modality + cone + mask), 3 when the
    late-fusion variant feeds the modality image alone.
    """

    def __init__(self, cfg: RunConfig, rng: np.random.Generator | None):
        c = cfg.stage_channels
        d = cfg.feature_channels
        self.in_channels = 3 if cfg.late_fusion else 5
        self.skip_connections = cfg.skip_connections
        chans = [self.in_channels, *c]
        self.stages = [
            nn.Conv2d(chans[i], chans[i + 1], 3, rng, stride=2, padding=1)
            for i in range(len(c))
        ]
        self.bottleneck_proj = nn.Conv2d(c[-1], d, 1, rng)
        if cfg.skip_connections:
            # lateral links from the two stages the decoder revisits
            self.lateral_mid = nn.Conv2d(c[-2], d, 1, rng)
            self.lateral_quarter = nn.Conv2d(c[-3], d, 1, rng)
        self.smooth_mid = nn.Conv2d(d, d, 3, rng, padding=1)
        self.smooth_quarter = nn.Conv2d(d, d, 3, rng, padding=1)

    def forward(self, x: Tensor) -> Tensor:
        feats = []
        for stage in self.stages:
            x = stage(x, relu=True)
            feats.append(x)
        top = self.bottleneck_proj(feats[-1])
        if self.skip_connections:
            up_mid = T.upsample_add(top, self.lateral_mid(feats[-2]), 2)
        else:
            up_mid = T.upsample_nearest(top, 2)
        mid = self.smooth_mid(up_mid, relu=True)
        if self.skip_connections:
            up_q = T.upsample_add(mid, self.lateral_quarter(feats[-3]), 2)
        else:
            up_q = T.upsample_nearest(mid, 2)
        return self.smooth_quarter(up_q, relu=True)
