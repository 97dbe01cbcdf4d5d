"""The assembled gaze-target network and its batched forward pass.

All eight run variants share this code path; a RunConfig decides which
submodules exist (fusion for multimodal variants, per-modality injectors
for late fusion, the optional in/out head) and which modalities are read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .config import RunConfig
from .data import SceneSample, crop_head, resize_nearest
from .encoders import GazeSubnet, SceneExtractor, concat_modality_inputs
from .fusion import (AttentionFusion, DropoutPlan, EMPTY_PLAN, LateFusionInject,
                     apply_dropout)
from .geometry import cone_batch, make_gt_heatmap, render_head_mask
from .heads import HeatmapHead, InOutHead, LossBreakdown, loss_att, loss_dir, loss_gaze, loss_io, total_loss
from .tensor import Tensor


@dataclass
class Batch:
    modality_images: dict[str, np.ndarray]   # (N, 3, H, W) each
    head_crops: np.ndarray                   # (N, 3, H, W)
    eyes: np.ndarray                         # (N, 2)
    head_masks: np.ndarray                   # (N, 1, H, W)
    gt_heatmaps: np.ndarray                  # (N, 1, hm, hm); zeros when out-of-frame
    gt_dirs: np.ndarray                      # (N, 2)
    in_frame: np.ndarray                     # (N,) 0/1


@dataclass
class ForwardResult:
    heatmap: Tensor                # (N, 1, hm, hm)
    direction: Tensor              # (N, 2) unit rows
    cone: Tensor                   # (N, 1, H, W)
    weights: Tensor                # (N, M); ones (N, 1) for single-modality variants
    inout: Tensor | None           # (N,) or None when the head is disabled


def sample_features(sample: SceneSample, cfg: RunConfig) -> dict:
    """Per-sample constant arrays; reads only the variant's modalities.

    Modality images are nearest-resized to the configured input resolution
    when the dataset was rendered at a different one.
    """
    dt = cfg.dtype
    feats = {
        "images": {m: resize_nearest(sample.modality(m), cfg.input_resolution).astype(dt)
                   for m in cfg.modalities},
        "crop": crop_head(sample, cfg.head_crop_source, cfg.input_resolution).astype(dt),
        "eye": np.array([sample.eye.x, sample.eye.y]),
        "mask": render_head_mask(sample.head_box, cfg.input_resolution,
                                 cfg.input_resolution)[None].astype(dt),
        "in_frame": float(sample.in_frame),
    }
    if sample.in_frame and sample.gaze_points:
        feats["gt_heatmap"] = make_gt_heatmap(sample.gaze_points, cfg.heatmap_resolution,
                                              cfg.heatmap_resolution, cfg.sigma)[None].astype(dt)
        feats["gt_dir"] = sample.oracle_gaze_dir.xy.astype(dt)
    else:
        feats["gt_heatmap"] = np.zeros((1, cfg.heatmap_resolution, cfg.heatmap_resolution), dtype=dt)
        feats["gt_dir"] = np.array([1.0, 0.0], dtype=dt)  # masked out of the loss
    return feats


def build_batch(samples: list[SceneSample], cfg: RunConfig,
                cache: list[dict] | None = None) -> Batch:
    feats = cache if cache is not None else [sample_features(s, cfg) for s in samples]
    return Batch(
        modality_images={m: np.stack([f["images"][m] for f in feats]) for m in cfg.modalities},
        head_crops=np.stack([f["crop"] for f in feats]),
        eyes=np.stack([f["eye"] for f in feats]),
        head_masks=np.stack([f["mask"] for f in feats]),
        gt_heatmaps=np.stack([f["gt_heatmap"] for f in feats]),
        gt_dirs=np.stack([f["gt_dir"] for f in feats]),
        in_frame=np.array([f["in_frame"] for f in feats]),
    )


class GazeTargetModel(nn.Module):
    def __init__(self, cfg: RunConfig, state: dict[str, np.ndarray] | None = None):
        """A model with freshly drawn weights or, given a checkpoint's
        ``state``, one whose layers draw nothing and whose every parameter
        the strict ``load_state_dict`` fills."""
        rng = None if state is not None else np.random.default_rng(
            np.random.SeedSequence((cfg.seed, 0xA11CE)))
        self.cfg = cfg
        self.gaze_subnet = GazeSubnet(cfg, rng)
        self.extractors = {m: SceneExtractor(cfg, rng) for m in cfg.modalities}
        if cfg.late_fusion:
            self.injectors = {m: LateFusionInject(cfg.feature_channels, rng)
                              for m in cfg.modalities}
        if cfg.fusion_enabled:
            self.fusion = AttentionFusion(cfg, rng)
        self.heatmap_head = HeatmapHead(cfg, rng)
        if cfg.inout_head:
            self.inout = InOutHead(cfg, rng)
        # layers initialize in float64; precision is applied once, here
        for p in self.parameters():
            p.data = p.data.astype(cfg.dtype, copy=False)
        if state is not None:
            self.load_state_dict(state)

    def forward(self, batch: Batch, plan: DropoutPlan = EMPTY_PLAN) -> ForwardResult:
        cfg = self.cfg
        subnet_out = self.gaze_subnet(Tensor(batch.head_crops))
        cone = cone_batch(subnet_out.direction, batch.eyes,
                          cfg.input_resolution, cfg.input_resolution, cfg.aperture)
        mask = Tensor(batch.head_masks)

        feature_maps = {}
        for m in cfg.modalities:
            img = apply_dropout(Tensor(batch.modality_images[m]), plan, m)
            if cfg.late_fusion:
                fmap = self.extractors[m](img)
                fmap = self.injectors[m](fmap, cone, mask)
            else:
                fmap = self.extractors[m](concat_modality_inputs(img, cone, mask))
            feature_maps[m] = fmap

        if cfg.fusion_enabled:
            fusion_out = self.fusion(feature_maps)
            combined = fusion_out.combined
            weights = fusion_out.weights
        else:
            combined = feature_maps[cfg.modalities[0]]
            weights = Tensor(np.ones((combined.shape[0], 1), dtype=cfg.dtype))

        heatmap = self.heatmap_head(combined)
        inout = self.inout(combined, subnet_out.embedding) if cfg.inout_head else None
        return ForwardResult(
            heatmap=heatmap, direction=subnet_out.direction, cone=cone,
            weights=weights, inout=inout,
        )


def compute_losses(result: ForwardResult, batch: Batch, cfg: RunConfig,
                   plan: DropoutPlan = EMPTY_PLAN) -> LossBreakdown:
    mask = batch.in_frame
    gaze_l = loss_gaze(result.heatmap, Tensor(batch.gt_heatmaps), mask)
    dir_l = loss_dir(result.direction, Tensor(batch.gt_dirs), mask)
    io_l = loss_io(result.inout, batch.in_frame) if result.inout is not None \
        else Tensor(np.zeros((), dtype=cfg.dtype))
    att_l = loss_att(result.weights, plan, cfg.modalities)
    return total_loss(gaze_l, dir_l, io_l, att_l, cfg)
