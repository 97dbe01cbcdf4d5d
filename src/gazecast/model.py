"""The assembled gaze-target network and its batched forward pass.

All eight run variants share this code path; a RunConfig decides which
submodules exist (fusion for multimodal variants, per-modality injectors
for late fusion, the optional in/out head) and which modalities are read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from . import tensor as T
from .config import RunConfig
from .data import SceneSample, crop_head
from .encoders import GazeSubnet, SceneExtractor, concat_modality_inputs
from .errors import ModelOutputError
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

    def shard(self, sl: slice) -> "Batch":
        """The samples ``sl`` of this batch, as views."""
        return Batch(
            modality_images={m: a[sl] for m, a in self.modality_images.items()},
            head_crops=self.head_crops[sl], eyes=self.eyes[sl],
            head_masks=self.head_masks[sl], gt_heatmaps=self.gt_heatmaps[sl],
            gt_dirs=self.gt_dirs[sl], in_frame=self.in_frame[sl],
        )


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
    dt, res = cfg.dtype, cfg.input_resolution
    feats = {
        "images": {m: T.resize_nearest(sample.modality(m), res, res).astype(dt)
                   for m in cfg.modalities},
        "crop": crop_head(sample, cfg.head_crop_source, res).astype(dt),
        "eye": np.array([sample.eye.x, sample.eye.y]),
        "mask": render_head_mask(sample.head_box, res, res)[None].astype(dt),
        "in_frame": float(sample.in_frame),
    }
    if sample.in_frame:
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


def drop_modalities(batch: Batch, plan: DropoutPlan) -> Batch:
    """``batch`` with the images of every modality the plan drops replaced
    by its noise. The noise is drawn for the whole batch, so a shard of the
    result holds the same noise however the batch is cut."""
    if not plan.dropped:
        return batch
    return replace(batch, modality_images={
        m: apply_dropout(img, plan, m) for m, img in batch.modality_images.items()})


class GazeTargetModel(nn.Module):
    def __init__(self, cfg: RunConfig, state: dict[str, np.ndarray] | None = None):
        """A model with freshly drawn float64 weights or, given a checkpoint's
        ``state``, one whose layers draw and allocate nothing; either way its
        parameters are then loaded from the state, cast only where their dtype
        is not the configured precision."""
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
        if state is None:
            state = {name: p.data for name, p in self.named_parameters()}
        self.load_state_dict(state, dtype=cfg.dtype)

    def forward(self, batch: Batch) -> ForwardResult:
        """The outputs for ``batch``. A row whose heatmap or in/out score is
        not finite, from which no point, AUC or AP can be read, raises."""
        cfg = self.cfg
        subnet_out = self.gaze_subnet(Tensor(batch.head_crops))
        cone = cone_batch(subnet_out.direction, batch.eyes,
                          cfg.input_resolution, cfg.input_resolution, cfg.aperture)
        mask = Tensor(batch.head_masks)

        feature_maps = {}
        for m in cfg.modalities:
            img = Tensor(batch.modality_images[m])
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
        _check_finite(heatmap.data, "heatmap head emitted a non-finite heatmap")
        inout = self.inout(combined, subnet_out.embedding) if cfg.inout_head else None
        if inout is not None:
            _check_finite(inout.data, "in/out head emitted a non-finite score")
        return ForwardResult(
            heatmap=heatmap, direction=subnet_out.direction, cone=cone,
            weights=weights, inout=inout,
        )


def _check_finite(values: np.ndarray, what: str) -> None:
    """Raise ModelOutputError naming the first batch row of ``values`` not all finite."""
    bad = np.flatnonzero(~np.isfinite(values.reshape(len(values), -1)).all(axis=1))
    if bad.size:
        raise ModelOutputError(f"{what} in batch row {bad[0]}")


def compute_losses(result: ForwardResult, batch: Batch, cfg: RunConfig,
                   plan: DropoutPlan = EMPTY_PLAN, whole: Batch | None = None) -> LossBreakdown:
    """The losses of ``batch``. When it is a shard of ``whole``, each
    component is weighted by the shard's share of ``whole``'s samples, its
    in-frame ones for gaze and direction, so that the shards' components
    add up to ``whole``'s (``heads.sum_losses``)."""
    mask = batch.in_frame
    gaze_l = loss_gaze(result.heatmap, Tensor(batch.gt_heatmaps), mask)
    dir_l = loss_dir(result.direction, Tensor(batch.gt_dirs), mask)
    io_l = loss_io(result.inout, batch.in_frame) if result.inout is not None \
        else Tensor(np.zeros((), dtype=cfg.dtype))
    att_l = loss_att(result.weights, plan, cfg.modalities)
    if whole is not None:
        in_frame = whole.in_frame.sum()
        frame_share = float(mask.sum() / in_frame) if in_frame else 0.0
        sample_share = len(mask) / len(whole.in_frame)
        gaze_l, dir_l = T.scale(gaze_l, frame_share), T.scale(dir_l, frame_share)
        io_l, att_l = T.scale(io_l, sample_share), T.scale(att_l, sample_share)
    return total_loss(gaze_l, dir_l, io_l, att_l, cfg)
