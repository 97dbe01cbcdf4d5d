"""Training loop: deterministic shuffling, per-batch dropout plans, AdamW
steps, and a plain-text loss CSV (step, components, total), returned when
training completes. Each batch's forward and backward run in fixed shards
(``parallel``)."""

from __future__ import annotations

import math

import numpy as np

from . import nn
from . import tensor as T
from .config import RunConfig
from .data import SceneSample
from .errors import DatasetError, GazecastError
from .fusion import DropoutPlan, sample_dropout_plan
from .heads import LossBreakdown, sum_losses
from .model import (Batch, GazeTargetModel, build_batch, compute_losses, drop_modalities,
                    sample_features)
from .parallel import run_shards

CSV_HEADER = "step,loss_gaze,loss_dir,loss_io,loss_att,loss_total"


class TrainingDivergedError(GazecastError):
    """Loss became NaN/Inf during training."""


def train_model(cfg: RunConfig, samples: list[SceneSample],
                init_states: list[dict] | None = None,
                log=None) -> tuple[GazeTargetModel, str]:
    """Train a fresh model on ``samples`` for cfg.epochs; return it with
    its loss CSV text. Deterministic given (cfg, samples)."""
    if not samples:
        raise DatasetError("dataset is empty")
    model = GazeTargetModel(cfg)
    for state in init_states or []:
        # AdamW updates in place: the model trains copies, not the caller's arrays
        model.load_state_dict({name: arr.copy() for name, arr in state.items()}, strict=False)

    optimizer = nn.AdamW(
        model.parameters(), lr=cfg.lr,
        betas=(cfg.beta1, cfg.beta2), epsilon=cfg.epsilon,
        weight_decay=cfg.weight_decay,
    )
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
    plan_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2)))

    feature_cache = [sample_features(s, cfg) for s in samples]
    csv_rows = [CSV_HEADER]
    replicas: dict[int, GazeTargetModel] = {0: model}

    step = 0
    # a diverging run overflows inside numpy; the checks on the model's
    # outputs, the loss and the final weights report it once, not numpy warnings
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(len(samples))
            for start in range(0, len(samples), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                batch = build_batch(None, cfg, cache=[feature_cache[i] for i in idx])
                plan = sample_dropout_plan(cfg.modalities, cfg.effective_p_drop, plan_rng)
                losses = sharded_backward(replicas, drop_modalities(batch, plan), plan)
                total = losses.total_value
                if not math.isfinite(total):
                    raise TrainingDivergedError(
                        f"non-finite loss {total} at step {step} (epoch {epoch})"
                    )
                optimizer.step()
                model.zero_grad()
                step += 1
                csv_rows.append(f"{step},{losses.gaze!r},{losses.direction!r},"
                                f"{losses.inout!r},{losses.attention!r},{total!r}")
            if log:
                log(f"epoch {epoch + 1}/{cfg.epochs}: loss {total:.6f}")
    for name, p in model.named_parameters():
        if not np.isfinite(p.data).all():
            # the last step's update overflowed: no later loss shows it
            raise TrainingDivergedError(f"non-finite weights in {name} after step {step}")
    return model, "\n".join(csv_rows) + "\n"


def sharded_backward(replicas: dict[int, GazeTargetModel], batch: Batch,
                     plan: DropoutPlan) -> LossBreakdown:
    """Forward and backward of ``batch`` in shards; returns the batch's loss
    breakdown and leaves its gradient in the ``.grad`` of ``replicas[0]``,
    the model being trained: each parameter's shard gradients summed in
    shard order.

    Worker thread ``w`` runs its shards on ``replicas[w]``, built here on
    first use: a model that draws nothing and shares the trained model's
    parameter arrays, which AdamW updates in place, so that threads never
    add into one gradient at once.
    """
    model = replicas[0]
    cfg = model.cfg

    def shard(worker: int, sl: slice):
        replica = replicas.get(worker)
        if replica is None:
            state = {name: p.data for name, p in model.named_parameters()}
            replica = replicas[worker] = GazeTargetModel(cfg, state)
        part = batch.shard(sl)
        losses = compute_losses(replica(part), part, cfg, plan, whole=batch)
        T.backward(losses.total)
        grads = [p.grad for p in replica.parameters()]
        replica.zero_grad()
        return losses, grads

    parts = run_shards(shard, len(batch.in_frame))
    params = model.parameters()
    for _, grads in parts:
        for p, g in zip(params, grads):
            if p.grad is None:
                p.grad = g
            else:
                p.grad += g
    return sum_losses([losses for losses, _ in parts], cfg)
