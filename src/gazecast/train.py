"""Training loop: deterministic shuffling, per-batch dropout plans, AdamW
steps, and a plain-text loss CSV (step, components, total), written when
training completes."""

from __future__ import annotations

import math

import numpy as np

from . import nn
from . import tensor as T
from .config import RunConfig
from .data import SceneSample
from .errors import GazecastError
from .fusion import sample_dropout_plan
from .model import GazeTargetModel, build_batch, compute_losses, sample_features
from .serialization import atomic_write

CSV_HEADER = "step,loss_gaze,loss_dir,loss_io,loss_att,loss_total"


class TrainingDivergedError(GazecastError):
    """Loss became NaN/Inf during training."""


def train_model(cfg: RunConfig, samples: list[SceneSample],
                init_states: list[dict] | None = None,
                csv_path=None, log=None) -> GazeTargetModel:
    """Train a fresh model on ``samples`` for cfg.epochs; deterministic
    given (cfg, samples)."""
    model = GazeTargetModel(cfg)
    for state in init_states or []:
        model.load_state_dict(state, strict=False)

    optimizer = nn.AdamW(
        model.parameters(), learning_rate=cfg.learning_rate,
        betas=(cfg.beta1, cfg.beta2), epsilon=cfg.epsilon,
        weight_decay=cfg.weight_decay,
    )
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
    plan_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2)))

    feature_cache = [sample_features(s, cfg) for s in samples]
    csv_rows = [CSV_HEADER]

    step = 0
    # a diverging run overflows inside numpy; the checks on the loss, the
    # gaze direction and the final weights report it once, not numpy warnings
    try:
        with np.errstate(all="ignore"):
            for epoch in range(cfg.epochs):
                order = shuffle_rng.permutation(len(samples))
                for start in range(0, len(samples), cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    batch = build_batch(None, cfg, cache=[feature_cache[i] for i in idx])
                    plan = sample_dropout_plan(cfg.modalities, cfg.effective_p_drop, plan_rng)
                    result = model(batch, plan)
                    losses = compute_losses(result, batch, cfg, plan)
                    total = losses.total_value
                    if not math.isfinite(total):
                        raise TrainingDivergedError(
                            f"non-finite loss {total} at step {step} (epoch {epoch})"
                        )
                    T.backward(losses.total)
                    optimizer.step()
                    model.zero_grad()
                    step += 1
                    csv_rows.append(f"{step},{losses.gaze!r},{losses.direction!r},"
                                    f"{losses.inout!r},{losses.attention!r},{total!r}")
                if log:
                    log(f"epoch {epoch + 1}/{cfg.epochs}: loss {total:.6f}")
    finally:
        T.fresh_tape()
    for name, p in model.named_parameters():
        if not np.isfinite(p.data).all():
            # the last step's update overflowed: no later loss shows it
            raise TrainingDivergedError(f"non-finite weights in {name} after step {step}")
    if csv_path:
        with atomic_write(csv_path) as f:
            f.write("\n".join(csv_rows) + "\n")
    return model
