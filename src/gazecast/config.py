"""Run configuration: flat dotted-key config files, variant constraints,
canonical serialization, and the config hash embedded in every output.

Every training constant lives here exactly once. Defaults follow the
published values where they exist (loss coefficients, learning rate,
heatmap sigma); everything else is a documented desk-scale choice.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

_VARIANT_MODALITIES = {
    "multimodal": ("raw", "depth", "pose"),
    "image_only": ("raw",),
    "depth_only": ("depth",),
    "pose_only": ("pose",),
    "privacy": ("depth", "pose"),
    "late_fusion": ("raw", "depth", "pose"),
    "no_skip": ("raw",),
    "no_modrop": ("raw", "depth", "pose"),
}
VARIANTS = tuple(_VARIANT_MODALITIES)


@dataclass(frozen=True)
class RunConfig:
    variant: str = "multimodal"
    # model
    input_resolution: int = 64
    heatmap_resolution: int = 64
    feature_channels: int = 32
    embedding_size: int = 64
    stage_channels: tuple[int, ...] = (16, 32, 64, 128)
    heatmap_bounded: bool = True
    inout_head: bool = False
    aperture: float = math.pi
    precision: str = "f64"
    # losses
    lambda_gaze: float = 100.0
    lambda_dir: float = 0.1
    lambda_io: float = 1.0
    lambda_att: float = 1.0
    # training
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 20
    batch_size: int = 16
    p_drop: float = 0.3
    seed: int = 0
    # data / metrics
    sigma: float = 3.0
    binarization_radius: float | None = None   # None: 3 * sigma

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        if self.precision not in ("f64", "f32"):
            raise ConfigError(f"precision {self.precision!r} not f64|f32")
        if not (0.0 <= self.p_drop < 1.0):
            raise ConfigError(f"p_drop {self.p_drop} outside [0,1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")
        # optimizer, loss and target constants that would crash training or
        # silently fill a checkpoint with non-finite weights; NaN fails every
        # comparison, so each check is written to reject it
        if self.seed < 0:
            raise ConfigError(f"train.seed {self.seed} is negative")
        if not (0.0 < self.learning_rate < math.inf):
            raise ConfigError(f"train.lr {self.learning_rate} is not finite and > 0")
        for key, beta in (("train.beta1", self.beta1), ("train.beta2", self.beta2)):
            if not (0.0 <= beta < 1.0):
                raise ConfigError(f"{key} {beta} outside [0,1)")
        if not (self.epsilon > 0.0):
            raise ConfigError(f"train.epsilon {self.epsilon} is not > 0")
        for key in ("train.weight_decay", "loss.lambda_gaze", "loss.lambda_dir",
                    "loss.lambda_io", "loss.lambda_att"):
            value = getattr(self, _KEYMAP[key])
            if not (0.0 <= value < math.inf):
                raise ConfigError(f"{key} {value} is not finite and >= 0")
        if not (self.sigma > 0.0):
            raise ConfigError(f"data.sigma {self.sigma} is not > 0")
        if self.binarization_radius is not None and not (self.binarization_radius > 0.0):
            raise ConfigError(
                f"metrics.binarization_radius {self.binarization_radius} is not > 0"
            )
        if not (0.0 < self.aperture <= 2.0 * math.pi):
            raise ConfigError(f"model.aperture {self.aperture} outside (0, 2*pi]")
        # the encoders have four stride-2 stages, and the extractor's decoder
        # climbs back two of them to quarter resolution
        if len(self.stage_channels) != 4:
            raise ConfigError(f"model.stage_channels needs 4 stages, got {len(self.stage_channels)}")
        if self.input_resolution < 16 or self.input_resolution % 16:
            raise ConfigError(
                f"model.input_resolution {self.input_resolution} is not a positive multiple of 16"
            )
        if self.heatmap_resolution < 1 or self.heatmap_resolution % self.feature_resolution:
            raise ConfigError(
                f"model.heatmap_resolution {self.heatmap_resolution} is not a positive multiple "
                f"of the feature resolution {self.feature_resolution}"
            )
        # every layer needs a width of at least 1: the heatmap head narrows
        # the features to a quarter of feature_channels
        if min(self.stage_channels) < 1:
            raise ConfigError(f"model.stage_channels {self.stage_channels} has a width below 1")
        if self.feature_channels < 4:
            raise ConfigError(f"model.feature_channels {self.feature_channels} is below 4")
        if self.embedding_size < 1:
            raise ConfigError(f"model.embedding_size {self.embedding_size} is below 1")
        # the fusion and in/out embedders run three stride-2 convs on the
        # feature maps, which needs them at 8x8 or larger
        if (self.fusion_enabled or self.inout_head) and self.feature_resolution < 8:
            raise ConfigError(
                f"model.input_resolution {self.input_resolution} is below 32, which the "
                f"embedders of variant {self.variant!r}"
                f"{' with model.inout_head' if self.inout_head else ''} need"
            )
        if self.binarization_radius is None:
            object.__setattr__(self, "binarization_radius", 3.0 * self.sigma)

    @property
    def dtype(self) -> np.dtype:
        """The numpy dtype ``precision`` names; models and features use it."""
        return np.dtype(np.float32 if self.precision == "f32" else np.float64)

    @property
    def feature_resolution(self) -> int:
        """Side of the extractors' quarter-resolution feature maps."""
        return self.input_resolution // 4

    # -- variant-derived structure ------------------------------------

    @property
    def modalities(self) -> tuple[str, ...]:
        return _VARIANT_MODALITIES[self.variant]

    @property
    def fusion_enabled(self) -> bool:
        return len(self.modalities) > 1

    @property
    def late_fusion(self) -> bool:
        return self.variant == "late_fusion"

    @property
    def skip_connections(self) -> bool:
        return self.variant != "no_skip"

    @property
    def head_crop_source(self) -> str:
        return "pose" if self.variant == "privacy" else "raw"

    @property
    def effective_p_drop(self) -> float:
        """Dropout needs >= 2 modalities; no_modrop pins it to zero while
        keeping the attention loss term defined (it evaluates to 0)."""
        if self.variant == "no_modrop" or not self.fusion_enabled:
            return 0.0
        return self.p_drop

    # -- serialization --------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for key, attr in sorted(_KEYMAP.items()):
            val = getattr(self, attr)
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


_KEYMAP = {
    "model.variant": "variant",
    "model.input_resolution": "input_resolution",
    "model.heatmap_resolution": "heatmap_resolution",
    "model.feature_channels": "feature_channels",
    "model.embedding_size": "embedding_size",
    "model.stage_channels": "stage_channels",
    "model.heatmap_bounded": "heatmap_bounded",
    "model.inout_head": "inout_head",
    "model.aperture": "aperture",
    "model.precision": "precision",
    "loss.lambda_gaze": "lambda_gaze",
    "loss.lambda_dir": "lambda_dir",
    "loss.lambda_io": "lambda_io",
    "loss.lambda_att": "lambda_att",
    "train.lr": "learning_rate",
    "train.weight_decay": "weight_decay",
    "train.beta1": "beta1",
    "train.beta2": "beta2",
    "train.epsilon": "epsilon",
    "train.epochs": "epochs",
    "train.batch_size": "batch_size",
    "train.p_drop": "p_drop",
    "train.seed": "seed",
    "data.sigma": "sigma",
    "metrics.binarization_radius": "binarization_radius",
}


def _parse_value(kind: str, raw: str):
    """Parse ``raw`` as a dataclass field annotated ``kind``."""
    raw = raw.strip()
    kind = kind.removesuffix(" | None")
    if kind == "tuple[int, ...]":
        try:
            return tuple(int(v) for v in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad integer list {raw!r}") from exc
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"bad boolean {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad integer {raw!r}") from exc
    if kind == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad float {raw!r}") from exc
    return raw


def typed_fields(raw: dict[str, str], keymap: dict[str, str], cls) -> dict:
    """Keyword arguments for dataclass ``cls`` from 'key = value' pairs.

    ``keymap`` maps each file key to a field name; an unknown key or a value
    that does not parse as its field's type raises ConfigError.
    """
    kinds = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, val in raw.items():
        if key not in keymap:
            raise ConfigError(f"unknown config key {key!r}")
        attr = keymap[key]
        kwargs[attr] = _parse_value(kinds[attr], val)
    return kwargs


def parse_config_lines(lines) -> dict[str, str]:
    """'key = value' pairs; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {no}: expected 'key = value', got {line.rstrip()!r}")
        key, val = stripped.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def load_config(path=None) -> RunConfig:
    """Build a RunConfig from an optional file; without one, the defaults."""
    raw: dict[str, str] = {}
    if path is not None:
        with open(path) as f:
            raw = parse_config_lines(f)
    return RunConfig(**typed_fields(raw, _KEYMAP, RunConfig))


def config_from_text(text: str) -> RunConfig:
    """Rebuild a config from its canonical serialization (checkpoints)."""
    return RunConfig(**typed_fields(parse_config_lines(text.splitlines()), _KEYMAP, RunConfig))
