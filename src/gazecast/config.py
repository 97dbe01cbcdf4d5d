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
    lr: float = 1e-4
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
        if not (0.0 < self.lr < math.inf):
            raise ConfigError(f"train.lr {self.lr} is not finite and > 0")
        for key, beta in (("train.beta1", self.beta1), ("train.beta2", self.beta2)):
            if not (0.0 <= beta < 1.0):
                raise ConfigError(f"{key} {beta} outside [0,1)")
        if not (self.epsilon > 0.0):
            raise ConfigError(f"train.epsilon {self.epsilon} is not > 0")
        for key in ("train.weight_decay", "loss.lambda_gaze", "loss.lambda_dir",
                    "loss.lambda_io", "loss.lambda_att"):
            value = getattr(self, key.partition(".")[2])
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
        for key, attr in sorted(RUN_KEYS.items()):
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


# file keys are ``<section>.<field>``; the sections are listed here once
_SECTIONS = {
    "model": ("variant", "input_resolution", "heatmap_resolution", "feature_channels",
              "embedding_size", "stage_channels", "heatmap_bounded", "inout_head",
              "aperture", "precision"),
    "loss": ("lambda_gaze", "lambda_dir", "lambda_io", "lambda_att"),
    "train": ("lr", "weight_decay", "beta1", "beta2", "epsilon", "epochs", "batch_size",
              "p_drop", "seed"),
    "data": ("sigma",),
    "metrics": ("binarization_radius",),
}
RUN_KEYS = {f"{section}.{name}": name for section, names in _SECTIONS.items() for name in names}


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_PARSERS = {  # field annotation -> (name in errors, parser); other fields take the text
    "bool": ("boolean", lambda raw: _BOOLEANS[raw.lower()]),
    "int": ("integer", int),
    "float": ("float", float),
    "tuple[int, ...]": ("integer list", lambda raw: tuple(int(v) for v in raw.split(","))),
}


def _parse_value(kind: str, raw: str):
    """Parse ``raw`` as a dataclass field annotated ``kind``."""
    name, parse = _PARSERS.get(kind.removesuffix(" | None"), ("text", str))
    try:
        return parse(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad {name} {raw!r}") from exc


def read_settings(cls, text: str, keymap: dict[str, str]):
    """An instance of dataclass ``cls`` from 'key = value' lines.

    '#' starts a comment and blank lines are skipped. ``keymap`` maps each
    file key to a field name; an unknown or repeated key, or a value that
    does not parse as its field's type, raises ConfigError.
    """
    kinds = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {no}: expected 'key = value', got {line.rstrip()!r}")
        key, val = (part.strip() for part in stripped.split("=", 1))
        attr = keymap.get(key)
        if attr is None:
            raise ConfigError(f"line {no}: unknown config key {key!r}")
        if attr in kwargs:
            raise ConfigError(f"line {no}: {key} is set a second time")
        kwargs[attr] = _parse_value(kinds[attr], val)
    return cls(**kwargs)


def settings_text(path) -> str:
    """The text of settings file ``path``, which must be UTF-8; no path
    reads as an empty file."""
    if path is None:
        return ""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_config(path=None) -> RunConfig:
    """Build a RunConfig from an optional file; without one, the defaults."""
    return read_settings(RunConfig, settings_text(path), RUN_KEYS)


def config_from_text(text: str) -> RunConfig:
    """Rebuild a config from its canonical serialization (checkpoints)."""
    return read_settings(RunConfig, text, RUN_KEYS)
