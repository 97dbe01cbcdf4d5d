"""Gaze-cone generation, ground-truth heatmaps, head masks, 2D gaze vectors.

Coordinate conventions, used everywhere in the package:
  * image points are normalized (x, y) in [0,1]^2, x rightward, y downward;
  * pixel (i, j) = (row, col) has its center at ((j+0.5)/w, (i+0.5)/h);
  * a point's containing pixel is (floor(y*h), floor(x*w)), clamped.

Everything here is pure and content-independent: outputs depend only on
annotations and resolutions, never on image pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import DomainError
from .serialization import atomic_write
from .tensor import Tensor


@dataclass(frozen=True)
class HeadBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (0.0 <= self.x_min < self.x_max <= 1.0 and 0.0 <= self.y_min < self.y_max <= 1.0):
            raise DomainError(
                f"invalid head box ({self.x_min},{self.y_min},{self.x_max},{self.y_max})"
            )

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


@dataclass(frozen=True)
class EyePoint:
    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise DomainError(f"eye point ({self.x},{self.y}) outside [0,1]^2")

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class GazeVector2D:
    """A unit-norm 2D direction."""

    x: float
    y: float

    def __post_init__(self):
        n = math.hypot(self.x, self.y)
        if abs(n - 1.0) > 1e-9:
            raise DomainError(f"gaze vector ({self.x},{self.y}) has norm {n}, expected 1")

    @classmethod
    def of(cls, vx: float, vy: float) -> "GazeVector2D":
        n = math.hypot(vx, vy)
        if n < 1e-12:
            raise DomainError("cannot normalize a zero gaze vector")
        return cls(vx / n, vy / n)

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


@lru_cache(maxsize=None)
def pixel_centers(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (x, y) coordinates of all pixel centers, each (h, w),
    computed once per grid and returned read-only."""
    cx, cy = np.meshgrid((np.arange(w) + 0.5) / w, (np.arange(h) + 0.5) / h)
    cx.setflags(write=False)
    cy.setflags(write=False)
    return cx, cy


def containing_pixel(x: float, y: float, h: int, w: int) -> tuple[int, int]:
    i = min(int(y * h), h - 1)
    j = min(int(x * w), w - 1)
    return max(i, 0), max(j, 0)


def cone_batch(gaze: Tensor, eyes: np.ndarray, h: int, w: int,
               aperture: float = math.pi) -> Tensor:
    """Gaze-cone images for a batch of direction vectors.

    ``gaze`` is an [N, 2] tensor (differentiable), ``eyes`` an [N, 2] array
    of normalized eye positions. Each pixel scores the cosine between the
    gaze direction and the eye-to-pixel direction, clipped at zero; pixels
    whose angular offset exceeds aperture/2 are zeroed; the pixel containing
    the eye is assigned 1. Output is [N, 1, h, w].
    """
    if gaze.ndim != 2 or gaze.shape[1] != 2:
        raise DomainError(f"gaze must be [N,2], got {gaze.shape}")
    n = gaze.shape[0]
    norms = np.linalg.norm(gaze.data, axis=1)
    if not np.all(np.isfinite(norms) & (norms >= 1e-12)):
        raise DomainError("zero or non-finite gaze vector in cone generation")

    cx, cy = pixel_centers(h, w)
    dx = cx[None] - eyes[:, 0, None, None]  # (N, h, w)
    dy = cy[None] - eyes[:, 1, None, None]
    dist = np.hypot(dx, dy)
    eye_hot = np.zeros((n, h, w), dtype=gaze.dtype)
    for k in range(n):
        i, j = containing_pixel(eyes[k, 0], eyes[k, 1], h, w)
        eye_hot[k, i, j] = 1.0
    safe = np.where(dist > 0.0, dist, 1.0)
    ux = Tensor(dx / safe, dtype=gaze.dtype)
    uy = Tensor(dy / safe, dtype=gaze.dtype)

    gx = T.reshape(gaze[:, 0], (n, 1, 1))
    gy = T.reshape(gaze[:, 1], (n, 1, 1))
    gnorm = T.reshape(T.tsqrt(T.tsum(T.mul(gaze, gaze), axis=1)), (n, 1, 1))
    cos_map = T.div(T.add(T.mul(gx, ux), T.mul(gy, uy)), gnorm)

    keep = (cos_map.data >= math.cos(aperture / 2.0) - 1e-15).astype(cos_map.data.dtype)
    cone = T.mul(T.relu(cos_map), Tensor(keep * (1.0 - eye_hot)))
    cone = T.add(cone, Tensor(eye_hot))
    return T.reshape(cone, (n, 1, h, w))


def render_head_mask(box: HeadBox, h: int, w: int) -> np.ndarray:
    """Binary (h, w) image: 1 where the pixel center lies inside the box."""
    cx, cy = pixel_centers(h, w)
    inside = (
        (cx >= box.x_min) & (cx <= box.x_max) & (cy >= box.y_min) & (cy <= box.y_max)
    )
    return inside.astype(np.float64)


def pixel_sq_dist(points: list[tuple[float, float]], h: int, w: int) -> np.ndarray:
    """(h, w) squared pixel distance from every pixel to the nearest
    point's containing pixel."""
    if not points:
        raise DomainError("pixel distances need at least one point")
    pixels = [containing_pixel(x, y, h, w) for x, y in points]
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    return np.minimum.reduce([(rows - i) ** 2 + (cols - j) ** 2 for i, j in pixels])


def make_gt_heatmap(points: list[tuple[float, float]], h: int, w: int,
                    sigma: float) -> np.ndarray:
    """(h, w) per-pixel maximum of per-point Gaussians, peak exactly 1.

    ``sigma`` is in pixels at the (h, w) resolution. Each Gaussian is
    centered on the pixel containing its point, untruncated and
    peak-normalized.
    """
    if not points:
        raise DomainError("ground-truth heatmap needs at least one point")
    for x, y in points:
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise DomainError(f"gaze point ({x},{y}) outside [0,1]^2")
    return np.exp(-pixel_sq_dist(points, h, w) / (2.0 * sigma * sigma))


# ---------------------------------------------------------------------------
# PGM export for visual inspection
# ---------------------------------------------------------------------------


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5, maxval 255) from a 2D float image in [0,1], written
    atomically."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"PGM writer expects a 2D image, got shape {img.shape}")
    data = np.rint(255.0 * np.clip(img, 0.0, 1.0)).astype(np.uint8)
    h, w = data.shape
    with atomic_write(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())
