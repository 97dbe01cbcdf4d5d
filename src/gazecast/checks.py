"""Built-in verification suites, one registry for `gazecast check` and the
tests: finite-difference gradient checks (``GRAD_CASES``) and brute-force
oracle comparisons (``ORACLE_CASES``).

Each check returns its worst observed error so regressions are visible
even while they stay under tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import data as D
from . import geometry as G
from . import metrics as M
from . import tensor as T
from .config import RunConfig
from .fusion import fuse
from .heads import argmax_point
from .model import GazeTargetModel, build_batch, compute_losses
from .tensor import Tensor


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_err: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: max err {self.max_err:.3e} (tol {self.tolerance:.0e})"


_FD_STEP = 1e-5  # central-difference step of every finite-difference check


def finite_diff_grads(forward: Callable[[], Tensor], inputs: list[Tensor]) -> list[np.ndarray]:
    """Central-difference gradients of a scalar-valued ``forward()``.

    ``forward`` must rebuild its graph from the current contents of the
    tensors in ``inputs`` (their .data is perturbed in place and restored).
    Returns one array per input, same shapes.
    """
    grads = []
    with T.no_grad():
        for t in inputs:
            g = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                gflat[i] = central_difference(lambda: float(forward().data), flat, i)
            grads.append(g)
    return grads


def central_difference(f: Callable[[], float], flat: np.ndarray, i: int) -> float:
    """``(f() at flat[i] + h  -  f() at flat[i] - h) / 2h`` with h the
    module's ``_FD_STEP``; ``flat[i]`` is perturbed in place and restored."""
    h = _FD_STEP
    orig = flat[i]
    flat[i] = orig + h
    up = f()
    flat[i] = orig - h
    down = f()
    flat[i] = orig
    return (up - down) / (2.0 * h)


def autodiff_grads(forward: Callable[[], Tensor], inputs: list[Tensor]) -> list[np.ndarray]:
    """Gradients of scalar ``forward()`` via the tape."""
    T.fresh_tape()
    for t in inputs:
        t.grad = None
    loss = forward()
    T.backward(loss)
    return [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs]


def max_rel_err(a, b) -> float:
    """max |a-b| / max(1, |b|), elementwise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def _max_abs_err(a, b) -> float:
    """max |a-b|, elementwise."""
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))))


def _fd_check(forward: Callable[[], Tensor], inputs: list[Tensor]) -> float:
    """Worst relative error between tape gradients and central differences."""
    ad = autodiff_grads(forward, inputs)
    fd = finite_diff_grads(forward, inputs)
    return max(max_rel_err(a, f) for a, f in zip(ad, fd))


_GRAD_TOL = 1e-4

Draw = Callable[[np.random.Generator], np.ndarray]


def _normal(*shape: int, scale: float = 1.0, shift: float = 0.0) -> Draw:
    return lambda rng: rng.normal(size=shape) * scale + shift


def _away_from_zero(*shape: int) -> Draw:
    """Random signs times magnitudes in [0.5, 2): no input near a ReLU kink."""
    return lambda rng: rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.5, 2.0, shape)


def _distinct(*shape: int) -> Draw:
    """Increasing values plus small noise: every channel has a unique max."""
    def draw(rng: np.random.Generator) -> np.ndarray:
        base = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
        return base + rng.uniform(0.1, 0.3, size=shape)
    return draw


def _unit_gaze(rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=2)
    return (g / np.linalg.norm(g)).reshape(1, 2)


def _interior(y: np.ndarray) -> np.ndarray:
    """Cone pixels away from its zero boundary and from the eye pixel."""
    return (y > 1e-3) & (y < 1.0 - 1e-9)


@dataclass(frozen=True)
class GradCase:
    """One finite-difference case: ``sum(op(*inputs) * r)`` against central
    differences, for inputs drawn by ``draws`` and a random ``r`` of the
    output's shape (restricted to ``mask(output)`` where ``op`` has kinks)."""

    name: str
    op: Callable[..., Tensor]
    draws: tuple[Draw, ...]
    mask: Callable[[np.ndarray], np.ndarray] | None = None

    def run(self) -> CheckResult:
        rng = np.random.default_rng(20240)
        inputs = [Tensor(draw(rng), requires_grad=True) for draw in self.draws]
        with T.no_grad():
            y = self.op(*inputs).data
        r = rng.normal(size=y.shape)
        if self.mask is not None:
            r = r * self.mask(y)
        r = Tensor(r)
        err = _fd_check(lambda: T.tsum(T.mul(self.op(*inputs), r)), inputs)
        return CheckResult(self.name, err < _GRAD_TOL, err, _GRAD_TOL)


@dataclass(frozen=True)
class OracleCase:
    """One brute-force case: for every argument tuple that ``draws`` yields
    from a fixed-seed generator, ``error(code(*args), oracle(*args))``; the
    case passes when the worst of them is within ``tolerance``."""

    name: str
    draws: Callable[[np.random.Generator], Iterable[tuple]]
    code: Callable[..., object]
    oracle: Callable[..., object]
    tolerance: float
    error: Callable[[object, object], float] = _max_abs_err

    def run(self) -> CheckResult:
        rng = np.random.default_rng(31337)
        worst = max(self.error(self.code(*args), self.oracle(*args)) for args in self.draws(rng))
        return CheckResult(self.name, worst <= self.tolerance, worst, self.tolerance)


def _pipeline_draws(rng: np.random.Generator):
    """The full multimodal model after one backward of its loss, probed at
    five randomly chosen parameter entries."""
    cfg = RunConfig(variant="multimodal", input_resolution=32, heatmap_resolution=32,
                    seed=5, p_drop=0.0)
    samples = D.generate_dataset(D.SceneSpec(seed=17, resolution=32, n_objects=2), 2)
    model = GazeTargetModel(cfg)
    batch = build_batch(samples, cfg)
    T.fresh_tape()
    T.backward(compute_losses(model(batch), batch, cfg).total)

    def loss_value() -> float:
        with T.no_grad():
            return compute_losses(model(batch), batch, cfg).total_value

    params = dict(model.named_parameters())
    names = sorted(params)
    for _ in range(5):
        p = params[names[int(rng.integers(len(names)))]]
        yield loss_value, p, int(rng.integers(p.size))


_EYES = np.array([[0.45, 0.55]])

# Every differentiable op, at each input shape it is checked with, then the
# full model's loss.
GRAD_CASES = (
    GradCase("conv2d", lambda x, w, b: T.conv2d(x, w, b, padding=1),
             (_normal(2, 3, 6, 6), _normal(4, 3, 3, 3, scale=0.5), _normal(4))),
    GradCase("conv2d_weight_and_input", lambda x, w, b: T.conv2d(x, w, b, padding=1),
             (_normal(2, 3, 8, 8), _normal(4, 3, 3, 3, scale=0.5), _normal(4))),
    GradCase("conv2d_no_padding", lambda x, w, b: T.conv2d(x, w, b),
             (_normal(2, 3, 6, 5), _normal(4, 3, 3, 3, scale=0.5), _normal(4))),
    GradCase("conv2d_strided", lambda x, w: T.conv2d(x, w, stride=2),
             (_normal(1, 2, 9, 7), _normal(3, 2, 3, 3, scale=0.5))),
    GradCase("conv2d_strided_7x5", lambda x, w: T.conv2d(x, w, stride=2),
             (_normal(1, 2, 7, 5), _normal(3, 2, 3, 3, scale=0.5))),
    GradCase("conv2d_strided_5x5_pad2", lambda x, w, b: T.conv2d(x, w, b, stride=2, padding=2),
             (_normal(2, 2, 8, 7), _normal(3, 2, 5, 5, scale=0.3), _normal(3))),
    GradCase("upsample_conv2d", lambda x, w, b: T.upsample_conv2d(x, w, b, factor=2, padding=1),
             (_normal(1, 2, 3, 3), _normal(3, 2, 3, 3, scale=0.5), _normal(3))),
    GradCase("upsample_nearest", lambda x: T.upsample_nearest(x, 2), (_normal(1, 2, 3, 3),)),
    GradCase("avg_pool", lambda x: T.avg_pool2d(x, 4), (_normal(2, 2, 8, 8),)),
    GradCase("avg_pool_4x4", lambda x: T.avg_pool2d(x, 2), (_normal(1, 2, 4, 4),)),
    GradCase("global_max_pool", T.global_max_pool, (_distinct(1, 2, 5, 5),)),
    GradCase("global_max_pool_away_from_ties", T.global_max_pool, (_distinct(2, 3, 7, 7),)),
    GradCase("relu", T.relu, (_away_from_zero(3, 4),)),
    GradCase("relu_away_from_kink", T.relu, (_away_from_zero(4, 5),)),
    GradCase("sigmoid", T.sigmoid, (_normal(3, 4, scale=2.0),)),
    GradCase("softmax", lambda x: T.softmax(x, axis=1), (_normal(3, 5, scale=1.5),)),
    GradCase("softmax_3x4", lambda x: T.softmax(x, axis=1), (_normal(3, 4),)),
    GradCase("linear", T.linear, (_normal(4, 6), _normal(3, 6, scale=0.5), _normal(3))),
    GradCase("linear_3x5", T.linear, (_normal(3, 5), _normal(2, 5, scale=0.5), _normal(2))),
    GradCase("cosine_similarity", T.cosine_similarity,
             (_normal(2, shift=1.0), _normal(2, shift=-1.5))),
    GradCase("elementwise_chain",
             lambda a, b: T.tlog(T.add(T.tsqrt(T.div(T.mul(a, b), T.add(a, b))), Tensor(1.0))),
             (_normal(3, 4, shift=3.0), _normal(3, 4, shift=3.0))),
    GradCase("broadcast_mul", T.mul, (_normal(4, 1), _normal(1, 5))),
    GradCase("concat_slice", lambda a, b: T.concat([a, b], axis=1)[:, 1:],
             (_normal(2, 3), _normal(2, 2))),
    GradCase("clamp_interior", lambda x: T.clamp(x, 0.0, 1.0),
             (lambda rng: rng.uniform(0.2, 0.8, size=(3, 3)),)),
    GradCase("gaze_cone", lambda g: G.cone_batch(g, _EYES, 16, 16), (_unit_gaze,),
             mask=_interior),
    OracleCase("pipeline_loss_fd", _pipeline_draws,
               lambda loss, p, i: p.grad.reshape(-1)[i],
               lambda loss, p, i: central_difference(loss, p.data.reshape(-1), i),
               tolerance=1e-3, error=max_rel_err),
)


def _cone_draws(rng: np.random.Generator):
    for aperture in (math.pi, math.pi / 2):
        # +x gaze from an eye on a pixel corner puts pixel centres exactly on
        # the diagonals, the edges of a pi/2 aperture
        yield np.array([1.0, 0.0]), np.array([0.5, 0.5]), aperture
        for _ in range(20):
            g = rng.normal(size=2)
            yield g / np.linalg.norm(g), rng.uniform(0.05, 0.95, size=2), aperture


def _cone_oracle(g: np.ndarray, eye: np.ndarray, aperture: float, n: int = 64) -> np.ndarray:
    """Per-pixel scalar recomputation on an n x n grid, independent of the
    tensor path."""
    eye_pixel = (min(int(eye[1] * n), n - 1), min(int(eye[0] * n), n - 1))
    img = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if (i, j) == eye_pixel:
                img[i, j] = 1.0
                continue
            px, py = (j + 0.5) / n - eye[0], (i + 0.5) / n - eye[1]
            c = (g[0] * px + g[1] * py) / (math.hypot(px, py) * math.hypot(g[0], g[1]))
            if math.acos(max(-1.0, min(1.0, c))) <= aperture / 2.0 + 1e-12:
                img[i, j] = max(0.0, c)
    return img


def _cone_err(img: np.ndarray, ref: np.ndarray) -> float:
    """max |img - ref|; infinite unless every pixel the oracle zeroes is 0."""
    return _max_abs_err(img, ref) if np.all(img[ref == 0.0] == 0.0) else math.inf


def _fuse_draws(rng: np.random.Generator):
    for _ in range(20):
        maps = rng.normal(size=(3, 2, 32, 4, 4))   # (modality, N, C, H, W)
        logits = rng.normal(size=(2, 3))
        yield maps, np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)


def _fuse_oracle(maps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    ref = np.zeros(maps.shape[1:])
    for n in range(weights.shape[0]):
        for m in range(weights.shape[1]):
            ref[n] += weights[n, m] * maps[m, n]
    return ref


def _auc_draws(rng: np.random.Generator):
    # quantized scores (many ties) on grids up to 8x8; single-class masks skipped
    for _ in range(50):
        h, w = int(rng.integers(4, 9)), int(rng.integers(4, 9))
        img = np.round(rng.random((h, w)), 1)
        mask = M.binarize_gt([tuple(rng.uniform(0.1, 0.9, size=2))], h, w,
                             float(rng.uniform(1.0, 2.5)))
        if mask.any() and not mask.all():
            yield img.ravel(), mask.ravel()


def _pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(random positive outranks random negative), ties counted half."""
    pos, neg = scores[labels], scores[~labels]
    wins = sum(float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg)) for p in pos)
    return wins / (len(pos) * len(neg))


def _ap_draws(rng: np.random.Generator):
    # quantized scores (many ties) in lists up to 19 long, one positive at least
    for _ in range(100):
        n = int(rng.integers(2, 20))
        scores = np.round(rng.random(n), 1).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) == 0:
            labels[0] = 1
        yield scores, labels


def _exhaustive_ap(scores: list[float], labels: list[int]) -> float:
    """Mean over the positives of the precision at each one's rank (ties by
    index)."""
    hits = [labels[i] for i in sorted(range(len(scores)), key=lambda i: (-scores[i], i))]
    return sum(sum(hits[:k + 1]) / (k + 1) for k, hit in enumerate(hits) if hit) / sum(labels)


def _mean_random_auc(rng: np.random.Generator) -> float:
    """Mean AUC of 1000 uniform random 64x64 heatmaps."""
    return float(np.mean([M.auc_score(rng.random((64, 64)), [(0.5, 0.5)], radius=9.0)
                          for _ in range(1000)]))


def _scan_argmax(img: np.ndarray) -> tuple[float, float]:
    """Centre of the first strict maximum in row-major order."""
    h, w = img.shape
    best, bi, bj = -math.inf, 0, 0
    for i in range(h):
        for j in range(w):
            if img[i, j] > best:
                best, bi, bj = img[i, j], i, j
    return (bj + 0.5) / w, (bi + 0.5) / h


def _box_draws(rng: np.random.Generator):
    for _ in range(20):
        x0, y0 = rng.uniform(0.0, 0.5, size=2)
        yield G.HeadBox(x0, y0, x0 + rng.uniform(0.1, 0.45), y0 + rng.uniform(0.1, 0.45)),


def _containment_mask(box: G.HeadBox) -> np.ndarray:
    """1 per pixel whose centre lies in the box, tested one pixel at a time."""
    h, w = 17, 23
    return np.array([[float(box.x_min <= (j + 0.5) / w <= box.x_max
                            and box.y_min <= (i + 0.5) / h <= box.y_max)
                      for j in range(w)] for i in range(h)])


def _raster_draws(rng: np.random.Generator):
    """Disks, rings and segments on 32- and 64-pixel frames: random ones
    across [-0.3, 1.3]^2, so that many cross the border or miss the frame,
    then ones centred on the border and corners, wholly off-frame ones and
    segments shorter than the degenerate threshold."""
    for res in (32, 64):
        for _ in range(60):
            c = rng.uniform(-0.3, 1.3, size=2)
            r = float(rng.uniform(0.3, 9.0))
            yield "disk", res, (c, r)
            yield "ring", res, (c, r, float(rng.uniform(0.5, 2.0)))
            yield "segment", res, (c, rng.uniform(-0.3, 1.3, size=2), r)
        for c in ([0.0, 0.0], [1.0, 1.0], [0.0, 0.5], [1.0, 0.3], [0.5, 0.0], [0.7, 1.0],
                  [-0.5, 0.5], [1.4, -0.2], [0.5, 1.6]):
            c = np.array(c)
            yield "disk", res, (c, 3.0)
            yield "ring", res, (c, 3.0, 1.0)
            yield "segment", res, (c, c + np.array([0.1, -0.05]), 1.6)
        p = rng.uniform(0.0, 1.0, size=2)
        for step in (0.0, 1e-10, 5e-10):   # den = 0, 2e-20 and 5e-19
            yield "segment", res, (p, p + step, 1.5)
        yield "segment", res, (np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)


def _window_vs_frame(kind: str, res: int, args: tuple) -> np.ndarray:
    return D._full_frame(res, {"disk": D._disk, "ring": D._ring,
                                "segment": D._segment}[kind](res, *args))


def _whole_frame_shape(kind: str, res: int, args: tuple) -> np.ndarray:
    """The primitive's per-pixel test evaluated on every pixel centre."""
    gx, gy = G.pixel_centers(res, res)
    if kind == "disk":
        c, radius_px = args
        r = radius_px / res
        return (gx - c[0]) ** 2 + (gy - c[1]) ** 2 <= r * r
    if kind == "ring":
        c, radius_px, width_px = args
        return np.abs(np.hypot(gx - c[0], gy - c[1]) * res - radius_px) <= width_px
    p0, p1, thickness_px = args
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    den = dx * dx + dy * dy
    if den < 1e-18:
        return _whole_frame_shape("disk", res, (p0, thickness_px))
    t = np.clip(((gx - p0[0]) * dx + (gy - p0[1]) * dy) / den, 0.0, 1.0)
    return np.hypot(gx - (p0[0] + t * dx), gy - (p0[1] + t * dy)) * res <= thickness_px


ORACLE_CASES = (
    OracleCase("cone_vs_bruteforce", _cone_draws,
               lambda g, eye, aperture: G.cone_batch(Tensor(g.reshape(1, 2)), eye.reshape(1, 2),
                                                     64, 64, aperture).data[0, 0],
               _cone_oracle, tolerance=1e-12, error=_cone_err),
    OracleCase("fuse_vs_loop", _fuse_draws,
               lambda maps, weights: fuse([Tensor(m) for m in maps], Tensor(weights)).data,
               _fuse_oracle, tolerance=1e-12),
    OracleCase("auc_vs_pairwise", _auc_draws, M.roc_auc, _pairwise_auc, tolerance=1e-9),
    OracleCase("ap_vs_exhaustive", _ap_draws, M.average_precision, _exhaustive_ap,
               tolerance=1e-12),
    OracleCase("auc_random_is_half", lambda rng: [(rng,)], _mean_random_auc, lambda rng: 0.5,
               tolerance=0.05),
    OracleCase("argmax_vs_scan", lambda rng: ((rng.random((9, 13)),) for _ in range(100)),
               argmax_point, _scan_argmax, tolerance=0.0),
    OracleCase("head_mask_vs_count", _box_draws, lambda box: G.render_head_mask(box, 17, 23),
               _containment_mask, tolerance=0.0),
    OracleCase("raster_window_vs_frame", _raster_draws, _window_vs_frame,
               _whole_frame_shape, tolerance=0.0),
)

def run_checks(suite: str) -> list[CheckResult]:
    cases = {"grad": GRAD_CASES, "oracle": ORACLE_CASES, "all": GRAD_CASES + ORACLE_CASES}
    if suite not in cases:
        raise ValueError(f"unknown suite {suite!r}")
    return [case.run() for case in cases[suite]]
