"""Built-in verification suites: finite-difference gradient checks and
brute-force oracle comparisons, runnable from the CLI (`gazecast check`).

Each check returns its worst observed error so regressions are visible
even while they stay under tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def finite_diff_grads(forward: Callable[[], Tensor], inputs: list[Tensor],
                      h: float = 1e-5) -> list[np.ndarray]:
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
                gflat[i] = central_difference(lambda: float(forward().data), flat, i, h)
            grads.append(g)
    return grads


def central_difference(f: Callable[[], float], flat: np.ndarray, i: int, h: float) -> float:
    """``(f() at flat[i] + h  -  f() at flat[i] - h) / 2h``; ``flat[i]`` is
    perturbed in place and restored."""
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


def _fd_check(forward: Callable[[], Tensor], inputs: list[Tensor], h: float = 1e-5) -> float:
    """Worst relative error between tape gradients and central differences."""
    ad = autodiff_grads(forward, inputs)
    fd = finite_diff_grads(forward, inputs, h)
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


_EYES = np.array([[0.45, 0.55]])

# Every differentiable op, at each input shape it is checked with.
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
             lambda a, b: T.tlog(T.tsqrt(T.div(T.mul(a, b), T.add(a, b))) + 1.0),
             (_normal(3, 4, shift=3.0), _normal(3, 4, shift=3.0))),
    GradCase("broadcast_mul", T.mul, (_normal(4, 1), _normal(1, 5))),
    GradCase("concat_slice", lambda a, b: T.concat([a, b], axis=1)[:, 1:],
             (_normal(2, 3), _normal(2, 2))),
    GradCase("clamp_interior", lambda x: T.clamp(x, 0.0, 1.0),
             (lambda rng: rng.uniform(0.2, 0.8, size=(3, 3)),)),
    GradCase("gaze_cone", lambda g: G.cone_batch(g, _EYES, 12, 12), (_unit_gaze,),
             mask=_interior),
)


def _grad_checks() -> list[CheckResult]:
    return [case.run() for case in GRAD_CASES] + [_pipeline_fd_check()]


def _pipeline_fd_check(n_params: int = 5, tol: float = 1e-3) -> CheckResult:
    """Full model loss vs central differences on randomly chosen parameters."""
    from . import data as D

    cfg = RunConfig(variant="multimodal", input_resolution=32, heatmap_resolution=32,
                    seed=5, p_drop=0.0)
    samples = D.generate_dataset(
        D.SceneSpec(rng_seed=17, resolution=32, n_objects=2), 2
    )
    model = GazeTargetModel(cfg)
    batch = build_batch(samples, cfg)

    def loss_value() -> float:
        with T.no_grad():
            return compute_losses(model(batch), batch, cfg).total_value

    T.fresh_tape()
    losses = compute_losses(model(batch), batch, cfg)
    T.backward(losses.total)

    params = dict(model.named_parameters())
    rng = np.random.default_rng(99)
    names = sorted(params)
    worst = 0.0
    for _ in range(n_params):
        name = names[int(rng.integers(len(names)))]
        p = params[name]
        idx = int(rng.integers(p.size))
        fd = central_difference(loss_value, p.data.reshape(-1), idx, 1e-5)
        ad = p.grad.reshape(-1)[idx]
        worst = max(worst, abs(ad - fd) / max(1.0, abs(fd)))
    return CheckResult("pipeline_loss_fd", worst < tol, worst, tol)


def _oracle_checks() -> list[CheckResult]:
    rng = np.random.default_rng(31337)
    results = []

    # cone vs per-pixel scalar recomputation, 100 random configurations
    worst = 0.0
    for _ in range(100):
        g = rng.normal(size=2)
        g /= np.linalg.norm(g)
        eye = rng.uniform(0.05, 0.95, size=2)
        h = w = 24
        img = G.cone_batch(Tensor(g.reshape(1, 2)), eye.reshape(1, 2), h, w).data[0, 0]
        for i in range(h):
            for j in range(w):
                worst = max(worst, abs(img[i, j] - _cone_oracle(g, eye, i, j, h, w)))
    results.append(CheckResult("cone_vs_bruteforce", worst < 1e-12, worst, 1e-12))

    # weighted fusion vs explicit scalar loop
    worst = 0.0
    for _ in range(20):
        maps = [Tensor(rng.normal(size=(2, 3, 4, 4))) for _ in range(3)]
        logits = rng.normal(size=(2, 3))
        wts = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        out = fuse(maps, Tensor(wts)).data
        ref = np.zeros_like(out)
        for n in range(2):
            for mi in range(3):
                ref[n] += wts[n, mi] * maps[mi].data[n]
        worst = max(worst, float(np.abs(out - ref).max()))
    results.append(CheckResult("fuse_vs_loop", worst < 1e-12, worst, 1e-12))

    # ROC AUC vs pairwise-comparison probability
    worst = 0.0
    for _ in range(50):
        hgt, wid = int(rng.integers(4, 8)), int(rng.integers(4, 8))
        img = np.round(rng.random((hgt, wid)), 1)
        mask = M.binarize_gt([(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))],
                             hgt, wid, float(rng.uniform(1.0, 2.0)))
        if mask.all() or not mask.any():
            continue
        got = M.roc_auc(img.ravel(), mask.ravel())
        ref = _pairwise_auc(img.ravel(), mask.ravel())
        worst = max(worst, abs(got - ref))
    results.append(CheckResult("auc_vs_pairwise", worst < 1e-9, worst, 1e-9))

    # AP vs exhaustive precision-sum
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 15))
        scores = np.round(rng.random(n), 1).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) == 0:
            labels[0] = 1
        worst = max(worst, abs(M.average_precision(scores, labels) - _exhaustive_ap(scores, labels)))
    results.append(CheckResult("ap_vs_exhaustive", worst < 1e-12, worst, 1e-12))

    # random heatmaps score AUC ~ 0.5
    vals = [M.auc_score(rng.random((32, 32)), [(0.5, 0.5)], radius=4.5) for _ in range(1000)]
    dev = abs(float(np.mean(vals)) - 0.5)
    results.append(CheckResult("auc_random_is_half", dev < 0.05, dev, 0.05))

    # argmax vs exhaustive scan
    worst = 0.0
    for _ in range(100):
        img = rng.random((1, 7, 11))
        got = argmax_point(img)
        best = np.unravel_index(int(np.argmax(img[0])), img[0].shape)
        ref = ((best[1] + 0.5) / 11, (best[0] + 0.5) / 7)
        worst = max(worst, abs(got[0] - ref[0]) + abs(got[1] - ref[1]))
    results.append(CheckResult("argmax_vs_scan", worst == 0.0, worst, 1e-300))

    # head mask vs per-pixel containment count
    worst = 0.0
    for _ in range(20):
        x0, y0 = rng.uniform(0.0, 0.5, size=2)
        box = G.HeadBox(x0, y0, x0 + rng.uniform(0.1, 0.4), y0 + rng.uniform(0.1, 0.4))
        mask = G.render_head_mask(box, 15, 17)
        count = sum(
            1
            for i in range(15)
            for j in range(17)
            if box.x_min <= (j + 0.5) / 17 <= box.x_max and box.y_min <= (i + 0.5) / 15 <= box.y_max
        )
        worst = max(worst, abs(float(mask.sum()) - count))
    results.append(CheckResult("head_mask_vs_count", worst == 0.0, worst, 1e-300))

    return results


def _cone_oracle(g, eye, i, j, h, w) -> float:
    ei = min(int(eye[1] * h), h - 1)
    ej = min(int(eye[0] * w), w - 1)
    if (i, j) == (ei, ej):
        return 1.0
    px = (j + 0.5) / w - eye[0]
    py = (i + 0.5) / h - eye[1]
    norm = math.hypot(px, py)
    if norm == 0.0:
        return 1.0
    c = (g[0] * px + g[1] * py) / (norm * math.hypot(g[0], g[1]))
    return max(0.0, c)


def _pairwise_auc(scores, labels) -> float:
    pos = scores[labels.astype(bool)]
    neg = scores[~labels.astype(bool)]
    total = 0.0
    for p in pos:
        total += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
    return total / (len(pos) * len(neg))


def _exhaustive_ap(scores, labels) -> float:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(labels)
    tp = 0
    ap = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx]:
            tp += 1
            ap += (tp / rank) * (1.0 / n_pos)
    return ap


def run_checks(suite: str) -> list[CheckResult]:
    if suite not in ("grad", "oracle", "all"):
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    if suite in ("grad", "all"):
        results.extend(_grad_checks())
    if suite in ("oracle", "all"):
        results.extend(_oracle_checks())
    return results
