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
                orig = flat[i]
                flat[i] = orig + h
                f_plus = float(forward().data)
                flat[i] = orig - h
                f_minus = float(forward().data)
                flat[i] = orig
                gflat[i] = (f_plus - f_minus) / (2.0 * h)
            grads.append(g)
    return grads


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


def _grad_checks() -> list[CheckResult]:
    rng = np.random.default_rng(20240)
    results = []

    def add(name, forward, inputs, tol=1e-4):
        err = _fd_check(forward, inputs)
        results.append(CheckResult(name, err < tol, err, tol))

    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    r = Tensor(rng.normal(size=(2, 4, 6, 6)))
    add("conv2d", lambda: T.tsum(T.mul(T.conv2d(x, w, b, padding=1), r)), [x, w, b])

    xs = Tensor(rng.normal(size=(1, 2, 7, 5)), requires_grad=True)
    ws = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.5, requires_grad=True)
    rs = Tensor(rng.normal(size=(1, 3, 3, 2)))
    add("conv2d_strided", lambda: T.tsum(T.mul(T.conv2d(xs, ws, stride=2), rs)), [xs, ws])

    u = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    ru = Tensor(rng.normal(size=(1, 2, 6, 6)))
    add("upsample_nearest", lambda: T.tsum(T.mul(T.upsample_nearest(u, 2), ru)), [u])
    add("upsample_bilinear", lambda: T.tsum(T.mul(T.upsample_bilinear(u, 2), ru)), [u])

    ap = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
    rp = Tensor(rng.normal(size=(1, 2, 2, 2)))
    add("avg_pool", lambda: T.tsum(T.mul(T.avg_pool2d(ap, 2), rp)), [ap])

    mp_base = np.arange(1 * 2 * 5 * 5, dtype=np.float64).reshape(1, 2, 5, 5)
    mp = Tensor(mp_base + rng.uniform(0.1, 0.3, size=mp_base.shape), requires_grad=True)
    rm = Tensor(rng.normal(size=(1, 2)))
    add("global_max_pool", lambda: T.tsum(T.mul(T.global_max_pool(mp), rm)), [mp])

    e = Tensor(rng.choice([-1.0, 1.0], size=(3, 4)) * rng.uniform(0.5, 2.0, (3, 4)),
               requires_grad=True)
    re = Tensor(rng.normal(size=(3, 4)))
    add("relu", lambda: T.tsum(T.mul(T.relu(e), re)), [e])

    s = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    add("sigmoid", lambda: T.tsum(T.mul(T.sigmoid(s), re)), [s])
    add("softmax", lambda: T.tsum(T.mul(T.softmax(s, axis=1), re)), [s])

    lx = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    lw = Tensor(rng.normal(size=(2, 5)) * 0.5, requires_grad=True)
    lb = Tensor(rng.normal(size=2), requires_grad=True)
    rl = Tensor(rng.normal(size=(3, 2)))
    add("linear", lambda: T.tsum(T.mul(T.linear(lx, lw, lb), rl)), [lx, lw, lb])

    ca = Tensor(rng.normal(size=2) + np.array([2.0, 0.0]), requires_grad=True)
    cb = Tensor(rng.normal(size=2) + np.array([0.0, 2.0]), requires_grad=True)
    add("cosine_similarity", lambda: T.cosine_similarity(ca, cb), [ca, cb])

    gv = rng.normal(size=2)
    gv /= np.linalg.norm(gv)
    gaze = Tensor(gv.reshape(1, 2), requires_grad=True)
    eyes = np.array([[0.45, 0.55]])
    probe = G.cone_batch(Tensor(gv.reshape(1, 2)), eyes, 12, 12).data[0, 0]
    sel = (probe > 1e-3) & (probe < 1.0 - 1e-9)
    rc = Tensor(rng.normal(size=(1, 1, 12, 12)) * sel)
    add("gaze_cone", lambda: T.tsum(T.mul(G.cone_batch(gaze, eyes, 12, 12), rc)), [gaze])

    results.append(_pipeline_fd_check())
    return results


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
    h = 1e-5
    worst = 0.0
    for _ in range(n_params):
        name = names[int(rng.integers(len(names)))]
        p = params[name]
        idx = int(rng.integers(p.size))
        flat = p.data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_value()
        flat[idx] = orig - h
        down = loss_value()
        flat[idx] = orig
        fd = (up - down) / (2.0 * h)
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
        img = G.generate_cone(G.GazeVector2D(*g), G.EyePoint(*eye), h, w).image.data[0]
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
        mask = G.render_head_mask(box, 15, 17).data[0]
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
