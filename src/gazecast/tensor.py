"""Dense n-dimensional arrays with tape-based reverse-mode differentiation.

Design: eager numpy forward passes; every differentiable op appends a node
(output tensor, backward closure) to the calling thread's tape.
``backward(loss)`` seeds the loss gradient, replays that tape in reverse,
visiting each node once, and empties it. Execution order is a valid
topological order, so no sorting is needed.

Precision comes from the data and the model config, never from process
state: a tensor keeps the float32 or float64 dtype of the array it wraps
(anything else becomes float64, so finite-difference checks are
meaningful), and a model casts its parameters to ``RunConfig.precision``.

Each thread records onto its own tape and has its own ``no_grad`` switch,
so threads may run forward and backward passes concurrently. A loss can
only be backpropagated on the thread that built it. Tensors are safe to
share across threads once produced, but gradients accumulate into leaf
tensors without locking: threads that run backward at the same time need
their own leaves.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeMismatchError, TapeError


class Tape(threading.local):
    """Ordered record of the differentiable operations executed on the
    current thread.

    Nodes are (output tensor, backward closure) pairs appended during the
    forward pass while ``recording`` is on. ``backward`` replays and empties
    the tape; ``reset()`` drops a graph that will not be replayed.
    """

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, object]] = []
        self.recording = True

    def __len__(self) -> int:
        return len(self._nodes)

    def reset(self) -> None:
        self._nodes.clear()


_TAPE = Tape()


def tape() -> Tape:
    """The calling thread's tape, which ops record onto."""
    return _TAPE


def fresh_tape() -> Tape:
    """Empty the calling thread's tape and return it."""
    _TAPE.reset()
    return _TAPE


@contextmanager
def no_grad():
    """Disable tape recording on the calling thread inside the block
    (evaluation-only forwards)."""
    prev = _TAPE.recording
    _TAPE.recording = False
    try:
        yield
    finally:
        _TAPE.recording = prev


class Tensor:
    """A dense array plus optional gradient buffer.

    ``data`` is a contiguous numpy array (float64 or float32): float input
    keeps its dtype, anything else becomes float64. ``grad`` has
    the same shape as ``data`` once populated by ``backward``. Tensors are
    treated as immutable after the forward pass that produced them; only
    optimizers mutate ``data`` in place, between tapes.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_err()

    def _item_err(self):
        raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other, self.dtype))

    def __rsub__(self, other):
        return sub(_wrap(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other, self.dtype))

    def __rtruediv__(self, other):
        return div(_wrap(other, self.dtype), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __pow__(self, p):
        return power(self, float(p))

    def __getitem__(self, key):
        return tslice(self, key)

    # -- method sugar ----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, requires_grad: bool) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = requires_grad
    t.grad = None
    return t


def _record(out: Tensor, fn) -> None:
    if out.requires_grad and _TAPE.recording:
        _TAPE._nodes.append((out, fn))


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over dims that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Populate gradients of every requires_grad tensor reachable from loss,
    then empty the tape.

    The loss must be a scalar recorded on the calling thread's tape. A loss
    already replayed, built under ``no_grad`` or built on another thread is
    not on it and raises TapeError.
    """
    if loss.size != 1:
        raise TapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    nodes = _TAPE._nodes
    if not any(out is loss for out, _ in reversed(nodes)):
        raise TapeError("loss is not on this thread's tape: it was already replayed, "
                        "built under no_grad or built on another thread")
    loss.grad = np.ones_like(loss.data)
    try:
        for out, fn in reversed(nodes):
            if out.grad is not None:
                fn(out.grad)
    finally:
        nodes.clear()


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _make(a.data + b.data, a.requires_grad or b.requires_grad)

    def fn(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    _record(out, fn)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _make(a.data - b.data, a.requires_grad or b.requires_grad)

    def fn(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    _record(out, fn)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _make(a.data * b.data, a.requires_grad or b.requires_grad)

    def fn(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    _record(out, fn)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _make(a.data / b.data, a.requires_grad or b.requires_grad)

    def fn(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    _record(out, fn)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (recorded symbol: scale_by_scalar)."""
    s = float(s)
    out = _make(a.data * s, a.requires_grad)

    def fn(g):
        _accum(a, g * s)

    _record(out, fn)
    return out


def power(a: Tensor, p: float) -> Tensor:
    out = _make(a.data**p, a.requires_grad)

    def fn(g):
        _accum(a, g * p * a.data ** (p - 1.0))

    _record(out, fn)
    return out


def texp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = _make(y, a.requires_grad)

    def fn(g):
        _accum(a, g * y)

    _record(out, fn)
    return out


def tlog(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log requires strictly positive input")
    out = _make(np.log(a.data), a.requires_grad)

    def fn(g):
        _accum(a, g / a.data)

    _record(out, fn)
    return out


def tsqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise DomainError("sqrt requires non-negative input")
    y = np.sqrt(a.data)
    out = _make(y, a.requires_grad)

    def fn(g):
        _accum(a, g / (2.0 * y))

    _record(out, fn)
    return out


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    y = np.clip(a.data, lo, hi)
    out = _make(y, a.requires_grad)
    mask = (a.data >= lo) & (a.data <= hi)

    def fn(g):
        _accum(a, g * mask)

    _record(out, fn)
    return out


def relu(a: Tensor) -> Tensor:
    out = _make(np.maximum(a.data, 0.0), a.requires_grad)
    mask = a.data > 0.0

    def fn(g):
        _accum(a, g * mask)

    _record(out, fn)
    return out


# sigmoid would round to exactly 0.0 / 1.0 once |x| exceeds the dtype's
# resolution; outputs are pinned to the nearest representable value inside
# (0, 1) so the open-interval contract holds for any finite input.
_SIGMOID_CLIP = 60.0


def sigmoid(a: Tensor) -> Tensor:
    z = np.clip(a.data, -_SIGMOID_CLIP, _SIGMOID_CLIP)
    y = 1.0 / (1.0 + np.exp(-z))
    fi = np.finfo(a.data.dtype)
    np.clip(y, fi.tiny, 1.0 - fi.epsneg, out=y)
    out = _make(y, a.requires_grad)

    def fn(g):
        _accum(a, g * y * (1.0 - y))

    _record(out, fn)
    return out


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _make(y, a.requires_grad)

    def fn(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - inner))

    _record(out, fn)
    return out


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = _make(a.data.reshape(shape), a.requires_grad)

    def fn(g):
        _accum(a, g.reshape(a.shape))

    _record(out, fn)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of zero tensors")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _make(data, any(t.requires_grad for t in tensors))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def fn(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            _accum(t, piece)

    _record(out, fn)
    return out


def tslice(a: Tensor, key) -> Tensor:
    """Basic slicing / integer indexing; backward scatters into zeros."""
    out = _make(a.data[key], a.requires_grad)

    def fn(g):
        buf = np.zeros_like(a.data)
        buf[key] += g
        _accum(a, buf)

    _record(out, fn)
    return out


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = _make(a.data.sum(axis=axis, keepdims=keepdims), a.requires_grad)

    def fn(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape).copy() if np.ndim(g) else np.full(a.shape, g, dtype=a.dtype))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.shape).copy())

    _record(out, fn)
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``y = x @ weight.T + bias`` with weight shaped [out, in]."""
    squeeze = x.ndim == 1
    xd = x.data[None, :] if squeeze else x.data
    if xd.shape[-1] != weight.shape[1]:
        raise ShapeMismatchError(
            f"linear: input features {xd.shape[-1]} != weight in-features {weight.shape[1]}"
        )
    y = xd @ weight.data.T
    if bias is not None:
        y = y + bias.data
    if squeeze:
        y = y[0]
    req = x.requires_grad or weight.requires_grad or (bias is not None and bias.requires_grad)
    out = _make(y, req)

    def fn(g):
        g2 = g[None, :] if squeeze else g
        _accum(x, (g2 @ weight.data)[0] if squeeze else g2 @ weight.data)
        _accum(weight, g2.T @ xd)
        if bias is not None:
            _accum(bias, g2.sum(axis=0))

    _record(out, fn)
    return out


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Cosine of the angle between a and b along ``axis``.

    Raises DomainError when either vector has (numerically) zero norm,
    which signals a degenerate gaze annotation upstream.
    """
    na = np.linalg.norm(a.data, axis=axis)
    nb = np.linalg.norm(b.data, axis=axis)
    if np.any(na < 1e-12) or np.any(nb < 1e-12):
        raise DomainError("cosine_similarity with zero-norm vector")
    dot = tsum(mul(a, b), axis=axis)
    denom = tsqrt(mul(tsum(mul(a, a), axis=axis), tsum(mul(b, b), axis=axis)))
    return div(dot, denom)


# ---------------------------------------------------------------------------
# spatial ops (NCHW layout)
# ---------------------------------------------------------------------------


# Convolutions run in NHWC internally. Stride-1 kernels use one wide GEMM
# over the whole padded image (all taps at once, accumulated via shifted
# slices); strided kernels fall back to one GEMM per tap on subsampled
# slabs. Both are far cheaper than materializing im2col windows.


def _taps(kh: int, kw: int):
    return [(t, i, j) for t, (i, j) in enumerate((i, j) for i in range(kh) for j in range(kw))]


def _conv2d_forward(xp: np.ndarray, weight: np.ndarray, stride: int,
                    ho: int, wo: int) -> np.ndarray:
    """xp: padded NHWC input; returns NHWC output (no bias)."""
    n, hp, wp, c = xp.shape
    k, _, kh, kw = weight.shape
    w = weight.astype(xp.dtype, copy=False)
    if stride == 1:
        # (N*Hp*Wp, C) @ (C, taps*K), then accumulate shifted slices
        wide = w.transpose(2, 3, 0, 1).reshape(kh * kw * k, c).T
        contrib = (xp.reshape(-1, c) @ wide).reshape(n, hp, wp, kh * kw, k)
        out = np.zeros((n, ho, wo, k), dtype=xp.dtype)
        for t, i, j in _taps(kh, kw):
            out += contrib[:, i : i + ho, j : j + wo, t, :]
        return out
    out = np.zeros((n * ho * wo, k), dtype=xp.dtype)
    for t, i, j in _taps(kh, kw):
        slab = xp[:, i : i + ho * stride : stride, j : j + wo * stride : stride, :]
        out += slab.reshape(-1, c) @ w[:, :, i, j].T
    return out.reshape(n, ho, wo, k)


def _conv2d_weight_grad(xp: np.ndarray, g_flat: np.ndarray, stride: int,
                        ho: int, wo: int, kh: int, kw: int, c: int) -> np.ndarray:
    n, hp, wp, _ = xp.shape
    k = g_flat.shape[1]
    if stride == 1 and kh * kw > 1:
        # embed the output grad at each tap offset, contract in one GEMM
        gbig = np.zeros((n, hp, wp, kh * kw, k), dtype=xp.dtype)
        g = g_flat.reshape(n, ho, wo, k)
        for t, i, j in _taps(kh, kw):
            gbig[:, i : i + ho, j : j + wo, t, :] = g
        flat = xp.reshape(-1, c).T @ gbig.reshape(-1, kh * kw * k)  # (C, taps*K)
        return flat.reshape(c, kh * kw, k).transpose(2, 0, 1).reshape(k, c, kh, kw)
    dw = np.empty((k, c, kh, kw), dtype=xp.dtype)
    for t, i, j in _taps(kh, kw):
        slab = xp[:, i : i + ho * stride : stride, j : j + wo * stride : stride, :]
        dw[:, :, i, j] = g_flat.T @ slab.reshape(-1, c)
    return dw


def _conv2d_input_grad(g_flat: np.ndarray, weight: np.ndarray, x_shape, stride: int,
                       padding: int, ho: int, wo: int) -> np.ndarray:
    """g_flat: (N*Ho*Wo, K); returns NCHW gradient for the input."""
    n, c, h, w = x_shape
    k, _, kh, kw = weight.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    wt = weight.astype(g_flat.dtype, copy=False)
    dxp = np.zeros((n, hp, wp, c), dtype=g_flat.dtype)
    if stride == 1 and kh * kw > 1:
        wide = wt.transpose(2, 3, 0, 1).reshape(kh * kw, k, c)
        wide = np.ascontiguousarray(wide.transpose(1, 0, 2)).reshape(k, kh * kw * c)
        spread = (g_flat @ wide).reshape(n, ho, wo, kh * kw, c)
        for t, i, j in _taps(kh, kw):
            dxp[:, i : i + ho, j : j + wo, :] += spread[:, :, :, t, :]
    else:
        for t, i, j in _taps(kh, kw):
            contrib = g_flat @ wt[:, :, i, j]
            dxp[:, i : i + ho * stride : stride, j : j + wo * stride : stride, :] += (
                contrib.reshape(n, ho, wo, c)
            )
    if padding:
        dxp = dxp[:, padding:-padding, padding:-padding, :]
    return np.ascontiguousarray(dxp.transpose(0, 3, 1, 2))


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation over NCHW input with an [K, C, kh, kw] kernel."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeMismatchError(
            f"conv2d: input rank {x.ndim} and weight rank {weight.ndim}, both must be 4"
        )
    n, c, h, w = x.shape
    k, cw, kh, kw = weight.shape
    if c != cw:
        raise ShapeMismatchError(f"conv2d: input channels {c} != weight channels {cw}")
    if bias is not None and bias.shape != (k,):
        raise ShapeMismatchError(f"conv2d: bias shape {bias.shape} != ({k},)")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeMismatchError(
            f"conv2d: kernel ({kh},{kw}) exceeds padded input ({h + 2 * padding},{w + 2 * padding})"
        )
    if stride < 1:
        raise ValueError("conv2d: stride must be >= 1")

    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1))
    if padding:
        xp = np.pad(xp, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    y = _conv2d_forward(xp, weight.data, stride, ho, wo)
    if bias is not None:
        y += bias.data
    y = np.ascontiguousarray(y.transpose(0, 3, 1, 2))

    req = x.requires_grad or weight.requires_grad or (bias is not None and bias.requires_grad)
    out = _make(y, req)

    def fn(g):
        g_flat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, k)
        if weight.requires_grad:
            _accum(weight, _conv2d_weight_grad(xp, g_flat, stride, ho, wo, kh, kw, c))
        if bias is not None and bias.requires_grad:
            _accum(bias, g_flat.sum(axis=0))
        if x.requires_grad:
            _accum(x, _conv2d_input_grad(g_flat, weight.data, x.shape, stride, padding, ho, wo))

    _record(out, fn)
    return out


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Copy each pixel into a factor x factor block."""
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    if factor == 1:
        return tslice(x, (slice(None),))  # identity with a grad path
    f = int(factor)
    y = np.repeat(np.repeat(x.data, f, axis=2), f, axis=3)
    out = _make(y, x.requires_grad)
    n, c, h, w = x.shape

    def fn(g):
        _accum(x, g.reshape(n, c, h, f, w, f).sum(axis=(3, 5)))

    _record(out, fn)
    return out


def _bilinear_axis(src: int, dst: int):
    pos = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    i0 = np.floor(pos).astype(int)
    frac = pos - i0
    i0c = np.clip(i0, 0, src - 1)
    i1c = np.clip(i0 + 1, 0, src - 1)
    return i0c, i1c, 1.0 - frac, frac


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling (half-pixel centers); config alternative to nearest."""
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    n, c, h, w = x.shape
    i0, i1, wi0, wi1 = _bilinear_axis(h, h * factor)
    j0, j1, wj0, wj1 = _bilinear_axis(w, w * factor)
    d = x.data
    top = d[:, :, i0][:, :, :, j0] * wj0 + d[:, :, i0][:, :, :, j1] * wj1
    bot = d[:, :, i1][:, :, :, j0] * wj0 + d[:, :, i1][:, :, :, j1] * wj1
    y = top * wi0[:, None] + bot * wi1[:, None]
    out = _make(y, x.requires_grad)

    def fn(g):
        dx = np.zeros_like(x.data)
        for ii, wi in ((i0, wi0), (i1, wi1)):
            for jj, wj in ((j0, wj0), (j1, wj1)):
                part = g * (wi[:, None] * wj)
                # scatter-add along both spatial axes
                tmp = np.zeros((n, c, h, g.shape[3]), dtype=g.dtype)
                np.add.at(tmp, (slice(None), slice(None), ii), part)
                np.add.at(dx, (slice(None), slice(None), slice(None), jj), tmp)
        _accum(x, dx)

    _record(out, fn)
    return out


def avg_pool2d(x: Tensor, factor: int) -> Tensor:
    """Non-overlapping average pooling by an integer factor."""
    n, c, h, w = x.shape
    f = int(factor)
    if h % f or w % f:
        raise ShapeMismatchError(f"avg_pool2d: spatial dims ({h},{w}) not divisible by {f}")
    y = x.data.reshape(n, c, h // f, f, w // f, f).mean(axis=(3, 5))
    out = _make(np.ascontiguousarray(y), x.requires_grad)

    def fn(g):
        up = np.repeat(np.repeat(g, f, axis=2), f, axis=3)
        _accum(x, up / (f * f))

    _record(out, fn)
    return out


def global_max_pool(x: Tensor) -> Tensor:
    """Spatial max per channel; gradient routes to the first maximal
    location in row-major order (deterministic tie-break)."""
    n, c, h, w = x.shape
    flat = x.data.reshape(n, c, h * w)
    idx = flat.argmax(axis=2)
    y = np.take_along_axis(flat, idx[:, :, None], axis=2)[:, :, 0]
    out = _make(np.ascontiguousarray(y), x.requires_grad)

    def fn(g):
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, idx[:, :, None], g[:, :, None], axis=2)
        _accum(x, dflat.reshape(n, c, h, w))

    _record(out, fn)
    return out


# ---------------------------------------------------------------------------
# serialization: "GZT1" little-endian binary records
# ---------------------------------------------------------------------------

_MAGIC = b"GZT1"
_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_CODE_FOR = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    """Encode an array: magic, u8 dtype code (0=f64, 1=f32), u8 rank,
    rank x u32 dims, then raw little-endian values."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODE_FOR:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    if arr.ndim > 255:
        raise ValueError("rank exceeds u8")
    head = _MAGIC + bytes([_CODE_FOR[arr.dtype], arr.ndim])
    dims = np.asarray(arr.shape, dtype="<u4").tobytes()
    body = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    return head + dims + body


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one record starting at ``offset``; returns (array, next_offset).

    Raises DatasetError-compatible ValueError via errors module on corrupt
    or truncated input.
    """
    from .errors import DatasetError

    if len(buf) < offset + 6:
        raise DatasetError("truncated tensor record (header)")
    if buf[offset : offset + 4] != _MAGIC:
        raise DatasetError(f"bad tensor magic {buf[offset:offset + 4]!r}, expected {_MAGIC!r}")
    code, rank = buf[offset + 4], buf[offset + 5]
    if code not in _DTYPE_CODES:
        raise DatasetError(f"unknown dtype code {code}")
    pos = offset + 6
    if len(buf) < pos + 4 * rank:
        raise DatasetError("truncated tensor record (dims)")
    dims = np.frombuffer(buf, dtype="<u4", count=rank, offset=pos)
    pos += 4 * rank
    dtype = _DTYPE_CODES[code]
    count = int(np.prod(dims)) if rank else 1
    nbytes = count * dtype.itemsize
    if len(buf) < pos + nbytes:
        raise DatasetError("truncated tensor record (payload)")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos).reshape(tuple(int(d) for d in dims))
    return arr.astype(dtype.newbyteorder("=")), pos + nbytes


def write_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(tensor_to_bytes(arr))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    arr, end = tensor_from_bytes(buf)
    from .errors import DatasetError

    if end != len(buf):
        raise DatasetError(f"trailing bytes after tensor record in {path}")
    return arr
