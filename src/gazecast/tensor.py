"""Dense n-dimensional arrays with tape-based reverse-mode differentiation.

Design: eager numpy forward passes; every differentiable op returns through
``_op``, which appends a node (output tensor, backward closure) to the
calling thread's tape when an input needs a gradient.
``backward(loss)`` seeds the loss gradient and replays that tape in
reverse, popping each node once: its closure and its output's gradient are
freed as soon as the replay has passed it. Execution order is a valid
topological order, so no sorting is needed.

Precision comes from the data and the model config, never from process
state: a tensor keeps the float32 or float64 dtype of the array it wraps
(anything else becomes float64, so finite-difference checks are
meaningful), and a model casts its parameters to ``RunConfig.precision``.

Each thread records onto its own tape, so threads may run forward and
backward passes concurrently. ``no_grad`` holds for the context it is
entered in: a thread started inside the block records unless it runs in a
copy of that context, as ``parallel.run_shards``' workers do. A loss can
only be backpropagated on the thread that built it. Tensors are safe to
share across threads once produced, but gradients accumulate into leaf
tensors without locking: threads that run backward at the same time need
their own leaves.
"""

from __future__ import annotations

import contextvars
import os
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DatasetError, DomainError, ShapeMismatchError, TapeError


class Tape(threading.local):
    """Ordered record of the differentiable operations executed on the
    current thread.

    Nodes are (output tensor, backward closure) pairs appended during the
    forward pass outside ``no_grad``. ``backward`` pops the nodes as it
    replays them; ``fresh_tape()`` drops a graph that will not be replayed.
    """

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, object]] = []

    def __len__(self) -> int:
        return len(self._nodes)


_TAPE = Tape()
_RECORDING = contextvars.ContextVar("gazecast_recording", default=True)


def tape() -> Tape:
    """The calling thread's tape, which ops record onto."""
    return _TAPE


def fresh_tape() -> Tape:
    """Empty the calling thread's tape and return it."""
    _TAPE._nodes.clear()
    return _TAPE


@contextmanager
def no_grad():
    """Disable tape recording in the current context inside the block
    (evaluation-only forwards)."""
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


class Tensor:
    """A dense array plus optional gradient buffer.

    ``data`` is a contiguous numpy array (float64 or float32): float input
    keeps its dtype, anything else becomes float64. After ``backward`` a
    leaf (a tensor no op produced) holds its gradient in ``grad``, of the
    shape of ``data``; an op's output keeps none. Tensors are
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
        if self.data.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    def __getitem__(self, key):
        return tslice(self, key)


def _op(data: np.ndarray, fn, *inputs: Tensor | None) -> Tensor:
    """An op's output wrapping ``data``. It requires a gradient when an input
    does (``None`` inputs, such as an absent bias, are skipped), and then,
    outside ``no_grad``, ``(out, fn)`` is appended to the calling thread's tape:
    ``fn(g)`` takes the gradient of ``out`` and accumulates into the inputs."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    for t in inputs:
        if t is not None and t.requires_grad:
            out.requires_grad = True
            if _RECORDING.get():
                _TAPE._nodes.append((out, fn))
            break
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # one pass; a copy, since callers may hand the same array to two leaves
        t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
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
    """Accumulate the gradient of loss into every requires_grad leaf that
    reaches it, emptying the tape as it goes.

    Each node is popped, its output's gradient handed to its closure and
    dropped, so closures, saved arrays and intermediate gradients are freed
    once the replay has passed them; only leaves keep a ``grad``. The loss
    must be a scalar recorded on the calling thread's tape. A loss already
    replayed, built under ``no_grad`` or built on another thread is not on
    it and raises TapeError.
    """
    if loss.size != 1:
        raise TapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    nodes = _TAPE._nodes
    if not any(out is loss for out, _ in reversed(nodes)):
        raise TapeError("loss is not on this thread's tape: it was already replayed, "
                        "built under no_grad or built on another thread")
    loss.grad = np.ones_like(loss.data)
    try:
        while nodes:
            out, fn = nodes.pop()
            g, out.grad = out.grad, None
            if g is not None:
                fn(g)
    finally:
        nodes.clear()


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def fn(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _op(a.data + b.data, fn, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def fn(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _op(a.data - b.data, fn, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def fn(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _op(a.data * b.data, fn, a, b)


def div(a: Tensor, b: Tensor) -> Tensor:
    def fn(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _op(a.data / b.data, fn, a, b)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (recorded symbol: scale_by_scalar)."""
    s = float(s)

    def fn(g):
        _accum(a, g * s)

    return _op(a.data * s, fn, a)


def tlog(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("log requires strictly positive input")

    def fn(g):
        _accum(a, g / a.data)

    return _op(np.log(a.data), fn, a)


def tsqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise DomainError("sqrt requires non-negative input")
    y = np.sqrt(a.data)

    def fn(g):
        _accum(a, g / (2.0 * y))

    return _op(y, fn, a)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    y = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def fn(g):
        _accum(a, g * mask)

    return _op(y, fn, a)


def relu(a: Tensor) -> Tensor:
    y = np.maximum(a.data, 0.0)

    def fn(g):
        # y > 0 exactly where a > 0; y is the output, which the tape holds
        # anyway, so no mask is saved
        _accum(a, g * (y > 0.0))

    return _op(y, fn, a)


# sigmoid would round to exactly 0.0 / 1.0 once |x| exceeds the dtype's
# resolution; outputs are pinned to the nearest representable value inside
# (0, 1) so the open-interval contract holds for any finite input.
_SIGMOID_CLIP = 60.0


def sigmoid(a: Tensor) -> Tensor:
    z = np.clip(a.data, -_SIGMOID_CLIP, _SIGMOID_CLIP)
    y = 1.0 / (1.0 + np.exp(-z))
    fi = np.finfo(a.data.dtype)
    np.clip(y, fi.tiny, 1.0 - fi.epsneg, out=y)

    def fn(g):
        _accum(a, g * y * (1.0 - y))

    return _op(y, fn, a)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def fn(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - inner))

    return _op(y, fn, a)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)

    def fn(g):
        _accum(a, g.reshape(a.shape))

    return _op(a.data.reshape(shape), fn, a)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join along ``axis``; the operands must agree on every other axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of zero tensors")
    if len({t.shape[:axis] + t.shape[axis:][1:] for t in tensors}) > 1:
        raise ShapeMismatchError(f"concat on axis {axis}: shapes {[t.shape for t in tensors]}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def fn(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            _accum(t, piece)

    return _op(data, fn, *tensors)


def tslice(a: Tensor, key) -> Tensor:
    """Basic slicing / integer indexing; backward scatters into zeros."""
    def fn(g):
        buf = np.zeros_like(a.data)
        buf[key] += g
        _accum(a, buf)

    return _op(a.data[key], fn, a)


def tsum(a: Tensor, axis=None) -> Tensor:
    def fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape))

    return _op(a.data.sum(axis=axis), fn, a)


def tmean(a: Tensor) -> Tensor:
    return scale(tsum(a), 1.0 / float(a.size))


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``y = x @ weight.T + bias`` with weight shaped [out, in]."""
    xd = x.data
    if xd.ndim != 2 or xd.shape[1] != weight.shape[1]:
        raise ShapeMismatchError(
            f"linear: input shape {xd.shape} is not [N, {weight.shape[1]}] (weight in-features)"
        )
    y = xd @ weight.data.T
    if bias is not None:
        y = y + bias.data

    def fn(g):
        _accum(x, g @ weight.data)
        _accum(weight, g.T @ xd)
        if bias is not None:
            _accum(bias, g.sum(axis=0))

    return _op(y, fn, x, weight, bias)


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


# Convolutions stay in NCHW. A stride-1 conv is upsample_conv2d at factor 1,
# so one kernel serves both. Per axis, output row f*q + a (phase a) reads,
# through tap i, input row q + (a + i - p) // f. Each padded image is viewed
# as a (C, Hp*Wp) matrix, in which input offset (dy, dx) is a contiguous
# slice. Each offset is one GEMM at the padded row pitch Wp, whose weight
# stacks the folded (K, C) kernels of every phase that reads that offset:
# the sum of the taps that land there. The Wp - Wq junk columns of each row
# are then dropped. At f = 1 every offset is one tap; a 3x3 kernel at f = 4
# makes 36 phase taps at the input resolution instead of 9 taps at f*f times
# as many pixels. All kernels are folded at once, by one GEMM with the 0/1
# (offset, phase) x tap matrix, and their gradients go back to the taps
# through its transpose; at f = 1 that matrix is the identity, and both
# GEMMs are skipped. The gradients embed the output gradient at the
# pitch Wp with zero junk columns and use the same slices. The offsets run
# over blocks of images whose per-image working set fits in about
# _CONV_BLOCK_BYTES, so that all offsets of a block read it from cache.
# Each block is padded inside that loop, into one buffer whose zero border
# is written once, so no padded copy of the batch exists. The backward pass
# pads each block again for the weight gradient and builds the input
# gradient block by block: it keeps only the unpadded input.
#
# A stride-s conv works on the s*s phase images of its padded input: padded
# row s*q + a is row q of phase a, per axis. They are stored channel-major
# and merged over the batch, as (C, s, s, N*hs*ws) with hs = ho + (kh-1)//s
# and ws = wo + (kw-1)//s, so tap (i, j) is the contiguous slice of phase
# (i % s, j % s) at flat offset (i//s)*ws + j//s. Outputs at q >= ho or
# r >= wo read past their image and are junk, dropped like the stride-1
# junk columns. kh*kw slice copies build the column matrix; forward, weight
# gradient and input gradient are one 2-D GEMM each. The weight gradient is
# (cols @ gf.T).T, which BLAS runs faster than gf @ cols.T; on one BLAS
# thread, as the CLI runs, it gives the same bits on the model's shapes.
# The backward pass keeps only the input, which its producer or the batch
# holds anyway, and rebuilds the phase images and then the columns from it
# for the weight gradient, with the forward's own copies. The input
# gradient reads neither: it adds each tap's rows into its slice of a
# zeroed phase buffer and takes the phases back to NCHW in one pass.
#
# Both kernels take ``relu``, a fused ReLU epilogue: after the bias add it
# runs in place on the kernel's own fresh output, and the backward pass first
# masks the output gradient by y > 0, the mask ``relu`` uses. A conv and its
# ReLU are then one tape node that keeps one output, not two, with the same
# bits as ``relu(conv(...))``.
#
# A product whose contraction has length 1, such as the input gradient of a
# conv with one output channel, runs as a broadcast multiply: the same
# bits, without the slow numpy matmul loop for that shape.

_CONV_BLOCK_BYTES = 1 << 20


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``, as a broadcast multiply when the contraction has length 1."""
    return np.multiply(a, b, out=out) if a.shape[-1] == 1 else np.matmul(a, b, out=out)


def _image_blocks(n: int, image_bytes: int) -> list[slice]:
    """Runs of consecutive images whose working sets of ``image_bytes``
    each fit in about _CONV_BLOCK_BYTES together (at least one image)."""
    nb = max(1, _CONV_BLOCK_BYTES // image_bytes)
    return [slice(b, min(b + nb, n)) for b in range(0, n, nb)]


def _padded_blocks(a: np.ndarray, blocks: list[slice], top: int, left: int, hp: int,
                   wp: int):
    """(block, its images of NCHW ``a`` placed at (top, left) in zeros of
    spatial size (hp, wp), as (images, C, hp*wp)) for each block. Without
    padding these are views of ``a``; with it, one buffer serves every
    block and only its interior is rewritten, so each is valid until the
    next is drawn."""
    n, c, h, w = a.shape
    buf = None if (h, w) == (hp, wp) else np.zeros((blocks[0].stop, c, hp, wp), dtype=a.dtype)
    for blk in blocks:
        if buf is None:
            xb = a[blk]
        else:
            xb = buf[: blk.stop - blk.start]
            xb[:, :, top : top + h, left : left + w] = a[blk]
        yield blk, xb.reshape(len(xb), c, hp * wp)


@lru_cache(maxsize=256)
def _phase_plan(h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """The batch-independent layout of a strided conv on phase images:
    (ho, wo, hs, ws, phases, taps). Each phase is the (phase image, input)
    index pair of the input pixels it holds; each tap is its (row phase,
    column phase, flat offset)."""
    s = stride
    ho, wo = (h + 2 * padding - kh) // s + 1, (w + 2 * padding - kw) // s + 1
    hs, ws = ho + (kh - 1) // s, wo + (kw - 1) // s

    def axis(n: int, ns: int) -> list[tuple[int, slice, slice]]:
        # padded row s*q + a is input row s*q + a - padding
        out = []
        for a in range(s):
            q0 = max(0, -((a - padding) // s))
            y0 = s * q0 + a - padding
            cnt = min(ns - q0, -(-(n - y0) // s))
            if cnt > 0:
                out.append((a, slice(q0, q0 + cnt), slice(y0, y0 + s * cnt, s)))
        return out

    every = slice(None)
    phases = tuple(((every, a, b, every, qa, rb), (every, every, ya, xb))
                   for a, qa, ya in axis(h, hs) for b, rb, xb in axis(w, ws))
    taps = tuple((i % s, j % s, (i // s) * ws + j // s) for i in range(kh) for j in range(kw))
    return ho, wo, hs, ws, phases, taps


def _tap_columns(xph: np.ndarray, taps: tuple, span: int) -> np.ndarray:
    """The (C*kh*kw, span) column matrix of a strided conv: tap t's slice of
    its phase of the (C, s, s, N*hs*ws) phase images ``xph`` as rows t of
    each channel."""
    c = xph.shape[0]
    cols = np.empty((c, len(taps), span), dtype=xph.dtype)
    for t, (a, b, o) in enumerate(taps):
        cols[:, t] = xph[:, a, b, o : o + span]
    return cols.reshape(c * len(taps), span)


def _conv_shapes(op: str, x: Tensor, weight: Tensor, bias: Tensor | None):
    """(N, C, H, W, K, kh, kw) of a conv's NCHW input and [K, C, kh, kw]
    kernel, after checking that the operands fit together."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeMismatchError(
            f"{op}: input rank {x.ndim} and weight rank {weight.ndim}, both must be 4"
        )
    n, c, h, w = x.shape
    k, cw, kh, kw = weight.shape
    if c != cw:
        raise ShapeMismatchError(f"{op}: input channels {c} != weight channels {cw}")
    if bias is not None and bias.shape != (k,):
        raise ShapeMismatchError(f"{op}: bias shape {bias.shape} != ({k},)")
    return n, c, h, w, k, kh, kw


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    relu: bool = False,
) -> Tensor:
    """2-D cross-correlation over NCHW input with an [K, C, kh, kw] kernel,
    followed by a ReLU when ``relu`` is set."""
    n, c, h, w, k, kh, kw = _conv_shapes("conv2d", x, weight, bias)
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeMismatchError(
            f"conv2d: kernel ({kh},{kw}) exceeds padded input ({h + 2 * padding},{w + 2 * padding})"
        )
    if stride < 1:
        raise ValueError("conv2d: stride must be >= 1")
    if stride == 1:
        return upsample_conv2d(x, weight, bias, 1, padding, relu)

    s = int(stride)
    ho, wo, hs, ws, phases, taps = _phase_plan(h, w, kh, kw, s, padding)
    # output (q, r) of image n sits at n*hs*ws + q*ws + r of the merged phase
    # images; q >= ho or r >= wo are junk, and span ends at the last real one
    m = n * hs * ws
    span = m - (hs - ho) * ws - (ws - wo)
    dtype = x.data.dtype

    def phase_images() -> np.ndarray:
        xph = np.zeros((c, s, s, n, hs, ws), dtype=dtype)
        xt = x.data.transpose(1, 0, 2, 3)
        for dst, src in phases:
            xph[dst] = xt[src]
        return xph.reshape(c, s, s, m)

    wm = weight.data.astype(dtype, copy=False).reshape(k, c * kh * kw)
    yk = np.empty((k, m), dtype=dtype)
    _mm(wm, _tap_columns(phase_images(), taps, span), out=yk[:, :span])
    yv = yk.reshape(k, n, hs, ws)[:, :, :ho, :wo].transpose(1, 0, 2, 3)
    y = np.empty((n, k, ho, wo), dtype=dtype)
    if bias is None:
        y[...] = yv
    else:
        np.add(yv, bias.data[:, None, None], out=y)
    if relu:
        np.maximum(y, 0.0, out=y)

    def fn(g):
        if relu:
            g = g * (y > 0.0)
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        gk = np.zeros((k, n, hs, ws), dtype=g.dtype)
        gk[:, :, :ho, :wo] = g.transpose(1, 0, 2, 3)
        gf = gk.reshape(k, m)[:, :span]
        if weight.requires_grad:
            dw = _mm(_tap_columns(phase_images(), taps, span), gf.T).T
            _accum(weight, dw.reshape(k, c, kh, kw))
        if x.requires_grad:
            dcols = _mm(wm.T, gf).reshape(c, kh * kw, span)
            dxph = np.zeros((c, s, s, m), dtype=g.dtype)
            for t, (a, b, o) in enumerate(taps):
                dxph[:, a, b, o : o + span] += dcols[:, t]
            dxph = dxph.reshape(c, s, s, n, hs, ws)
            dx = np.zeros((n, c, h, w), dtype=g.dtype)
            dxt = dx.transpose(1, 0, 2, 3)
            for dst, src in phases:
                dxt[src] = dxph[dst]
            _accum(x, dx)

    return _op(y, fn, x, weight, bias)


@lru_cache(maxsize=256)
def _axis_phases(k: int, factor: int, padding: int) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """One axis of an upsample-then-conv. Returns, for each input offset d in
    increasing order, (d, the slice of phases that read it, the slice of its
    rows), and the 0/1 (offset, phase) x tap matrix of the taps that land on
    d, as nested tuples."""
    d = [[(a + i - padding) // factor for i in range(k)] for a in range(factor)]
    offsets, taps = [], []
    for off in range(d[0][0], d[-1][-1] + 1):
        phases = [a for a in range(factor) if off in d[a]]
        offsets.append((off, slice(phases[0], phases[-1] + 1),
                        slice(len(taps), len(taps) + len(phases))))
        taps += [tuple(int(t == off) for t in d[a]) for a in phases]
    return tuple(offsets), tuple(taps)


def upsample_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    factor: int = 1,
    padding: int = 0,
    relu: bool = False,
) -> Tensor:
    """``conv2d(upsample_nearest(x, factor), weight, bias, padding=padding)``
    computed at the input resolution, without the upsampled tensor, and
    followed by a ReLU when ``relu`` is set."""
    n, c, h, w, k, kh, kw = _conv_shapes("upsample_conv2d", x, weight, bias)
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    f = int(factor)
    ho, wo = h * f + 2 * padding - kh + 1, w * f + 2 * padding - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatchError(
            f"upsample_conv2d: kernel ({kh},{kw}) exceeds padded upsampled input "
            f"({h * f + 2 * padding},{w * f + 2 * padding})"
        )

    # output row f*q + a for q < hq; rows past ho are computed, then cut
    hq, wq = -(-ho // f), -(-wo // f)
    rows, row_taps = _axis_phases(kh, f, padding)
    cols, col_taps = _axis_phases(kw, f, padding)
    top, left = max(0, -rows[0][0]), max(0, -cols[0][0])
    hp, wp = top + max(h, hq + rows[-1][0]), left + max(w, wq + cols[-1][0])
    # offset (dy, dx) reads a padded block's [:, :, s : s + span] with s =
    # (dy + top) * wp + dx + left; the last offset's slice ends exactly at
    # the last padded pixel
    span = (hq - 1) * wp + wq
    offsets = [((dy + top) * wp + dx + left, pa, pb, ra, rb)
               for dy, pa, ra in rows for dx, pb, rb in cols]
    dtype = x.data.dtype
    # ws[ra, rb] stacks the folded (K, C) kernels of the phases that read an
    # offset. fold has one row per (row phase, column phase) pair of every
    # offset, with a 1 for each tap that lands there; at factor 1 it is the
    # identity, and each offset reads one tap's kernel as it is
    wt = weight.data.astype(dtype, copy=False).transpose(2, 3, 0, 1)
    if f == 1:
        fold = None
        ws = np.ascontiguousarray(wt)
    else:
        fold = (np.array(row_taps, dtype=dtype)[:, None, :, None]
                * np.array(col_taps, dtype=dtype)[None, :, None, :]).reshape(-1, kh * kw)
        ws = _mm(fold, wt.reshape(kh * kw, k * c))
        ws = ws.reshape(len(row_taps), len(col_taps), k, c)
    blocks = _image_blocks(n, max(c * hp, f * f * k * hq) * wp * dtype.itemsize)

    y6 = np.empty((n, k, hq, f, wq, f), dtype=dtype)
    for blk, xb in _padded_blocks(x.data, blocks, top, left, hp, wp):
        nb = len(xb)
        acc = np.zeros((nb, f, f, k, hq * wp), dtype=dtype)
        for s, pa, pb, ra, rb in offsets:
            phases = acc[:, pa, pb, :, :span]
            phases += _mm(ws[ra, rb].reshape(-1, c), xb[:, :, s : s + span]).reshape(phases.shape)
        y6[blk] = acc.reshape(nb, f, f, k, hq, wp)[..., :wq].transpose(0, 3, 4, 1, 5, 2)
    y = y6.reshape(n, k, hq * f, wq * f)
    if (hq * f, wq * f) != (ho, wo):
        y = np.ascontiguousarray(y[:, :, :ho, :wo])
    if bias is not None:
        y += bias.data[:, None, None]
    if relu:
        np.maximum(y, 0.0, out=y)

    def fn(g):
        if relu:
            g = g * (y > 0.0)
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        # g with the rows and columns cut from y put back as zeros
        (_, gz), = _padded_blocks(g, [slice(0, n)], 0, 0, hq * f, wq * f)
        g6 = gz.reshape(n, k, hq, f, wq, f)
        dws = np.zeros_like(ws) if weight.requires_grad else None
        dx = np.empty((n, c, h, w), dtype=g.dtype) if x.requires_grad else None
        for blk, xb in _padded_blocks(x.data, blocks, top, left, hp, wp):
            nb = len(xb)
            gp = np.zeros((nb, f, f, k, hq, wp), dtype=g.dtype)
            gp[..., :wq] = g6[blk].transpose(0, 3, 5, 1, 2, 4)
            gp = gp.reshape(nb, f, f, k, hq * wp)
            gss = [gp[:, pa, pb].reshape(nb, -1, hq * wp)[..., :span]
                   for _, pa, pb, _, _ in offsets]
            # one loop per gradient, so that the dw products keep the
            # block's padded input in cache
            if weight.requires_grad:
                for (s, _, _, ra, rb), gs in zip(offsets, gss):
                    dw = _mm(xb[:, :, s : s + span], gs.transpose(0, 2, 1)).sum(axis=0).T
                    dws[ra, rb] += dw.reshape(dws[ra, rb].shape)
            if x.requires_grad:
                dxb = np.zeros((nb, c, hp * wp), dtype=g.dtype)
                for (s, _, _, ra, rb), gs in zip(offsets, gss):
                    dxb[:, :, s : s + span] += _mm(ws[ra, rb].reshape(-1, c).T, gs)
                dx[blk] = dxb.reshape(nb, c, hp, wp)[:, :, top : top + h, left : left + w]
        if weight.requires_grad:
            # each folded kernel's gradient goes back to the taps it sums
            dw = dws if fold is None else _mm(fold.T, dws.reshape(len(fold), k * c))
            _accum(weight, dw.reshape(kh, kw, k, c).transpose(2, 3, 0, 1))
        if x.requires_grad:
            _accum(x, dx)

    return _op(y, fn, x, weight, bias)


def _block_sum(a: np.ndarray, f: int) -> np.ndarray:
    """Sum of each f x f block of NCHW ``a``: its f*f strided sub-grids
    added into one array."""
    grids = [a[:, :, i::f, j::f] for i in range(f) for j in range(f)]
    out = grids[0].copy()
    for grid in grids[1:]:
        out += grid
    return out


def resize_nearest(a: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """``a`` nearest-resampled on its last two axes to (out_h, out_w): on an
    axis of input length n and output length m, output pixel i copies input
    pixel floor((i + 0.5) * n / m), so an integer upscale copies each pixel
    into a block. ``a`` itself when it already has that size."""
    h, w = a.shape[-2:]
    if (h, w) == (out_h, out_w):
        return a
    rows = np.floor((np.arange(out_h) + 0.5) * h / out_h).astype(np.intp)
    cols = np.floor((np.arange(out_w) + 0.5) * w / out_w).astype(np.intp)
    return a[..., rows, :][..., cols]


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Copy each pixel into a factor x factor block."""
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    f = int(factor)

    def fn(g):
        _accum(x, _block_sum(g, f))

    return _op(resize_nearest(x.data, x.shape[2] * f, x.shape[3] * f), fn, x)


def upsample_add(x: Tensor, lateral: Tensor, factor: int) -> Tensor:
    """``add(upsample_nearest(x, factor), lateral)`` with the same bits, as
    ``lateral`` plus ``x`` broadcast over factor x factor blocks, without
    the upsampled tensor."""
    if factor < 1:
        raise ValueError("upsample factor must be >= 1")
    f = int(factor)
    n, c, h, w = x.shape
    if lateral.shape != (n, c, h * f, w * f):
        raise ShapeMismatchError(f"upsample_add: lateral shape {lateral.shape} is not "
                                 f"{(n, c, h * f, w * f)}, input {x.shape} upsampled by {f}")
    y = np.empty(lateral.shape, dtype=np.result_type(x.data, lateral.data))
    np.add(lateral.data.reshape(n, c, h, f, w, f), x.data[:, :, :, None, :, None],
           out=y.reshape(n, c, h, f, w, f))

    def fn(g):
        _accum(x, _block_sum(g, f))
        _accum(lateral, g)

    return _op(y, fn, x, lateral)


def avg_pool2d(x: Tensor, factor: int) -> Tensor:
    """Non-overlapping average pooling by an integer factor."""
    n, c, h, w = x.shape
    f = int(factor)
    if h % f or w % f:
        raise ShapeMismatchError(f"avg_pool2d: spatial dims ({h},{w}) not divisible by {f}")
    y = _block_sum(x.data, f)
    y /= f * f

    def fn(g):
        _accum(x, resize_nearest(g / (f * f), h, w))

    return _op(y, fn, x)


def global_max_pool(x: Tensor) -> Tensor:
    """Spatial max per channel; gradient routes to the first maximal
    location in row-major order (deterministic tie-break)."""
    n, c, h, w = x.shape
    flat = x.data.reshape(n, c, h * w)
    idx = flat.argmax(axis=2)
    y = np.take_along_axis(flat, idx[:, :, None], axis=2)[:, :, 0]

    def fn(g):
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, idx[:, :, None], g[:, :, None], axis=2)
        _accum(x, dflat.reshape(n, c, h, w))

    return _op(np.ascontiguousarray(y), fn, x)


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
    head = _MAGIC + bytes([_CODE_FOR[arr.dtype], arr.ndim])
    dims = np.asarray(arr.shape, dtype="<u4").tobytes()
    body = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    return head + dims + body


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one record starting at ``offset``; returns (array, next_offset).

    Raises DatasetError on corrupt or truncated input.
    """
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
    try:
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos).reshape(tuple(dims.tolist()))
    except ValueError as exc:  # a product of dims that wrapped, or rank above 64
        raise DatasetError(f"bad tensor shape of rank {rank} ({exc})") from exc
    return arr.astype(dtype.newbyteorder("=")), pos + nbytes


def write_tensor(path, arr: np.ndarray) -> None:
    """Write one record to ``path``, never through a symlink there."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW, 0o666)
    with open(fd, "wb") as f:
        f.write(tensor_to_bytes(arr))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        buf = f.read()
    arr, end = tensor_from_bytes(buf)
    if end != len(buf):
        raise DatasetError(f"trailing bytes after tensor record in {path}")
    return arr
