"""Forward-value contracts of the tensor core ops."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast import tensor as T
from gazecast.checks import GRAD_CASES, GradCase
from gazecast.errors import DomainError, ShapeMismatchError, TapeError
from gazecast.tensor import Tensor


def test_tensor_keeps_float_dtype_and_widens_the_rest():
    assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float32
    assert Tensor(np.ones(3, dtype=np.float64)).dtype == np.float64
    assert Tensor(np.arange(3)).dtype == np.float64


def test_conv2d_all_ones_sums_kernel():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, w, b)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == pytest.approx(9.0)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 1, 5, 5)))
    w = Tensor(np.ones((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    out = T.conv2d(x, w, b)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_output_shape_formula():
    x = Tensor(np.zeros((1, 3, 11, 9)))
    w = Tensor(np.zeros((4, 3, 3, 3)))
    out = T.conv2d(x, w, stride=2, padding=1)
    assert out.shape == (1, 4, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)


def _conv_reference(x, w, b, stride, padding, r):
    """Direct loops over output pixels in float64: the output and the
    gradients of ``sum(output * r)`` with respect to x, w and b."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    k, _, kh, kw = w.shape
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    y = np.zeros((x.shape[0], k, ho, wo))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for oy in range(ho):
        for ox in range(wo):
            rows = slice(oy * stride, oy * stride + kh)
            cols = slice(ox * stride, ox * stride + kw)
            y[:, :, oy, ox] = np.einsum("nchw,kchw->nk", xp[:, :, rows, cols], w) + b
            dw += np.einsum("nk,nchw->kchw", r[:, :, oy, ox], xp[:, :, rows, cols])
            dxp[:, :, rows, cols] += np.einsum("nk,kchw->nchw", r[:, :, oy, ox], w)
    h, wd = x.shape[2:]
    return y, dxp[:, :, padding : padding + h, padding : padding + wd], dw, r.sum(axis=(0, 2, 3))


def _two_images_per_block(monkeypatch) -> list[int]:
    """Size every conv block to two images, so that batch 3 ends in a
    partial block; returns the batch sizes blocked so far."""
    blocks, seen = T._image_blocks, []

    def two_per_block(n, image_bytes):
        monkeypatch.setattr(T, "_CONV_BLOCK_BYTES", 2 * image_bytes)
        seen.append(n)
        return blocks(n, image_bytes)

    monkeypatch.setattr(T, "_image_blocks", two_per_block)
    return seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
# (C, K) = (1, K) and (C, 1) make contractions of length 1: the forward
# tap products with C = 1, the input-gradient ones with K = 1. At strides 2
# and 3 the kernels put 1 to 4 taps on a phase image (2x2, 3x1 and 5x5 too),
# and some leave input rows or columns that no output reads
@pytest.mark.parametrize(
    "kernel,channels",
    [((1, 1), (2, 3)), ((1, 3), (2, 3)), ((3, 3), (2, 3)),
     ((1, 1), (1, 3)), ((3, 3), (1, 3)), ((3, 3), (2, 1)),
     ((2, 2), (2, 3)), ((5, 5), (2, 3)), ((3, 1), (2, 3))],
    ids=["1x1", "1x3", "3x3", "1x1-C1", "3x3-C1", "3x3-K1", "2x2", "5x5", "3x1"],
)
def test_conv2d_matches_direct_loops(kernel, channels, stride, padding, batch, dtype,
                                     monkeypatch):
    c, k = channels
    seen = _two_images_per_block(monkeypatch)
    rng = np.random.default_rng(stride * 100 + padding * 10 + batch)
    x = rng.normal(size=(batch, c, 7, 10)).astype(dtype)
    w = rng.normal(size=(k, c) + kernel).astype(dtype)
    b = rng.normal(size=k).astype(dtype)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.conv2d(xt, wt, bt, stride=stride, padding=padding)
    # only the stride-1 kernel runs over blocks of images
    assert seen == ([batch] if stride == 1 else [])
    r = rng.normal(size=out.shape)
    T.backward(T.tsum(T.mul(out, Tensor(r.astype(dtype)))))

    expected = _conv_reference(x.astype(np.float64), w.astype(np.float64),
                               b.astype(np.float64), stride, padding, r)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, want in zip((out.data, xt.grad, wt.grad, bt.grad), expected):
        assert got.dtype == dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def _no_grad_peak(op):
    """The output of ``op()`` under no_grad and the bytes allocated at its
    peak, beyond those already held when it started."""
    tracemalloc.start()
    try:
        with T.no_grad():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = op()
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_conv2d_forward_peak_memory_stays_near_its_arrays():
    """No_grad 3x3 forwards at b16, 64x64, f32 allocate less than twice their
    input plus output bytes: 32->16, HeatmapHead.conv1 applied to an
    upsampled map (the model folds that upsample into conv1 instead), and
    16->8, HeatmapHead.conv2's shape."""
    rng = np.random.default_rng(5)
    for c, k in ((32, 16), (16, 8)):
        x = Tensor(rng.normal(size=(16, c, 64, 64)).astype(np.float32))
        w = Tensor(rng.normal(size=(k, c, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(k, dtype=np.float32))
        out, peak = _no_grad_peak(lambda: T.conv2d(x, w, b, padding=1))
        assert peak < 2 * (x.data.nbytes + out.data.nbytes), (c, k)


def test_strided_conv2d_forward_peak_memory_stays_near_its_arrays():
    """A no_grad stride-2 3x3 forward of the scene extractors' first shape
    (b16, 5->16, 64x64, f32) allocates less than 2.5 times its input plus
    output bytes: the phase images, their columns and the GEMM result are
    never all alive at once."""
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(16, 5, 64, 64)).astype(np.float32))
    w = Tensor(rng.normal(size=(16, 5, 3, 3)).astype(np.float32))
    b = Tensor(np.zeros(16, dtype=np.float32))
    out, peak = _no_grad_peak(lambda: T.conv2d(x, w, b, stride=2, padding=1))
    assert out.shape == (16, 16, 32, 32)
    assert peak < 2.5 * (x.data.nbytes + out.data.nbytes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("kernel,padding", [(1, 0), (1, 1), (3, 0), (3, 1)],
                         ids=["1x1-p0", "1x1-p1", "3x3-p0", "3x3-p1"])
@pytest.mark.parametrize("factor", [1, 2, 3, 4])
def test_upsample_conv2d_matches_upsample_then_conv(factor, kernel, padding, batch, dtype,
                                                    monkeypatch):
    seen = _two_images_per_block(monkeypatch)
    rng = np.random.default_rng(factor * 100 + kernel * 10 + padding * 2 + batch)
    x = rng.normal(size=(batch, 3, 3, 5)).astype(dtype)
    w = rng.normal(size=(2, 3, kernel, kernel)).astype(dtype)
    b = rng.normal(size=2).astype(dtype)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.upsample_conv2d(xt, wt, bt, factor, padding)
    assert seen == [batch]
    r = rng.normal(size=out.shape)
    T.backward(T.tsum(T.mul(out, Tensor(r.astype(dtype)))))

    up = np.repeat(np.repeat(x.astype(np.float64), factor, axis=2), factor, axis=3)
    y, dup, dw, db = _conv_reference(up, w.astype(np.float64), b.astype(np.float64), 1,
                                     padding, r)
    dx = dup.reshape(batch, 3, 3, factor, 5, factor).sum(axis=(3, 5))
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, want in zip((out.data, xt.grad, wt.grad, bt.grad), (y, dx, dw, db)):
        assert got.dtype == dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=0, atol=tol * np.abs(want).max())


def test_upsample_conv2d_forward_peak_memory_stays_near_its_arrays():
    """A no_grad fold of HeatmapHead.conv1's shape (b16, 32->16, 16x16 to
    64x64, f32) allocates less than twice its input plus output bytes."""
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(16, 32, 16, 16)).astype(np.float32))
    w = Tensor(rng.normal(size=(16, 32, 3, 3)).astype(np.float32))
    b = Tensor(np.zeros(16, dtype=np.float32))
    out, peak = _no_grad_peak(lambda: T.upsample_conv2d(x, w, b, factor=4, padding=1))
    assert out.shape == (16, 16, 64, 64)
    assert peak < 2 * (x.data.nbytes + out.data.nbytes)


def test_upsample_conv2d_rejects_bad_shapes():
    x = Tensor(np.zeros((1, 3, 2, 2)))
    with pytest.raises(ShapeMismatchError, match="3.*2"):
        T.upsample_conv2d(x, Tensor(np.zeros((4, 2, 3, 3))), factor=2)
    with pytest.raises(ShapeMismatchError):
        T.upsample_conv2d(x, Tensor(np.zeros((4, 3, 5, 5))), factor=2)


def test_conv2d_channel_mismatch_names_dims():
    x = Tensor(np.zeros((1, 3, 8, 8)))
    w = Tensor(np.zeros((4, 2, 3, 3)))
    with pytest.raises(ShapeMismatchError, match="3.*2"):
        T.conv2d(x, w)


def test_conv2d_kernel_too_large():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    w = Tensor(np.zeros((1, 1, 5, 5)))
    with pytest.raises(ShapeMismatchError):
        T.conv2d(x, w)


def test_upsample_nearest_values():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    out = T.upsample_nearest(x, 2)
    expected = np.array(
        [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float64
    )
    np.testing.assert_array_equal(out.data[0, 0], expected)


def test_upsample_factor_one_is_identity():
    x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
    np.testing.assert_array_equal(T.upsample_nearest(x, 1).data, x.data)


def test_upsample_gradient_counts_copies():
    x = Tensor(np.zeros((1, 1, 3, 3)), requires_grad=True)
    out = T.upsample_nearest(x, 3)
    T.backward(T.tsum(out))
    np.testing.assert_array_equal(x.grad, np.full((1, 1, 3, 3), 9.0))


def test_global_max_pool_picks_max():
    x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0]]).reshape(1, 1, 2, 2))
    assert T.global_max_pool(x).data[0, 0] == 5.0


def test_global_max_pool_tie_breaks_row_major():
    x = Tensor(np.full((1, 1, 3, 3), 7.0), requires_grad=True)
    out = T.global_max_pool(x)
    assert out.data[0, 0] == 7.0
    T.backward(T.tsum(out))
    expected = np.zeros((1, 1, 3, 3))
    expected[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_softmax_uniform_on_zeros():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_sums_to_one():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(scale=10, size=(5, 7)))
    out = T.softmax(x, axis=1)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_sigmoid_midpoint_and_range():
    assert T.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)
    big = T.sigmoid(Tensor([1e9, -1e9])).data
    assert 0.0 < big[1] < big[0] < 1.0


def test_cosine_similarity_orthogonal():
    c = T.cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0]))
    assert c.data == pytest.approx(0.0, abs=1e-15)


def test_cosine_similarity_zero_vector_rejected():
    with pytest.raises(DomainError):
        T.cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.tsum(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, x)
    with pytest.raises(TapeError):
        T.backward(y)


def test_double_backward_needs_reset():
    x = Tensor([1.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    T.backward(loss)
    with pytest.raises(TapeError):
        T.backward(loss)
    T.fresh_tape()
    loss2 = T.tsum(T.mul(x, x))
    T.backward(loss2)  # fine after reset


def test_backward_rejects_loss_built_under_no_grad():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        loss = T.tsum(T.mul(x, x))
    with pytest.raises(TapeError):
        T.backward(loss)


def test_threads_keep_their_own_tape():
    """More threads than cores interleave forward, no_grad and backward at a
    tiny switch interval; every gradient equals the single-thread one."""
    rng = np.random.default_rng(23)
    x0 = rng.normal(size=(2, 3, 8, 8))
    w0 = rng.normal(size=(4, 3, 3, 3))

    def step(with_no_grad_forward):
        x = Tensor(x0.copy(), requires_grad=True)
        w = Tensor(w0.copy(), requires_grad=True)
        y = T.conv2d(x, w, padding=1)
        if with_no_grad_forward:
            with T.no_grad():
                T.conv2d(x, w, padding=1)
        T.backward(T.tsum(T.mul(y, y)))
        return x.grad, w.grad, len(T.tape())

    ref = step(False)
    results = [[] for _ in range(8)]
    errors = []

    def worker(k):
        try:
            for _ in range(20):
                results[k].append(step(k % 2 == 1))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    for per_thread in results:
        assert len(per_thread) == 20
        for x_grad, w_grad, left in per_thread:
            np.testing.assert_array_equal(x_grad, ref[0])
            np.testing.assert_array_equal(w_grad, ref[1])
            assert left == 0


def test_grad_accumulates_across_uses():
    x = Tensor([2.0], requires_grad=True)
    y = T.add(T.mul(x, x), x)  # x^2 + x -> grad 2x + 1 = 5
    T.backward(T.tsum(y))
    assert x.grad[0] == pytest.approx(5.0)


@pytest.mark.parametrize("upstream", [np.float32, np.float64])
def test_leaves_given_one_upstream_array_keep_their_own_gradients(upstream):
    """``add`` hands one upstream array to both leaves; ``a`` is then
    accumulated into again by the earlier ``scale`` node, which must leave
    ``b``'s gradient alone. An f32 leaf keeps an f32 gradient."""
    a = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
    b = Tensor(np.array([4.0, 5.0, 6.0], dtype=np.float32), requires_grad=True)
    r = Tensor(np.array([0.5, -1.0, 2.0], dtype=upstream))
    tripled = T.scale(a, 3.0)
    T.backward(T.tsum(T.add(tripled, T.mul(T.add(a, b), r))))
    np.testing.assert_array_equal(a.grad, [3.5, 2.0, 5.0])
    np.testing.assert_array_equal(b.grad, [0.5, -1.0, 2.0])
    assert a.grad.dtype == b.grad.dtype == np.float32


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert len(T.tape()) == 0
    assert not np.isnan(y.data).any()


# every finite-difference row, plus both convs without a bias: a None input
_OP_ROWS = [(case, False) for case in GRAD_CASES if isinstance(case, GradCase)]
_OP_ROWS += [(case, True) for case, _ in _OP_ROWS if case.name in ("conv2d", "upsample_conv2d")]


@pytest.mark.parametrize("case,no_bias", _OP_ROWS,
                         ids=[case.name + ("_no_bias" if no_bias else "") for case, no_bias in _OP_ROWS])
def test_op_records_only_when_an_input_needs_a_gradient(case, no_bias):
    rng = np.random.default_rng(0)
    arrays = [draw(rng) for draw in case.draws]

    def run(needs_grad):
        inputs = [Tensor(a, requires_grad=need) for a, need in zip(arrays, needs_grad)]
        return case.op(*inputs[:-1], None) if no_bias else case.op(*inputs)

    n = len(arrays)
    out = run([False] * n)
    assert not out.requires_grad and len(T.tape()) == 0
    for i in range(n - no_bias):  # any single input is enough
        out = run([j == i for j in range(n)])
        assert out.requires_grad and len(T.tape()) > 0
        T.fresh_tape()
    with T.no_grad():
        assert run([True] * n).requires_grad
    assert len(T.tape()) == 0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=3),
    st.integers(min_value=0, max_value=1),
)
def test_concat_then_slice_roundtrip(sizes, axis):
    rng = np.random.default_rng(sum(sizes))
    parts = [Tensor(rng.normal(size=(3, s) if axis == 1 else (s, 3))) for s in sizes]
    joined = T.concat(parts, axis=axis)
    off = 0
    for p, s in zip(parts, sizes):
        key = (slice(None), slice(off, off + s)) if axis == 1 else slice(off, off + s)
        np.testing.assert_array_equal(joined[key].data, p.data)
        off += s


def test_avg_pool_constant():
    x = Tensor(np.full((1, 2, 8, 8), 0.37))
    out = T.avg_pool2d(x, 4)
    assert out.shape == (1, 2, 2, 2)
    np.testing.assert_allclose(out.data, 0.37)


def test_mean_matches_numpy():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4, 5)))
    np.testing.assert_allclose(T.tmean(x).item(), x.data.mean())


def test_linear_shapes_and_values():
    x = Tensor([[1.0, 2.0]])
    w = Tensor([[3.0, 4.0], [5.0, 6.0], [0.0, 1.0]])
    b = Tensor([1.0, 0.0, 0.0])
    out = T.linear(x, w, b)
    np.testing.assert_allclose(out.data, [[12.0, 17.0, 2.0]])


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(scale=50, size=(2, 3, 8, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    y = T.sigmoid(T.conv2d(x, w, stride=2, padding=1))
    z = T.softmax(T.global_max_pool(y), axis=1)
    assert np.isfinite(z.data).all()


def test_determinism_bit_identical():
    def run():
        T.fresh_tape()
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = T.conv2d(x, w, stride=1, padding=1)
        loss = T.tsum(T.mul(out, out))
        T.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    a = run()
    b = run()
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)
