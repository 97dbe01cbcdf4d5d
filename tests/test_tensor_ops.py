"""Forward-value contracts of the tensor core ops."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast import tensor as T
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


def test_no_grad_suppresses_recording():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert len(T.tape()) == 0
    assert not np.isnan(y.data).any()


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
    np.testing.assert_allclose(T.tmean(x, axis=0).data, x.data.mean(axis=0))


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
