"""Finite-difference oracle for every differentiable op.

Inputs are drawn away from non-smooth points: ReLU kinks and max-pool ties
are excluded by construction (offsets keep values off 0 / apart from ties).
"""

import numpy as np
import pytest

from conftest import gradcheck
from gazecast import tensor as T
from gazecast.tensor import Tensor

RNG = np.random.default_rng(1234)


def _t(shape, scale=1.0, shift=0.0):
    return Tensor(RNG.normal(size=shape) * scale + shift, requires_grad=True)


def test_grad_conv2d_weight_and_input():
    x = _t((2, 3, 8, 8))
    w = _t((4, 3, 3, 3), scale=0.5)
    b = _t((4,))
    r = Tensor(RNG.normal(size=(2, 4, 8, 8)))

    def forward():
        return T.tsum(T.mul(T.conv2d(x, w, b, stride=1, padding=1), r))

    gradcheck(forward, [x, w, b])


def test_grad_conv2d_strided():
    x = _t((1, 2, 9, 7))
    w = _t((3, 2, 3, 3), scale=0.5)
    r = Tensor(RNG.normal(size=(1, 3, 4, 3)))

    def forward():
        return T.tsum(T.mul(T.conv2d(x, w, stride=2, padding=0), r))

    gradcheck(forward, [x, w])


def test_grad_upsample_nearest():
    x = _t((1, 2, 3, 3))
    r = Tensor(RNG.normal(size=(1, 2, 6, 6)))

    def forward():
        return T.tsum(T.mul(T.upsample_nearest(x, 2), r))

    gradcheck(forward, [x])


def test_grad_avg_pool():
    x = _t((2, 2, 8, 8))
    r = Tensor(RNG.normal(size=(2, 2, 2, 2)))

    def forward():
        return T.tsum(T.mul(T.avg_pool2d(x, 4), r))

    gradcheck(forward, [x])


def test_grad_global_max_pool_away_from_ties():
    # distinct values guarantee a unique max per channel
    base = np.arange(2 * 3 * 7 * 7, dtype=np.float64).reshape(2, 3, 7, 7)
    x = Tensor(base + RNG.uniform(0.1, 0.4, size=base.shape), requires_grad=True)
    r = Tensor(RNG.normal(size=(2, 3)))

    def forward():
        return T.tsum(T.mul(T.global_max_pool(x), r))

    gradcheck(forward, [x])


def test_grad_relu_away_from_kink():
    x = Tensor(RNG.choice([-1.0, 1.0], size=(4, 5)) * RNG.uniform(0.5, 2.0, size=(4, 5)),
               requires_grad=True)
    r = Tensor(RNG.normal(size=(4, 5)))

    def forward():
        return T.tsum(T.mul(T.relu(x), r))

    gradcheck(forward, [x])


def test_grad_sigmoid():
    x = _t((3, 4), scale=2.0)
    r = Tensor(RNG.normal(size=(3, 4)))

    def forward():
        return T.tsum(T.mul(T.sigmoid(x), r))

    gradcheck(forward, [x])


def test_grad_softmax():
    x = _t((3, 5), scale=1.5)
    r = Tensor(RNG.normal(size=(3, 5)))

    def forward():
        return T.tsum(T.mul(T.softmax(x, axis=1), r))

    gradcheck(forward, [x])


def test_grad_linear():
    x = _t((4, 6))
    w = _t((3, 6), scale=0.5)
    b = _t((3,))
    r = Tensor(RNG.normal(size=(4, 3)))

    def forward():
        return T.tsum(T.mul(T.linear(x, w, b), r))

    gradcheck(forward, [x, w, b])


def test_grad_elementwise_chain():
    a = _t((3, 4), shift=3.0)  # keep positive for log/sqrt
    b = _t((3, 4), shift=3.0)

    def forward():
        y = T.div(T.mul(a, b), T.add(a, b))
        return T.tsum(T.tlog(T.add(T.tsqrt(y), Tensor(np.ones((3, 4))))))

    gradcheck(forward, [a, b])


def test_grad_cosine_similarity():
    a = _t((2,), shift=1.0)
    b = _t((2,), shift=-1.5)

    def forward():
        return T.cosine_similarity(a, b)

    gradcheck(forward, [a, b])


def test_grad_broadcast_mul():
    a = _t((4, 1))
    b = _t((1, 5))
    r = Tensor(RNG.normal(size=(4, 5)))

    def forward():
        return T.tsum(T.mul(T.mul(a, b), r))

    gradcheck(forward, [a, b])


def test_grad_concat_slice():
    a = _t((2, 3))
    b = _t((2, 2))
    r = Tensor(RNG.normal(size=(2, 4)))

    def forward():
        joined = T.concat([a, b], axis=1)
        return T.tsum(T.mul(joined[:, 1:], r))

    gradcheck(forward, [a, b])


def test_grad_clamp_interior():
    x = Tensor(RNG.uniform(0.2, 0.8, size=(3, 3)), requires_grad=True)
    r = Tensor(RNG.normal(size=(3, 3)))

    def forward():
        return T.tsum(T.mul(T.clamp(x, 0.0, 1.0), r))

    gradcheck(forward, [x])
