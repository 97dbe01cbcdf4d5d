"""Layer containers, parameter initialization, and the AdamW optimizer.

Layers initialize their parameters in float64; the model that owns them
casts them to its configured precision.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import tensor as T
from .errors import CheckpointError, GradError
from .tensor import Tensor


class Module:
    """Minimal parameter container with dotted-path naming.

    Attributes that are requires_grad tensors count as parameters;
    Module / dict-of-Module / list-of-Module attributes are recursed into,
    producing names like ``extractors.raw.enc1.weight``.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for key, val in self.__dict__.items():
            name = f"{prefix}{key}"
            if isinstance(val, Tensor) and val.requires_grad:
                yield name, val
            elif isinstance(val, Module):
                yield from val.named_parameters(f"{name}.")
            elif isinstance(val, dict):
                for sub, item in val.items():
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{sub}.")
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True,
                        dtype=None) -> list[str]:
        """Set same-named parameters to the arrays, cast to ``dtype`` (by
        default each parameter's own); returns loaded names. An array of that
        dtype is taken, not copied: the model owns it."""
        own = dict(self.named_parameters())
        if strict:
            missing = sorted(set(own) - set(state))
            extra = sorted(set(state) - set(own))
            if missing or extra:
                raise CheckpointError(f"parameter name mismatch: missing={missing} extra={extra}")
        loaded = []
        for name, arr in state.items():
            if name not in own:
                continue
            p = own[name]
            if tuple(arr.shape) != p.shape:
                raise CheckpointError(
                    f"shape mismatch for {name}: checkpoint {tuple(arr.shape)} vs model {p.shape}"
                )
            p.data = arr.astype(p.data.dtype if dtype is None else dtype, copy=False)
            loaded.append(name)
        return loaded

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def kaiming_uniform(rng: np.random.Generator | None, shape: tuple[int, ...],
                    fan_in: int) -> np.ndarray:
    """Uniform draws in +-sqrt(6 / fan_in); without ``rng``, a read-only zero
    view of that shape that allocates nothing, for a checkpoint's state to
    replace, so no random number is drawn."""
    if rng is None:
        return np.broadcast_to(0.0, shape)
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv2d(Module):
    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator | None,
        stride: int = 1,
        padding: int = 0,
    ):
        k = kernel_size
        fan_in = in_channels * k * k
        self.weight = Tensor(
            kaiming_uniform(rng, (out_channels, in_channels, k, k), fan_in), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding,
                        relu=relu)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None):
        self.weight = Tensor(
            kaiming_uniform(rng, (out_features, in_features), in_features), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class AdamW:
    """Adam with decoupled weight decay.

    Holds the optimizer state: first/second moment buffers per parameter,
    the step counter, and the hyperparameters. Updates are deterministic
    given identical inputs, and are made in place: a parameter keeps its
    array, so models that share it see every step.
    """

    def __init__(
        self,
        params: list[Tensor],
        lr: float,
        betas: tuple[float, float],
        epsilon: float,
        weight_decay: float,
    ):
        self.params = list(params)
        self.lr = float(lr)
        self.betas = (float(betas[0]), float(betas[1]))
        self.epsilon = float(epsilon)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        b1, b2 = self.betas
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - b1**t
        bias2 = 1.0 - b2**t
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise GradError(f"parameter {i} has no gradient; run backward first")
            g, m, v = p.grad, self.m[i], self.v[i]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = m / bias1
            update /= np.sqrt(v / bias2) + self.epsilon
            if self.weight_decay:
                update += self.weight_decay * p.data
            p.data -= self.lr * update
