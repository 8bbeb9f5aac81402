"""Small layer library on top of the autodiff engine.

Parameters are float32 Tensors with requires_grad=True, initialized uniformly
at scale 1/sqrt(fan_in) from a caller-supplied Generator so builds are
deterministic per seed.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    scale = 1.0 / np.sqrt(max(1, fan_in))
    return Tensor(rng.uniform(-scale, scale, size=shape).astype(np.float32), requires_grad=True)


class Module:
    """Base with recursive, insertion-ordered parameter discovery."""

    def named_parameters(self):
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                for sub, p in value.named_parameters():
                    yield f"{name}.{sub}", p
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        for sub, p in item.named_parameters():
                            yield f"{name}.{i}.{sub}", p
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{name}.{i}", item

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def copy(self) -> "Module":
        return copy.deepcopy(self)

    def to_dtype(self, dtype) -> "Module":
        """Cast all parameters in place; used by float64 gradient checks."""
        for p in self.parameters():
            p.data = p.data.astype(dtype)
        return self

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self.named_parameters():
            src = state[name]
            if src.shape != p.data.shape:
                raise ValueError(f"param {name}: shape {src.shape} != {p.data.shape}")
            p.data = src.astype(p.data.dtype, copy=True)


class Linear(Module):
    """Affine map x @ weight + bias, one autodiff.linear tape entry."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = uniform_init(rng, (d_in, d_out), d_in)
        self.bias = uniform_init(rng, (d_out,), d_in)

    def __call__(self, x) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        self.eps = eps

    def __call__(self, x) -> Tensor:
        return ad.layer_norm(x, self.gain, self.bias, eps=self.eps)


class Conv(Module):
    """2-D or 3-D convolution plus bias, optionally followed by a ReLU, as one fused autodiff op.

    The rank of the `kernel` tuple picks autodiff.conv2d or conv3d. `relu` is
    part of the architecture, fixed at construction: the op adds the bias and
    clamps at zero in its own chunk loop (see autodiff._conv_nd), so a conv
    layer is one tape entry and one output array.
    """

    def __init__(
        self, c_in: int, c_out: int, kernel: tuple[int, ...], stride, padding, rng: np.random.Generator, *, relu: bool
    ):
        fan_in = c_in * math.prod(kernel)
        self.kernels = uniform_init(rng, (c_out, c_in, *kernel), fan_in)
        self.bias = uniform_init(rng, (c_out,), fan_in)
        self.stride = stride
        self.padding = padding
        self.relu = relu

    def __call__(self, x) -> Tensor:
        conv = ad.conv3d if self.kernels.ndim == 5 else ad.conv2d
        return conv(x, self.kernels, stride=self.stride, padding=self.padding, bias=self.bias, relu=self.relu)


class LstmCell(Module):
    """4-gate recurrent cell; weights laid out for autodiff.lstm_sequence (gate order i, f, g, o)."""

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator):
        self.w_x = uniform_init(rng, (d_in, 4 * d_hidden), d_in)
        self.w_h = uniform_init(rng, (d_hidden, 4 * d_hidden), d_hidden)
        self.bias = Tensor(np.zeros(4 * d_hidden, dtype=np.float32), requires_grad=True)

    def run(self, xs: Tensor) -> Tensor:
        """Consume xs [B, T, d_in] from a zero state; return the final hidden state [B, d_hidden]."""
        return ad.lstm_sequence(xs, self.w_x, self.w_h, self.bias)


class SelfAttention(Module):
    """Multi-head scaled dot-product attention over [B, T, d].

    The packed q/k/v projection, the attention core (autodiff.attention) and
    the output projection are one tape entry each.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.qkv = Linear(dim, 3 * dim, rng)
        self.out = Linear(dim, dim, rng)
        self.heads = heads

    def __call__(self, x) -> Tensor:
        return self.out(ad.attention(self.qkv(x), self.heads))


class TransformerBlock(Module):
    """Pre-norm block: LN -> attention -> residual, LN -> MLP(GELU) -> residual."""

    def __init__(self, dim: int, heads: int, mlp_ratio: int, rng: np.random.Generator):
        self.norm1 = LayerNorm(dim)
        self.attn = SelfAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.fc1 = Linear(dim, mlp_ratio * dim, rng)
        self.fc2 = Linear(mlp_ratio * dim, dim, rng)

    def __call__(self, x) -> Tensor:
        x = ad.add(x, self.attn(self.norm1(x)))
        return ad.add(x, self.fc2(ad.gelu(self.fc1(self.norm2(x)))))


class Mlp(Module):
    """Two-layer GELU MLP, used as the optional distillation projection head."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, rng: np.random.Generator):
        self.fc1 = Linear(d_in, d_hidden, rng)
        self.fc2 = Linear(d_hidden, d_out, rng)

    def __call__(self, x) -> Tensor:
        return self.fc2(ad.gelu(self.fc1(x)))
