"""Reverse-mode automatic differentiation on numpy arrays.

A define-by-run tape: while a Tape is active, every primitive op appends an
entry holding its inputs, output and a backward rule. backward() replays the
tape in reverse, a valid topological order by construction, and returns the
gradients it was asked for; tensors hold none. Training math runs in float32;
the test suite's finite-difference oracles run in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    UsageError,
)

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "no_grad",
    "matmul",
    "linear",
    "conv3d",
    "conv2d",
    "recurrent_step",
    "lstm_sequence",
    "softmax",
    "layer_norm",
    "attention",
    "cross_entropy",
    "relu",
    "gelu",
    "tanh",
    "sigmoid",
    "cosine_similarity",
    "SgdState",
    "sgd_step",
]


class Tensor:
    """N-dimensional float array; requires_grad marks it for recording on a tape."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is None:
            if isinstance(data, (np.ndarray, np.generic)) and data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = np.float32
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad

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
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def __getitem__(self, idx):
        return getitem(self, idx)


@dataclass
class TapeEntry:
    """One recorded op: inputs, output and the rule mapping d(output) to d(inputs)."""

    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_rule: Callable[[np.ndarray], tuple]


@dataclass(eq=False)
class Tape:
    """Ordered record of ops; reverse order is a topological sweep. Tapes compare by identity."""

    entries: list[TapeEntry] = field(default_factory=list)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.remove(self)

    def __len__(self) -> int:
        return len(self.entries)


_TAPE_STACK: list[Tape] = []
_GRAD_ENABLED: list[bool] = [True]


class no_grad:
    """Context manager that suppresses tape recording (e.g. teacher forward)."""

    def __enter__(self):
        _GRAD_ENABLED.append(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.pop()


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on `inputs` records a tape entry now."""
    return bool(_TAPE_STACK) and _GRAD_ENABLED[-1] and any(t.requires_grad for t in inputs)


def _record(out: Tensor, inputs: tuple[Tensor, ...], rule) -> None:
    if _recording(inputs):
        out.requires_grad = True
        _TAPE_STACK[-1].entries.append(TapeEntry(inputs, out, rule))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over dims that were broadcast so it matches `shape`.

    The leading and the size-1 axes are reduced in one einsum, which reads grad
    in its own memory layout: an axis-by-axis sum strides across the
    batch-innermost conv outputs, and a multi-axis `sum` is slow when the kept
    axis is innermost, as for a [B, T, d] bias gradient.
    """
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    kept = [lead + ax for ax, n in enumerate(shape) if n != 1 or grad.shape[lead + ax] == 1]
    return np.einsum(grad, range(grad.ndim), kept).reshape(shape)


def backward(loss: Tensor, tape: Tape, wrt: Sequence[Tensor]) -> list[np.ndarray | None]:
    """The gradient of the scalar `loss` with respect to each tensor of `wrt`, replaying `tape`.

    Each gradient is a fresh array in its tensor's dtype; a tensor that `loss`
    does not depend on through the ops on `tape` gets None. Calls share no
    state, so replaying the same tape again returns equal, distinct arrays.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if tape.entries and not any(e.output is loss for e in reversed(tape.entries)):
        raise UsageError("loss tensor was not produced on the given tape")
    wanted = set(wrt)  # a Tensor hashes by identity
    # transient per-sweep accumulators; an output's entry is dropped once its rule ran unless it is wanted
    sweep: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for entry in reversed(tape.entries):
        g_out = sweep.get(entry.output)
        if g_out is None:
            continue
        grads = entry.backward_rule(g_out)
        for inp, g in zip(entry.inputs, grads):
            if g is not None and inp.requires_grad:
                sweep[inp] = sweep[inp] + g if inp in sweep else g
        if entry.output not in wanted:
            del sweep[entry.output]
    return [None if (g := sweep.get(t)) is None else g.astype(t.dtype, copy=True) for t in wrt]


# ---------------------------------------------------------------------------
# elementwise / structural primitives


def add(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data + b.data)

    def rule(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    _record(out, (a, b), rule)
    return out


def mul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    out = Tensor(a.data * b.data)

    def rule(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    _record(out, (a, b), rule)
    return out


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.tanh(a.data))

    def rule(g):
        return (g * (1.0 - out.data * out.data),)

    _record(out, (a,), rule)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function: 1 / (1 + e) for x >= 0 and e / (1 + e) below, e = exp(-|x|), so no exp overflows."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(_sigmoid(a.data))

    def rule(g):
        return (g * out.data * (1.0 - out.data),)

    _record(out, (a,), rule)
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0))

    def rule(g):
        return (g * (a.data > 0),)

    _record(out, (a,), rule)
    return out


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
LAYER_NORM_EPS = 1e-5  # added to each row's variance


def gelu(a) -> Tensor:
    """tanh-approximation GELU, 0.5 x (1 + tanh(x (c + 0.044715 c x^2))), c = sqrt(2/pi).

    One tape entry. The tanh is evaluated in place in the one array the rule
    keeps; the rule builds the closed-form derivative
    0.5 (1 + t + x (1 - t^2) (c + 3 * 0.044715 c x^2)) in place in two buffers.
    """
    a = _as_tensor(a)
    x = a.data
    dt = x.dtype.type
    t = x * x
    t *= dt(0.044715 * _GELU_C)
    t += dt(_GELU_C)
    t *= x
    np.tanh(t, out=t)
    y = t + dt(1.0)
    y *= x
    y *= dt(0.5)
    out = Tensor(y)

    def rule(g):
        d = x * x
        d *= dt(3 * 0.044715 * _GELU_C)
        d += dt(_GELU_C)
        d *= x
        one_minus_t2 = t * t
        np.subtract(dt(1.0), one_minus_t2, out=one_minus_t2)
        d *= one_minus_t2
        d += t
        d += dt(1.0)
        d *= dt(0.5)
        d *= g
        return (d,)

    _record(out, (a,), rule)
    return out


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def rule(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).astype(a.dtype, copy=False),)

    _record(out, (a,), rule)
    return out


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def reshape(a, shape) -> Tensor:
    """a viewed (or copied) as `shape`.

    Backward keeps the gradient in a's memory layout: when a is not
    C-contiguous and an array laid out like a can be viewed as g's shape, g
    is written through that view, so a batch-innermost activation gets a
    batch-innermost gradient. Otherwise g.reshape returns it in C order.
    """
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))

    def rule(g):
        if not a.data.flags.c_contiguous:
            full = np.empty_like(a.data, dtype=g.dtype)
            view = full.view()
            try:
                view.shape = g.shape  # raises instead of copying when no view exists
            except AttributeError:
                pass
            else:
                view[...] = g
                return (full,)
        return (g.reshape(a.data.shape),)

    _record(out, (a,), rule)
    return out


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.transpose(a.data, axes))

    def rule(g):
        return (np.transpose(g, np.argsort(axes)),)

    _record(out, (a,), rule)
    return out


def getitem(a, idx) -> Tensor:
    """a[idx] for any numpy index.

    Backward adds g into a zero buffer with np.add.at, so positions an
    advanced index repeats accumulate.
    """
    a = _as_tensor(a)
    out = Tensor(a.data[idx])

    def rule(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    _record(out, (a,), rule)
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product with numpy stacking semantics (1-D operands promoted)."""
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    a_vec, b_vec = a.ndim == 1, b.ndim == 1
    ad = a.data[None, :] if a_vec else a.data
    bd = b.data[:, None] if b_vec else b.data
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    y = ad @ bd
    if a_vec:
        y = y[..., 0, :]
    if b_vec:
        y = y[..., 0] if not a_vec else y.reshape(())
    out = Tensor(y)

    def rule(g):
        gm = np.asarray(g)
        if a_vec and b_vec:
            gm = gm.reshape(1, 1)
        elif a_vec:
            gm = np.expand_dims(gm, -2)
        elif b_vec:
            gm = np.expand_dims(gm, -1)
        ga = gm @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ gm
        if a_vec:
            ga = ga[..., 0, :]
        if b_vec:
            gb = gb[..., 0]
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    _record(out, (a, b), rule)
    return out


def linear(x, w, b) -> Tensor:
    """x @ w + b as one tape entry; x is [..., d_in] (1-D promoted), w [d_in, d_out], b [d_out].

    The bias is added in place to the fresh product, so the output is bitwise
    add(matmul(x, w), b). One row of a batch (x of ndim >= 2 and one row) is
    the exception: numpy would run it as a GEMV, which rounds unlike a row of
    a GEMM, so it runs as row 0 of a two-row GEMM and rounds as in any larger
    batch. The rule works on the [rows, d] views x2 and g2 of
    x and g over their flattened leading axes: the input gradient g2 @ w^T
    and the weight gradient x2^T @ g2 are one 2-D GEMM each, the bias
    gradient one row sum of g2. The input gradient is bitwise that of
    add(matmul(x, w), b); the weight and bias gradients sum in another order
    and stay within 2e-6 (float32) and 1e-14 (float64) of the largest entry
    of that composite's. A gradient is skipped when its input needs none.
    """
    x = _as_tensor(x)
    w = _as_tensor(w, like=x)
    b = _as_tensor(b, like=x)
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear: x {x.shape}, w {w.shape} and b {b.shape} do not fit x @ w + b")
    if x.ndim > 1 and x.data.size == x.shape[-1]:
        y = (np.concatenate([x.data.reshape(1, -1)] * 2) @ w.data)[:1].reshape(*x.shape[:-1], w.shape[1])
    else:
        y = x.data @ w.data
    y += b.data
    out = Tensor(y)

    def rule(g):
        gx = gw = gb = None
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            gx = (g2 @ w.data.T).reshape(x.shape)
        if w.requires_grad:
            gw = x.data.reshape(-1, x.shape[-1]).T @ g2
        if b.requires_grad:
            gb = np.einsum("ij->j", g2)  # g2.sum(axis=0) takes twice as long at the transformer's shapes
        return gx, gw, gb

    _record(out, (x, w, b), rule)
    return out


# ---------------------------------------------------------------------------
# convolution


# Columns per chunk of the tap-wise GEMMs: the [C_out, chunk] accumulator of
# every backbone conv stays in L2 while all taps add into it.
_CONV_CHUNK = 4096
# Items per block when `_polyphase` gathers a batch-outer input.
_GATHER_BLOCK = 64
# The forward of an input with fewer channels than _THIN_CHANNELS stacks the
# operands of _STACK_ROWS // C_in consecutive taps into one GEMM (see `_tap_groups`).
_THIN_CHANNELS = 8
_STACK_ROWS = 27


def _conv_grid(spatial, ksize, strides, pads) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(out_dims, grid, computed) of one item's polyphase grid; strides >= 1, pads >= 0.

    Phase r of an axis with stride s and padding p holds padded position
    g * s + r at grid index g (see `_phase_slices`). The outermost axis and
    every strided axis get ceil((d + 2p) / s) entries, so each row carries its
    own left and right padding. A stride-1 axis inside the outermost one with
    a padding 0 < p < k gets d + p entries: p zeros, then the d inputs, so
    each row's right padding is the next row's left padding. Its
    d + 2p - k + 1 outputs fit in the row because p < k. The reads for output
    w reach at most index d + 2p - 1, which is index p - 1 of the next row,
    inside its leading zeros. Such a read carries at most one row into
    the axis outside, so when some axis shares, one more all-zero plane of
    the outermost axis keeps the reads past the last row inside the buffer.

    The valid outputs lie at grid positions [0, computed), computed being
    1 + the flat index of the last one; the conv computes those positions and
    crops the out_dims box out of them.
    """
    out_dims = tuple((d + 2 * p - kd) // s + 1 for d, kd, s, p in zip(spatial, ksize, strides, pads))
    shared = [i > 0 and s == 1 and 0 < p < kd for i, (kd, s, p) in enumerate(zip(ksize, strides, pads))]
    grid = [d + p if sh else -(-(d + 2 * p) // s) for d, s, p, sh in zip(spatial, strides, pads, shared)]
    grid[0] += any(shared)
    computed = 1 + sum((m - 1) * math.prod(grid[i + 1 :]) for i, m in enumerate(out_dims))
    return out_dims, tuple(grid), computed


def _phase_slices(spatial, strides, pads):
    """Yield (phase, grid slices, input slices) for each phase of a polyphase buffer.

    Phase r of an axis with stride s and padding p holds padded position
    g * s + r at grid index g; the slices say which input positions land on
    which grid indices, and every grid index outside them holds a zero (the
    extents come from `_conv_grid`). Phases come in np.ndindex(*strides)
    order, which is the flat phase index.
    """
    for phase, rs in enumerate(np.ndindex(*strides)):
        grid_idx, x_idx = [], []
        for r, s, p, d in zip(rs, strides, pads, spatial):
            g0 = -((r - p) // s)  # first grid index whose position g0 * s + r - p is >= 0
            x0 = g0 * s + r - p
            grid_idx.append(slice(g0, g0 + len(range(x0, d, s))))
            x_idx.append(slice(x0, d, s))
        yield phase, tuple(grid_idx), tuple(x_idx)


def _polyphase(xd: np.ndarray, strides, pads, grid, dtype) -> np.ndarray:
    """Zero-padded phase buffer [C, prod(strides), prod(grid) * B] of xd [B, C, *spatial].

    grid is the per-phase extent from `_conv_grid`. The batch axis is
    innermost: column q * B + b holds grid position q of item b.
    """
    batch, c = xd.shape[:2]
    buf = np.zeros((c, math.prod(strides), *grid, batch), dtype=dtype)
    xt = np.moveaxis(xd, 0, -1)
    # A batch-outer x (the C-contiguous clip) is read with a stride of one whole
    # item per column, so it is copied in blocks of items that stay in cache; a
    # batch-innermost x is copied in one pass.
    blocks = [slice(None)]
    if batch > _GATHER_BLOCK and abs(xd.strides[0]) > min(map(abs, xd.strides[1:])):
        blocks = [slice(b, b + _GATHER_BLOCK) for b in range(0, batch, _GATHER_BLOCK)]
    for blk in blocks:
        for phase, grid_idx, x_idx in _phase_slices(xd.shape[2:], strides, pads):
            buf[(slice(None), phase, *grid_idx, blk)] = xt[(slice(None), *x_idx, blk)]
    return buf.reshape(c, math.prod(strides), -1)


def _tap_groups(c_in: int, ksize, strides) -> tuple[list[range], bool]:
    """Consecutive runs of the flat tap indices whose operands one forward GEMM stacks,
    and whether those operands are slices of one row stack built per call.

    - A thin input (C_in < _THIN_CHANNELS) has groups of G = _STACK_ROWS // C_in
      taps, the last one the leftover taps when G does not divide the tap
      count, and each chunk copies a group's operands into one
      [G * C_in, chunk] block. A per-tap GEMM [C_out, C_in] @ [C_in, chunk] of
      a thin input does a few multiply-adds per output and is bound by its
      pass over the accumulator, so a 3-channel frame runs one [C_out, 27]
      GEMM per 3 x 3 plane of taps instead of nine [C_out, 3] ones. On one
      core in float32 that cut the forward of the backbones' first conv by
      25% (conv2d) and 42% (conv3d stem) against one GEMM per tap.
    - A wider input whose innermost axis has stride 1 and whose kernel row
      fits the stack (k_w > 1, C_in * k_w <= _STACK_ROWS) has one group per
      kernel row. The k_w taps of a row read one phase at column shifts B
      apart, so their stacked operand is a slice of one
      [phases, k_w * C_in, cols] row stack that `_conv_nd` copies once per
      call; the Conv3dResidual block1 convs (C_in = 8, k_w = 3) run 9 GEMMs
      per chunk instead of 27. Copied per chunk and group instead, as the
      thin path does, the stacked operand costs what the fewer GEMMs save at
      C_in = 8: G = 3 measured level or slower.
    - Every other input has one tap per group.
    """
    if c_in < _THIN_CHANNELS:
        size = _STACK_ROWS // c_in
    else:
        k_w = ksize[-1]
        size = k_w if strides[-1] == 1 and c_in * k_w <= _STACK_ROWS else 1
    n_taps = math.prod(ksize)
    return [range(i, min(i + size, n_taps)) for i in range(0, n_taps, size)], c_in >= _THIN_CHANNELS and size > 1


def _conv_nd(name: str, x: Tensor, k: Tensor, stride, padding, bias: Tensor | None, relu: bool) -> Tensor:
    """relu?(cross-correlation + bias) over the trailing n = k.ndim - 2 axes, as one tape entry.

    x is [C_in, *spatial] or [B, C_in, *spatial]; k is [C_out, C_in, *ksize];
    bias, if given, is [C_out]. x is padded once into a batch-innermost
    polyphase buffer [C_in, prod(stride), prod(grid) * B]; the grid's extents
    are ceil((d + 2p) / s) per axis, except d + p for a stride-1 axis inside
    the outermost one, whose rows share their padding when 0 < p < k (see
    `_conv_grid`). Tap o reads phase o % stride at the constant flat column
    shift B * sum((o // stride) * grid_stride), so every tap's operand is a
    2-D slice BLAS reads in place, and the output is accumulated as
    sum_o K[:, :, o] @ slice over column chunks. `_tap_groups` picks how
    taps share a GEMM. A thin input copies the slices of a group of
    consecutive taps into one [G * C_in, chunk] operand per chunk. An input
    whose innermost axis has stride 1 and whose kernel row fits
    _STACK_ROWS runs one GEMM per kernel row instead: the k_w taps of a row
    read one phase at shifts B apart, so a row stack
    [phases, k_w * C_in, cols], whose row block w is the phase buffer
    shifted by w * B columns, is copied once per call, and each row's
    operand is the [k_w * C_in, chunk] slice at its first tap's shift (the
    shifted-input copies of kn2row). The stack is freed when the call
    returns; a forward that keeps no phase buffer for the backward drops it
    as soon as the stack is built. With the batch innermost, the valid outputs
    of all items lie in the columns [0, computed * B), computed being 1 + the
    flat grid index of the last valid output; only those columns are
    computed. Each chunk's epilogue adds
    the bias and, with relu, clamps at zero while the [C_out, chunk]
    accumulator is in cache, so no separate add or ReLU array is made. The
    result is a [B, C_out, *out] view cropped from that [C_out, *grid, B]
    grid. This builds no im2col column matrix (the kn2row family of Anderson
    et al. 2017, arXiv 1709.03395).

    The backward rule embeds g in the grid, masked by out > 0 when relu is
    set (out > 0 exactly where the pre-activation is); the bias gradient is
    that grid's row sum. It runs its per-tap GEMMs over the same columns and
    folds the phase gradient back into x's layout. When k needs a gradient,
    the rule keeps the forward's phase buffer (about the size of x) for the
    kernel GEMMs, so x is gathered once per step; the buffer lives as long as
    the tape entry.
    """
    n = k.ndim - 2
    squeeze = x.ndim == n + 1
    xd = x.data[None] if squeeze else x.data
    if xd.shape[1] != k.shape[1]:
        raise DimensionError(f"{name}: channel mismatch, input {x.shape} vs kernels {k.shape}")
    if 0 in k.shape:
        raise DimensionError(f"{name}: kernels {k.shape} have a zero-size axis")
    if bias is not None and bias.shape != k.shape[:1]:
        raise DimensionError(f"{name}: bias {bias.shape} does not match kernels {k.shape}")
    strides = (stride,) * n if isinstance(stride, int) else tuple(stride)
    pads = (padding,) * n if isinstance(padding, int) else tuple(padding)
    if len(strides) != n or len(pads) != n:
        raise ConfigurationError(f"{name}: stride {stride} and padding {padding} need {n} entries each")
    if min(strides) < 1 or min(pads) < 0:
        raise ConfigurationError(f"{name}: stride {stride} needs entries >= 1 and padding {padding} entries >= 0")
    batch, c_in, c_out = xd.shape[0], xd.shape[1], k.shape[0]
    ksize = k.shape[2:]
    spatial = xd.shape[2:]
    out_dims, grid, computed = _conv_grid(spatial, ksize, strides, pads)
    if min(out_dims) < 1:
        raise ConfigurationError(
            f"{name}: non-positive output dims ({','.join(map(str, out_dims))}) for input {x.shape}, "
            f"kernel {k.shape}, stride {strides}, padding {pads}"
        )
    grid_strides = [math.prod(grid[i + 1 :]) for i in range(n)]
    phase_strides = [math.prod(strides[i + 1 :]) for i in range(n)]
    taps = [
        (
            sum((o % s) * ps for o, s, ps in zip(offset, strides, phase_strides)),
            batch * sum((o // s) * gs for o, s, gs in zip(offset, strides, grid_strides)),
        )
        for offset in np.ndindex(*ksize)
    ]
    n_phases, n_cols = math.prod(strides), math.prod(grid) * batch
    # Every tap a computed column reads lies inside the buffer, and a read past
    # the end of a shared-padding row lands on the next row's leading zeros.
    n_valid = computed * batch
    # The output grid needs only the first out_dims[0] planes of the first axis.
    out_grid = (out_dims[0], *grid[1:], batch)
    crop = (slice(None), *(slice(0, m) for m in out_dims))
    dtype = np.result_type(xd, k.data)
    k_taps = np.ascontiguousarray(k.data.reshape(c_out, c_in, -1).transpose(2, 0, 1))
    tap_groups, per_call = _tap_groups(c_in, ksize, strides)
    groups = [
        (grp, np.ascontiguousarray(k_taps[grp.start : grp.stop].transpose(1, 0, 2).reshape(c_out, -1)))
        for grp in tap_groups
    ]
    inputs = (x, k) if bias is None else (x, k, bias)
    b_col = None if bias is None else bias.data[:, None]

    buf = _polyphase(xd, strides, pads, grid, dtype)
    if per_call:
        # Row block w holds buf shifted by w * B columns, where tap w of a kernel row
        # reads; the last kernel row, at the largest shift, reads up to column width.
        k_w = ksize[-1]
        width = n_valid + taps[-1][1] - (k_w - 1) * batch
        rows = np.empty((n_phases, k_w * c_in, width), dtype=dtype)
        for w in range(k_w):
            rows[:, w * c_in : (w + 1) * c_in] = buf[:, :, w * batch : w * batch + width].transpose(1, 0, 2)
        if not (k.requires_grad and _recording(inputs)):  # only the kernel gradient reads buf
            buf = None
    y_grid = np.empty((c_out, *out_grid), dtype=dtype)
    y = y_grid.reshape(c_out, -1)
    part = np.empty((c_out, _CONV_CHUNK), dtype=dtype)
    stacked = not per_call and len(tap_groups[0]) > 1  # a thin input copies each group's taps into one operand
    stack = np.empty((len(tap_groups[0]) * c_in, _CONV_CHUNK), dtype=dtype) if stacked else None
    for lo in range(0, n_valid, _CONV_CHUNK):
        hi = min(lo + _CONV_CHUNK, n_valid)
        acc, tmp = y[:, lo:hi], part[:, : hi - lo]
        for j, (grp, k_grp) in enumerate(groups):
            phase, shift = taps[grp.start]
            if per_call:
                cols = rows[phase, :, lo + shift : hi + shift]
            elif len(grp) == 1:
                cols = buf[:, phase, lo + shift : hi + shift]
            else:
                cols = stack[: len(grp) * c_in, : hi - lo]
                for r, (phase, shift) in enumerate(taps[grp.start : grp.stop]):
                    cols[r * c_in : (r + 1) * c_in] = buf[:, phase, lo + shift : hi + shift]
            if j == 0:
                np.matmul(k_grp, cols, out=acc)
            else:
                np.matmul(k_grp, cols, out=tmp)
                acc += tmp
        if b_col is not None:
            acc += b_col
        if relu:
            np.maximum(acc, 0, out=acc)
    y = np.moveaxis(y_grid[crop], -1, 0)
    out = Tensor(y[0] if squeeze else y)
    if not k.requires_grad:
        buf = None

    def rule(g):
        gb = g[None] if squeeze else g
        g_grid = np.zeros((c_out, *out_grid), dtype=dtype)
        if relu:
            np.multiply(np.moveaxis(gb, 0, -1), y_grid[crop] > 0, out=g_grid[crop])
        else:
            g_grid[crop] = np.moveaxis(gb, 0, -1)
        g_grid = g_grid.reshape(c_out, -1)
        gk_taps = gbuf = gbias = None
        if bias is not None and bias.requires_grad:
            gbias = g_grid.sum(axis=1)
        if buf is not None:
            gk_taps = np.zeros((len(taps), c_out, c_in), dtype=dtype)
        if x.requires_grad:
            gbuf = np.zeros((c_in, n_phases, n_cols), dtype=dtype)
        part = np.empty((c_in, _CONV_CHUNK), dtype=dtype)
        for lo in range(0, n_valid, _CONV_CHUNK):
            hi = min(lo + _CONV_CHUNK, n_valid)
            g_chunk, tmp = g_grid[:, lo:hi], part[:, : hi - lo]
            for i, (phase, shift) in enumerate(taps):
                cols = slice(lo + shift, hi + shift)
                if gk_taps is not None:
                    gk_taps[i] += g_chunk @ buf[:, phase, cols].T
                if gbuf is not None:
                    np.matmul(k_taps[i].T, g_chunk, out=tmp)
                    gbuf[:, phase, cols] += tmp
        del g_grid, g_chunk  # freed before gx is folded out of gbuf
        gx = gk = None
        if gk_taps is not None:
            gk = gk_taps.transpose(1, 2, 0).reshape(k.shape)
        if gbuf is not None:
            gbuf = gbuf.reshape(c_in, n_phases, *grid, batch)
            gxt = np.empty((c_in, *spatial, batch), dtype=xd.dtype)
            for phase, grid_idx, x_idx in _phase_slices(spatial, strides, pads):
                gxt[(slice(None), *x_idx)] = gbuf[(slice(None), phase, *grid_idx)]
            gx = np.moveaxis(gxt, -1, 0)
            if squeeze:
                gx = gx[0]
        return (gx, gk, gbias)[: len(inputs)]

    _record(out, inputs, rule)
    return out


def conv3d(x, kernels, stride=1, padding=0, *, bias=None, relu=False) -> Tensor:
    """relu?(cross-correlation over (T, H, W) + bias), one tape entry (see `_conv_nd`).

    x is [C_in, T, H, W] or batched [B, C_in, T, H, W]; kernels are
    [C_out, C_in, kT, kH, kW]; bias, if given, is [C_out] and added per output
    channel, and relu clamps the sum at zero. Output dims follow
    floor((n + 2p - k)/s) + 1.
    """
    x = _as_tensor(x)
    k = _as_tensor(kernels, like=x)
    if x.ndim not in (4, 5) or k.ndim != 5:
        raise DimensionError(f"conv3d: input {x.shape} and kernels {k.shape} must be 4/5-D and 5-D")
    return _conv_nd("conv3d", x, k, stride, padding, None if bias is None else _as_tensor(bias, like=x), relu)


def conv2d(x, kernels, stride=1, padding=0, *, bias=None, relu=False) -> Tensor:
    """relu?(cross-correlation over (H, W) + bias); x is [C_in, H, W] or [B, C_in, H, W].

    bias and relu act as in conv3d: one tape entry, no separate add or ReLU.
    """
    x = _as_tensor(x)
    k = _as_tensor(kernels, like=x)
    if x.ndim not in (3, 4) or k.ndim != 4:
        raise DimensionError(f"conv2d: input {x.shape} and kernels {k.shape} must be 3/4-D and 4-D")
    return _conv_nd("conv2d", x, k, stride, padding, None if bias is None else _as_tensor(bias, like=x), relu)


# ---------------------------------------------------------------------------
# composite neural ops


def recurrent_step(x, h, c, w_x, w_h, bias):
    """One 4-gate LSTM cell update; returns (h', c').

    x is [d_in] or [B, d_in]; h, c are [d_h] or [B, d_h]. Weights: w_x is
    [d_in, 4*d_h], w_h is [d_h, 4*d_h], bias is [4*d_h], gate order (i, f, g, o).
    """
    x, h, c = _as_tensor(x), _as_tensor(h), _as_tensor(c)
    w_x, w_h, bias = _as_tensor(w_x), _as_tensor(w_h), _as_tensor(bias)
    d_h = h.shape[-1]
    if (
        w_x.shape != (x.shape[-1], 4 * d_h)
        or w_h.shape != (d_h, 4 * d_h)
        or bias.shape != (4 * d_h,)
        or c.shape != h.shape
    ):
        raise DimensionError(
            f"recurrent_step: inconsistent shapes x{x.shape} h{h.shape} c{c.shape} "
            f"w_x{w_x.shape} w_h{w_h.shape} b{bias.shape}"
        )
    z = add(add(matmul(x, w_x), matmul(h, w_h)), bias)
    i = sigmoid(z[..., 0:d_h])
    f = sigmoid(z[..., d_h : 2 * d_h])
    g = tanh(z[..., 2 * d_h : 3 * d_h])
    o = sigmoid(z[..., 3 * d_h : 4 * d_h])
    c2 = add(mul(f, c), mul(i, g))
    h2 = mul(o, tanh(c2))
    return h2, c2


def lstm_sequence(xs, w_x, w_h, bias) -> Tensor:
    """Run the recurrent_step LSTM over xs [B, T, d_in] from a zero state; return h_T [B, d_h].

    One tape entry. The input projection of all T steps is one GEMM (Appleyard
    et al. 2016, arXiv 1604.01946); each step then adds h @ w_h and the bias
    and applies recurrent_step's gate expressions, so h_T is what T calls of
    recurrent_step give. The rule keeps the gates, the cell states and their
    tanh, and runs backpropagation through time in closed form: walking the
    steps in reverse it carries dh and dc and writes each step's gate
    pre-activation gradient dz_t into one [B, T, 4 * d_h] buffer, so the
    gradients of w_x, w_h and xs are one GEMM each and the bias gradient one sum.
    """
    xs, w_x, w_h, bias = _as_tensor(xs), _as_tensor(w_x), _as_tensor(w_h), _as_tensor(bias)
    d_h = w_h.shape[0] if w_h.ndim == 2 else 0
    if (
        xs.ndim != 3
        or xs.shape[1] < 1
        or w_x.shape != (xs.shape[-1], 4 * d_h)
        or w_h.shape != (d_h, 4 * d_h)
        or bias.shape != (4 * d_h,)
    ):
        raise DimensionError(
            f"lstm_sequence: inconsistent shapes xs{xs.shape} w_x{w_x.shape} w_h{w_h.shape} b{bias.shape}"
        )
    batch, steps, d_in = xs.shape
    xd, wx, wh = xs.data, w_x.data, w_h.data
    zx = (xd.reshape(batch * steps, d_in) @ wx).reshape(batch, steps, 4 * d_h)
    h = c = np.zeros((batch, d_h), dtype=xd.dtype)
    hs, cs, gates, tanh_cs = [h], [c], [], []
    for t in range(steps):
        z = (zx[:, t] + h @ wh) + bias.data
        a = _sigmoid(z)  # i, f and o; g is overwritten with its tanh
        a[:, 2 * d_h : 3 * d_h] = np.tanh(z[:, 2 * d_h : 3 * d_h])
        c = a[:, d_h : 2 * d_h] * c + a[:, 0:d_h] * a[:, 2 * d_h : 3 * d_h]
        tc = np.tanh(c)
        h = a[:, 3 * d_h :] * tc
        hs.append(h)
        cs.append(c)
        gates.append(a)
        tanh_cs.append(tc)
    out = Tensor(h)

    def rule(g_out):
        acts = np.stack(gates)  # [T, B, 4 * d_h]
        i, f, g, o = (acts[..., k * d_h : (k + 1) * d_h] for k in range(4))
        tcs = np.stack(tanh_cs)
        dsig = acts * (1.0 - acts)
        # dz_t = (dc_t, dc_t, dc_t, dh_t) * per-gate factors that depend only on the forward pass
        factor = np.empty_like(acts)
        factor[..., 0:d_h] = g * dsig[..., 0:d_h]
        factor[..., d_h : 2 * d_h] = np.stack(cs[:-1]) * dsig[..., d_h : 2 * d_h]
        factor[..., 2 * d_h : 3 * d_h] = i * (1.0 - g * g)
        factor[..., 3 * d_h :] = tcs * dsig[..., 3 * d_h :]
        factor = factor.reshape(steps, batch, 4, d_h)
        dc_dh = o * (1.0 - tcs * tcs)
        dz = np.empty((batch, steps, 4, d_h), dtype=acts.dtype)
        dh, dc = g_out, np.zeros_like(g_out)
        for t in reversed(range(steps)):
            dc = dc + dh * dc_dh[t]
            np.multiply(dc[:, None], factor[t, :, :3], out=dz[:, t, :3])
            np.multiply(dh, factor[t, :, 3], out=dz[:, t, 3])
            dc = dc * f[t]
            if t:
                dh = dz[:, t].reshape(batch, 4 * d_h) @ wh.T
        dz = dz.reshape(batch * steps, 4 * d_h)
        gxs = gwx = gwh = gb = None
        if xs.requires_grad:
            gxs = (dz @ wx.T).reshape(xd.shape)
        if w_x.requires_grad:
            gwx = xd.reshape(batch * steps, d_in).T @ dz
        if w_h.requires_grad:
            gwh = np.stack(hs[:-1], axis=1).reshape(batch * steps, d_h).T @ dz
        if bias.requires_grad:
            gb = dz.sum(axis=0)
        return gxs, gwx, gwh, gb

    _record(out, (xs, w_x, w_h, bias), rule)
    return out


def softmax(logits, temperature: float = 1.0, axis: int = -1) -> Tensor:
    """Temperature softmax with max-subtraction for stability."""
    if temperature <= 0:
        raise ConfigurationError(f"softmax: temperature must be positive, got {temperature}")
    a = _as_tensor(logits)
    z = a.data / temperature
    z = z - z.max(axis=axis, keepdims=True)
    ez = np.exp(z)
    y = ez / ez.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def rule(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y / temperature,)

    _record(out, (a,), rule)
    return out


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis of x, then scale by gain [d] and shift by bias [d] (Ba et al. 2016).

    One tape entry over the [rows, d] view of x. The row mean and variance,
    and the rule's two row means, are row-wise einsum reductions ("ij->i",
    "ij,ij->i"): each row is summed by the same loop however many rows share
    the call, so for one memory layout of x a window gets the same bits in
    any batch, which the embed-once linear probe and the evaluation rely on.
    The loop's order follows x's strides as well as its values: the same
    values as a C-contiguous copy of a batch-innermost x (Conv3dResidual's
    flattened pooled features) round differently. Row sums as a BLAS GEMV
    (x @ ones) would be faster, but OpenBLAS rounds a row differently
    depending on the number of rows. The centred rows are scaled in place by
    inv = 1 / sqrt(var + LAYER_NORM_EPS).

    The rule keeps only xhat and inv and applies the closed form
    dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gain;
    the gain and bias gradients are one einsum each over the rows.
    """
    x = _as_tensor(x)
    gain = _as_tensor(gain, like=x)
    bias = _as_tensor(bias, like=x)
    width = x.shape[-1:]
    if not width or gain.shape != width or bias.shape != width:
        raise DimensionError(f"layer_norm: gain {gain.shape} and bias {bias.shape} must be [d] for x {x.shape}")
    d = width[0]
    dt = x.dtype.type
    scale = dt(1.0 / d)
    rows = x.data.reshape(-1, d)
    xhat = rows - (np.einsum("ij->i", rows) * scale)[:, None]
    inv = dt(1.0) / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) * scale + dt(LAYER_NORM_EPS))
    xhat *= inv[:, None]
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y.reshape(x.shape))

    def rule(g):
        g = g.reshape(-1, d)
        gx = ggain = gbias = None
        if x.requires_grad:
            gx = g * gain.data
            mean_dxhat = np.einsum("ij->i", gx) * scale
            mean_dxhat_xhat = np.einsum("ij,ij->i", gx, xhat) * scale
            gx -= mean_dxhat[:, None]
            gx -= xhat * mean_dxhat_xhat[:, None]
            gx *= inv[:, None]
            gx = gx.reshape(x.shape)
        if gain.requires_grad:
            ggain = np.einsum("ij,ij->j", g, xhat)
        if bias.requires_grad:
            gbias = np.einsum("ij->j", g)
        return gx, ggain, gbias

    _record(out, (x, gain, bias), rule)
    return out


def attention(qkv, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of a packed qkv [B, T, 3d]; returns [B, T, d].

    One tape entry (Vaswani et al. 2017; fused in the spirit of Dao et al.
    2022, arXiv 2205.14135). The last axis of qkv holds q, k and v, each
    split into `heads` heads of d // heads channels; q, k and v are strided
    views of qkv, not copies. The scores are kept keys-major,
    P^T = softmax over keys of (k @ q^T * scale), [B, heads, T_key, T_query],
    so the max and the sum reduce over axis -2, which numpy runs as
    elementwise work across rows; scale, max-subtraction, exp and
    normalisation run in place on that one array. The output is
    P^T.swapaxes(-1, -2) @ v, which BLAS reads transposed in place, written
    through a strided view straight into the [B, T, d] layout.

    The rule keeps only P^T and the views of qkv and applies the closed form
    dV = P^T @ dO, dP^T = v @ dO^T, dS^T = P^T * (dP^T - sum_keys(dP^T * P^T)) * scale,
    dQ = (dS^T)^T @ k and dK = dS^T @ q, written into one [B, T, 3, heads, hd] buffer.
    """
    qkv = _as_tensor(qkv)
    if qkv.ndim != 3 or heads < 1 or qkv.shape[-1] % (3 * heads):
        raise DimensionError(f"attention: qkv {qkv.shape} is not [B, T, 3 * heads * head_dim] for {heads} heads")
    batch, steps, width = qkv.shape
    hd = width // (3 * heads)
    dtype = qkv.dtype
    scale = dtype.type(1.0 / math.sqrt(hd))
    # [3, B, heads, T, hd] views of q, k and v
    q, k, v = qkv.data.reshape(batch, steps, 3, heads, hd).transpose(2, 0, 3, 1, 4)
    pt = k @ q.swapaxes(-1, -2)
    pt *= scale
    pt -= pt.max(axis=-2, keepdims=True)
    np.exp(pt, out=pt)
    pt /= pt.sum(axis=-2, keepdims=True)
    y = np.empty((batch, steps, heads, hd), dtype=dtype)
    np.matmul(pt.swapaxes(-1, -2), v, out=y.transpose(0, 2, 1, 3))
    out = Tensor(y.reshape(batch, steps, heads * hd))

    def rule(g):
        do = g.reshape(batch, steps, heads, hd).transpose(0, 2, 1, 3)
        grad = np.empty((batch, steps, 3, heads, hd), dtype=dtype)
        gq, gk, gv = grad.transpose(2, 0, 3, 1, 4)
        np.matmul(pt, do, out=gv)
        ds = v @ do.swapaxes(-1, -2)
        ds -= np.einsum("...kq,...kq->...q", ds, pt)[..., None, :]  # one pass, no ds * pt array
        ds *= pt
        ds *= scale
        np.matmul(ds.swapaxes(-1, -2), k, out=gq)
        np.matmul(ds, q, out=gk)
        return (grad.reshape(qkv.shape),)

    _record(out, (qkv,), rule)
    return out


def cross_entropy(logits, target, temperature: float = 1.0) -> Tensor:
    """Mean cross-entropy of the N rows of logits [..., C] against a fixed target, as one tape entry.

    target is integer labels [...], read as one-hot rows, or probabilities
    [..., C]. With z = rows / temperature less the row max and
    logq = z - log sum_c exp(z), the loss is -(1/N) sum p logq; the rule is
    p' = p * (-g / N), then (p' - exp(logq) * sum_c p') / temperature. Both
    keep the order of operations of the log_softmax, weighted row sum and
    mean they replaced, so loss and gradient are bitwise that composite's
    (for labels, the one-hot row sums add exact zeros).
    """
    if temperature <= 0:
        raise ConfigurationError(f"cross_entropy: temperature must be positive, got {temperature}")
    logits = _as_tensor(logits)
    target = np.asarray(target)
    labels = np.issubdtype(target.dtype, np.integer)
    if logits.ndim < 1 or target.shape != (logits.shape[:-1] if labels else logits.shape):
        kind = "labels [...]" if labels else "probabilities [..., C]"
        raise DimensionError(f"cross_entropy: logits {logits.shape} vs {kind} {target.shape}")
    dt = logits.dtype.type
    n_classes = logits.shape[-1]
    p = np.eye(n_classes, dtype=dt)[target] if labels else target.astype(dt, copy=False)
    p = p.reshape(-1, n_classes)
    z = logits.data.reshape(-1, n_classes) / temperature
    z = z - z.max(axis=1, keepdims=True)
    logq = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    scale = dt(1.0 / len(p))
    out = Tensor((logq * p).sum(axis=1).sum() * scale * dt(-1.0))

    def rule(g):
        gz = p * ((g * dt(-1.0)) * scale)
        gz -= np.exp(logq) * gz.sum(axis=1, keepdims=True)
        gz /= temperature
        return (gz.reshape(logits.shape),)

    _record(out, (logits,), rule)
    return out


def cosine_similarity(a, b) -> Tensor:
    """Per-row cosine [B] of a and b [B, d], clipped to [-1, 1], as one tape entry.

    cos = (a . b) / (|a| |b|), each row sum in the row's own order. A row
    pair whose norm product is zero (a norm is zero, or the product
    underflows) gets cos 0 and a zero gradient, and so does a row whose
    quotient lies outside [-1, 1], where the clip engaged. Elsewhere the
    rule applies the closed form d cos/da = b / (|a| |b|) - cos a / |a|^2,
    and the same with a and b swapped; a constant operand gets None.
    """
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionError(f"cosine_similarity: expected matching [B, d] operands, got {a.shape} vs {b.shape}")
    av, bv = a.data, b.data
    sq_a, sq_b = (av * av).sum(axis=1), (bv * bv).sum(axis=1)
    norms = np.sqrt(sq_a) * np.sqrt(sq_b)
    ok = norms > 0
    raw = np.divide((av * bv).sum(axis=1), norms, out=np.zeros_like(norms), where=ok)
    out = Tensor(np.clip(raw, -1.0, 1.0))
    live = ok & (raw >= -1.0) & (raw <= 1.0)

    def rule(g):
        def per_row(num, den):  # num / den on the live rows and 0 elsewhere, as a [B, 1] column
            return np.divide(num, den, out=np.zeros_like(norms), where=live)[:, None]

        over_norms, g_cos = per_row(g, norms), g * raw
        ga = over_norms * bv - per_row(g_cos, sq_a) * av if a.requires_grad else None
        gb = over_norms * av - per_row(g_cos, sq_b) * bv if b.requires_grad else None
        return ga, gb

    _record(out, (a, b), rule)
    return out


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class SgdState:
    """SGD hyperparameters plus per-parameter velocity buffers."""

    learning_rate: float
    momentum: float = 0.0
    velocities: list[np.ndarray | None] = field(default_factory=list)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")


def sgd_step(params: Sequence[Tensor], grads: Sequence[np.ndarray | None], state: SgdState) -> None:
    """SGD with momentum: v <- momentum * v + g, then p.data -= lr * v.

    grads is backward()'s list for params; a None entry raises UsageError.
    Velocities and parameter arrays are updated in place; the first step's
    velocity is a copy of g, so the caller's gradient arrays are never
    written. With zero momentum this is exactly p -= lr * g.
    """
    if len(params) != len(grads):
        raise DimensionError(f"sgd_step: {len(params)} params vs {len(grads)} grads")
    for idx, g in enumerate(grads):
        if g is None:
            raise UsageError(f"sgd_step: no gradient for parameter {idx}; the loss does not depend on it")
        if not np.all(np.isfinite(g)):
            raise DivergenceError("sgd_step: non-finite gradient, aborting step")
    if not state.velocities:
        state.velocities = [None] * len(params)
    for idx, (p, g) in enumerate(zip(params, grads)):
        g = np.asarray(g, dtype=p.dtype)
        if g.shape != p.data.shape:
            raise DimensionError(f"sgd_step: grad shape {g.shape} vs param {p.data.shape}")
        v = state.velocities[idx]
        if v is None:
            v = state.velocities[idx] = g.copy()
        else:
            v *= state.momentum
            v += g
        p.data -= p.data.dtype.type(state.learning_rate) * v
