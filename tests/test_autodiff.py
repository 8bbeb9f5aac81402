"""Gradient engine tests: trivial identities plus finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from futuredistill import autodiff as ad
from futuredistill.autodiff import (
    SgdState,
    Tape,
    Tensor,
    backward,
    sgd_step,
)
from futuredistill.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    UsageError,
)

from oracles import OracleError, finite_difference_gradient, max_relative_error


def fd_check(f, x: Tensor, tol: float = 1e-5, eps: float = 1e-4) -> float:
    """Compare backward() grads of f at x against central differences."""
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    tape = Tape()
    with tape:
        loss = f(x64)
    (grad,) = backward(loss, tape, [x64])
    fd = finite_difference_gradient(f, x64, eps=eps)
    err = max_relative_error(fd.data, grad)
    assert err < tol, f"gradient mismatch: {err:.3e} >= {tol}"
    return err


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2, dtype=np.float32))
        m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        assert np.array_equal(ad.matmul(eye, m).data, m.data)

    def test_zero(self):
        a = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        z = Tensor(np.zeros((2, 1)))
        assert np.array_equal(ad.matmul(a, z).data, np.zeros((2, 1)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            ad.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        b = Tensor(rng.normal(size=(4, 2)))
        x = Tensor(rng.normal(size=(3, 4)))
        fd_check(lambda t: ad.sum_(ad.mul(ad.matmul(t, b), ad.matmul(t, b))), x, tol=1e-5)

    def test_vector_promotion(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(5, 3)))
        v = Tensor(rng.normal(size=5))
        out = ad.matmul(v, w)
        assert out.shape == (3,)
        fd_check(lambda t: ad.sum_(ad.matmul(t, w)), v, tol=1e-6)


class TestConv3d:
    def test_ones_window_sum(self):
        x = Tensor(np.ones((1, 4, 4, 4), dtype=np.float32))
        k = Tensor(np.ones((1, 1, 2, 2, 2), dtype=np.float32))
        y = ad.conv3d(x, k)
        assert y.shape == (1, 3, 3, 3)
        assert np.allclose(y.data, 8.0)

    def test_impulse_reads_kernel_flipped(self):
        rng = np.random.default_rng(1)
        k = rng.normal(size=(1, 1, 2, 2, 2)).astype(np.float32)
        x = np.zeros((1, 3, 3, 3), dtype=np.float32)
        x[0, 1, 1, 1] = 1.0
        y = ad.conv3d(Tensor(x), Tensor(k)).data[0]
        # out[t,h,w] = k[0,0,1-t,1-h,1-w] for t,h,w in the 2x2x2 output
        for t in range(2):
            for h in range(2):
                for w in range(2):
                    assert y[t, h, w] == pytest.approx(k[0, 0, 1 - t, 1 - h, 1 - w])

    def test_non_positive_output_dim(self):
        with pytest.raises(ConfigurationError, match=r"conv3d: non-positive output dims \(0,0,0\)"):
            ad.conv3d(Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros((1, 1, 3, 3, 3))))
        with pytest.raises(ConfigurationError, match=r"conv2d: non-positive output dims \(1,0\)"):
            ad.conv2d(Tensor(np.zeros((1, 3, 2))), Tensor(np.zeros((1, 1, 3, 3))), stride=(1, 2))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)))
        k = Tensor(rng.normal(size=(2, 2, 2, 3, 3)))

        def loss_x(t):
            return ad.sum_(ad.mul(ad.conv3d(t, k, stride=(1, 2, 2), padding=(1, 0, 1)), 1.5))

        def loss_k(t):
            return ad.sum_(ad.mul(ad.conv3d(x, t, stride=(1, 2, 2), padding=(1, 0, 1)), 1.5))

        fd_check(loss_x, x, tol=1e-4)
        fd_check(loss_k, k, tol=1e-4)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(3, 2, 4, 5, 5)).astype(np.float32)
        k = Tensor(rng.normal(size=(4, 2, 2, 3, 3)).astype(np.float32))
        batched = ad.conv3d(Tensor(xs), k, stride=1, padding=1).data
        for i in range(3):
            single = ad.conv3d(Tensor(xs[i]), k, stride=1, padding=1).data
            assert np.allclose(batched[i], single, atol=1e-6)

    @pytest.mark.parametrize(
        "name,x_shape,k_shape",
        [
            ("conv3d", (1, 1, 4, 4, 4), (1, 1, 0, 3, 3)),
            ("conv2d", (1, 1, 4, 4), (1, 1, 3, 0)),
            ("conv2d", (2, 0, 4, 4), (1, 0, 3, 3)),
        ],
        ids=["conv3d_zero_time_tap", "conv2d_zero_width_tap", "conv2d_zero_channels"],
    )
    def test_zero_size_kernel_axis_is_rejected(self, name, x_shape, k_shape):
        # unchecked, an empty tap list or channel axis fails inside numpy with no op name
        with pytest.raises(DimensionError, match=rf"{name}: kernels .* zero-size axis"):
            getattr(ad, name)(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)))

    def test_stride_and_padding_need_one_entry_per_axis(self):
        x, k = Tensor(np.zeros((1, 4, 4, 4))), Tensor(np.zeros((1, 1, 2, 2, 2)))
        with pytest.raises(ConfigurationError, match="conv3d: stride"):
            ad.conv3d(x, k, stride=(1, 2))
        with pytest.raises(ConfigurationError, match="conv2d: stride"):
            ad.conv2d(x[:, 0], k[:, :, 0], padding=(1, 1, 1))

    @pytest.mark.parametrize(
        "name,stride,padding",
        [("conv3d", 0, 0), ("conv3d", (1, 0, 1), 1), ("conv3d", 1, (0, 0, -1)), ("conv2d", -1, 0), ("conv2d", 1, -1)],
    )
    def test_stride_below_one_or_negative_padding_is_rejected(self, name, stride, padding):
        # unchecked, stride 0 divides by zero and a negative padding shrinks the grid
        x, k = np.zeros((1, 3, 8, 8)), np.zeros((1, 1, 2, 2, 2))
        if name == "conv2d":
            x, k = x[:, 0], k[:, :, 0]
        with pytest.raises(ConfigurationError, match=rf"{name}: stride .* >= 1 and padding .* >= 0"):
            getattr(ad, name)(Tensor(x), Tensor(k), stride=stride, padding=padding)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv2d_is_conv3d_with_singleton_time(self, dtype):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 7, 6)).astype(dtype)
        k = rng.normal(size=(4, 3, 3, 2)).astype(dtype)
        cases = (
            (ad.conv2d, x, k, (2, 1), (1, 0)),
            (ad.conv3d, x[:, :, None], k[:, :, None], (1, 2, 1), (0, 1, 0)),
        )
        results = []
        for conv, xv, kv, stride, padding in cases:
            xt, kt = Tensor(xv, requires_grad=True), Tensor(kv, requires_grad=True)
            tape = Tape()
            with tape:
                y = conv(xt, kt, stride=stride, padding=padding)
                loss = ad.sum_(ad.mul(y, y))
            gx, gk = backward(loss, tape, [xt, kt])
            results.append((y.data.reshape(-1), gx.reshape(-1), gk.reshape(-1)))
        for a, b in zip(*results):
            assert np.array_equal(a, b)


# The im2col/GEMM kernel that the tap-wise polyphase kernel replaced; kept as
# the reference for outputs and gradients.


def _reference_im2col(xd, ksize, strides, pads):
    """Column matrix [C * prod(ksize), B * prod(out)] of xd [B, C, *spatial]."""
    n = len(ksize)
    xp = np.pad(xd, ((0, 0), (0, 0), *((p, p) for p in pads)))
    win = np.lib.stride_tricks.sliding_window_view(xp, ksize, axis=tuple(range(2, 2 + n)))
    win = win[(slice(None), slice(None), *(slice(None, None, s) for s in strides))]
    win = win.transpose(1, *range(2 + n, 2 + 2 * n), 0, *range(2, 2 + n))
    return win.reshape(xd.shape[1] * int(np.prod(ksize)), -1)


def reference_conv(x, k, stride, padding):
    """conv2d/conv3d as one im2col GEMM, with a per-tap col2im scatter for the input gradient."""
    n = k.ndim - 2
    squeeze = x.ndim == n + 1
    xd = x.data[None] if squeeze else x.data
    strides = (stride,) * n if isinstance(stride, int) else tuple(stride)
    pads = (padding,) * n if isinstance(padding, int) else tuple(padding)
    batch, c_in, c_out = xd.shape[0], xd.shape[1], k.shape[0]
    ksize = k.shape[2:]
    padded = tuple(d + 2 * p for d, p in zip(xd.shape[2:], pads))
    out_dims = tuple((d - kd) // s + 1 for d, kd, s in zip(padded, ksize, strides))
    k_mat = k.data.reshape(c_out, -1)
    y = (k_mat @ _reference_im2col(xd, ksize, strides, pads)).reshape(c_out, batch, *out_dims)
    y = np.moveaxis(y, 0, 1)
    out = Tensor(y[0] if squeeze else y)

    def rule(g):
        gb = g[None] if squeeze else g
        g_mat = np.moveaxis(gb, 1, 0).reshape(c_out, -1)
        gx = gk = None
        if k.requires_grad:
            gk = (g_mat @ _reference_im2col(xd, ksize, strides, pads).T).reshape(k.shape)
        if x.requires_grad:
            gcols = (k_mat.T @ g_mat).reshape(c_in, *ksize, batch, *out_dims)
            gxp = np.zeros((c_in, batch, *padded), dtype=xd.dtype)
            for offset in np.ndindex(*ksize):
                taps = (slice(o, o + m * s, s) for o, m, s in zip(offset, out_dims, strides))
                gxp[(slice(None), slice(None), *taps)] += gcols[(slice(None), *offset)]
            crop = (slice(p, d - p) for p, d in zip(pads, padded))
            gx = np.moveaxis(gxp[(slice(None), slice(None), *crop)], 0, 1)
            if squeeze:
                gx = gx[0]
        return gx, gk

    ad._record(out, (x, k), rule)
    return out


def _conv_with_grads(conv, x, k, stride, padding, w):
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    tape = Tape()
    with tape:
        loss = ad.sum_(ad.mul(conv(xt, kt, stride, padding), w))
    return (tape.entries[0].output.data, *backward(loss, tape, [xt, kt]))


class TestConvMatchesIm2colReference:
    # (x shape, kernel shape, stride, padding) of each conv the two conv backbones run
    BACKBONE_CONVS = {
        "c2d_conv1": ((192, 3, 32, 32), (8, 3, 3, 3), 2, 1),
        "c2d_conv2": ((192, 8, 16, 16), (16, 8, 3, 3), 2, 1),
        "c3d_stem": ((16, 3, 6, 32, 32), (8, 3, 3, 3, 3), (1, 2, 2), 1),
        "c3d_block1": ((16, 8, 6, 16, 16), (8, 8, 3, 3, 3), 1, 1),
        "c3d_down": ((16, 8, 6, 16, 16), (16, 8, 3, 3, 3), 2, 1),
        "c3d_block2": ((16, 16, 3, 8, 8), (16, 16, 3, 3, 3), 1, 1),
    }
    # max|new - ref| / max|ref| over y, gx and gk; the summation order differs
    TOL = {np.float32: 1e-5, np.float64: 1e-12}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", list(BACKBONE_CONVS))
    def test_backbone_shapes(self, shape, dtype):
        x_shape, k_shape, stride, padding = self.BACKBONE_CONVS[shape]
        conv = ad.conv3d if len(k_shape) == 5 else ad.conv2d
        rng = np.random.default_rng(83)
        x = rng.normal(size=x_shape).astype(dtype)
        k = rng.normal(size=k_shape).astype(dtype)
        w = rng.normal(size=conv(Tensor(x), Tensor(k), stride, padding).shape).astype(dtype)
        new = _conv_with_grads(conv, x, k, stride, padding, w)
        ref = _conv_with_grads(reference_conv, x, k, stride, padding, w)
        for name, a, b in zip(("y", "gx", "gk"), new, ref):
            assert a.dtype == dtype and a.shape == b.shape
            err = np.abs(a - b).max() / np.abs(b).max()
            assert err <= self.TOL[dtype], f"{name}: {err:.2e}"

    # (grid, computed columns, valid outputs) of each backbone conv; the block
    # convs' H and W rows share their padding, so their T axis has one extra plane
    BACKBONE_GRIDS = {
        "c2d_conv1": ((17, 17), 52032, 49152),
        "c2d_conv2": ((9, 9), 13632, 12288),
        "c3d_stem": ((8, 17, 17), 27456, 24576),
        "c3d_block1": ((9, 17, 17), 27456, 24576),
        "c3d_down": ((4, 9, 9), 3728, 3072),
        "c3d_block2": ((6, 9, 9), 3728, 3072),
    }

    @pytest.mark.parametrize("shape", list(BACKBONE_CONVS))
    def test_backbone_grids(self, shape):
        x_shape, k_shape, stride, padding = self.BACKBONE_CONVS[shape]
        n = len(k_shape) - 2
        strides, pads = ((v,) * n if isinstance(v, int) else v for v in (stride, padding))
        out_dims, grid, computed = ad._conv_grid(x_shape[2:], k_shape[2:], strides, pads)
        assert (grid, computed * x_shape[0], np.prod(out_dims) * x_shape[0]) == self.BACKBONE_GRIDS[shape]

    @pytest.mark.parametrize(
        "x_shape,k_shape,stride,padding",
        [
            ((2, 2, 5, 6), (3, 2, 3, 3), 2, 1),  # padded extents 7 and 8: phase grids of unequal length
            ((2, 2, 3, 5, 6), (2, 2, 2, 3, 3), (1, 2, 2), 1),
            ((2, 2, 5, 5), (3, 2, 3, 2), 1, 0),
            ((2, 2, 3, 4, 4), (2, 2, 2, 3, 3), (2, 1, 2), 2),
            ((2, 3, 4, 5), (2, 3, 1, 1), 1, 0),  # one tap
            ((2, 3, 4, 5), (2, 3, 1, 1), 2, 1),
            ((1, 2, 3, 4, 4), (2, 2, 3, 3, 3), 1, 1),  # batch of one
            ((2, 5, 6), (3, 2, 3, 3), 2, 1),  # unbatched
            ((2, 3, 4, 4), (2, 2, 3, 3, 3), (1, 2, 2), 1),  # unbatched conv3d
            # kernel spans the padded width: one output column, whose last tap reads the grid's last column
            ((2, 2, 5, 6), (3, 2, 3, 8), 1, 1),
            ((3, 2, 3, 5, 6), (2, 2, 2, 3, 8), (1, 1, 2), 1),
            ((2, 2, 7, 7), (3, 2, 2, 2), 3, 1),  # stride greater than the kernel
            ((2, 2, 4, 7, 8), (2, 2, 1, 2, 2), (2, 3, 4), (0, 1, 1)),
        ],
    )
    def test_gradient_vs_finite_differences(self, x_shape, k_shape, stride, padding):
        conv = ad.conv3d if len(k_shape) == 5 else ad.conv2d
        rng = np.random.default_rng(89)
        x = Tensor(rng.normal(size=x_shape))
        k = Tensor(rng.normal(size=k_shape))
        w = rng.normal(size=conv(x, k, stride, padding).shape)
        # x-only, then k-only: the other operand needs no gradient
        fd_check(lambda t: ad.sum_(ad.mul(conv(t, k, stride, padding), w)), x, tol=1e-6)
        fd_check(lambda t: ad.sum_(ad.mul(conv(x, t, stride, padding), w)), k, tol=1e-6)
        y, gx, gk = _conv_with_grads(conv, x.data, k.data, stride, padding, w)
        ref = _conv_with_grads(reference_conv, x.data, k.data, stride, padding, w)
        for a, b in zip((y, gx, gk), ref):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    LAYOUT_CONVS = {
        "conv2d": ((3, 2, 7, 6), (3, 2, 3, 3), 2, 1),
        "conv3d": ((3, 2, 4, 5, 6), (4, 2, 3, 3, 3), (1, 2, 2), 1),
    }

    @pytest.mark.parametrize("shape", list(LAYOUT_CONVS))
    def test_result_does_not_depend_on_memory_layout(self, shape):
        x_shape, k_shape, stride, padding = self.LAYOUT_CONVS[shape]
        conv = ad.conv3d if len(k_shape) == 5 else ad.conv2d
        rng = np.random.default_rng(101)
        x = rng.normal(size=x_shape)
        k = rng.normal(size=k_shape)
        w = rng.normal(size=conv(Tensor(x), Tensor(k), stride, padding).shape)
        layouts = {
            "batch_innermost": np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0),
            "transposed": np.ascontiguousarray(x.T).T,
        }
        y, gx, gk = _conv_with_grads(conv, x, k, stride, padding, w)
        for name, view in layouts.items():
            assert not view.flags.c_contiguous and np.array_equal(view, x)
            y_v, gx_v, gk_v = _conv_with_grads(conv, view, k, stride, padding, w)
            assert np.array_equal(y_v, y), name
            for a, b in ((gx_v, gx), (gk_v, gk)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    def test_blocked_gather_builds_the_same_phase_buffer(self):
        # a C-contiguous x of more than _GATHER_BLOCK items is gathered block by
        # block, its batch-innermost copy in one pass
        x = np.random.default_rng(107).normal(size=(2 * ad._GATHER_BLOCK + 5, 3, 9, 8)).astype(np.float32)
        inner = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)
        args = ((2, 2), (1, 1), (6, 5), np.float32)
        assert ad._polyphase(x, *args).tobytes() == ad._polyphase(inner, *args).tobytes()

    @pytest.mark.parametrize("shape", list(LAYOUT_CONVS))
    def test_non_contiguous_upstream_gradient(self, shape):
        x_shape, k_shape, stride, padding = self.LAYOUT_CONVS[shape]
        conv = ad.conv3d if len(k_shape) == 5 else ad.conv2d
        rng = np.random.default_rng(103)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        k = Tensor(rng.normal(size=k_shape), requires_grad=True)
        tape = Tape()
        with tape:
            y = conv(x, k, stride, padding)
        g = rng.normal(size=y.shape)
        every_other = np.zeros((2 * g.shape[0], *g.shape[1:]))
        every_other[::2] = g
        views = {"strided": every_other[::2], "transposed": np.ascontiguousarray(g.T).T}
        gx, gk = tape.entries[0].backward_rule(np.ascontiguousarray(g))
        for name, view in views.items():
            assert not view.flags.c_contiguous and np.array_equal(view, g)
            gx_v, gk_v = tape.entries[0].backward_rule(view)
            for a, b in ((gx_v, gx), (gk_v, gk)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name

    @pytest.mark.parametrize("shape", list(LAYOUT_CONVS))
    def test_forward_and_backward_gather_x_once(self, shape, monkeypatch):
        # the backward rule reads the phase buffer its forward built
        x_shape, k_shape, stride, padding = self.LAYOUT_CONVS[shape]
        conv = ad.conv3d if len(k_shape) == 5 else ad.conv2d
        rng = np.random.default_rng(109)
        x, k = rng.normal(size=x_shape), rng.normal(size=k_shape)
        w = rng.normal(size=conv(Tensor(x), Tensor(k), stride, padding).shape)
        calls = []
        polyphase = ad._polyphase
        monkeypatch.setattr(ad, "_polyphase", lambda *a: calls.append(1) or polyphase(*a))
        _conv_with_grads(conv, x, k, stride, padding, w)
        assert len(calls) == 1

    def test_float32_input_with_float64_kernels_gives_float64(self):
        rng = np.random.default_rng(97)
        x = rng.normal(size=(2, 3, 6, 7)).astype(np.float32)
        k = rng.normal(size=(4, 3, 3, 3))
        xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
        tape = Tape()
        with tape:
            y = ad.conv2d(xt, kt, stride=2, padding=1)
            loss = ad.sum_(ad.mul(y, y))
        gx, gk = backward(loss, tape, [xt, kt])
        assert y.dtype == np.float64
        y64, gx64, gk64 = _conv_with_grads(ad.conv2d, x.astype(np.float64), k, 2, 1, 2 * y.data)
        assert np.array_equal(y.data, y64)
        assert gx.dtype == np.float32 and gk.dtype == np.float64
        assert np.allclose(gx, gx64, rtol=1e-6) and np.array_equal(gk, gk64)


def composite_conv(conv):
    """conv -> add(bias) -> relu as separate tape ops, the layer nn.Conv ran before the fused op."""

    def run(x, k, stride, padding, *, bias, relu):
        y = ad.add(conv(x, k, stride, padding), ad.reshape(bias, (-1,) + (1,) * (k.ndim - 2)))
        return ad.relu(y) if relu else y

    return run


def _fused_conv_with_grads(conv, x, k, b, stride, padding, relu, w):
    xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, k, b))
    tape = Tape()
    with tape:
        y = conv(xt, kt, stride, padding, bias=bt, relu=relu)
        loss = ad.sum_(ad.mul(y, w))
    return (y.data, *backward(loss, tape, [xt, kt, bt]))


class TestFusedConv:
    BACKBONE_CONVS = TestConvMatchesIm2colReference.BACKBONE_CONVS
    # max|fused - composite| / max|composite| of the bias gradient, a row sum
    # of the grid in place of einsum's order; measured at most 3.2e-7 and 8.8e-16
    GBIAS_TOL = {np.float32: 1e-6, np.float64: 1e-14}

    @staticmethod
    def _data(x_shape, k_shape, stride, padding, dtype, seed):
        conv = ad.conv3d if len(k_shape) == 5 else ad.conv2d
        rng = np.random.default_rng(seed)
        x = rng.normal(size=x_shape).astype(dtype)
        k = rng.normal(size=k_shape).astype(dtype)
        b = rng.normal(size=k_shape[:1]).astype(dtype)
        w = rng.normal(size=conv(Tensor(x), Tensor(k), stride, padding).shape).astype(dtype)
        return conv, x, k, b, w

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", list(BACKBONE_CONVS))
    def test_backbone_shapes_match_composite(self, shape, dtype, relu):
        # the epilogue adds the bias to the same sums the unfused op returns, and the
        # masked grid feeds the same GEMMs: y, gx and gk are bitwise those of the composite
        x_shape, k_shape, stride, padding = self.BACKBONE_CONVS[shape]
        conv, x, k, b, w = self._data(x_shape, k_shape, stride, padding, dtype, 83)
        fused = _fused_conv_with_grads(conv, x, k, b, stride, padding, relu, w)
        comp = _fused_conv_with_grads(composite_conv(conv), x, k, b, stride, padding, relu, w)
        for name, a, c in zip(("y", "gx", "gk"), fused, comp):
            assert a.dtype == dtype and a.tobytes() == c.tobytes(), name
        gb, gb_comp = fused[3], comp[3]
        assert gb.dtype == dtype and gb.shape == gb_comp.shape
        assert np.abs(gb - gb_comp).max() <= self.GBIAS_TOL[dtype] * np.abs(gb_comp).max()

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize(
        "x_shape,k_shape,stride,padding",
        [
            ((2, 3, 5, 6), (4, 3, 3, 3), 2, 1),
            ((2, 2, 3, 5, 6), (3, 2, 2, 3, 3), (1, 2, 2), 1),
            ((3, 5, 6), (2, 3, 2, 2), 1, 0),  # unbatched
            ((2, 2, 3, 4, 5), (3, 2, 3, 3, 3), 1, 1),  # H and W rows share their padding
        ],
    )
    def test_gradient_vs_finite_differences(self, x_shape, k_shape, stride, padding, relu):
        conv, x, k, b, w = self._data(x_shape, k_shape, stride, padding, np.float64, 113)
        x, k, b = Tensor(x), Tensor(k), Tensor(b)

        def loss(xt, kt, bt):
            return ad.sum_(ad.mul(conv(xt, kt, stride, padding, bias=bt, relu=relu), w))

        if relu:  # no pre-activation within the difference step of the kink
            pre = conv(x, k, stride, padding, bias=b).data
            assert np.abs(pre).min() > 1e-3 and (pre < 0).any()
        fd_check(lambda t: loss(t, k, b), x, tol=1e-6)
        fd_check(lambda t: loss(x, t, b), k, tol=1e-6)
        fd_check(lambda t: loss(x, k, t), b, tol=1e-6)

    @pytest.mark.parametrize(
        "x_shape,k_shape,stride,padding",
        [
            ((2, 3, 5, 6), (4, 3, 1, 1), 1, 0),  # one tap: one group shorter than G
            ((2, 3, 5, 6), (4, 3, 2, 2), 1, 1),  # 4 taps
            ((2, 3, 7, 8), (4, 3, 5, 5), 1, 2),  # 25 taps: 9, 9 and 7
            ((2, 1, 3, 5, 6), (2, 1, 2, 5, 5), (1, 2, 1), 2),  # C_in = 1: G = 27, 50 taps
            ((5, 3, 34, 33), (4, 3, 3, 3), 1, 1),  # 5940 columns: one full chunk and one of 1844
            ((3, 6, 7), (4, 3, 3, 3), 1, 1),  # unbatched
        ],
    )
    def test_tap_stacking_edge_cases(self, x_shape, k_shape, stride, padding):
        conv, x, k, b, w = self._data(x_shape, k_shape, stride, padding, np.float64, 127)
        fused = _fused_conv_with_grads(conv, x, k, b, stride, padding, True, w)
        ref = _fused_conv_with_grads(composite_conv(reference_conv), x, k, b, stride, padding, True, w)
        for name, a, c in zip(("y", "gx", "gk", "gbias"), fused, ref):
            assert a.shape == c.shape and np.abs(a - c).max() <= 1e-12 * np.abs(c).max(), name

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "x_shape,k_shape,stride,padding",
        [
            ((2, 3, 4, 5, 6), (4, 3, 3, 3, 3), 1, (1, 0, 1)),  # unpadded H between shared T and W
            ((2, 8, 5, 6), (4, 8, 2, 2), 1, 1),  # even kernel: the last tap reads index 0 of the next row
            ((2, 8, 5, 6), (4, 8, 3, 3), 1, 2),  # reads reach index 1 of the next row
            ((2, 3, 6, 7), (4, 3, 5, 5), 1, 2),
            ((2, 8, 4, 7, 8), (4, 8, 3, 3, 3), (1, 2, 2), 1),  # no shared axis
            ((2, 2, 5, 6, 7), (4, 2, 3, 3, 3), (2, 1, 1), 1),  # extra plane on a strided outermost axis
            ((2, 8, 4, 5, 8), (4, 8, 3, 3, 3), (1, 1, 2), 1),  # shared H rows, strided W
            ((8, 4, 5, 6), (4, 8, 3, 3, 3), 1, 1),  # unbatched
            ((8, 8, 4, 12, 12), (2, 8, 3, 3, 3), 1, 1),  # 5296 columns: two chunks
            # padding not below the kernel: a row of outputs is longer than a shared
            # row, so the rows keep their own padding
            ((2, 3, 4, 5), (2, 3, 1, 1), 1, 1),
            ((2, 2, 3, 4, 5), (3, 2, 2, 2, 2), 1, 2),
        ],
    )
    def test_shared_row_padding_matches_reference(self, x_shape, k_shape, stride, padding, dtype, relu):
        conv, x, k, b, w = self._data(x_shape, k_shape, stride, padding, dtype, 131)
        if relu:  # no pre-activation close enough to zero for rounding to flip its mask
            pre = reference_conv(Tensor(x), Tensor(k), stride, padding).data
            pre += b.reshape(-1, *(1,) * (len(k_shape) - 2))
            assert np.abs(pre).min() > 1e-5 * np.abs(pre).max()
        fused = _fused_conv_with_grads(conv, x, k, b, stride, padding, relu, w)
        ref = _fused_conv_with_grads(composite_conv(reference_conv), x, k, b, stride, padding, relu, w)
        tol = TestConvMatchesIm2colReference.TOL[dtype]
        for name, a, c in zip(("y", "gx", "gk", "gbias"), fused, ref):
            assert a.dtype == dtype and a.shape == c.shape, name
            assert np.abs(a - c).max() <= tol * np.abs(c).max(), name

    # (x shape, kernel shape, stride, padding, stacked once per call): convs whose
    # kernel rows run as one GEMM each over a per-call row stack, and one conv
    # just past the stack's _STACK_ROWS
    ROW_STACK_CONVS = {
        "24_rows": ((2, 8, 2, 3, 4), (2, 8, 3, 3, 3), 1, 1, True),
        "27_rows_unpadded": ((2, 9, 3, 3, 4), (2, 9, 2, 2, 3), 1, 0, True),
        "k_w_2_padding_2": ((2, 12, 3, 4), (3, 12, 2, 2), 1, 2, True),
        "30_rows_per_tap": ((2, 10, 2, 3, 4), (2, 10, 3, 3, 3), 1, 1, False),
        "strided_outer_t": ((2, 8, 4, 3, 4), (2, 8, 3, 3, 3), (2, 1, 1), 1, True),
        "strided_outer_h": ((2, 8, 2, 5, 4), (2, 8, 3, 3, 3), (1, 2, 1), 2, True),
        "unbatched": ((8, 3, 4), (3, 8, 3, 3), 1, 1, True),
    }
    # 5296 computed columns: the stack spans two column chunks
    TWO_CHUNKS = {"two_chunks": ((8, 9, 4, 12, 12), (3, 9, 3, 3, 3), 1, 1, True)}

    @classmethod
    def _row_stack_case(cls, case, dtype, seed):
        x_shape, k_shape, stride, padding, stacked = {**cls.ROW_STACK_CONVS, **cls.TWO_CHUNKS}[case]
        n = len(k_shape) - 2
        strides = (stride,) * n if isinstance(stride, int) else stride
        assert ad._tap_groups(k_shape[1], k_shape[2:], strides)[1] == stacked
        return (*cls._data(x_shape, k_shape, stride, padding, dtype, seed), stride, padding)

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", [*ROW_STACK_CONVS, *TWO_CHUNKS])
    def test_row_stack_matches_reference(self, case, dtype, relu):
        conv, x, k, b, w, stride, padding = self._row_stack_case(case, dtype, 137)
        if case in self.TWO_CHUNKS:
            assert ad._conv_grid(x.shape[2:], k.shape[2:], (1, 1, 1), (1, 1, 1))[2] * len(x) > ad._CONV_CHUNK
        if relu:  # no pre-activation close enough to zero for rounding to flip its mask
            pre = reference_conv(Tensor(x), Tensor(k), stride, padding).data
            pre += b.reshape(-1, *(1,) * (k.ndim - 2))
            assert np.abs(pre).min() > 1e-5 * np.abs(pre).max()
        fused = _fused_conv_with_grads(conv, x, k, b, stride, padding, relu, w)
        ref = _fused_conv_with_grads(composite_conv(reference_conv), x, k, b, stride, padding, relu, w)
        tol = TestConvMatchesIm2colReference.TOL[dtype]
        for name, a, c in zip(("y", "gx", "gk", "gbias"), fused, ref):
            assert a.dtype == dtype and a.shape == c.shape, name
            assert np.abs(a - c).max() <= tol * np.abs(c).max(), name

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("case", list(ROW_STACK_CONVS))
    def test_row_stack_gradient_vs_finite_differences(self, case, relu):
        conv, x, k, b, w, stride, padding = self._row_stack_case(case, np.float64, 139)
        x, k, b = Tensor(x), Tensor(k), Tensor(b)

        def loss(xt, kt, bt):
            return ad.sum_(ad.mul(conv(xt, kt, stride, padding, bias=bt, relu=relu), w))

        if relu:  # no pre-activation within the difference step of the kink
            pre = conv(x, k, stride, padding, bias=b).data
            assert np.abs(pre).min() > 1e-3 and (pre < 0).any()
        fd_check(lambda t: loss(t, k, b), x, tol=1e-6)
        fd_check(lambda t: loss(x, t, b), k, tol=1e-6)
        fd_check(lambda t: loss(x, k, t), b, tol=1e-6)

    @pytest.mark.parametrize(
        "c_in,ksize,strides,size,per_call",
        [
            (3, (3, 3), (1, 1), 9, False),  # thin: 27 // C_in taps, copied per chunk
            (3, (3, 3, 3), (1, 2, 2), 9, False),
            (3, (1, 1), (1, 1), 1, False),  # one group shorter than G
            (3, (2, 2), (1, 1), 4, False),
            (3, (5, 5), (1, 1), 9, False),  # 9, 9 and 7
            (8, (3, 3, 3), (1, 1, 1), 3, True),  # one kernel row per group: C_in * k_w = 24
            (9, (3, 3, 3), (1, 1, 1), 3, True),  # 27
            (12, (2, 2), (1, 1), 2, True),  # k_w = 2: 24
            (8, (3, 3, 3), (2, 1, 1), 3, True),  # strided outer axes, stride-1 inner axis
            (8, (3, 3, 3), (1, 2, 1), 3, True),
            (10, (3, 3, 3), (1, 1, 1), 1, False),  # 30 rows do not fit
            (8, (3, 3, 3), (1, 2, 2), 1, False),  # strided inner axis
            (8, (3, 3, 3), 2, 1, False),
            (8, (3, 1), (1, 1), 1, False),  # k_w = 1: nothing to stack
            (16, (3, 3, 3), (1, 1, 1), 1, False),
            (64, (3, 3), (1, 1), 1, False),
        ],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_tap_groups_cover_every_tap_once_in_order(self, c_in, ksize, strides, size, per_call):
        strides = (strides,) * len(ksize) if isinstance(strides, int) else strides
        groups, stacked_per_call = ad._tap_groups(c_in, ksize, strides)
        assert [i for grp in groups for i in grp] == list(range(int(np.prod(ksize))))
        assert all(len(grp) == size for grp in groups[:-1]) and 0 < len(groups[-1]) <= size
        assert stacked_per_call == per_call

    def test_bias_of_the_wrong_length_is_rejected(self):
        with pytest.raises(DimensionError, match="bias"):
            ad.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 3, 3, 3))), bias=Tensor(np.zeros(3)))

    def test_one_tape_entry_for_a_layer(self):
        from futuredistill import nn

        layer = nn.Conv(3, 4, (3, 3), 2, 1, np.random.default_rng(0), relu=True)
        x = Tensor(np.ones((2, 3, 6, 6), dtype=np.float32), requires_grad=True)
        tape = Tape()
        with tape:
            y = layer(x)
        assert len(tape) == 1 and tape.entries[0].inputs == (x, layer.kernels, layer.bias)
        assert y.data.min() >= 0


class TestRecurrentStep:
    def test_zero_weights_zero_output(self):
        h, c = ad.recurrent_step(
            Tensor(np.ones(3)),
            Tensor(np.zeros(2)),
            Tensor(np.zeros(2)),
            Tensor(np.zeros((3, 8))),
            Tensor(np.zeros((2, 8))),
            Tensor(np.zeros(8)),
        )
        assert np.array_equal(h.data, np.zeros(2))
        assert np.array_equal(c.data, np.zeros(2))

    def test_unit_weights_scalar_hand_computation(self):
        # d_in = d_h = 1, all weights/bias 1, x = 0.5, h = c = 0:
        # z = 0.5 + 0 + 1 = 1.5 for each gate; i = f = o = sigmoid(1.5), g = tanh(1.5)
        # c' = i*g, h' = o*tanh(c')
        sig, tnh = 1.0 / (1.0 + np.exp(-1.5)), np.tanh(1.5)
        c_expect = sig * tnh
        h_expect = sig * np.tanh(c_expect)
        h, c = ad.recurrent_step(
            Tensor(np.array([0.5], dtype=np.float64)),
            Tensor(np.zeros(1, dtype=np.float64)),
            Tensor(np.zeros(1, dtype=np.float64)),
            Tensor(np.ones((1, 4), dtype=np.float64)),
            Tensor(np.ones((1, 4), dtype=np.float64)),
            Tensor(np.ones(4, dtype=np.float64)),
        )
        assert c.data[0] == pytest.approx(c_expect, rel=1e-12)
        assert h.data[0] == pytest.approx(h_expect, rel=1e-12)

    def test_h_bounded(self):
        rng = np.random.default_rng(2)
        h, _ = ad.recurrent_step(
            Tensor(rng.normal(size=(4, 3)) * 10),
            Tensor(rng.normal(size=(4, 2))),
            Tensor(rng.normal(size=(4, 2))),
            Tensor(rng.normal(size=(3, 8)) * 10),
            Tensor(rng.normal(size=(2, 8)) * 10),
            Tensor(rng.normal(size=8)),
        )
        assert np.all(np.abs(h.data) < 1.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            ad.recurrent_step(
                Tensor(np.zeros(3)),
                Tensor(np.zeros(2)),
                Tensor(np.zeros(2)),
                Tensor(np.zeros((3, 6))),
                Tensor(np.zeros((2, 8))),
                Tensor(np.zeros(8)),
            )

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        wx = Tensor(rng.normal(size=(3, 8)))
        wh = Tensor(rng.normal(size=(2, 8)))
        b = Tensor(rng.normal(size=8))
        h0 = Tensor(np.zeros((4, 2), dtype=np.float64))
        c0 = Tensor(rng.normal(size=(4, 2)))

        def f(t):
            h, c = ad.recurrent_step(t, h0, c0, wx, wh, b)
            return ad.add(ad.sum_(ad.mul(h, h)), ad.sum_(c))

        fd_check(f, Tensor(rng.normal(size=(4, 3))), tol=1e-4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_masked_two_branch_form(dtype):
    # the form sigmoid had before it read both branches from one exp(-|x|)
    x = np.random.default_rng(97).normal(size=20000) * np.logspace(-3, 3, 20000)
    x = np.concatenate([x, [0.0, -0.0, 88.7, -88.7, 745.2, -745.2, np.inf, -np.inf]]).astype(dtype)
    y = np.empty_like(x)
    pos = x >= 0
    with np.errstate(over="ignore", under="ignore"):
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        assert ad._sigmoid(x).tobytes() == y.tobytes()


class TestLstmSequence:
    @pytest.mark.parametrize("batch", [1, 3])
    def test_gradients_vs_finite_differences(self, batch):
        rng = np.random.default_rng(83)
        d_in, d_h, steps = 3, 2, 4
        args = {
            "xs": Tensor(rng.normal(size=(batch, steps, d_in))),
            "w_x": Tensor(rng.normal(size=(d_in, 4 * d_h))),
            "w_h": Tensor(rng.normal(size=(d_h, 4 * d_h))),
            "bias": Tensor(rng.normal(size=4 * d_h)),
        }
        w = Tensor(rng.normal(size=(batch, d_h)))
        for name in args:
            def f(t, name=name):
                h = ad.lstm_sequence(**{**args, name: t})
                return ad.sum_(ad.mul(ad.mul(h, h), w))

            fd_check(f, args[name], tol=1e-6)

    def test_dim_mismatch(self):
        xs = Tensor(np.zeros((2, 3, 4)))
        w_x, w_h, bias = Tensor(np.zeros((4, 8))), Tensor(np.zeros((2, 8))), Tensor(np.zeros(8))
        for bad in (
            (xs[0], w_x, w_h, bias),
            (xs[:, :0], w_x, w_h, bias),
            (xs, Tensor(np.zeros((3, 8))), w_h, bias),
            (xs, w_x, Tensor(np.zeros((2, 6))), bias),
            (xs, w_x, w_h, Tensor(np.zeros(6))),
        ):
            with pytest.raises(DimensionError):
                ad.lstm_sequence(*bad)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        y = ad.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(y.data, 1.0 / 3.0)

    def test_saturation_is_stable(self):
        y = ad.softmax(Tensor([1000.0, 0.0]))
        assert abs(y.data[0] - 1.0) < 1e-12
        assert abs(y.data[1]) < 1e-12
        assert np.all(np.isfinite(y.data))

    def test_direct_evaluation(self):
        y = ad.softmax(Tensor([1.0, 2.0, 3.0]))
        assert np.allclose(y.data, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ad.softmax(Tensor([1.0]), temperature=0.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        st.floats(-30, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        z = np.array(logits, dtype=np.float64)
        y = ad.softmax(Tensor(z)).data
        y_shifted = ad.softmax(Tensor(z + shift)).data
        assert abs(y.sum() - 1.0) < 1e-9
        assert np.all(y > 0)
        assert np.max(np.abs(y - y_shifted)) < 1e-12

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        w = Tensor(np.arange(5.0, dtype=np.float64))

        def f(t):
            return ad.sum_(ad.mul(ad.softmax(t, temperature=0.7), w))

        fd_check(f, Tensor(rng.normal(size=(3, 5))), tol=1e-5)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.sum_(x)
        (gx,) = backward(loss, tape, [x])
        assert np.array_equal(gx, np.ones((2, 3), dtype=np.float32))

    def test_zero_times_anything_gives_zeros(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.mul(ad.sum_(ad.mul(x, x)), 0.0)
        (gx,) = backward(loss, tape, [x])
        assert np.array_equal(gx, np.zeros(3, dtype=np.float32))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        tape = Tape()
        with tape:
            y = ad.mul(x, 2.0)
        with pytest.raises(UsageError):
            backward(y, tape, [x])

    def test_repeated_calls_return_equal_distinct_arrays(self):
        x = Tensor(np.ones(4), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.sum_(ad.mul(x, 3.0))
        (first,), (second,) = backward(loss, tape, [x]), backward(loss, tape, [x])
        assert np.array_equal(first, 3.0 * np.ones(4, dtype=np.float32))
        assert np.array_equal(first, second) and first is not second
        first += 1.0
        assert np.array_equal(second, 3.0 * np.ones(4, dtype=np.float32))

    def test_nested_tapes_pop_the_tape_that_exits(self):
        # both tapes are empty, so equal by value, when the inner one exits
        x = Tensor(np.ones(2), requires_grad=True)
        with Tape() as outer:
            with Tape() as inner:
                pass
            ad.mul(x, 3.0)
        assert (len(outer), len(inner)) == (1, 0)
        assert ad._TAPE_STACK == []

    def test_leaf_and_intermediate_get_gradients_and_a_tensor_off_the_tape_none(self):
        x = Tensor(np.ones(4), requires_grad=True)
        off_tape = Tensor(np.ones(4), requires_grad=True)
        tape = Tape()
        with tape:
            y = ad.mul(x, 2.0)
            loss = ad.sum_(y)
        gx, gy, g_off = backward(loss, tape, [x, y, off_tape])
        assert np.array_equal(gx, np.full(4, 2.0, dtype=np.float32))
        assert np.array_equal(gy, np.ones(4, dtype=np.float32)) and g_off is None

    def test_tensor_holds_no_gradient_state(self):
        assert Tensor.__slots__ == ("data", "requires_grad")

    def test_fanout_sums_both_consumers(self):
        # y feeds two consumers; grad must be the sum of both paths
        rng = np.random.default_rng(17)
        a = Tensor(rng.normal(size=(2, 3)))

        def f(t):
            y = ad.mul(t, 2.0)
            return ad.add(ad.sum_(ad.mul(y, y)), ad.sum_(ad.mul(y, 3.0)))

        fd_check(f, a, tol=1e-6)

    def test_two_layer_net_all_params(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float64))
        w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True, dtype=np.float64)
        b1 = Tensor(rng.normal(size=5), requires_grad=True, dtype=np.float64)
        w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True, dtype=np.float64)
        b2 = Tensor(rng.normal(size=2), requires_grad=True, dtype=np.float64)
        params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}

        def net_loss():
            h = ad.tanh(ad.add(ad.matmul(x, w1), b1))
            out = ad.add(ad.matmul(h, w2), b2)
            return ad.sum_(ad.mul(out, out))

        tape = Tape()
        with tape:
            loss = net_loss()
        grads = dict(zip(params, backward(loss, tape, list(params.values()))))
        for name, p in params.items():
            def f(t, p=p):
                saved = p.data
                p.data = t.data
                try:
                    return net_loss()
                finally:
                    p.data = saved
            fd = finite_difference_gradient(f, p)
            assert max_relative_error(fd.data, grads[name]) < 1e-4, name


# add and mul as they were before their rules skipped constant operands:
# both gradients are always computed, and backward() discards the unused one.


def _reference_binary(forward, rule):
    def op(a, b):
        a = ad._as_tensor(a)
        b = ad._as_tensor(b, like=a)
        out = Tensor(forward(a.data, b.data))

        def both(g):
            ga, gb = rule(g, a.data, b.data)
            return ad._unbroadcast(ga, a.data.shape), ad._unbroadcast(gb, b.data.shape)

        ad._record(out, (a, b), both)
        return out

    return op


REFERENCE_BINARY = {
    "add": _reference_binary(np.add, lambda g, a, b: (g, g)),
    "mul": _reference_binary(np.multiply, lambda g, a, b: (g * b, g * a)),
}


class TestConstantOperands:
    @pytest.mark.parametrize("name", ["add", "mul"])
    def test_rule_returns_none_for_the_constant(self, name):
        x = Tensor(np.full((3, 4), 2.0), requires_grad=True)
        c = Tensor(np.full(4, 0.5))
        for args, const in (((x, c), 1), ((c, x), 0)):
            tape = Tape()
            with tape:
                y = getattr(ad, name)(*args)
            grads = tape.entries[0].backward_rule(np.ones_like(y.data))
            assert grads[const] is None and grads[1 - const].shape == (3, 4)

    @pytest.mark.parametrize("family,loss", [("TemporalTransformer", "cross_entropy"), ("Conv2dRecurrent", "cosine")])
    def test_pretrain_step_gradients_are_bitwise_unchanged(self, family, loss, monkeypatch):
        from futuredistill import nn
        from futuredistill.distill import DistillConfig, DistillModel, fpd_loss
        from futuredistill.models import BackboneSpec, build_backbone

        def step_grads():
            spec = BackboneSpec(family=family, frames=6, embed_dim=16, frame_size=16, recurrent_hidden=16)
            student = DistillModel(build_backbone(spec, 0), nn.Mlp(16, np.random.default_rng(0)))
            rng = np.random.default_rng(83)
            clips = Tensor(rng.normal(size=(2, 6, 3, 16, 16)).astype(np.float32))
            teacher = rng.normal(size=(2, 16)).astype(np.float32)
            tape = Tape()
            with tape:
                out = fpd_loss(student.forward(clips), teacher, DistillConfig(t=6, t_pred=6, loss_variant=loss))
            return [g.tobytes() for g in backward(out, tape, student.parameters())]

        skipped = step_grads()
        for name, op in REFERENCE_BINARY.items():
            monkeypatch.setattr(ad, name, op)
        assert step_grads() == skipped


class TestSgd:
    def test_plain_step_arithmetic(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        sgd_step([p], [np.array([0.5], dtype=np.float32)], SgdState(learning_rate=0.1))
        assert p.data[0] == pytest.approx(0.95)

    def test_zero_grad_leaves_param(self):
        p = Tensor(np.array([2.5], dtype=np.float32), requires_grad=True)
        sgd_step([p], [np.zeros(1, dtype=np.float32)], SgdState(learning_rate=0.1))
        assert p.data[0] == 2.5

    def test_plain_step_is_bitwise(self):
        rng = np.random.default_rng(23)
        vals = rng.normal(size=10).astype(np.float32)
        grads = rng.normal(size=10).astype(np.float32)
        p1 = Tensor(vals.copy(), requires_grad=True)
        p2 = Tensor(vals.copy(), requires_grad=True)
        sgd_step([p1], [grads], SgdState(learning_rate=0.05))
        sgd_step([p2], [grads], SgdState(learning_rate=0.05))
        assert p1.data.tobytes() == p2.data.tobytes()
        expect = vals - np.float32(0.05) * grads
        assert p1.data.tobytes() == expect.tobytes()

    def test_momentum_matches_hand_unroll(self):
        lr, mu = 0.1, 0.9
        g1 = np.array([0.5], dtype=np.float32)
        g2 = np.array([-0.2], dtype=np.float32)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        state = SgdState(learning_rate=lr, momentum=mu)
        sgd_step([p], [g1], state)
        sgd_step([p], [g2], state)
        v1 = g1.copy()
        p_hand = 1.0 - lr * v1
        v2 = mu * v1 + g2
        p_hand = p_hand - lr * v2
        assert p.data[0] == pytest.approx(p_hand[0], rel=1e-7)

    def test_momentum_updates_in_place_bitwise_as_out_of_place(self):
        rng = np.random.default_rng(137)
        lr, mu = 0.05, 0.9
        p = Tensor(rng.normal(size=(4, 6)).astype(np.float32), requires_grad=True)
        data, ref_p, ref_v = p.data, p.data.copy(), None
        state = SgdState(learning_rate=lr, momentum=mu)
        grads = [rng.normal(size=(4, 6)).astype(np.float32) for _ in range(3)]
        saved = [g.copy() for g in grads]
        for g in grads:
            sgd_step([p], [g], state)
            ref_v = g.copy() if ref_v is None else mu * ref_v + g
            ref_p = ref_p - np.float32(lr) * ref_v
            assert p.data is data
            assert p.data.tobytes() == ref_p.tobytes()
            assert state.velocities[0].tobytes() == ref_v.tobytes()
        # the first velocity is a copy, so later in-place momentum steps leave every gradient as passed
        for g, g0 in zip(grads, saved):
            assert g.tobytes() == g0.tobytes()
            assert not np.shares_memory(g, state.velocities[0])

    def test_nan_grad_aborts(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        with pytest.raises(DivergenceError):
            sgd_step([p], [np.array([np.nan], dtype=np.float32)], SgdState(learning_rate=0.1))
        assert p.data[0] == 1.0  # step aborted before mutation

    def test_missing_grad_names_the_parameter(self):
        params = [Tensor(np.ones(2, dtype=np.float32), requires_grad=True) for _ in range(3)]
        grads = [np.ones(2, dtype=np.float32), np.ones(2, dtype=np.float32), None]
        with pytest.raises(UsageError, match="parameter 2"):
            sgd_step(params, grads, SgdState(learning_rate=0.1))
        assert all(np.array_equal(p.data, np.ones(2)) for p in params)  # no parameter was stepped


class TestFiniteDifferences:
    def test_square_at_three(self):
        g = finite_difference_gradient(lambda t: ad.mul(t, t), Tensor(np.array([3.0])), eps=1e-4)
        assert g.data[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_function(self):
        g = finite_difference_gradient(lambda t: Tensor(np.array(7.0)), Tensor(np.zeros(4)))
        assert np.array_equal(g.data, np.zeros(4))

    def test_non_finite_objective_raises(self):
        def f(t):
            return Tensor(np.sqrt(t.data))  # sqrt of negative -> nan

        with np.errstate(invalid="ignore"), pytest.raises(OracleError):
            finite_difference_gradient(f, Tensor(np.array([-1.0])))


class TestStructuralOps:
    def test_layer_norm_gradient(self):
        rng = np.random.default_rng(29)
        gain = Tensor(rng.normal(size=6))
        bias = Tensor(rng.normal(size=6))

        def f(t):
            return ad.sum_(ad.mul(ad.layer_norm(t, gain, bias), ad.layer_norm(t, gain, bias)))

        fd_check(f, Tensor(rng.normal(size=(3, 6))), tol=1e-4)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((5, 7), dtype=np.float64))
        labels = np.array([0, 1, 2, 3, 4])
        loss = ad.cross_entropy(logits, labels)
        assert loss.item() == pytest.approx(np.log(7.0), abs=1e-9)

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(31)
        labels = np.array([0, 2, 1, 2])
        fd_check(lambda t: ad.cross_entropy(t, labels), Tensor(rng.normal(size=(4, 3))), tol=1e-5)

    def test_gelu_gradient(self):
        rng = np.random.default_rng(41)
        fd_check(lambda t: ad.sum_(ad.mul(ad.gelu(t), 1.3)), Tensor(rng.normal(size=(2, 5))), tol=1e-5)

    def test_conv2d_gradient(self):
        rng = np.random.default_rng(43)
        k = Tensor(rng.normal(size=(3, 2, 3, 3)))

        def f(t):
            return ad.sum_(ad.mul(ad.conv2d(t, k, stride=2, padding=1), 0.7))

        fd_check(f, Tensor(rng.normal(size=(2, 2, 6, 6))), tol=1e-4)

        # unbatched [C, H, W] input, per-axis stride and padding; both gradients
        x = Tensor(rng.normal(size=(2, 5, 6)))

        def loss_x(t):
            return ad.sum_(ad.mul(ad.conv2d(t, k, stride=(1, 2), padding=(0, 1)), 0.7))

        def loss_k(t):
            return ad.sum_(ad.mul(ad.conv2d(x, t, stride=(1, 2), padding=(0, 1)), 0.7))

        fd_check(loss_x, x, tol=1e-4)
        fd_check(loss_k, k, tol=1e-4)

    def test_forward_outputs_finite_on_finite_inputs(self):
        rng = np.random.default_rng(47)
        x = Tensor(rng.normal(size=(3, 4)) * 100)
        for out in (
            ad.softmax(x),
            ad.cross_entropy(x, np.array([0, 1, 3])),
            ad.cross_entropy(x, np.full((3, 4), 0.25), temperature=0.1),
            ad.sigmoid(ad.mul(x, 100.0)),
            ad.tanh(x),
            ad.gelu(x),
            ad.relu(x),
        ):
            assert np.all(np.isfinite(out.data))


def _batch_innermost(a):
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


def _stride_order(a):
    return tuple(np.argsort(a.strides, kind="stable"))


class TestReshapeGradientLayout:
    """reshape's backward returns g in the input's memory layout when a view allows it."""

    def _grad(self, a, shape, g):
        t = Tensor(a, requires_grad=True)
        tape = Tape()
        with tape:
            ad.reshape(t, shape)
        return tape.entries[0].backward_rule(g)[0]

    @pytest.mark.parametrize(
        "layout,shape",
        [
            ("batch_innermost", (6, 3, 2, 2, 2, 2)),  # the 2x2 pool's split
            ("batch_innermost", (6, 48)),  # the encoder's flatten: C, H, W stay in memory order
            ("transposed", (2, 3, 3, 4, 4)),  # split of the outermost-logical axis
        ],
    )
    def test_gradient_keeps_the_input_layout_when_a_view_exists(self, layout, shape):
        rng = np.random.default_rng(113)
        base = rng.normal(size=(6, 3, 4, 4))
        a = _batch_innermost(base) if layout == "batch_innermost" else np.ascontiguousarray(base.T).T
        g = rng.normal(size=shape)
        ga = self._grad(a, shape, g)
        assert not a.flags.c_contiguous
        assert np.array_equal(ga, g.reshape(a.shape))
        assert _stride_order(ga) == _stride_order(a)

    @pytest.mark.parametrize(
        "make_a,shape",
        [
            (lambda b: np.ascontiguousarray(b.T).T, (6, 48)),  # merges a transposed pair of axes
            (lambda b: np.transpose(b, (0, 2, 1, 3)), (6, 48)),  # attention's head merge
            (lambda b: b, (6, 48)),  # C-contiguous input
        ],
        ids=["transposed_merge", "swapped_merge", "c_contiguous"],
    )
    def test_gradient_falls_back_to_c_order(self, make_a, shape):
        rng = np.random.default_rng(127)
        a = make_a(rng.normal(size=(6, 4, 3, 4)))
        g = rng.normal(size=shape)
        ga = self._grad(a, shape, g)
        assert np.array_equal(ga, g.reshape(a.shape))
        assert ga.flags.c_contiguous

    def test_gradient_through_non_contiguous_reshape_vs_finite_differences(self):
        rng = np.random.default_rng(131)
        w_pool = rng.normal(size=(3, 16))
        w_flat = rng.normal(size=(3, 64))

        def pooled(t):
            # a batch-innermost activation, 2x2-pooled as in models._pool2x2
            x = ad.transpose(ad.relu(ad.mul(t, 1.5)), (3, 0, 1, 2))  # [B, C, H, W] view of [C, H, W, B]
            y = ad.mean(ad.reshape(x, (3, 4, 2, 2, 2, 2)), axis=(-3, -1))
            return ad.sum_(ad.mul(ad.reshape(y, (3, 16)), w_pool))

        def merged(t):
            # transposed pair merged: no view, the C-order fallback
            return ad.sum_(ad.mul(ad.reshape(ad.transpose(t, (3, 0, 2, 1)), (3, -1)), w_flat))

        x = Tensor(rng.normal(size=(4, 4, 4, 3)))
        fd_check(pooled, x, tol=1e-6)
        fd_check(merged, x, tol=1e-6)


class TestUnbroadcast:
    """_unbroadcast reduces every broadcast axis in one float32 sum.

    Its summation order is numpy's, so each element is held to a float64
    np.sum reference within sqrt(n) * eps32 * sum(|g|), n the terms it sums.
    """

    @pytest.mark.parametrize(
        "g_shape,shape,batch_innermost",
        [
            ((16, 8, 6, 16, 16), (8, 1, 1, 1), True),  # Conv3dResidual bias, t = 6, B = 16
            ((16, 8, 6, 16, 16), (8, 1, 1, 1), False),
            ((16, 12, 64), (64,), False),  # a [B, T, d] activation's bias or layer_norm gain
            ((64, 12, 64), (64,), False),
            ((4, 5), (), False),  # a broadcast scalar
        ],
        ids=["conv_bias_batch_innermost", "conv_bias_c_order", "btd_bias", "btd_bias_b64", "scalar"],
    )
    def test_matches_a_float64_sum(self, g_shape, shape, batch_innermost):
        rng = np.random.default_rng(137)
        g = (rng.normal(size=g_shape) + 1.0).astype(np.float32)  # an offset makes the sum large
        if batch_innermost:
            g = _batch_innermost(g)
        got = ad._unbroadcast(g, shape)
        assert got.shape == shape and got.dtype == np.float32
        lead = g.ndim - len(shape)
        axes = (*range(lead), *(lead + ax for ax, n in enumerate(shape) if n == 1))
        ref = g.astype(np.float64).sum(axis=axes, keepdims=True).reshape(shape)
        scale = np.abs(g.astype(np.float64)).sum(axis=axes, keepdims=True).reshape(shape)
        n = g.size // max(1, got.size)
        assert np.all(np.abs(got - ref) <= np.sqrt(n) * np.finfo(np.float32).eps * scale)

    def test_same_shape_is_returned_as_is(self):
        g = np.ones((3, 4), dtype=np.float32)
        assert ad._unbroadcast(g, (3, 4)) is g

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    def test_broadcast_operand_gradient(self, op):
        rng = np.random.default_rng(139)
        x = Tensor(rng.normal(size=(3, 4, 2, 5)))
        w = Tensor(rng.normal(size=(3, 4, 2, 5)))
        b = Tensor(rng.normal(size=(4, 1, 1)) + 3.0)  # leading and size-1 axes broadcast

        fd_check(lambda t: ad.sum_(ad.mul(op(x, t), w)), b, tol=1e-6)
        fd_check(lambda t: ad.sum_(ad.mul(op(t, b), w)), x, tol=1e-6)

    def test_batched_matmul_weight_gradient(self):
        rng = np.random.default_rng(149)
        x = Tensor(rng.normal(size=(3, 4, 5)))
        w = Tensor(rng.normal(size=(3, 4, 2)))
        fd_check(lambda t: ad.sum_(ad.mul(ad.matmul(x, t), w)), Tensor(rng.normal(size=(5, 2))), tol=1e-6)


class TestFusedOpOracles:
    """Finite-difference oracles for the single-entry layer_norm and gelu, and for getitem."""

    def test_layer_norm_gain_and_bias_gradients(self):
        rng = np.random.default_rng(53)
        x = Tensor(rng.normal(size=(2, 3, 5)))
        gain = Tensor(rng.normal(size=5))
        bias = Tensor(rng.normal(size=5))
        w = Tensor(rng.normal(size=(2, 3, 5)))

        fd_check(lambda t: ad.sum_(ad.mul(ad.gelu(ad.layer_norm(x, t, bias)), w)), gain, tol=1e-5)
        fd_check(lambda t: ad.sum_(ad.mul(ad.gelu(ad.layer_norm(x, gain, t)), w)), bias, tol=1e-5)

    def test_layer_norm_input_without_grad(self):
        rng = np.random.default_rng(59)
        x = Tensor(rng.normal(size=(4, 6)))
        gain = Tensor(rng.normal(size=6), requires_grad=True, dtype=np.float64)
        bias = Tensor(rng.normal(size=6), requires_grad=True, dtype=np.float64)
        tape = Tape()
        with tape:
            y = ad.layer_norm(x, gain, bias)
            loss = ad.sum_(ad.mul(y, y))
        (rule_out,) = [e.backward_rule(np.ones_like(y.data)) for e in tape.entries if e.output is y]
        assert rule_out[0] is None
        gx, *grads = backward(loss, tape, [x, gain, bias])
        assert gx is None
        for p, grad in zip((gain, bias), grads):
            def f(t, p=p):
                saved = p.data
                p.data = t.data
                try:
                    return ad.sum_(ad.mul(ad.layer_norm(x, gain, bias), ad.layer_norm(x, gain, bias)))
                finally:
                    p.data = saved

            assert max_relative_error(finite_difference_gradient(f, p).data, grad) < 1e-6

    @pytest.mark.parametrize("x_shape,gain_shape", [((4, 6), (1, 6)), ((4, 6), (4,)), ((), ())])
    def test_layer_norm_rejects_gain_and_bias_not_of_width_d(self, x_shape, gain_shape):
        with pytest.raises(DimensionError, match="layer_norm"):
            ad.layer_norm(Tensor(np.ones(x_shape)), Tensor(np.ones(gain_shape)), Tensor(np.zeros(x_shape[-1:])))

    @pytest.mark.parametrize("center", [-8.0, 8.0])
    def test_gelu_gradient_at_tails(self, center):
        rng = np.random.default_rng(61)
        x = Tensor(center + rng.uniform(-0.5, 0.5, size=(2, 4)))
        fd_check(lambda t: ad.sum_(ad.mul(ad.gelu(t), 1.3)), x, tol=1e-6)

    def test_gelu_keeps_float32(self):
        x = Tensor(np.linspace(-9, 9, 12, dtype=np.float32), requires_grad=True)
        tape = Tape()
        with tape:
            y = ad.gelu(x)
            loss = ad.sum_(y)
        (gx,) = backward(loss, tape, [x])
        assert y.dtype == np.float32 and gx.dtype == np.float32
        assert np.all(np.isfinite(gx))

    @pytest.mark.parametrize(
        "idx",
        [1, -1, slice(None, None, 2), slice(3, 0, -2), Ellipsis, (Ellipsis, 1), (slice(1, None), -2, slice(None, None, 3))],
        ids=["int", "negative_int", "stepped_slice", "reversed_slice", "ellipsis", "ellipsis_int", "mixed_tuple"],
    )
    def test_getitem_basic_index_gradient(self, idx):
        rng = np.random.default_rng(67)
        x = Tensor(rng.normal(size=(4, 3, 5)))
        fd_check(lambda t: ad.sum_(ad.mul(t[idx], t[idx])), x, tol=1e-6)

    def test_getitem_repeated_advanced_index_accumulates(self):
        rng = np.random.default_rng(71)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
        tape = Tape()
        with tape:
            loss = ad.sum_(x[[0, 0, 2]])
        (gx,) = backward(loss, tape, [x])
        assert np.array_equal(gx, np.array([[2.0] * 3, [0.0] * 3, [1.0] * 3, [0.0] * 3]))
        fd_check(lambda t: ad.sum_(ad.mul(t[[0, 0, 2]], t[[0, 0, 2]])), x, tol=1e-6)
        rows = (np.array([1, 3, 1]), np.array([2, 0, 2]))
        fd_check(lambda t: ad.sum_(ad.mul(t[rows], t[rows])), x, tol=1e-6)

    @pytest.mark.parametrize(
        "idx", [True, [0, 1], np.array([0, 1]), (slice(None), [1, 2]), (0, np.array([1])), np.array([True, False, True, True])]
    )
    def test_getitem_bool_and_array_index_gradient(self, idx):
        rng = np.random.default_rng(73)
        x = Tensor(rng.normal(size=(4, 3, 5)))
        fd_check(lambda t: ad.sum_(ad.mul(t[idx], t[idx])), x, tol=1e-6)


class TestCosineSimilarity:
    """The single-entry per-row cosine: finite differences, zero rows and the clip."""

    @pytest.mark.parametrize("operand", [0, 1])
    def test_gradient_vs_finite_differences_with_a_zero_row_in_each_operand(self, operand):
        rng = np.random.default_rng(151)
        a, b = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        a[1] = 0.0
        b[3] = 0.0
        w = Tensor(rng.normal(size=5))
        x = Tensor((a, b)[operand].copy(), requires_grad=True)

        def f(t):
            args = (t, Tensor(b)) if operand == 0 else (Tensor(a), t)
            return ad.sum_(ad.mul(ad.cosine_similarity(*args), w))

        tape = Tape()
        with tape:
            loss = f(x)
        (gx,) = backward(loss, tape, [x])
        fd = finite_difference_gradient(f, x)
        # the cosine jumps where a perturbation leaves x's own zero row, so that row is left out of
        # the comparison; its gradient and the one of the row paired with the other zero row are zero
        own_zero, paired_zero = (1, 3) if operand == 0 else (3, 1)
        kept = np.arange(5) != own_zero
        assert not gx[own_zero].any() and not gx[paired_zero].any()
        assert max_relative_error(fd.data[kept], gx[kept]) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_clip_engaged_on_a_parallel_pair_gives_zero_gradient(self, dtype, sign):
        rng = np.random.default_rng(157)
        for _ in range(1000):  # a parallel pair whose quotient rounds past +-1
            a = rng.normal(size=(1, 8)).astype(dtype)
            b = (sign * 3.0 * a).astype(dtype)
            quotient = (a * b).sum() / (np.sqrt((a * a).sum()) * np.sqrt((b * b).sum()))
            if abs(quotient) > 1.0:
                break
        else:
            pytest.fail("no parallel pair rounds past the clip")
        other = rng.normal(size=(1, 8)).astype(dtype)
        x = Tensor(np.vstack([a, other]), requires_grad=True)
        y = Tensor(np.vstack([b, other[:, ::-1]]), requires_grad=True)
        tape = Tape()
        with tape:
            cos = ad.cosine_similarity(x, y)
            loss = ad.sum_(cos)
        gx, gy = backward(loss, tape, [x, y])
        assert cos.data[0] == sign and abs(cos.data[0]) <= 1.0
        assert not gx[0].any() and not gy[0].any()
        assert gx[1].any() and gy[1].any()

    def test_constant_operand_gets_none_and_shapes_must_match(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        c = Tensor(np.full((2, 3), 0.5))
        for args, const in (((x, c), 1), ((c, x), 0)):
            tape = Tape()
            with tape:
                y = ad.cosine_similarity(*args)
            grads = tape.entries[0].backward_rule(np.ones_like(y.data))
            assert grads[const] is None and grads[1 - const].shape == (2, 3)
        with pytest.raises(DimensionError):
            ad.cosine_similarity(x, Tensor(np.ones((2, 4))))
        with pytest.raises(DimensionError):
            ad.cosine_similarity(Tensor(np.ones(3)), Tensor(np.ones(3)))


class TestCrossEntropy:
    """The single-entry cross-entropy: finite differences and argument checks."""

    def test_soft_target_gradient_vs_finite_differences_on_3d_logits(self):
        rng = np.random.default_rng(163)
        p = rng.dirichlet(np.ones(5), size=(2, 3))
        fd_check(lambda t: ad.cross_entropy(t, p, temperature=0.1), Tensor(rng.normal(size=(2, 3, 5)) * 0.3), eps=1e-6)

    def test_target_of_the_wrong_shape_raises(self):
        logits = Tensor(np.zeros((4, 3, 5)))
        for target in (
            np.zeros((4, 3, 5), dtype=np.int64),  # labels need the shape without the class axis
            np.zeros(12, dtype=np.int64),
            np.full((4, 3), 0.2),  # probabilities need the logits' shape
            np.full((4, 15), 1.0 / 15),
        ):
            with pytest.raises(DimensionError):
                ad.cross_entropy(logits, target)
        with pytest.raises(DimensionError):
            ad.cross_entropy(Tensor(np.float64(1.0)), np.int64(0))

    @pytest.mark.parametrize("temperature", [0.0, -0.1])
    def test_non_positive_temperature_raises(self, temperature):
        with pytest.raises(ConfigurationError):
            ad.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]), temperature=temperature)


# The layer_norm and gelu that autodiff composed from primitives before each
# became one tape entry; kept as the reference for outputs and gradients.


def _reference_powi(a, exponent):
    out = Tensor(a.data**exponent)

    def rule(g):
        return (g * exponent * a.data ** (exponent - 1),)

    ad._record(out, (a,), rule)
    return out


def reference_layer_norm(x, gain, bias, eps=1e-5):
    x = ad._as_tensor(x)
    mu = ad.mean(x, axis=-1, keepdims=True)
    centered = ad.add(x, ad.mul(mu, -1.0))
    var = ad.mean(ad.mul(centered, centered), axis=-1, keepdims=True)
    inv = _reference_powi(ad.add(var, eps), -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), gain), bias)


def reference_gelu(a):
    a = ad._as_tensor(a)
    inner = ad.mul(ad.add(a, ad.mul(ad.mul(ad.mul(a, a), a), 0.044715)), ad._GELU_C)
    return ad.mul(ad.mul(a, ad.add(ad.tanh(inner), 1.0)), 0.5)


def reference_lstm_sequence(xs, w_x, w_h, bias):
    """recurrent_step over the T steps of xs [B, T, d_in] from a zero state; returns h_T."""
    zeros = np.zeros((xs.shape[0], w_h.shape[0]), dtype=xs.dtype)
    h, c = Tensor(zeros.copy()), Tensor(zeros.copy())
    for t in range(xs.shape[1]):
        h, c = ad.recurrent_step(xs[:, t, :], h, c, w_x, w_h, bias)
    return h


def reference_attention(qkv, heads):
    """The composite SelfAttention core that autodiff.attention replaced: 12 tape entries."""
    b, t, width = qkv.shape
    d = width // 3
    hd = d // heads
    qkv = ad.reshape(qkv, (b, t, 3, heads, hd))
    qkv = ad.transpose(qkv, (2, 0, 3, 1, 4))  # [3, B, heads, T, hd]
    q, k, v = qkv[0], qkv[1], qkv[2]
    scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
    attn = ad.softmax(scores, axis=-1)
    mixed = ad.matmul(attn, v)  # [B, heads, T, hd]
    return ad.reshape(ad.transpose(mixed, (0, 2, 1, 3)), (b, t, d))


def _reference_elementwise(a, value, rule):
    out = Tensor(value)
    ad._record(out, (a,), lambda g: (rule(g, out.data),))
    return out


def _reference_div(a, b):
    out = Tensor(a.data / b.data)

    def rule(g):
        ga = g / b.data if a.requires_grad else None
        gb = -g * a.data / (b.data * b.data) if b.requires_grad else None
        return ga, gb

    ad._record(out, (a, b), rule)
    return out


def reference_cosine_loss(s, tch):
    """The cosine fpd_loss before autodiff.cosine_similarity: 13 tape entries, 14 with zero-norm rows.

    The rows with a non-zero student and teacher norm are selected by an
    advanced-index getitem and run through mul, sum_, sqrt, div and clip; the
    skipped rows come back as a constant loss of 1 each.
    """
    ok = (np.einsum("bd,bd->b", s.data, s.data) > 0) & (np.einsum("bd,bd->b", tch.data, tch.data) > 0)
    rows = np.nonzero(ok)[0]
    s_rows, t_rows = s[rows], Tensor(tch.data[rows])
    dot = ad.sum_(ad.mul(s_rows, t_rows), axis=1)
    s_sq = ad.sum_(ad.mul(s_rows, s_rows), axis=1)
    s_norm = _reference_elementwise(s_sq, np.sqrt(s_sq.data), lambda g, out: g * 0.5 / out)
    t_norm = np.linalg.norm(t_rows.data, axis=1)
    q = _reference_div(dot, ad.mul(s_norm, Tensor(t_norm.astype(s.dtype))))
    cos = _reference_elementwise(q, np.clip(q.data, -1.0, 1.0), lambda g, out: g * ((q.data >= -1.0) & (q.data <= 1.0)))
    total = ad.sum_(ad.add(ad.mul(cos, -1.0), 1.0))
    n_zero = int((~ok).sum())
    if n_zero:
        total = ad.add(total, float(n_zero))
    return ad.mul(total, 1.0 / s.shape[0])


def reference_log_softmax(logits, temperature=1.0):
    """The log_softmax op that autodiff.cross_entropy replaced, over the last axis."""
    z = logits.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    out = Tensor(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))

    def rule(g):
        return ((g - np.exp(out.data) * g.sum(axis=-1, keepdims=True)) / temperature,)

    ad._record(out, (logits,), rule)
    return out


def reference_label_cross_entropy(logits, labels):
    """The labelled CE before the fused op: reshape, log_softmax, gather, mean, negate; 6 tape entries."""
    flat = ad.reshape(logits, (-1, logits.shape[-1]))
    picked = ad.getitem(reference_log_softmax(flat), (np.arange(flat.shape[0]), labels.reshape(-1)))
    return ad.mul(ad.mean(picked), -1.0)


def reference_soft_cross_entropy(logits, p, temperature):
    """The distillation CE before the fused op: weighted row sums of log_softmax, mean, negate; 6 tape entries."""
    log_q = reference_log_softmax(logits, temperature)
    per_row = ad.sum_(ad.mul(log_q, Tensor(p.astype(logits.dtype))), axis=1)
    return ad.mul(ad.mean(per_row), -1.0)


class TestFusedOpsMatchComposite:
    # max relative error of the gradients, with a 1e-3 floor for values near zero
    GRAD_TOL = {np.float32: 1e-3, np.float64: 1e-11}

    def _run(self, layer_norm, gelu, dtype):
        rng = np.random.default_rng(73)
        x = Tensor(rng.normal(size=(16, 96, 64)).astype(dtype), requires_grad=True)
        gain = Tensor((1.0 + 0.2 * rng.normal(size=64)).astype(dtype), requires_grad=True)
        bias = Tensor((0.2 * rng.normal(size=64)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(16, 96, 64)).astype(dtype))
        tape = Tape()
        with tape:
            y = layer_norm(x, gain, bias)
            z = gelu(ad.mul(y, 2.0))
            loss = ad.sum_(ad.mul(z, w))
        return y.data, z.data, tuple(backward(loss, tape, [x, gain, bias]))

    # max |fused - composite| over the largest composite magnitude: the fused ops
    # reduce rows with einsum and evaluate the tanh argument as x (c + a c x^2)
    FORWARD_TOL = {np.float32: 1e-6, np.float64: 1e-14}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_gradients_within_tolerance_of_composite(self, dtype):
        y_ref, z_ref, grads_ref = self._run(reference_layer_norm, reference_gelu, dtype)
        y, z, grads = self._run(ad.layer_norm, ad.gelu, dtype)
        for name, got, ref in (("layer_norm", y, y_ref), ("gelu", z, z_ref)):
            assert got.dtype == dtype
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err <= self.FORWARD_TOL[dtype], f"{name}: {err:.2e}"
        for name, g, g_ref in zip(("x", "gain", "bias"), grads, grads_ref):
            assert g.dtype == dtype
            err = max_relative_error(g, g_ref, floor=1e-3)
            assert err < self.GRAD_TOL[dtype], f"d/d{name}: {err:.2e}"

    # At B = 1 numpy runs each per-step input projection of the reference as a
    # vector-matrix product, which rounds differently from the fused op's GEMM.
    FORWARD_TOL_B1 = {np.float32: 1e-5, np.float64: 1e-13}

    def _run_lstm(self, op, batch, dtype):
        rng = np.random.default_rng(89)
        d_in, d_h, steps = 32, 16, 12
        xs = Tensor(rng.normal(size=(batch, steps, d_in)).astype(dtype), requires_grad=True)
        w_x = Tensor((rng.normal(size=(d_in, 4 * d_h)) / np.sqrt(d_in)).astype(dtype), requires_grad=True)
        w_h = Tensor((rng.normal(size=(d_h, 4 * d_h)) / np.sqrt(d_h)).astype(dtype), requires_grad=True)
        bias = Tensor((0.3 * rng.normal(size=4 * d_h)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(batch, d_h)).astype(dtype))
        tape = Tape()
        with tape:
            h = op(xs, w_x, w_h, bias)
            loss = ad.sum_(ad.mul(h, w))
        return h.data, tuple(backward(loss, tape, [xs, w_x, w_h, bias]))

    @pytest.mark.parametrize("batch", [1, 2, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lstm_sequence_matches_recurrent_steps(self, batch, dtype):
        h_ref, grads_ref = self._run_lstm(reference_lstm_sequence, batch, dtype)
        h, grads = self._run_lstm(ad.lstm_sequence, batch, dtype)
        assert h.dtype == dtype
        if batch == 1:
            assert max_relative_error(h, h_ref) < self.FORWARD_TOL_B1[dtype]
        else:
            assert h.tobytes() == h_ref.tobytes()
        for name, g, g_ref in zip(("xs", "w_x", "w_h", "bias"), grads, grads_ref):
            assert g.dtype == dtype
            err = max_relative_error(g, g_ref, floor=1e-3)
            assert err < self.GRAD_TOL[dtype], f"d/d{name}: {err:.2e}"

    @staticmethod
    def _cosine_loss_step(loss_fn, s0, tch):
        s = Tensor(s0.copy(), requires_grad=True)
        tape = Tape()
        with tape:
            loss = loss_fn(s, Tensor(tch))
        (gs,) = backward(loss, tape, [s])
        return loss.data, gs, len(tape)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cosine_loss_matches_composite(self, dtype):
        from futuredistill.distill import DistillConfig, fpd_loss

        rng = np.random.default_rng(113)
        s0 = rng.normal(size=(16, 64)).astype(dtype)
        s0[3] = 0.0
        tch = rng.normal(size=(16, 64)).astype(dtype)
        tch[9] = 0.0
        ref, g_ref, n_ref = self._cosine_loss_step(reference_cosine_loss, s0, tch)
        with pytest.warns(RuntimeWarning, match="2 zero-norm"):
            got, g, n = self._cosine_loss_step(lambda s, t: fpd_loss(s, t, DistillConfig()), s0, tch)
        assert (n_ref, n) == (14, 5)  # the composite's 13 plus its n_zero add
        assert got.dtype == dtype and abs(got - ref) <= self.FORWARD_TOL[dtype] * abs(ref)
        assert g.dtype == dtype and max_relative_error(g, g_ref, floor=1e-3) < self.GRAD_TOL[dtype]
        assert not g[3].any() and not g[9].any()

    @staticmethod
    def _loss_step(loss_fn, logits0):
        logits = Tensor(logits0.copy(), requires_grad=True)
        tape = Tape()
        with tape:
            loss = loss_fn(logits)
        (g_logits,) = backward(loss, tape, [logits])
        return loss.data, g_logits, len(tape)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_label_cross_entropy_is_bitwise_the_composite(self, dtype):
        # the downstream shape: [batch, t_pred, classes] logits of a prediction head; a
        # few draws, since one draw's loss can match under a different summation order
        rng = np.random.default_rng(167)
        for _ in range(5):
            logits0 = (3.0 * rng.normal(size=(32, 12, 7))).astype(dtype)
            labels = rng.integers(0, 7, size=(32, 12))
            ref, g_ref, n_ref = self._loss_step(lambda t: reference_label_cross_entropy(t, labels), logits0)
            got, g, n = self._loss_step(lambda t: ad.cross_entropy(t, labels), logits0)
            assert (n_ref, n) == (6, 1)
            assert got.dtype == g.dtype == dtype
            assert got.tobytes() == ref.tobytes() and g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_soft_cross_entropy_is_bitwise_the_composite(self, dtype):
        # the pretrain shape: [batch, embed_dim] student embeddings against a sharpened
        # float64 teacher softmax with exact zeros, at the default student temperature
        rng = np.random.default_rng(173)
        for _ in range(5):
            logits0 = rng.normal(size=(16, 64)).astype(dtype)
            shifted = rng.normal(size=(16, 64)) / 0.04
            p = np.exp(shifted - shifted.max(axis=1, keepdims=True))
            p[:, :8] = 0.0
            p /= p.sum(axis=1, keepdims=True)
            ref, g_ref, n_ref = self._loss_step(lambda t: reference_soft_cross_entropy(t, p, 0.1), logits0)
            got, g, n = self._loss_step(lambda t: ad.cross_entropy(t, p, temperature=0.1), logits0)
            assert (n_ref, n) == (6, 1)
            assert got.dtype == g.dtype == dtype
            assert got.tobytes() == ref.tobytes() and g.tobytes() == g_ref.tobytes()

    def test_each_op_records_one_entry(self):
        x = Tensor(np.ones((2, 4), dtype=np.float32), requires_grad=True)
        gain, bias = Tensor(np.ones(4, dtype=np.float32)), Tensor(np.zeros(4, dtype=np.float32))
        xs = Tensor(np.ones((2, 3, 4), dtype=np.float32), requires_grad=True)
        w_x, w_h = Tensor(np.ones((4, 8), dtype=np.float32)), Tensor(np.ones((2, 8), dtype=np.float32))
        qkv = Tensor(np.ones((2, 3, 12), dtype=np.float32), requires_grad=True)
        for op in (
            lambda: ad.layer_norm(x, gain, bias),
            lambda: ad.gelu(x),
            lambda: ad.lstm_sequence(xs, w_x, w_h, Tensor(np.zeros(8, dtype=np.float32))),
            lambda: ad.attention(qkv, 2),
            lambda: ad.linear(x, w_x, Tensor(np.zeros(8, dtype=np.float32))),
            lambda: ad.cosine_similarity(x, Tensor(np.ones((2, 4), dtype=np.float32))),
            lambda: ad.cross_entropy(x, np.array([0, 3])),
            lambda: ad.cross_entropy(x, np.full((2, 4), 0.25), temperature=0.1),
        ):
            tape = Tape()
            with tape:
                op()
            assert len(tape) == 1

    def test_self_attention_records_one_entry_per_linear_and_core(self):
        from futuredistill import nn

        rng = np.random.default_rng(0)
        attn, layer = nn.SelfAttention(8, 2, rng), nn.Linear(8, 4, rng)
        x = Tensor(np.ones((2, 3, 8), dtype=np.float32), requires_grad=True)
        tape = Tape()
        with tape:
            attn(x)
        assert len(tape) == 3  # qkv projection, attention core, output projection
        tape = Tape()
        with tape:
            layer(x)
        assert len(tape) == 1

    @pytest.mark.parametrize(
        "family,t,loss,entries",
        [
            ("TemporalTransformer", 6, "cross_entropy", 30),
            ("Conv3dResidual", 6, "cosine", 28),
            ("Conv2dRecurrent", 12, "cosine", 19),
            ("PatchTransformerRecurrent", 12, "cosine", 27),
        ],
    )
    def test_pretrain_step_tape_length(self, family, t, loss, entries):
        # student forward with projection head plus the distillation loss, at
        # each benchmark workload's clip length; a re-composed op shows up here
        from futuredistill import nn
        from futuredistill.distill import DistillConfig, DistillModel, fpd_loss
        from futuredistill.models import BackboneSpec, build_backbone

        spec = BackboneSpec(family=family, frames=t, embed_dim=16, frame_size=16, recurrent_hidden=16)
        student = DistillModel(build_backbone(spec, 0), nn.Mlp(16, np.random.default_rng(0)))
        rng = np.random.default_rng(79)
        clips = Tensor(rng.normal(size=(2, t, 3, 16, 16)).astype(np.float32))
        teacher = rng.normal(size=(2, 16)).astype(np.float32)
        tape = Tape()
        with tape:
            fpd_loss(student.forward(clips), teacher, DistillConfig(t=t, t_pred=t, loss_variant=loss))
        assert len(tape) == entries

    @pytest.mark.parametrize("family,t,entries", [("Conv2dRecurrent", 12, 14), ("TemporalTransformer", 6, 29)])
    def test_downstream_step_tape_length(self, family, t, entries):
        # a fine-tune step as downstream.finetune records it: backbone, prediction
        # head and the labelled cross-entropy over the [B, t_pred, C] logits
        from futuredistill.downstream import ModelWithHead
        from futuredistill.models import BackboneSpec, PredictionHead, build_backbone

        spec = BackboneSpec(family=family, frames=t, embed_dim=16, frame_size=16, recurrent_hidden=16)
        model = ModelWithHead(build_backbone(spec, 0), PredictionHead(16, t, 7, np.random.default_rng(0)))
        rng = np.random.default_rng(83)
        clips = Tensor(rng.normal(size=(2, t, 3, 16, 16)).astype(np.float32))
        tape = Tape()
        with tape:
            ad.cross_entropy(model.forward(clips), rng.integers(0, 7, size=(2, t)))
        assert len(tape) == entries


class TestAttentionAndLinear:
    """The single-entry attention core and linear against their composites and finite differences."""

    # max |fused - composite| over the largest composite magnitude
    ATTENTION_TOL = {np.float32: 1e-5, np.float64: 1e-12}

    def test_attention_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(97)
        w = Tensor(rng.normal(size=(2, 5, 4)))
        fd_check(lambda t: ad.sum_(ad.mul(ad.attention(t, 2), w)), Tensor(rng.normal(size=(2, 5, 12))))

    @pytest.mark.parametrize("x_shape", [(5,), (4, 5), (2, 3, 5)], ids=["1d", "2d", "3d"])
    def test_linear_gradients_vs_finite_differences(self, x_shape):
        rng = np.random.default_rng(101)
        x, w, b = Tensor(rng.normal(size=x_shape)), Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=3))
        r = Tensor(rng.normal(size=(*x_shape[:-1], 3)))
        fd_check(lambda t: ad.sum_(ad.mul(ad.linear(t, w, b), r)), x)
        fd_check(lambda t: ad.sum_(ad.mul(ad.linear(x, t, b), r)), w)
        fd_check(lambda t: ad.sum_(ad.mul(ad.linear(x, w, t), r)), b)

    def _run_attention(self, op, qkv_data, heads):
        b, t, width = qkv_data.shape
        qkv = Tensor(qkv_data, requires_grad=True)
        w = Tensor(np.random.default_rng(103).normal(size=(b, t, width // 3)).astype(qkv_data.dtype))
        tape = Tape()
        with tape:
            y = op(qkv, heads)
            loss = ad.sum_(ad.mul(y, w))
        (g_qkv,) = backward(loss, tape, [qkv])
        return y.data, g_qkv

    # TemporalTransformer at t = 6 and batch 16; PatchTransformerRecurrent at t = 12, batch 2
    @pytest.mark.parametrize("shape", [(16, 96, 192), (24, 16, 192)], ids=["temporal", "patch"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_matches_composite(self, shape, dtype):
        qkv = np.random.default_rng(107).normal(size=shape).astype(dtype)
        y_ref, g_ref = self._run_attention(reference_attention, qkv, 2)
        y, g = self._run_attention(ad.attention, qkv, 2)
        assert y.dtype == dtype and g.dtype == dtype and y.shape == y_ref.shape
        for got, ref in ((y, y_ref), (g, g_ref)):
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err < self.ATTENTION_TOL[dtype], f"{err:.2e}"

    def test_attention_of_saturated_scores_is_finite(self):
        qkv = (80.0 * np.random.default_rng(109).normal(size=(2, 6, 3, 2, 4))).astype(np.float32)
        scores = np.einsum("bqhc,bkhc->bhqk", qkv[:, :, 0], qkv[:, :, 1]) / 2.0  # q . k / sqrt(hd)
        assert np.abs(scores).max() > 1e4  # exp overflows float32 here without the max subtraction
        y, g = self._run_attention(ad.attention, qkv.reshape(2, 6, 24), 2)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(g))

    def test_attention_rule_keeps_only_the_scores_and_views_of_qkv(self):
        qkv = Tensor(np.random.default_rng(113).normal(size=(2, 5, 12)).astype(np.float32), requires_grad=True)
        tape = Tape()
        with tape:
            ad.attention(qkv, 2)
        kept = [c.cell_contents for c in tape.entries[0].backward_rule.__closure__]
        arrays = [a for a in kept if isinstance(a, np.ndarray)]
        scores = [a for a in arrays if not np.shares_memory(a, qkv.data)]
        assert len(scores) == 1 and scores[0].shape == (2, 2, 5, 5)

    @pytest.mark.parametrize("shape,heads", [((1, 2, 190), 2), ((1, 2, 16), 2), ((1, 2, 12), 0), ((2, 12), 2)])
    def test_attention_rejects_a_width_not_divisible_by_three_heads(self, shape, heads):
        with pytest.raises(DimensionError):
            ad.attention(Tensor(np.zeros(shape)), heads)

    # max |fused - composite| of linear's weight and bias gradients over the largest composite entry
    LINEAR_PARAM_GRAD_TOL = {np.float32: 2e-6, np.float64: 1e-14}

    # the last case is TemporalTransformer's qkv projection at t = 6, where the
    # 2-D GEMMs of the input and weight gradients stand in for the composite's 16 stacked ones
    @pytest.mark.parametrize(
        "x_shape,d_out", [((5,), 6), ((7, 5), 6), ((2, 3, 5), 6), ((16, 96, 64), 192)], ids=["1d", "2d", "3d", "tt"]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear_is_bitwise_add_of_matmul(self, x_shape, d_out, dtype):
        def run(op):
            rng = np.random.default_rng(107)
            x = Tensor(rng.normal(size=x_shape).astype(dtype), requires_grad=True)
            w = Tensor(rng.normal(size=(x_shape[-1], d_out)).astype(dtype), requires_grad=True)
            b = Tensor(rng.normal(size=d_out).astype(dtype), requires_grad=True)
            r = Tensor(rng.normal(size=(*x_shape[:-1], d_out)).astype(dtype))
            tape = Tape()
            with tape:
                y = op(x, w, b)
                loss = ad.sum_(ad.mul(y, r))
            return (y.data, *backward(loss, tape, [x, w, b]))

        fused = run(ad.linear)
        composite = run(lambda x, w, b: ad.add(ad.matmul(x, w), b))
        for got, ref in zip(fused, composite):
            assert got.dtype == dtype
        # the output and the input gradient are bitwise; the weight and bias gradients,
        # one 2-D GEMM and one row sum over the flattened leading axes, sum in another order
        for got, ref in zip(fused[:2], composite[:2]):
            assert got.tobytes() == ref.tobytes()
        for got, ref in zip(fused[2:], composite[2:]):
            assert np.max(np.abs(got - ref)) <= self.LINEAR_PARAM_GRAD_TOL[dtype] * np.max(np.abs(ref))

    def test_linear_skips_gradients_nobody_needs(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        w = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, dtype=np.float32))
        tape = Tape()
        with tape:
            y = ad.linear(x, w, b)
        gx, gw, gb = tape.entries[0].backward_rule(np.ones_like(y.data))
        assert gx is None and gb is None and gw.shape == (3, 4)

    def test_linear_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(DimensionError):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))


class TestBatchInvariance:
    """Each batch item's forward output has the same bits in the full batch as in any sub-batch.

    The embed-once linear probe and the evaluation embed a window in whatever
    batch it falls into, so these ops must not round a row by the number of
    rows that share the call (as a BLAS GEMV row sum would). Shapes are the
    TemporalTransformer t = 6 ([16, 96, d]), Conv2dRecurrent ([16, 12, 256])
    and Conv3dResidual ([16, 256]) inputs of each op, and the six backbone
    convs with bias and ReLU. Sub-batches include single rows, which numpy
    would multiply by a GEMV in linear.
    """

    @staticmethod
    def _op(name, width):
        rng = np.random.default_rng(127)
        if name == "layer_norm":
            gain, bias = (Tensor(rng.normal(size=width).astype(np.float32)) for _ in range(2))
            return lambda x: ad.layer_norm(x, gain, bias)
        if name == "linear":
            w, b = Tensor(rng.normal(size=(width, 192)).astype(np.float32)), Tensor(np.zeros(192, np.float32))
            return lambda x: ad.linear(x, w, b)
        if name == "attention":
            return lambda x: ad.attention(x, 2)
        return ad.gelu

    @pytest.mark.parametrize(
        "name,shape",
        [
            ("layer_norm", (16, 96, 64)),
            ("gelu", (16, 96, 128)),
            ("attention", (16, 96, 192)),
            ("linear", (16, 96, 64)),
            ("layer_norm", (16, 12, 256)),
            ("gelu", (16, 12, 256)),
            ("linear", (16, 12, 256)),
            ("layer_norm", (16, 256)),
            ("gelu", (16, 256)),
            ("linear", (16, 256)),
        ],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v,
    )
    def test_rows_equal_in_any_sub_batch(self, name, shape):
        self._assert_items_equal(self._op(name, shape[-1]), np.random.default_rng(131).normal(size=shape))

    @pytest.mark.parametrize("shape", list(TestConvMatchesIm2colReference.BACKBONE_CONVS))
    def test_conv_items_equal_in_any_sub_batch(self, shape):
        # a sub-batch moves every column chunk boundary of the conv's GEMMs
        x_shape, k_shape, stride, padding = TestConvMatchesIm2colReference.BACKBONE_CONVS[shape]
        conv = ad.conv3d if len(k_shape) == 5 else ad.conv2d
        rng = np.random.default_rng(137)
        k, b = (Tensor(rng.normal(size=size).astype(np.float32)) for size in (k_shape, k_shape[:1]))
        self._assert_items_equal(lambda x: conv(x, k, stride, padding, bias=b, relu=True), rng.normal(size=x_shape))

    @staticmethod
    def _assert_items_equal(op, x):
        x = x.astype(np.float32)
        with ad.no_grad():
            full = op(Tensor(x)).data
            for size in (1, 2, 3, 5, 7):
                for lo in sorted({0, 1, 6, len(x) - size}):
                    part = op(Tensor(x[lo : lo + size])).data
                    assert part.tobytes() == full[lo : lo + size].tobytes(), f"items {lo}:{lo + size}"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from futuredistill.autodiff import *", namespace)  # AttributeError on a stale __all__ entry
    for name in ad.__all__:
        assert namespace[name] is getattr(ad, name)
