"""Tests for the autodiff tensor engine: forward values against hand oracles,
gradients against central finite differences."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from focalaudio import tensor as T
from focalaudio.tensor import (
    Tensor,
    backward,
    dwconv2d,
    gelu,
    global_avg_pool,
    layernorm,
    linear,
    no_grad,
    softmax,
)

from gradcheck import gradient_check, relative_error

RNG = np.random.default_rng(1234)


def randt(*shape, dtype=np.float64, requires_grad=True):
    return Tensor(RNG.standard_normal(shape).astype(dtype), requires_grad=requires_grad)


class TestLinear:
    def test_identity_transform(self):
        y = linear(Tensor([1.0, 2.0]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [1.0, 2.0])

    def test_hand_multiply_accumulate(self):
        y = linear(Tensor([1.0, 1.0]), Tensor([[2.0, 3.0]]), Tensor([1.0]))
        np.testing.assert_allclose(y.data, [6.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            linear(Tensor([1.0, 2.0, 3.0]), Tensor(np.eye(2)))

    def test_weight_gradient_vs_finite_differences(self):
        x = randt(3, 4)
        W = randt(5, 4)
        b = randt(5)
        errs = gradient_check(lambda: linear(x, W, b).sum(), {"x": x, "W": W, "b": b})
        assert max(errs.values()) < 1e-4
        # every other input rank and layout the one routine reads, each
        # against a random weighting of its output: PatchEmbed's C-contiguous
        # [b, hp, wp, c*p*p] (lead 2), 3-d and 1-d
        rng = np.random.default_rng(48)
        for shape in ((2, 3, 2, 4), (2, 3, 4), (4,)):
            x = Tensor(rng.standard_normal(shape), requires_grad=True)
            r = Tensor(rng.standard_normal(shape[:-1] + (5,)))
            errs = gradient_check(lambda: (linear(x, W, b) * r).sum(), {"x": x, "W": W, "b": b})
            assert max(errs.values()) < 1e-4, (shape, errs)

    def test_channel_first_storage(self):
        # the moveaxis view of a C-contiguous [B, C, H, W] and a C-contiguous
        # [B, H, W, C] both come back [B, H, W, D] stored [B, D, H, W]
        rng = np.random.default_rng(49)
        W, b = Tensor(rng.standard_normal((5, 4))), Tensor(rng.standard_normal(5))
        nchw = Tensor(rng.standard_normal((2, 4, 3, 6)))
        for x in (T.moveaxis(nchw, 1, 3), Tensor(rng.standard_normal((2, 3, 6, 4)))):
            y = linear(x, W, b)
            assert y.shape == (2, 3, 6, 5)
            assert np.moveaxis(y.data, -1, 1).flags.c_contiguous
            np.testing.assert_allclose(y.data, x.data @ W.data.T + b.data, rtol=1e-12, atol=1e-12)

    def test_batched_leading_dims(self):
        x = randt(2, 3, 4)
        W = randt(5, 4)
        y = linear(x, W)
        assert y.shape == (2, 3, 5)
        np.testing.assert_allclose(y.data[1, 2], x.data[1, 2] @ W.data.T)


class TestDwconv2d:
    def test_delta_kernel_is_identity(self):
        x = randt(1, 3, 6, 7, requires_grad=False)
        k = np.zeros((3, 3, 3))
        k[:, 1, 1] = 1.0
        y = dwconv2d(x, Tensor(k))
        np.testing.assert_allclose(y.data, x.data)

    def test_constant_input_all_ones_kernel(self):
        c = 2.5
        x = Tensor(np.full((1, 1, 5, 5), c))
        y = dwconv2d(x, Tensor(np.ones((1, 3, 3))))
        np.testing.assert_allclose(y.data[0, 0, 1:-1, 1:-1], 9 * c)

    def test_depthwise_independence(self):
        x = RNG.standard_normal((2, 4, 8, 8))
        k = Tensor(RNG.standard_normal((4, 3, 3)))
        y0 = dwconv2d(Tensor(x), k).data
        x2 = x.copy()
        x2[0, 0] += RNG.standard_normal((8, 8))
        y1 = dwconv2d(Tensor(x2), k).data
        np.testing.assert_allclose(y0[:, 1:], y1[:, 1:])
        np.testing.assert_allclose(y0[1], y1[1])  # and each batch entry sees only itself
        assert np.abs(y0[0, 0] - y1[0, 0]).max() > 0

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            dwconv2d(randt(1, 2, 5, 5), randt(2, 2, 2))

    def test_unbatched_input_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            dwconv2d(randt(2, 5, 5), randt(2, 3, 3))

    def test_translation_equivariance_interior(self):
        x = RNG.standard_normal((1, 2, 10, 10))
        k = Tensor(RNG.standard_normal((2, 3, 3)))
        dy, dx = 2, 1
        xs = np.roll(x, (dy, dx), axis=(2, 3))
        y = dwconv2d(Tensor(x), k).data
        ys = dwconv2d(Tensor(xs), k).data
        m = 3  # margin covering padding plus shift
        np.testing.assert_allclose(
            ys[..., m:-m, m:-m], np.roll(y, (dy, dx), axis=(2, 3))[..., m:-m, m:-m], atol=1e-12
        )

    def test_gradients_vs_finite_differences(self):
        x = randt(2, 2, 5, 6)
        k = randt(2, 3, 3)
        errs = gradient_check(lambda: (dwconv2d(x, k) * dwconv2d(x, k)).sum(), {"x": x, "k": k})
        assert max(errs.values()) < 1e-5

    @pytest.mark.parametrize("kh, kw", [(1, 1), (5, 5), (3, 5), (7, 7)])
    def test_kernel_shapes_vs_finite_differences(self, kh, kw):
        x = randt(3, 2, 6, 7)
        k = randt(2, kh, kw)
        errs = gradient_check(lambda: (dwconv2d(x, k) * dwconv2d(x, k)).sum(), {"x": x, "k": k})
        assert max(errs.values()) < 1e-5

    @pytest.mark.parametrize("kh, kw", [(1, 1), (3, 3), (3, 5), (7, 7)])
    def test_kernel_gradient_matches_window_einsum(self, kh, kw):
        x = randt(3, 4, 9, 8, requires_grad=False)
        k = randt(4, kh, kw)
        w = RNG.standard_normal((3, 4, 9, 8))
        backward((dwconv2d(x, k) * Tensor(w)).sum())
        xp = np.pad(x.data, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        np.testing.assert_allclose(k.grad, np.einsum("bchwuv,bchw->cuv", win, w), rtol=0, atol=1e-12)

    def test_kernel_gradient_makes_no_window_copy(self):
        # an im2col copy of the k*k window view would cost 25x the input here
        x = Tensor(RNG.standard_normal((4, 8, 16, 16)).astype(np.float32))
        k = Tensor(RNG.standard_normal((8, 5, 5)).astype(np.float32), requires_grad=True)
        loss = dwconv2d(x, k).sum()
        tracemalloc.start()
        try:
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert k.grad.shape == (8, 5, 5)
        assert peak < 8 * x.data.nbytes, f"backward peak {peak / x.data.nbytes:.1f}x the input"

    def test_forward_makes_one_column_copy(self):
        # The tap-major columns are 25 * (16 + 4) / 16 = 31.25x the input
        # here; with the padded input, the product and its cropped copy the
        # forward peaked at 35.2x (numpy 2.4.6). The bound leaves 2.3 inputs
        # of margin, far less than a second column copy.
        x = Tensor(RNG.standard_normal((4, 8, 16, 16)).astype(np.float32))
        k = Tensor(RNG.standard_normal((8, 5, 5)).astype(np.float32))
        tracemalloc.start()
        try:
            dwconv2d(x, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 37.5 * x.data.nbytes, f"forward peak {peak / x.data.nbytes:.1f}x the input"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("per_group", [1, 2])
    def test_channel_groups_agree_bitwise_with_one_group(self, monkeypatch, dtype, per_group):
        # C = 5 in groups of 2 leaves a remainder group of 1
        x_np = RNG.standard_normal((3, 5, 7, 6)).astype(dtype)
        k_np = RNG.standard_normal((5, 3, 5)).astype(dtype)
        g = Tensor(RNG.standard_normal((3, 5, 7, 6)).astype(dtype))
        column_bytes = 3 * 5 * 3 * 7 * (6 + 4) * np.dtype(dtype).itemsize  # kh kw B H Wp
        results = []
        for group_bytes in (5 * column_bytes, per_group * column_bytes + column_bytes // 2):
            monkeypatch.setattr(T, "_DW_GROUP_BYTES", group_bytes)
            x, k = Tensor(x_np, requires_grad=True), Tensor(k_np, requires_grad=True)
            y = dwconv2d(x, k)
            backward((y * g).sum())
            results.append((y.data, x.grad, k.grad))
        for one, grouped in zip(*results):
            np.testing.assert_array_equal(grouped, one)
            assert grouped.dtype == dtype


def _dwconv_loop_oracle(x, k, g):
    """Zero same-padded depth-wise cross-correlation y of x [B, C, H, W]
    with k [C, kh, kw], and the gradients of sum(y * g) w.r.t. x and k, by
    plain loops in float64."""
    B, C, H, W = x.shape
    _, kh, kw = k.shape
    y = np.zeros((B, C, H, W))
    gx = np.zeros((B, C, H, W))
    gk = np.zeros((C, kh, kw))
    for b in range(B):
        for c in range(C):
            for h in range(H):
                for w in range(W):
                    for u in range(kh):
                        for v in range(kw):
                            i, j = h + u - kh // 2, w + v - kw // 2
                            if 0 <= i < H and 0 <= j < W:
                                y[b, c, h, w] += k[c, u, v] * x[b, c, i, j]
                                gx[b, c, i, j] += k[c, u, v] * g[b, c, h, w]
                                gk[c, u, v] += x[b, c, i, j] * g[b, c, h, w]
    return y, gx, gk


class TestDwconv2dLoopOracle:
    # A float32 result may be off the float64 loops by F32_BOUND times the
    # same loops on absolute values, the sum of |terms| behind each entry.
    # Measured over 30 seeds of the float32 cases below (and a [3, 4, 9, 8]
    # map with a 5x3 kernel), the largest ratio was 2.1e-7 for the forward
    # and the input gradient and 7.6e-8 for the kernel gradient; eps is
    # 1.19e-7.
    F32_BOUND = 5e-7

    def _check(self, x_data, k_data, g=None):
        dtype = x_data.dtype
        x, k = Tensor(x_data, requires_grad=True), Tensor(k_data, requires_grad=True)
        y = dwconv2d(x, k)
        if g is None:
            g = RNG.standard_normal(y.shape).astype(dtype)
            backward((y * Tensor(g)).sum())
        else:
            # routed through a transpose, the gradient reaching dwconv2d is a strided view of g
            backward((T.transpose(y, (0, 1, 3, 2)) * Tensor(g.transpose(0, 1, 3, 2).copy())).sum())
        x64, k64, g64 = (np.asarray(a, dtype=np.float64) for a in (x_data, k_data, g))
        got = (y.data, x.grad, k.grad)
        ref = _dwconv_loop_oracle(x64, k64, g64)
        if dtype == np.float64:
            for a, r in zip(got, ref):
                np.testing.assert_allclose(a, r, rtol=0, atol=1e-12)
            return
        scale = _dwconv_loop_oracle(np.abs(x64), np.abs(k64), np.abs(g64))
        for name, a, r, s in zip(("forward", "input gradient", "kernel gradient"), got, ref, scale):
            assert a.dtype == np.float32, name
            assert (np.abs(a - r) <= self.F32_BOUND * s).all(), name

    @pytest.mark.parametrize("kh, kw", [(1, 1), (3, 5), (5, 3), (7, 7)])
    def test_kernel_shapes(self, kh, kw):
        self._check(RNG.standard_normal((2, 3, 6, 7)), RNG.standard_normal((3, kh, kw)))

    def test_single_image(self):
        self._check(RNG.standard_normal((1, 3, 5, 6)), RNG.standard_normal((3, 3, 3)))

    def test_single_channel(self):
        self._check(RNG.standard_normal((2, 1, 5, 6)), RNG.standard_normal((1, 5, 3)))

    def test_map_smaller_than_kernel(self):
        self._check(RNG.standard_normal((2, 2, 2, 3)), RNG.standard_normal((2, 5, 5)))

    def test_moveaxis_view_input(self):
        x = np.moveaxis(RNG.standard_normal((2, 6, 7, 3)), -1, 1)
        assert not x.flags.c_contiguous
        self._check(x, RNG.standard_normal((3, 3, 5)))

    def test_noncontiguous_incoming_gradient(self):
        self._check(RNG.standard_normal((2, 3, 6, 7)), RNG.standard_normal((3, 5, 3)),
                    g=RNG.standard_normal((2, 3, 6, 7)))

    @pytest.mark.parametrize("kh, kw", [(3, 5), (7, 7)])
    def test_float32_kernel_shapes(self, kh, kw):
        self._check(RNG.standard_normal((2, 3, 6, 7)).astype(np.float32),
                    RNG.standard_normal((3, kh, kw)).astype(np.float32))

    def test_float32_noncontiguous_incoming_gradient(self):
        self._check(RNG.standard_normal((2, 3, 6, 7)).astype(np.float32),
                    RNG.standard_normal((3, 5, 3)).astype(np.float32),
                    g=RNG.standard_normal((2, 3, 6, 7)).astype(np.float32))


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_value_at_one(self):
        # x * Phi(x) at x=1: Phi(1) = 0.841344746...
        np.testing.assert_allclose(gelu(Tensor([1.0])).data[0], 0.8413447460685429, rtol=1e-7)

    def test_asymptote(self):
        np.testing.assert_allclose(gelu(Tensor([10.0])).data[0], 10.0, atol=1e-6)

    def test_gradient(self):
        x = randt(4, 3)
        errs = gradient_check(lambda: gelu(x).sum(), {"x": x})
        assert errs["x"] < 1e-5


def _gelu_float64_oracle(x):
    """(gelu, Phi) through scipy's float64 erf: the float64 path itself."""
    x64 = np.asarray(x, dtype=np.float64)
    cdf = 0.5 * (1.0 + erf(x64 * 0.7071067811865476))
    return x64 * cdf, cdf


class TestGeluFloat32:
    """The float32 rational erf kernel against the float64 scipy path."""

    BOUND = 3e-7
    SEED = 18

    @pytest.mark.parametrize("x", [
        np.linspace(-30.0, 30.0, 600_001),
        np.concatenate([np.geomspace(1e-30, 1e30, 4001), -np.geomspace(1e-30, 1e30, 4001)]),
    ], ids=["grid_30", "geomspace_1e30"])
    def test_accuracy(self, x):
        x = x.astype(np.float32)
        y, cdf = T._gelu_float32(x)
        y_ref, cdf_ref = _gelu_float64_oracle(x)
        assert np.abs(cdf - cdf_ref).max() <= self.BOUND
        scale = np.maximum(1.0, np.abs(x.astype(np.float64)))
        assert (np.abs(y - y_ref) / scale).max() <= self.BOUND

    def test_float64_is_the_scipy_path_bit_for_bit(self):
        x = np.random.default_rng(self.SEED).standard_normal((3, 5, 7)) * 4.0
        np.testing.assert_array_equal(gelu(Tensor(x)).data, _gelu_float64_oracle(x)[0])

    def test_cdf_in_unit_interval_and_sign_of_x(self):
        x = np.concatenate([np.linspace(-30.0, 30.0, 200_001),
                            -np.geomspace(1e-30, 1e30, 2001)]).astype(np.float32)
        y, cdf = T._gelu_float32(x)
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0
        assert np.all((y == 0) | (np.sign(y) == np.sign(x)))

    def test_edge_inputs(self):
        # -inf gives NaN as in float64 (-inf * 0), the far left tail exactly 0
        x = np.array([0.0, np.inf, -np.inf, np.nan, -20.0, -1e30], dtype=np.float32)
        with np.errstate(invalid="ignore"):
            y, cdf = T._gelu_float32(x)
            y_ref, cdf_ref = _gelu_float64_oracle(x)
        np.testing.assert_array_equal(cdf, [0.5, 1.0, 0.0, np.nan, 0.0, 0.0])
        np.testing.assert_array_equal(y, [0.0, np.inf, np.nan, np.nan, 0.0, 0.0])
        np.testing.assert_array_equal(cdf, cdf_ref.astype(np.float32))
        np.testing.assert_array_equal(np.isnan(y), np.isnan(y_ref))

    def _layouts(self):
        block = T._GELU_BLOCK
        rng = np.random.default_rng(self.SEED)
        base = rng.standard_normal((8, 32, 24, 24)).astype(np.float32) * 3.0  # 2.25 blocks
        cbhw = np.ascontiguousarray(base.transpose(1, 0, 2, 3))
        return {
            "contiguous": base,
            "dwconv2d_cbhw": cbhw.transpose(1, 0, 2, 3),
            "sliced_view": base[:, 1::3, 2:, ::2],
            "size_1": base[:1, :1, :1, :1],
            "below_a_block": base.reshape(-1)[: block // 3],
            "not_a_block_multiple": base.reshape(-1)[: 2 * block + 123],
        }

    def test_layouts_agree_bitwise_and_keep_memory_order(self):
        layouts = self._layouts()
        assert layouts["contiguous"].size > 2 * T._GELU_BLOCK + 123
        for name, x in layouts.items():
            y, cdf = T._gelu_float32(x)
            y_c, cdf_c = T._gelu_float32(np.ascontiguousarray(x))
            np.testing.assert_array_equal(y, y_c, err_msg=name)
            np.testing.assert_array_equal(cdf, cdf_c, err_msg=name)
            order = np.empty_like(x).strides
            assert y.strides == order and cdf.strides == order, name
            assert y.dtype == cdf.dtype == np.float32, name

    @pytest.mark.parametrize("x", [
        np.linspace(-30.0, 30.0, 600_001),
        np.concatenate([np.geomspace(1e-30, 1e30, 4001), -np.geomspace(1e-30, 1e30, 4001)]),
    ], ids=["grid_30", "geomspace_1e30"])
    def test_backward_accuracy(self, x):
        g = np.random.default_rng(self.SEED).standard_normal(x.size)
        x32, g32 = x.astype(np.float32), g.astype(np.float32)
        got = T._gelu_grad(x32, T._gelu_float32(x32)[1], g32)
        x64, g64 = x32.astype(np.float64), g32.astype(np.float64)
        ref = g64 * (_gelu_float64_oracle(x64)[1] + x64 * np.exp(-0.5 * x64 * x64) / math.sqrt(2 * math.pi))
        assert got.dtype == np.float32
        scale = np.maximum(1.0, np.abs(x64)) * np.abs(g64)
        assert (np.abs(got - ref) / scale).max() <= self.BOUND

    def test_blocked_backward_is_the_full_array_expression_bitwise(self):
        rng = np.random.default_rng(self.SEED)
        layouts = dict(self._layouts(), float64=rng.standard_normal((3, 7, 5)) * 3.0)
        for name, x in layouts.items():
            cdf = T._gelu_float32(x)[1] if x.dtype == np.float32 else _gelu_float64_oracle(x)[1]
            g = rng.standard_normal(x.shape).astype(x.dtype)
            axes = tuple(reversed(range(x.ndim)))
            g_transposed = np.ascontiguousarray(g.transpose(axes)).transpose(axes)
            pdf = np.exp(-0.5 * x * x) * x.dtype.type(T._INV_SQRT2PI)
            ref = g * (cdf + x * pdf)
            for g_in in (g, g_transposed):
                got = T._gelu_grad(x, cdf, g_in)
                np.testing.assert_array_equal(got, ref, err_msg=name)
                assert got.strides == np.empty_like(x).strides, name

    def test_dwconv2d_output_keeps_its_channel_major_memory(self):
        rng = np.random.default_rng(self.SEED)
        x = Tensor(rng.standard_normal((2, 8, 6, 6)).astype(np.float32))
        k = Tensor(rng.standard_normal((8, 3, 3)).astype(np.float32))
        h = dwconv2d(x, k)
        assert gelu(h).data.strides == h.data.strides

    def test_gradient_matches_float64_and_records_one_node(self):
        rng = np.random.default_rng(self.SEED)
        x_np = np.concatenate([np.linspace(-8.0, 8.0, 4001), rng.standard_normal(999) * 3.0])
        g_np = rng.standard_normal(x_np.size)
        grads = {}
        for dtype in (np.float32, np.float64):
            x = Tensor(x_np.astype(dtype), requires_grad=True)
            out = gelu(x)
            assert out._op == "gelu" and out._parents == (x,)
            backward((out * Tensor(g_np.astype(dtype))).sum())
            grads[dtype] = x.grad
        scale = np.maximum(1.0, np.abs(x_np)) * np.abs(g_np)
        err = np.abs(grads[np.float32].astype(np.float64) - grads[np.float64]) / scale
        assert err.max() <= self.BOUND


class TestLayernorm:
    def test_constant_input_collapses_to_beta(self):
        x = Tensor(np.full((2, 5, 3, 3), 3.3))
        y = layernorm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-6)

    def test_mean_zero_var_one(self):
        x = randt(2, 7, 4, 4, requires_grad=False)
        gamma, beta = Tensor(np.ones(7), requires_grad=True), Tensor(np.zeros(7), requires_grad=True)
        y = layernorm(x, gamma, beta).data
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-5)
        # (x - mean) / sqrt(var + eps) has variance var / (var + eps), not 1
        var = x.data.var(axis=1)
        np.testing.assert_allclose(y.var(axis=1), var / (var + 1e-5), rtol=1e-12)

    def test_gradient(self):
        x = randt(2, 6, 3, 3)
        g = randt(6)
        b = randt(6)
        errs = gradient_check(
            lambda: (layernorm(x, g, b) * layernorm(x, g, b)).sum(),
            {"x": x, "g": g, "b": b},
        )
        assert max(errs.values()) < 1e-4


class TestGlobalAvgPool:
    def test_constant_channels(self):
        x = Tensor(np.stack([np.full((3, 3), 1.0), np.full((3, 3), -2.0)]))
        np.testing.assert_allclose(global_avg_pool(x).data, [1.0, -2.0])

    def test_hand_mean(self):
        x = Tensor(np.array([[[1.0, 3.0], [5.0, 7.0]]]))
        np.testing.assert_allclose(global_avg_pool(x).data, [4.0])

    def test_permutation_invariance(self):
        x = RNG.standard_normal((3, 4, 4))
        perm = RNG.permutation(16)
        xp = x.reshape(3, 16)[:, perm].reshape(3, 4, 4)
        np.testing.assert_allclose(
            global_avg_pool(Tensor(x)).data, global_avg_pool(Tensor(xp)).data, rtol=1e-12
        )


class TestSoftmax:
    def test_uniform(self):
        y = softmax(Tensor(np.zeros(5)))
        np.testing.assert_allclose(y.data, 0.2)

    def test_shift_invariance(self):
        x = RNG.standard_normal(6)
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 123.4)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_closed_form(self):
        y = softmax(Tensor([0.0, math.log(3.0)]))
        np.testing.assert_allclose(y.data, [0.25, 0.75], rtol=1e-7)

    def test_sums_to_one_entries_in_range(self):
        for _ in range(10):
            x = RNG.standard_normal((3, 7)) * 10
            y = softmax(Tensor(x)).data
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
            assert (y >= 0).all() and (y <= 1).all()

    def test_records_no_node_and_refuses_a_gradient(self):
        x = randt(2, 5)
        with no_grad():
            y = softmax(x)
        assert y._backward is None and not y.requires_grad
        with pytest.raises(ValueError, match="softmax records no gradient"):
            softmax(x)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = randt(3, 4)
        backward(x.sum())
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_product_rule(self):
        x = randt(5)
        y = Tensor(RNG.standard_normal(5))
        backward((x * y).sum())
        np.testing.assert_allclose(x.grad, y.data)

    def test_backward_on_non_scalar_raises(self):
        with pytest.raises(ValueError):
            backward(randt(3))

    def test_tape_reusable_per_step(self):
        x = randt(4)
        for _ in range(3):
            x.grad = None
            backward((x * x).sum())
            np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_repeated_parent_accumulates(self):
        x = randt(3)
        backward((x * x).sum())
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_composite_graph_finite_differences_64bit(self):
        x = randt(1, 2, 6, 6)
        W = randt(2, 2)
        k = randt(2, 3, 3)

        def f():
            h = linear(T.moveaxis(x, 1, 3), W)     # channel mix
            h = gelu(T.moveaxis(h, 3, 1))
            h = dwconv2d(h, k)
            return global_avg_pool(h).sum()

        errs = gradient_check(f, {"x": x, "W": W, "k": k})
        assert max(errs.values()) < 1e-5

    def test_composite_graph_finite_differences_32bit(self):
        x = randt(1, 2, 6, 6, dtype=np.float32)
        W = randt(2, 2, dtype=np.float32)
        k = randt(2, 3, 3, dtype=np.float32)

        def f():
            h = linear(T.moveaxis(x, 1, 3), W)
            h = gelu(T.moveaxis(h, 3, 1))
            h = dwconv2d(h, k)
            return global_avg_pool(h).sum()

        # larger step: float32 roundoff dominates below ~1e-3
        errs = gradient_check(f, {"x": x, "W": W, "k": k}, step=1e-2)
        assert max(errs.values()) < 1e-3


def sweep_cases(rng) -> dict:
    """One float64 gradient check per tape op, on small randomly shaped
    tensors (dims <= 8): name -> (scalar closure, tensors to check)."""
    c = int(rng.integers(1, 5))
    h = int(rng.integers(2, 8))
    w = int(rng.integers(2, 8))

    def param(*shape, low=None):
        data = rng.standard_normal(shape) if low is None else rng.uniform(low, low + 1.0, shape)
        return Tensor(data, requires_grad=True)

    x = param(1, c, h, w)
    k = param(c, 3, 3)
    Wm = param(3, w)
    gam, bet = param(c), param(c)
    row, col = param(c, 1, 1), param(w)
    pos = param(1, c, h, w, low=0.5)
    logits = Tensor(3.0 * rng.standard_normal((h, w)), requires_grad=True)
    onehot = np.eye(w)[rng.integers(0, w, h)]
    return {
        "linear": (lambda: (linear(x, Wm) * linear(x, Wm)).sum(), {"x": x, "W": Wm}),
        "dwconv2d": (lambda: gelu(dwconv2d(x, k)).sum(), {"x": x, "k": k}),
        "gelu": (lambda: (gelu(x) * gelu(x)).sum(), {"x": x}),
        "layernorm": (lambda: (layernorm(x, gam, bet) * x).sum(), {"x": x, "gam": gam, "bet": bet}),
        "pool": (lambda: (global_avg_pool(x) * global_avg_pool(x)).sum(), {"x": x}),
        "cross_entropy": (lambda: T.cross_entropy(logits, onehot), {"logits": logits}),
        "div": (lambda: (x / pos * x).sum(), {"x": x, "pos": pos}),
        "div_broadcast": (lambda: (x / (row * row + 0.5) * x).sum(), {"x": x, "row": row}),
        "sqrt": (lambda: (T.sqrt(pos) * x).sum(), {"pos": pos, "x": x}),
        "sum_all": (lambda: x.sum() * x.sum(), {"x": x}),
        "sum_axis": (lambda: (x.sum(axis=1) * x.sum(axis=1)).sum(), {"x": x}),
        "sum_axes": (lambda: (x.sum(axis=(2, 3)) * x.sum(axis=(2, 3))).sum(), {"x": x}),
        "sum_keepdims": (lambda: (x.sum(axis=-1, keepdims=True) * x).sum(), {"x": x}),
        "add_broadcast": (lambda: ((x + row + col) * (x + row + col)).sum(), {"x": x, "row": row, "col": col}),
        "mul_broadcast": (lambda: (x * row * col * x).sum(), {"x": x, "row": row, "col": col}),
        "getitem": (lambda: (x[:, :, 1:, ::2] * x[:, :, 1:, ::2]).sum(), {"x": x}),
        "transpose_reshape": (lambda: (T.reshape(T.moveaxis(x, 1, 3), (-1,)) * T.reshape(x, (-1,))).sum(), {"x": x}),
        "broadcast_to": (lambda: (T.broadcast_to(row, x.shape) * x * x).sum(), {"row": row, "x": x}),
    }


def attached_op_labels() -> set:
    """The `op` label of every `_attach` call in tensor.py's source."""
    tree = ast.parse(Path(T.__file__).read_text())
    return {node.args[2].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_attach"}


def tape_op_labels(out: Tensor) -> set:
    seen, stack, ops = set(), [out], set()
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._backward is not None:
            seen.add(id(t))
            ops.add(t._op)
            stack.extend(t._parents)
    return ops


class TestOperatorFiniteDifferenceSweep:
    """Every differentiable operator, against central differences in float64."""

    def test_sweep(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            for name, (f, params) in sweep_cases(rng).items():
                errs = gradient_check(f, params, step=1e-5)
                assert max(errs.values()) < 1e-5, f"{name} trial {trial}: {errs}"

    def test_every_tape_op_is_in_the_sweep(self):
        # an op with a backward rule that no float64 check puts on the tape is
        # an unchecked rule: add a sweep case for it, or delete the op
        recorded = set()
        for name, (f, params) in sweep_cases(np.random.default_rng(7)).items():
            assert all(t.dtype == np.float64 for t in params.values()), name
            recorded |= tape_op_labels(f())
        attached = attached_op_labels()
        assert {"cross_entropy", "sum", "linear"} <= attached  # the parse finds the labels
        assert attached - recorded == set()


class TestCrossEntropy:
    def test_closed_form(self):
        # softmax([0, log 3]) = [1/4, 3/4]; targets 1 and 0 cost -log(3/4) and -log(1/4)
        z = Tensor(np.array([[0.0, math.log(3.0)], [0.0, math.log(3.0)]]))
        loss = T.cross_entropy(z, np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(loss.data, -(math.log(0.75) + math.log(0.25)) / 2, rtol=1e-14)

    def test_large_logits_stay_finite(self):
        z = Tensor(np.array([[1000.0, 0.0, -1000.0]]))
        assert T.cross_entropy(z, np.array([[1.0, 0.0, 0.0]])).data == 0.0

    def test_gradient_is_softmax_minus_onehot_over_rows(self):
        z = randt(6, 5)
        onehot = np.eye(5)[[0, 4, 2, 2, 1, 3]]
        backward(T.cross_entropy(z, onehot))
        want = (softmax(Tensor(z.data)).data - onehot) / 6
        np.testing.assert_allclose(z.grad, want, rtol=0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="cross_entropy"):
            T.cross_entropy(randt(3, 4), np.eye(3))


class TestPlumbingOps:
    def test_getitem_grad(self):
        x = randt(4, 5)
        errs = gradient_check(lambda: (x[1:3, ::2] * x[1:3, ::2]).sum(), {"x": x})
        assert errs["x"] < 1e-5

    @pytest.mark.parametrize("idx", [[0, 2], np.array([1, 1]), (slice(None), [0, 3]), np.ones(4, bool)])
    def test_getitem_rejects_advanced_index(self, idx):
        with pytest.raises(TypeError, match="basic indexing"):
            randt(4, 5)[idx]

    def test_transpose_reshape_grad(self):
        x = randt(2, 3, 4)
        errs = gradient_check(lambda: (T.reshape(T.transpose(x, (2, 0, 1)), (4, 6)) * 2.0).sum(), {"x": x})
        assert errs["x"] < 1e-5

    def test_broadcast_to_grad(self):
        x = randt(3, 1, 1)
        errs = gradient_check(lambda: (T.broadcast_to(x, (3, 4, 5)) * 1.5).sum(), {"x": x})
        assert errs["x"] < 1e-5

    def test_no_grad_blocks_tape(self):
        x = randt(3)
        with no_grad():
            y = (x * x).sum()
        assert y._backward is None and not y.requires_grad

    def test_finite_guard(self):
        with pytest.raises(T.NumericalError):
            T.check_finite(np.array([1.0, np.nan]), "unit test")


class TestModule:
    def test_named_parameters_traversal(self):
        class Leaf(T.Module):
            def __init__(self):
                self.w = T.zeros_param((2, 2))
                self.frozen = Tensor(np.zeros(2))

        class Root(T.Module):
            def __init__(self):
                self.a = Leaf()
                self.items = [Leaf(), Leaf()]
                self.bias = T.zeros_param(3)

        names = [n for n, _ in Root().named_parameters()]
        assert names == ["a.w", "items.0.w", "items.1.w", "bias"]

    def test_zero_grad(self):
        class M(T.Module):
            def __init__(self):
                self.w = T.zeros_param(3)

        m = M()
        backward((m.w * m.w).sum())
        assert m.w.grad is not None
        m.zero_grad()
        assert m.w.grad is None

    def test_trunc_normal_bounds(self):
        p = T.trunc_normal((1000,), np.random.default_rng(0))
        assert np.abs(p.data).max() <= 0.04 + 1e-9
        assert p.data.std() > 0.005


def test_relative_error_zero_for_zero_grads():
    assert relative_error(np.zeros(4), np.zeros(4)) == 0.0
