"""Network construction, layer arithmetic, LIF dynamics, checkpoints."""

import dataclasses
import functools
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spikedse as sd
from spikedse import network
from spikedse.errors import CheckpointError, ShapeMismatch, UnsupportedWindow
from spikedse.events import SpikeFrames
from spikedse.network import (
    LayerSpec,
    LayerWeights,
    LifParams,
    NetworkSpec,
    WeightSet,
    forward,
    lif_scan,
    relaxed_spike,
    simulate,
)


def random_frames(rng, timesteps, window, density=0.3):
    data = (rng.random((timesteps, 2, window, window)) < density).astype(np.uint8)
    return SpikeFrames(data=data, timesteps=timesteps, window=window)


def single_step_map(layer, weights, x):
    """Synaptic map of one (C, H, W) input at one timestep: the pool and
    conv kernels on a batch of one, the fc product written out."""
    if layer.kind == "fully_connected":
        return weights.weight @ x.reshape(-1) + weights.bias
    x = x.transpose(1, 2, 0)[None]
    if layer.kind == "avg_pool":
        out = network._pool(x, layer.kernel)
    else:
        out = network._conv(x, weights.weight, weights.bias, layer.padding, layer.stride)
    return out[0].transpose(2, 0, 1)


def reference_counts(net, weights, frames, spike_mode="hard", half_width=0.5):
    """Output spike counts from a per-timestep loop over one sample, with
    the single-sample (C, H, W) layer maps and the LIF update written out."""
    lif = net.lif
    v, s = {}, {}
    counts = 0.0
    for t in range(frames.timesteps):
        x = frames.data[t].astype(float)
        for i, layer in enumerate(net.layers):
            x = single_step_map(layer, weights.layers[i], x)
            if not layer.spiking:
                continue
            if i in v and lif.reset_mode == "zero":
                x = lif.leak * v[i] * (1.0 - s[i]) + x
            elif i in v:
                x = lif.leak * (v[i] - lif.v_threshold * s[i]) + x
            v[i] = x
            if spike_mode == "hard":
                s[i] = (x >= lif.v_threshold).astype(float)
            else:
                s[i] = relaxed_spike(x, lif.v_threshold, half_width)
            x = s[i]
        counts = counts + x
    return counts


def toy_spec():
    return NetworkSpec(
        layers=(
            LayerSpec("conv", 2, 2, kernel=3, padding=1, stride=1),
            LayerSpec("avg_pool", 2, 2, kernel=2, stride=2),
            LayerSpec("fully_connected", 2 * 3 * 3, 4),
            LayerSpec("fully_connected", 4, 2),
        ),
        input_window=6,
        lif=LifParams(v_threshold=0.4, leak=0.25),
    )


def active_weights(net, seed, gain):
    """Seeded weights scaled until every layer spikes."""
    weights = sd.init_weights(net, seed=seed)
    for lw in weights.layers:
        if lw is not None:
            lw.weight *= gain
            lw.bias += 0.15
    return weights


class TestBuildNetwork:
    def test_reference_fc_sizes(self):
        net100 = sd.build_network(100)
        fc1 = net100.layers[5]
        assert (fc1.in_channels, fc1.out_channels) == (1152, 512)
        assert net100.layers[6].out_channels == 2

        net50 = sd.build_network(50)
        fc1 = net50.layers[5]
        assert (fc1.in_channels, fc1.out_channels) == (288, 144)

    def test_layer_shapes_with_floor_division(self):
        net = sd.build_network(100)
        shapes = sd.layer_shapes(net.layers, net.input_window)
        assert [h for _, h, _ in shapes[:5]] == [25, 25, 12, 12, 6]
        assert net.flatten_size() == 32 * 6 * 6 == 1152

    def test_layer_stack_order(self):
        kinds = [l.kind for l in sd.build_network(50).layers]
        assert kinds == [
            "avg_pool", "conv", "avg_pool", "conv", "avg_pool",
            "fully_connected", "fully_connected",
        ]

    def test_strict_mode_rejects_other_windows(self):
        with pytest.raises(UnsupportedWindow):
            sd.build_network(64)

    def test_extended_mode_recomputes_sizes(self):
        net = sd.build_network(64, strict=False)
        assert net.flatten_size() == net.layers[5].in_channels


def simulated_shapes(net):
    """Output (C, H, W) of each layer as read off a recorded `simulate`."""
    w = net.input_window
    frames = sd.SpikeFrames(np.zeros((2, 2, w, w), np.uint8), 2, w)
    trace = sd.simulate(net, sd.init_weights(net, 0), [frames], record=True).trace
    shapes = []
    for i, layer in enumerate(net.layers):
        if layer.spiking:
            out = trace[i].spikes.shape[2:]  # channels-last, or (out,) for fc
        else:  # a pool's output is the input of the spiking layer after it
            out = trace[i + 1].inputs.shape[2:]
            if net.layers[i + 1].kind == "fully_connected":  # kept in (C, H, W)
                out = out[1:] + out[:1]
        shapes.append((out[2], out[0], out[1]) if len(out) == 3 else (out[0], 1, 1))
    return shapes


class TestLayerShapes:
    @pytest.mark.parametrize(
        "window, strict", [(50, True), (100, True), (16, False), (37, False), (64, False)]
    )
    def test_matches_simulated_shapes(self, window, strict):
        net = sd.build_network(window, strict=strict)
        assert sd.layer_shapes(net.layers, window) == simulated_shapes(net)

    def test_fc_layers_have_unit_spatial_size(self):
        net = sd.build_network(50)
        assert sd.layer_shapes(net.layers, 50)[5:] == [(144, 1, 1), (2, 1, 1)]

    def test_collapsing_window_raises(self):
        with pytest.raises(UnsupportedWindow):
            sd.build_network(8, strict=False)
        layers = sd.build_network(50).layers
        with pytest.raises(UnsupportedWindow):
            sd.layer_shapes(layers, 3)


class TestLifStep:
    """The LIF recurrence, run by lif_scan over a (T, ...) current."""

    def params(self, **kw):
        return LifParams(**{"v_threshold": 1.0, "leak": 0.0, **kw})

    def test_zero_input_zero_state(self):
        v = np.zeros((1, 3))
        spikes = lif_scan(v, self.params())
        assert np.all(spikes == 0)
        assert np.all(v == 0)

    def test_threshold_equality_fires(self):
        spikes = lif_scan(np.array([[1.0]]), self.params())
        assert spikes[0, 0]

    def test_hand_evaluated_recurrence(self):
        # th=1.0, leak=0.5: V1 = 0.6 (no spike), V2 = 0.5*0.6 + 0.8 = 1.1 (spike)
        v = np.array([[0.6], [0.8]])
        s = lif_scan(v, self.params(leak=0.5))
        assert not s[0, 0] and v[0, 0] == pytest.approx(0.6)
        assert s[1, 0] and v[1, 0] == pytest.approx(1.1)

    def test_reset_mask_applies_next_step(self):
        v = np.array([[2.0], [0.1]])  # fires, then the previous V is masked out
        lif_scan(v, self.params(leak=0.5))
        assert v[1, 0] == pytest.approx(0.1)

    def test_geometric_integration_subthreshold(self):
        # below threshold the recurrence is V_t = sum_k leak^(t-k) I_k
        rng = np.random.default_rng(0)
        currents = rng.uniform(0, 0.05, size=(6, 4))
        v = currents.copy()
        lif_scan(v, LifParams(v_threshold=10.0, leak=0.7))
        expected = np.zeros(4)
        for t in range(6):
            expected = 0.7 * expected + currents[t]
        assert np.allclose(v[-1], expected)

    def test_shape_mismatch(self):
        # one scan covers the whole batch, so its samples must share T
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=0)
        batch = [
            SpikeFrames(np.zeros((t, 2, 50, 50), np.uint8), t, 50) for t in (5, 6)
        ]
        with pytest.raises(ShapeMismatch):
            simulate(net, weights, batch)

    def test_subtract_reset_mode(self):
        # soft reset subtracts the threshold instead of masking to zero
        v = np.array([[1.4], [0.2]])  # fires, V=1.4
        lif_scan(v, LifParams(v_threshold=1.0, leak=0.5, reset_mode="subtract"))
        assert v[1, 0] == pytest.approx(0.5 * (1.4 - 1.0) + 0.2)


def tap_loop_pool(x, kernel):
    """k x k average pool as a float64 sum over the k*k taps, in tap order."""
    n, h, w, c = x.shape
    h2, w2 = h // kernel, w // kernel
    out = np.zeros((n, h2, w2, c))
    for u in range(kernel):
        for v in range(kernel):
            out += x[:, u : h2 * kernel : kernel, v : w2 * kernel : kernel]
    return out / (kernel * kernel)


class TestPool:
    """`_pool` against the tap loop: exact for bool and uint8 inputs."""

    @staticmethod
    def assert_exact(x, kernel):
        out = network._pool(x, kernel)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.tobytes() == tap_loop_pool(x, kernel).tobytes()

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_binary_inputs_exact(self, dtype, kernel):
        rng = np.random.default_rng(kernel)
        x = (rng.random((5, 12, 12, 3)) < 0.4).astype(dtype)
        self.assert_exact(x, kernel)

    @pytest.mark.parametrize("kernel", [2, 4])
    def test_full_uint8_range_does_not_overflow(self, kernel):
        x = np.full((2, 8, 8, 2), 255, np.uint8)
        self.assert_exact(x, kernel)
        assert np.all(network._pool(x, kernel) == 255.0)
        rng = np.random.default_rng(3)
        self.assert_exact(rng.integers(0, 256, (4, 9, 10, 2), dtype=np.uint8), kernel)

    @pytest.mark.parametrize("shape", [(3, 11, 9, 2), (2, 7, 13, 1), (1, 5, 4, 3)])
    @pytest.mark.parametrize("kernel", [2, 3, 4])
    def test_trailing_rows_and_columns_drop(self, shape, kernel):
        rng = np.random.default_rng(7)
        x = rng.random(shape) < 0.5
        self.assert_exact(x, kernel)
        assert network._pool(x, kernel).shape[1:3] == (
            shape[1] // kernel, shape[2] // kernel,
        )

    def test_channels_last_view_of_stacked_frames(self):
        # the (T*B, H, W, C) view `simulate` builds over (T, B, C, H, W) frames
        rng = np.random.default_rng(11)
        stacked = (rng.random((3, 4, 2, 50, 50)) < 0.2).astype(np.uint8)
        x = stacked.transpose(0, 1, 3, 4, 2).reshape(12, 50, 50, 2)
        assert not x.flags.c_contiguous
        self.assert_exact(x, 4)

    def test_float_inputs_within_tolerance(self):
        rng = np.random.default_rng(5)
        x = rng.random((6, 13, 12, 4))
        for kernel in (2, 4):
            out = network._pool(x, kernel)
            assert out.dtype == np.float64 and out.flags.c_contiguous
            np.testing.assert_allclose(out, tap_loop_pool(x, kernel), rtol=0, atol=1e-12)


def divide_pool(x, kernel):
    """`_pool`'s sums in its order (exact integers for bool and uint8),
    then a plain np.divide by k * k."""
    n, h, w, c = x.shape
    h2, w2 = h // kernel, w // kernel
    acc = float if x.dtype == np.float64 else np.int64
    rows = np.zeros((n, h2, w2 * kernel, c), acc)
    for u in range(kernel):
        rows += x[:, u : h2 * kernel : kernel, : w2 * kernel]
    sums = np.zeros((n, h2, w2, c), acc)
    for v in range(kernel):
        sums += rows[:, :, v::kernel]
    return np.divide(sums, kernel * kernel)


def divide_pool_backward(grad_out, kernel, in_shape):
    """`_pool_backward` with a plain np.divide by k * k."""
    h2, w2 = grad_out.shape[1:3]
    grad_in = np.zeros(in_shape)
    spread = np.divide(grad_out, kernel * kernel)
    for u in range(kernel):
        for v in range(kernel):
            grad_in[:, u : h2 * kernel : kernel, v : w2 * kernel : kernel] = spread
    return grad_in


class TestPoolScaling:
    """`_pool` and `_pool_backward` scale by 1 / k^2 where k^2 is a power
    of two and divide by it elsewhere; either way the bytes are a plain
    divide's, for -0.0, subnormals, +-inf and NaN too."""

    SPECIALS = np.array([-0.0, 5e-324, -5e-324, 2.2e-308, -3e-310, np.inf, -np.inf,
                         np.nan, 1.0, -0.75, 1e308])

    def inputs(self, dtype, kernel):
        rng = np.random.default_rng(kernel)
        shape = (3, 4 * kernel + 1, 3 * kernel, 5)
        if dtype is float:
            x = rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-320, 300, shape)
            spots = rng.random(shape) < 0.3
            x[spots] = rng.choice(self.SPECIALS, int(spots.sum()))
            x[0] = rng.choice(self.SPECIALS[:5], shape[1:])  # zeros and subnormals alone
            return x
        if dtype is bool:
            return rng.random(shape) < 0.4
        return rng.integers(0, 256, shape, dtype=np.uint8)

    @pytest.mark.parametrize("kernel", [2, 3, 4])
    @pytest.mark.parametrize("dtype", [bool, np.uint8, float])
    def test_pool_and_backward_equal_divide(self, dtype, kernel):
        x = self.inputs(dtype, kernel)
        _, h, w, _ = x.shape
        grad = x[:, : h // kernel, : w // kernel]
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, 1e308 sums
            assert_same_bytes(network._pool(x, kernel), divide_pool(x, kernel))
            assert_same_bytes(network._pool_backward(grad, kernel, x.shape),
                              divide_pool_backward(grad, kernel, x.shape))
        if kernel == 3 and dtype is float:  # a multiply by 1/9 would show here
            assert not np.array_equal(x * (1 / 9), x / 9, equal_nan=True)


class TestLayerForward:
    """The pool and conv kernels on one channels-last map, and the fc check."""

    def test_avg_pool_of_ones(self):
        out = network._pool(np.ones((1, 2, 2, 1)), 2)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 1.0

    def test_avg_pool_floor_drops_remainder(self):
        x = np.arange(25, dtype=float).reshape(1, 5, 5, 1)
        out = network._pool(x, 2)
        assert out.shape == (1, 2, 2, 1)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 5 + 6) / 4)

    def test_conv_delta_kernel_sums_channels(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 5, 5))
        w = np.zeros((1, 3, 3, 3))
        w[:, :, 1, 1] = 1.0  # delta at the center of each input channel
        out = network._conv(x.transpose(1, 2, 0)[None], w, np.zeros(1), 1, 1)
        assert np.allclose(out[0, :, :, 0], x.sum(axis=0))

    @pytest.mark.parametrize("pad,stride", [(1, 1), (0, 1), (1, 2), (0, 2)])
    def test_conv_matches_naive_loops(self, pad, stride):
        rng = np.random.default_rng(5)
        x = rng.random((2, 6, 6))
        w = rng.random((3, 2, 3, 3)) - 0.5
        b = rng.random(3)
        out = network._conv(x.transpose(1, 2, 0)[None], w, b, pad, stride)
        out = out[0].transpose(2, 0, 1)

        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        h_out = (6 + 2 * pad - 3) // stride + 1
        ref = np.zeros((3, h_out, h_out))
        for o in range(3):
            for i in range(h_out):
                for j in range(h_out):
                    acc = b[o]
                    for c in range(2):
                        for u in range(3):
                            for v in range(3):
                                acc += w[o, c, u, v] * xp[c, i * stride + u, j * stride + v]
                    ref[o, i, j] = acc
        assert np.allclose(out, ref)

    def test_fc_shape_mismatch(self):
        net = NetworkSpec((LayerSpec("fully_connected", 9, 2),), input_window=2)
        frames = SpikeFrames(np.zeros((1, 2, 2, 2), np.uint8), 1, 2)  # 8 inputs
        with pytest.raises(ShapeMismatch):
            simulate(net, sd.init_weights(net, seed=0), [frames])


def direct_conv(x, weight, bias, padding, stride):
    """Loop reference of `_conv`: channels-last (N, H, W, C) in, (N, Ho, Wo, O) out."""
    n, h, w, c = x.shape
    o, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    out = np.empty((n, ho, wo, o))
    for b in range(n):
        for i in range(ho):
            for j in range(wo):
                for q in range(o):
                    acc = bias[q]
                    for u in range(k):
                        for v in range(k):
                            for ch in range(c):
                                acc += xp[b, i * stride + u, j * stride + v, ch] * (
                                    weight[q, ch, u, v]
                                )
                    out[b, i, j, q] = acc
    return out


def direct_conv_backward(grad, x, weight, padding, stride):
    """Loop reference of `_conv_backward`: (d_weight, d_bias, d_input)."""
    n, h, w, c = x.shape
    o, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    d_weight = np.zeros(weight.shape)
    d_bias = np.zeros(o)
    d_xp = np.zeros(xp.shape)
    for b in range(n):
        for i in range(grad.shape[1]):
            for j in range(grad.shape[2]):
                g = grad[b, i, j]
                d_bias += g
                for u in range(k):
                    for v in range(k):
                        r, s = i * stride + u, j * stride + v
                        d_weight[:, :, u, v] += np.outer(g, xp[b, r, s])
                        d_xp[b, r, s] += weight[:, :, u, v].T @ g
    return d_weight, d_bias, d_xp[:, padding : padding + h, padding : padding + w]


class TestConvKernels:
    """`_conv` and `_conv_backward` against the direct loops above."""

    # (channels, stride, padding, height, width)
    SHAPES = [
        (2, 1, 1, 7, 5),
        (2, 2, 0, 9, 6),
        (2, 2, 1, 5, 8),
        (32, 1, 0, 5, 7),
        (32, 2, 1, 7, 7),
        (32, 1, 1, 3, 3),
        (4, 1, 2, 4, 5),  # p = k - 1: d_input is a transposed conv at padding 0
        (2, 3, 1, 8, 8),  # stride 3 with a remainder row and column
    ]

    @staticmethod
    def operands(rng, c, h, w, on_grid):
        n, o = 3, 4
        if on_grid:  # 2^-n grids: every partial sum is exact in float64
            x = rng.integers(0, 17, (n, h, w, c)) / 16
            if on_grid == "sparse":  # about a fifth of the pixels non-zero
                x *= rng.random((n, h, w, 1)) < 0.2
            weight = rng.integers(-64, 65, (o, c, 3, 3)) / 64
            bias = rng.integers(-8, 9, o) / 8
        else:
            x = rng.random((n, h, w, c))
            weight = rng.uniform(-1, 1, (o, c, 3, 3))
            bias = rng.uniform(-1, 1, o)
        return x, weight, bias

    @staticmethod
    def check(actual, expected, on_grid):
        assert actual.shape == expected.shape
        if on_grid:
            assert np.array_equal(actual, expected)
        else:
            np.testing.assert_allclose(
                actual, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
            )

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("on_grid", [True, False, "sparse"])
    @pytest.mark.parametrize("c,stride,pad,h,w", SHAPES)
    def test_forward_and_backward_match_loops(
        self, monkeypatch, c, stride, pad, h, w, on_grid, split
    ):
        """on_grid="sparse" runs the forward as an exactly summed conv with
        no density limit, so every stride-1 shape takes `_conv_events`."""
        if split:  # row blocks of two samples: the third one is a partial block
            ho, wo = (h + 2 * pad - 3) // stride + 1, (w + 2 * pad - 3) // stride + 1
            monkeypatch.setattr(network, "_BLOCK_BYTES", 2 * ho * wo * 9 * c * 8)
        rng = np.random.default_rng(c * 100 + h * 10 + w)
        x, weight, bias = self.operands(rng, c, h, w, on_grid)
        sparse = on_grid == "sparse"
        calls = []
        if sparse:
            monkeypatch.setattr(network, "_SCATTER_COST", 0)
            kernel = network._conv_events
            monkeypatch.setattr(network, "_conv_events",
                                lambda *args: calls.append(1) or kernel(*args))
        out = network._conv(x, weight, bias, pad, stride, exact=sparse)
        assert len(calls) == (sparse and stride == 1)
        self.check(out, direct_conv(x, weight, bias, pad, stride), on_grid)

        if on_grid:
            grad = rng.integers(-32, 33, out.shape) / 32
        else:
            grad = rng.uniform(-1, 1, out.shape)
        expected = direct_conv_backward(grad, x, weight, pad, stride)
        actual = network._conv_backward(grad, x, weight, pad, stride, input_grad=True)
        for a, e in zip(actual, expected):
            self.check(a, e, on_grid)
        no_dx = network._conv_backward(grad, x, weight, pad, stride, input_grad=False)
        assert no_dx[2] is None
        assert np.array_equal(no_dx[0], actual[0])


class TestSparseTrainingConvs:
    """The full-precision conv paths that skip silent input: all-zero input
    frames get the bias map (`_conv`), and a sparse input's d_weight is one
    gather-GEMM per tap (`_conv_backward`)."""

    @staticmethod
    def spy_dense(monkeypatch):
        """Record the frame count of every `_conv_dense` call."""
        rows = []
        kernel = network._conv_dense
        monkeypatch.setattr(network, "_conv_dense",
                            lambda x, *args, **kwargs: rows.append(len(x))
                            or kernel(x, *args, **kwargs))
        return rows

    @classmethod
    def run(cls, monkeypatch, net, weights, frames):
        """Recorded `simulate` as is and with every conv on all its frames;
        returns both results and the frame counts the first one's GEMMs read."""
        with monkeypatch.context() as patch:
            rows = cls.spy_dense(patch)
            result = simulate(net, weights, frames, record=True)
            rows = list(rows)
            patch.setattr(network, "_conv", lambda x, weight, bias, padding, stride,
                          exact=False: network._conv_dense(x, weight, bias, padding, stride))
            dense = simulate(net, weights, frames, record=True)
        return result, dense, rows

    @pytest.mark.parametrize("live", [0.0, 0.1, 0.3, 0.5, 0.6, 1.0])
    @pytest.mark.parametrize("c,stride,pad,h,w", [
        (2, 1, 1, 7, 5), (2, 2, 0, 9, 6), (32, 1, 1, 6, 6), (32, 2, 1, 7, 7),
        (32, 1, 0, 3, 3), (4, 1, 0, 3, 4),
    ])
    def test_live_frame_gemm_equals_dense_bit_for_bit(
        self, monkeypatch, c, stride, pad, h, w, live
    ):
        rng = np.random.default_rng(int(live * 10) + c + h)
        n = 40
        frames = rng.permutation(n) < round(live * n)
        x = rng.random((n, h, w, c)) * (rng.random((n, h, w, 1)) < 0.3)
        x[~frames] = 0.0
        x[frames, 0, 0, 0] = 0.5  # every live frame has a non-zero pixel
        weight = rng.uniform(-1, 1, (5, c, 3, 3))
        bias = rng.uniform(-1, 1, 5)
        rows = self.spy_dense(monkeypatch)
        out = network._conv(x, weight, bias, pad, stride)
        n_live = int(frames.sum())
        if 2 * n_live > n:
            assert rows == [n]
        else:
            assert rows == ([n_live] if n_live else [])
        assert np.array_equal(out, network._conv_dense(x, weight, bias, pad, stride))

    def test_recorded_forward_equals_dense(self, monkeypatch):
        samples, _ = sd.make_synthetic_dataset(per_class=3, seed=11, test_fraction=0.0)
        frames = [f for f, _ in sd.encode_dataset(samples, 50, 10)]
        net = sd.build_network(50)
        weights = active_weights(net, 1, 1.0)  # 40 % of conv2's input frames are live
        for i in (3, 5, 6):
            weights.layers[i].weight *= 3.0
        result, dense, rows = self.run(monkeypatch, net, weights, frames)
        assert rows == [60, 24]  # conv1 reads every frame, conv2 the live 40 %
        assert all(tr.spikes.any() for tr in result.trace if tr is not None)
        TestEventDrivenConv.assert_equal(result, dense)

    @pytest.mark.parametrize("case", ["all dead", "one live frame", "1x1 map"])
    def test_edge_batches_equal_dense(self, monkeypatch, case):
        window = 3 if case == "1x1 map" else 6
        net = NetworkSpec(
            layers=(
                LayerSpec("conv", 2, 4, kernel=3, padding=0 if window == 3 else 1),
                LayerSpec("fully_connected", 4 * (1 if window == 3 else 36), 2),
            ),
            input_window=window,
        )
        weights = active_weights(net, 4, 3.0)
        weights.layers[0].bias[:2] += 0.3  # silent frames fire on the bias alone
        data = np.zeros((5, 2, window, window), np.uint8)
        if case != "all dead":
            data[2, :, 1, 1] = 1  # one live frame of the 10
        frames = [SpikeFrames(data, 5, window), SpikeFrames(np.zeros_like(data), 5, window)]
        result, dense, rows = self.run(monkeypatch, net, weights, frames)
        assert rows == {"all dead": [], "one live frame": [1], "1x1 map": [1]}[case]
        assert result.trace[0].spikes.any()
        TestEventDrivenConv.assert_equal(result, dense)

    @pytest.mark.parametrize("share", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("c,pad,h,w", [(32, 1, 6, 6), (32, 0, 5, 7), (8, 1, 4, 9)])
    def test_gathered_weight_gradient_matches_dense(self, monkeypatch, c, pad, h, w,
                                                     share):
        """share is the expected share of non-zero pixels as a fraction of
        the largest that `_active_pixels` accepts."""
        rng = np.random.default_rng(c + h + int(share * 10))
        density = share * c / (c + network._SCATTER_COST)
        x = rng.random((30, h, w, c)) * (rng.random((30, h, w, 1)) < density)
        weight = rng.uniform(-1, 1, (6, c, 3, 3))
        grad = rng.uniform(-1, 1, (30, h + 2 * pad - 2, w + 2 * pad - 2, 6))
        calls = []
        kernel = network._weight_grad_events
        with monkeypatch.context() as patch:
            patch.setattr(network, "_weight_grad_events",
                          lambda *args: calls.append(1) or kernel(*args))
            gathered = network._conv_backward(grad, x, weight, pad, 1, input_grad=True)
            no_dx = network._conv_backward(grad, x, weight, pad, 1, input_grad=False)
        assert len(calls) == 2
        assert no_dx[2] is None and np.array_equal(no_dx[0], gathered[0])
        monkeypatch.setattr(network, "_active_pixels", lambda x: None)
        dense = network._conv_backward(grad, x, weight, pad, 1, input_grad=True)
        scale = max(np.abs(dense[0]).max(), 1e-300)
        assert np.abs(gathered[0] - dense[0]).max() <= 1e-12 * scale
        assert np.array_equal(gathered[1], dense[1])
        assert np.array_equal(gathered[2], dense[2])


@functools.cache
def trained_float_net():
    """A W=50 float net from 2 criterion-6-config epochs at T = 5, and its
    34-recording test split."""
    train_s, test_s = sd.make_synthetic_dataset(per_class=50, seed=11)
    config = sd.TrainConfig(epochs=2, batch_size=20, learning_rate=0.1, momentum=0.9,
                            seed=123, timesteps=5, window=50)
    net = sd.build_network(50)
    weights, _ = sd.train(net, sd.encode_dataset(train_s, 50, 5), config)
    assert weights.quant is None and len(test_s) == 34
    return net, weights, test_s


@functools.cache
def float_net_frames(timesteps):
    return [f for f, _ in sd.encode_dataset(trained_float_net()[2], 50, timesteps)]


@st.composite
def batch_slices(draw):
    """(B, lo, hi): a batch of B test recordings and a sub-batch of it."""
    batch = draw(st.integers(1, 34))
    lo = draw(st.integers(0, batch - 1))
    return batch, lo, draw(st.integers(lo + 1, batch))


class TestBatchInvariance:
    """A sample's values depend on the model and the sample alone: a
    sub-batch's counts, and every spiking layer's potentials and spikes,
    are the bytes of its rows inside the full batch, for a trained float
    net, any B, T and slice, on every BLAS kernel (`_column_blocks`,
    `_fixed_rows`)."""

    @given(case=batch_slices(), timesteps=st.integers(1, 8))
    # the lone last recording of the whole split: fc1 moved by rounding
    # while every product's row count followed the batch
    @example(case=(34, 33, 34), timesteps=5)
    @settings(max_examples=12, deadline=None)
    def test_sub_batch_rows_equal_the_full_batch(self, case, timesteps):
        batch, lo, hi = case
        net, weights, _ = trained_float_net()
        frames = float_net_frames(timesteps)[:batch]
        full = simulate(net, weights, frames, record=True)
        part = simulate(net, weights, frames[lo:hi], record=True)
        assert_same_bytes(part.counts, full.counts[lo:hi])
        for got, whole in zip(part.trace, full.trace, strict=True):
            assert (got is None) == (whole is None)
            if got is not None:
                for name in ("potentials", "spikes"):
                    assert_same_bytes(getattr(got, name), getattr(whole, name)[:, lo:hi])

    def test_every_layer_fires(self):
        net, weights, _ = trained_float_net()
        trace = simulate(net, weights, float_net_frames(5), record=True).trace
        assert all(tr.spikes.any() for tr in trace if tr is not None)


# Reference copies of the conv kernels as they were before the plane-wise
# columns, the per-frame bias rows and the word-wise pixel scan: channels-
# last im2col columns, broadcast bias adds and fills, and a float
# count_nonzero plus a per-pixel any(). The kernels must give their bytes.

def ref_frame_block(rows, depth):
    """Frames per row block of `rows` output rows each: 1 MiB of columns,
    down to a whole number of 8-row groups, or the fewest frames that make
    one."""
    block = network._BLOCK_BYTES // (rows * depth * 8)
    while block * rows % 8:
        block -= 1
    return block or 8 // math.gcd(rows, 8)


def ref_column_blocks(x, kernel, padding, stride):
    n, h, w, c = x.shape
    ho, wo = (network._conv_size(size, kernel, padding, stride) for size in (h, w))
    block = ref_frame_block(ho * wo, kernel * kernel * c)
    xp = np.zeros((min(block, n), h + 2 * padding, w + 2 * padding, c))
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (kernel, kernel), axis=(1, 2)
    )[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    cols = np.empty(windows.shape)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        xp[: hi - lo, padding : padding + h, padding : padding + w] = x[lo:hi]
        cols[: hi - lo] = windows[: hi - lo]
        yield lo, hi, cols[: hi - lo]


def ref_conv_dense(x, weight, bias, padding, stride):
    o, _, kernel, _ = weight.shape
    wm = weight.transpose(2, 3, 1, 0).reshape(-1, o)
    ho, wo = (network._conv_size(size, kernel, padding, stride) for size in x.shape[1:3])
    rows = ref_frame_block(ho * wo, len(wm)) * ho * wo
    out = np.empty((x.shape[0], ho, wo, o))
    for lo, hi, cols in ref_column_blocks(x, kernel, padding, stride):
        flat = cols.reshape(-1, wm.shape[0])
        padded = np.zeros((rows, len(wm)))  # every product has a full block's rows
        padded[: len(flat)] = flat
        out[lo:hi] = (padded @ wm)[: len(flat)].reshape(hi - lo, ho, wo, o)
    out += bias
    return out


def ref_active_pixels(x):
    c = x.shape[3]
    n_pixels = x.size // c
    limit = n_pixels * c / (c + network._SCATTER_COST)
    nonzero = np.count_nonzero(x)
    if nonzero >= limit * c:
        return None
    if not nonzero:
        return np.empty(0, np.intp)
    pixels = np.flatnonzero(x.reshape(n_pixels, c).any(axis=1))
    return pixels if pixels.size < limit else None


def ref_tap_outputs(pixels, h, w, kernel, padding):
    """`_tap_outputs` as it was before its (k, P) index arrays: each tap's
    output rows, bounds and row base built inside the tap loop."""
    ho, wo = h + 2 * padding - kernel + 1, w + 2 * padding - kernel + 1
    sample, rest = np.divmod(pixels, h * w)
    row, col = np.divmod(rest, w)
    base = sample * (ho * wo)
    for u in range(kernel):
        out_row = row + (padding - u)
        row_ok = (out_row >= 0) & (out_row < ho)
        row_base = base + out_row * wo
        for v in range(kernel):
            out_col = col + (padding - v)
            ok = row_ok & (out_col >= 0) & (out_col < wo)
            yield u, v, ok, (row_base + out_col)[ok]


def ref_conv_events(x, weight, bias, padding, pixels):
    n, h, w, c = x.shape
    o, _, kernel, _ = weight.shape
    ho, wo = h + 2 * padding - kernel + 1, w + 2 * padding - kernel + 1
    out = np.empty((n, ho, wo, o))
    out[:] = bias
    if not pixels.size:
        return out
    flat = out.reshape(-1, o)
    active = x.reshape(-1, c)[pixels].astype(float, copy=False)
    taps = weight.transpose(2, 3, 1, 0)
    for u, v, ok, rows in ref_tap_outputs(pixels, h, w, kernel, padding):
        flat[rows] += active[ok] @ taps[u, v]
    return out


def ref_conv(x, weight, bias, padding, stride, *, exact=False):
    o, c, kernel, _ = weight.shape
    if exact and stride == 1:
        pixels = ref_active_pixels(x)
        if pixels is not None:
            return ref_conv_events(x, weight, bias, padding, pixels)
    n = x.shape[0]
    ho, wo = (network._conv_size(size, kernel, padding, stride) for size in x.shape[1:3])
    live = np.flatnonzero(x.any(axis=(1, 2, 3)))
    if 2 * live.size > n:
        return ref_conv_dense(x, weight, bias, padding, stride)
    out = np.empty((n, ho, wo, o))
    out[:] = bias
    if live.size:
        out[live] = ref_conv_dense(x[live], weight, bias, padding, stride)
    return out


def on_grid(a, frac):
    """a rounded to the 2^-frac grid; -0.0 stays -0.0."""
    return np.round(a * 2.0**frac) / 2.0**frac


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestConvOracle:
    """`_conv`, `_conv_dense`, `_conv_events` and `_column_blocks` against
    the reference copies above, byte for byte: every valid padding of k 1
    and 3, strides 1 and 2, C in {1, 2, 3, 32}, O in {2, 5, 10, 32} (10
    is a count whose GEMM rows OpenBLAS sums in a row-count-dependent
    order), biases holding -0.0, and batches of 1, 2, 4 and 5 frames in
    row blocks of 3: one frame either side of the first block boundary,
    and one short of the second."""

    BLOCK = 3
    FRAMES = (1, 2, 4, 5)
    OUTPUTS = (2, 5, 10, 32)

    @staticmethod
    def sizes(c, kernel, padding, stride):
        """(H, W) inputs: the smallest (a 1 x 1 output map where padding
        allows it), a non-square one, and one with long output rows."""
        small = max(1, kernel - 2 * padding)
        return [(small, small), (small + 3, small + 5), (kernel, stride * kernel * c + kernel)]

    @staticmethod
    def operands(rng, n, h, w, c, o, kernel, silent=0.0):
        x = rng.random((n, h, w, c)) * (rng.random((n, h, w, c)) < 0.4)
        x[rng.random(n) < silent] = 0.0
        x[x > 0.9] = -0.0
        weight = rng.uniform(-1, 1, (o, c, kernel, kernel))
        weight[weight > 0.8] = 0.0
        bias = rng.uniform(-1, 1, o)
        bias[::3] = -0.0
        return x, weight, bias

    def cases(self, monkeypatch, c, kernel, padding, stride):
        """Yield (x, weight, bias) over every size, O and frame count, with
        `_BLOCK_BYTES` set to BLOCK frames of the size's columns."""
        rng = np.random.default_rng(1000 * c + 100 * kernel + 10 * padding + stride)
        for h, w in self.sizes(c, kernel, padding, stride):
            ho, wo = (network._conv_size(s, kernel, padding, stride) for s in (h, w))
            monkeypatch.setattr(network, "_BLOCK_BYTES",
                                self.BLOCK * ho * wo * kernel * kernel * c * 8)
            for o in self.OUTPUTS:
                for n in self.FRAMES:
                    yield self.operands(rng, n, h, w, c, o, kernel)

    GEOMETRY = [(k, p, s) for k, p in [(1, 0), (3, 0), (3, 1), (3, 2)] for s in (1, 2)]

    @pytest.mark.parametrize("c", [1, 2, 3, 32])
    @pytest.mark.parametrize("kernel,padding,stride", GEOMETRY)
    def test_dense_kernel_and_columns(self, monkeypatch, c, kernel, padding, stride):
        for x, weight, bias in self.cases(monkeypatch, c, kernel, padding, stride):
            assert_same_bytes(network._conv_dense(x, weight, bias, padding, stride),
                              ref_conv_dense(x, weight, bias, padding, stride))
            expected = [(lo, hi, cols.reshape(hi - lo, -1).copy()) for lo, hi, cols
                        in ref_column_blocks(x, kernel, padding, stride)]
            blocks = network._column_blocks(x, kernel, padding, stride)
            for (lo, hi, cols), (elo, ehi, ecols) in zip(blocks, expected, strict=True):
                assert (lo, hi) == (elo, ehi)
                assert_same_bytes(cols, ecols.reshape(cols.shape))

    @pytest.mark.parametrize("c", [1, 2, 3, 32])
    @pytest.mark.parametrize("kernel,padding,stride", GEOMETRY)
    def test_conv_with_silent_frames_and_events(self, monkeypatch, c, kernel, padding,
                                                stride):
        """`_conv` over inputs with all-zero frames (the bias-map fill),
        and exactly summed (`exact=True`, on operands rounded to grids
        `_exact_convs` admits), which at stride 1 runs `_conv_events`;
        _SCATTER_COST 0 lifts its density limit."""
        monkeypatch.setattr(network, "_SCATTER_COST", 0)
        rng = np.random.default_rng(7 * c + kernel + padding + stride)
        for x, weight, bias in self.cases(monkeypatch, c, kernel, padding, stride):
            n, h, w, _ = x.shape
            for silent in (0.0, 0.5, 1.0):
                xs, _, _ = self.operands(rng, n, h, w, c, 1, kernel, silent)
                for exact in (False, True):
                    args = (xs, weight, bias)
                    if exact:  # x on a k4 pool's 2^-4 grid, 10-bit codes
                        args = [on_grid(a, f) for a, f in zip(args, (4, 9, 9))]
                    assert_same_bytes(
                        network._conv(*args, padding, stride, exact=exact),
                        ref_conv(*args, padding, stride, exact=exact))
            if stride == 1:
                pixels = np.flatnonzero(x.reshape(-1, c).any(axis=1))
                assert_same_bytes(network._conv_events(x, weight, bias, padding, pixels),
                                  ref_conv_events(x, weight, bias, padding, pixels))

    @pytest.mark.parametrize("c,h,o", [(2, 12, 32), (32, 6, 32), (32, 12, 32), (2, 25, 10)])
    def test_reference_shapes_at_the_default_block(self, c, h, o):
        """The reference convs' shapes (and an O = 10 one) with 1 MiB row
        blocks: one frame either side of the first block boundary."""
        rng = np.random.default_rng(c + h + o)
        block = network._BLOCK_BYTES // (h * h * 9 * c * 8)
        for n in (block - 1, block + 1):
            x, weight, bias = self.operands(rng, n, h, h, c, o, 3)
            assert_same_bytes(network._conv_dense(x, weight, bias, 1, 1),
                              ref_conv_dense(x, weight, bias, 1, 1))


class TestExactConvOracle:
    """`_conv(exact=True)` on its dense kernel, which folds the bias into
    the GEMM, against the GEMM-then-add `ref_conv_dense`, byte for byte:
    ptq weights at every width the engine is tested at, biases and a
    channel of weights that round to -0.0, k4-pooled frames (conv1) and
    k2-pooled spikes (conv2), strides 1 and 2, and 1, 2 and 5 frames in row
    blocks of 2. Exact sums have one value in any order, so this holds on
    every BLAS kernel; the float path does not fold."""

    BLOCK = 2
    # (pool, C, input density): conv1 reads pooled binary frames, conv2 pooled spikes
    INPUTS = [(4, 2, 0.3), (2, 32, 0.1)]

    @staticmethod
    def quantized(rng, c, bits):
        """ptq'd (32, C, 3, 3) weights and bias; channel 0's weights and
        every third bias are tiny negatives that round to -0.0, and
        channel 1's weights are all negative."""
        weight = rng.uniform(-1, 1, (32, c, 3, 3))
        weight[0] = -1e-12
        weight[1] = -np.abs(weight[1])
        bias = rng.uniform(-1, 1, 32)
        bias[::3] = -1e-12
        q = sd.ptq(WeightSet([LayerWeights(weight, bias)]),
                   sd.QuantConfig(bits=bits, rounding="RN")).layers[0]
        for a in (q.weight[0], q.bias[::3]):
            assert np.all(a == 0) and np.all(np.signbit(a))
        return q.weight, q.bias

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pool,c,density", INPUTS)
    @pytest.mark.parametrize("bits", [4, 10, 16, 32])
    def test_folded_bias_equals_gemm_then_add(self, monkeypatch, bits, pool, c,
                                              density, stride):
        spec = NetworkSpec(
            layers=(LayerSpec("avg_pool", c, c, kernel=pool, stride=pool),
                    LayerSpec("conv", c, 32, kernel=3, padding=1, stride=stride)),
            input_window=6 * pool,
        )
        assert network._exact_convs(spec, bits) == {1}
        monkeypatch.setattr(network, "_SCATTER_COST", 10**9)  # no event-driven conv
        ho = network._conv_size(6, 3, 1, stride)
        monkeypatch.setattr(network, "_BLOCK_BYTES", self.BLOCK * ho * ho * 9 * c * 8)
        ones = []  # the ones= flag of every `_column_blocks` call
        blocks = network._column_blocks
        monkeypatch.setattr(network, "_column_blocks", lambda *args, **kwargs:
                            ones.append(kwargs.get("ones", False)) or blocks(*args, **kwargs))
        rng = np.random.default_rng(bits * 10 + pool + stride)
        weight, bias = self.quantized(rng, c, bits)
        for n in (1, 2, 5):
            raw = rng.random((n, 6 * pool, 6 * pool, c)) < density
            x = network._pool(raw if pool == 2 else raw.astype(np.uint8), pool)
            x[:, 0, 0, 0] = 1.0  # every frame live
            ones.clear()
            assert_same_bytes(network._conv(x, weight, bias, 1, stride, exact=True),
                              ref_conv_dense(x, weight, bias, 1, stride))
            assert ones == [True]
            ones.clear()
            assert_same_bytes(network._conv(x, weight, bias, 1, stride),
                              ref_conv_dense(x, weight, bias, 1, stride))
            assert ones == [False]


class TestTapOutputsOracle:
    """`_tap_outputs` yields, tap by tap, the bytes of its reference copy."""

    @staticmethod
    def assert_same_taps(pixels, h, w, kernel, padding):
        got = list(network._tap_outputs(pixels, h, w, kernel, padding))
        expected = list(ref_tap_outputs(pixels, h, w, kernel, padding))
        assert [(u, v) for u, v, _, _ in got] == [(u, v) for u, v, _, _ in expected]
        assert len(got) == kernel * kernel
        for (_, _, ok, rows), (_, _, ok_ref, rows_ref) in zip(got, expected):
            assert_same_bytes(ok, ok_ref)
            assert_same_bytes(rows, rows_ref)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_every_padding_and_border(self, kernel):
        n, h, w = 3, 7, 6
        flat = np.arange(n * h * w).reshape(n, h, w)
        border = np.zeros((h, w), bool)
        border[[0, -1]] = border[:, [0, -1]] = True
        rng = np.random.default_rng(kernel)
        interior = rng.choice(flat[:, 1:-1, 1:-1].ravel(), 9, replace=False)
        cases = [
            np.sort(np.concatenate([flat[:, border].ravel(), interior])),  # every border pixel
            flat.ravel(),  # every pixel
            np.array([0, h * w - 1, n * h * w - 1]),  # corners of the first and last map
        ]
        for padding in range(kernel):
            for pixels in cases:
                self.assert_same_taps(pixels.astype(np.intp), h, w, kernel, padding)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_empty_pixel_list(self, kernel):
        for padding in range(kernel):
            self.assert_same_taps(np.empty(0, np.intp), 5, 8, kernel, padding)


class TestActivePixelsOracle:
    """The word-wise pixel scan against the float count_nonzero plus
    any() reference: the same pixels, or None, for every dtype the engine
    passes, channel counts whose masks tile into 1-, 2-, 4- and 8-byte
    words, and float inputs holding NaN, +-inf and -0.0."""

    @staticmethod
    def check(x):
        expected = ref_active_pixels(x)
        actual = network._active_pixels(x)
        if expected is None:
            assert actual is None
        else:
            assert_same_bytes(actual, expected)
        return expected

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 6, 8, 12, 16, 32, 40])
    @pytest.mark.parametrize("dtype", [bool, np.uint8, float])
    def test_matches_reference(self, c, dtype):
        rng = np.random.default_rng(c)
        share = c / (c + network._SCATTER_COST)  # the density limit in pixels
        outcomes = set()
        for scale in (0.0, 0.3, 0.9, 1.1, 3.0):
            for fill in (1.0, 1 / c):  # every channel of an active pixel, or about one
                active = rng.random((7, 5, 6, 1)) < scale * share
                x = (active & (rng.random((7, 5, 6, c)) < fill)).astype(dtype)
                if dtype is float:
                    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.5])
                    x[x != 0] = rng.choice(specials, int(np.count_nonzero(x)))
                    x[rng.random(x.shape) < 0.2] = -0.0
                outcomes.add(self.check(x) is None)
                # a channels-last view of channels-first memory, as `simulate` makes
                self.check(np.ascontiguousarray(x.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1))
        assert outcomes == {True, False}

    def test_special_values_alone(self):
        """A pixel whose only non-zero channel is NaN or +-inf is active;
        one holding only -0.0 is not."""
        x = np.zeros((1, 4, 8, 32))
        x[0, 0, 0, 5] = np.nan
        x[0, 0, 2, 31] = np.inf
        x[0, 1, 1, 0] = -np.inf
        x[0, 1, 2, :] = -0.0
        assert self.check(x).tolist() == [0, 2, 9]


class TestForward:
    def test_zero_frames_zero_counts(self):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=0)  # biases start at zero
        frames = SpikeFrames(np.zeros((5, 2, 50, 50), np.uint8), 5, 50)
        assert np.all(forward(net, weights, frames).counts == 0)

    def test_t1_equals_single_step_pipeline(self):
        rng = np.random.default_rng(3)
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=1)
        frames = random_frames(rng, 1, 50)
        counts = forward(net, weights, frames).counts

        x = frames.data[0].astype(float)
        for i, layer in enumerate(net.layers):
            x = single_step_map(layer, weights.layers[i], x)
            if layer.spiking:
                x = lif_scan(x[None], net.lif)[0].astype(float)
        assert np.array_equal(counts, x)

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(11)
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=2)
        frames = random_frames(rng, 10, 50)
        a = forward(net, weights, frames).counts
        b = forward(net, weights, frames).counts
        assert np.array_equal(a, b)

    def test_all_spikes_binary(self):
        rng = np.random.default_rng(4)
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=7)
        for lw in weights.layers:
            if lw is not None:
                lw.weight *= 4.0  # force plenty of spiking
        frames = random_frames(rng, 8, 50, density=0.5)
        result = forward(net, weights, frames, record=True)
        recorded = [tr for tr in result.trace if tr is not None]
        assert len(recorded) == 4
        for layer_trace in recorded:
            assert layer_trace.spikes.dtype == bool

    def test_window_mismatch(self):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=0)
        frames = SpikeFrames(np.zeros((5, 2, 32, 32), np.uint8), 5, 32)
        with pytest.raises(ShapeMismatch):
            forward(net, weights, frames)

    def test_membrane_bounded_in_zero_reset(self):
        rng = np.random.default_rng(6)
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=9)
        frames = random_frames(rng, 10, 50, density=0.5)
        result = forward(net, weights, frames, record=True)
        for i, layer in enumerate(net.layers):
            if not layer.spiking:
                continue
            inputs = result.trace[i].inputs[:, 0]  # (T, ...) of the one sample
            if layer.kind == "conv":
                inputs = inputs.transpose(0, 3, 1, 2)  # channels-last -> (C, H, W)
            max_current = max(
                np.abs(single_step_map(layer, weights.layers[i], x)).max()
                for x in inputs
            )
            max_v = result.trace[i].potentials.max()
            assert max_v <= net.lif.v_threshold + max_current + 1e-12

    def test_fc2_scaling_preserves_argmax_when_interior(self):
        # counts must be strictly interior and not a near-tie: a one-spike
        # margin can always invert under rescaling, so require margin >= 2
        net = sd.build_network(50)
        samples, _ = sd.make_synthetic_dataset(
            per_class=4, seed=2, test_fraction=0.0
        )
        data = sd.encode_dataset(samples, 50, 10)
        checked = 0
        for seed in range(12):
            weights = sd.init_weights(net, seed=seed)
            for lw in weights.layers:
                if lw is not None:
                    lw.weight *= 3.0
                    lw.bias += 0.15
            for frames, _ in data[:4]:
                base = forward(net, weights, frames).counts
                interior = np.all(base > 0) and np.all(base < frames.timesteps)
                if not interior or abs(base[0] - base[1]) < 2:
                    continue
                for gamma in (0.5, 2.0):
                    fc2 = weights.layers[6]
                    scaled_w = WeightSet(weights.layers[:6] + (
                        LayerWeights(fc2.weight * gamma, fc2.bias),))
                    counts = forward(net, scaled_w, frames).counts
                    if (
                        np.all(counts > 0)
                        and np.all(counts < frames.timesteps)
                        and counts[0] != counts[1]
                    ):
                        checked += 1
                        assert np.argmax(counts) == np.argmax(base)
        assert checked >= 10


class TestEngineEquivalence:
    """The batched engine against the per-timestep reference loop."""

    @pytest.fixture(scope="class")
    def cases(self):
        samples, _ = sd.make_synthetic_dataset(per_class=4, seed=2, test_fraction=0.0)
        rng = np.random.default_rng(8)
        w50 = sd.build_network(50)
        toy = toy_spec()
        return {
            "w50": (
                w50, active_weights(w50, 1, 3.0), sd.encode_dataset(samples, 50, 10)
            ),
            "toy": (
                toy,
                active_weights(toy, 5, 2.0),
                [(random_frames(rng, 4, 6, density=0.4), i % 2) for i in range(8)],
            ),
        }

    @pytest.mark.parametrize("name", ["w50", "toy"])
    def test_forward_hard_counts_equal_reference(self, cases, name):
        net, weights, data = cases[name]
        total = 0.0
        for frames, _ in data:
            counts = forward(net, weights, frames).counts
            assert np.array_equal(counts, reference_counts(net, weights, frames))
            total += counts.sum()
        assert total > 0

    @pytest.mark.parametrize("name", ["w50", "toy"])
    def test_forward_relaxed_counts_match_reference(self, cases, name):
        # same arithmetic per element; only the GEMM summation order may
        # differ, so allow a few ulps of the count
        net, weights, data = cases[name]
        for frames, _ in data:
            counts = forward(net, weights, frames, spike_mode="relaxed").counts
            expected = reference_counts(net, weights, frames, spike_mode="relaxed")
            np.testing.assert_allclose(counts, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["w50", "toy"])
    def test_evaluate_matches_reference(self, cases, name):
        net, weights, data = cases[name]
        hits = [
            sd.decode(reference_counts(net, weights, frames), frames.timesteps)[0]
            == label
            for frames, label in data
        ]
        assert sd.evaluate(net, weights, data) == np.mean(hits)

    def test_quantized_counts_equal_across_batch_sizes(self):
        # sums of values on a 2^-n grid are exact, so batching cannot move them
        samples, _ = sd.make_synthetic_dataset(per_class=12, seed=4, test_fraction=0.0)
        data = sd.encode_dataset(samples, 50, 10)
        assert len(data) == 24
        net = sd.build_network(50)
        weights = sd.ptq(active_weights(net, 6, 3.0), sd.QuantConfig(bits=10))
        batched = simulate(net, weights, [frames for frames, _ in data]).counts
        single = np.array([forward(net, weights, frames).counts for frames, _ in data])
        assert batched.sum() > 0
        assert np.array_equal(batched, single)


def ref_simulate(net, weights, frames, *, record=False):
    """`simulate` as it was before its one-call input stage: each sample's
    frames unpacked by `data`, stacked into the (T*B, W, W, 2) view of
    (T, B, 2, W, W) memory, and every layer, a leading pool too, run by the
    layer loop (hard spikes)."""
    T, B = frames[0].timesteps, len(frames)
    n = T * B
    x = np.stack([f.data for f in frames], axis=1).transpose(0, 1, 3, 4, 2)
    x = x.reshape((n,) + x.shape[2:])
    trace = [None] * len(net.layers)
    quant = weights.quant
    exact = network._exact_convs(net, quant["bits"]) if quant is not None else set()
    for i, layer in enumerate(net.layers):
        if layer.kind == "avg_pool":
            x = network._pool(x, layer.kernel)
            continue
        lw = weights.layers[i]
        if layer.kind == "conv":
            v = network._conv(x, lw.weight, lw.bias, layer.padding, layer.stride,
                              exact=i in exact)
        else:
            if x.ndim == 4:
                x = x.transpose(0, 3, 1, 2)
            x = np.ascontiguousarray(x, dtype=float)
            flat = x.reshape(n, -1)
            if i in exact:
                v = flat @ lw.weight.T
            else:  # products of _FC_ROWS rows, the last one's padding rows zero
                rows = network._FC_ROWS
                padded = np.zeros((-(-n // rows) * rows, flat.shape[1]))
                padded[:n] = flat
                v = np.concatenate([padded[lo : lo + rows] @ lw.weight.T
                                    for lo in range(0, len(padded), rows)])[:n]
            v += lw.bias
        v = v.reshape((T, B) + v.shape[1:])
        spikes = lif_scan(v, net.lif)
        trace[i] = network.LayerTrace(x.reshape((T, B) + x.shape[1:]), v, spikes)
        x = spikes.reshape((n,) + spikes.shape[2:])
    counts = x.reshape(T, B, -1).sum(axis=0, dtype=float)
    return counts, trace if record else None


class TestInputStage:
    """`simulate`'s one-call unpack and word-lane leading pool give the
    bytes of the per-sample unpack and `_pool` (`ref_simulate`): counts and
    every LayerTrace, for any window, batch, T and first layer."""

    @staticmethod
    def net(first, window):
        if first == "conv":
            head = (LayerSpec("conv", 2, 3, kernel=3, padding=1),
                    LayerSpec("avg_pool", 3, 3, kernel=2, stride=2))
        elif first == "fc":
            head = ()
        else:
            head = (LayerSpec("avg_pool", 2, 2, kernel=first, stride=first),
                    LayerSpec("conv", 2, 3, kernel=3, padding=1))
        flat = 2 * window * window if not head else math.prod(
            network.layer_shapes(head, window)[-1])
        return NetworkSpec(head + (LayerSpec("fully_connected", flat, 4),
                                   LayerSpec("fully_connected", 4, 2)), window)

    @staticmethod
    def batch(fill, batch, timesteps, window, rng):
        shape = (timesteps, 2, window, window)
        if fill == "random":
            return [random_frames(rng, timesteps, window, density=0.4) for _ in range(batch)]
        value = np.uint8(fill == "ones")
        return [SpikeFrames(np.full(shape, value), timesteps, window) for _ in range(batch)]

    @pytest.mark.parametrize("window", [13, 50, 51, 100])
    @pytest.mark.parametrize("first", [2, 3, 4, 8, "conv", "fc"])
    def test_same_bytes_as_the_per_sample_unpack(self, first, window):
        net = self.net(first, window)
        weights = active_weights(net, seed=window, gain=2.0)
        rng = np.random.default_rng(window)
        fired = 0.0
        # all-one frames fill each 8 x 8 block: a lane sum of 64
        for fill in ("random", "zeros", "ones"):
            for batch, timesteps in ((1, 1), (1, 10), (12, 1), (12, 10)):
                frames = self.batch(fill, batch, timesteps, window, rng)
                for record in (False, True):
                    result = simulate(net, weights, frames, record=record)
                    counts, trace = ref_simulate(net, weights, frames, record=record)
                    assert_same_bytes(result.counts, counts)
                    if not record:
                        assert result.trace is None
                        continue
                    assert len(result.trace) == len(trace)
                    for got, expected in zip(result.trace, trace):
                        assert (got is None) == (expected is None)
                        if got is not None:
                            for name in ("inputs", "potentials", "spikes"):
                                assert_same_bytes(getattr(got, name), getattr(expected, name))
                            fired += got.spikes.sum()
        assert fired > 0


def thawed(weights):
    """Writable copies of a WeightSet's layers."""
    return [None if lw is None else LayerWeights(lw.weight.copy(), lw.bias.copy())
            for lw in weights.layers]


def sparse_quantized_net(window, bits):
    """A ptq net whose layers all fire on ATIS-geometry recordings while
    only 9-17 % of conv2's input pixels are non-zero (conv1's: about half)."""
    net = sd.build_network(window)
    weights = active_weights(net, 2, 1.5)
    for i in (5, 6):  # keeps the 4-bit fc weights off zero
        weights.layers[i].weight *= 2.0
    return net, sd.ptq(weights, sd.QuantConfig(bits=bits, rounding="RN"))


class TestEventDrivenConv:
    """`simulate`'s event-driven conv against its dense im2col conv: on a
    2^-n grid whose sums fit the mantissa both are exact, so equal."""

    @pytest.fixture(scope="class")
    def recordings(self):
        samples, _ = sd.make_synthetic_dataset(
            per_class=2, seed=2, test_fraction=0.0,
            sensor_width=sd.events.DEFAULT_SENSOR_WIDTH,
            sensor_height=sd.events.DEFAULT_SENSOR_HEIGHT,
        )
        return samples

    @staticmethod
    def run(monkeypatch, net, weights, frames, **kwargs):
        """Recorded `simulate` twice: as is, and with every conv dense.
        Returns both results and the layers that ran `_conv_events`."""
        event_layers = []
        kernel = network._conv_events
        index = {id(lw.weight): i for i, lw in enumerate(weights.layers) if lw is not None}

        def spy(x, weight, *args):
            event_layers.append(index[id(weight)])
            return kernel(x, weight, *args)

        with monkeypatch.context() as patch:
            patch.setattr(network, "_conv_events", spy)
            result = simulate(net, weights, frames, record=True, **kwargs)
            patch.setattr(network, "_active_pixels", lambda x: None)
            dense = simulate(net, weights, frames, record=True, **kwargs)
        return result, dense, event_layers

    @staticmethod
    def assert_equal(result, dense):
        assert np.array_equal(result.counts, dense.counts)
        for got, want in zip(result.trace, dense.trace, strict=True):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got.potentials, want.potentials)
                assert np.array_equal(got.spikes, want.spikes)

    @pytest.mark.parametrize("bits", [4, 10, 16, 32])
    @pytest.mark.parametrize("window", [50, 100])
    def test_quantized_conv2_is_event_driven_and_equal(
        self, monkeypatch, recordings, window, bits
    ):
        net, weights = sparse_quantized_net(window, bits)
        frames = [f for f, _ in sd.encode_dataset(recordings, window, 10)]
        result, dense, event_layers = self.run(monkeypatch, net, weights, frames)
        assert event_layers == [3]  # conv2; conv1's input is too dense
        assert all(tr.spikes.any() for tr in result.trace if tr is not None)
        self.assert_equal(result, dense)

    @pytest.mark.parametrize("case", ["off grid", "relaxed", "no quant"])
    def test_inexact_layers_stay_dense(self, monkeypatch, recordings, case):
        net, weights = sparse_quantized_net(50, 10)
        kwargs = {}
        if case == "off grid":  # the record refuses the moved array: none is kept
            layers = thawed(weights)
            layers[3].weight[0, 0, 0, 0] += 2.0**-40
            with pytest.raises(ValueError, match="layer 3 weight lies off"):
                WeightSet(layers, quant=weights.quant)
            weights = WeightSet(layers)
        elif case == "relaxed":
            kwargs["spike_mode"] = "relaxed"
        else:
            weights = dataclasses.replace(weights, quant=None)
        frames = [f for f, _ in sd.encode_dataset(recordings, 50, 10)]
        result, dense, event_layers = self.run(
            monkeypatch, net, weights, frames, **kwargs)
        assert event_layers == []
        self.assert_equal(result, dense)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_only_stride_one_convs_are_event_driven(self, monkeypatch, stride):
        net = NetworkSpec(
            layers=(
                LayerSpec("conv", 2, 4, kernel=3, padding=1, stride=stride),
                LayerSpec("fully_connected", 4 * (8 // stride) ** 2, 2),
            ),
            input_window=8,
        )
        weights = sd.ptq(active_weights(net, 3, 4.0), sd.QuantConfig(bits=8))
        rng = np.random.default_rng(stride)
        frames = [random_frames(rng, 50, 8, density=0.002) for _ in range(4)]
        result, dense, event_layers = self.run(monkeypatch, net, weights, frames)
        assert event_layers == ([0] if stride == 1 else [])
        assert result.trace[0].spikes.any()
        self.assert_equal(result, dense)

    @pytest.mark.parametrize("pool,bits,exact", [(4, 31, {1, 2}), (4, 32, {2}), (3, 2, {2})],
                             ids=["k4-pool-31-bits", "k4-pool-32-bits", "k3-pool-2-bits"])
    def test_exactness_bound(self, pool, bits, exact):
        # a 128-channel 3x3 conv on k4-pooled frames, |x| <= 255 on the 2^-4
        # grid: (1152 * 255 + 1) * 2^(bits - 1 + 4) is below 2^53 at 31 bits
        # and above it at 32; a k3 pool's averages lie on no 2^-g grid. The
        # fc layer reads hard spikes: (16 + 1) * 2^(bits - 1) fits at any width
        net = NetworkSpec(
            layers=(
                LayerSpec("avg_pool", 128, 128, kernel=pool, stride=pool),
                LayerSpec("conv", 128, 4, kernel=3, padding=1),
                LayerSpec("fully_connected", 4 * 2 * 2, 2),
            ),
            input_window=2 * pool,
        )
        assert network._exact_convs(net, bits) == exact

    @pytest.mark.parametrize("window", [50, 100])
    def test_reference_convs_are_exact_at_every_width(self, window):
        net = sd.build_network(window)
        for bits in range(2, 33):
            assert network._exact_convs(net, bits) == {1, 3, 5, 6}


def _weighted(record, value):
    """A record's frac_bits with value at every weighted layer."""
    return [None if f is None else value for f in record["frac_bits"]]


# id: a quant record a WeightSet refuses, made from the valid record r
BAD_RECORDS = {
    "not-a-dict": lambda r: [r["bits"], r["frac_bits"]],
    "no-bits": lambda r: {**r, "bits": None},
    "bits-33": lambda r: {**r, "bits": 33},
    "bits-string": lambda r: {**r, "bits": str(r["bits"])},
    "no-frac-bits": lambda r: {"bits": r["bits"]},
    "frac-bits-none": lambda r: {**r, "frac_bits": None},
    "all-none": lambda r: {**r, "frac_bits": [None] * len(r["frac_bits"])},
    "strings": lambda r: {**r, "frac_bits": _weighted(r, "a")},
    # the reference nets start with a pool: a short list must not skip the weights
    "one-entry": lambda r: {**r, "frac_bits": [3]},
    "entry-at-a-pool": lambda r: {**r, "frac_bits": [3] * len(r["frac_bits"])},
    # every value lies on the 2^-bits grid, but a B-bit grid has at most B - 1
    "frac-bits-too-large": lambda r: {**r, "frac_bits": _weighted(r, r["bits"])},
    # the arrays need the last fraction bit ptq gave them
    "coarser-grid": lambda r: {
        **r, "frac_bits": [None if f is None else f - 1 for f in r["frac_bits"]]},
    # one bit finer where bits allows it: valid frac_bits on whose grid the
    # values still lie, but the fixtures' larger fc2 codes then pass 2^(bits - 1)
    "codes-wider-than-bits": lambda r: {**r, "frac_bits": [
        f if f in (None, r["bits"] - 1) else f + 1 for f in r["frac_bits"]]},
    "rounding-unknown": lambda r: {**r, "rounding": "RZ"},
    "no-rounding": lambda r: {k: v for k, v in r.items() if k != "rounding"},
}


class TestWeightSetRecord:
    """A WeightSet checks its quant record once, when it is made."""

    @pytest.fixture(scope="class")
    def quantized(self):
        net = sd.build_network(50)  # its first layer is a pool
        weights = active_weights(net, 1, 2.0)
        weights.layers[6].weight *= 8.0  # fc2 above 1: frac_bits 8, not 9
        return sd.ptq(weights, sd.QuantConfig(bits=10))

    @pytest.mark.parametrize("edit", list(BAD_RECORDS))
    def test_malformed_record_is_refused(self, quantized, edit):
        record = BAD_RECORDS[edit](quantized.quant)
        with pytest.raises(ValueError, match="quant|lies off"):
            WeightSet(thawed(quantized), quant=record)

    def test_codes_wider_than_bits_are_refused(self, tmp_path):
        # weights up to 2000 at 12 bits: frac_bits 0, valid at 4 bits too
        weights = sd.init_weights(toy_spec(), seed=3)
        for w in weights.param_arrays()[::2]:
            w *= 2000.0 / np.abs(w).max()
        q = sd.ptq(weights, sd.QuantConfig(bits=12))
        assert q.quant["frac_bits"] == [0, None, 0, 0]
        assert np.abs(q.layers[0].weight).max() >= 1999
        narrow = {**q.quant, "bits": 4}
        with pytest.raises(ValueError, match="layer 0 weight codes pass the quant width 4"):
            WeightSet(thawed(q), quant=narrow)
        blob = sd.save_checkpoint(tmp_path / "q.ckpt", toy_spec(), q).read_bytes()
        newline = blob.index(b"\n")
        header = {**json.loads(blob[:newline]), "quant": narrow}
        (tmp_path / "q.ckpt").write_bytes(json.dumps(header).encode() + blob[newline:])
        with pytest.raises(CheckpointError, match="q.ckpt: layer 0 weight codes pass"):
            sd.load_checkpoint(tmp_path / "q.ckpt")


class TestGoldenCounts:
    """What the committed infer_atis fixture net does at 10 bits on its
    seeded 40-recording test split, as its JSON records it. Every partial
    sum on this path is exact (`_exact_convs`), so the numbers hold on any
    BLAS and CPU, and a kernel or representation change that moves one
    spike fails here. Reads the fixture files and changes none."""

    FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"
    SPIKING = {1: "conv1", 3: "conv2", 5: "fc1", 6: "fc2"}

    def test_fixture_net_reproduces_its_record(self):
        meta = json.loads((self.FIXTURE / "infer_atis_w50_t10.json").read_text())
        blob = (self.FIXTURE / meta["checkpoint"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == meta["sha256"]
        net, weights, _ = sd.load_checkpoint(self.FIXTURE / meta["checkpoint"])
        config = sd.QuantConfig(bits=10)
        q = sd.ptq(weights, config)
        _, test = sd.make_synthetic_dataset(
            60, 90337, sensor_width=304, sensor_height=240)
        data = sd.encode_dataset(test, 50, 10)
        assert len(data) == meta["test_recordings"] == 40

        accuracy = sd.evaluate(net, q, data, quant=config)
        assert accuracy == meta["quantized_test_accuracy"] == 0.975
        trace = simulate(net, q, [f for f, _ in data], record=True).trace
        spikes = [float(trace[i].spikes.sum()) for i in self.SPIKING]
        assert spikes == [11186, 4624, 90, 19]
        for i, name in self.SPIKING.items():
            record = meta["layers"][name]
            inputs = trace[i].inputs
            assert np.count_nonzero(inputs) / inputs.size == record["input_density"]
            assert trace[i].spikes.sum() == record["spikes"]
        # conv1 reads uint8 frames through a 4x4 pool, conv2 spikes through a
        # 2x2 one, fc1 spikes through a 2x2 one and fc2 spikes
        assert network._exact_convs(net, config.bits) == {1, 3, 5, 6}


class TestDecode:
    def test_rates_and_argmax(self):
        pred, rates = sd.decode(np.array([3, 7]), 10)
        assert pred == 1
        assert np.allclose(rates, [0.3, 0.7])

    def test_tie_breaks_low_index(self):
        assert sd.decode(np.array([5, 5]), 10)[0] == 0

    def test_all_zero_counts(self):
        assert sd.decode(np.array([0, 0]), 10)[0] == 0

    def test_no_timesteps_is_refused(self):
        with pytest.raises(ValueError, match="timesteps must be >= 1"):
            sd.decode(np.array([0, 0]), 0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=13)
        path = tmp_path / "w.ckpt"
        sd.save_checkpoint(path, net, weights, seed=13)
        spec2, weights2, header = sd.load_checkpoint(path)
        assert spec2 == net
        assert header["seed"] == 13
        assert header["precision"] == "fp32"
        for a, b in zip(weights.param_arrays(), weights2.param_arrays()):
            assert np.allclose(a, b, atol=1e-6)  # float32 payload

    def test_byte_identical_for_same_inputs(self, tmp_path):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=21)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        sd.save_checkpoint(p1, net, weights, seed=21)
        sd.save_checkpoint(p2, net, weights, seed=21)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reference_bytes_are_pinned(self, tmp_path):
        # the whole file: header JSON (spec, tensor list), init draws, payload
        net = sd.build_network(50)
        path = sd.save_checkpoint(tmp_path / "w.ckpt", net, sd.init_weights(net, 0))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "af8240b2c32759d79c741db03118f3fc08675b5f9a09b7eb2b6c52e0d90e5deb"
        )

    def test_weights_of_another_spec_are_not_written(self, tmp_path):
        path = tmp_path / "w.ckpt"
        with pytest.raises(ShapeMismatch, match="layer 5 weight"):
            sd.save_checkpoint(
                path, sd.build_network(50), sd.init_weights(sd.build_network(100), 0))
        assert not path.exists()

    def test_quant_block_round_trips(self, tmp_path):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=1)
        q = sd.ptq(weights, sd.QuantConfig(bits=10))
        path = tmp_path / "q.ckpt"
        sd.save_checkpoint(path, net, q)
        _, loaded, header = sd.load_checkpoint(path)
        assert header["precision"] == "10b-TR"  # derived from the record
        assert header["quant"]["bits"] == 10
        assert header["quant"]["rounding"] == "TR"
        assert loaded.quant["frac_bits"] == q.quant["frac_bits"]

    def test_32_bit_quantized_round_trip(self, tmp_path):
        # float32 payloads round codes of 2^24 or more, and the rounded
        # values stay on the 2^-frac_bits grid, so the record still holds
        net = sd.build_network(50)
        q = sd.ptq(sd.init_weights(net, seed=1), sd.QuantConfig(bits=32))
        path = sd.save_checkpoint(tmp_path / "q.ckpt", net, q)
        _, loaded, _ = sd.load_checkpoint(path)
        assert loaded.quant == q.quant
        assert sd.quantize.grid_aligned(loaded, sd.QuantConfig(bits=32))
        pairs = list(zip(q.param_arrays(), loaded.param_arrays()))
        assert any(not np.array_equal(a, b) for a, b in pairs)
        assert all(np.array_equal(a.astype(np.float32), b) for a, b in pairs)

    def test_32_bit_code_rounded_up_to_the_width_loads(self, tmp_path):
        # ptq's largest 32-bit code, 2^31 - 1, is 2^31 in the float32 payload:
        # 2^(bits - 1), which the record's width still admits
        weights = sd.init_weights(toy_spec(), seed=3)
        weights.layers[0].weight[0, 0, 0, 0] = 0.9999999999
        q = sd.ptq(weights, sd.QuantConfig(bits=32))
        assert q.quant["frac_bits"][0] == 31
        assert q.layers[0].weight[0, 0, 0, 0] * 2.0**31 == 2**31 - 1
        path = sd.save_checkpoint(tmp_path / "q.ckpt", toy_spec(), q)
        _, loaded, header = sd.load_checkpoint(path)
        assert header["precision"] == "32b-TR"
        assert loaded.quant == q.quant
        assert loaded.layers[0].weight[0, 0, 0, 0] * 2.0**31 == 2**31


@functools.cache
def toy_checkpoint() -> bytes:
    """Bytes of a small quantized checkpoint; header and payload are similar in size."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.ckpt"
        weights = sd.init_weights(toy_spec(), seed=3)
        weights.layers[3].weight *= 4.0  # fc2 above 1: frac_bits 6, not 7
        weights = sd.ptq(weights, sd.QuantConfig(bits=8))
        sd.save_checkpoint(path, toy_spec(), weights, seed=3)
        return path.read_bytes()


class TestCheckpointErrors:
    @staticmethod
    def load(tmp_path, blob):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        return sd.load_checkpoint(path)

    @staticmethod
    def with_header(header: dict) -> bytes:
        blob = toy_checkpoint()
        newline = blob.index(b"\n")
        return json.dumps(header).encode() + blob[newline:]

    def header(self) -> dict:
        blob = toy_checkpoint()
        return json.loads(blob[: blob.index(b"\n")])

    def test_toy_checkpoint_loads(self, tmp_path):
        spec, weights, _ = self.load(tmp_path, toy_checkpoint())
        assert spec == toy_spec()
        assert weights.quant["bits"] == 8

    @pytest.mark.parametrize("cut", ["500 bytes", "half", "header only"])
    def test_truncated(self, tmp_path, cut):
        net = sd.build_network(50)
        path = tmp_path / "w.ckpt"
        sd.save_checkpoint(path, net, sd.init_weights(net, seed=0))
        blob = path.read_bytes()
        size = {"500 bytes": 500, "half": len(blob) // 2,
                "header only": blob.index(b"\n") + 1}[cut]
        with pytest.raises(CheckpointError):
            self.load(tmp_path, blob[:size])

    def test_no_newline(self, tmp_path):
        blob = toy_checkpoint()
        with pytest.raises(CheckpointError, match="no header line"):
            self.load(tmp_path, blob[: blob.index(b"\n")])

    def test_header_not_json(self, tmp_path):
        with pytest.raises(CheckpointError, match="not JSON"):
            self.load(tmp_path, b"{'format': 1}\n" + bytes(8))

    def test_wrong_format(self, tmp_path):
        header = {**self.header(), "format": "spikedse-checkpoint-v9"}
        with pytest.raises(CheckpointError, match="not a spikedse-checkpoint-v1"):
            self.load(tmp_path, self.with_header(header))

    @pytest.mark.parametrize("key", ["spec", "tensors"])
    def test_missing_header_key(self, tmp_path, key):
        header = self.header()
        del header[key]
        with pytest.raises(CheckpointError, match=f"missing key '{key}'"):
            self.load(tmp_path, self.with_header(header))

    @pytest.mark.parametrize("layer,key,value", [
        (0, "kind", "conw"), (2, "in_channels", 1.5), (1, "kernel", 0),
        (None, "reset_mode", "zerp"), (None, "v_threshold", -0.5), (None, "leak", 1.0),
        (0, "stride", -1),
        # fields a pool or an fc layer would ignore
        (1, "stride", 1), (1, "padding", 1), (1, "out_channels", 32),
        (2, "kernel", 3), (3, "padding", 1), (3, "stride", 2),
        # a conv whose border outputs would read only padding
        (0, "padding", 3),
    ])
    def test_invalid_spec(self, tmp_path, layer, key, value):
        header = self.header()
        if layer is None:
            header["spec"]["lif"][key] = value
        else:
            header["spec"]["layers"][layer][key] = value
        with pytest.raises(CheckpointError, match=str(value)):
            self.load(tmp_path, self.with_header(header))

    @pytest.mark.parametrize("value", [None, "x", [], {}, 0, True])
    def test_invalid_input_window(self, tmp_path, value):
        header = self.header()
        header["spec"]["input_window"] = value
        with pytest.raises(CheckpointError, match="input_window must be"):
            self.load(tmp_path, self.with_header(header))

    def test_window_whose_net_has_the_same_layers_loads(self, tmp_path):
        # floor pooling gives W = 49 the layers of the W = 50 net
        net = sd.build_network(50)
        assert sd.build_network(49, strict=False).layers == net.layers
        sd.save_checkpoint(tmp_path / "w.ckpt", net, sd.init_weights(net, 0))
        blob = (tmp_path / "w.ckpt").read_bytes()
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline])
        header["spec"]["input_window"] = 49
        spec, _, _ = self.load(tmp_path, json.dumps(header).encode() + blob[newline:])
        assert spec == dataclasses.replace(net, input_window=49)

    def test_tensor_shape_disagrees_with_spec(self, tmp_path):
        header = self.header()
        header["tensors"][0]["shape"] = [2, 2, 9, 1]  # same size, wrong shape
        with pytest.raises(CheckpointError, match="do not match"):
            self.load(tmp_path, self.with_header(header))

    @pytest.mark.parametrize("edit", list(BAD_RECORDS))
    def test_malformed_quant_block(self, tmp_path, edit):
        header = self.header()
        header["quant"] = BAD_RECORDS[edit](header["quant"])
        with pytest.raises(CheckpointError, match="bad.ckpt: (quant|layer)"):
            self.load(tmp_path, self.with_header(header))

    @pytest.mark.parametrize("value", [0.3, np.inf, np.nan])
    def test_off_grid_payload(self, tmp_path, value):
        blob = bytearray(toy_checkpoint())
        start = blob.index(b"\n") + 1  # the first conv weight, on the 2^-7 grid
        blob[start : start + 4] = np.float32(value).tobytes()
        with pytest.raises(CheckpointError, match="layer 0 weight lies off its 2\\^-7 grid"):
            self.load(tmp_path, bytes(blob))

    @pytest.mark.parametrize("delta", [-4, -1, 1, 4])
    def test_payload_size(self, tmp_path, delta):
        blob = toy_checkpoint()
        blob = blob[:delta] if delta < 0 else blob + bytes(delta)
        with pytest.raises(CheckpointError, match="payload"):
            self.load(tmp_path, blob)

    @given(
        cut=st.integers(0, 2**16),
        flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_loading_is_total(self, tmp_path_factory, cut, flips):
        blob = bytearray(toy_checkpoint())
        for position, value in flips:
            blob[position % len(blob)] = value
        blob = bytes(blob[: cut % (len(blob) + 1)])
        try:
            self.load(tmp_path_factory.getbasetemp(), blob)
        except CheckpointError:
            pass
