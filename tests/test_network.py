"""Network construction, layer arithmetic, LIF dynamics, checkpoints."""

import functools
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikedse as sd
from spikedse import network
from spikedse.errors import CheckpointError, ShapeMismatch, UnsupportedWindow
from spikedse.events import SpikeFrames
from spikedse.network import (
    LayerSpec,
    LifParams,
    NetworkSpec,
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
    ]

    @staticmethod
    def operands(rng, c, h, w, on_grid):
        n, o = 3, 4
        if on_grid:  # 2^-n grids: every partial sum is exact in float64
            x = rng.integers(0, 17, (n, h, w, c)) / 16
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
    @pytest.mark.parametrize("on_grid", [True, False])
    @pytest.mark.parametrize("c,stride,pad,h,w", SHAPES)
    def test_forward_and_backward_match_loops(
        self, monkeypatch, c, stride, pad, h, w, on_grid, split
    ):
        if split:  # row blocks of two samples: the third one is a partial block
            ho, wo = (h + 2 * pad - 3) // stride + 1, (w + 2 * pad - 3) // stride + 1
            monkeypatch.setattr(network, "_BLOCK_BYTES", 2 * ho * wo * 9 * c * 8)
        rng = np.random.default_rng(c * 100 + h * 10 + w)
        x, weight, bias = self.operands(rng, c, h, w, on_grid)
        out = network._conv(x, weight, bias, pad, stride)
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
                    scaled_w = weights.copy()
                    scaled_w.layers[6].weight = scaled_w.layers[6].weight * gamma
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


class TestDecode:
    def test_rates_and_argmax(self):
        pred, rates = sd.decode(np.array([3, 7]), 10)
        assert pred == 1
        assert np.allclose(rates, [0.3, 0.7])

    def test_tie_breaks_low_index(self):
        assert sd.decode(np.array([5, 5]), 10)[0] == 0

    def test_all_zero_counts(self):
        assert sd.decode(np.array([0, 0]), 10)[0] == 0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=13)
        path = tmp_path / "w.ckpt"
        sd.save_checkpoint(path, net, weights, seed=13)
        spec2, weights2, header = sd.load_checkpoint(path)
        assert spec2 == net
        assert header["seed"] == 13
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
        sd.save_checkpoint(path, net, q, precision="10b-TR")
        _, loaded, header = sd.load_checkpoint(path)
        assert header["quant"]["bits"] == 10
        assert header["quant"]["rounding"] == "TR"
        assert loaded.quant["frac_bits"] == q.quant["frac_bits"]


@functools.cache
def toy_checkpoint() -> bytes:
    """Bytes of a small quantized checkpoint; header and payload are similar in size."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.ckpt"
        weights = sd.ptq(sd.init_weights(toy_spec(), seed=3), sd.QuantConfig(bits=8))
        sd.save_checkpoint(path, toy_spec(), weights, seed=3, precision="8b-TR")
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
        (None, "reset_mode", "zerp"),
        # fields a pool or an fc layer would ignore
        (1, "stride", 1), (1, "padding", 1), (1, "out_channels", 32),
        (2, "kernel", 3), (3, "padding", 1), (3, "stride", 2),
    ])
    def test_invalid_spec(self, tmp_path, layer, key, value):
        header = self.header()
        if layer is None:
            header["spec"]["lif"][key] = value
        else:
            header["spec"]["layers"][layer][key] = value
        with pytest.raises(CheckpointError, match=str(value)):
            self.load(tmp_path, self.with_header(header))

    def test_tensor_shape_disagrees_with_spec(self, tmp_path):
        header = self.header()
        header["tensors"][0]["shape"] = [2, 2, 9, 1]  # same size, wrong shape
        with pytest.raises(CheckpointError, match="do not match"):
            self.load(tmp_path, self.with_header(header))

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
