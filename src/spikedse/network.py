"""LIF network definition and forward execution.

The two reference architectures (one per attention-window size) interleave
average pooling with convolutions and finish with two fully-connected
layers:

    avg_pool k4 -> conv 2x32 k3 p1 s1 -> avg_pool k2 -> conv 32x32 k3 p1 s1
    -> avg_pool k2 -> fc (1152->512 at W=100, 288->144 at W=50) -> fc (->2)

LIF dynamics apply after every conv and fc layer; pooling is stateless
spatial downsampling (the leading pool acts directly on the binary input
frames, and pooled spikes become fractional currents for the next conv).
With zero reset the membrane update per timestep is

    V <- leak * V_prev * (1 - spike_prev) + input_current
    spike = 1 where V >= v_threshold

and the spike mask applies the reset on the following step. With
subtract reset the update is V <- leak * (V_prev - v_threshold * spike_prev)
+ input_current instead.

No layer has a recurrent synapse, so `simulate` computes each layer's
synaptic current for all timesteps and samples of a batch at once and only
scans the LIF update over time. Spikes stay strictly binary (boolean
arrays); a forward pass is a pure function of (weights, frames, params).
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ShapeMismatch, UnsupportedWindow
from .events import SpikeFrames

ResetMode = Literal["zero", "subtract"]
SpikeMode = Literal["hard", "relaxed"]


@dataclass(frozen=True)
class LifParams:
    """Leaky integrate-and-fire neuron parameters.

    leak is the multiplicative retention factor applied to the previous
    membrane potential each timestep (0 = memoryless, values near 1 decay
    slowly); it must stay in [0, 1).
    """

    v_threshold: float = 0.4
    leak: float = 0.25
    reset_mode: ResetMode = "zero"

    def __post_init__(self):
        if self.v_threshold <= 0:
            raise ValueError("v_threshold must be positive")
        if not 0 <= self.leak < 1:
            raise ValueError("leak must be in [0, 1)")
        if self.reset_mode not in ("zero", "subtract"):
            raise ValueError(f"unknown reset_mode {self.reset_mode!r}")


@dataclass(frozen=True)
class LayerSpec:
    kind: Literal["avg_pool", "conv", "fully_connected"]
    in_channels: int
    out_channels: int
    kernel: int = 0
    padding: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.kind not in ("avg_pool", "conv", "fully_connected"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        sizes = (self.in_channels, self.out_channels, self.kernel, self.padding, self.stride)
        if not all(isinstance(v, numbers.Integral) for v in sizes):
            raise TypeError(f"{self.kind} layer sizes must be integers, got {sizes}")
        if min(self.in_channels, self.out_channels, self.stride) < 1 or self.padding < 0:
            raise ValueError(f"{self.kind} layer needs positive sizes, got {sizes}")
        if self.kind != "fully_connected" and self.kernel < 1:
            raise ValueError(f"{self.kind} layer needs a kernel >= 1")
        # a pool tiles its input channel by channel; an fc layer has no window
        pool_ok = (self.stride, self.padding, self.out_channels) == (
            self.kernel, 0, self.in_channels)
        if self.kind == "avg_pool" and not pool_ok:
            raise ValueError(f"avg_pool needs stride == kernel, padding 0 and "
                             f"out_channels == in_channels, got {sizes}")
        fc_ok = (self.kernel, self.padding, self.stride) == (0, 0, 1)
        if self.kind == "fully_connected" and not fc_ok:
            raise ValueError(
                f"fully_connected takes no kernel, padding or stride, got {sizes}")

    @property
    def spiking(self) -> bool:
        return self.kind in ("conv", "fully_connected")

    @property
    def weight_shape(self) -> tuple[int, ...] | None:
        """(O, C, k, k) for a conv, (out, in) for fc, None for a pool."""
        if self.kind == "conv":
            return (self.out_channels, self.in_channels, self.kernel, self.kernel)
        if self.kind == "fully_connected":
            return (self.out_channels, self.in_channels)
        return None

    @property
    def weight_count(self) -> int:
        shape = self.weight_shape
        return 0 if shape is None else math.prod(shape)


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    input_window: int
    lif: LifParams = LifParams()

    def flatten_size(self) -> int:
        """Flattened feature count entering the first fully-connected layer."""
        first_fc = [layer.kind for layer in self.layers].index("fully_connected")
        return math.prod(layer_shapes(self.layers[:first_fc], self.input_window)[-1])

    def weight_count(self) -> int:
        return sum(layer.weight_count for layer in self.layers)


def layer_shapes(
    layers: Sequence[LayerSpec], window: int
) -> list[tuple[int, int, int]]:
    """Output (C, H, W) of each layer for a window x window input.

    Pools drop trailing rows and columns; an fc layer gives (out, 1, 1).

    Raises:
        UnsupportedWindow: if a feature map shrinks below one pixel.
    """
    size = window
    shapes = []
    for layer in layers:
        if layer.kind == "avg_pool":
            size = size // layer.kernel
        elif layer.kind == "conv":
            size = _conv_size(size, layer.kernel, layer.padding, layer.stride)
        else:
            size = 1
        if size < 1:
            raise UnsupportedWindow(f"window {window} collapses inside the network")
        shapes.append((layer.out_channels, size, size))
    return shapes


@dataclass
class LayerWeights:
    weight: np.ndarray
    bias: np.ndarray


@dataclass
class WeightSet:
    """Real-valued parameters aligned with NetworkSpec.layers (None = pool).

    quant carries optional provenance set by the quantizer (bits, rounding,
    per-layer fractional bits); it never affects arithmetic here.
    """

    layers: list[LayerWeights | None]
    quant: dict | None = None

    def copy(self) -> "WeightSet":
        return WeightSet(
            layers=[
                None if lw is None else LayerWeights(lw.weight.copy(), lw.bias.copy())
                for lw in self.layers
            ],
            quant=dict(self.quant) if self.quant else None,
        )

    def param_arrays(self) -> list[np.ndarray]:
        """All parameter tensors in deterministic (layer, weight, bias) order."""
        out = []
        for lw in self.layers:
            if lw is not None:
                out.append(lw.weight)
                out.append(lw.bias)
        return out


def build_network(window: int, *, strict: bool = True) -> NetworkSpec:
    """Build the reference architecture for a given attention window.

    Strict mode accepts only the two reference windows (100 and 50) and
    reproduces their fully-connected sizes exactly. Extended mode accepts
    any window large enough to survive the pooling stack and recomputes the
    fc sizes (hidden = flattened // 2).
    """
    reference_hidden = {100: 512, 50: 144}
    if strict and window not in reference_hidden:
        raise UnsupportedWindow(
            f"strict mode supports windows {sorted(reference_hidden)}, got {window}"
        )
    convs_and_pools = (
        LayerSpec("avg_pool", 2, 2, kernel=4, stride=4),
        LayerSpec("conv", 2, 32, kernel=3, padding=1, stride=1),
        LayerSpec("avg_pool", 32, 32, kernel=2, stride=2),
        LayerSpec("conv", 32, 32, kernel=3, padding=1, stride=1),
        LayerSpec("avg_pool", 32, 32, kernel=2, stride=2),
    )
    flat = math.prod(layer_shapes(convs_and_pools, window)[-1])
    hidden = reference_hidden.get(window, max(2, flat // 2))
    layers = convs_and_pools + (
        LayerSpec("fully_connected", flat, hidden),
        LayerSpec("fully_connected", hidden, 2),
    )
    return NetworkSpec(layers=layers, input_window=window)


def init_weights(spec: NetworkSpec, seed: int) -> WeightSet:
    """Seeded uniform init in +/- sqrt(1/fan_in); biases start at zero."""
    rng = np.random.default_rng(seed)
    layers: list[LayerWeights | None] = []
    for layer in spec.layers:
        shape = layer.weight_shape
        if shape is None:
            layers.append(None)
            continue
        bound = np.sqrt(1.0 / math.prod(shape[1:]))
        w = rng.uniform(-bound, bound, size=shape)
        layers.append(LayerWeights(w, np.zeros(layer.out_channels)))
    return WeightSet(layers=layers)


# ---------------------------------------------------------------------------
# Layer arithmetic
#
# The engine works on channels-last tensors whose leading axis holds all
# T*B (timestep, sample) rows, timestep-major, so each synaptic map is one
# GEMM over every row at once. A conv is one im2col GEMM over its valid
# (strided) output positions, built in row blocks.
# ---------------------------------------------------------------------------

# Row blocks of a conv's im2col columns: bounds the columns built at once
# (peak memory) and keeps a block's GEMM operands in cache.
_BLOCK_BYTES = 1 << 20
# Batched evaluation simulates as many samples at once as keep T x the
# largest per-sample layer output (float64) under this.
_BATCH_BYTES = 8 << 20


def _conv_size(size: int, kernel: int, padding: int, stride: int) -> int:
    """Output rows (or columns) of a conv over `size` input rows."""
    return (size + 2 * padding - kernel) // stride + 1


def _pool(x: np.ndarray, kernel: int) -> np.ndarray:
    """Average k x k blocks of (N, H, W, C); trailing rows/columns drop.

    bool (spikes) and uint8 (binary frames) inputs sum in the smallest
    unsigned type that holds k*k times the dtype's largest value, chosen
    from the dtype alone: the sums are exact integers far below 2**53, so
    each converts to the float64 a float sum of the taps gives. Other
    inputs (relaxed spikes) sum in float64. The sums keep x's stride
    order, so a channels-last view of channels-first memory is read in
    memory order. Returns a C-contiguous float64 (N, H2, W2, C) array.
    """
    n, h, w, c = x.shape
    h2, w2 = h // kernel, w // kernel
    acc = np.dtype(float)
    if x.dtype == bool or x.dtype == np.uint8:
        acc = np.min_scalar_type(kernel * kernel * (1 if x.dtype == bool else 255))
    rows = np.zeros_like(x[:, :h2, : w2 * kernel], dtype=acc)
    for u in range(kernel):
        rows += x[:, u : h2 * kernel : kernel, : w2 * kernel]
    sums = np.zeros_like(rows[:, :, :w2])
    for v in range(kernel):
        sums += rows[:, :, v::kernel]
    out = np.empty((n, h2, w2, c))
    np.divide(sums, kernel * kernel, out=out)
    return out


def _pool_backward(grad_out: np.ndarray, kernel: int, in_shape: tuple) -> np.ndarray:
    """Spread (N, H2, W2, C) gradients over the k x k blocks they averaged.

    in_shape is the pool's (N, H, W, C) input; rows and columns the pool
    dropped get no gradient.
    """
    h2, w2 = grad_out.shape[1:3]
    spread = grad_out / (kernel * kernel)
    grad_in = np.zeros(in_shape)
    for u in range(kernel):
        for v in range(kernel):
            grad_in[:, u : h2 * kernel : kernel, v : w2 * kernel : kernel] = spread
    return grad_in


def _column_blocks(x: np.ndarray, kernel: int, padding: int, stride: int):
    """Yield (lo, hi, cols) over row blocks of (N, H, W, C) input x.

    cols is the (hi - lo, Ho, Wo, k, k, C) im2col block of x[lo:hi] at the
    valid (strided) output positions, about _BLOCK_BYTES in size. The
    buffers are reused: consume a block before drawing the next.
    """
    n, h, w, c = x.shape
    ho, wo = (_conv_size(size, kernel, padding, stride) for size in (h, w))
    block = max(1, _BLOCK_BYTES // (ho * wo * kernel * kernel * c * 8))
    xp = np.zeros((min(block, n), h + 2 * padding, w + 2 * padding, c))
    # (block, Ho, Wo, k, k, C) view of the k x k windows the outputs read
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (kernel, kernel), axis=(1, 2)
    )[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    cols = np.empty(windows.shape)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        xp[: hi - lo, padding : padding + h, padding : padding + w] = x[lo:hi]
        cols[: hi - lo] = windows[: hi - lo]
        yield lo, hi, cols[: hi - lo]


def _weight_matrix(weight: np.ndarray) -> np.ndarray:
    """(O, C, k, k) conv weights as the (k*k*C, O) matrix im2col rows meet."""
    o, c, kernel, _ = weight.shape
    return weight.transpose(2, 3, 1, 0).reshape(kernel * kernel * c, o)


def _conv(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, padding: int, stride: int
) -> np.ndarray:
    """Cross-correlation of channels-last (N, H, W, C) input with (O, C, k, k).

    Returns the (N, Ho, Wo, O) output: per row block, one GEMM of the
    im2col columns of the valid (strided) output positions against the
    (k*k*C, O) weight matrix.
    """
    o, c, kernel, _ = weight.shape
    if x.shape[3] != c:
        raise ShapeMismatch(f"conv expects {c} input channels, got {x.shape[3]}")
    wm = _weight_matrix(weight)
    ho, wo = (_conv_size(size, kernel, padding, stride) for size in x.shape[1:3])
    out = np.empty((x.shape[0], ho, wo, o))
    for lo, hi, cols in _column_blocks(x, kernel, padding, stride):
        np.matmul(cols.reshape(-1, wm.shape[0]), wm, out=out[lo:hi].reshape(-1, o))
    out += bias
    return out


def _conv_backward(
    grad: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    padding: int,
    stride: int,
    *,
    input_grad: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(d_weight, d_bias, d_input) of `_conv` for dL/d(output) grad.

    Each row block's columns are rebuilt from the recorded input x:
    d_weight accumulates cols^T @ grad, and d_input is col2im of
    grad @ W^T, k*k strided adds into the block's padded gradient.
    """
    o, c, kernel, _ = weight.shape
    h, w = x.shape[1:3]
    wm = _weight_matrix(weight)
    d_wm = np.zeros_like(wm)
    tmp = np.empty_like(wm)
    d_x = np.empty(x.shape) if input_grad else None
    for lo, hi, cols in _column_blocks(x, kernel, padding, stride):
        flat = cols.reshape(-1, wm.shape[0])
        g = grad[lo:hi].reshape(-1, o)
        np.matmul(flat.T, g, out=tmp)
        d_wm += tmp
        if not input_grad:
            continue
        np.matmul(g, wm.T, out=flat)  # cols now hold dL/d(cols)
        d_xp = np.zeros((hi - lo, h + 2 * padding, w + 2 * padding, c))
        ho, wo = cols.shape[1:3]
        for u in range(kernel):
            for v in range(kernel):
                d_xp[:, u : u + stride * ho : stride, v : v + stride * wo : stride] += (
                    cols[:, :, :, u, v]
                )
        d_x[lo:hi] = d_xp[:, padding : padding + h, padding : padding + w]
    d_weight = np.ascontiguousarray(
        d_wm.reshape(kernel, kernel, c, o).transpose(3, 2, 0, 1)
    )
    return d_weight, grad.reshape(-1, o).sum(axis=0), d_x


# ---------------------------------------------------------------------------
# LIF dynamics and the batched forward pass
# ---------------------------------------------------------------------------

def relaxed_spike(v: np.ndarray, v_threshold: float, half_width: float) -> np.ndarray:
    """Clipped-linear stand-in for the hard threshold (gradient checking)."""
    return np.clip((v - v_threshold + half_width) / (2.0 * half_width), 0.0, 1.0)


def lif_scan(
    current: np.ndarray,
    params: LifParams,
    *,
    spike_mode: SpikeMode = "hard",
    surrogate_half_width: float = 0.5,
) -> np.ndarray:
    """Run the LIF recurrence over axis 0 (time); returns the spikes.

    current is a float64 (T, ...) array of synaptic input and becomes the
    membrane potential V in place. Spikes are boolean in "hard" mode and
    the clipped-linear relaxation in "relaxed" mode. The threshold
    comparison uses >=, so a potential exactly at threshold fires.
    """
    v = current
    hard = spike_mode == "hard"
    spikes = np.empty(v.shape, bool if hard else float)
    carry = np.empty(v.shape[1:])
    for t in range(v.shape[0]):
        if t:
            s_prev = spikes[t - 1]
            if params.reset_mode == "zero":
                # leak * V_prev * (1 - s_prev)
                np.multiply(v[t - 1], params.leak, out=carry)
                if hard:
                    carry[s_prev] = 0.0
                else:
                    carry *= 1.0 - s_prev
            else:
                # leak * (V_prev - v_threshold * s_prev)
                np.subtract(v[t - 1], params.v_threshold * s_prev, out=carry)
                carry *= params.leak
            v[t] += carry
        if hard:
            np.greater_equal(v[t], params.v_threshold, out=spikes[t])
        else:
            spikes[t] = relaxed_spike(v[t], params.v_threshold, surrogate_half_width)
    return spikes


@dataclass
class LayerTrace:
    """One spiking layer's tensors over a batch, recorded for backprop.

    All are (T, B, ...). inputs is what the synaptic map read, channels-last
    except for an fc layer reading a feature map, which keeps the (C, H, W)
    order its weights flatten. potentials is the buffer the map wrote its
    synaptic current into (a conv's (Ho, Wo, O) outputs, an fc layer's
    features) and the LIF scan then turned into V.
    """

    inputs: np.ndarray
    potentials: np.ndarray
    spikes: np.ndarray


@dataclass
class ForwardResult:
    """Output spike counts ((B, K) from `simulate`, (K,) from `forward`)
    and, when recorded, a LayerTrace per spiking layer (None for pooling)."""

    counts: np.ndarray
    trace: list[LayerTrace | None] | None = None


def simulate(
    net: NetworkSpec,
    weights: WeightSet,
    frames: Sequence[SpikeFrames],
    *,
    record: bool = False,
    spike_mode: SpikeMode = "hard",
    surrogate_half_width: float = 0.5,
) -> ForwardResult:
    """Run a batch of B samples through all T timesteps at once.

    Each spiking layer computes its synaptic current for all T*B rows in
    one pass, then scans the LIF recurrence over T. All samples must share
    T and the network's window.
    """
    timesteps = {f.timesteps for f in frames}
    if len(timesteps) != 1:
        raise ShapeMismatch(
            f"a batch needs one timestep count, got {sorted(timesteps)}"
        )
    for f in frames:
        if f.window != net.input_window:
            raise ShapeMismatch(
                f"frames window {f.window} != network window {net.input_window}"
            )
    T, B = timesteps.pop(), len(frames)
    n = T * B
    # (T, B, H, W, C) rows, timestep-major
    x = np.stack([f.data for f in frames], axis=1).transpose(0, 1, 3, 4, 2)
    x = x.reshape((n,) + x.shape[2:])
    trace: list[LayerTrace | None] | None = [None] * len(net.layers) if record else None

    for i, layer in enumerate(net.layers):
        if layer.kind == "avg_pool":
            x = _pool(x, layer.kernel)
            continue
        lw = weights.layers[i]
        if layer.kind == "conv":
            v = _conv(x, lw.weight, lw.bias, layer.padding, layer.stride)
        else:
            if x.ndim == 4:  # the weights flatten (C, H, W)
                x = x.transpose(0, 3, 1, 2)
            x = np.ascontiguousarray(x, dtype=float)
            flat = x.reshape(n, -1)
            if flat.shape[1] != lw.weight.shape[1]:
                raise ShapeMismatch(
                    f"fc expects {lw.weight.shape[1]} inputs, got {flat.shape[1]}"
                )
            v = flat @ lw.weight.T
            v += lw.bias
        v = v.reshape((T, B) + v.shape[1:])
        spikes = lif_scan(
            v, net.lif, spike_mode=spike_mode, surrogate_half_width=surrogate_half_width
        )
        if record:
            trace[i] = LayerTrace(
                inputs=x.reshape((T, B) + x.shape[1:]),
                potentials=v,
                spikes=spikes,
            )
        x = spikes.reshape((n,) + spikes.shape[2:])
    counts = x.reshape(T, B, -1).sum(axis=0, dtype=float)
    return ForwardResult(counts=counts, trace=trace)


def forward(
    net: NetworkSpec,
    weights: WeightSet,
    frames: SpikeFrames,
    *,
    record: bool = False,
    spike_mode: SpikeMode = "hard",
    surrogate_half_width: float = 0.5,
) -> ForwardResult:
    """Run one sample through all timesteps (`simulate` with B=1).

    Returns per-class output spike counts over T; with record=True also
    each spiking layer's LayerTrace, as needed by the backward pass.
    """
    result = simulate(
        net,
        weights,
        [frames],
        record=record,
        spike_mode=spike_mode,
        surrogate_half_width=surrogate_half_width,
    )
    return ForwardResult(counts=result.counts[0], trace=result.trace)


def decode(counts: np.ndarray, timesteps: int) -> tuple[int, np.ndarray]:
    """Rate-decode output spike counts; ties go to the lowest class index."""
    if timesteps < 1:
        raise ValueError("timesteps must be >= 1")
    rates = np.asarray(counts, dtype=float) / timesteps
    return int(np.argmax(rates)), rates
