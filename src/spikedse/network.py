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


@dataclass(frozen=True)
class LayerSpec:
    kind: Literal["avg_pool", "conv", "fully_connected"]
    in_channels: int
    out_channels: int
    kernel: int = 0
    padding: int = 0
    stride: int = 1

    @property
    def spiking(self) -> bool:
        return self.kind in ("conv", "fully_connected")

    @property
    def weight_count(self) -> int:
        if self.kind == "conv":
            return self.out_channels * self.in_channels * self.kernel**2
        if self.kind == "fully_connected":
            return self.out_channels * self.in_channels
        return 0


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
            size = (size + 2 * layer.padding - layer.kernel) // layer.stride + 1
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
        if layer.kind == "conv":
            fan_in = layer.in_channels * layer.kernel**2
            bound = np.sqrt(1.0 / fan_in)
            w = rng.uniform(
                -bound, bound, size=(layer.out_channels, layer.in_channels,
                                     layer.kernel, layer.kernel)
            )
            layers.append(LayerWeights(w, np.zeros(layer.out_channels)))
        elif layer.kind == "fully_connected":
            bound = np.sqrt(1.0 / layer.in_channels)
            w = rng.uniform(-bound, bound, size=(layer.out_channels, layer.in_channels))
            layers.append(LayerWeights(w, np.zeros(layer.out_channels)))
        else:
            layers.append(None)
    return WeightSet(layers=layers)


# ---------------------------------------------------------------------------
# Layer arithmetic
#
# The engine works on channels-last tensors whose leading axis holds all
# T*B (timestep, sample) rows, timestep-major, so each synaptic map is one
# GEMM (a conv: k*k shifted GEMMs) over every row at once.
# ---------------------------------------------------------------------------

# Row blocks of the per-tap GEMMs: bounds the temporary a tap's product
# needs (peak memory) and keeps the block being accumulated in cache.
_BLOCK_BYTES = 1 << 20


def _pool(x: np.ndarray, kernel: int) -> np.ndarray:
    """Average k x k blocks of (N, H, W, C); trailing rows/columns drop."""
    n, h, w, c = x.shape
    h2, w2 = h // kernel, w // kernel
    out = np.zeros((n, h2, w2, c))
    for u in range(kernel):
        for v in range(kernel):
            out += x[:, u : h2 * kernel : kernel, v : w2 * kernel : kernel]
    out /= kernel * kernel
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


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-padded float64 copy of (N, H, W, C)."""
    n, h, w, c = x.shape
    out = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
    out[:, padding : padding + h, padding : padding + w] = x
    return out


def _tap_offsets(kernel: int, row: int) -> list[int]:
    """Flat row offset u*row + v of each kernel tap (u, v), in (u, v) order."""
    return [u * row + v for u in range(kernel) for v in range(kernel)]


def _shifted_gemm(
    src: np.ndarray, mats: list[np.ndarray], offsets: list[int], out: np.ndarray
) -> None:
    """out[r] = sum_i src[r + offsets[i]] @ mats[i], in place.

    Terms whose source row falls outside src are skipped; offsets[0] must
    be 0. Each tap is one GEMM over all rows, cut into row blocks of about
    _BLOCK_BYTES.
    """
    rows, width = out.shape
    block = max(1, _BLOCK_BYTES // (out.itemsize * width))
    tmp = np.empty((min(block, rows), width))
    for a in range(0, rows, block):
        b = min(a + block, rows)
        np.matmul(src[a:b], mats[0], out=out[a:b])
        for mat, off in zip(mats[1:], offsets[1:]):
            lo, hi = max(a, -off), min(b, rows - off)
            if lo < hi:
                np.matmul(src[lo + off : hi + off], mat, out=tmp[: hi - lo])
                out[lo:hi] += tmp[: hi - lo]


def _output_slices(grid_shape: tuple, kernel: int, stride: int) -> tuple:
    """Where the strided conv output sits on the stride-1 padded grid."""
    return (
        slice(0, grid_shape[1] - kernel + 1, stride),
        slice(0, grid_shape[2] - kernel + 1, stride),
    )


def _conv(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, padding: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlation of channels-last (N, H, W, C) input with (O, C, k, k).

    The output is computed on the padded input grid: flattening the padded
    input to rows (n, i, j), tap (u, v) reads the row u*Wp + v further on,
    so each tap is one contiguous GEMM accumulated into the same buffer and
    no im2col columns are built. Returns (grid, out): grid is the
    (N, Hp, Wp, O) buffer, out the view of its valid (strided) positions.
    """
    o, c, kernel, _ = weight.shape
    if x.shape[3] != c:
        raise ShapeMismatch(f"conv expects {c} input channels, got {x.shape[3]}")
    xp = _pad(x, padding)
    n, hp, wp, _ = xp.shape
    rows = n * hp * wp
    grid = np.empty((n, hp, wp, o))
    taps = [weight[:, :, u, v].T for u in range(kernel) for v in range(kernel)]
    _shifted_gemm(
        xp.reshape(rows, c), taps, _tap_offsets(kernel, wp), grid.reshape(rows, o)
    )
    grid += bias
    rs, cs = _output_slices(grid.shape, kernel, stride)
    return grid, grid[:, rs, cs]


def _conv_backward(
    grid: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    padding: int,
    stride: int,
    *,
    input_grad: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(d_weight, d_bias, d_input) of `_conv`, one row-blocked GEMM per tap each.

    grid is the forward output buffer holding dL/d(output) at the valid
    positions; everything else in it is zeroed here, in place.
    """
    o, c, kernel, _ = weight.shape
    n, hp, wp, _ = grid.shape
    rs, cs = _output_slices(grid.shape, kernel, stride)
    for axis, size, valid in ((1, hp, rs), (2, wp, cs)):
        outside = np.ones(size, bool)
        outside[valid] = False
        grid[(slice(None),) * axis + (outside,)] = 0.0
    rows = n * hp * wp
    gf = grid.reshape(rows, o)
    xf = _pad(x, padding).reshape(rows, c)
    offsets = _tap_offsets(kernel, wp)
    d_taps = np.zeros((len(offsets), c, o))
    tmp = np.empty((c, o))
    block = max(1, _BLOCK_BYTES // (gf.itemsize * o))
    for a in range(0, rows, block):  # each block of gf is read once from memory
        for d_tap, off in zip(d_taps, offsets):
            hi = min(a + block, rows - off)
            if a < hi:
                np.matmul(xf[a + off : hi + off].T, gf[a:hi], out=tmp)
                d_tap += tmp
    del xf  # free the padded input before d_input is allocated
    d_weight = np.ascontiguousarray(
        d_taps.reshape(kernel, kernel, c, o).transpose(3, 2, 0, 1)
    )
    d_bias = gf.sum(axis=0)
    if not input_grad:
        return d_weight, d_bias, None
    d_xp = np.empty((n, hp, wp, c))
    taps = [weight[:, :, u, v] for u in range(kernel) for v in range(kernel)]
    _shifted_gemm(gf, taps, [-off for off in offsets], d_xp.reshape(rows, c))
    h, w = x.shape[1:3]
    return d_weight, d_bias, d_xp[:, padding : padding + h, padding : padding + w]


def avg_pool_forward(x: np.ndarray, kernel: int) -> np.ndarray:
    """Average k x k blocks of one (C, H, W) map; trailing rows/columns drop."""
    return _pool(x.transpose(1, 2, 0)[None], kernel)[0].transpose(2, 0, 1)


def conv_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, padding: int, stride: int
) -> np.ndarray:
    """Cross-correlation of one (C, H, W) input with (O, C, k, k) kernels."""
    _, out = _conv(x.transpose(1, 2, 0)[None], weight, bias, padding, stride)
    return out[0].transpose(2, 0, 1)


def fc_forward(x_flat: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    if x_flat.shape[0] != weight.shape[1]:
        raise ShapeMismatch(
            f"fc expects {weight.shape[1]} inputs, got {x_flat.shape[0]}"
        )
    return weight @ x_flat + bias


def layer_forward(
    layer: LayerSpec, weights: LayerWeights | None, spikes_in: np.ndarray
) -> np.ndarray:
    """Stateless synaptic map for one (C, H, W) input at one timestep."""
    if layer.kind == "avg_pool":
        return avg_pool_forward(spikes_in, layer.kernel)
    if layer.kind == "conv":
        return conv_forward(
            spikes_in, weights.weight, weights.bias, layer.padding, layer.stride
        )
    return fc_forward(spikes_in.reshape(-1), weights.weight, weights.bias)


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
    order its weights flatten. current is the (T*B, ...) buffer the map
    wrote (a conv's padded output grid); potentials is the view of it that
    the LIF scan turned into V.
    """

    inputs: np.ndarray
    current: np.ndarray
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
            current, v = _conv(x, lw.weight, lw.bias, layer.padding, layer.stride)
        else:
            if x.ndim == 4:  # the weights flatten (C, H, W)
                x = x.transpose(0, 3, 1, 2)
            x = np.ascontiguousarray(x, dtype=float)
            flat = x.reshape(n, -1)
            if flat.shape[1] != lw.weight.shape[1]:
                raise ShapeMismatch(
                    f"fc expects {lw.weight.shape[1]} inputs, got {flat.shape[1]}"
                )
            current = flat @ lw.weight.T
            current += lw.bias
            v = current
        v = v.reshape((T, B) + v.shape[1:])
        spikes = lif_scan(
            v, net.lif, spike_mode=spike_mode, surrogate_half_width=surrogate_half_width
        )
        if record:
            trace[i] = LayerTrace(
                inputs=x.reshape((T, B) + x.shape[1:]),
                current=current,
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
