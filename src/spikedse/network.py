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

A conv has two kernels: a dense im2col GEMM, and an event-driven one that
reads only the non-zero input pixels and scatters them through the k x k
taps. `simulate` picks the event-driven one per conv layer and batch when
its result is provably the dense one's (hard spikes, and ptq weights whose
sums fit the float64 mantissa at their record's width, see `_exact_convs`;
a WeightSet checks its record, grid and width once, when it is made) and
the input is sparse enough for it to pay
(`_active_pixels`). Otherwise the dense kernel runs, and when at most half
of the (timestep, sample) input frames hold a non-zero value it runs over
those frames only; the silent ones get the bias map, bit for bit what the
GEMM gives them. The backward pass (`_conv_backward`) gathers a conv's
weight gradient from the same per-tap pixel indices when its recorded
input is sparse (`_active_pixels`), instead of rebuilding im2col columns,
and takes its input gradient from the dense kernel too, as a transposed
conv (`_conv_input_grad`). fc layers always run dense.

A forward value depends on its model and sample alone, never on the
batch it ran in or on the BLAS kernel. OpenBLAS sums a GEMM row in an
order that can follow the product's row count (edge kernels, small-matrix
paths, the split between threads, the core type), so every float product
whose sum is not exact runs at a fixed row count per layer shape, a
multiple of 8, with the last block zero-padded: a conv's im2col blocks
(`_column_blocks`), which its input gradient runs too, and the fc layers
(`_fixed_rows`). This is the fixed reduction split of batch-invariant
kernels (He and Thinking Machines Lab, "Defeating Nondeterminism in LLM
Inference", 2025). Exact sums (`_exact_convs`) have one value in any
order and keep their unpadded GEMMs.

NumPy pays a fixed cost per innermost loop, and a conv's short channel
axis (C = 2 on conv1) made three of its passes pay it per pixel. They run
on long rows instead, each without changing a value: the im2col copy
moves each window row of k * C values as one item (`_column_blocks`),
the bias is added to, or filled into, each output frame as one tiled
Ho * Wo * O row (`_bias_map`), and `_active_pixels` ORs each pixel's
non-zero mask as 1- to 8-byte words. The columns and the GEMM call are
the ones a float copy gives, so every product keeps its bits.

On the exact convs two whole-tensor passes go: the dense kernel folds
the bias into its GEMM (a column of ones meets a bias row of the weight
matrix; exact sums are the same in any order, see `_conv_dense`), and one
`x != 0` mask gives `_conv` both its active pixels and its live frames.
Pools whose k * k is a power of two multiply by 1 / (k * k) instead of
dividing (`_per_tap`), which rounds every float64 the same way.

The input stage unpacks a batch's bit-packed frames in one call
(`_input_rows`). A leading avg_pool with k = 2, 4 or 8 (the reference
nets' k4 pool) runs right there on the unpacked bytes, as word lanes
(`_lane_pool`): the k rows of a block are added as bytes, each row's k
bytes are read as one 2-, 4- or 8-byte word, and one multiply by
0x01...01 and a shift leave the block's sum, an integer of at most 64,
in each word (SWAR byte sums, Warren, Hacker's Delight, ch. 5). The
sums, and so the pooled rows, are the bytes `_pool` gives. On the
infer_atis fixture's 12-recording chunks this input stage took a
simulate call from 0.4-0.6 ms of unpacking, stacking and pooling to
0.2-0.3 ms (2-vCPU host).
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
            raise ValueError(f"v_threshold must be positive, got {self.v_threshold!r}")
        if not 0 <= self.leak < 1:
            raise ValueError(f"leak must be in [0, 1), got {self.leak!r}")
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
        # with padding >= kernel the border outputs read nothing but padding
        if self.kind == "conv" and self.padding >= self.kernel:
            raise ValueError(f"conv needs padding < kernel, got {sizes}")
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

    def __post_init__(self):
        window = self.input_window
        if isinstance(window, bool) or not isinstance(window, numbers.Integral):
            raise TypeError(f"input_window must be an integer, got {window!r}")
        if window < 1:
            raise ValueError(f"input_window must be positive, got {window!r}")

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


@dataclass(frozen=True)
class WeightSet:
    """Real-valued parameters aligned with NetworkSpec.layers (None = pool).

    quant is None or ptq's record (bits, rounding, per-layer frac_bits,
    saturated), checked once, here: bits in [2, 32], rounding TR, RN or
    SR, one frac_bits entry per layer, None exactly at pools and in
    [0, bits - 1] elsewhere, and every weight and bias on its layer's
    2^-frac_bits grid with codes |w * 2^frac_bits| <= 2^(bits - 1) (float32
    rounds ptq's 32-bit code 2^31 - 1 up), else ValueError. Those arrays
    are then read-only, and a layer's arrays are replaced only by building
    a new WeightSet, so the record holds for the object's life and
    `simulate` and `save_checkpoint` trust it.
    """

    layers: tuple[LayerWeights | None, ...]
    quant: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.quant is None:
            return
        if not isinstance(self.quant, dict):
            raise ValueError(f"quant record must be a dict, got {self.quant!r}")
        bits, rounding, frac_bits = map(self.quant.get, ("bits", "rounding", "frac_bits"))
        if not (isinstance(bits, numbers.Integral) and 2 <= bits <= 32):
            raise ValueError(f"quant bits must be an integer in [2, 32], got {bits!r}")
        if rounding not in ("TR", "RN", "SR"):
            raise ValueError(f"quant rounding must be TR, RN or SR, got {rounding!r}")
        if not (isinstance(frac_bits, list) and len(frac_bits) == len(self.layers)):
            raise ValueError(f"quant frac_bits needs {len(self.layers)} entries, "
                             f"got {frac_bits!r}")
        for i, (lw, frac) in enumerate(zip(self.layers, frac_bits)):
            if lw is None:
                if frac is not None:
                    raise ValueError(f"quant frac_bits[{i}] is {frac!r} at a pool")
                continue
            if not (isinstance(frac, numbers.Integral) and 0 <= frac < bits):
                raise ValueError(f"quant frac_bits[{i}] {frac!r} is not in [0, {bits - 1}]")
            for name, arr in (("weight", lw.weight), ("bias", lw.bias)):
                codes = arr * 2.0**frac  # scaling by a power of two is exact
                if not (np.isfinite(codes).all() and np.array_equal(codes, np.round(codes))):
                    raise ValueError(f"layer {i} {name} lies off its 2^-{frac} grid")
                if np.abs(codes).max(initial=0) > 2.0 ** (bits - 1):
                    raise ValueError(f"layer {i} {name} codes pass the quant width {bits}")
        for arr in self.param_arrays():
            arr.flags.writeable = False

    def zeros_like(self) -> "WeightSet":
        """All-zero parameters of the same shapes, without a quant record."""
        return WeightSet(layers=[
            None if lw is None
            else LayerWeights(np.zeros_like(lw.weight), np.zeros_like(lw.bias))
            for lw in self.layers
        ])

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
# (strided) output positions, built in row blocks and skipping all-zero
# frames, or on sparse input that is summed exactly, one scatter of its
# non-zero pixels per tap. Running its per-pixel passes on whole rows (see
# the module doc) took an `evaluate` round of the infer_atis fixture's 144
# recordings from 66.0 to 56.3 ms (conv1 22.4 -> 16.5 ms, conv2 10.9 ->
# 7.8 ms; 2-vCPU host).
# ---------------------------------------------------------------------------

# Row blocks of a conv's im2col columns: bounds the columns built at once
# (peak memory) and keeps a block's GEMM operands in cache.
_BLOCK_BYTES = 1 << 20
# Rows per GEMM call of a float fc layer (`_fixed_rows`).
_FC_ROWS = 32
# The event-driven conv pays per non-zero input pixel, the dense one per
# output window: per tap and output channel, C MACs for dense and C MACs
# plus one scattered add for events. A scattered add costs about as much as
# _SCATTER_COST dense MACs, so events run while the share of non-zero
# pixels is below C / (C + _SCATTER_COST): 0.25 for the reference conv2
# (C = 32), where it was measured to cross near 0.25-0.3, and 0.02 for
# conv1 (C = 2), measured at 0.03-0.04. The backward's per-tap gather of
# d_weight uses the same test; on conv2 it measured faster than the column
# GEMM up to that limit.
_SCATTER_COST = 96
# Largest value of the activation dtypes that hold exact integers (binary
# frames, hard spikes): `_pool` sums them in integers, `_exact_convs`
# bounds the frames by it.
_DTYPE_MAX = {np.dtype(bool): 1, np.dtype(np.uint8): 255}
# The word that holds one k-byte column group of a leading k x k pool's
# row sums (`_lane_pool`).
_LANE_WORDS = {2: np.uint16, 4: np.uint32, 8: np.uint64}


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
    memory order. The sums are scaled by 1 / k^2 (`_per_tap`: a multiply
    when k^2 is a power of two). Returns a C-contiguous float64
    (N, H2, W2, C) array.
    """
    n, h, w, c = x.shape
    h2, w2 = h // kernel, w // kernel
    acc = np.dtype(float)
    if x.dtype in _DTYPE_MAX:
        acc = np.min_scalar_type(kernel * kernel * _DTYPE_MAX[x.dtype])
    rows = np.zeros_like(x[:, :h2, : w2 * kernel], dtype=acc)
    for u in range(kernel):
        rows += x[:, u : h2 * kernel : kernel, : w2 * kernel]
    sums = np.zeros_like(rows[:, :, :w2])
    for v in range(kernel):
        sums += rows[:, :, v::kernel]
    return _per_tap(sums, kernel, np.empty((n, h2, w2, c)))


def _input_rows(frames: Sequence[SpikeFrames], first: LayerSpec) -> tuple[np.ndarray, int]:
    """A batch's frames as the timestep-major, channels-last rows the first
    layer to run reads, and that layer's index.

    The packed frames are stacked and unpacked in one call, to (B, T, 2, W,
    W) uint8. A leading avg_pool with k = 2, 4 or 8 runs here (`_lane_pool`)
    and the engine starts at layer 1; any other first layer gets the (T*B,
    W, W, 2) uint8 view of (T, B, 2, W, W) memory that `_pool`, `_conv` and
    the fc flatten read.
    """
    T, w = frames[0].timesteps, frames[0].window
    x = np.unpackbits(np.stack([f.bits for f in frames]), axis=1, count=T * 2 * w * w)
    x = x.reshape(len(frames), T, 2, w, w)
    if first.kind == "avg_pool" and first.kernel in _LANE_WORDS:
        return _lane_pool(x, first.kernel), 1
    x = np.ascontiguousarray(x.transpose(1, 0, 2, 3, 4)).transpose(0, 1, 3, 4, 2)
    return x.reshape((T * len(frames),) + x.shape[2:]), 0


def _lane_pool(x: np.ndarray, kernel: int) -> np.ndarray:
    """`_pool` of binary (B, T, C, H, W) uint8 frames for k in _LANE_WORDS,
    as C-contiguous float64 (T*B, H2, W2, C) rows, timestep-major.

    The k rows of each block are added as bytes (at most k per byte), and
    each row's k-byte column groups are read as one k-byte word. A multiply
    by 0x01...01 adds every byte into the word's top byte (SWAR byte sums,
    Warren, Hacker's Delight, ch. 5), and a shift by 8(k - 1) leaves the
    block sum. It is an integer of at most k^2 <= 64, so no partial sum
    carries into the next byte and either byte order gives the same top
    byte: the sums, and their scaling by `_per_tap`, are `_pool`'s bytes.
    """
    b, t, c, h, w = x.shape
    h2, w2 = h // kernel, w // kernel
    rows = np.add(x[..., 0 : h2 * kernel : kernel, : w2 * kernel],
                  x[..., 1 : h2 * kernel : kernel, : w2 * kernel])
    for u in range(2, kernel):
        rows += x[..., u : h2 * kernel : kernel, : w2 * kernel]
    word = _LANE_WORDS[kernel]
    sums = rows.view(word)  # (B, T, C, H2, W2), one word per block
    sums *= word(int.from_bytes(b"\1" * kernel, "little"))
    sums >>= word(8 * (kernel - 1))
    out = np.empty((t, b, h2, w2, c))
    # written through a view in the sums' order: their rows of W2 words are
    # the inner loop, where C = 2 channels-last values would be
    _per_tap(sums, kernel, out.transpose(1, 0, 4, 2, 3))
    return out.reshape(t * b, h2, w2, c)


def _pool_backward(grad_out: np.ndarray, kernel: int, in_shape: tuple) -> np.ndarray:
    """Spread (N, H2, W2, C) gradients over the k x k blocks they averaged.

    in_shape is the pool's (N, H, W, C) input; rows and columns the pool
    dropped get no gradient. The spread is grad_out / k^2 (`_per_tap`).
    """
    h2, w2 = grad_out.shape[1:3]
    spread = _per_tap(grad_out, kernel)
    grad_in = np.zeros(in_shape)
    for u in range(kernel):
        for v in range(kernel):
            grad_in[:, u : h2 * kernel : kernel, v : w2 * kernel : kernel] = spread
    return grad_in


def _per_tap(sums: np.ndarray, kernel: int, out: np.ndarray | None = None) -> np.ndarray:
    """sums / k^2 in float64. When k^2 is a power of two (both reference
    pools) it is a multiply by 1 / k^2: x * 2^-n is the correctly rounded
    x / 2^n for every float64, -0.0, subnormals, +-inf and NaN included,
    and a multiply costs about half a divide."""
    area = kernel * kernel
    if area & (area - 1):
        return np.divide(sums, area, out=out, dtype=float)
    return np.multiply(sums, 1 / area, out=out, dtype=float)


def _frame_block(ho: int, wo: int, depth: int) -> int:
    """Frames per im2col row block of a conv with (Ho, Wo) outputs and
    depth-wide columns: about _BLOCK_BYTES of columns, rounded down, but
    to no fewer than one step, so that a block holds a multiple of 8 rows."""
    step = 8 // math.gcd(ho * wo, 8)
    frames = _BLOCK_BYTES // (ho * wo * depth * 8)
    return max(step, frames - frames % step)


def _column_blocks(
    x: np.ndarray, kernel: int, padding: int, stride: int, *, ones: bool = False,
    pad: bool = False,
):
    """Yield (lo, hi, cols) over row blocks of (N, H, W, C) input x.

    cols is the ((hi - lo) * Ho * Wo, k * k * C) im2col matrix of x[lo:hi]
    at the valid (strided) output positions, in blocks of `_frame_block`
    frames: rows in (frame, Ho, Wo) order, columns in (k, k, C) order. A
    row is k window rows of k * C values that lie side by side in the
    padded input, so each is copied as one (k * C * 8)-byte item: one inner
    loop of k items per output position, where a float64 copy runs k loops
    of k * C values (6 on conv1). ones=True appends one column of ones, the
    one a folded bias meets (`_conv_dense`); it is written once per buffer.
    pad=True yields every block at the full block's rows, the tail block's
    extra rows zero. The buffers are reused: consume a block before drawing
    the next.
    """
    n, h, w, c = x.shape
    ho, wo = (_conv_size(size, kernel, padding, stride) for size in (h, w))
    depth = kernel * kernel * c
    block = _frame_block(ho, wo, depth)
    xp = np.zeros((min(block, n), h + 2 * padding, w + 2 * padding, c))
    run = np.dtype((np.void, kernel * c * xp.itemsize))
    frame, row, col, _ = xp.strides
    # (block, Ho, Wo, k) view of the window rows the outputs read
    windows = np.ndarray((len(xp), ho, wo, kernel), run, xp,
                         strides=(frame, stride * row, stride * col, row))
    buf = np.empty(((block if pad else len(xp)) * ho * wo, depth + ones))
    buf[:, depth:] = 1.0
    # the same (block, Ho, Wo, k) items in the column rows
    line = buf.strides[0]
    items = np.ndarray(windows.shape, run, buf,
                       strides=(ho * wo * line, wo * line, line, run.itemsize))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        xp[: hi - lo, padding : padding + h, padding : padding + w] = x[lo:hi]
        items[: hi - lo] = windows[: hi - lo]
        rows = (hi - lo) * ho * wo
        if pad:
            buf[rows:] = 0.0
        yield lo, hi, buf if pad else buf[:rows]


def _fixed_rows(a: np.ndarray, b: np.ndarray, rows: int) -> np.ndarray:
    """a @ b as GEMMs of exactly `rows` rows each (a multiple of 8), the
    last one's rows past a's zero: each row of the (N, O) result is a
    function of that row of a alone (see the module doc)."""
    n, k = a.shape
    full = n - n % rows
    out = np.empty((-(-n // rows) * rows, b.shape[1]))
    for lo in range(0, full, rows):
        np.matmul(a[lo : lo + rows], b, out=out[lo : lo + rows])
    if full < n:
        tail = np.zeros((rows, k))
        tail[: n - full] = a[full:]
        np.matmul(tail, b, out=out[full:])
    return out[:n]


def _weight_matrix(weight: np.ndarray) -> np.ndarray:
    """(O, C, k, k) conv weights as the (k*k*C, O) matrix im2col rows meet."""
    o, c, kernel, _ = weight.shape
    return weight.transpose(2, 3, 1, 0).reshape(kernel * kernel * c, o)


def _conv(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    padding: int,
    stride: int,
    *,
    exact: bool = False,
) -> np.ndarray:
    """Cross-correlation of channels-last (N, H, W, C) input with (O, C, k, k).

    Returns the (N, Ho, Wo, O) output. The dense kernel makes, per row
    block, one GEMM of the im2col columns of the valid (strided) output
    positions against the (k*k*C, O) weight matrix. When at most half of
    the N input frames have a non-zero value, the all-zero frames get the
    bias map and the GEMM reads the live frames only; a row's value does
    not depend on the rows beside it (`_conv_dense`), so the values are
    the dense ones. exact=True says the caller proved every partial sum
    exact in float64 (see `simulate`); then a stride-1 conv whose input is
    sparse enough (`_active_pixels`) runs the event-driven `_conv_events`
    instead, which gives the same values in another summation order, and
    the dense kernel folds the bias into its GEMM. One `x != 0` mask gives
    both the active pixels and the live frames.
    """
    _, c, kernel, _ = weight.shape
    if x.shape[3] != c:
        raise ShapeMismatch(f"conv expects {c} input channels, got {x.shape[3]}")
    mask = np.not_equal(x, 0, order="C")
    if exact and stride == 1:
        pixels = _active_pixels(mask)
        if pixels is not None:
            return _conv_events(x, weight, bias, padding, pixels)
    n = x.shape[0]
    ho, wo = (_conv_size(size, kernel, padding, stride) for size in x.shape[1:3])
    live = np.flatnonzero(mask.reshape(n, -1).any(axis=1))
    if 2 * live.size > n:
        return _conv_dense(x, weight, bias, padding, stride, exact=exact)
    out = _bias_map(bias, n, ho, wo)
    if live.size:
        out[live] = _conv_dense(x[live], weight, bias, padding, stride, exact=exact)
    return out


def _conv_dense(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, padding: int, stride: int,
    *, exact: bool = False,
) -> np.ndarray:
    """`_conv` as one im2col GEMM per row block over every input frame.

    Each GEMM has the full block's rows, the tail block's zero-padded
    (`_column_blocks`), into an output with room for them, so a frame's
    value is the same in any batch. The bias is added to each frame as one
    tiled (Ho * Wo * O) row. With exact=True (every partial sum exact, see
    `_conv`) the GEMMs are unpadded, as exact sums have one value at any
    row count, signed zeros included, and the bias is folded into them:
    the columns end in a column of ones and the (k*k*C + 1, O) weight
    matrix in the bias, so the GEMM writes each potential once.
    """
    n, _, _, c = x.shape
    o, _, kernel, _ = weight.shape
    wm = _weight_matrix(weight)
    if exact:
        wm = np.vstack([wm, bias])
    ho, wo = (_conv_size(size, kernel, padding, stride) for size in x.shape[1:3])
    padded = n
    if not exact:  # room for the tail block's padding rows
        block = _frame_block(ho, wo, kernel * kernel * c)
        padded = -(-n // block) * block
    rows = np.empty((padded * ho * wo, o))
    for lo, _, cols in _column_blocks(x, kernel, padding, stride, ones=exact,
                                      pad=not exact):
        np.matmul(cols, wm, out=rows[lo * ho * wo : lo * ho * wo + len(cols)])
    if not exact:
        frames = rows[: n * ho * wo].reshape(n, ho * wo * o)
        frames += np.tile(bias, ho * wo)
    return rows[: n * ho * wo].reshape(n, ho, wo, o)


def _bias_map(bias: np.ndarray, n: int, ho: int, wo: int) -> np.ndarray:
    """(n, Ho, Wo, O) output map holding the bias: one (Ho * Wo * O) row
    of the tiled bias copied per frame, not one O-value copy per pixel."""
    out = np.empty((n, ho * wo * len(bias)))
    out[:] = np.tile(bias, ho * wo)
    return out.reshape(n, ho, wo, len(bias))


def _active_pixels(x: np.ndarray) -> np.ndarray | None:
    """Flat indices of the (N, H, W) pixels of x with a non-zero channel,
    or None when they are C / (C + _SCATTER_COST) or more of all pixels.

    One count over x's C-ordered `x != 0` mask (NaN counts, -0.0 does not;
    a C-contiguous bool x is its own mask, so a caller holding the mask
    passes that) rejects inputs too dense even with every non-zero value
    packed into as few pixels as possible, before any per-pixel scan. The
    scan reads each pixel's C mask bytes as words of the widest unsigned
    type whose size divides C (four uint64 at C = 32) and ORs them column
    by column, so every pass runs over all pixels at once.
    """
    c = x.shape[3]
    n_pixels = x.size // c
    limit = n_pixels * c / (c + _SCATTER_COST)
    mask = x
    if x.dtype != bool or not x.flags.c_contiguous:
        mask = np.not_equal(x, 0, order="C")
    nonzero = np.count_nonzero(mask)
    if nonzero >= limit * c:
        return None
    if not nonzero:
        return np.empty(0, np.intp)
    words = mask.reshape(n_pixels, c).view(f"u{math.gcd(c, 8)}")
    hit = words[:, 0]
    for column in words.T[1:]:
        hit = hit | column
    pixels = np.flatnonzero(hit)
    return pixels if pixels.size < limit else None


def _tap_outputs(pixels: np.ndarray, h: int, w: int, kernel: int, padding: int):
    """Yield (u, v, ok, rows) per tap of a stride-1 conv over input pixels.

    pixels are flat indices into an (N, h, w) input; ok marks those whose
    output through tap (u, v) lies inside the (Ho, Wo) map, and rows are
    those outputs' flat (N, Ho, Wo) indices. Within one tap the pixels
    reach distinct outputs. `_conv_events` scatters through these indices
    and `_weight_grad_events` gathers through them. The output rows and
    columns, their bounds and the row bases are built for all k taps at
    once as (k, P) arrays; each tap then costs one AND, one add and one
    gather.
    """
    ho, wo = h + 2 * padding - kernel + 1, w + 2 * padding - kernel + 1
    sample, rest = np.divmod(pixels, h * w)
    row, col = np.divmod(rest, w)
    shift = padding - np.arange(kernel)[:, None]  # output = input + p - tap
    out_rows, out_cols = row + shift, col + shift
    row_ok = (out_rows >= 0) & (out_rows < ho)
    col_ok = (out_cols >= 0) & (out_cols < wo)
    row_base = sample * (ho * wo) + out_rows * wo
    for u in range(kernel):
        for v in range(kernel):
            ok = row_ok[u] & col_ok[v]
            yield u, v, ok, (row_base[u] + out_cols[v])[ok]


def _conv_events(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, padding: int,
    pixels: np.ndarray,
) -> np.ndarray:
    """Stride-1 `_conv` that reads only the listed non-zero input pixels.

    The output starts as the bias. Per tap, the (P, C) rows of the active
    pixels whose output lies inside the map meet the tap's (C, O) weights
    in one GEMM, and the products are added into those outputs. Within one
    tap the pixels hit distinct outputs, so a fancy-index += is a
    scatter-add. (One (P, C) @ (C, k*k*O) GEMM for all taps needs a k*k
    times larger product buffer, which measured slower: fresh pages.)
    """
    n, h, w, c = x.shape
    o, _, kernel, _ = weight.shape
    ho, wo = h + 2 * padding - kernel + 1, w + 2 * padding - kernel + 1
    out = _bias_map(bias, n, ho, wo)
    if not pixels.size:
        return out
    flat = out.reshape(-1, o)
    active = x.reshape(-1, c)[pixels].astype(float, copy=False)
    taps = weight.transpose(2, 3, 1, 0)  # (k, k, C, O)
    for u, v, ok, rows in _tap_outputs(pixels, h, w, kernel, padding):
        flat[rows] += active[ok] @ taps[u, v]
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

    d_weight is cols^T @ grad over row blocks of im2col columns rebuilt
    from the recorded input x. A stride-1 conv whose x is sparse
    (`_active_pixels`) builds no columns: per tap, the active pixels'
    (P, C) rows meet the (P, O) gradient rows of their outputs in one
    GEMM, the same sum without its zero terms. d_input is the transposed
    conv of grad (`_conv_input_grad`).
    """
    o, c, kernel, _ = weight.shape
    pixels = _active_pixels(x) if stride == 1 else None
    if pixels is not None:
        d_wm = _weight_grad_events(grad, x, pixels, kernel, padding)
    else:
        d_wm = np.zeros((kernel * kernel * c, o))
        tmp = np.empty_like(d_wm)
        for lo, hi, cols in _column_blocks(x, kernel, padding, stride):
            np.matmul(cols.T, grad[lo:hi].reshape(-1, o), out=tmp)
            d_wm += tmp
    d_weight = np.ascontiguousarray(
        d_wm.reshape(kernel, kernel, c, o).transpose(3, 2, 0, 1)
    )
    d_x = _conv_input_grad(grad, weight, padding, stride, x.shape) if input_grad else None
    return d_weight, grad.reshape(-1, o).sum(axis=0), d_x


def _conv_input_grad(
    grad: np.ndarray, weight: np.ndarray, padding: int, stride: int, in_shape: tuple
) -> np.ndarray:
    """d_input of `_conv` for dL/d(output) grad, as one transposed conv.

    A conv's input gradient is a conv (Dumoulin & Visin, arXiv:1603.07285)
    of grad, placed on the padded input's grid of window origins, at
    stride 1 and padding k - 1 - p, with the weight flipped in space and
    its channel axes swapped. Its output is exactly in_shape (N, H, W, C),
    and `_conv_dense` makes it in its fixed, zero-padded row blocks.
    """
    n, h, w, c = in_shape
    o, _, kernel, _ = weight.shape
    if stride > 1:  # zeros between the strided outputs and after the last
        origins = (_conv_size(size, kernel, padding, 1) for size in (h, w))
        dilated = np.zeros((n, *origins, o))
        dilated[:, ::stride, ::stride] = grad
        grad = dilated
    flipped = weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return _conv_dense(grad, flipped, np.zeros(c), kernel - 1 - padding, 1)


def _weight_grad_events(
    grad: np.ndarray, x: np.ndarray, pixels: np.ndarray, kernel: int, padding: int
) -> np.ndarray:
    """The (k*k*C, O) d_weight matrix of a stride-1 conv from the listed
    non-zero pixels of its input x, one gather-GEMM per tap."""
    _, h, w, c = x.shape
    o = grad.shape[3]
    d_taps = np.zeros((kernel, kernel, c, o))
    active = x.reshape(-1, c)[pixels]
    g = grad.reshape(-1, o)
    for u, v, ok, rows in _tap_outputs(pixels, h, w, kernel, padding):
        np.matmul(active[ok].T, g[rows], out=d_taps[u, v])
    return d_taps.reshape(kernel * kernel * c, o)


def _exact_convs(net: NetworkSpec, bits: int) -> set[int]:
    """Indices of the spiking layers, convs and fc layers, whose synaptic
    map is exact in float64 for any weights a `bits`-wide quant record
    admits; reads only the layer specs.

    With codes |w * 2^f| <= 2^(bits - 1) (a WeightSet's check) and input on
    the 2^-g grid with |x| <= m, every product and partial sum, bias
    included, is a multiple of 2^-(f + g) of at most (fan_in * m + 1) *
    2^(bits - 1 + g) units: exact in any order below 2^53. fan_in is
    weight_count // out_channels (k * k * C, or an fc layer's inputs).
    (g, m) starts at uint8 frames' (0, 255), a power-of-two pool adds log2
    of its area to g, any other loses the grid, and hard spikes are (0, 1).
    """
    exact = set()
    g, m = 0, _DTYPE_MAX[np.dtype(np.uint8)]
    for i, layer in enumerate(net.layers):
        area = layer.kernel**2
        if layer.kind == "avg_pool":
            g = None if g is None or area & (area - 1) else g + area.bit_length() - 1
            continue
        fan_in = layer.weight_count // layer.out_channels
        if g is not None and (fan_in * m + 1) << (bits - 1 + g) < 1 << 53:
            exact.add(i)
        g, m = 0, 1
    return exact


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

    The batch's packed frames are unpacked in one call, and a leading
    k = 2, 4 or 8 pool runs on them as word lanes (`_input_rows`); each
    spiking layer then computes its synaptic current for all T*B rows in
    one pass, and scans the LIF recurrence over T. All samples must share
    T and the network's window. A conv runs event-driven where that is
    exact and pays (see the module doc); the values are the same either way.
    Each sample's values are the ones it gets alone, or in any other batch.
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
    x, start = _input_rows(frames, net.layers[0])
    trace: list[LayerTrace | None] | None = [None] * len(net.layers) if record else None
    hard = spike_mode == "hard"
    quant = weights.quant
    exact = _exact_convs(net, quant["bits"]) if hard and quant is not None else set()

    for i, layer in enumerate(net.layers[start:], start):
        if layer.kind == "avg_pool":
            x = _pool(x, layer.kernel)
            continue
        lw = weights.layers[i]
        if layer.kind == "conv":
            v = _conv(x, lw.weight, lw.bias, layer.padding, layer.stride, exact=i in exact)
        else:
            if x.ndim == 4:  # the weights flatten (C, H, W)
                x = x.transpose(0, 3, 1, 2)
            x = np.ascontiguousarray(x, dtype=float)
            flat = x.reshape(n, -1)
            if flat.shape[1] != lw.weight.shape[1]:
                raise ShapeMismatch(
                    f"fc expects {lw.weight.shape[1]} inputs, got {flat.shape[1]}"
                )
            if i in exact:
                v = flat @ lw.weight.T
            else:
                v = _fixed_rows(flat, lw.weight.T, _FC_ROWS)
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
