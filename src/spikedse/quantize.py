"""Post-training quantization of weights to signed B-bit fixed point.

Each layer gets its own integer/fraction split: the fractional bit count n
is chosen so the layer's largest magnitude is representable without
overflow, then every value is snapped to the 2^-n grid by one of three
rounding schemes:

    TR  truncation: floor of the scaled value toward -inf (two's-complement
        bit truncation; keeps the most significant bits). The default.
    RN  round to nearest, halves away from zero.
    SR  stochastic rounding: up with probability equal to the fractional
        part, using a per-layer seeded generator (seed ^ layer index), so
        parallel quantization stays deterministic.

Quantized tensors remain ordinary float arrays whose values all lie on the
layer grid; memory accounting is analytic via memory_of. Values pushed out
of range by rounding saturate to the grid edge and are counted, never
raised. ptq returns a new WeightSet whose quant record (bits, rounding,
per-layer frac_bits, saturated count) is checked once, when the WeightSet
is made, against its read-only arrays; nothing downstream re-derives the
grid from the floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .network import LayerWeights, NetworkSpec, WeightSet

Rounding = Literal["TR", "RN", "SR"]


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point grid with total_bits = 1 sign + int + frac bits."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if not 2 <= self.total_bits <= 32:
            raise ValueError(f"total_bits must be in [2, 32], got {self.total_bits}")
        if not 0 <= self.frac_bits <= self.total_bits - 1:
            raise ValueError(
                f"frac_bits must be in [0, {self.total_bits - 1}], got {self.frac_bits}"
            )

    @property
    def step(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @property
    def int_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def int_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.int_min * self.step

    @property
    def max_value(self) -> float:
        return self.int_max * self.step


@dataclass(frozen=True)
class QuantConfig:
    bits: int
    rounding: Rounding = "TR"
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.bits <= 32:
            raise ValueError(f"bits must be in [2, 32], got {self.bits}")
        if self.rounding not in ("TR", "RN", "SR"):
            raise ValueError(f"unknown rounding scheme {self.rounding!r}")

    @property
    def tag(self) -> str:
        return f"{self.bits}b-{self.rounding}"


_EPS = 1e-12


def choose_format(values: np.ndarray, bits: int) -> FixedPointFormat:
    """Pick the fractional split for one layer's tensor.

    n = B - 1 - max(0, ceil(log2(max_abs + eps))), clamped to [0, B - 1];
    this guarantees max_abs is representable. An all-zero tensor gets the
    pure-fractional split n = B - 1 by convention.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot choose a format for an empty tensor")
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    max_abs = float(np.max(np.abs(arr)))
    if max_abs == 0.0:
        return FixedPointFormat(bits, bits - 1)
    int_bits = max(0, math.ceil(math.log2(max_abs + _EPS)))
    frac = min(max(bits - 1 - int_bits, 0), bits - 1)
    return FixedPointFormat(bits, frac)


def quantize_array(
    values: np.ndarray,
    fmt: FixedPointFormat,
    rounding: Rounding = "TR",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, int]:
    """Snap an array to the grid; returns (quantized, saturated count)."""
    scaled = np.asarray(values, dtype=float) * (1 << fmt.frac_bits)
    if rounding == "TR":
        ints = np.floor(scaled)
    elif rounding == "RN":
        ints = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    else:
        if rng is None:
            raise ValueError("SR rounding needs a generator")
        low = np.floor(scaled)
        frac = scaled - low
        ints = low + (rng.random(scaled.shape) < frac)
    saturated = int(np.count_nonzero((ints < fmt.int_min) | (ints > fmt.int_max)))
    ints = np.clip(ints, fmt.int_min, fmt.int_max)
    return ints * fmt.step, saturated


def ptq(weights: WeightSet, config: QuantConfig) -> WeightSet:
    """Quantize a trained WeightSet layer by layer.

    Each parameterized layer's format comes from its weight tensor; biases
    reuse the same format. The returned WeightSet carries a quant
    provenance block (bits, rounding, per-layer frac_bits, saturated
    count), checked when it is built, and read-only arrays. Neither the
    input nor the config is modified.
    """
    layers: list[LayerWeights | None] = []
    frac_bits: list[int | None] = []
    saturated = 0
    for i, lw in enumerate(weights.layers):
        if lw is None:
            layers.append(None)
            frac_bits.append(None)
            continue
        fmt = choose_format(lw.weight, config.bits)
        frac_bits.append(fmt.frac_bits)
        rng = (
            np.random.default_rng(config.seed ^ i)
            if config.rounding == "SR"
            else None
        )
        weight, sat_w = quantize_array(lw.weight, fmt, config.rounding, rng)
        bias, sat_b = quantize_array(lw.bias, fmt, config.rounding, rng)
        layers.append(LayerWeights(weight, bias))
        saturated += sat_w + sat_b
    return WeightSet(layers, quant={
        "bits": config.bits,
        "rounding": config.rounding,
        "frac_bits": frac_bits,
        "saturated": saturated,
    })


def memory_of(spec: NetworkSpec, bits: int) -> int:
    """Model weight storage in bits: precision x weight count (no biases)."""
    return bits * spec.weight_count()


def grid_aligned(weights: WeightSet, config: QuantConfig) -> bool:
    """True if ptq quantized the weights at config.bits.

    The frac_bits come only from the quant record (rounding can shift a
    layer's max magnitude across a power of two, so recomputing the format
    from quantized values is not always faithful). A WeightSet checks its
    record, and that every parameter lies on the record's grid, when it is
    made, so only the width is compared here.
    """
    return weights.quant is not None and weights.quant["bits"] == config.bits
