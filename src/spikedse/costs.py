"""Analytic memory, operation-count, latency and energy models.

Latency and energy are model units, not wall-clock measurements: they back
the design-space exploration with deterministic, environment-independent
numbers. Per timestep the operation counts are

    conv      synaptic ops = out_ch * H_out * W_out * in_ch * k^2
    fc        synaptic ops = in * out
    avg_pool  synaptic ops = output elements * k^2 (accumulations)
    neuron ops = one LIF update per spiking-layer output element

and everything scales exactly linearly with the timestep count. The cost
functions on top are

    latency = latency_fixed + latency_per_op * synaptic_ops
    energy  = synaptic_ops * energy_per_synop_32b * (alpha + (1 - alpha) * B/32)
              + neuron_ops * energy_per_neuron_update

The shipped constants are calibration artifacts, fitted once so the
timestep-reduction speed-ups and the 10-bit/5-timestep energy improvement
land in their published target ranges (see data/cost_constants.json and
the README). alpha is the bit-independent energy fraction; it calibrates
high (0.99) because the reference measurements barely vary with the
simulated precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .network import NetworkSpec, layer_shapes
from .quantize import memory_of

BASELINE_TIMESTEPS = 20  # latency ratios normalize to the 20t setting


@dataclass(frozen=True)
class CostConstants:
    """Cost-model coefficients (model units per op / per sample).

    latency_fixed may be zero: the shipped calibration needs the latency
    ratio between timestep settings to equal the timestep ratio exactly.
    """

    latency_fixed: float = 0.0
    latency_per_op: float = 1e-9
    energy_per_synop_32b: float = 4.6e-12
    alpha: float = 0.99
    energy_per_neuron_update: float = 0.9e-12

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.latency_fixed < 0:
            raise ValueError("latency_fixed must be >= 0")
        for name in ("latency_per_op", "energy_per_synop_32b", "energy_per_neuron_update"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")

    @classmethod
    def from_json(cls, path: str | Path) -> "CostConstants":
        with ConfigError.guard(f"cost constants {path}"):
            return cls(**json.loads(Path(path).read_text()))


def default_constants() -> CostConstants:
    """The calibrated constants shipped with the package."""
    text = resources.files("spikedse").joinpath("data/cost_constants.json").read_text()
    return CostConstants(**json.loads(text))


@dataclass(frozen=True)
class PerLayerOps:
    index: int
    kind: str
    synaptic_ops: int
    neuron_ops: int


@dataclass(frozen=True)
class OpCount:
    synaptic_ops: int
    neuron_ops: int
    per_layer: tuple[PerLayerOps, ...] = ()

    @property
    def total(self) -> int:
        return self.synaptic_ops + self.neuron_ops


@dataclass(frozen=True)
class CostReport:
    """All cost metrics for one (B, T, W) setting, tagged Bb_Tt_Ww.

    latency_ratio is normalized to the 20-timestep full-precision baseline
    of the same window (the convention the reference latency figures use),
    so it is a property of the setting alone, not of any point set.
    """

    tag: str
    bits: int
    timesteps: int
    window: int
    memory_bits: int
    latency_units: float
    energy_units: float
    latency_ratio: float
    op_count: OpCount


def setting_tag(bits: int, timesteps: int, window: int) -> str:
    return f"{bits}b_{timesteps}t_{window}w"


def count_ops(spec: NetworkSpec, timesteps: int) -> OpCount:
    """Synaptic and neuron operation totals over T timesteps."""
    if timesteps < 1:
        raise ValueError("timesteps must be >= 1")
    per_layer = []
    shapes = layer_shapes(spec.layers, spec.input_window)
    for i, (layer, shape) in enumerate(zip(spec.layers, shapes)):
        outputs = math.prod(shape)
        if layer.spiking:  # fan-in synapses and one LIF update per output
            syn, neu = outputs * (layer.weight_count // layer.out_channels), outputs
        else:  # k^2 accumulations per pooled output
            syn, neu = outputs * layer.kernel**2, 0
        per_layer.append(
            PerLayerOps(i, layer.kind, syn * timesteps, neu * timesteps)
        )
    return OpCount(
        synaptic_ops=sum(p.synaptic_ops for p in per_layer),
        neuron_ops=sum(p.neuron_ops for p in per_layer),
        per_layer=tuple(per_layer),
    )


def reduction_factor(w0: float, w1: float, t0: float, t1: float) -> float:
    """Approximate compute reduction from shrinking window and timestep."""
    if min(w0, w1, t0, t1) <= 0:
        raise ValueError("window and timestep values must be positive")
    return (w0 / w1) ** 2 * (t0 / t1)


def latency_estimate(op_count: OpCount, constants: CostConstants) -> float:
    return constants.latency_fixed + constants.latency_per_op * op_count.synaptic_ops


def energy_estimate(op_count: OpCount, bits: int, constants: CostConstants) -> float:
    per_synop_scale = constants.alpha + (1.0 - constants.alpha) * bits / 32.0
    return (
        op_count.synaptic_ops * constants.energy_per_synop_32b * per_synop_scale
        + op_count.neuron_ops * constants.energy_per_neuron_update
    )


def full_report(
    spec: NetworkSpec,
    bits: int,
    timesteps: int,
    window: int,
    constants: CostConstants,
) -> CostReport:
    """Assemble memory, ops, latency and energy for one setting.

    Raises:
        ConfigError: if the constants give this setting, or its 20-timestep
            baseline, a latency or energy that is not finite.
    """
    if window != spec.input_window:
        raise ValueError(
            f"window {window} does not match the spec's {spec.input_window}"
        )
    tag = setting_tag(bits, timesteps, window)
    ops = count_ops(spec, timesteps)
    latency = latency_estimate(ops, constants)
    reference = latency_estimate(count_ops(spec, BASELINE_TIMESTEPS), constants)
    energy = energy_estimate(ops, bits, constants)
    if not all(map(math.isfinite, (latency, reference, energy))):
        raise ConfigError(f"cost constants give {tag} a latency or energy that is not finite")
    return CostReport(
        tag=tag,
        bits=bits,
        timesteps=timesteps,
        window=window,
        memory_bits=memory_of(spec, bits),
        latency_units=latency,
        energy_units=energy,
        latency_ratio=latency / reference,
        op_count=ops,
    )
