"""Direct training of the spiking network with surrogate gradients.

The backward pass unrolls the full membrane recurrence over all timesteps
(no truncation) and over all layers, substituting a rectangular surrogate
for the spike derivative:

    d spike / dV  ~=  1 / (2a)   if |V - v_threshold| <= a, else 0

Two consistency modes exist. "hard" is normal training: the forward pass
emits binary spikes and the surrogate only appears in backward. "relaxed"
replaces the threshold with the surrogate's clipped-linear primitive in
forward as well, which makes forward and backward exactly consistent so
central finite differences can certify the backward implementation.

The loss is mean squared error between per-class firing rates and the
one-hot target. Each minibatch is simulated as one batch by
`network.simulate`, and its mean gradient comes from one reverse LIF scan
per layer, then one GEMM each for dW and dx (for a conv, one each per
im2col row block). `evaluate` simulates a split in chunks whose size
follows from a byte budget. Optimization is minibatch SGD with momentum
and a fixed seeded shuffle schedule, so results are bit-identical across
reruns.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .errors import ConfigError, EmptyDataset, ShapeMismatch
from .events import SpikeFrames
from .network import (
    ForwardResult,
    LayerSpec,
    LayerTrace,
    LayerWeights,
    LifParams,
    NetworkSpec,
    SpikeMode,
    WeightSet,
    _BATCH_BYTES,
    _conv_backward,
    _pool_backward,
    decode,
    init_weights,
    layer_shapes,
    simulate,
)
from .quantize import QuantConfig, grid_aligned


@dataclass(frozen=True)
class SurrogateParams:
    """Rectangular surrogate window of radius half_width around threshold."""

    half_width: float = 0.5

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 20
    learning_rate: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    timesteps: int = 10
    window: int = 50
    lr_decay_epoch: int = 120
    lr_decay_factor: float = 0.1
    checkpoint_every: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "timesteps", "window", "seed",
                     "lr_decay_epoch", "checkpoint_every"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("learning_rate", "momentum", "lr_decay_factor"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name, low in (("epochs", 0), ("seed", 0), ("batch_size", 1),
                          ("timesteps", 1), ("window", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """Build from a JSON training config.

        "epochs" and "seed" are required; other fields keep their defaults
        when absent, and keys that are not fields (e.g. "data") are ignored.
        A missing required key or an invalid value raises ConfigError.
        """
        optional = {f.name for f in fields(cls)} - {"epochs", "seed"}
        with ConfigError.guard("train config"):
            return cls(
                epochs=raw["epochs"],
                seed=raw["seed"],
                **{name: raw[name] for name in optional if name in raw},
            )


def surrogate_derivative(
    v: np.ndarray | float, v_threshold: float, params: SurrogateParams
) -> np.ndarray | float:
    """Spike pseudo-derivative: 1/(2a) inside the window, 0 outside."""
    a = params.half_width
    inside = np.abs(np.asarray(v, dtype=float) - v_threshold) <= a
    out = np.where(inside, 1.0 / (2.0 * a), 0.0)
    return float(out) if np.isscalar(v) else out


def loss(rates: np.ndarray, label: int) -> float:
    """Mean squared error between firing rates and the one-hot target."""
    rates = np.asarray(rates, dtype=float)
    onehot = np.zeros_like(rates)
    onehot[label] = 1.0
    return float(np.mean((rates - onehot) ** 2))


@dataclass
class GradientSet:
    """dL/dW and dL/db shaped like the WeightSet (None for pooling)."""

    layers: list[dict | None]

    @classmethod
    def zeros_like(cls, weights: WeightSet) -> "GradientSet":
        return cls(
            layers=[
                None
                if lw is None
                else {"weight": np.zeros_like(lw.weight), "bias": np.zeros_like(lw.bias)}
                for lw in weights.layers
            ]
        )


def _lif_backward(
    v: np.ndarray,
    spikes: np.ndarray,
    d_above: np.ndarray,
    pool: int,
    lif: LifParams,
    surrogate: SurrogateParams,
) -> None:
    """Reverse scan over axis 0: turns V (T, B, ...) into dL/dV in place.

    d_above is dL/ds from the layer above, (T, B, ...); with pool > 1 it is
    taken at the output of the k x k average pool between the two layers
    and spread back one timestep at a time. V_t and s_t reach V_{t+1}
    through the reset: zero reset gives dV_{t+1}/dV_t = leak*(1 - s_t) and
    dV_{t+1}/ds_t = -leak*V_t, subtract reset gives leak and
    -leak*v_threshold.

    dL/ds x surrogate is formed in reused buffers: the window mask, then
    d_s times the mask times 1/(2a), which equals d_s times
    `surrogate_derivative` bit for bit (signed zeros included).
    """
    zero_reset = lif.reset_mode == "zero"
    a = surrogate.half_width
    distance = np.empty(v.shape[1:])
    inside = np.empty(v.shape[1:], bool)
    for t in range(v.shape[0] - 1, -1, -1):
        d_s = d_above[t] if pool == 1 else _pool_backward(d_above[t], pool, v.shape[1:])
        v_t = v[t]
        if t + 1 < v.shape[0]:
            carry = v[t + 1]  # already dL/dV_{t+1}
            if zero_reset:
                d_s += carry * (-lif.leak * v_t)
            else:
                d_s += carry * (-lif.leak * lif.v_threshold)
            through_v = carry * lif.leak
            if zero_reset:
                through_v *= 1.0 - spikes[t]
        np.subtract(v_t, lif.v_threshold, out=distance)
        np.abs(distance, out=distance)
        np.less_equal(distance, a, out=inside)
        np.multiply(d_s, inside, out=v_t)  # V_t is not read again
        v_t *= 1.0 / (2.0 * a)
        if t + 1 < v.shape[0]:
            v_t += through_v


def _layer_backward(
    layer: LayerSpec,
    lw: LayerWeights,
    tr: LayerTrace,
    d_above: np.ndarray,
    pool: int,
    lif: LifParams,
    surrogate: SurrogateParams,
    *,
    input_grad: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(d_weight, d_bias, dL/d input) of one spiking layer from its trace.

    d_above is dL/ds in (T*B, ...) rows (see `_lif_backward` for pool).
    """
    T, B = tr.potentials.shape[:2]
    d_above = d_above.reshape((T, B) + d_above.shape[1:])
    _lif_backward(tr.potentials, tr.spikes, d_above, pool, lif, surrogate)
    x = tr.inputs.reshape((T * B,) + tr.inputs.shape[2:])
    g = tr.potentials.reshape((T * B,) + tr.potentials.shape[2:])
    if layer.kind == "conv":
        return _conv_backward(
            g, x, lw.weight, layer.padding, layer.stride, input_grad=input_grad
        )
    d_weight = g.T @ x.reshape(T * B, -1)
    d_bias = g.sum(axis=0)
    if not input_grad:
        return d_weight, d_bias, None
    d_x = (g @ lw.weight).reshape(x.shape)
    if d_x.ndim == 4:  # (C, H, W) order back to channels-last
        d_x = d_x.transpose(0, 2, 3, 1)
    return d_weight, d_bias, d_x


def _gradients(
    net: NetworkSpec,
    weights: WeightSet,
    result: ForwardResult,
    labels: list[int],
    surrogate: SurrogateParams,
) -> tuple[GradientSet, float]:
    """Mean (gradients, loss) over the B samples of a recorded `simulate`.

    Consumes the trace: each layer's potentials become dL/dV, and its entry
    is released once used so backward holds no more than forward did.
    """
    trace = result.trace
    counts = result.counts.reshape(len(labels), -1)
    B, K = counts.shape
    first = next(i for i, layer in enumerate(net.layers) if layer.spiking)
    T = trace[first].spikes.shape[0]
    rates = counts / T
    onehot = np.eye(K)[labels]
    loss_value = float(np.mean([loss(r, label) for r, label in zip(rates, labels)]))
    # dL/ds_out at every timestep (rates are a mean over T, the loss over B)
    d_s = np.tile(2.0 * (rates - onehot) / (K * T * B), (T, 1))

    grads = GradientSet(layers=[None] * len(net.layers))
    pool = 1  # consecutive floor-mode pools act as one pool of the product kernel
    for i in range(len(net.layers) - 1, first - 1, -1):
        layer = net.layers[i]
        if layer.kind == "avg_pool":
            pool *= layer.kernel
            continue
        d_w, d_b, d_s = _layer_backward(
            layer, weights.layers[i], trace[i], d_s, pool, net.lif, surrogate,
            input_grad=i > first,
        )
        trace[i] = None
        grads.layers[i] = {"weight": d_w, "bias": d_b}
        pool = 1
    return grads, loss_value


def backward(
    net: NetworkSpec,
    weights: WeightSet,
    frames: SpikeFrames,
    label: int,
    *,
    surrogate: SurrogateParams | None = None,
    spike_mode: SpikeMode = "hard",
) -> tuple[GradientSet, float]:
    """Backpropagate one sample through time and space: (gradients, loss)."""
    return batch_backward(
        net, weights, [(frames, label)], surrogate=surrogate, spike_mode=spike_mode
    )


def batch_backward(
    net: NetworkSpec,
    weights: WeightSet,
    batch: list[tuple[SpikeFrames, int]],
    *,
    surrogate: SurrogateParams | None = None,
    spike_mode: SpikeMode = "hard",
) -> tuple[GradientSet, float]:
    """Mean (gradients, loss) over a minibatch, simulated as one batch."""
    surrogate = surrogate or SurrogateParams()
    result = simulate(
        net,
        weights,
        [frames for frames, _ in batch],
        record=True,
        spike_mode=spike_mode,
        surrogate_half_width=surrogate.half_width,
    )
    return _gradients(net, weights, result, [label for _, label in batch], surrogate)


# ---------------------------------------------------------------------------
# Optimization loop
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    train_acc: float
    test_acc: float
    loss: float


def _sgd_step(
    weights: WeightSet,
    grads: GradientSet,
    velocity: GradientSet,
    lr: float,
    momentum: float,
) -> None:
    for lw, g, v in zip(weights.layers, grads.layers, velocity.layers):
        if lw is None:
            continue
        v["weight"] = momentum * v["weight"] - lr * g["weight"]
        v["bias"] = momentum * v["bias"] - lr * g["bias"]
        lw.weight = lw.weight + v["weight"]
        lw.bias = lw.bias + v["bias"]


def train(
    net: NetworkSpec,
    data: list[tuple[SpikeFrames, int]],
    config: TrainConfig,
    *,
    test_data: list[tuple[SpikeFrames, int]] | None = None,
    log_path: str | Path | None = None,
    checkpoint_dir: str | Path | None = None,
    workers: int = 1,
) -> tuple[WeightSet, list[EpochStats]]:
    """Minibatch SGD with momentum; deterministic for a fixed seed.

    Returns the trained weights and the per-epoch accuracy/loss log, also
    written as "epoch,train_acc,test_acc,loss" CSV when log_path is given.
    workers is accepted for compatibility and does not change anything:
    each minibatch runs as one batched simulation.
    """
    if not data:
        raise EmptyDataset("training split is empty")
    weights = init_weights(net, config.seed)
    if config.epochs == 0:
        return weights, []

    velocity = GradientSet.zeros_like(weights)
    rng = np.random.default_rng(config.seed)
    log: list[EpochStats] = []

    for epoch in range(config.epochs):
        lr = config.learning_rate
        if epoch >= config.lr_decay_epoch:
            lr *= config.lr_decay_factor
        order = rng.permutation(len(data))
        loss_sum = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch = [data[j] for j in order[start : start + config.batch_size]]
            grads, batch_loss = batch_backward(net, weights, batch)
            _sgd_step(weights, grads, velocity, lr, config.momentum)
            loss_sum += batch_loss
            n_batches += 1

        stats = EpochStats(
            epoch=epoch,
            train_acc=evaluate(net, weights, data),
            test_acc=evaluate(net, weights, test_data) if test_data else float("nan"),
            loss=loss_sum / n_batches,
        )
        log.append(stats)
        if (
            checkpoint_dir
            and config.checkpoint_every
            and (epoch + 1) % config.checkpoint_every == 0
        ):
            save_checkpoint(
                Path(checkpoint_dir) / f"epoch_{epoch:04d}.ckpt",
                net,
                weights,
                seed=config.seed,
            )

    if log_path is not None:
        write_training_log(log, log_path)
    return weights, log


def write_training_log(log: list[EpochStats], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(EpochStats))
        writer.writerows(map(astuple, log))


def evaluate(
    net: NetworkSpec,
    weights: WeightSet,
    data: list[tuple[SpikeFrames, int]],
    *,
    quant: QuantConfig | None = None,
) -> float:
    """Fraction of correctly decoded samples.

    The split runs through `simulate` in chunks of as many samples as keep
    T x the largest per-sample layer output (float64) under
    `network._BATCH_BYTES`, so memory stays flat as W and T grow. All
    samples must share one timestep count. When quant is given the
    weights must already be quantized (this only validates grid
    alignment; it never quantizes).

    Raises:
        ShapeMismatch: if the samples do not share one timestep count.
    """
    if not data:
        raise EmptyDataset("evaluation split is empty")
    if quant is not None and not grid_aligned(weights, quant):
        raise ValueError("weights are not aligned to the declared quantization grid")
    timesteps = {frames.timesteps for frames, _ in data}
    if len(timesteps) != 1:
        raise ShapeMismatch(
            f"an evaluation split needs one timestep count, got {sorted(timesteps)}"
        )
    T = timesteps.pop()
    largest = max(math.prod(shape) for shape in layer_shapes(net.layers, net.input_window))
    chunk = max(1, _BATCH_BYTES // (T * largest * 8))
    hits = 0
    for lo in range(0, len(data), chunk):
        part = data[lo : lo + chunk]
        counts = simulate(net, weights, [frames for frames, _ in part]).counts
        hits += sum(decode(c, T)[0] == label for c, (_, label) in zip(counts, part))
    return hits / len(data)
