"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines. Criterion 6 trains the desk-scale network and dominates
the runtime (a few minutes on one core); everything else is fast.
"""

import numpy as np
import pytest

import spikedse as sd
from spikedse.costs import count_ops, default_constants, energy_estimate, latency_estimate
from spikedse.dse import (
    Constraints,
    DseGrid,
    load_accuracy_table,
    pareto_front,
    run_dse,
    select,
    _dominates,
)
from spikedse.events import SpikeFrames
from spikedse.network import LayerSpec, LifParams, NetworkSpec, forward
from spikedse.quantize import QuantConfig, choose_format, ptq, quantize_array
from spikedse.training import SurrogateParams, TrainConfig, backward, evaluate, train


def report(criterion: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} [{name}]: {status}{suffix}")
    assert passed, f"criterion {criterion} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def nets():
    return {100: sd.build_network(100), 50: sd.build_network(50)}


@pytest.fixture(scope="module")
def constants():
    return default_constants()


@pytest.fixture(scope="module")
def desk_training():
    """Synthetic 2-class gate: 200 train / 100 test, W=50, T=10, 30 epochs."""
    train_samples, test_samples = sd.make_synthetic_dataset(per_class=150, seed=11)
    assert len(train_samples) == 200 and len(test_samples) == 100
    train_data = sd.encode_dataset(train_samples, 50, 10)
    test_data = sd.encode_dataset(test_samples, 50, 10)
    net = sd.build_network(50)
    config = TrainConfig(
        epochs=30, batch_size=20, learning_rate=0.1, momentum=0.9,
        seed=123, timesteps=10, window=50,
    )
    weights, log = train(net, train_data, config, test_data=test_data)
    return net, weights, test_data, log


def test_criterion_1_memory_ratios(nets):
    """Seven published savings, each within 0.05 percentage points."""
    baseline = sd.memory_of(nets[100], 32)
    expected = {
        (16, 100): 50.00, (12, 100): 62.50, (10, 100): 68.75,
        (32, 50): 91.42, (16, 50): 95.71, (12, 50): 96.78, (10, 50): 97.32,
    }
    worst = 0.0
    for (bits, window), target in expected.items():
        saving = 100.0 * (1.0 - sd.memory_of(nets[window], bits) / baseline)
        worst = max(worst, abs(saving - target))
    report(1, "memory ratios", worst <= 0.05, f"max deviation {worst:.4f} pts")


def test_criterion_2_op_counts(nets):
    base = count_ops(nets[100], 20).total
    ok = True
    details = []
    for t, target in ((15, 25.0), (10, 50.0), (5, 75.0)):
        reduction = 100.0 * (1.0 - count_ops(nets[100], t).total / base)
        ok &= reduction == target
        details.append(f"{t}t_100w={reduction:.2f}")
    window_cut = 100.0 * (1.0 - count_ops(nets[50], 20).total / base)
    ok &= abs(window_cut - 80.0) <= 5.0
    details.append(f"20t_50w={window_cut:.2f}")
    for t, target in ((15, 85.0), (10, 90.0), (5, 95.0)):
        reduction = 100.0 * (1.0 - count_ops(nets[50], t).total / base)
        ok &= abs(reduction - target) <= 3.0
        details.append(f"{t}t_50w={reduction:.2f}")
    ok &= sd.reduction_factor(100, 50, 20, 5) == 16.0
    ok &= sd.reduction_factor(100, 100, 20, 10) == 2.0
    ok &= sd.reduction_factor(100, 50, 20, 20) == 4.0
    report(2, "op counts", ok, "; ".join(details))


def test_criterion_3_architecture_shapes(nets):
    fc100 = nets[100].layers[5]
    fc50 = nets[50].layers[5]
    ok = (
        fc100.in_channels == 1152
        and nets[100].flatten_size() == 1152
        and fc50.in_channels == 288
        and nets[50].flatten_size() == 288
    )
    report(3, "architecture shapes", ok, "FC1 in: 1152 (100w), 288 (50w)")


def test_criterion_4_quantizer_oracles():
    rng = np.random.default_rng(20240501)
    values = rng.uniform(-4.0, 4.0, size=1_000_000)
    fmt = choose_format(values, 10)
    in_range = (values >= fmt.min_value) & (values <= fmt.max_value)

    q_tr, _ = quantize_array(values, fmt, "TR")
    err_tr = values - q_tr
    tr_ok = bool(
        np.all(err_tr[in_range] >= 0.0)
        and np.all(err_tr[in_range] < fmt.step)
        and np.all(np.abs(err_tr) < fmt.step + 1e-15)
    )

    q_rn, _ = quantize_array(values, fmt, "RN")
    rn_ok = bool(np.all(np.abs(values - q_rn)[in_range] <= fmt.step / 2 + 1e-15))

    w = 0.3300781
    n = 100_000
    q_sr, _ = quantize_array(
        np.full(n, w), choose_format(np.array([w]), 8), "SR",
        np.random.default_rng(7),
    )
    sr_fmt = choose_format(np.array([w]), 8)
    frac = (w / sr_fmt.step) % 1.0
    sigma = sr_fmt.step * np.sqrt(frac * (1 - frac) / n)
    sr_ok = bool(abs(q_sr.mean() - w) <= 3 * sigma)

    net = sd.build_network(50)
    weights = sd.init_weights(net, seed=1)
    idem_ok = True
    for rounding in ("TR", "RN"):
        once = ptq(weights, QuantConfig(bits=10, rounding=rounding))
        twice = ptq(once, QuantConfig(bits=10, rounding=rounding))
        for a, b in zip(once.param_arrays(), twice.param_arrays()):
            idem_ok &= bool(np.array_equal(a, b))

    report(
        4, "quantizer oracles",
        tr_ok and rn_ok and sr_ok and idem_ok,
        f"TR={tr_ok} RN={rn_ok} SR={sr_ok} idempotent={idem_ok}",
    )


def test_criterion_5_gradient_check():
    """Relaxed-mode backward vs central differences, h=1e-4, tol 1e-3."""
    rng = np.random.default_rng(42)
    spec = NetworkSpec(
        layers=(
            LayerSpec("conv", 2, 2, kernel=3, padding=1, stride=1),
            LayerSpec("avg_pool", 2, 2, kernel=2, stride=2),
            LayerSpec("fully_connected", 2 * 3 * 3, 4),
            LayerSpec("fully_connected", 4, 2),
        ),
        input_window=6,
        lif=LifParams(v_threshold=0.4, leak=0.25),
    )
    frames = SpikeFrames(
        (rng.random((3, 2, 6, 6)) < 0.3).astype(np.uint8), 3, 6
    )
    weights = sd.init_weights(spec, seed=5)
    for lw in weights.layers:
        if lw is not None:
            lw.weight *= 2.0
            lw.bias += rng.normal(0, 0.05, lw.bias.shape)
    sur = SurrogateParams(half_width=0.5)
    label = 1
    grads, _, _ = backward(
        spec, weights, [(frames, label)], surrogate=sur, spike_mode="relaxed"
    )

    def relaxed_loss():
        result = forward(
            spec, weights, frames, spike_mode="relaxed",
            surrogate_half_width=sur.half_width,
        )
        return sd.loss(result.counts / frames.timesteps, label)

    h = 1e-4
    max_rel = 0.0
    for i, lw in enumerate(weights.layers):
        if lw is None:
            continue
        for name in ("weight", "bias"):
            flat = getattr(lw, name).reshape(-1)
            g = getattr(grads.layers[i], name).reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                lp = relaxed_loss()
                flat[j] = orig - h
                lm = relaxed_loss()
                flat[j] = orig
                numeric = (lp - lm) / (2 * h)
                denom = max(abs(numeric), abs(g[j]))
                if denom < 1e-10:
                    continue
                max_rel = max(max_rel, abs(numeric - g[j]) / denom)
    report(5, "gradient check", max_rel < 1e-3, f"max rel err {max_rel:.2e}")


def test_criterion_6_desk_scale_training_gate(desk_training):
    net, weights, test_data, log = desk_training
    base_acc = evaluate(net, weights, test_data)

    q10 = ptq(weights, QuantConfig(bits=10))
    acc10 = evaluate(net, q10, test_data)

    q4 = ptq(weights, QuantConfig(bits=4))
    acc4 = evaluate(net, q4, test_data)

    gate = base_acc >= 0.90
    drop10 = (base_acc - acc10) <= 0.02
    collapse4 = acc4 < 0.60
    report(
        6, "desk-scale training gate",
        gate and drop10 and collapse4,
        f"fp32={base_acc:.3f} 10b={acc10:.3f} 4b={acc4:.3f}",
    )


def test_criterion_7_dse_constraint_reproduction(constants):
    points = run_dse(
        None, None, DseGrid(), constants, accuracy_table=load_accuracy_table()
    )
    first = select(
        points, Constraints(max_memory_bits=8_000_000, max_latency_ratio=0.25)
    )
    second = select(
        points, Constraints(max_memory_bits=1_000_000, max_latency_ratio=0.25)
    )

    front = pareto_front(points)
    brute = [
        p for p in points
        if not any(_dominates(q, p) for q in points if q is not p)
    ]
    pareto_ok = {p.tag for p in front} == {p.tag for p in brute}

    rng = np.random.default_rng(5)
    for _ in range(5):
        subset = [points[i] for i in rng.permutation(32)[:12]]
        sub_front = pareto_front(subset)
        sub_brute = [
            p for p in subset
            if not any(_dominates(q, p) for q in subset if q is not p)
        ]
        pareto_ok &= {p.tag for p in sub_front} == {p.tag for p in sub_brute}

    ok = first.tag == "10b_5t_100w" and second.tag == "10b_5t_50w" and pareto_ok
    report(
        7, "dse constraint reproduction", ok,
        f"8Mb/0.25x -> {first.tag}; 1Mb/0.25x -> {second.tag}; pareto={pareto_ok}",
    )


def test_criterion_8_calibrated_cost_models(nets, constants):
    base_latency = latency_estimate(count_ops(nets[100], 20), constants)
    fast_latency = latency_estimate(count_ops(nets[100], 5), constants)
    speedup = base_latency / fast_latency

    base_energy = energy_estimate(count_ops(nets[100], 20), 32, constants)
    opt_energy = energy_estimate(count_ops(nets[100], 5), 10, constants)
    improvement = base_energy / opt_energy

    ok = 3.5 <= speedup <= 4.0 and 3.8 <= improvement <= 4.3
    report(
        8, "calibrated cost models", ok,
        f"20t->5t speed-up {speedup:.3f}; 10b_5t energy improvement {improvement:.3f}",
    )


def test_criterion_9_determinism(tmp_path):
    train_samples, _ = sd.make_synthetic_dataset(per_class=10, seed=5)
    data = sd.encode_dataset(train_samples, 50, 5)
    net = sd.build_network(50)
    config = TrainConfig(epochs=1, batch_size=5, seed=17, timesteps=5, window=50)

    blobs = []
    logs = []
    for run, workers in ((0, 1), (1, 1), (2, 4)):
        weights, log = train(net, data, config, workers=workers)
        path = tmp_path / f"run{run}.ckpt"
        sd.save_checkpoint(path, net, weights, seed=config.seed)
        blobs.append(path.read_bytes())
        log_path = tmp_path / f"log{run}.csv"
        from spikedse.training import write_training_log

        write_training_log(log, log_path)
        logs.append(log_path.read_bytes())

    table = load_accuracy_table()
    csvs = []
    for run in range(2):
        points = run_dse(None, None, DseGrid(), default_constants(),
                         accuracy_table=table)
        out = tmp_path / f"dse{run}"
        results, pareto = sd.emit_report(points, out)
        csvs.append(results.read_bytes() + pareto.read_bytes())

    ok = (
        blobs[0] == blobs[1] == blobs[2]
        and logs[0] == logs[1] == logs[2]
        and csvs[0] == csvs[1]
    )
    report(9, "determinism", ok, "checkpoints, logs, DSE CSVs byte-identical")
