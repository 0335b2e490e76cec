"""Surrogate gradients, BPTT correctness, and the optimization loop."""

import numpy as np
import pytest

import spikedse as sd
from spikedse import network, training
from spikedse.errors import ConfigError, EmptyDataset, ShapeMismatch
from spikedse.events import SpikeFrames
from spikedse.network import (
    LayerSpec,
    LifParams,
    NetworkSpec,
    forward,
)
from spikedse.training import (
    SurrogateParams,
    TrainConfig,
    _sgd_step,
    backward,
    evaluate,
    loss,
    surrogate_derivative,
    train,
)


def toy_spec():
    """Small 3-layer net (conv, fc, fc plus one pool) for gradient checks."""
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


def toy_frames(rng, timesteps=3, window=6, density=0.3):
    data = (rng.random((timesteps, 2, window, window)) < density).astype(np.uint8)
    return SpikeFrames(data=data, timesteps=timesteps, window=window)


def relaxed_loss(spec, weights, frames, label, half_width):
    result = forward(
        spec, weights, frames, spike_mode="relaxed", surrogate_half_width=half_width
    )
    return loss(result.counts / frames.timesteps, label)


def finite_difference_error(spec, weights, frames, label, h=1e-4):
    """Largest relative gap between relaxed-mode backward and central
    differences over every weight and bias."""
    sur = SurrogateParams(half_width=0.5)
    grads, _, _ = backward(
        spec, weights, [(frames, label)], surrogate=sur, spike_mode="relaxed"
    )
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
                lp = relaxed_loss(spec, weights, frames, label, sur.half_width)
                flat[j] = orig - h
                lm = relaxed_loss(spec, weights, frames, label, sur.half_width)
                flat[j] = orig
                numeric = (lp - lm) / (2 * h)
                denom = max(abs(numeric), abs(g[j]))
                if denom < 1e-10:
                    continue
                max_rel = max(max_rel, abs(numeric - g[j]) / denom)
    return max_rel


class TestSurrogate:
    def test_center_of_window(self):
        params = SurrogateParams(half_width=0.5)
        assert surrogate_derivative(0.4, 0.4, params) == 1.0

    def test_outside_window(self):
        params = SurrogateParams(half_width=0.5)
        assert surrogate_derivative(0.4 + 1.0, 0.4, params) == 0.0

    def test_window_edges_inclusive(self):
        params = SurrogateParams(half_width=0.5)
        assert surrogate_derivative(0.9, 0.4, params) == 1.0

    @pytest.mark.parametrize("half_width", [0.0, -0.5])
    def test_non_positive_half_width_is_refused(self, half_width):
        with pytest.raises(ValueError, match="half_width must be positive"):
            SurrogateParams(half_width=half_width)

    def test_riemann_integral_is_one(self):
        params = SurrogateParams(half_width=0.5)
        v = np.arange(-2.0, 3.0, 1e-3)
        integral = surrogate_derivative(v, 0.4, params).sum() * 1e-3
        assert integral == pytest.approx(1.0, abs=1e-2)

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
    def test_integral_for_other_widths(self, a):
        params = SurrogateParams(half_width=a)
        v = np.arange(-3 * a, 3 * a + 1.0, 1e-3)
        integral = surrogate_derivative(v, 0.0, params).sum() * 1e-3
        assert integral == pytest.approx(1.0, abs=1e-2)


class TestLoss:
    def test_exact_onehot_is_zero(self):
        assert loss(np.array([0.0, 1.0]), 1) == 0.0

    def test_all_zero_rates(self):
        assert loss(np.array([0.0, 0.0]), 0) == pytest.approx(0.5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rates = rng.random(2)
            label = int(rng.integers(0, 2))
            onehot = np.eye(2)[label]
            expected = ((rates - onehot) ** 2).sum() / 2
            assert loss(rates, label) == pytest.approx(expected)

    def test_non_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            assert loss(rng.random(3), int(rng.integers(0, 3))) >= 0.0


class TestBackward:
    def test_zero_frames_zero_weight_gradients(self):
        spec = toy_spec()
        weights = sd.init_weights(spec, seed=0)
        frames = SpikeFrames(np.zeros((2, 2, 6, 6), np.uint8), 2, 6)
        grads, _, _ = backward(spec, weights, [(frames, 0)])
        for i, layer in enumerate(spec.layers):
            if layer.spiking:
                assert np.all(grads.layers[i].weight == 0)
        # biases can still receive gradient through the surrogate window
        assert any(
            np.any(grads.layers[i].bias != 0)
            for i, l in enumerate(spec.layers)
            if l.spiking
        )

    def test_two_neuron_analytic_chain_rule(self):
        # T=1 single fc layer: dL/dW_ij = (s_i - y_i) * g'(V_i) * x_j
        spec = NetworkSpec(
            layers=(LayerSpec("fully_connected", 2, 2),),
            input_window=1,
            lif=LifParams(v_threshold=0.4, leak=0.25),
        )
        weights = sd.init_weights(spec, seed=4)
        weights.layers[0].weight = np.array([[0.3, 0.1], [0.6, 0.2]])
        weights.layers[0].bias = np.array([0.05, -0.02])
        frames = SpikeFrames(
            np.array([[[[1]], [[1]]]], dtype=np.uint8), 1, 1
        )
        label = 1
        sur = SurrogateParams(half_width=0.5)
        grads, _, _ = backward(spec, weights, [(frames, label)], surrogate=sur)

        x = np.array([1.0, 1.0])
        v = weights.layers[0].weight @ x + weights.layers[0].bias
        s = (v >= 0.4).astype(float)
        y = np.array([0.0, 1.0])
        d_s = 2 * (s - y) / 2  # mean over 2 classes, T=1
        d_v = d_s * surrogate_derivative(v, 0.4, sur)
        expected_w = np.outer(d_v, x)
        assert np.allclose(grads.layers[0].weight, expected_w)
        assert np.allclose(grads.layers[0].bias, d_v)

    def test_relaxed_mode_matches_finite_differences(self):
        # acceptance-level check, kept small here; h = 1e-4, tol 1e-3
        rng = np.random.default_rng(42)
        spec = toy_spec()
        frames = toy_frames(rng)
        weights = sd.init_weights(spec, seed=5)
        for lw in weights.layers:
            if lw is not None:
                lw.weight *= 2.0
                lw.bias += rng.normal(0, 0.05, lw.bias.shape)
        assert finite_difference_error(spec, weights, frames, label=1) < 1e-3

    def test_subtract_reset_matches_finite_differences(self):
        # subtract reset: dV_{t+1}/dV_t = leak, dV_{t+1}/ds_t = -leak*v_threshold
        spec = NetworkSpec(
            layers=(
                LayerSpec("fully_connected", 18, 4),
                LayerSpec("fully_connected", 4, 2),
            ),
            input_window=3,
            lif=LifParams(v_threshold=0.4, leak=0.5, reset_mode="subtract"),
        )
        rng = np.random.default_rng(0)
        frames = SpikeFrames((rng.random((4, 2, 3, 3)) < 0.5).astype(np.uint8), 4, 3)
        weights = sd.init_weights(spec, seed=0)
        for lw in weights.layers:
            lw.weight *= 2.0
            lw.bias += 0.1
        recorded = forward(spec, weights, frames, record=True, spike_mode="relaxed")
        output_spikes = recorded.trace[1].spikes[:, 0]
        assert np.all(output_spikes[1:].sum(axis=1) > 0.5)  # fires after t=0
        assert finite_difference_error(spec, weights, frames, label=1) < 1e-3

    def test_strided_conv_and_stacked_pools_match_finite_differences(self):
        # stride-2 conv with an input gradient, a pool that drops a row and
        # a column, and two pools in a row
        spec = NetworkSpec(
            layers=(
                LayerSpec("conv", 2, 3, kernel=3, padding=1, stride=1),
                LayerSpec("conv", 3, 3, kernel=3, padding=1, stride=2),
                LayerSpec("avg_pool", 3, 3, kernel=2, stride=2),
                LayerSpec("avg_pool", 3, 3, kernel=2, stride=2),
                LayerSpec("fully_connected", 3, 2),
            ),
            input_window=10,
            lif=LifParams(v_threshold=0.4, leak=0.25),
        )
        rng = np.random.default_rng(0)
        frames = SpikeFrames((rng.random((3, 2, 10, 10)) < 0.3).astype(np.uint8), 3, 10)
        weights = sd.init_weights(spec, seed=0)
        for lw in weights.layers:
            if lw is not None:
                lw.weight *= 2.0
                lw.bias += 0.1
        assert finite_difference_error(spec, weights, frames, label=1) < 1e-3

    def test_gathered_conv_weight_gradient_matches_finite_differences(self, monkeypatch):
        # conv2 reads 16 channels of which conv1's negative bias keeps most
        # pixels silent: its d_weight comes from the per-tap gather-GEMMs
        spec = NetworkSpec(
            layers=(
                LayerSpec("conv", 2, 16, kernel=3, padding=1, stride=1),
                LayerSpec("avg_pool", 16, 16, kernel=2, stride=2),
                LayerSpec("conv", 16, 4, kernel=3, padding=1, stride=1),
                LayerSpec("avg_pool", 4, 4, kernel=2, stride=2),
                LayerSpec("fully_connected", 4 * 2 * 2, 4),
                LayerSpec("fully_connected", 4, 2),
            ),
            input_window=8,
            lif=LifParams(v_threshold=0.4, leak=0.25),
        )
        rng = np.random.default_rng(3)
        data = np.zeros((8, 2, 8, 8), np.uint8)
        data[[0, 4]] = rng.random((2, 2, 8, 8)) < 0.04  # events at t=0 and t=4 only
        frames = SpikeFrames(data, 8, 8)
        weights = sd.init_weights(spec, seed=3)
        for lw in weights.layers:
            if lw is not None:
                lw.weight *= 3.0
                lw.bias += rng.normal(0, 0.05, lw.bias.shape)
        weights.layers[0].bias -= 0.6
        gathered = []
        kernel = network._weight_grad_events
        monkeypatch.setattr(network, "_weight_grad_events",
                            lambda grad, x, *args: gathered.append(x.shape[3])
                            or kernel(grad, x, *args))
        assert finite_difference_error(spec, weights, frames, label=1) < 1e-3
        assert gathered == [16, 2]  # conv2, and conv1 on its sparse frames
        grads, _, _ = backward(spec, weights, [(frames, 1)], spike_mode="relaxed")
        assert all(np.count_nonzero(grads.layers[i].weight) for i in (0, 2, 4, 5))

    def test_scan_product_is_d_s_times_surrogate_bit_for_bit(self):
        # T=1: no carry, so the scan leaves exactly d_s * surrogate(V)
        rng = np.random.default_rng(8)
        sur = SurrogateParams(half_width=0.25)
        lif = LifParams(v_threshold=0.5)
        v = rng.normal(0.5, 0.6, (1, 6, 5, 5, 4))
        v.flat[2:5] = [0.75, 0.25, 0.5]  # both window edges (inside) and threshold
        d_s = rng.normal(0, 1, v.shape)
        d_s.flat[::7] = -0.0  # signed zeros inside and outside the window
        d_s.flat[1::7] = 0.0
        expected = d_s * surrogate_derivative(v, 0.5, sur)
        assert np.signbit(expected).any() and (expected == 0).any()
        training._lif_backward(v, v >= 0.5, d_s.copy(), 1, lif, sur)
        assert v.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("reset_mode", ["zero", "subtract"])
    @pytest.mark.parametrize("pool", [1, 2])
    def test_scan_matches_surrogate_loop_bit_for_bit(self, reset_mode, pool):
        lif = LifParams(v_threshold=0.4, leak=0.25, reset_mode=reset_mode)
        sur = SurrogateParams()
        rng = np.random.default_rng(9)
        v = rng.normal(0.3, 0.5, (4, 3, 6, 6, 5))
        spikes = v >= lif.v_threshold
        d_above = rng.normal(0, 1, (4, 3, 6 // pool, 6 // pool, 5))
        expected = v.copy()
        for t in range(v.shape[0] - 1, -1, -1):
            d_s = d_above[t] if pool == 1 else training._pool_backward(
                d_above[t], pool, v.shape[1:]
            )
            d_s = d_s.copy()
            if t + 1 < v.shape[0]:
                carry = expected[t + 1]
                if reset_mode == "zero":
                    d_s += carry * (-lif.leak * expected[t])
                else:
                    d_s += carry * (-lif.leak * lif.v_threshold)
                through_v = carry * lif.leak
                if reset_mode == "zero":
                    through_v *= 1.0 - spikes[t]
            d_v = d_s * surrogate_derivative(expected[t], lif.v_threshold, sur)
            if t + 1 < v.shape[0]:
                d_v += through_v
            expected[t] = d_v
        training._lif_backward(v, spikes, d_above, pool, lif, sur)
        assert v.tobytes() == expected.tobytes()

    def test_batch_gradient_is_mean_of_sample_gradients(self, small_data):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=3)
        for lw in weights.layers:
            if lw is not None:  # spiking activity in every layer
                lw.weight *= 3.0
                lw.bias += 0.15
        batch = small_data[0][:20]
        assert len(batch) == 20
        grads, batch_loss, _ = backward(net, weights, batch)
        singles = [backward(net, weights, [sample]) for sample in batch]
        assert batch_loss == pytest.approx(np.mean([l for _, l, _ in singles]), rel=1e-12)
        for i, g in enumerate(grads.layers):
            if g is None:
                continue
            for name in ("weight", "bias"):
                mean = np.mean([getattr(s.layers[i], name) for s, _, _ in singles],
                               axis=0)
                scale = np.abs(mean).max()
                assert scale > 0
                # rtol 1e-12 of the layer's largest entry: summation order differs
                np.testing.assert_allclose(
                    getattr(g, name), mean, rtol=1e-12, atol=1e-12 * scale
                )


@pytest.fixture(scope="module")
def small_data():
    train_s, test_s = sd.make_synthetic_dataset(
        per_class=15, seed=31, sensor_width=64, sensor_height=64
    )
    return (
        sd.encode_dataset(train_s, 50, 5),
        sd.encode_dataset(test_s, 50, 5),
    )


class TestTrain:
    def test_zero_epochs_returns_initial(self, small_data, tmp_path):
        net = sd.build_network(50)
        config = TrainConfig(epochs=0, seed=3, timesteps=5, window=50)
        weights, log = train(net, small_data[0], config, log_path=tmp_path / "log.csv")
        reference = sd.init_weights(net, seed=3)
        assert log == []
        assert (tmp_path / "log.csv").read_text() == "epoch,train_acc,test_acc,loss\n"
        for a, b in zip(weights.param_arrays(), reference.param_arrays()):
            assert np.array_equal(a, b)

    def test_fixed_seed_reproducible(self, small_data):
        net = sd.build_network(50)
        config = TrainConfig(epochs=2, batch_size=10, seed=7, timesteps=5, window=50)
        w1, log1 = train(net, small_data[0], config, test_data=small_data[1])
        w2, log2 = train(net, small_data[0], config, test_data=small_data[1])
        assert log1 == log2
        for a, b in zip(w1.param_arrays(), w2.param_arrays()):
            assert np.array_equal(a, b)

    def test_worker_count_does_not_change_results(self, small_data):
        net = sd.build_network(50)
        config = TrainConfig(epochs=1, batch_size=10, seed=7, timesteps=5, window=50)
        w1, _ = train(net, small_data[0], config, workers=1)
        w2, _ = train(net, small_data[0], config, workers=3)
        for a, b in zip(w1.param_arrays(), w2.param_arrays()):
            assert np.array_equal(a, b)

    def test_empty_dataset(self):
        net = sd.build_network(50)
        with pytest.raises(EmptyDataset):
            train(net, [], TrainConfig(epochs=1))

    def test_zero_learning_rate_is_identity(self, small_data):
        net = sd.build_network(50)
        config = TrainConfig(
            epochs=1, batch_size=10, learning_rate=0.0, seed=5, timesteps=5, window=50
        )
        weights, _ = train(net, small_data[0], config)
        reference = sd.init_weights(net, seed=5)
        for a, b in zip(weights.param_arrays(), reference.param_arrays()):
            assert np.array_equal(a, b)

    def test_overfit_single_sample_loss_non_increasing(self, small_data):
        net = sd.build_network(50)
        frames, label = small_data[0][0]
        weights = sd.init_weights(net, seed=3)
        velocity = weights.zeros_like()
        losses = []
        for _ in range(50):
            grads, value, _ = backward(net, weights, [(frames, label)])
            losses.append(value)
            _sgd_step(weights, grads, velocity, lr=0.05, momentum=0.0)
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-6

    def test_sgd_step_in_place_matches_out_of_place_formula(self):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=2)
        velocity = weights.zeros_like()
        arrays = [id(a) for a in weights.param_arrays() + velocity.param_arrays()]
        ref_w = [a.copy() for a in weights.param_arrays()]
        ref_v = [a.copy() for a in velocity.param_arrays()]
        rng = np.random.default_rng(9)
        for lr, momentum in ((0.1, 0.9), (0.1, 0.9), (0.01, 0.9), (0.3, 0.0), (0.1, 0.5)):
            grads = network.WeightSet([
                None if lw is None else network.LayerWeights(
                    rng.normal(size=lw.weight.shape), rng.normal(size=lw.bias.shape))
                for lw in weights.layers
            ])
            _sgd_step(weights, grads, velocity, lr, momentum)
            for k, g in enumerate(grads.param_arrays()):
                ref_v[k] = momentum * ref_v[k] - lr * g
                ref_w[k] = ref_w[k] + ref_v[k]
            for got, want in zip(weights.param_arrays() + velocity.param_arrays(),
                                 ref_w + ref_v):
                assert got.tobytes() == want.tobytes()  # bit for bit
        # updated in place: no array was replaced
        assert [id(a) for a in weights.param_arrays() + velocity.param_arrays()] == arrays

    def test_one_backward_per_minibatch(self, small_data, monkeypatch):
        net = sd.build_network(50)
        config = TrainConfig(epochs=2, batch_size=8, seed=4, timesteps=5, window=50)
        reference = sd.init_weights(net, seed=4)
        real, calls = training.backward, []

        def spy(net, weights, batch, **kwargs):
            result = real(net, weights, batch, **kwargs)
            calls.append((len(batch), result))
            return result

        monkeypatch.setattr(training, "backward", spy)
        train(net, small_data[0], config)
        n = len(small_data[0])
        sizes = [min(config.batch_size, n - lo) for lo in range(0, n, config.batch_size)]
        assert len(sizes) == -(-n // config.batch_size)
        assert [size for size, _ in calls] == sizes * config.epochs
        for size, (grads, _, counts) in calls:
            assert isinstance(grads, sd.WeightSet)
            assert counts.shape == (size, net.layers[-1].out_channels)
            for layer, g, lw in zip(net.layers, grads.layers, reference.layers):
                assert (g is None) == (layer.kind == "avg_pool")
                if g is not None:
                    assert g.weight.shape == lw.weight.shape
                    assert g.bias.shape == lw.bias.shape

    def test_periodic_checkpoints(self, small_data, tmp_path):
        net = sd.build_network(50)
        config = TrainConfig(
            epochs=4, batch_size=10, seed=2, timesteps=5, window=50,
            checkpoint_every=2,
        )
        train(net, small_data[0], config, checkpoint_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.glob("epoch_*.ckpt"))
        assert names == ["epoch_0001.ckpt", "epoch_0003.ckpt"]

    def test_log_csv_format(self, small_data, tmp_path):
        net = sd.build_network(50)
        config = TrainConfig(epochs=1, batch_size=10, seed=1, timesteps=5, window=50)
        _, log = train(
            net,
            small_data[0],
            config,
            test_data=small_data[1],
            log_path=tmp_path / "log.csv",
        )
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_acc,test_acc,loss"
        assert len(lines) == 1 + len(log)


def reference_train(net, data, config, test_data, checkpoint_dir):
    """The loop before train_acc came from the minibatch forwards.

    Returns its weights and log (train_acc from one `evaluate` over the
    training split after every epoch), writing a checkpoint every epoch,
    plus each epoch's running minibatch accuracy: `evaluate` of every
    minibatch with the weights before its step, weighted by batch size.
    """
    weights = sd.init_weights(net, config.seed)
    velocity = weights.zeros_like()
    rng = np.random.default_rng(config.seed)
    log, running = [], []
    for epoch in range(config.epochs):
        lr = config.learning_rate
        if epoch >= config.lr_decay_epoch:
            lr *= config.lr_decay_factor
        order = rng.permutation(len(data))
        loss_sum, n_batches, correct = 0.0, 0, 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [data[j] for j in order[start : start + config.batch_size]]
            correct += evaluate(net, weights, batch) * len(batch)
            grads, batch_loss, _ = backward(net, weights, batch)
            _sgd_step(weights, grads, velocity, lr, config.momentum)
            loss_sum += batch_loss
            n_batches += 1
        log.append(training.EpochStats(
            epoch=epoch,
            train_acc=evaluate(net, weights, data),
            test_acc=evaluate(net, weights, test_data),
            loss=loss_sum / n_batches,
        ))
        running.append(correct / len(data))
        sd.save_checkpoint(
            checkpoint_dir / f"epoch_{epoch:04d}.ckpt", net, weights, seed=config.seed
        )
    return weights, log, running


class TestTrainAccuracyFromMinibatches:
    """train_acc is counted from the recorded minibatch forwards; everything
    else matches the loop that re-evaluated the training split."""

    # 20 training samples in batches of 8, 8 and a partial 4
    CONFIG = TrainConfig(
        epochs=3, batch_size=8, seed=11, timesteps=5, window=50, checkpoint_every=1
    )

    @pytest.fixture(scope="class")
    def runs(self, small_data, tmp_path_factory):
        train_data, test_data = small_data
        assert len(train_data) % self.CONFIG.batch_size == 4
        net = sd.build_network(50)
        new_dir = tmp_path_factory.mktemp("new")
        old_dir = tmp_path_factory.mktemp("old")
        new = train(net, train_data, self.CONFIG, test_data=test_data,
                    checkpoint_dir=new_dir)
        old = reference_train(net, train_data, self.CONFIG, test_data, old_dir)
        return new, old, new_dir, old_dir

    def test_weights_checkpoints_test_acc_and_loss_are_identical(self, runs):
        (weights, log), (ref_weights, ref_log, _), new_dir, old_dir = runs
        for a, b in zip(weights.param_arrays(), ref_weights.param_arrays(), strict=True):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        assert [(s.epoch, s.test_acc, s.loss) for s in log] == [
            (s.epoch, s.test_acc, s.loss) for s in ref_log
        ]
        names = sorted(p.name for p in old_dir.iterdir())
        assert names == [f"epoch_{e:04d}.ckpt" for e in range(self.CONFIG.epochs)]
        assert sorted(p.name for p in new_dir.iterdir()) == names
        for name in names:
            assert (new_dir / name).read_bytes() == (old_dir / name).read_bytes()

    def test_train_acc_is_running_minibatch_accuracy(self, runs):
        (_, log), (_, ref_log, running), _, _ = runs
        assert len(log) == len(running) == self.CONFIG.epochs
        for stats, expected in zip(log, running):
            assert stats.train_acc == pytest.approx(expected, abs=1e-12)
        # the two meanings of train_acc differ on this run
        assert running != [s.train_acc for s in ref_log]

    @pytest.mark.parametrize("with_test_data", [True, False])
    def test_evaluate_runs_only_on_the_test_split(self, small_data, monkeypatch,
                                                  with_test_data):
        train_data, test_data = small_data
        seen = []
        real = training.evaluate

        def spy(net, weights, data, **kwargs):
            seen.append(data)
            return real(net, weights, data, **kwargs)

        monkeypatch.setattr(training, "evaluate", spy)
        config = TrainConfig(epochs=2, batch_size=8, seed=4, timesteps=5, window=50)
        _, log = train(sd.build_network(50), train_data, config,
                       test_data=test_data if with_test_data else None)
        assert len(log) == 2
        if with_test_data:
            assert len(seen) == 2
            assert all(data is test_data for data in seen)
        else:
            assert seen == []
            assert all(np.isnan(s.test_acc) for s in log)


class TestTrainConfig:
    def test_from_dict_reads_every_field(self):
        raw = {
            "epochs": 3, "seed": 9, "batch_size": 4, "learning_rate": 0.05,
            "momentum": 0.5, "timesteps": 5, "window": 100, "lr_decay_epoch": 2,
            "lr_decay_factor": 0.5, "checkpoint_every": 1,
        }
        assert TrainConfig.from_dict(raw) == TrainConfig(**raw)

    def test_from_dict_defaults_and_ignores_other_keys(self):
        raw = {"epochs": 1, "seed": 2, "data": {}, "strict": True}
        config = TrainConfig.from_dict(raw)
        assert config == TrainConfig(epochs=1, seed=2)

    @pytest.mark.parametrize("name", ["checkpoint_every", "lr_decay_epoch"])
    def test_negative_epoch_counts_are_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            TrainConfig(epochs=1, **{name: -2})
        with pytest.raises(ConfigError, match=f"{name} must be >= 0"):
            TrainConfig.from_dict({"epochs": 1, "seed": 0, name: -5})
        assert getattr(TrainConfig(epochs=1, **{name: 0}), name) == 0


class TestEvaluate:
    def test_empty_split(self):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=0)
        with pytest.raises(EmptyDataset):
            evaluate(net, weights, [])

    def test_all_zero_weights_predict_class_zero(self, small_data):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=0)
        for lw in weights.layers:
            if lw is not None:
                lw.weight[:] = 0.0
                lw.bias[:] = 0.0
        accuracy = evaluate(net, weights, small_data[1])
        class0 = sum(1 for _, label in small_data[1] if label == 0)
        assert accuracy == pytest.approx(class0 / len(small_data[1]))

    def test_quantized_copy_at_32_bits_matches(self, small_data):
        net = sd.build_network(50)
        config = TrainConfig(epochs=1, batch_size=10, seed=2, timesteps=5, window=50)
        weights, _ = train(net, small_data[0], config)
        qcfg = sd.QuantConfig(bits=32)
        quantized = sd.ptq(weights, qcfg)
        a = evaluate(net, weights, small_data[1])
        b = evaluate(net, quantized, small_data[1], quant=qcfg)
        assert a == b

    def test_declared_quant_requires_aligned_weights(self, small_data):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=2)  # raw, not on any 4-bit grid
        with pytest.raises(ValueError):
            evaluate(net, weights, small_data[1], quant=sd.QuantConfig(bits=4))

    @staticmethod
    def spy_on_simulate(monkeypatch):
        """Record the frames and counts of every `simulate` call evaluate makes."""
        calls = []
        real = training.simulate

        def spy(net, weights, frames, **kwargs):
            result = real(net, weights, frames, **kwargs)
            calls.append((len(frames), result.counts))
            return result

        monkeypatch.setattr(training, "simulate", spy)
        return calls

    def test_chunks_decode_like_single_forward_passes(self, small_data, monkeypatch):
        data = small_data[1]  # 10 samples at W=50, T=5
        assert len(data) == 10
        net = sd.build_network(50)
        qcfg = sd.QuantConfig(bits=10)
        weights = sd.init_weights(net, seed=6)
        for lw in weights.layers:
            if lw is not None:
                lw.weight *= 3.0
                lw.bias += 0.15
        weights = sd.ptq(weights, qcfg)
        # 4 samples' worth of budget: chunks of 4, 4 and a partial 2
        per_sample = 5 * 32 * 12 * 12 * 8
        monkeypatch.setattr(training, "_BATCH_BYTES", 4 * per_sample + 100)
        calls = self.spy_on_simulate(monkeypatch)
        accuracy = evaluate(net, weights, data, quant=qcfg)
        assert [n for n, _ in calls] == [4, 4, 2]

        single = np.array([forward(net, weights, frames).counts for frames, _ in data])
        assert single.sum() > 0
        assert np.array_equal(np.concatenate([c for _, c in calls]), single)
        hits = [sd.decode(c, 5)[0] == label for c, (_, label) in zip(single, data)]
        assert accuracy == np.mean(hits)

    @pytest.mark.parametrize("n,budget,sizes", [
        (24, 22, [12, 12]), (10, 4, [4, 4, 2]), (10, 10, [10]), (7, 3, [3, 3, 1]),
        (22, 22, [22]), (23, 22, [12, 11]),
    ])
    def test_fewest_chunks_of_equal_size(self, monkeypatch, n, budget, sizes):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=0)
        frames = SpikeFrames(np.zeros((2, 2, 50, 50), np.uint8), 2, 50)
        per_sample = 2 * 32 * 12 * 12 * 8  # T x conv1's output, float64
        monkeypatch.setattr(training, "_BATCH_BYTES", budget * per_sample + 100)
        calls = self.spy_on_simulate(monkeypatch)
        assert evaluate(net, weights, [(frames, 0)] * n) == 1.0
        assert [m for m, _ in calls] == sizes

    def test_mixed_timesteps_raise(self, small_data):
        net = sd.build_network(50)
        weights = sd.init_weights(net, seed=0)
        rng = np.random.default_rng(0)
        frames6 = SpikeFrames((rng.random((6, 2, 50, 50)) < 0.2).astype(np.uint8), 6, 50)
        with pytest.raises(ShapeMismatch):
            evaluate(net, weights, small_data[1][:3] + [(frames6, 0)])

    def test_chunks_stay_within_byte_budget_at_w100_t20(self, monkeypatch):
        net = sd.build_network(100)
        weights = sd.init_weights(net, seed=0)
        rng = np.random.default_rng(1)
        data = [
            (SpikeFrames((rng.random((20, 2, 100, 100)) < 0.1).astype(np.uint8), 20, 100),
             i % 2)
            for i in range(5)
        ]
        calls = self.spy_on_simulate(monkeypatch)
        evaluate(net, weights, data)
        largest = 32 * 25 * 25  # conv1's (C, H, W) output, the largest layer
        assert sum(n for n, _ in calls) == 5
        assert all(n * 20 * largest * 8 <= training._BATCH_BYTES for n, _ in calls)
        assert max(n for n, _ in calls) == 2
