"""Operation counting, latency/energy models, calibration targets."""

import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

import spikedse as sd
from spikedse.costs import (
    CostConstants,
    count_ops,
    default_constants,
    energy_estimate,
    full_report,
    latency_estimate,
    reduction_factor,
    setting_tag,
    OpCount,
)
from spikedse.errors import ConfigError


@pytest.fixture(scope="module")
def nets():
    return {100: sd.build_network(100), 50: sd.build_network(50)}


@pytest.fixture(scope="module")
def constants():
    return default_constants()


class TestCountOps:
    def test_linear_in_timesteps(self, nets):
        full = count_ops(nets[100], 20)
        half = count_ops(nets[100], 10)
        assert full.synaptic_ops == 2 * half.synaptic_ops
        assert full.neuron_ops == 2 * half.neuron_ops
        one = count_ops(nets[100], 1)
        assert full.synaptic_ops == 20 * one.synaptic_ops
        assert full.neuron_ops == 20 * one.neuron_ops

    def test_second_conv_hand_count(self, nets):
        # 32 out channels on a 12x12 map, each output sums 32 * 9 inputs
        ops = count_ops(nets[100], 1)
        conv2 = ops.per_layer[3]
        assert conv2.kind == "conv"
        assert conv2.synaptic_ops == 32 * 12 * 12 * (32 * 9) == 1_327_104

    def test_totals_equal_per_layer_sums(self, nets):
        for net in nets.values():
            ops = count_ops(net, 7)
            assert ops.synaptic_ops == sum(p.synaptic_ops for p in ops.per_layer)
            assert ops.neuron_ops == sum(p.neuron_ops for p in ops.per_layer)

    def test_window_reduction_near_eighty_percent(self, nets):
        big = count_ops(nets[100], 20).total
        small = count_ops(nets[50], 20).total
        reduction = 100.0 * (1.0 - small / big)
        assert 75.0 <= reduction <= 85.0

    def test_pooling_counts_k_squared_accumulations(self, nets):
        pool1 = count_ops(nets[100], 1).per_layer[0]
        assert pool1.kind == "avg_pool"
        assert pool1.synaptic_ops == 2 * 25 * 25 * 16
        assert pool1.neuron_ops == 0

    # (kind, synaptic ops, neuron ops) per layer at T=1; the cost reports
    # and the DSE CSVs are built from these
    PINNED = {
        (50, True): [
            ("avg_pool", 4608, 0), ("conv", 82944, 4608), ("avg_pool", 4608, 0),
            ("conv", 331776, 1152), ("avg_pool", 1152, 0),
            ("fully_connected", 41472, 144), ("fully_connected", 288, 2),
        ],
        (100, True): [
            ("avg_pool", 20000, 0), ("conv", 360000, 20000), ("avg_pool", 18432, 0),
            ("conv", 1327104, 4608), ("avg_pool", 4608, 0),
            ("fully_connected", 589824, 512), ("fully_connected", 1024, 2),
        ],
        (37, False): [
            ("avg_pool", 2592, 0), ("conv", 46656, 2592), ("avg_pool", 2048, 0),
            ("conv", 147456, 512), ("avg_pool", 512, 0),
            ("fully_connected", 8192, 64), ("fully_connected", 128, 2),
        ],
    }

    @pytest.mark.parametrize("window, strict", list(PINNED))
    def test_per_layer_counts_pinned(self, window, strict):
        ops = count_ops(sd.build_network(window, strict=strict), 1)
        got = [(p.kind, p.synaptic_ops, p.neuron_ops) for p in ops.per_layer]
        assert got == self.PINNED[(window, strict)]

    def test_no_timesteps_is_refused(self, nets):
        with pytest.raises(ValueError, match="timesteps must be >= 1"):
            count_ops(nets[50], 0)

    def test_neuron_ops_cover_spiking_layers_only(self, nets):
        ops = count_ops(nets[50], 1)
        expected = 32 * 12 * 12 + 32 * 6 * 6 + 144 + 2
        assert ops.neuron_ops == expected


class TestReductionFactor:
    def test_pure_timestep_halving(self):
        assert reduction_factor(100, 100, 20, 10) == 2.0

    def test_pure_window_halving(self):
        assert reduction_factor(100, 50, 20, 20) == 4.0

    def test_joint(self):
        assert reduction_factor(100, 50, 20, 5) == 16.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            reduction_factor(100, 0, 20, 5)

    @pytest.mark.parametrize("t0", [5, 10, 15, 20])
    @pytest.mark.parametrize("t1", [5, 10, 15, 20])
    def test_approximation_slack_within_quarter(self, nets, t0, t1):
        # floor-divided feature maps make the (W0/W1)^2 factor approximate
        measured = count_ops(nets[100], t0).total / count_ops(nets[50], t1).total
        approx = reduction_factor(100, 50, t0, t1)
        assert 0.75 <= measured / approx <= 1.25


class TestLatency:
    def test_zero_ops_gives_fixed_overhead(self, constants):
        empty = OpCount(synaptic_ops=0, neuron_ops=0)
        assert latency_estimate(empty, constants) == constants.latency_fixed

    def test_strictly_increasing_in_timesteps(self, nets, constants):
        values = [
            latency_estimate(count_ops(nets[100], t), constants)
            for t in (5, 10, 15, 20)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_speedup_triple_at_w100(self, nets, constants):
        base = latency_estimate(count_ops(nets[100], 20), constants)
        speedups = {
            t: base / latency_estimate(count_ops(nets[100], t), constants)
            for t in (15, 10, 5)
        }
        assert 3.5 <= speedups[5] <= 4.0
        assert 1.86 <= speedups[10] <= 2.02

    def test_five_timestep_ratio_is_exactly_quarter(self, nets, constants):
        base = latency_estimate(count_ops(nets[100], 20), constants)
        fast = latency_estimate(count_ops(nets[100], 5), constants)
        assert fast / base == 0.25


class TestEnergy:
    def test_32_bit_scale_is_unity(self, constants):
        ops = OpCount(synaptic_ops=1000, neuron_ops=0)
        expected = 1000 * constants.energy_per_synop_32b
        assert energy_estimate(ops, 32, constants) == pytest.approx(expected)

    def test_monotone_non_decreasing_in_bits(self, nets, constants):
        ops = count_ops(nets[100], 20)
        energies = [energy_estimate(ops, b, constants) for b in (4, 10, 16, 32)]
        assert all(a <= b for a, b in zip(energies, energies[1:]))

    def test_improvement_for_10b_5t(self, nets, constants):
        base = energy_estimate(count_ops(nets[100], 20), 32, constants)
        optimized = energy_estimate(count_ops(nets[100], 5), 10, constants)
        assert 3.8 <= base / optimized <= 4.3


class TestFullReport:
    def test_tag_and_memory(self, nets, constants):
        report = full_report(nets[100], 32, 20, 100, constants)
        assert report.tag == "32b_20t_100w"
        assert report.memory_bits == 600_640 * 32

    def test_composition_matches_submodels(self, nets, constants):
        report = full_report(nets[50], 12, 10, 50, constants)
        ops = count_ops(nets[50], 10)
        assert report.op_count == ops
        assert report.latency_units == latency_estimate(ops, constants)
        assert report.energy_units == energy_estimate(ops, 12, constants)
        assert report.memory_bits == sd.memory_of(nets[50], 12)

    def test_deterministic(self, nets, constants):
        a = full_report(nets[100], 16, 15, 100, constants)
        b = full_report(nets[100], 16, 15, 100, constants)
        assert a == b

    def test_window_mismatch_rejected(self, nets, constants):
        with pytest.raises(ValueError):
            full_report(nets[100], 16, 15, 50, constants)


class TestConstants:
    def test_file_round_trip(self, tmp_path, constants):
        path = tmp_path / "constants.json"
        path.write_text(json.dumps(dataclasses.asdict(constants)))
        assert CostConstants.from_json(path) == constants

    def test_schema_keys(self):
        shipped = resources.files("spikedse").joinpath("data/cost_constants.json")
        keys = set(json.loads(shipped.read_text()))
        assert keys == {
            "latency_fixed",
            "latency_per_op",
            "energy_per_synop_32b",
            "alpha",
            "energy_per_neuron_update",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            CostConstants(latency_per_op=0.0)
        with pytest.raises(ValueError):
            CostConstants(latency_fixed=-1.0)
        with pytest.raises(ValueError):
            CostConstants(alpha=1.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CostConstants)])
    def test_non_finite_constant_is_refused(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            CostConstants(**{name: value})

    @pytest.mark.parametrize("name", ["latency_per_op", "energy_per_synop_32b",
                                      "energy_per_neuron_update"])
    def test_overflowing_report_is_refused(self, nets, name):
        constants = CostConstants(**{name: 1e308})  # finite, but not times the op count
        with pytest.raises(ConfigError, match="4b_5t_50w a latency or energy"):
            full_report(nets[50], 4, 5, 50, constants)

    def test_tag_format(self):
        assert setting_tag(10, 5, 100) == "10b_5t_100w"
