"""Fixed-point formats, rounding schemes, PTQ, memory accounting."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikedse as sd
from spikedse.network import LayerWeights, WeightSet
from spikedse.quantize import (
    FixedPointFormat,
    QuantConfig,
    choose_format,
    grid_aligned,
    memory_of,
    ptq,
    quantize_array,
)


class TestChooseFormat:
    def test_sub_unit_range_is_pure_fractional(self):
        fmt = choose_format(np.array([0.9, -0.3]), 8)
        assert fmt.frac_bits == 7

    def test_two_integer_bits(self):
        fmt = choose_format(np.array([3.2]), 8)
        assert fmt.frac_bits == 5

    def test_all_zero_convention(self):
        fmt = choose_format(np.zeros(4), 4)
        assert fmt.frac_bits == 3

    def test_power_of_two_boundary_representable(self):
        fmt = choose_format(np.array([2.0]), 8)
        assert fmt.max_value >= 2.0

    def test_tr_never_saturates_when_format_unclamped(self):
        # the chosen split guarantees floor(v * 2^n) stays inside the integer
        # range; only the clamp at n=0 (magnitudes too big for B) breaks it
        rng = np.random.default_rng(3)
        for _ in range(200):
            bits = int(rng.integers(4, 33))
            values = rng.normal(0, 10 ** rng.uniform(-3, 2), size=17)
            fmt = choose_format(values, bits)
            max_abs = np.abs(values).max()
            if fmt.frac_bits == 0 and max_abs > fmt.max_value:
                continue  # clamped: range genuinely insufficient
            _, saturated = quantize_array(values, fmt, "TR")
            assert saturated == 0
            assert fmt.min_value <= -max_abs

    def test_huge_values_clamp_to_zero_frac(self):
        fmt = choose_format(np.array([1e12]), 8)
        assert fmt.frac_bits == 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            choose_format(np.array([np.nan]), 8)

    def test_rejects_an_empty_tensor(self):
        with pytest.raises(ValueError, match="empty tensor"):
            choose_format(np.array([]), 8)


@pytest.mark.parametrize("make,message", [
    (lambda: FixedPointFormat(1, 0), "total_bits must be in \\[2, 32\\], got 1"),
    (lambda: FixedPointFormat(33, 0), "total_bits must be in \\[2, 32\\], got 33"),
    (lambda: FixedPointFormat(8, 8), "frac_bits must be in \\[0, 7\\], got 8"),
    (lambda: FixedPointFormat(8, -1), "frac_bits must be in \\[0, 7\\], got -1"),
    (lambda: QuantConfig(bits=8, rounding="RZ"), "unknown rounding scheme 'RZ'"),
])
def test_invalid_format_or_config(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestQuantizeValue:
    """Single values through quantize_array."""

    def fmt(self, n, bits=8):
        return FixedPointFormat(bits, n)

    def test_tr_floors(self):
        assert quantize_array(np.array([0.75]), self.fmt(1), "TR")[0][0] == 0.5

    def test_tr_floors_toward_minus_inf(self):
        assert quantize_array(np.array([-0.75]), self.fmt(1), "TR")[0][0] == -1.0

    def test_rn_half_away_from_zero(self):
        assert quantize_array(np.array([0.75]), self.fmt(1), "RN")[0][0] == 1.0
        assert quantize_array(np.array([-0.75]), self.fmt(1), "RN")[0][0] == -1.0

    def test_sr_unbiased_monte_carlo(self):
        rng = np.random.default_rng(99)
        fmt = self.fmt(1)
        draws, _ = quantize_array(
            np.full(100_000, 0.75), fmt, "SR", rng
        )
        assert draws.mean() == pytest.approx(0.75, abs=0.01)

    def test_sr_needs_generator(self):
        with pytest.raises(ValueError):
            quantize_array(np.array([0.3]), self.fmt(2), "SR")

    def test_saturation_counted_silently(self):
        fmt = FixedPointFormat(4, 3)  # range [-1, 0.875]
        q, saturated = quantize_array(np.array([0.95, -2.0, 0.1]), fmt, "RN")
        assert saturated == 2
        assert q[0] == fmt.max_value
        assert q[1] == fmt.min_value


@pytest.fixture(scope="module")
def million():
    rng = np.random.default_rng(12345)
    return rng.uniform(-4.0, 4.0, size=1_000_000)


@pytest.fixture(scope="module")
def trained_like():
    net = sd.build_network(50)
    weights = sd.init_weights(net, seed=42)
    rng = np.random.default_rng(0)
    for lw in weights.layers:
        if lw is not None:
            lw.weight *= rng.uniform(0.5, 3.0)
            lw.bias += rng.normal(0, 0.2, lw.bias.shape)
    return net, weights


class TestErrorBounds:
    def test_tr_error_bound(self, million):
        fmt = choose_format(million, 10)
        q, _ = quantize_array(million, fmt, "TR")
        err = million - q
        non_saturated = (million >= fmt.min_value) & (million <= fmt.max_value)
        assert np.all(err[non_saturated] >= 0.0)
        assert np.all(err[non_saturated] < fmt.step)
        assert np.all(np.abs(err) < fmt.step + 1e-15)

    def test_rn_error_bound(self, million):
        fmt = choose_format(million, 10)
        q, _ = quantize_array(million, fmt, "RN")
        non_saturated = (million >= fmt.min_value) & (million <= fmt.max_value)
        err = np.abs(million - q)[non_saturated]
        assert np.all(err <= fmt.step / 2 + 1e-15)

    def test_sr_unbiased_within_3_sigma(self):
        rng = np.random.default_rng(777)
        fmt = FixedPointFormat(8, 6)
        w = 0.3300781  # strictly between grid points
        n = 100_000
        q, _ = quantize_array(np.full(n, w), fmt, "SR", rng)
        frac = (w * 2**6) % 1.0
        sigma = fmt.step * np.sqrt(frac * (1 - frac) / n)
        assert abs(q.mean() - w) <= 3 * sigma

    @given(
        st.floats(-100, 100, allow_nan=False),
        st.integers(2, 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_grid_membership(self, w, bits):
        fmt = choose_format(np.array([max(abs(w), 1e-6)]), bits)
        for scheme in ("TR", "RN"):
            q = quantize_array(np.array([w]), fmt, scheme)[0][0]
            scaled = q * 2**fmt.frac_bits
            assert scaled == np.round(scaled)
            assert fmt.min_value <= q <= fmt.max_value


class TestPtq:
    @pytest.mark.parametrize("rounding", ["TR", "RN"])
    def test_idempotent(self, trained_like, rounding):
        _, weights = trained_like
        config = QuantConfig(bits=10, rounding=rounding)
        once = ptq(weights, config)
        twice = ptq(once, QuantConfig(bits=10, rounding=rounding))
        for a, b in zip(once.param_arrays(), twice.param_arrays()):
            assert np.array_equal(a, b)

    def test_32_bit_near_identity(self, trained_like):
        _, weights = trained_like
        config = QuantConfig(bits=32)
        q = ptq(weights, config)
        formats = [FixedPointFormat(32, n) for n in q.quant["frac_bits"] if n is not None]
        for orig, quant, fmt in zip(
            weights.param_arrays(), q.param_arrays(),
            [f for f in formats for _ in range(2)],
        ):
            assert fmt.frac_bits >= 24 or np.abs(orig).max() > 1.0
            assert np.max(np.abs(orig - quant)) <= fmt.step

    def test_grid_membership_10_bits(self, trained_like):
        _, weights = trained_like
        config = QuantConfig(bits=10)
        q = ptq(weights, config)
        assert grid_aligned(q, config)

    def test_input_not_modified(self, trained_like):
        _, weights = trained_like
        before = [a.copy() for a in weights.param_arrays()]
        ptq(weights, QuantConfig(bits=4))
        for a, b in zip(before, weights.param_arrays()):
            assert np.array_equal(a, b)

    def test_config_not_modified(self, trained_like):
        _, weights = trained_like
        config = QuantConfig(bits=6, rounding="SR", seed=3)
        before = dataclasses.replace(config)
        ptq(weights, config)
        assert config == before

    def test_grid_check_is_exact(self, trained_like):
        # at 24 bits the largest weight scales to ~2^22, where a relative
        # tolerance of 1e-5 would let a 0.3-step offset through
        _, weights = trained_like
        q = ptq(weights, QuantConfig(bits=24))
        layers = [None if lw is None else LayerWeights(lw.weight.copy(), lw.bias.copy())
                  for lw in q.layers]
        w = layers[-1].weight
        w.flat[np.argmax(np.abs(w))] += 0.3 * 2.0 ** -q.quant["frac_bits"][-1]
        with pytest.raises(ValueError, match="layer 6 weight lies off its 2\\^-"):
            WeightSet(layers, quant=q.quant)

    def test_alignment_is_ptq_at_the_declared_width(self, trained_like):
        _, weights = trained_like
        q = ptq(weights, QuantConfig(bits=10))
        assert grid_aligned(q, QuantConfig(bits=10))
        assert not grid_aligned(q, QuantConfig(bits=4))
        assert not grid_aligned(weights, QuantConfig(bits=10))
        assert not grid_aligned(dataclasses.replace(q, quant=None), QuantConfig(bits=10))

    def test_arrays_are_read_only(self, trained_like):
        _, weights = trained_like
        q = ptq(weights, QuantConfig(bits=10))
        assert isinstance(q.layers, tuple)
        assert not any(a.flags.writeable for a in q.param_arrays())
        with pytest.raises(ValueError, match="read-only"):
            q.layers[1].weight[0, 0, 0, 0] += 2.0**-40
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.quant = None
        # the unquantized input keeps writable arrays
        assert all(a.flags.writeable for a in weights.param_arrays())

    def test_sr_deterministic_per_seed(self, trained_like):
        _, weights = trained_like
        a = ptq(weights, QuantConfig(bits=8, rounding="SR", seed=5))
        b = ptq(weights, QuantConfig(bits=8, rounding="SR", seed=5))
        c = ptq(weights, QuantConfig(bits=8, rounding="SR", seed=6))
        for x, y in zip(a.param_arrays(), b.param_arrays()):
            assert np.array_equal(x, y)
        assert any(
            not np.array_equal(x, z)
            for x, z in zip(a.param_arrays(), c.param_arrays())
        )

    def test_provenance_recorded(self, trained_like):
        _, weights = trained_like
        config = QuantConfig(bits=12, rounding="RN")
        q = ptq(weights, config)
        assert q.quant["bits"] == 12
        assert q.quant["rounding"] == "RN"
        assert len(q.quant["frac_bits"]) == len(weights.layers)


class TestMemoryOf:
    def test_reference_weight_counts(self):
        assert sd.build_network(100).weight_count() == 600_640
        assert sd.build_network(50).weight_count() == 51_552

    def test_bits_scale(self):
        net = sd.build_network(100)
        assert memory_of(net, 10) / memory_of(net, 32) == pytest.approx(0.3125)

    # savings vs the 32-bit 100-window baseline, in percent
    EXPECTED_SAVINGS = [
        (16, 100, 50.00),
        (12, 100, 62.50),
        (10, 100, 68.75),
        (32, 50, 91.42),
        (16, 50, 95.71),
        (12, 50, 96.78),
        (10, 50, 97.32),
    ]

    @pytest.mark.parametrize("bits,window,expected", EXPECTED_SAVINGS)
    def test_published_savings(self, bits, window, expected):
        baseline = memory_of(sd.build_network(100), 32)
        footprint = memory_of(sd.build_network(window), bits)
        saving = 100.0 * (1.0 - footprint / baseline)
        assert saving == pytest.approx(expected, abs=0.05)
