"""Grid enumeration, constraint filtering, Pareto front, selection, reports."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spikedse as sd
from spikedse.costs import CostReport, OpCount, default_constants, setting_tag
from spikedse.dse import (
    BASELINE_TAG,
    Constraints,
    DseGrid,
    DsePoint,
    _dominates,
    _objectives,
    emit_report,
    enumerate_grid,
    filter_constraints,
    load_accuracy_table,
    pareto_front,
    parse_report,
    run_dse,
    select,
)
from spikedse.errors import ConfigError, EmptyAxis, MissingBaseline, NoFeasiblePoint


@pytest.fixture(scope="module")
def table_points():
    return run_dse(None, None, DseGrid(), default_constants(),
                   accuracy_table=load_accuracy_table())


def synthetic_point(rng, i):
    """Random DsePoint for oracle comparisons (metrics decoupled)."""
    cost = CostReport(
        tag=f"p{i}",
        bits=int(rng.integers(2, 33)),
        timesteps=int(rng.integers(1, 21)),
        window=int(rng.integers(10, 101)),
        memory_bits=int(rng.integers(1, 100)),
        latency_units=float(rng.integers(1, 100)),
        energy_units=float(rng.integers(1, 100)),
        latency_ratio=float(rng.integers(1, 100)) / 100.0,
        op_count=OpCount(0, 0),
    )
    return DsePoint(
        bits=cost.bits,
        timesteps=cost.timesteps,
        window=cost.window,
        accuracy=float(rng.integers(0, 100)) / 100.0,
        cost=cost,
    )


class TestEnumerateGrid:
    def test_default_grid_has_32_points(self):
        assert len(enumerate_grid(DseGrid())) == 32

    def test_single_value_axes(self):
        grid = DseGrid(bits=(32,), timesteps=(20,), windows=(100,))
        assert enumerate_grid(grid) == [(32, 20, 100)]

    def test_descending_order_bits_outermost(self):
        grid = DseGrid(bits=(10, 32), timesteps=(5, 20), windows=(50, 100))
        points = enumerate_grid(grid)
        assert points[0] == (32, 20, 100)
        assert points[1] == (32, 20, 50)
        assert points[2] == (32, 5, 100)
        assert points[-1] == (10, 5, 50)

    def test_stable_across_calls(self):
        assert enumerate_grid(DseGrid()) == enumerate_grid(DseGrid())

    @pytest.mark.parametrize("axis", ["bits", "timesteps", "windows"])
    def test_repeated_axis_value(self, axis):
        with pytest.raises(ValueError, match=f"grid {axis} must not repeat"):
            DseGrid(**{axis: (10, 10) if axis == "bits" else (50, 50)})

    def test_empty_axis(self):
        with pytest.raises(EmptyAxis):
            enumerate_grid(DseGrid(bits=()))


class TestRunDse:
    def test_table_mode_covers_grid(self, table_points):
        assert len(table_points) == 32
        assert all(p.accuracy_source == "table" for p in table_points)
        tags = [p.tag for p in table_points]
        assert BASELINE_TAG in tags
        assert len(set(tags)) == 32

    def test_table_mode_missing_entry(self):
        with pytest.raises(MissingBaseline):
            run_dse(None, None, DseGrid(), default_constants(),
                    accuracy_table={"32b_20t_100w": 0.9})

    def test_rerun_identical(self, table_points):
        again = run_dse(None, None, DseGrid(), default_constants(),
                        accuracy_table=load_accuracy_table())
        assert again == table_points

    @pytest.mark.parametrize("bad", [float("nan"), 1.7, -0.1, float("inf")])
    def test_accuracy_table_outside_unit_interval_raises(self, tmp_path, bad):
        table = {**load_accuracy_table(), "10b_5t_50w": bad}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        with pytest.raises(ConfigError, match=r"accuracies must be in \[0, 1\]"):
            load_accuracy_table(path)

    def test_accuracy_table_accepts_zero_and_one(self, tmp_path):
        table = {**load_accuracy_table(), "10b_5t_50w": 0.0, "32b_20t_100w": 1}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        assert load_accuracy_table(path) == table

    def test_live_mode_needs_baselines(self):
        grid = DseGrid(bits=(32,), timesteps=(5,), windows=(50,))
        with pytest.raises(MissingBaseline):
            run_dse({(5, 50): []}, {}, grid, default_constants())

    def test_live_mode_needs_a_test_split_per_baseline(self):
        grid = DseGrid(bits=(32,), timesteps=(5,), windows=(50,))
        net = sd.build_network(50)
        with pytest.raises(MissingBaseline):
            run_dse({(10, 50): []}, {(5, 50): sd.init_weights(net, 0)}, grid,
                    default_constants())

    def test_live_restricted_to_32_bits_matches_unquantized(self):
        grid = DseGrid(bits=(32,), timesteps=(5,), windows=(50,))
        train_s, test_s = sd.make_synthetic_dataset(per_class=8, seed=3)
        net = sd.build_network(50)
        data = sd.encode_dataset(train_s, 50, 5)
        cfg = sd.TrainConfig(epochs=2, batch_size=8, seed=5, timesteps=5, window=50)
        weights, _ = sd.train(net, data, cfg)
        test_data = sd.encode_dataset(test_s, 50, 5)
        points = run_dse(
            {(5, 50): test_data}, {(5, 50): weights}, grid, default_constants()
        )
        direct = sd.evaluate(net, weights, test_data)
        assert len(points) == 1
        assert points[0].accuracy == direct
        assert points[0].accuracy_source == "live"


class TestFilterConstraints:
    def test_no_constraints_is_identity(self, table_points):
        assert filter_constraints(table_points, Constraints()) == table_points

    def test_eight_megabit_walkthrough(self, table_points):
        kept = {
            p.tag
            for p in filter_constraints(
                table_points, Constraints(max_memory_bits=8_000_000)
            )
        }
        # excludes 32- and 16-bit at the large window, keeps 12/10-bit
        # there plus every small-window point
        for t in (20, 15, 10, 5):
            assert setting_tag(32, t, 100) not in kept
            assert setting_tag(16, t, 100) not in kept
            assert setting_tag(12, t, 100) in kept
            assert setting_tag(10, t, 100) in kept
            for b in (32, 16, 12, 10):
                assert setting_tag(b, t, 50) in kept

    def test_quarter_latency_keeps_only_t5(self, table_points):
        kept = filter_constraints(
            table_points, Constraints(max_latency_ratio=0.25)
        )
        assert kept
        assert all(p.timesteps == 5 for p in kept)
        windows = {p.window for p in kept}
        assert windows == {100, 50}

    def test_idempotent(self, table_points):
        c = Constraints(max_memory_bits=8_000_000, max_latency_ratio=0.25)
        once = filter_constraints(table_points, c)
        assert filter_constraints(once, c) == once

    def test_removing_constraint_never_shrinks(self, table_points):
        tight = Constraints(max_memory_bits=8_000_000, max_latency_ratio=0.25)
        loose = Constraints(max_memory_bits=8_000_000)
        assert len(filter_constraints(table_points, loose)) >= len(
            filter_constraints(table_points, tight)
        )

    def test_min_accuracy(self, table_points):
        kept = filter_constraints(table_points, Constraints(min_accuracy=0.84))
        assert all(p.accuracy >= 0.84 for p in kept)
        assert all(p.window == 100 for p in kept)

    def test_mb_convention_in_from_json(self):
        c = Constraints.from_json('{"max_memory_mb": 8, "max_latency_ratio": 0.25}')
        assert c.max_memory_bits == 8_000_000
        assert c.max_latency_ratio == 0.25


class TestParetoFront:
    def brute_force(self, points):
        return [
            p
            for p in points
            if not any(_dominates(q, p) for q in points if q is not p)
        ]

    def test_single_point(self, table_points):
        assert pareto_front(table_points[:1]) == table_points[:1]

    def test_dominated_pair(self):
        rng = np.random.default_rng(0)
        a = synthetic_point(rng, 0)
        cost = CostReport(
            tag="worse", bits=a.bits, timesteps=a.timesteps, window=a.window,
            memory_bits=a.cost.memory_bits + 1,
            latency_units=a.cost.latency_units + 1,
            energy_units=a.cost.energy_units + 1,
            latency_ratio=a.cost.latency_ratio,
            op_count=OpCount(0, 0),
        )
        b = DsePoint(a.bits, a.timesteps, a.window, a.accuracy - 0.1, cost)
        assert pareto_front([a, b]) == [a]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_scan(self, seed):
        rng = np.random.default_rng(seed)
        points = [synthetic_point(rng, i) for i in range(32)]
        front = pareto_front(points)
        expected = self.brute_force(points)
        assert {p.tag for p in front} == {p.tag for p in expected}

    def test_front_on_reference_table(self, table_points):
        front = pareto_front(table_points)
        expected = self.brute_force(table_points)
        assert {p.tag for p in front} == {p.tag for p in expected}
        accs = [p.accuracy for p in front]
        assert accs == sorted(accs, reverse=True)

    def test_front_members_never_dominated(self, table_points):
        front = pareto_front(table_points)
        for p in front:
            assert not any(_dominates(q, p) for q in table_points)


def reference_dominates(p, q):
    """The dominance test as written before it read one objective tuple."""
    ge_acc = p.accuracy >= q.accuracy
    le_costs = (
        p.cost.memory_bits <= q.cost.memory_bits
        and p.cost.latency_units <= q.cost.latency_units
        and p.cost.energy_units <= q.cost.energy_units
    )
    strict = (
        p.accuracy > q.accuracy
        or p.cost.memory_bits < q.cost.memory_bits
        or p.cost.latency_units < q.cost.latency_units
        or p.cost.energy_units < q.cost.energy_units
    )
    return ge_acc and le_costs and strict


def reference_front(points):
    """pareto_front as written before it read one objective tuple."""
    ordered = sorted(points, key=lambda p: (
        -p.accuracy, p.cost.memory_bits, p.cost.latency_units,
        p.cost.energy_units, p.tag))
    front = []
    for candidate in ordered:
        if not any(reference_dominates(kept, candidate) for kept in front):
            front.append(candidate)
    return front


# few values per objective, so ties and equal points are common; -0.0 and
# NaN check that the tuple form keeps the old relation on both
small_float = st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan])


@st.composite
def small_point(draw):
    cost = CostReport(
        tag=f"p{draw(st.integers(0, 3))}", bits=32, timesteps=20, window=100,
        memory_bits=draw(st.integers(0, 2)),
        latency_units=draw(small_float),
        energy_units=draw(small_float),
        latency_ratio=1.0,
        op_count=OpCount(0, 0),
    )
    return DsePoint(32, 20, 100, draw(small_float), cost)


TIED = DsePoint(32, 20, 100, 0.0, CostReport("p", 32, 20, 100, 1, 1.0, 1.0, 1.0,
                                              OpCount(0, 0)))


class TestDominance:
    @given(small_point(), small_point())
    @example(TIED, replace(TIED))
    @example(TIED, replace(TIED, accuracy=-0.0))
    @example(TIED, replace(TIED, accuracy=math.nan))
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_relation(self, p, q):
        assert _dominates(p, q) == reference_dominates(p, q)
        assert _dominates(q, p) == reference_dominates(q, p)
        assert not _dominates(p, p)

    @given(st.lists(small_point(), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_front_matches_reference_front(self, points):
        front = pareto_front(points)
        assert [id(p) for p in front] == [id(p) for p in reference_front(points)]
        undominated = [p for p in points
                       if not any(reference_dominates(q, p) for q in points)]
        assert {id(p) for p in undominated} <= {id(p) for p in front}
        # a NaN objective defeats the accuracy-first sort; without one the
        # scan keeps exactly the undominated points
        if not any(math.isnan(v) for p in points for v in _objectives(p)):
            assert {id(p) for p in front} == {id(p) for p in undominated}


class TestSelect:
    def test_published_selection_at_8mb_quarter_latency(self, table_points):
        chosen = select(
            table_points,
            Constraints(max_memory_bits=8_000_000, max_latency_ratio=0.25),
        )
        assert chosen.tag == "10b_5t_100w"
        assert chosen.accuracy == pytest.approx(0.8412)

    def test_published_selection_at_1mb_quarter_latency(self, table_points):
        chosen = select(
            table_points,
            Constraints(max_memory_bits=1_000_000, max_latency_ratio=0.25),
        )
        assert chosen.tag == "10b_5t_50w"
        assert chosen.accuracy == pytest.approx(0.7710)

    def test_no_feasible_point(self, table_points):
        with pytest.raises(NoFeasiblePoint):
            select(table_points, Constraints(max_memory_bits=1))

    def test_tie_break_prefers_lower_memory(self):
        rng = np.random.default_rng(1)
        a = synthetic_point(rng, 0)
        smaller = CostReport(
            tag="small", bits=a.bits, timesteps=a.timesteps, window=a.window,
            memory_bits=a.cost.memory_bits - 1,
            latency_units=a.cost.latency_units,
            energy_units=a.cost.energy_units,
            latency_ratio=a.cost.latency_ratio,
            op_count=OpCount(0, 0),
        )
        b = DsePoint(a.bits, a.timesteps, a.window, a.accuracy, smaller)
        assert select([a, b], Constraints()) is b


class TestEmitReport:
    def test_row_count_and_round_trip(self, table_points, tmp_path):
        results_path, pareto_path = emit_report(table_points, tmp_path)
        lines = results_path.read_text().splitlines()
        assert len(lines) == 33  # header + 32 rows

        parsed = parse_report(results_path)
        assert len(parsed) == len(table_points)
        for original, back in zip(table_points, parsed):
            assert back.tag == original.tag
            assert back.accuracy == original.accuracy
            assert back.cost.memory_bits == original.cost.memory_bits
            assert back.cost.latency_units == original.cost.latency_units
            assert back.cost.energy_units == original.cost.energy_units
            assert back.cost.latency_ratio == original.cost.latency_ratio
            assert back.cost.op_count.synaptic_ops == original.cost.op_count.synaptic_ops
            assert back.accuracy_source == original.accuracy_source

    def test_every_column_round_trips(self, table_points, tmp_path):
        results_path, _ = emit_report(table_points, tmp_path)
        totals_only = [
            replace(p, cost=replace(p.cost, op_count=OpCount(
                p.cost.op_count.synaptic_ops, p.cost.op_count.neuron_ops)))
            for p in table_points
        ]
        parsed = parse_report(results_path)
        assert parsed == totals_only
        assert repr(parsed) == repr(totals_only)  # ints read back as ints

    def test_report_bytes_pinned(self, table_points, tmp_path):
        """SHA-256 of the default grid's table-mode reports, recorded from the
        writer that spelled every column out by hand."""
        results_path, pareto_path = emit_report(table_points, tmp_path)
        assert hashlib.sha256(results_path.read_bytes()).hexdigest() == (
            "2bf9320f8f0e778b1ce2d1316eaa1e3ec5d95d1aa1b7783ac2ecf107f1b72f5d")
        assert hashlib.sha256(pareto_path.read_bytes()).hexdigest() == (
            "697b616bfdf707c586f3a3cf9a4e7344e4371c1b66f629b14976cb3128f7e15a")

    @pytest.mark.parametrize("line, field, text, message", [
        (0, 11, "neurons", "missing key 'neuron_ops'"),
        (1, 14, None, "line 2: wrong number of fields"),
        (1, 15, "1.0", "line 2: wrong number of fields"),
        (2, 6, "x", "invalid literal for int() with base 10: 'x'"),
        (1, 4, "ninety", "could not convert string to float: 'ninety'"),
        (1, 0, "x" * 200_000, "field larger than field limit"),
    ], ids=["missing column", "short row", "long row", "bad int", "bad float",
            "oversized field"])
    def test_malformed_report_is_config_error(self, table_points, tmp_path,
                                              line, field, text, message):
        results_path, _ = emit_report(table_points, tmp_path)
        rows = [row.split(",") for row in results_path.read_text().splitlines()]
        rows[line][field:field + 1] = [] if text is None else [text]
        results_path.write_text("".join(",".join(row) + "\n" for row in rows))
        with pytest.raises(ConfigError, match="^report .*dse_results.csv: ") as err:
            parse_report(results_path)
        assert message in str(err.value)

    def test_baseline_row_normalized_to_one(self, table_points, tmp_path):
        import csv

        results_path, _ = emit_report(table_points, tmp_path)
        with open(results_path, newline="") as fh:
            rows = {row["tag"]: row for row in csv.DictReader(fh)}
        baseline = rows[BASELINE_TAG]
        assert float(baseline["memory_vs_baseline"]) == 1.0
        assert float(baseline["latency_vs_baseline"]) == 1.0
        assert float(baseline["energy_vs_baseline"]) == 1.0

    def test_pareto_csv_subset(self, table_points, tmp_path):
        _, pareto_path = emit_report(table_points, tmp_path)
        front_tags = {p.tag for p in pareto_front(table_points)}
        parsed = parse_report(pareto_path)
        assert {p.tag for p in parsed} == front_tags


class TestCostMonotonicity:
    def test_smaller_t_strictly_cheaper_at_fixed_b_w(self, table_points):
        by_key = {(p.bits, p.window): [] for p in table_points}
        for p in table_points:
            by_key[(p.bits, p.window)].append(p)
        for group in by_key.values():
            group.sort(key=lambda p: p.timesteps)
            for small, big in zip(group, group[1:]):
                assert small.cost.latency_units < big.cost.latency_units
                assert small.cost.energy_units < big.cost.energy_units
                assert small.cost.op_count.total < big.cost.op_count.total
