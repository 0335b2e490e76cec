"""Grid enumeration, constraint filtering, Pareto front, selection, reports."""

import numpy as np
import pytest

import spikedse as sd
from spikedse.costs import CostReport, OpCount, default_constants, setting_tag
from spikedse.dse import (
    BASELINE_TAG,
    Constraints,
    DseGrid,
    DsePoint,
    _dominates,
    emit_report,
    enumerate_grid,
    filter_constraints,
    load_accuracy_table,
    pareto_front,
    parse_report,
    run_dse,
    select,
)
from spikedse.errors import EmptyAxis, MissingBaseline, NoFeasiblePoint


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
