"""Joint design-space exploration over precision x timestep x window.

Each grid point quantizes the full-precision baseline trained for its
(T, W) pair, evaluates accuracy, and attaches the analytic cost report.
Training happens once per (T, W); quantization is pure post-processing, so
the default grid costs eight trainings, not thirty-two.

Accuracy can come from live evaluation (synthetic data) or from an
imported reference table of reported NCARS results, selected per run; the
source is recorded on every point. Memory constraints are expressed in
megabits of packed weight storage (1 "MB" = 1e6 bits): that is the only
convention under which the published constraint walkthroughs reproduce.
Latency constraints compare each point's ratio against the 20-timestep
full-precision baseline of its own window.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from itertools import product
from operator import attrgetter
from pathlib import Path

from .costs import (
    CostConstants,
    CostReport,
    OpCount,
    full_report,
    setting_tag,
)
from .errors import ConfigError, EmptyAxis, MissingBaseline, NoFeasiblePoint
from .events import SpikeFrames
from .network import WeightSet, build_network
from .quantize import QuantConfig, ptq
from .training import evaluate

BASELINE_TAG = "32b_20t_100w"
MEMORY_UNIT_BITS = 1_000_000  # one "MB" of packed weight storage


@dataclass(frozen=True)
class DseGrid:
    bits: tuple[int, ...] = (32, 16, 12, 10)
    timesteps: tuple[int, ...] = (20, 15, 10, 5)
    windows: tuple[int, ...] = (100, 50)

    def __post_init__(self):
        for name in ("bits", "timesteps", "windows"):
            values = getattr(self, name)
            if not all(isinstance(v, numbers.Integral) for v in values):
                raise TypeError(f"grid {name} must be integers, got {list(values)}")
        if min((*self.timesteps, *self.windows), default=1) < 1:
            raise ValueError("grid timesteps and windows must be >= 1")
        for bits in self.bits:
            QuantConfig(bits)  # bits outside [2, 32] raise ValueError

    @classmethod
    def from_json(cls, path: str | Path) -> "DseGrid":
        with ConfigError.guard(f"grid {path}"):
            raw = json.loads(Path(path).read_text())
            return cls(
                bits=tuple(raw["bits"]),
                timesteps=tuple(raw["timesteps"]),
                windows=tuple(raw["windows"]),
            )


@dataclass(frozen=True)
class DsePoint:
    bits: int
    timesteps: int
    window: int
    accuracy: float
    cost: CostReport
    accuracy_source: str = "live"

    @property
    def tag(self) -> str:
        return self.cost.tag


@dataclass(frozen=True)
class Constraints:
    max_memory_bits: int | None = None
    max_latency_ratio: float | None = None
    min_accuracy: float | None = None

    def __post_init__(self):
        for name in ("max_memory_bits", "max_latency_ratio", "min_accuracy"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite when present")

    @classmethod
    def from_json(cls, text: str) -> "Constraints":
        with ConfigError.guard("constraints"):
            raw = dict(json.loads(text))
            memory_bits = raw.get("max_memory_bits")
            if memory_bits is None and "max_memory_mb" in raw:
                megabits = raw["max_memory_mb"]
                if not isinstance(megabits, numbers.Real):
                    raise TypeError(f"max_memory_mb must be a number, got {megabits!r}")
                if not math.isfinite(megabits):
                    raise ValueError(f"max_memory_mb must be finite, got {megabits!r}")
                memory_bits = int(megabits * MEMORY_UNIT_BITS)
            return cls(
                max_memory_bits=memory_bits,
                max_latency_ratio=raw.get("max_latency_ratio"),
                min_accuracy=raw.get("min_accuracy"),
            )


def enumerate_grid(grid: DseGrid) -> list[tuple[int, int, int]]:
    """Full Cartesian product, each axis descending, bits outermost."""
    if not grid.bits or not grid.timesteps or not grid.windows:
        raise EmptyAxis("every grid axis needs at least one value")
    return list(
        product(
            sorted(grid.bits, reverse=True),
            sorted(grid.timesteps, reverse=True),
            sorted(grid.windows, reverse=True),
        )
    )


def load_accuracy_table(path: str | Path | None = None) -> dict[str, float]:
    """Tag -> accuracy fractions; defaults to the bundled NCARS reference."""
    if path is None:
        text = (
            resources.files("spikedse").joinpath("data/ncars_accuracy.json").read_text()
        )
    else:
        text = Path(path).read_text()
    with ConfigError.guard(f"accuracy table {path}"):
        return {tag: float(acc) for tag, acc in dict(json.loads(text)).items()}


def run_dse(
    encoded: dict[tuple[int, int], list[tuple[SpikeFrames, int]]] | None,
    baselines: dict[tuple[int, int], WeightSet] | None,
    grid: DseGrid,
    constants: CostConstants,
    *,
    accuracy_table: dict[str, float] | None = None,
    strict: bool = True,
) -> list[DsePoint]:
    """Evaluate every grid point; returns points in grid order.

    encoded maps (timesteps, window) -> the test split as (frames, label)
    pairs; baselines maps the same keys to trained full-precision
    WeightSets. With accuracy_table set, neither is touched and accuracies
    come from the table instead of live evaluation. strict is
    `build_network`'s: False admits windows other than 100 and 50.
    """
    settings = enumerate_grid(grid)
    if accuracy_table is None:
        for _, t, w in settings:
            if (t, w) not in (baselines or {}) or (t, w) not in (encoded or {}):
                raise MissingBaseline(
                    f"no trained baseline or test split for T={t}, W={w}"
                )
    specs = {w: build_network(w, strict=strict) for w in grid.windows}
    points = []
    for b, t, w in settings:
        if accuracy_table is None:
            quantized = ptq(baselines[(t, w)], QuantConfig(bits=b))
            accuracy, source = evaluate(specs[w], quantized, encoded[(t, w)]), "live"
        elif (tag := setting_tag(b, t, w)) in accuracy_table:
            accuracy, source = accuracy_table[tag], "table"
        else:
            raise MissingBaseline(f"accuracy table has no entry for {tag}")
        report = full_report(specs[w], b, t, w, constants)
        points.append(DsePoint(b, t, w, accuracy, report, source))
    return points


def filter_constraints(
    points: list[DsePoint], constraints: Constraints
) -> list[DsePoint]:
    """Keep points satisfying every present constraint (order preserved).

    The latency constraint compares each point's latency_ratio, i.e. its
    latency against the 20-timestep full-precision baseline of the same
    window; that is the normalization under which the published constraint
    walkthroughs reproduce.
    """
    kept = []
    for p in points:
        if (
            constraints.max_memory_bits is not None
            and p.cost.memory_bits > constraints.max_memory_bits
        ):
            continue
        if (
            constraints.max_latency_ratio is not None
            and p.cost.latency_ratio > constraints.max_latency_ratio
        ):
            continue
        if constraints.min_accuracy is not None and p.accuracy < constraints.min_accuracy:
            continue
        kept.append(p)
    return kept


def _objectives(p: DsePoint) -> tuple:
    """The four Pareto objectives of a point, each smaller-is-better."""
    return (-p.accuracy, p.cost.memory_bits, p.cost.latency_units, p.cost.energy_units)


def _dominates(p: DsePoint, q: DsePoint) -> bool:
    """p is no worse than q on every objective and differs on at least one."""
    mine, theirs = _objectives(p), _objectives(q)
    return all(a <= b for a, b in zip(mine, theirs)) and mine != theirs


def pareto_front(points: list[DsePoint]) -> list[DsePoint]:
    """Non-dominated points, sorted by accuracy descending.

    Sorting accuracy-first guarantees any dominator precedes its victims,
    so each candidate only needs checking against the front built so far.
    """
    front: list[DsePoint] = []
    for candidate in sorted(points, key=lambda p: (*_objectives(p), p.tag)):
        if not any(_dominates(kept, candidate) for kept in front):
            front.append(candidate)
    return front


def select(points: list[DsePoint], constraints: Constraints) -> DsePoint:
    """Pick the most accurate point under the constraints.

    Ties resolve to lower memory, then lower latency, then lower bits.
    """
    feasible = filter_constraints(points, constraints)
    if not feasible:
        raise NoFeasiblePoint("no point satisfies the given constraints")
    return min(feasible, key=lambda p: (*_objectives(p)[:3], p.bits))


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

# One (column, value of a DsePoint, parser) row per report column, in file
# order; each column is named after the last part of its attribute path.
_REPORT_COLUMNS = tuple(
    (path.rpartition(".")[2], attrgetter(path), parse)
    for path, parse in (
        ("tag", str),
        ("bits", int),
        ("timesteps", int),
        ("window", int),
        ("accuracy", float),
        ("accuracy_source", str),
        ("cost.memory_bits", int),
        ("cost.latency_units", float),
        ("cost.energy_units", float),
        ("cost.latency_ratio", float),
        ("cost.op_count.synaptic_ops", int),
        ("cost.op_count.neuron_ops", int),
    )
)
# cost fields written again over the baseline row's, as <first word>_vs_baseline
_BASELINE_RATIOS = ("memory_bits", "latency_units", "energy_units")


def emit_report(points: list[DsePoint], out_dir: str | Path) -> tuple[Path, Path]:
    """Write dse_results.csv (all points) and pareto.csv (front).

    Normalized columns divide by the 32b_20t_100w row (or the largest
    setting present); the baseline row's own ratios are exactly 1.0.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    baseline = next(
        (p for p in points if p.tag == BASELINE_TAG),
        max(points, key=lambda p: (p.bits, p.timesteps, p.window)) if points else None,
    )
    header = [column for column, _, _ in _REPORT_COLUMNS] + [
        f"{field.partition('_')[0]}_vs_baseline" for field in _BASELINE_RATIOS
    ]

    def row(p):
        ratios = [getattr(p.cost, f) / getattr(baseline.cost, f)
                  for f in _BASELINE_RATIOS]
        return [value(p) for _, value, _ in _REPORT_COLUMNS] + ratios

    paths = out / "dse_results.csv", out / "pareto.csv"
    for path, subset in zip(paths, (points, pareto_front(points))):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header, *map(row, subset)])
    return paths


def parse_report(path: str | Path) -> list[DsePoint]:
    """Read a dse_results.csv back into DsePoints.

    Every column but the baseline ratios is read back. Per-layer op
    breakdowns are not serialized, so the reconstructed OpCount carries
    totals only. A missing column, a row of the wrong length or a value
    its parser rejects raises ConfigError.
    """
    points = []
    with ConfigError.guard(f"report {path}"), open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            # DictReader keys surplus fields by None and fills absent ones with None
            if None in row or None in row.values():
                raise ValueError(f"line {reader.line_num}: wrong number of fields")
            v = {column: parse(row[column]) for column, _, parse in _REPORT_COLUMNS}
            ops = OpCount(v.pop("synaptic_ops"), v.pop("neuron_ops"))
            acc, source = v.pop("accuracy"), v.pop("accuracy_source")
            cost = CostReport(**v, op_count=ops)
            points.append(
                DsePoint(cost.bits, cost.timesteps, cost.window, acc, cost, source)
            )
    return points
