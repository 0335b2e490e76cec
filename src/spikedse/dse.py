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
    def from_json(cls, text_or_dict) -> "Constraints":
        with ConfigError.guard("constraints"):
            raw = dict(
                json.loads(text_or_dict)
                if isinstance(text_or_dict, str)
                else text_or_dict
            )
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


def _dominates(p: DsePoint, q: DsePoint) -> bool:
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


def pareto_front(points: list[DsePoint]) -> list[DsePoint]:
    """Non-dominated points, sorted by accuracy descending.

    Sorting accuracy-first guarantees any dominator precedes its victims,
    so each candidate only needs checking against the front built so far.
    """
    ordered = sorted(
        points,
        key=lambda p: (
            -p.accuracy,
            p.cost.memory_bits,
            p.cost.latency_units,
            p.cost.energy_units,
            p.tag,
        ),
    )
    front: list[DsePoint] = []
    for candidate in ordered:
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
    return min(
        feasible,
        key=lambda p: (-p.accuracy, p.cost.memory_bits, p.cost.latency_units, p.bits),
    )


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

_CSV_COLUMNS = [
    "tag",
    "bits",
    "timesteps",
    "window",
    "accuracy",
    "accuracy_source",
    "memory_bits",
    "latency_units",
    "energy_units",
    "latency_ratio",
    "synaptic_ops",
    "neuron_ops",
    "memory_vs_baseline",
    "latency_vs_baseline",
    "energy_vs_baseline",
]


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

    def rows(subset):
        for p in subset:
            yield [
                p.tag,
                p.bits,
                p.timesteps,
                p.window,
                repr(p.accuracy),
                p.accuracy_source,
                p.cost.memory_bits,
                repr(p.cost.latency_units),
                repr(p.cost.energy_units),
                repr(p.cost.latency_ratio),
                p.cost.op_count.synaptic_ops,
                p.cost.op_count.neuron_ops,
                repr(p.cost.memory_bits / baseline.cost.memory_bits),
                repr(p.cost.latency_units / baseline.cost.latency_units),
                repr(p.cost.energy_units / baseline.cost.energy_units),
            ]

    results_path = out / "dse_results.csv"
    pareto_path = out / "pareto.csv"
    for path, subset in ((results_path, points), (pareto_path, pareto_front(points))):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            writer.writerows(rows(subset))
    return results_path, pareto_path


def parse_report(path: str | Path) -> list[DsePoint]:
    """Read a dse_results.csv back into DsePoints.

    Per-layer op breakdowns are not serialized, so the reconstructed
    OpCount carries totals only.
    """
    points = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            ops = OpCount(
                synaptic_ops=int(row["synaptic_ops"]),
                neuron_ops=int(row["neuron_ops"]),
            )
            cost = CostReport(
                tag=row["tag"],
                bits=int(row["bits"]),
                timesteps=int(row["timesteps"]),
                window=int(row["window"]),
                memory_bits=int(row["memory_bits"]),
                latency_units=float(row["latency_units"]),
                energy_units=float(row["energy_units"]),
                latency_ratio=float(row["latency_ratio"]),
                op_count=ops,
            )
            points.append(
                DsePoint(
                    bits=cost.bits,
                    timesteps=cost.timesteps,
                    window=cost.window,
                    accuracy=float(row["accuracy"]),
                    cost=cost,
                    accuracy_source=row["accuracy_source"],
                )
            )
    return points
