"""spikedse benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {train_desk,infer_atis,dse_live} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
The workload's inputs are generated from --seed; set-up runs SETUP_REPEATS
times and setup_s is the median; operations then run in a closed loop for
--seconds; outputs are checked. Untraced, every time is scaled to a
reference machine speed sampled during the run (speed.py), and the raw
wall times are printed beside it. stdout ends with one JSON object holding
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The lines before it
give the environment, every metric under its own name with its unit, and with
--trace 1 the per-layer self-time table and the tracing overhead. Exit
status is 0 only when every operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))


def import_package():
    """Import spikedse from this checkout's src/, or exit non-zero without a result."""
    try:
        import spikedse
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import spikedse from {SRC}: {exc}")
    if Path(spikedse.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: spikedse imported from {spikedse.__file__}, not {SRC}")
    return spikedse


def environment(seed: int, traced: bool) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        ours = git.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve()
        commit = lines[1] if ours else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
        "traced": traced,
    }


def measure_workload(workload, run, seconds: float):
    """Set up SETUP_REPEATS times, measure, check; returns what finish() gives,
    the (start, wall seconds) of each set-up and the plan that was run."""
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous set-up before building the next
        with run.phase("setup"):
            t0 = time.perf_counter()
            state = workload.setup(run)
            setups.append((t0, time.perf_counter() - t0))
    with run.phase("measure"):
        t0 = time.perf_counter()
        plan = workload.measure(run, state, seconds)
        plan["wall_s"] = time.perf_counter() - t0
    with run.phase("check"):
        common, report = workload.finish(run, state)
    return common, report, setups, plan


def traced_measurement(workload, run, seconds: float, tracing):
    """measure_workload under the tracer, then the same plan untraced."""
    tracer = run.tracer
    tracer.install()
    cpu0 = time.process_time()
    try:
        with run.phase("run") as root:
            common, report, setups, plan = measure_workload(workload, run, seconds)
    finally:
        tracer.uninstall()
    layer, table, top = tracing.layer_metrics(tracer, root, time.process_time() - cpu0)
    run.check("layer self times sum to the root span",
              abs(sum(table[k] for k in tracing.LAYERS) - table["root"])
              <= 1e-6 * table["root"])
    from workloads import Run

    # The same operations again, untraced: the difference is the overhead.
    replay = Run(run.seed, run.workdir)
    replay_state = workload.setup(replay)
    t0 = time.perf_counter()
    workload.measure(replay, replay_state, None, plan)
    untraced_s = time.perf_counter() - t0
    run.check("untraced replay succeeded", replay.failed == 0)
    layer["trace.overhead_s"] = plan["wall_s"] - untraced_s
    layer["trace.overhead_frac"] = layer["trace.overhead_s"] / untraced_s
    return layer, table, top, report, setups, plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import tracer as tracing
    from speed import SpeedProbe, WallClock
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS or args.seconds <= 0:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}, --seconds > 0")
    workload = WORKLOADS[args.workload]()
    traced = bool(args.trace)
    env = environment(args.seed, traced)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # A traced run reports raw wall-clock self times; the probe's samples
    # would land in the spans.
    speed = WallClock() if traced else SpeedProbe()
    run = Run(args.seed, workdir, tracing.Tracer() if traced else None, speed)
    try:
        if traced:
            layer, table, top, report, setups, plan = traced_measurement(
                workload, run, args.seconds, tracing)
            run.tracer.write(OUT / f"trace-{tag}.jsonl.gz", tag)
        else:
            speed.start()
            try:
                common, report, setups, plan = measure_workload(workload, run, args.seconds)
            finally:
                speed.stop()
            plan["speed"] = speed.summary()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(speed.scaled(t0, dt) for t0, dt in setups)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error_rate = run.failed / max(run.attempted, 1)
    report = {
        "setup_s": (setup_s, f"s, median of {len(setups)}"),
        "setup_s_wall": (statistics.median(dt for _, dt in setups), "s, unscaled"),
        **report,
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (error_rate, f"fraction, {run.failed}/{run.attempted}"),
    }
    for name, (value, unit) in report.items():
        print(f"  {name:26s} {value:14.6g}  {unit}")
    if "speed" in plan:
        print("speed " + json.dumps(plan["speed"]))
    if traced:
        print(f"  layer self times (s), {args.workload}:")
        for name in tracing.LAYERS:
            print(f"    {name:12s} {table[name]:12.6f}  {table[name] / table['root']:7.2%}")
        print(f"    {'sum':12s} {sum(table[k] for k in tracing.LAYERS):12.6f}")
        print(f"    {'root span':12s} {table['root']:12.6f}")
        print("  largest self times (s):")
        for name, seconds in top[:12]:
            print(f"    {name:36s} {seconds:12.6f}")
        print(f"  tracing overhead: {layer['trace.overhead_s']:.3f} s over "
              f"{plan['wall_s']:.3f} s traced ({layer['trace.overhead_frac']:.1%}), "
              f"{layer['trace.spans']} spans")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if traced:
        wanted, values = spec["per_layer"], layer
    else:
        wanted = spec["end_to_end"]
        values = {**common, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "plan": plan, "report": {k: v[0] for k, v in report.items()},
         **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
