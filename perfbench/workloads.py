"""The three benchmark workloads.

Each is one process running a closed loop with one caller: the next
operation starts when the previous one has returned. A workload has a
`setup` (data generation, encoding, dataset write, fixture load and a
warm-up; timed as setup_s) and a `measure` that runs operations either for
a time budget or, when replaying, for a given plan of operation counts.
`measure` returns the plan it ran, so a traced run can replay exactly the
same work untraced to obtain the tracing overhead. Operations are kept as
(start, wall seconds), and `finish` reports them through `run.speed.scaled`.

All package calls go through module attributes (`events.parse_dat`, not a
name imported at load time), so that the tracer's wrappers are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from speed import WallClock
from spikedse import checkpoint, cli, costs, dse, events, network, quantize, training

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture" / "infer_atis_w50_t10.ckpt"
FIXTURE_META = HERE / "fixture" / "infer_atis_w50_t10.json"

ATIS = {"sensor_width": events.DEFAULT_SENSOR_WIDTH,
        "sensor_height": events.DEFAULT_SENSOR_HEIGHT}


class Run:
    """Per-run bookkeeping: operation and check outcomes, optional tracer,
    and the clock that scales wall times (speed.SpeedProbe or WallClock)."""

    def __init__(self, seed: int, workdir: Path, tracer=None, speed=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.speed = speed if speed is not None else WallClock()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def phase(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"bench.{name}")

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed {detail}".rstrip())
        return ok

    def attempt(self, label: str, fn, *args, **kwargs):
        """One operation; an exception fails it and the loop goes on."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(label)
        try:
            return fn(*args, **kwargs)
        except Exception:  # the loop must keep running; the failure is reported
            self.failed += 1
            self.failures.append(f"{label} raised:\n{traceback.format_exc()}")
            return None


def repeat(budget_s: float | None, count: int | None, fn) -> list[tuple[float, float]]:
    """(start, duration) of calls to fn(i): `count` calls, or calls within a budget.

    With a budget, another call is started only while half the last
    call's duration still fits, so a run overruns by at most about half a
    call; at least one call is always made.
    """
    calls: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        if count is not None:
            if len(calls) == count:
                break
        elif calls and time.perf_counter() - start + calls[-1][1] / 2 > budget_s:
            break
        t0 = time.perf_counter()
        fn(len(calls))
        calls.append((t0, time.perf_counter() - t0))
    return calls


# ---------------------------------------------------------------------------
# train_desk
# ---------------------------------------------------------------------------

class TrainDesk:
    """Criterion-6 training: 64x64 synthetic data, W=50, T=10, 200/100."""

    name = "train_desk"
    EPOCHS = 2  # per train call; test accuracy is 1.0 from epoch 2 on

    def config(self, epochs: int) -> training.TrainConfig:
        return training.TrainConfig(epochs=epochs, batch_size=20, learning_rate=0.1,
                                    momentum=0.9, seed=123, timesteps=10, window=50)

    def setup(self, run: Run) -> dict:
        train_s, test_s = events.make_synthetic_dataset(per_class=150, seed=run.seed)
        train_data = events.encode_dataset(train_s, 50, 10)
        test_data = events.encode_dataset(test_s, 50, 10)
        net = network.build_network(50)
        training.train(net, train_data[:20], self.config(1), test_data=test_data[:10])
        return {"net": net, "train": train_data, "test": test_data, "calls": []}

    def measure(self, run: Run, state: dict, budget_s: float | None, plan=None) -> dict:
        calls = state["calls"]

        def call(i):
            log_path = run.workdir / f"train_log_{len(calls)}.csv"
            t0 = time.perf_counter()
            result = run.attempt(f"train{len(calls)}", training.train, state["net"],
                                 state["train"], self.config(self.EPOCHS),
                                 test_data=state["test"], log_path=log_path,
                                 workers=1)
            calls.append((t0, time.perf_counter() - t0, result, log_path))

        ops = repeat(budget_s, None if plan is None else plan["calls"], call)
        return {"calls": len(calls), "op_s": [dt for _, dt in ops]}

    def finish(self, run: Run, state: dict) -> tuple[dict, dict]:
        calls = [c for c in state["calls"] if c[2] is not None]
        accuracies = set()
        for _, _, (_, log), log_path in calls:
            run.check("one log row per epoch",
                      len(log) == self.EPOCHS
                      and len(log_path.read_text().splitlines()) == self.EPOCHS + 1)
            run.check("finite epoch losses", all(math.isfinite(s.loss) for s in log))
            accuracies.add(log[-1].test_acc if log else float("nan"))
        run.check("train calls agree", len(accuracies) == 1, str(accuracies))
        train_s = [run.speed.scaled(t0, dt) for t0, dt, _, _ in calls] or [float("nan")]
        wall_s = [dt for _, dt, _, _ in calls] or [float("nan")]
        epoch_s = statistics.median(train_s) / self.EPOCHS
        accuracy = min(accuracies) if accuracies else float("nan")
        common = {
            "op_ms_p50": 1000 * epoch_s,
            "items_per_s": len(state["train"]) / epoch_s,
            "accuracy": accuracy,
        }
        report = {
            "train_epoch_s": (epoch_s, "s"),
            "train_epoch_s_wall": (statistics.median(wall_s) / self.EPOCHS, "s, unscaled"),
            "accuracy": (accuracy, "fraction"),
            "train_calls": (len(calls), f"count, {self.EPOCHS} epochs each"),
        }
        return common, report


# ---------------------------------------------------------------------------
# infer_atis
# ---------------------------------------------------------------------------

class InferAtis:
    """Per-request classification of ATIS-geometry DAT bytes."""

    name = "infer_atis"
    RECORDINGS = 144
    EVAL_CHUNK = 24  # recordings per `evaluate` call
    BITS = 10

    def setup(self, run: Run) -> dict:
        samples, _ = events.make_synthetic_dataset(
            per_class=self.RECORDINGS // 2, seed=run.seed, test_fraction=0.0, **ATIS)
        requests = [(events.write_dat(s), s.label) for s in samples]
        del samples
        expected = json.loads(FIXTURE_META.read_text())["sha256"]
        actual = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
        if actual != expected:
            raise RuntimeError(f"fixture {FIXTURE.name} sha256 {actual} != {expected}")
        spec, weights, _ = checkpoint.load_checkpoint(FIXTURE)
        qconfig = quantize.QuantConfig(bits=self.BITS)
        qweights = quantize.ptq(weights, qconfig)
        state = {"spec": spec, "weights": qweights, "qconfig": qconfig,
                 "requests": requests, "latency": [], "passes": [],
                 "predicted": [], "frames": None, "evals": []}
        warm = [(self.request(state, dat)[1], label) for dat, label in requests[:2]]
        training.evaluate(spec, qweights, warm, quant=qconfig)
        return state

    def request(self, state: dict, dat: bytes):
        sample = events.parse_dat(dat)
        frames = events.encode_sample(sample, state["spec"].input_window, 10)
        counts = network.forward(state["spec"], state["weights"], frames).counts
        predicted, _ = network.decode(counts, frames.timesteps)
        return predicted, frames

    def measure(self, run: Run, state: dict, budget_s: float | None, plan=None) -> dict:
        """Rounds of one pass of requests over all recordings, then
        `evaluate` over their frames in chunks, so that both phases sample
        the same machine state."""
        requests = state["requests"]

        def one_round(r):
            predicted, frames = [], []
            t_pass = time.perf_counter()
            for i, (dat, _) in enumerate(requests):
                t0 = time.perf_counter()
                out = run.attempt(f"round{r}/request{i}", self.request, state, dat)
                state["latency"].append((t0, time.perf_counter() - t0))
                predicted.append(None if out is None else out[0])
                frames.append(None if out is None else out[1])
            state["passes"].append((t_pass, time.perf_counter() - t_pass))
            state["predicted"].append(predicted)
            if state["frames"] is None:
                state["frames"] = frames
            for lo in range(0, len(requests), self.EVAL_CHUNK):
                data = [(f, label) for f, (_, label) in
                        zip(state["frames"][lo:lo + self.EVAL_CHUNK],
                            requests[lo:lo + self.EVAL_CHUNK]) if f is not None]
                t0 = time.perf_counter()
                acc = run.attempt(f"round{r}/evaluate{lo}", training.evaluate,
                                  state["spec"], state["weights"], data,
                                  quant=state["qconfig"])
                state["evals"].append((t0, time.perf_counter() - t0, len(data), acc, lo))

        rounds = repeat(budget_s, None if plan is None else plan["rounds"], one_round)
        return {"rounds": len(rounds), "op_s": [dt for _, dt in rounds]}

    def finish(self, run: Run, state: dict) -> tuple[dict, dict]:
        labels = [label for _, label in state["requests"]]
        hits = n_requests = 0
        for predicted in state["predicted"]:
            for p, label in zip(predicted, labels):
                n_requests += 1
                if p is not None:  # a failed request is already counted
                    run.check("request decodes to a class", p in (0, 1), repr(p))
                hits += p == label
        run.check("passes agree", all(p == state["predicted"][0] for p in state["predicted"]))
        accuracy = hits / n_requests if n_requests else float("nan")
        first = state["predicted"][0] if state["predicted"] else []
        for _, _, _, acc, lo in state["evals"]:
            chunk = [p == label for p, label in zip(first[lo:lo + self.EVAL_CHUNK],
                                                    labels[lo:lo + self.EVAL_CHUNK])
                     if p is not None]
            expected = sum(chunk) / len(chunk) if chunk else None
            run.check("request accuracy equals evaluate accuracy", acc == expected,
                      f"recordings {lo}+: {expected} vs {acc}")
        scaled = run.speed.scaled
        latency_ms = [1000 * scaled(t0, dt) for t0, dt in state["latency"]]
        p50, p90 = (float(v) for v in np.percentile(latency_ms, [50, 90]))
        eval_per_s = [n / scaled(t0, dt) for t0, dt, n, _, _ in state["evals"]]
        infer_per_s = n_requests / sum(scaled(t0, dt) for t0, dt in state["passes"])
        common = {
            "op_ms_p50": p50,
            "items_per_s": statistics.median(eval_per_s),
            "accuracy": accuracy,
        }
        beyond = sum(1 for t in latency_ms if t > p90)
        wall_ms = [1000 * dt for _, dt in state["latency"]]
        report = {
            "infer_per_s": (infer_per_s, "1/s"),
            "infer_latency_ms_p50": (p50, "ms"),
            "infer_latency_ms_p50_wall": (statistics.median(wall_ms), "ms, unscaled"),
            "infer_latency_ms_p90": (p90, "ms"),
            "requests": (n_requests, f"count, {beyond} beyond p90"),
            "eval_samples_per_s": (statistics.median(eval_per_s), "1/s"),
            "eval_samples_per_s_wall": (
                statistics.median(n / dt for _, dt, n, _, _ in state["evals"]),
                "1/s, unscaled"),
            "evaluate_calls": (len(eval_per_s), f"count, {self.EVAL_CHUNK} samples each"),
            "accuracy": (accuracy, "fraction"),
        }
        return common, report


# ---------------------------------------------------------------------------
# dse_live
# ---------------------------------------------------------------------------

class DseLive:
    """`spikedse --workers 2 dse --accuracy-source live` on a DAT directory."""

    name = "dse_live"
    PER_CLASS = 24  # 24 train / 24 test recordings
    GRID = {"bits": [32, 16, 10, 4], "timesteps": [20, 5], "windows": [100, 50]}
    TRAIN_CONFIG = {"epochs": 1, "seed": 0, "batch_size": 4}
    CONSTRAINTS = {"max_memory_mb": 8, "max_latency_ratio": 0.25}

    def setup(self, run: Run) -> dict:
        data_dir = run.workdir / "dse_data"
        shutil.rmtree(data_dir, ignore_errors=True)
        train_s, test_s = events.make_synthetic_dataset(
            per_class=self.PER_CLASS, seed=run.seed, test_fraction=0.5, **ATIS)
        events.write_dataset({"train": train_s, "test": test_s}, data_dir)
        grid = run.workdir / "grid.json"
        grid.write_text(json.dumps(self.GRID))
        train_config = run.workdir / "train_config.json"
        train_config.write_text(json.dumps(self.TRAIN_CONFIG))
        net = network.build_network(100)
        frames = events.encode_sample(test_s[0], 100, 5)
        network.forward(net, network.init_weights(net, 0), frames)
        return {"data": data_dir, "grid": grid, "train_config": train_config,
                "calls": []}

    def argv(self, state: dict, out: Path) -> list[str]:
        return ["--workers", "2", "dse", "--accuracy-source", "live",
                "--data", str(state["data"]), "--train-config", str(state["train_config"]),
                "--grid", str(state["grid"]), "--constraints", json.dumps(self.CONSTRAINTS),
                "--out", str(out)]

    def measure(self, run: Run, state: dict, budget_s: float | None, plan=None) -> dict:
        calls = state["calls"]

        def call(i):
            out = run.workdir / f"dse_out_{len(calls)}"
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = run.attempt(f"dse{len(calls)}", cli.main, self.argv(state, out))
            calls.append((t0, time.perf_counter() - t0, rc, out))

        ops = repeat(budget_s, None if plan is None else plan["calls"], call)
        return {"calls": len(calls), "op_s": [dt for _, dt in ops]}

    def finish(self, run: Run, state: dict) -> tuple[dict, dict]:
        constants = costs.default_constants()
        specs = {w: network.build_network(w) for w in self.GRID["windows"]}
        settings = {(b, t, w) for b in self.GRID["bits"]
                    for t in self.GRID["timesteps"] for w in self.GRID["windows"]}
        mean_accuracies = []
        max_accuracy = 0.0
        for _, _, rc, out in state["calls"]:
            if not run.check("cli exits 0", rc == 0, f"rc={rc}"):
                continue
            points = dse.parse_report(out / "dse_results.csv")
            run.check("one row per grid point",
                      sorted((p.bits, p.timesteps, p.window) for p in points)
                      == sorted(settings))
            for p in points:
                ref = costs.full_report(specs[p.window], p.bits, p.timesteps,
                                        p.window, constants)
                row = (p.cost.memory_bits, p.cost.latency_units, p.cost.energy_units,
                       p.cost.latency_ratio, p.cost.op_count.synaptic_ops,
                       p.cost.op_count.neuron_ops)
                expected = (ref.memory_bits, ref.latency_units, ref.energy_units,
                            ref.latency_ratio, ref.op_count.synaptic_ops,
                            ref.op_count.neuron_ops)
                run.check(f"analytic columns of {p.tag}", row == expected)
            with open(out / "dse_results.csv") as fh:
                results = set(fh.read().splitlines()[1:])
            with open(out / "pareto.csv") as fh:
                pareto = fh.read().splitlines()[1:]
            run.check("pareto rows are results rows", set(pareto) <= results)
            selection = out / "selection.json"
            run.check("selection.json written", selection.is_file()
                      and json.loads(selection.read_text())["selected"] is not None)
            if points:
                mean_accuracies.append(statistics.fmean(p.accuracy for p in points))
                max_accuracy = max(max_accuracy, *(p.accuracy for p in points))
        run.check("dse calls agree", len(set(mean_accuracies)) == 1, str(mean_accuracies))
        run.check("some grid point beats chance", max_accuracy > 0.5, str(max_accuracy))
        ok = [(t0, dt) for t0, dt, rc, _ in state["calls"] if rc == 0]
        dse_s = statistics.median([run.speed.scaled(t0, dt) for t0, dt in ok] or [float("nan")])
        accuracy = mean_accuracies[0] if mean_accuracies else float("nan")
        common = {
            "op_ms_p50": 1000 * dse_s,
            "items_per_s": len(settings) / dse_s,
            "accuracy": accuracy,
        }
        report = {
            "dse_s": (dse_s, "s"),
            "dse_s_wall": (statistics.median([dt for _, dt in ok] or [float("nan")]),
                           "s, unscaled"),
            "dse_calls": (len(state["calls"]), f"count, {len(settings)} grid points each"),
            "accuracy": (accuracy, "fraction, mean over grid points"),
        }
        return common, report


WORKLOADS = {w.name: w for w in (TrainDesk, InferAtis, DseLive)}
