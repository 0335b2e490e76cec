"""Command-line entry point.

Subcommands: dataset (gen | inspect), train, quantize, eval, dse,
complexity. Every run that writes artifacts also writes a run.json, so
any output directory can be reproduced from that file alone: train echoes
its config file plus out and workers, every other command all of its
parsed flags. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .costs import CostConstants, default_constants, full_report
from .dse import (
    Constraints,
    DseGrid,
    NoFeasiblePoint,
    emit_report,
    load_accuracy_table,
    run_dse,
    select,
)
from .errors import ConfigError, SpikeDseError
from .events import (
    WINDOW_MODES,
    EventSample,
    bin_to_frames,
    crop_to_window,
    encode_dataset,
    load_dataset,
    make_synthetic_dataset,
    read_event_file,
    write_dataset,
)
from .network import build_network
from .quantize import QuantConfig, ptq
from .training import TrainConfig, evaluate, train, write_training_log


def _flags(args: argparse.Namespace) -> dict:
    """Every parsed flag, global ones included, with out as a path string."""
    flags = {k: v for k, v in vars(args).items()
             if k not in ("func", "command", "dataset_command")}
    flags["out"] = str(Path(flags["out"]))
    return flags


def _write_run_json(out_dir: Path, command: str, config: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, "config": config}
    (out_dir / "run.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n"
    )


def _load_constants(path: str | None) -> CostConstants:
    return CostConstants.from_json(path) if path else default_constants()


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

# `dataset gen`'s flags and a config's "synthetic" block share these keys.
_SYNTHETIC_DEFAULTS = {"per_class": 150, "seed": 0, "test_fraction": 1.0 / 3.0,
                       "sensor": 64, "duration": 100_000, "noise_events": 1024}


def _synthetic(settings: dict, source: str) -> tuple[list, list]:
    """Synthetic (train, test) splits; a value the generator rejects raises
    ConfigError naming source."""
    s = {**_SYNTHETIC_DEFAULTS, **settings}
    with ConfigError.guard(source):
        return make_synthetic_dataset(
            per_class=s["per_class"],
            seed=s["seed"],
            test_fraction=s["test_fraction"],
            sensor_width=s["sensor"],
            sensor_height=s["sensor"],
            duration_us=s["duration"],
            noise_events=s["noise_events"],
        )


def cmd_dataset_gen(args) -> int:
    train_split, test_split = _synthetic(vars(args), "dataset gen")
    out = Path(args.out)
    write_dataset({"train": train_split, "test": test_split}, out)
    _write_run_json(out, "dataset gen", _flags(args))
    print(f"wrote {len(train_split)} train / {len(test_split)} test samples to {out}")
    return 0


def cmd_dataset_inspect(args) -> int:
    sample = read_event_file(args.file)
    ev = sample.events
    summary = {
        "file": str(Path(args.file)),
        "events": sample.n_events,
        "sensor": [sample.sensor_width, sample.sensor_height],
        "duration_us": sample.duration_us,
        "label": sample.label,
        "t_range": [int(ev["t"].min()), int(ev["t"].max())] if sample.n_events else None,
        "positive_fraction": float(ev["p"].mean()) if sample.n_events else None,
    }
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# train / quantize / eval
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict:
    with ConfigError.guard(f"config {path}"):
        return dict(json.loads(Path(path).read_text()))


def _strict(raw: dict) -> bool:
    """A train config's "strict" key (default true): build only the
    reference windows' networks."""
    strict = raw.get("strict", True)
    if not isinstance(strict, bool):
        raise ConfigError(f'"strict" must be true or false, got {strict!r}')
    return strict


def _load_splits(data_cfg: dict | None, workers: int) -> tuple[list, list, str]:
    """The raw (train, test) samples a config's data block names, and its
    window_mode."""
    if not isinstance(data_cfg, dict) or not {"dir", "synthetic"} & data_cfg.keys():
        raise ConfigError(
            'the config needs a data block with "dir" or "synthetic" (dse: or --data)'
        )
    mode = data_cfg.get("window_mode", "per_sample")
    if mode not in WINDOW_MODES:
        raise ConfigError(f"data block: unknown window_mode {mode!r}")
    if "dir" in data_cfg:
        root = data_cfg["dir"]
        if not isinstance(root, str):
            raise ConfigError(f'data block: "dir" must be a string, got {root!r}')
        train_split = load_dataset(root, "train", workers=workers)
        test_split = load_dataset(root, "test", workers=workers)
        return train_split, test_split, mode
    syn = data_cfg["synthetic"]
    if not isinstance(syn, dict):
        raise ConfigError(f'data block: "synthetic" must be an object, got {syn!r}')
    return (*_synthetic(syn, "data block synthetic"), mode)


def cmd_train(args) -> int:
    raw = _read_config(args.config)
    config = TrainConfig.from_dict(raw)
    strict = _strict(raw)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_samples, test_samples, mode = _load_splits(raw.get("data"), args.workers)
    train_data, test_data = (
        encode_dataset(split, config.window, config.timesteps, window_mode=mode)
        for split in (train_samples, test_samples)
    )
    net = build_network(config.window, strict=strict)
    weights, log = train(
        net,
        train_data,
        config,
        test_data=test_data,
        checkpoint_dir=out if config.checkpoint_every else None,
    )
    save_checkpoint(out / "weights.ckpt", net, weights, seed=config.seed)
    write_training_log(log, out / "training_log.csv")
    _write_run_json(out, "train", {**raw, "out": str(out), "workers": args.workers})
    final = log[-1].test_acc if log else float("nan")
    print(f"trained {config.epochs} epochs; final test accuracy {final:.4f}")
    return 0


def cmd_quantize(args) -> int:
    spec, weights, header = load_checkpoint(args.checkpoint)
    config = QuantConfig(bits=args.bits, rounding=args.rounding, seed=args.seed)
    quantized = ptq(weights, config)
    out = Path(args.out)
    save_checkpoint(
        out,
        spec,
        quantized,
        seed=header.get("seed"),
        precision=config.tag,
    )
    _write_run_json(out.parent, "quantize", _flags(args))
    print(f"quantized to {args.bits}-bit ({args.rounding}) -> {out}")
    return 0


def cmd_eval(args) -> int:
    spec, weights, _ = load_checkpoint(args.checkpoint)
    test_samples = load_dataset(args.data, args.split, workers=args.workers)
    timesteps = args.timesteps
    data = encode_dataset(
        test_samples, spec.input_window, timesteps, window_mode=args.window_mode
    )
    accuracy = evaluate(spec, weights, data)
    print(json.dumps({"accuracy": accuracy, "samples": len(data)}))
    return 0


# ---------------------------------------------------------------------------
# dse / complexity
# ---------------------------------------------------------------------------

def cmd_dse(args) -> int:
    grid = DseGrid.from_json(args.grid) if args.grid else DseGrid()
    constants = _load_constants(args.constants)
    constraints = Constraints.from_json(args.constraints) if args.constraints else None
    out = Path(args.out)

    if args.accuracy_source == "table":
        table = load_accuracy_table(args.accuracy_table)
        points = run_dse(None, None, grid, constants, accuracy_table=table)
    else:
        raw = {"epochs": 5, "seed": 0}
        if args.train_config:
            raw = _read_config(args.train_config)
        if args.data:  # the directory overrides the data block's, other keys stay
            data = raw.get("data", {})
            raw["data"] = {**data, "dir": args.data} if isinstance(data, dict) else data
        # Check the config and every window before loading or cropping.
        strict = _strict(raw)
        nets = {w: build_network(w, strict=strict) for w in grid.windows}
        configs = {
            (t, w): TrainConfig.from_dict({**raw, "timesteps": t, "window": w})
            for w in grid.windows
            for t in grid.timesteps
        }
        train_samples, test_samples, mode = _load_splits(raw.get("data"), args.workers)
        # The window search depends only on W, and T only changes the
        # binning: crop each sample once per W, then bin the crops per T.
        cropped = {
            w: [
                [crop_to_window(s, w, window_mode=mode) for s in split]
                for split in (train_samples, test_samples)
            ]
            for w in grid.windows
        }
        del train_samples, test_samples
        baselines, encoded = {}, {}
        for w in list(cropped):
            train_crops, test_crops = cropped.pop(w)
            for t in grid.timesteps:
                weights, _ = train(nets[w], _binned(train_crops, t), configs[(t, w)])
                baselines[(t, w)] = weights
                encoded[(t, w)] = _binned(test_crops, t)
        points = run_dse(encoded, baselines, grid, constants, strict=strict)

    results_path, pareto_path = emit_report(points, out)
    selection = None
    if constraints is not None:
        try:
            chosen = select(points, constraints)
            selection = {
                "tag": chosen.tag,
                "accuracy": chosen.accuracy,
                "memory_bits": chosen.cost.memory_bits,
            }
        except NoFeasiblePoint:
            selection = None
        (out / "selection.json").write_text(
            json.dumps({"constraints": json.loads(args.constraints), "selected": selection},
                       indent=1, sort_keys=True) + "\n"
        )
    _write_run_json(out, "dse", _flags(args))
    print(f"wrote {results_path} and {pareto_path}")
    if selection:
        print(f"selected {selection['tag']}")
    return 0


def _binned(crops: list[EventSample], timesteps: int) -> list[tuple]:
    """(frames, label) pairs of samples already cropped to their window."""
    return [(bin_to_frames(s, timesteps), s.label) for s in crops]


def cmd_complexity(args) -> int:
    constants = _load_constants(args.constants)
    spec = build_network(args.window, strict=args.strict)
    report = full_report(spec, args.bits, args.timestep, args.window, constants)
    payload = {
        "tag": report.tag,
        "bits": report.bits,
        "timesteps": report.timesteps,
        "window": report.window,
        "memory_bits": report.memory_bits,
        "latency_units": report.latency_units,
        "energy_units": report.energy_units,
        "synaptic_ops": report.op_count.synaptic_ops,
        "neuron_ops": report.op_count.neuron_ops,
        "per_layer": [asdict(p) for p in report.op_count.per_layer],
    }
    print(json.dumps(payload, indent=1, sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "complexity.json").write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        _write_run_json(out, "complexity", _flags(args))
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _bounded_int(low: int, high: int | None = None):
    """argparse type for an int in [low, high]; no upper limit without high."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f"in [{low}, {high}]" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"{value} must be {bound}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikedse",
        description="Spiking-network training, quantization and design-space exploration",
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="worker thread cap for dataset loading")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="generate or inspect event datasets")
    dataset_sub = p_dataset.add_subparsers(dest="dataset_command", required=True)

    p_gen = dataset_sub.add_parser("gen", help="write a synthetic dataset directory")
    p_gen.add_argument("--per-class", type=_bounded_int(0), required=True,
                       dest="per_class")
    p_gen.add_argument("--seed", type=_bounded_int(0), required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--test-fraction", type=float, dest="test_fraction",
                       default=_SYNTHETIC_DEFAULTS["test_fraction"])
    p_gen.add_argument("--sensor", type=_bounded_int(1),
                       default=_SYNTHETIC_DEFAULTS["sensor"])
    p_gen.add_argument("--duration", type=_bounded_int(1),
                       default=_SYNTHETIC_DEFAULTS["duration"])
    p_gen.add_argument("--noise-events", type=_bounded_int(0), dest="noise_events",
                       default=_SYNTHETIC_DEFAULTS["noise_events"])
    p_gen.set_defaults(func=cmd_dataset_gen)

    p_inspect = dataset_sub.add_parser("inspect", help="summarize one event file")
    p_inspect.add_argument("file")
    p_inspect.set_defaults(func=cmd_dataset_inspect)

    p_train = sub.add_parser("train", help="train from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_quant = sub.add_parser("quantize", help="post-training quantize a checkpoint")
    p_quant.add_argument("--checkpoint", required=True)
    p_quant.add_argument("--bits", type=_bounded_int(2, 32), required=True)
    p_quant.add_argument("--rounding", choices=["TR", "RN", "SR"], default="TR")
    p_quant.add_argument("--seed", type=_bounded_int(0), default=0)
    p_quant.add_argument("--out", required=True)
    p_quant.set_defaults(func=cmd_quantize)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", default="test")
    p_eval.add_argument("--timesteps", type=_bounded_int(1), required=True)
    p_eval.add_argument("--window-mode", default="per_sample", dest="window_mode",
                        choices=WINDOW_MODES)
    p_eval.set_defaults(func=cmd_eval)

    p_dse = sub.add_parser("dse", help="run the design-space exploration")
    p_dse.add_argument("--grid", help="grid JSON {bits, timesteps, windows}")
    p_dse.add_argument("--constants", help="cost constants JSON")
    p_dse.add_argument("--constraints", help='JSON like {"max_memory_mb": 8}')
    p_dse.add_argument("--accuracy-source", choices=["live", "table"],
                       default="table", dest="accuracy_source")
    p_dse.add_argument("--accuracy-table", dest="accuracy_table",
                       help="accuracy table JSON (defaults to bundled NCARS table)")
    p_dse.add_argument("--data", help="dataset directory for live accuracy mode")
    p_dse.add_argument("--train-config", dest="train_config",
                       help="training config for live accuracy mode")
    p_dse.add_argument("--out", required=True)
    p_dse.set_defaults(func=cmd_dse)

    p_cx = sub.add_parser("complexity", help="print the cost report for one setting")
    p_cx.add_argument("--window", type=int, required=True)
    p_cx.add_argument("--timestep", type=_bounded_int(1), required=True)
    p_cx.add_argument("--bits", type=_bounded_int(2, 32), default=32)
    p_cx.add_argument("--constants")
    p_cx.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                      help="accept only the reference windows (--no-strict: any)")
    p_cx.add_argument("--out")
    p_cx.set_defaults(func=cmd_complexity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SpikeDseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
