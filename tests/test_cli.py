"""CLI subcommands, exit codes, run.json, reproducibility."""

import dataclasses
import json
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path

import pytest

import spikedse as sd
from spikedse import cli
from spikedse.cli import main
from spikedse.errors import ConfigError


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = main([
        "dataset", "gen",
        "--per-class", "6",
        "--seed", "9",
        "--out", str(out),
    ])
    assert code == 0
    return out


def train_config(dataset_dir, **overrides):
    config = {
        "seed": 4,
        "epochs": 1,
        "batch_size": 4,
        "timesteps": 5,
        "window": 50,
        "data": {"dir": str(dataset_dir)},
    }
    config.update(overrides)
    return config


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["complexity", "--window", "50"]) == 2
        capsys.readouterr()

    def test_domain_error_returns_one(self, tmp_path, capsys):
        net = sd.build_network(50)
        ckpt = tmp_path / "w.ckpt"
        sd.save_checkpoint(ckpt, net, sd.init_weights(net, seed=0))
        code = main([
            "eval",
            "--checkpoint", str(ckpt),
            "--data", str(tmp_path),  # no manifest here
            "--timesteps", "5",
        ])
        assert code == 1
        assert "manifest" in capsys.readouterr().err

    def test_missing_file_returns_one(self, tmp_path, capsys):
        code = main([
            "eval",
            "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--data", str(tmp_path),
            "--timesteps", "5",
        ])
        assert code == 1
        capsys.readouterr()


class TestComplexity:
    def test_prints_cost_report_json(self, capsys):
        assert main(["complexity", "--window", "50", "--timestep", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tag"] == "32b_5t_50w"
        assert payload["synaptic_ops"] == 5 * 466_848
        assert payload["memory_bits"] == 32 * 51_552

    def test_bits_flag(self, capsys):
        assert main([
            "complexity", "--window", "100", "--timestep", "20", "--bits", "10",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tag"] == "10b_20t_100w"

    def test_no_strict_accepts_extended_window(self, capsys):
        assert main([
            "complexity", "--no-strict", "--window", "64", "--timestep", "5",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["window"] == 64

    def test_strict_by_default(self, capsys):
        assert main(["complexity", "--window", "64", "--timestep", "5"]) == 1
        assert "strict" in capsys.readouterr().err

    def test_out_dir_writes_run_json(self, tmp_path, capsys):
        out = tmp_path / "cx"
        assert main([
            "complexity", "--window", "50", "--timestep", "5", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        run = json.loads((out / "run.json").read_text())
        assert run["command"] == "complexity"
        assert (out / "complexity.json").exists()


class TestDataset:
    def test_gen_writes_manifest_and_run_json(self, dataset_dir):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert len(manifest) == 12
        splits = {e["split"] for e in manifest}
        assert splits == {"train", "test"}
        assert (dataset_dir / "run.json").exists()

    def test_gen_deterministic(self, tmp_path, capsys):
        args = ["dataset", "gen", "--per-class", "4", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        capsys.readouterr()
        for name in sorted(
            p.name for p in (tmp_path / "a").iterdir() if p.suffix == ".dat"
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_inspect(self, dataset_dir, capsys):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        target = dataset_dir / manifest[0]["file"]
        assert main(["dataset", "inspect", str(target)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0
        assert summary["sensor"] == [64, 64]

    def test_gen_past_uint32_timestamps_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["dataset", "gen", "--per-class", "1", "--seed", "0", "--duration",
                     str(2**32 + 1), "--out", str(out)]) == 1
        assert "2**32" in capsys.readouterr().err
        assert not out.exists()

    def test_inspect_upper_case_csv_suffix(self, tmp_path, capsys):
        path = tmp_path / "sample.CSV"
        path.write_text("t_us,x,y,p\n10,1,2,1\n20,3,4,0\n")
        assert main(["dataset", "inspect", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 2
        assert summary["t_range"] == [10, 20]
        assert summary["positive_fraction"] == 0.5

    def test_gen_matches_config_synthetic_block(self, tmp_path, capsys):
        settings = {"per_class": 3, "seed": 5, "test_fraction": 0.5, "sensor": 32,
                    "duration": 50_000, "noise_events": 100}
        out = tmp_path / "gen"
        assert main(["dataset", "gen", "--out", str(out)] + [
            arg
            for key, value in settings.items()
            for arg in (f"--{key.replace('_', '-')}", str(value))
        ]) == 0
        capsys.readouterr()
        generated = [list(sd.dataset_split(out, split)) for split in ("train", "test")]
        *from_block, mode = cli._load_splits({"synthetic": settings})
        assert mode == "per_sample"
        for written, built in zip(generated, from_block):
            assert len(written) == len(built) > 0
            for a, b in zip(written, built):
                assert a.label == b.label
                assert a.sensor_width == b.sensor_width == 32
                assert a.duration_us == b.duration_us == 50_000
                for col in ("t", "x", "y", "p"):
                    assert getattr(a, col).tobytes() == getattr(b, col).tobytes()


class TestTrainQuantEval:
    def test_full_flow(self, dataset_dir, tmp_path, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(train_config(dataset_dir)))
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(run_dir)]) == 0
        assert (run_dir / "weights.ckpt").exists()
        log_lines = (run_dir / "training_log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,train_acc,test_acc,loss"
        assert json.loads((run_dir / "run.json").read_text())["command"] == "train"

        qpath = tmp_path / "w10.ckpt"
        assert main([
            "quantize",
            "--checkpoint", str(run_dir / "weights.ckpt"),
            "--bits", "10",
            "--out", str(qpath),
        ]) == 0
        _, qweights, header = sd.load_checkpoint(qpath)
        assert header["quant"]["bits"] == 10

        assert main([
            "eval",
            "--checkpoint", str(qpath),
            "--data", str(dataset_dir),
            "--timesteps", "5",
        ]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(out_lines[-1])
        assert 0.0 <= result["accuracy"] <= 1.0

    def test_same_seed_byte_identical_checkpoints(self, dataset_dir, tmp_path, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(train_config(dataset_dir)))
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", str(config_path), "--out", str(r1)]) == 0
        assert main(["train", "--config", str(config_path), "--out", str(r2)]) == 0
        capsys.readouterr()
        assert (r1 / "weights.ckpt").read_bytes() == (r2 / "weights.ckpt").read_bytes()
        assert (r1 / "training_log.csv").read_text() == (
            r2 / "training_log.csv"
        ).read_text()

    def test_worker_count_does_not_change_bytes(self, dataset_dir, tmp_path, capsys):
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(train_config(dataset_dir)))
        r1, r2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["train", "--config", str(config_path), "--out", str(r1)]) == 0
        assert main([
            "--workers", "3", "train", "--config", str(config_path), "--out", str(r2),
        ]) == 0
        capsys.readouterr()
        assert (r1 / "weights.ckpt").read_bytes() == (r2 / "weights.ckpt").read_bytes()

    def test_inputs_not_mutated(self, dataset_dir, tmp_path, capsys):
        import hashlib

        before = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in dataset_dir.iterdir()
        }
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(train_config(dataset_dir)))
        main(["train", "--config", str(config_path), "--out", str(tmp_path / "r")])
        capsys.readouterr()
        after = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in dataset_dir.iterdir()
        }
        assert before == after

    @pytest.mark.parametrize("cut", ["500 bytes", "half"])
    def test_truncated_checkpoint_is_domain_error(self, tmp_path, capsys, cut):
        net = sd.build_network(50)
        path = tmp_path / "w.ckpt"
        sd.save_checkpoint(path, net, sd.init_weights(net, seed=0))
        blob = path.read_bytes()
        path.write_bytes(blob[: 500 if cut == "500 bytes" else len(blob) // 2])
        code = main([
            "eval", "--checkpoint", str(path), "--data", str(tmp_path),
            "--timesteps", "5",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestDseCommand:
    def test_table_mode_with_selection(self, tmp_path, capsys):
        out = tmp_path / "dse"
        code = main([
            "dse",
            "--constraints", '{"max_memory_mb": 8, "max_latency_ratio": 0.25}',
            "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        assert (out / "dse_results.csv").exists()
        assert (out / "pareto.csv").exists()
        selection = json.loads((out / "selection.json").read_text())
        assert selection["selected"]["tag"] == "10b_5t_100w"
        assert (out / "run.json").exists()

    def test_accuracy_table_outside_unit_interval_is_domain_error(self, tmp_path, capsys):
        table = {**sd.load_accuracy_table(), "32b_20t_100w": float("nan"),
                 "10b_5t_50w": 1.7}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        out = tmp_path / "out"
        assert main(["dse", "--accuracy-table", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "accuracies must be in [0, 1]" in err
        assert "Traceback" not in err
        assert not (out / "dse_results.csv").exists()

    def test_reruns_byte_identical(self, tmp_path, capsys):
        args = ["dse", "--constraints", '{"max_memory_mb": 1, "max_latency_ratio": 0.25}']
        o1, o2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        capsys.readouterr()
        for name in ("dse_results.csv", "pareto.csv", "selection.json"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()
        selection = json.loads((o1 / "selection.json").read_text())
        assert selection["selected"]["tag"] == "10b_5t_50w"

    def test_no_feasible_point_selects_null(self, tmp_path, capsys):
        out = tmp_path / "dse"
        constraints = '{"max_memory_mb": 1, "min_accuracy": 0.99}'
        assert main(["dse", "--constraints", constraints, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert not any(line.startswith("selected") for line in printed)
        selection = json.loads((out / "selection.json").read_text())
        assert selection == {"constraints": json.loads(constraints), "selected": None}

    def test_custom_grid(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "bits": [32, 10], "timesteps": [20, 5], "windows": [50],
        }))
        out = tmp_path / "dse"
        assert main(["dse", "--grid", str(grid_path), "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "dse_results.csv").read_text().splitlines()
        assert len(lines) == 1 + 4

    def test_live_mode_end_to_end(self, dataset_dir, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "bits": [32, 10], "timesteps": [5], "windows": [50],
        }))
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(train_config(dataset_dir)))
        out = tmp_path / "dse"
        code = main([
            "dse",
            "--grid", str(grid_path),
            "--accuracy-source", "live",
            "--train-config", str(config_path),
            "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        rows = (out / "dse_results.csv").read_text().splitlines()
        assert len(rows) == 1 + 2
        assert "live" in rows[1]

    def test_live_mode_with_data_flag(self, dataset_dir, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "bits": [32], "timesteps": [5], "windows": [50],
        }))
        out = tmp_path / "dse"
        code = main([
            "dse",
            "--grid", str(grid_path),
            "--accuracy-source", "live",
            "--data", str(dataset_dir),
            "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        assert (out / "dse_results.csv").exists()

    def test_live_mode_without_data_is_domain_error(self, tmp_path, capsys):
        code = main([
            "dse", "--accuracy-source", "live", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        capsys.readouterr()

    def test_live_mode_passes_lr_decay_to_training(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        seen = []
        real_train = cli.train

        def recording_train(net, data, config, **kwargs):
            seen.append(config)
            return real_train(net, data, config, **kwargs)

        monkeypatch.setattr(cli, "train", recording_train)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "bits": [32], "timesteps": [5], "windows": [50],
        }))
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(
            train_config(dataset_dir, lr_decay_epoch=0, lr_decay_factor=0.5)
        ))
        code = main([
            "dse",
            "--grid", str(grid_path),
            "--accuracy-source", "live",
            "--train-config", str(config_path),
            "--out", str(tmp_path / "dse"),
        ])
        assert code == 0
        capsys.readouterr()
        assert [(c.lr_decay_epoch, c.lr_decay_factor) for c in seen] == [(0, 0.5)]
        assert (seen[0].timesteps, seen[0].window) == (5, 50)

    def test_data_flag_keeps_config_window_mode(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        modes = []
        real_crop = cli.crop_to_window

        def spying_crop(sample, window_size, *, window_mode):
            modes.append(window_mode)
            return real_crop(sample, window_size, window_mode=window_mode)

        monkeypatch.setattr(cli, "crop_to_window", spying_crop)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "bits": [32], "timesteps": [5], "windows": [50],
        }))
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps({
            "epochs": 1, "seed": 0, "batch_size": 4,
            "data": {"window_mode": "center"},
        }))
        code = main([
            "dse",
            "--grid", str(grid_path),
            "--accuracy-source", "live",
            "--data", str(dataset_dir),
            "--train-config", str(config_path),
            "--out", str(tmp_path / "dse"),
        ])
        assert code == 0
        capsys.readouterr()
        assert modes and set(modes) == {"center"}

    def test_data_flag_replaces_a_synthetic_block(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        crops = []
        real_crop = cli.crop_to_window

        def spying_crop(sample, window_size, *, window_mode):
            crops.append((sample.sensor_width, window_mode))
            return real_crop(sample, window_size, window_mode=window_mode)

        monkeypatch.setattr(cli, "crop_to_window", spying_crop)
        (tmp_path / "grid.json").write_text(
            '{"bits": [32], "timesteps": [5], "windows": [50]}')
        (tmp_path / "train.json").write_text(json.dumps({
            "epochs": 1, "seed": 0, "batch_size": 4,
            "data": {"synthetic": {"per_class": 1, "sensor": 80}, "window_mode": "center"},
        }))
        assert main([
            "dse", "--grid", str(tmp_path / "grid.json"), "--accuracy-source", "live",
            "--data", str(dataset_dir), "--train-config", str(tmp_path / "train.json"),
            "--out", str(tmp_path / "dse"),
        ]) == 0
        capsys.readouterr()
        # the directory's 12 recordings of a 64-pixel sensor, in center mode
        assert crops == [(64, "center")] * 12

    def test_live_mode_checks_train_config_before_cropping(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        crops = []
        monkeypatch.setattr(cli, "crop_to_window", lambda *a, **k: crops.append(a))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "bits": [32], "timesteps": [5], "windows": [50],
        }))
        config_path = tmp_path / "train.json"
        config_path.write_text(
            json.dumps(train_config(dataset_dir, learning_rate=float("nan")))
        )
        assert main([
            "dse", "--grid", str(grid_path), "--accuracy-source", "live",
            "--train-config", str(config_path), "--out", str(tmp_path / "dse"),
        ]) == 1
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert crops == []

    @pytest.mark.parametrize("strict,code", [(False, 0), (True, 1)])
    def test_live_mode_honours_strict(
        self, dataset_dir, tmp_path, capsys, monkeypatch, strict, code
    ):
        crops = []
        real_crop = cli.crop_to_window

        def counting_crop(sample, window_size, *, window_mode):
            crops.append(window_size)
            return real_crop(sample, window_size, window_mode=window_mode)

        monkeypatch.setattr(cli, "crop_to_window", counting_crop)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "bits": [32], "timesteps": [3], "windows": [64],
        }))
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(
            train_config(dataset_dir, strict=strict, timesteps=3)
        ))
        out = tmp_path / "dse"
        assert main([
            "dse", "--grid", str(grid_path), "--accuracy-source", "live",
            "--train-config", str(config_path), "--out", str(out),
        ]) == code
        err = capsys.readouterr().err
        if strict:
            assert "strict mode supports windows [50, 100], got 64" in err
            assert crops == []
        else:
            assert crops and set(crops) == {64}
            rows = (out / "dse_results.csv").read_text().splitlines()
            assert len(rows) == 2 and rows[1].startswith("32b_3t_64w,")

    @pytest.mark.parametrize("mode", ["per_sample", "center"])
    def test_live_mode_loads_once_and_matches_direct_pipeline(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        data = tmp_path / "data"
        assert main([
            "dataset", "gen", "--per-class", "6", "--seed", "4", "--sensor", "112",
            "--out", str(data),
        ]) == 0
        parsed = []
        real_parse = sd.events.parse_dat

        def counting_parse(data):
            parsed.append(bytes(data))
            return real_parse(data)

        monkeypatch.setattr(sd.events, "parse_dat", counting_parse)
        grid = {"bits": [32, 10], "timesteps": [6, 3], "windows": [100, 50]}
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        raw = {"epochs": 1, "seed": 2, "batch_size": 4,
               "data": {"dir": str(data), "window_mode": mode}}
        config_path = tmp_path / "train.json"
        config_path.write_text(json.dumps(raw))
        assert main([
            "dse", "--grid", str(grid_path), "--accuracy-source", "live",
            "--train-config", str(config_path), "--out", str(tmp_path / "cli"),
        ]) == 0
        capsys.readouterr()
        # every recording is parsed exactly once, for both windows
        manifest = json.loads((data / "manifest.json").read_text())
        assert sorted(parsed) == sorted((data / e["file"]).read_bytes() for e in manifest)

        train_s, test_s = (list(sd.dataset_split(data, split)) for split in ("train", "test"))
        baselines, encoded = {}, {}
        for w in grid["windows"]:
            for t in grid["timesteps"]:
                cfg = sd.TrainConfig.from_dict({**raw, "timesteps": t, "window": w})
                train_data = sd.encode_dataset(train_s, w, t, window_mode=mode)
                baselines[(t, w)], _ = sd.train(sd.build_network(w), train_data, cfg)
                encoded[(t, w)] = sd.encode_dataset(test_s, w, t, window_mode=mode)
        points = sd.run_dse(
            encoded, baselines, sd.DseGrid(**{k: tuple(v) for k, v in grid.items()}),
            sd.default_constants(),
        )
        sd.emit_report(points, tmp_path / "direct")
        for name in ("dse_results.csv", "pareto.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (
                tmp_path / "direct" / name
            ).read_bytes()


NEGATIVE_FIXED = json.dumps(
    {**dataclasses.asdict(sd.default_constants()), "latency_fixed": -1}
)
COMPLEXITY = ["complexity", "--window", "50", "--timestep", "5"]
TRAIN = ["train", "--config", "{tmp}/train.json", "--out", "{tmp}/out"]
GEN = ["dataset", "gen", "--per-class", "2", "--seed", "1", "--out", "{tmp}/data"]
MANIFEST_TRAIN = '{"epochs": 1, "seed": 0, "data": {"dir": "{tmp}/data"}}'
LIVE_TRAIN = '{"epochs": 1, "seed": 0, "data": {"synthetic": {"per_class": 2}}}'
LIVE_DSE = [
    "dse", "--grid", "{tmp}/grid.json", "--accuracy-source", "live",
    "--train-config", "{tmp}/train.json", "--out", "{tmp}/out",
]

# name: (files to write under tmp, argv, expected part of the message)
def _checkpoint_bytes(window: int, conv2_in_channels: int | None = None) -> bytes:
    """A seed-0 checkpoint file of the reference net at window, its second
    conv reading conv2_in_channels channels when given."""
    net = sd.build_network(window)
    if conv2_in_channels is not None:
        layers = list(net.layers)
        layers[3] = dataclasses.replace(layers[3], in_channels=conv2_in_channels)
        net = dataclasses.replace(net, layers=tuple(layers))
    with tempfile.TemporaryDirectory() as tmp:
        path = sd.save_checkpoint(Path(tmp) / "w.ckpt", net, sd.init_weights(net, 0))
        return path.read_bytes()


BAD_INPUTS = {
    "grid missing timesteps": (
        {"grid.json": '{"bits": [32], "windows": [50]}'},
        ["dse", "--grid", "{tmp}/grid.json", "--out", "{tmp}/out"],
        "missing key 'timesteps'",
    ),
    "grid repeats a bits value": (
        {"grid.json": '{"bits": [10, 10], "timesteps": [5], "windows": [50]}'},
        ["dse", "--grid", "{tmp}/grid.json", "--out", "{tmp}/out"],
        "grid bits must not repeat a value",
    ),
    "grid not json": (
        {"grid.json": "bits: [32]"},
        ["dse", "--grid", "{tmp}/grid.json", "--out", "{tmp}/out"],
        "grid",
    ),
    "negative memory constraint": (
        {}, ["dse", "--constraints", '{"max_memory_mb": -1}', "--out", "{tmp}/out"],
        "max_memory_bits must be positive",
    ),
    "constraints not json": (
        {}, ["dse", "--constraints", "nope", "--out", "{tmp}/out"], "constraints",
    ),
    "train config without epochs": (
        {"train.json": '{"seed": 0, "data": {"synthetic": {}}}'}, TRAIN,
        "missing key 'epochs'",
    ),
    "train config without data": (
        {"train.json": '{"epochs": 1, "seed": 0}'}, TRAIN, "data block",
    ),
    "negative latency_fixed": (
        {"c.json": NEGATIVE_FIXED},
        COMPLEXITY + ["--constants", "{tmp}/c.json"],
        "latency_fixed must be >= 0",
    ),
    "unknown constant": (
        {"c.json": '{"latency_scale": 2.0}'},
        COMPLEXITY + ["--constants", "{tmp}/c.json"],
        "latency_scale",
    ),
    "manifest not json": (
        {"data/manifest.json": "[{", "train.json": MANIFEST_TRAIN}, TRAIN, "manifest",
    ),
    "manifest label 5": (
        {"data/manifest.json": '[{"file": "a.dat", "label": 5, "split": "train"}]',
         "train.json": MANIFEST_TRAIN},
        TRAIN,
        "label 5 is not 0 or 1",
    ),
    "gen test fraction 2": (
        {}, GEN + ["--test-fraction", "2"],
        "dataset gen: test_fraction must be in [0, 1], got 2.0",
    ),
    "gen test fraction NaN": (
        {}, GEN + ["--test-fraction", "nan"],
        "dataset gen: test_fraction must be in [0, 1], got nan",
    ),
    "synthetic test_fraction negative": (
        {"train.json": '{"epochs": 1, "seed": 0, '
                       '"data": {"synthetic": {"per_class": 2, "test_fraction": -0.5}}}'},
        TRAIN,
        "data block synthetic: test_fraction must be in [0, 1], got -0.5",
    ),
    "gen duration below sensor": (
        {}, GEN + ["--sensor", "64", "--duration", "63"],
        "duration 63 us is shorter than the 64 bar steps",
    ),
    "data block misspelt key": (
        {"train.json": '{"epochs": 0, "seed": 0, "data": {"synthetic": {"per_class": 3, '
                       '"sensor": 64}, "window_mod": "center"}}'},
        TRAIN,
        "data block: unknown keys ['window_mod']",
    ),
    "synthetic block misspelt key": (
        {"train.json": '{"epochs": 0, "seed": 0, "data": {"synthetic": {"per_clas": 3, '
                       '"sensor": 64}}}'},
        TRAIN,
        "data block synthetic: unknown keys ['per_clas']",
    ),
    "data block with dir and synthetic": (
        {"train.json": '{"epochs": 0, "seed": 0, "data": {"dir": "{tmp}/data", '
                       '"synthetic": {"per_class": 2}}}'},
        TRAIN,
        'data block: set "dir" or "synthetic", not both',
    ),
    "manifest entry without split": (
        {"data/manifest.json": '[{"file": "a.dat", "label": 0}]',
         "train.json": MANIFEST_TRAIN},
        TRAIN,
        "missing key 'split'",
    ),
    "accuracy table not json": (
        {"table.json": "{'32b_20t_100w': 0.9}"},
        ["dse", "--accuracy-table", "{tmp}/table.json", "--out", "{tmp}/out"],
        "accuracy table",
    ),
    "train checkpoint_every negative": (
        {"train.json": '{"epochs": 1, "seed": 0, "checkpoint_every": -2, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "checkpoint_every must be >= 0",
    ),
    "train lr_decay_epoch negative": (
        {"train.json": '{"epochs": 1, "seed": 0, "lr_decay_epoch": -5, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "lr_decay_epoch must be >= 0",
    ),
    "unknown window_mode": (
        {"train.json": '{"epochs": 1, "seed": 0, '
                       '"data": {"synthetic": {}, "window_mode": "best"}}'},
        TRAIN,
        "unknown window_mode 'best'",
    ),
    "train timesteps 0": (
        {"train.json": '{"epochs": 1, "seed": 0, "timesteps": 0, "data": {"synthetic": {}}}'},
        TRAIN,
        "timesteps must be >= 1",
    ),
    "train seed negative": (
        {"train.json": '{"epochs": 1, "seed": -1, "data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "seed must be >= 0",
    ),
    "train window not an integer": (
        {"train.json": '{"epochs": 1, "seed": 0, "window": "50", "data": {"synthetic": {}}}'},
        TRAIN,
        "window must be an integer",
    ),
    "train learning_rate not a number": (
        {"train.json": '{"epochs": 1, "seed": 0, "learning_rate": "x", '
                       '"data": {"synthetic": {}}}'},
        TRAIN,
        "learning_rate must be a number",
    ),
    "synthetic not an object": (
        {"train.json": '{"epochs": 1, "seed": 0, "data": {"synthetic": "foo"}}'},
        TRAIN,
        '"synthetic" must be an object',
    ),
    "synthetic negative per_class": (
        {"train.json": '{"epochs": 1, "seed": 0, "data": {"synthetic": {"per_class": -1}}}'},
        TRAIN,
        "data block synthetic",
    ),
    "synthetic per_class not a number": (
        {"train.json": '{"epochs": 1, "seed": 0, "data": {"synthetic": {"per_class": "x"}}}'},
        TRAIN,
        "data block synthetic",
    ),
    "dir not a string": (
        {"train.json": '{"epochs": 1, "seed": 0, "data": {"dir": 5}}'},
        TRAIN,
        '"dir" must be a string',
    ),
    "strict not a boolean": (
        {"train.json": '{"epochs": 1, "seed": 0, "strict": "no", '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        '"strict" must be true or false',
    ),
    "live grid bits above 32": (
        {"grid.json": '{"bits": [40], "timesteps": [5], "windows": [50]}',
         "train.json": LIVE_TRAIN},
        LIVE_DSE,
        "bits must be in [2, 32]",
    ),
    "live grid timesteps 0": (
        {"grid.json": '{"bits": [10], "timesteps": [0], "windows": [50]}',
         "train.json": LIVE_TRAIN},
        LIVE_DSE,
        "grid timesteps and windows must be >= 1",
    ),
    "live grid bits not integers": (
        {"grid.json": '{"bits": ["10"], "timesteps": [5], "windows": [50]}',
         "train.json": LIVE_TRAIN},
        LIVE_DSE,
        "grid bits must be integers",
    ),
    "train learning_rate NaN": (
        {"train.json": '{"epochs": 1, "seed": 0, "learning_rate": NaN, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "learning_rate must be finite",
    ),
    "train momentum Infinity": (
        {"train.json": '{"epochs": 1, "seed": 0, "momentum": Infinity, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "momentum must be finite",
    ),
    "train lr_decay_factor -Infinity": (
        {"train.json": '{"epochs": 1, "seed": 0, "lr_decay_factor": -Infinity, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "lr_decay_factor must be finite",
    ),
    "train learning_rate negative": (
        {"train.json": '{"epochs": 1, "seed": 0, "learning_rate": -0.1, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "learning_rate must be >= 0, got -0.1",
    ),
    "train momentum 1.5": (
        {"train.json": '{"epochs": 1, "seed": 0, "momentum": 1.5, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "momentum must be in [0, 1), got 1.5",
    ),
    "train lr_decay_factor negative": (
        {"train.json": '{"epochs": 1, "seed": 0, "lr_decay_factor": -1.0, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "lr_decay_factor must be >= 0, got -1.0",
    ),
    "live train config learning_rate NaN": (
        {"grid.json": '{"bits": [10], "timesteps": [5], "windows": [50]}',
         "train.json": '{"epochs": 1, "seed": 0, "learning_rate": NaN, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        LIVE_DSE,
        "learning_rate must be finite",
    ),
    "min_accuracy NaN": (
        {}, ["dse", "--constraints", '{"min_accuracy": NaN}', "--out", "{tmp}/out"],
        "min_accuracy must be positive and finite",
    ),
    "max_latency_ratio Infinity": (
        {}, ["dse", "--constraints", '{"max_latency_ratio": Infinity}',
             "--out", "{tmp}/out"],
        "max_latency_ratio must be positive and finite",
    ),
    "max_memory_mb 1e308": (
        {}, ["dse", "--constraints", '{"max_memory_mb": 1e308}', "--out", "{tmp}/out"],
        "max_memory_mb must be finite in bits, got 1e+308",
    ),
    "max_memory_mb Infinity": (
        {}, ["dse", "--constraints", '{"max_memory_mb": Infinity}', "--out", "{tmp}/out"],
        "max_memory_mb must be finite",
    ),
    "memory constraint not a number": (
        {}, ["dse", "--constraints", '{"max_memory_mb": "x"}', "--out", "{tmp}/out"],
        "max_memory_mb must be a number",
    ),
    "inspect header width -3": (
        {"h.dat": "% width -3\n"}, ["dataset", "inspect", "{tmp}/h.dat"],
        "a -3x240 sensor and 100000 us; sides must be in [1, 16384]",
    ),
    "inspect header width 0": (
        {"h.dat": "% width 0\n"}, ["dataset", "inspect", "{tmp}/h.dat"],
        "a 0x240 sensor",
    ),
    "inspect header height 16385": (
        {"h.dat": "% height 16385\n"}, ["dataset", "inspect", "{tmp}/h.dat"],
        "a 304x16385 sensor",
    ),
    "inspect header duration 0": (
        {"h.dat": "% duration 0\n"}, ["dataset", "inspect", "{tmp}/h.dat"],
        "and 0 us; sides must be in [1, 16384] and the duration >= 1",
    ),
    "inspect header duration above 2**32": (
        {"h.dat": "% duration 99999999999999999999999\n"},
        ["dataset", "inspect", "{tmp}/h.dat"],
        "and 99999999999999999999999 us; sides must be in [1, 16384] and the "
        "duration >= 1 and <= 4294967296",
    ),
    "dataset gen sensor past the event cap": (
        {}, ["dataset", "gen", "--per-class", "1", "--seed", "1", "--sensor", "16384",
             "--out", "{tmp}/data"],
        "sensor 16384x16384: its 268435456 bar events reach the 2**24 events",
    ),
    "dataset gen duration above 2**32": (
        {}, GEN + ["--duration", "5000000000"], "exceeds the 2**32 us",
    ),
    "train synthetic duration above 2**32": (
        {"train.json": '{"epochs": 1, "seed": 0, "data": {"synthetic": '
                       '{"per_class": 2, "duration": 5000000000}}}'},
        TRAIN,
        "exceeds the 2**32 us",
    ),
    "train synthetic sensor above 2**14": (
        {"train.json": '{"epochs": 1, "seed": 0, "data": {"synthetic": '
                       '{"per_class": 2, "sensor": 20000}}}'},
        TRAIN,
        "data block synthetic: sensor 20000x20000: sides must be in [1, 16384]",
    ),
    # 46.6 GiB of frames per sample, and 5.8 GiB of packed frames for
    # each of the four recordings; refused before any is generated
    "train timesteps past the memory cap": (
        {"train.json": '{"epochs": 1, "seed": 0, "timesteps": 10000000, "window": 50, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "training at W=50, T=10000000, batch 20 needs about 13,644.9 GiB (parameters "
        "with gradients and momentum, a minibatch's frames and recorded trace, and "
        "23.3 GiB of encoded splits' packed frames)",
    ),
    # fc1 alone is 559504 x 1119008 float64 weights, 4.56 TiB
    "train window 3000 past the memory cap": (
        {"train.json": '{"epochs": 1, "seed": 0, "window": 3000, "strict": false, '
                       '"data": {"synthetic": {"per_class": 2, "sensor": 3000}}}'},
        TRAIN,
        "GiB (parameters with gradients and momentum, a minibatch's frames and "
        "recorded trace, and 0.1 GiB of encoded splits' packed frames), above the "
        "2 GiB cap",
    ),
    "live grid timesteps past the memory cap": (
        {"grid.json": '{"bits": [10], "timesteps": [5, 10000000], "windows": [50]}',
         "train.json": LIVE_TRAIN},
        LIVE_DSE,
        "training at W=50, T=10000000",
    ),
    # evaluation frames are estimated before the split is read: the
    # manifest names a recording that is not there
    "eval timesteps past the memory cap": (
        {"w.ckpt": _checkpoint_bytes(50),
         "data/manifest.json": '[{"file": "a.dat", "label": 0, "split": "test"}]'},
        ["eval", "--checkpoint", "{tmp}/w.ckpt", "--data", "{tmp}/data",
         "--timesteps", "10000000"],
        "evaluation at W=50, T=10000000 needs at most about 686.9 GiB (a one-sample "
        "training step, as an upper bound: parameters with gradients and momentum, the "
        "sample's frames and recorded trace, and 5.9 GiB of encoded splits' packed "
        "frames), above the 2 GiB cap",
    ),
    "both memory constraints": (
        {}, ["dse", "--constraints", '{"max_memory_mb": 1, "max_memory_bits": 8000000}',
             "--out", "{tmp}/out"],
        "constraints: set max_memory_bits or max_memory_mb, not both",
    ),
    # the seed lists alone would take about 20 GB
    "gen per_class past 2**20": (
        {}, ["dataset", "gen", "--per-class", "100000000", "--seed", "1",
             "--out", "{tmp}/data"],
        "dataset gen: per_class must be <= 2**20, got 100000000",
    ),
    "train synthetic per_class past 2**20": (
        {"train.json": '{"epochs": 1, "seed": 0, '
                       '"data": {"synthetic": {"per_class": 100000000}}}'},
        TRAIN,
        "data block synthetic: per_class must be <= 2**20, got 100000000",
    ),
    # such a checkpoint loads; the first forward pass finds conv1's 32 channels
    "eval conv2 reading fewer channels than conv1 writes": (
        {"w.ckpt": _checkpoint_bytes(50, conv2_in_channels=16),
         "data/a.dat": sd.write_dat(sd.generate_synthetic(0, 1, sensor_width=64,
                                                          sensor_height=64)),
         "data/manifest.json": '[{"file": "a.dat", "label": 0, "split": "test"}]'},
        ["eval", "--checkpoint", "{tmp}/w.ckpt", "--data", "{tmp}/data", "--timesteps", "2"],
        "error: conv expects 16 input channels, got 32",
    ),
    "misspelt constraint key": (
        {}, ["dse", "--constraints", '{"max_memroy_mb": 8}', "--out", "{tmp}/out"],
        "constraints: unknown keys ['max_memroy_mb']",
    ),
    "train config misspelt key": (
        {"train.json": '{"epochs": 1, "seed": 0, "batchsize": 4, '
                       '"data": {"synthetic": {"per_class": 2}}}'},
        TRAIN,
        "train config: unknown keys ['batchsize']",
    ),
    "grid unknown key": (
        {"grid.json": '{"bits": [10], "timesteps": [5], "windows": [50], '
                      '"window": [100]}'},
        ["dse", "--grid", "{tmp}/grid.json", "--out", "{tmp}/out"],
        "unknown keys ['window']",
    ),
    "inspect csv not utf-8": (
        {"a.csv": b"t_us,x,y,p\n10,1,2,\xff\n"}, ["dataset", "inspect", "{tmp}/a.csv"],
        "error: line 2: byte 0xff is not UTF-8",
    ),
    "train dir csv not utf-8": (
        {"data/a.csv": b"t_us,x,y,p\n10,1,2,\xff\n",
         "data/manifest.json": '[{"file": "a.csv", "label": 0, "split": "train"}]',
         "train.json": MANIFEST_TRAIN},
        TRAIN,
        "error: cannot parse {tmp}/data/a.csv: line 2: byte 0xff is not UTF-8",
    ),
    "train synthetic negative noise_events": (
        {"train.json": '{"epochs": 1, "seed": 0, "data": {"synthetic": '
                       '{"per_class": 2, "noise_events": -1}}}'},
        TRAIN,
        "data block synthetic: noise_events must be >= 0",
    ),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_malformed_json_input_is_domain_error(name, tmp_path, capsys):
    files, argv, message = BAD_INPUTS[name]
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text.replace("{tmp}", str(tmp_path)))
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message.replace("{tmp}", str(tmp_path)) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e308])
@pytest.mark.parametrize("name", ["latency_per_op", "energy_per_synop_32b"])
@pytest.mark.parametrize("command", ["complexity", "dse"])
def test_non_finite_costs_are_refused(command, name, value, tmp_path, capsys):
    """NaN and Infinity constants, and a 1e308 one whose latency or energy
    overflows, exit 1 with an error line; nothing prints or writes a NaN
    or Infinity token."""
    constants = {**dataclasses.asdict(sd.default_constants()), name: value}
    (tmp_path / "c.json").write_text(json.dumps(constants))
    argv = COMPLEXITY if command == "complexity" else ["dse"]
    argv = argv + ["--constants", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "Traceback" not in err
    message = "must be finite" if value != 1e308 else "latency or energy that is not finite"
    assert message in err
    written = [out] + [p.read_text() for p in tmp_path.rglob("*") if p.is_file()
                       and p.name != "c.json"]
    assert not any(token in text for text in written for token in ("NaN", "Infinity"))


def test_baseline_config_is_under_the_memory_cap(tmp_path, capsys):
    """W=100, T=20, criterion 8's baseline, trains through the CLI."""
    (tmp_path / "train.json").write_text(json.dumps({
        "epochs": 1, "seed": 0, "window": 100, "timesteps": 20,
        "data": {"synthetic": {"per_class": 2, "sensor": 128}},
    }))
    argv = ["train", "--config", str(tmp_path / "train.json"), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert "trained 1 epochs" in capsys.readouterr().out


def _split_commands(tmp_path) -> dict:
    """name: (argv, recordings read) of train, eval and live dse, in that
    order, over a generated directory of 12 train and 6 test recordings."""
    data = tmp_path / "data"
    assert main(["dataset", "gen", "--per-class", "9", "--seed", "3", "--sensor", "64",
                 "--out", str(data)]) == 0
    (tmp_path / "train.json").write_text(json.dumps(
        {"epochs": 1, "seed": 0, "batch_size": 4, "timesteps": 3,
         "data": {"dir": str(data)}}))
    (tmp_path / "grid.json").write_text(
        '{"bits": [32], "timesteps": [3], "windows": [50]}')
    return {
        "train": (["train", "--config", f"{tmp_path}/train.json",
                   "--out", f"{tmp_path}/out"], 12 + 6),
        "eval": (["eval", "--checkpoint", f"{tmp_path}/out/weights.ckpt",
                  "--data", str(data), "--split", "train", "--timesteps", "3"], 12),
        "dse": (["dse", "--accuracy-source", "live", "--grid", f"{tmp_path}/grid.json",
                 "--train-config", f"{tmp_path}/train.json", "--out", f"{tmp_path}/dse"],
                12 + 6),
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_raw_recordings_alive_stay_bounded(workers, tmp_path, monkeypatch, capsys):
    """train, eval and live dse read a split one recording at a time: the
    raw recordings alive at once do not grow with the split's 12."""
    commands = _split_commands(tmp_path)
    count = {"read": 0, "alive": 0, "peak": 0}
    real_load = sd.events._load_event_file

    def release():
        count["alive"] -= 1

    def counting_load(*args):
        sample = real_load(*args)
        weakref.finalize(sample, release)
        count["read"] += 1
        count["alive"] += 1
        count["peak"] = max(count["peak"], count["alive"])
        return sample

    monkeypatch.setattr(sd.events, "_load_event_file", counting_load)
    for name, (argv, reads) in commands.items():
        count.update(read=0, peak=count["alive"])
        assert main(["--workers", str(workers)] + argv) == 0, name
        assert count["read"] == reads, name
        assert count["peak"] <= 2, (name, count)
    capsys.readouterr()


def test_dataset_commands_start_no_thread(tmp_path, monkeypatch, capsys):
    """train, eval and live dse read their files in the calling thread,
    whatever --workers says."""
    commands = _split_commands(tmp_path)
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for name, (argv, _) in commands.items():
        assert main(["--workers", "2"] + argv) == 0, name
        assert started == [], name
    capsys.readouterr()


def test_bad_recording_fails_where_it_is_read(tmp_path, capsys):
    """A file that does not parse ends train with exit 1 when its turn
    comes, and no thread is left when main returns."""
    data = tmp_path / "data"
    assert main(["dataset", "gen", "--per-class", "6", "--seed", "3", "--sensor", "64",
                 "--out", str(data)]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    bad = [e["file"] for e in manifest if e["split"] == "train"][5]
    (data / bad).write_bytes(b"\x01\x02\x03")
    (tmp_path / "train.json").write_text(json.dumps(
        {"epochs": 1, "seed": 0, "data": {"dir": str(data)}}))
    before = set(threading.enumerate())
    assert main(["train", "--config", f"{tmp_path}/train.json",
                 "--out", f"{tmp_path}/out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse {data / bad}")
    assert "Traceback" not in err
    assert set(threading.enumerate()) <= before


def test_recording_counts_count_toward_the_memory_cap():
    """Split sizes alone decide it: no data is generated or loaded."""
    net100, net50 = sd.build_network(100), sd.build_network(50)
    run = (net100, 20, 20)
    cli._check_memory([run], 0)
    cli._check_memory([run], 15_422 + 8_607)  # NCARS at W=100, T=20: 1.1 GiB
    with pytest.raises(ConfigError, match="training at W=100, T=20, batch 20 "
                                          "needs about 2.1 GiB"):
        cli._check_memory([run], 33_400 + 8_607)
    # just over the cap: the figure rounds up, so it never reads as the cap
    with pytest.raises(ConfigError, match=r"needs about 2\.1 GiB .* and 2\.0 GiB of "
                                          r"encoded splits' packed frames\), above the 2 GiB"):
        cli._check_memory([run], 41_000)
    # live dse keeps both splits at every (T, W): NCARS on the T {20, 5} x
    # W {100, 50} grid holds 1.75 GiB of frames and fits, and the default
    # grid's 3.5 GiB does not
    grid = [(net100 if w == 100 else net50, t, 20) for t in (20, 5) for w in (100, 50)]
    cli._check_memory(grid, 15_422 + 8_607)
    with pytest.raises(ConfigError, match=r"and 2\.6 GiB of encoded splits' packed "
                                          r"frames\), above the 2 GiB cap"):
        cli._check_memory(grid, 15_422 + 20_000)
    default = sd.DseGrid()
    grid = [(sd.build_network(w), t, 20) for w in default.windows for t in default.timesteps]
    with pytest.raises(ConfigError, match=r"and 3\.5 GiB of encoded splits' packed"):
        cli._check_memory(grid, 15_422 + 8_607)


@pytest.mark.parametrize("argv,grid,held,refused", [
    (TRAIN, None, (2 + 2) * 6_250, "W=50, T=10"),
    # live dse: the 4 recordings at T=5 and T=10; with every step costing
    # nothing the runs tie, and the first is named
    (LIVE_DSE, '{"bits": [10], "timesteps": [5, 10], "windows": [50]}',
     4 * (3_125 + 6_250), "W=50, T=5"),
])
def test_split_frames_are_checked_before_encoding(argv, grid, held, refused, tmp_path,
                                                  monkeypatch, capsys):
    """Once 2 train and 2 test recordings are counted, the estimate holds
    their packed frames, and a refusal comes before any crop or encoding:
    with training steps that cost nothing, a cap one byte below the frames
    refuses, and a cap at them lets the run reach encoding."""

    def encoding(*args, **kwargs):
        raise ConfigError("encoding")

    monkeypatch.setattr(cli, "_training_bytes", lambda net, timesteps, batch_size: 0)
    monkeypatch.setattr(cli, "crop_to_window", encoding)
    monkeypatch.setattr(cli, "encode_dataset", encoding)
    (tmp_path / "train.json").write_text(LIVE_TRAIN)
    if grid:
        (tmp_path / "grid.json").write_text(grid)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    monkeypatch.setattr(cli, "_MEMORY_CAP", held - 1)
    assert main(argv) == 1
    assert f"error: training at {refused}, batch 20 needs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # a refused run leaves no --out
    monkeypatch.setattr(cli, "_MEMORY_CAP", held)
    assert main(argv) == 1
    assert "error: encoding" in capsys.readouterr().err


def test_live_dse_counts_both_splits_frames_before_any_read(tmp_path, monkeypatch,
                                                            capsys):
    """Live dse bins each crop at every T as it is made and keeps both
    splits' packed frames at every (T, W) until training. The one check
    before any read counts them all: a cap one byte below them refuses
    before the manifest's files, which do not exist, are opened, and a cap
    at them gets as far as the first file."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps(
        [{"file": f"{split}{i}.dat", "label": i, "split": split}
         for split in ("train", "test") for i in (0, 1)]))
    (tmp_path / "train.json").write_text(json.dumps(
        {"epochs": 1, "seed": 0, "data": {"dir": str(data)}}))
    (tmp_path / "grid.json").write_text(
        '{"bits": [10], "timesteps": [5, 10], "windows": [50]}')
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in LIVE_DSE]
    # the largest step, and 4 recordings at T=5 and T=10
    need = cli._training_bytes(sd.build_network(50), 10, 20) + 4 * (3_125 + 6_250)
    monkeypatch.setattr(cli, "_MEMORY_CAP", need - 1)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training at W=50, T=10, batch 20 needs")
    assert "GiB of encoded splits' packed frames), above the" in err
    monkeypatch.setattr(cli, "_MEMORY_CAP", need)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {data / 'train0.dat'}")


# traced peak growth over estimated growth measured 1.01 for train, 1.02 for
# eval and 1.14 for live dse (x86-64, NumPy with OpenBLAS)
ORACLE_TOLERANCE = 1.25


def test_memory_estimate_tracks_the_traced_peak(tmp_path, monkeypatch, capsys):
    """Between 40 and 160 recordings, the peak that tracemalloc sees (NumPy
    traces its buffers there) grows by at most ORACLE_TOLERANCE times what
    the memory gate's estimate grows by, as `_check_memory` returns it.
    Fixed overheads cancel in the difference. With 0 epochs and
    evaluate chunks that are full at both sizes, nothing but what the
    estimate counts grows with the split."""
    found = []
    check_memory = cli._check_memory

    def spy_check(*args, **kwargs):
        found.append(check_memory(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(cli, "_check_memory", spy_check)
    (tmp_path / "grid.json").write_text(
        '{"bits": [10], "timesteps": [10, 5], "windows": [50, 100]}')
    growth = {}
    for per_class in (20, 80):
        data, out = tmp_path / f"data{per_class}", tmp_path / f"out{per_class}"
        assert main(["dataset", "gen", "--per-class", str(per_class), "--seed", "0",
                     "--sensor", "128", "--out", str(data)]) == 0
        config = tmp_path / f"train{per_class}.json"
        config.write_text(json.dumps({"epochs": 0, "seed": 0, "window": 100,
                                      "timesteps": 20, "batch_size": 4,
                                      "data": {"dir": str(data)}}))
        commands = {
            "train": ["train", "--config", str(config), "--out", str(out)],
            "eval": ["eval", "--checkpoint", str(out / "weights.ckpt"),
                     "--data", str(data), "--timesteps", "20"],
            "dse": ["dse", "--accuracy-source", "live", "--grid", f"{tmp_path}/grid.json",
                    "--train-config", str(config), "--out", str(out / "dse")],
        }
        for name, argv in commands.items():
            found.clear()
            tracemalloc.start()
            try:
                assert main(argv) == 0, name
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(found) == 1, name
            peak_growth, estimate_growth = growth.get(name, (0, 0))
            growth[name] = (peak - peak_growth, found[0] - estimate_growth)
    capsys.readouterr()
    for name, (peak_growth, estimate_growth) in growth.items():
        assert estimate_growth > 0, name
        assert peak_growth <= ORACLE_TOLERANCE * estimate_growth, (
            name, peak_growth / estimate_growth)


BAD_ARGUMENTS = {
    "quantize bits above 32": [
        "quantize", "--checkpoint", "w.ckpt", "--bits", "40", "--out", "q.ckpt",
    ],
    "quantize bits below 2": [
        "quantize", "--checkpoint", "w.ckpt", "--bits", "1", "--out", "q.ckpt",
    ],
    "complexity bits above 32": COMPLEXITY + ["--bits", "33"],
    "complexity timestep 0": ["complexity", "--window", "50", "--timestep", "0"],
    "eval timesteps 0": [
        "eval", "--checkpoint", "w.ckpt", "--data", "data", "--timesteps", "0",
    ],
    "quantize SR seed negative": [
        "quantize", "--checkpoint", "w.ckpt", "--bits", "8", "--rounding", "SR",
        "--seed", "-1", "--out", "q.ckpt",
    ],
    "dataset gen per-class negative": GEN + ["--per-class", "-1"],
    "dataset gen seed negative": GEN + ["--seed", "-1"],
    "dataset gen noise-events negative": GEN + ["--noise-events", "-1"],
    "dataset gen sensor 0": GEN + ["--sensor", "0"],
    "dataset gen sensor above 16384": GEN + ["--sensor", "16385"],
    "dataset gen duration 0": GEN + ["--duration", "0"],
    "dataset gen classes": [
        "dataset", "gen", "--classes", "3", "--per-class", "2", "--seed", "1",
        "--out", "data",
    ],
}


@pytest.mark.parametrize("name", list(BAD_ARGUMENTS))
def test_bad_argument_is_usage_error(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(BAD_ARGUMENTS[name]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "Traceback" not in err


# name: argv (with a global --workers) of a command whose run.json echoes its flags
FLAG_ECHO = {
    "dataset gen": GEN + ["--sensor", "32", "--noise-events", "10"],
    "quantize": [
        "quantize", "--checkpoint", "{tmp}/w.ckpt", "--bits", "10",
        "--rounding", "SR", "--seed", "3", "--out", "{tmp}/q/./w10.ckpt",
    ],
    "dse": ["dse", "--grid", "{tmp}/grid.json", "--out", "{tmp}/dse/"],
    "complexity": COMPLEXITY + ["--bits", "12", "--no-strict", "--out", "{tmp}/cx/"],
}


@pytest.mark.parametrize("command", list(FLAG_ECHO))
def test_run_json_echoes_every_parsed_flag(command, tmp_path, capsys):
    net = sd.build_network(50)
    sd.save_checkpoint(tmp_path / "w.ckpt", net, sd.init_weights(net, seed=0))
    (tmp_path / "grid.json").write_text(
        '{"bits": [10], "timesteps": [5], "windows": [50]}'
    )
    argv = ["--workers", "2"] + [
        arg.replace("{tmp}", str(tmp_path)) for arg in FLAG_ECHO[command]
    ]
    assert main(argv) == 0
    capsys.readouterr()
    flags = vars(cli.build_parser().parse_args(argv))
    for name in ("func", "command", "dataset_command"):
        flags.pop(name, None)
    out = Path(flags["out"])
    flags["out"] = str(out)
    run_dir = out.parent if command == "quantize" else out  # out is the checkpoint
    run = json.loads((run_dir / "run.json").read_text())
    assert run == {"command": command, "config": flags}
    assert run["config"]["workers"] == 2
