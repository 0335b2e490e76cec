"""CLI subcommands, exit codes, run.json, reproducibility."""

import dataclasses
import json
from pathlib import Path

import pytest

import spikedse as sd
from spikedse import cli
from spikedse.cli import main


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
        generated = [sd.load_dataset(out, split) for split in ("train", "test")]
        *from_block, mode = cli._load_splits({"synthetic": settings}, workers=1)
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
        loads = []
        real_load = cli.load_dataset

        def counting_load(path, split, **kwargs):
            loads.append(split)
            return real_load(path, split, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", counting_load)
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
        assert sorted(loads) == ["test", "train"]

        train_s, test_s = (real_load(data, split) for split in ("train", "test"))
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
BAD_INPUTS = {
    "grid missing timesteps": (
        {"grid.json": '{"bits": [32], "windows": [50]}'},
        ["dse", "--grid", "{tmp}/grid.json", "--out", "{tmp}/out"],
        "missing key 'timesteps'",
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
    "dataset gen duration above 2**32": (
        {}, GEN + ["--duration", "5000000000"], "exceeds the 2**32 us",
    ),
    "train synthetic duration above 2**32": (
        {"train.json": '{"epochs": 1, "seed": 0, "data": {"synthetic": '
                       '{"per_class": 2, "duration": 5000000000}}}'},
        TRAIN,
        "exceeds the 2**32 us",
    ),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_malformed_json_input_is_domain_error(name, tmp_path, capsys):
    files, argv, message = BAD_INPUTS[name]
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text.replace("{tmp}", str(tmp_path)))
    assert main([arg.replace("{tmp}", str(tmp_path)) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err


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
