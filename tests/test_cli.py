"""End-to-end command-line behavior in temporary directories."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import write_tensors
from slabnn.checkpoint import read_manifest
from slabnn.cli import load_config, main
from slabnn.errors import ConfigError

GOOD_CONFIG = """\
[dataset]
format = synth_clusters
n = 90
p = 4
classes = 2
separation = 4.0
data_seed = 1

[model]
widths = 4,3,2

[phase:train]
epochs = 2
batch_size = 30
lr_weights = 0.01
lr_omega = 0.05

[predict]
gamma = sim
beta = sim
replicates = 3

[run]
seeds = 1,2
output_dir = {out}
run_id = smoke
"""


def _write_config(tmp_path, text=None, name="run.ini"):
    out = tmp_path / "out"
    cfg = tmp_path / name
    cfg.write_text((text or GOOD_CONFIG).format(out=out))
    return cfg, out


def _run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigValidation:
    def test_all_problems_reported_at_once(self, tmp_path, capsys):
        bad = """\
[dataset]
format = synth_clusters
n = -5
classes = 1

[model]
widths = 4
family = diagonal

[run]
seeds = 1
"""
        cfg = tmp_path / "bad.ini"
        cfg.write_text(bad)
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        lines = [ln for ln in err.splitlines() if ln.startswith("config error:")]
        assert len(lines) >= 3
        joined = "\n".join(lines)
        assert "n" in joined and "widths" in joined and "family" in joined

    def test_unknown_key_and_section_rejected(self, tmp_path, capsys):
        text = GOOD_CONFIG + "\n[extras]\nfoo = 1\n"
        text = text.replace("[model]\nwidths = 4,3,2",
                            "[model]\nwidths = 4,3,2\ndropout = 0.5")
        cfg, _ = _write_config(tmp_path, text)
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert "dropout" in err and "extras" in err

    def test_missing_dataset_file(self, tmp_path, capsys):
        text = """\
[dataset]
format = csv
path = does_not_exist.csv

[model]
widths = 4,2

[run]
seeds = 1
output_dir = {out}
"""
        cfg, _ = _write_config(tmp_path, text)
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert "does_not_exist.csv" in err

    def test_lr_for_dead_group_rejected(self, tmp_path):
        # mean-field has no covariance block, so lr_cov is a config error
        text = GOOD_CONFIG.replace("lr_omega = 0.05",
                                   "lr_omega = 0.05\nlr_cov = 0.1")
        cfg, _ = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="lr_cov"):
            load_config(cfg)

    def test_all_sim_requires_fixed_dense(self, tmp_path):
        text = GOOD_CONFIG.replace("gamma = sim", "gamma = all")
        cfg, _ = _write_config(tmp_path, text)
        with pytest.raises(ConfigError, match="fixed_dense"):
            load_config(cfg)

    def test_width_mismatch_exits_two(self, tmp_path, capsys):
        text = GOOD_CONFIG.replace("widths = 4,3,2", "widths = 7,3,2")
        cfg, _ = _write_config(tmp_path, text)
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert "features" in err

    def test_data_dir_resolution(self, tmp_path, monkeypatch):
        data = tmp_path / "store"
        data.mkdir()
        (data / "d.csv").write_text("1.0,0\n2.0,1\n")
        text = """\
[dataset]
format = csv
path = d.csv

[model]
widths = 1,2

[run]
seeds = 1
output_dir = {out}
"""
        cfg, _ = _write_config(tmp_path, text)
        monkeypatch.setenv("SLABNN_DATA_DIR", str(data))
        parsed = load_config(cfg)
        assert parsed.dataset["path"] == str(data / "d.csv")


class TestTrainCommand:
    def test_smoke_run_writes_all_artifacts(self, tmp_path, capsys):
        cfg, out = _write_config(tmp_path)
        code, stdout, _ = _run_main(["train", str(cfg)], capsys)
        assert code == 0
        for seed in (1, 2):
            d = out / "smoke" / f"seed{seed}"
            for name in ("checkpoint_train.lbnn", "checkpoint_final.lbnn",
                         "trace.jsonl", "predictions.csv", "metrics.kv"):
                assert (d / name).exists(), name
        assert (out / "smoke" / "metrics.csv").exists()
        assert (out / "smoke" / "summary.kv").exists()
        assert "[summary]" in stdout
        kv = (out / "smoke" / "seed1" / "metrics.kv").read_text()
        pairs = dict(ln.split("=", 1) for ln in kv.strip().splitlines())
        assert pairs["run_id"] == "smoke"
        assert pairs["epoch_time_s"] == ""  # timings never enter files
        assert 0.0 <= float(pairs["all_class_accuracy"]) <= 1.0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg, out = _write_config(tmp_path)
        assert _run_main(["train", str(cfg)], capsys)[0] == 0
        snapshot = {}
        for root, _, files in os.walk(out):
            for f in files:
                p = os.path.join(root, f)
                snapshot[p] = open(p, "rb").read()
        assert _run_main(["train", str(cfg)], capsys)[0] == 0
        for p, blob in snapshot.items():
            assert open(p, "rb").read() == blob, p

    def test_trace_has_no_wall_times(self, tmp_path, capsys):
        cfg, out = _write_config(tmp_path)
        _run_main(["train", str(cfg)], capsys)
        trace = (out / "smoke" / "seed1" / "trace.jsonl").read_text()
        assert "wall_seconds" not in trace
        assert trace.count("\n") == 2  # one record per epoch


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small trained run shared by the read-only command tests."""
    tmp = tmp_path_factory.mktemp("cli_run")
    out = tmp / "out"
    cfg = tmp / "run.ini"
    cfg.write_text(GOOD_CONFIG.format(out=out))
    code = main(["train", str(cfg)])
    assert code == 0
    ckpt = out / "smoke" / "seed1" / "checkpoint_final.lbnn"
    csv = tmp / "eval.csv"
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(40, 4))
    labels = rng.integers(0, 2, size=40)
    csv.write_text("".join(
        ",".join(f"{v:.6f}" for v in feats[i]) + f",{labels[i]}\n"
        for i in range(40)))
    return {"ckpt": ckpt, "csv": csv, "tmp": tmp}


class TestPredictCommand:
    def test_predict_writes_csv_and_metrics(self, trained, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        code, stdout, _ = _run_main(
            ["predict", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--gamma", "med", "--beta", "mea", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("row,p_class0,p_class1")
        assert len(lines) == 41
        assert (tmp_path / "metrics.kv").exists()
        assert "all_class_accuracy=" in stdout

    def test_repeat_is_byte_identical(self, trained, tmp_path, capsys):
        out = tmp_path / "p.csv"
        args = ["predict", str(trained["ckpt"]), "--csv", str(trained["csv"]),
                "--out", str(out)]
        assert _run_main(args, capsys)[0] == 0
        first = out.read_bytes()
        assert _run_main(args, capsys)[0] == 0
        assert out.read_bytes() == first

    def test_all_sim_rejected(self, trained, tmp_path, capsys):
        code, _, err = _run_main(
            ["predict", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--gamma", "all", "--beta", "sim",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "fixed-dense" in err or "fixed_dense" in err

    def test_wrong_width_exits_one(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        code, _, err = _run_main(
            ["predict", str(trained["ckpt"]), "--csv", str(bad),
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert "features" in err

    def test_unlabeled_data_skips_metrics(self, trained, tmp_path, capsys):
        # without a label column every csv column is a feature
        unlabeled = tmp_path / "in.csv"
        unlabeled.write_text("".join(
            ",".join(ln.split(",")[:-1]) + "\n"
            for ln in trained["csv"].read_text().splitlines()))
        out = tmp_path / "u.csv"
        code, stdout, _ = _run_main(
            ["predict", str(trained["ckpt"]), "--csv", str(unlabeled),
             "--label-column", "none", "--out", str(out)], capsys)
        assert code == 0
        assert not (tmp_path / "metrics.kv").exists()
        assert "all_class_accuracy" not in stdout


class TestEvalCommand:
    def test_entropy_files_and_kv(self, trained, tmp_path, capsys):
        out = tmp_path / "ev"
        code, stdout, _ = _run_main(
            ["eval", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--out", str(out), "--corr-layer", "0", "--corr-samples", "200"],
            capsys)
        assert code == 0
        cdf_lines = (out / "entropy_in.csv").read_text().splitlines()
        assert cdf_lines[0] == "entropy,cdf"
        vals = [tuple(map(float, ln.split(","))) for ln in cdf_lines[1:]]
        assert all(0.0 <= v <= np.log(2) + 1e-12 for v, _ in vals)
        assert vals[-1][1] == 1.0
        corr_lines = (out / "correlation_layer0.csv").read_text().splitlines()
        flags = [int(v) for v in corr_lines[0].split(",")]
        n_w = len(flags)
        assert len(corr_lines) == 1 + n_w
        row0 = [float(v) for v in corr_lines[1].split(",")]  # parses as floats
        assert len(row0) == n_w
        kv = (out / "metrics.kv").read_text()
        assert "median_entropy_in=" in kv
        assert "density=" in kv

    def test_identical_ood_dataset_gives_identical_cdf(self, trained,
                                                       tmp_path, capsys):
        out = tmp_path / "ev2"
        code, _, _ = _run_main(
            ["eval", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--ood-csv", str(trained["csv"]), "--out", str(out)], capsys)
        assert code == 0
        assert (out / "entropy_in.csv").read_bytes() == \
               (out / "entropy_ood.csv").read_bytes()


class TestInspectCommand:
    def test_lists_contents(self, trained, capsys):
        code, stdout, _ = _run_main(["inspect", str(trained["ckpt"])], capsys)
        assert code == 0
        assert "version 1" in stdout
        assert "layer00/kappa" in stdout
        assert "widths" in stdout

    def test_truncated_file_exits_one_with_offset(self, trained, tmp_path,
                                                  capsys):
        blob = trained["ckpt"].read_bytes()
        bad = tmp_path / "cut.lbnn"
        bad.write_bytes(blob[: len(blob) // 2])
        code, _, err = _run_main(["inspect", str(bad)], capsys)
        assert code == 1
        assert "byte offset" in err

    def test_bad_activation_code_is_format_error(self, trained, tmp_path):
        tensors = read_manifest(trained["ckpt"])
        tensors["meta/activations"][0] = 7.0
        bad = tmp_path / "act.lbnn"
        write_tensors(bad, tensors)
        proc = subprocess.run([sys.executable, "-m", "slabnn", "inspect", str(bad)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("format error:")
        assert "Traceback" not in proc.stderr

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = _run_main(["inspect", str(tmp_path / "no.lbnn")], capsys)
        assert code == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg, out = _write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "slabnn", "train", str(cfg)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (out / "smoke" / "summary.kv").exists()

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
