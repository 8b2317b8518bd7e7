"""End-to-end command-line behavior in temporary directories."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import write_tensors
from slabnn import cli, dataio, predictor
from slabnn.checkpoint import read_manifest, save_checkpoint
from slabnn.cli import load_config, main
from slabnn.errors import ConfigError
from slabnn.model import Family, LayerParams, NetworkSpec, PriorConfig, init_state
from slabnn.numkernel import RngStream
from slabnn.trainer import STOCK_LR

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

    def test_library_and_reader_problems_listed_together(self, tmp_path, capsys):
        # HyperParams raises DomainError; it is filed with the reader's problems
        text = GOOD_CONFIG.replace("n = 90", "n = -5") + "\n[prior]\na_beta = -1\n"
        cfg, _ = _write_config(tmp_path, text)
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert "config error: [dataset] n:" in err
        assert "config error: [prior] hyperparameter a_beta" in err

    @pytest.mark.parametrize("old,new", [
        ("separation = 4.0", "separation = inf"),
        ("[model]\n", "[model]\ninit_tau = nan\n"),
        ("[model]\n", "[prior]\nsigma2 = nan\n\n[model]\n"),
        ("lr_weights = 0.01", "lr_weights = inf"),
        ("lr_weights = 0.01", "lr_weights = 0.01\ndelta = nan"),
        ("replicates = 3", "replicates = 3\nthreshold = nan"),
    ])
    def test_non_finite_numbers_exit_two(self, tmp_path, capsys, old, new):
        cfg, out = _write_config(tmp_path, GOOD_CONFIG.replace(old, new))
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert "not a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("old,new,expected", [
        ("replicates = 3", "replicates = 3\nthreshold = 1.0",
         "[predict] threshold: must lie in [0, 1)"),
        ("seeds = 1,2", "seeds = 2,1,2", "[run] seeds: duplicate seeds"),
        # RngStream's own bound, 0 <= seed < 2**64, on both sides
        ("seeds = 1,2", "seeds = 1,-1", "[run] seed must fit in an unsigned 64-bit integer"),
        ("seeds = 1,2", "seeds = 1,18446744073709551616",
         "[run] seed must fit in an unsigned 64-bit integer"),
        # tau^2 overflows: the first step would abort after overflow warnings
        ("[model]\n", "[model]\ninit_tau = 1e308\n",
         "[model] init_tau: must be positive with a finite square, got 1e+308"),
        ("data_seed = 1", "data_seed = 1\nk_true = 3",
         "[dataset] k_true: not read with format = synth_clusters"),
        # a refused format is the one problem; its keys are not judged
        ("format = synth_clusters", "format = clusters\nk_true = 3",
         "[dataset] format: must be one of csv, idx, synth_logistic, synth_clusters; "
         "got 'clusters'"),
    ], ids=["threshold", "duplicate_seeds", "negative_seed", "seed_2**64", "init_tau_1e308",
            "key_of_another_format", "key_under_a_refused_format"])
    def test_refused_keys_write_nothing(self, tmp_path, capsys, old, new, expected):
        cfg, out = _write_config(tmp_path, GOOD_CONFIG.replace(old, new))
        code, stdout, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert err == f"config error: {expected}\n"
        assert stdout == ""
        assert not out.exists()

    def test_undecodable_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(GOOD_CONFIG.encode().replace(b"smoke", b"sm\xffke"))
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert "config error: cannot parse" in err and "bad.ini" in err

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

    def test_unset_step_sizes_come_from_the_stock_table(self, tmp_path):
        cfg, _ = _write_config(tmp_path)
        (phase,) = load_config(cfg).phases
        assert phase.lr == {**STOCK_LR[Family.MF]["train"], "weights": 0.01, "omega": 0.05}

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

    def test_sim_mea_exits_two(self, tmp_path, capsys):
        text = GOOD_CONFIG.replace("beta = sim", "beta = mea")
        cfg, _ = _write_config(tmp_path, text)
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert "config error: [predict] gamma=sim with beta=mea" in err

    @pytest.mark.parametrize("model_lines,expected", [
        ("widths = 4,3,2\nrank = 2", "config error: [model] rank:"),
        ("widths = 4,3,2\nfamily = mvn_full\nrank = 2", "config error: [model] rank:"),
        # 100001 * 100 weights in layer 0: an 8e14-byte Cholesky factor
        ("widths = 100000,100,2\nfamily = mvn_full", "config error: [model] widths: the mvn_full"),
        ("widths = 4,12345678901234567890,2", "config error: [model] widths: the mf"),
    ])
    def test_family_rules_exit_two(self, tmp_path, capsys, model_lines, expected):
        text = GOOD_CONFIG.replace("widths = 4,3,2", model_lines)
        text = text.replace("lr_omega = 0.05", "")
        cfg, _ = _write_config(tmp_path, text)
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert expected in err

    def test_absurd_synthetic_size_exits_two(self, tmp_path, capsys):
        text = GOOD_CONFIG.replace("n = 90", "n = 12345678901234567890")
        cfg, out = _write_config(tmp_path, text)
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert "config error: [dataset] n: 12345678901234567890 x 4 features" in err
        assert "bytes" in err
        assert not out.exists()

    def test_absurd_class_count_exits_two(self, tmp_path, capsys):
        text = GOOD_CONFIG.replace("classes = 2", "classes = 12345678901234567890")
        cfg, out = _write_config(tmp_path, text)
        code, _, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert ("config error: [dataset] classes: 12345678901234567890 x 4 class centres"
                in err)
        assert "bytes" in err
        assert not out.exists()

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

    def test_sim_mea_rejected(self, trained, tmp_path, capsys):
        code, _, err = _run_main(
            ["predict", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--gamma", "sim", "--beta", "mea",
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "gamma=sim with beta=mea" in err
        assert not (tmp_path / "x.csv").exists()

    def test_wrong_width_exits_one(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        code, _, err = _run_main(
            ["predict", str(trained["ckpt"]), "--csv", str(bad),
             "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert "features" in err

    def test_bad_delimiter_exits_two(self, trained, tmp_path, capsys):
        code, _, err = _run_main(
            ["predict", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--delimiter", "ab", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "delimiter" in err and "'ab'" in err
        assert not (tmp_path / "x.csv").exists()

    def test_absurd_replicates_exit_two_before_drawing(self, trained, tmp_path, capsys,
                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the replicate count")

        monkeypatch.setattr(predictor, "sample_network", refuse)
        code, stdout, err = _run_main(
            ["predict", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "-R", "12345678901234567890", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert err.startswith("config error: replicates: ")
        assert stdout == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
    def test_bad_threshold_exits_two_before_reading(self, trained, tmp_path, capsys,
                                                    monkeypatch, command, threshold):
        def refuse(*args, **kwargs):
            raise AssertionError("read the checkpoint before checking --threshold")

        monkeypatch.setattr(cli.ckpt, "load_checkpoint", refuse)
        code, stdout, err = _run_main(
            [command, str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--threshold", threshold, "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err == "config error: --threshold: must lie in [0, 1)\n"
        assert stdout == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_bad_seed_exits_two_before_reading(self, trained, tmp_path, capsys,
                                               monkeypatch, command, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("read the checkpoint before checking --seed")

        monkeypatch.setattr(cli.ckpt, "load_checkpoint", refuse)
        code, stdout, err = _run_main(
            [command, str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--seed", seed, "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert err == "config error: --seed: seed must fit in an unsigned 64-bit integer\n"
        assert stdout == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_label_without_output_exits_two(self, trained, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,3.0,4.0,0\n1.0,2.0,3.0,4.0,7\n")
        out = tmp_path / "out"
        code, stdout, err = _run_main(
            [command, str(trained["ckpt"]), "--csv", str(bad), "--out", str(out)], capsys)
        assert code == 2
        assert "dataset has 8 classes but widths end at 2" in err
        assert stdout == ""
        assert os.listdir(tmp_path) == ["bad.csv"]

    def test_non_finite_parameter_exits_one(self, trained, tmp_path):
        tensors = read_manifest(trained["ckpt"])
        tensors["layer00/omega"][1, 0] = np.nan
        bad = tmp_path / "nan.lbnn"
        write_tensors(bad, tensors)
        proc = subprocess.run(
            [sys.executable, "-m", "slabnn", "predict", str(bad), "--csv",
             str(trained["csv"]), "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("format error:")
        assert "layer00/omega" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

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

    def test_sim_mea_exits_two_before_writing(self, trained, tmp_path, capsys):
        out = tmp_path / "ev_bad"
        code, _, err = _run_main(
            ["eval", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--gamma", "sim", "--beta", "mea", "--out", str(out)], capsys)
        assert code == 2
        assert "gamma=sim with beta=mea" in err
        assert not out.exists()

    def test_alpha_hat_computed_once(self, trained, tmp_path, capsys, monkeypatch):
        # The report's layer_rho reuses the alpha_hat predict's med rule computed.
        spec = NetworkSpec((4, 3, 2))
        state = init_state(spec, PriorConfig(), Family.MVN_FULL, RngStream(3, 0))
        ckpt = tmp_path / "full.lbnn"
        save_checkpoint(ckpt, state)
        calls = []
        logit_sd = LayerParams.logit_sd

        def counting(self):
            calls.append(1)
            return logit_sd(self)

        monkeypatch.setattr(LayerParams, "logit_sd", counting)
        code, _, _ = _run_main(
            ["eval", str(ckpt), "--csv", str(trained["csv"]), "--gamma", "med",
             "--beta", "sim", "-R", "3", "--out", str(tmp_path / "ev")], capsys)
        assert code == 0
        assert len(calls) == state.n_transitions

    @pytest.mark.parametrize("family, rank", [(Family.MVN_FULL, 0), (Family.MVN_LOWRANK, 2)])
    def test_ood_eval_computes_alpha_hat_once(self, family, rank, trained, tmp_path, capsys,
                                              monkeypatch):
        # Both datasets' predicts and the report read one alpha_hat per layer.
        state = init_state(NetworkSpec((4, 3, 2)), PriorConfig(), family, RngStream(3, 0),
                           rank=rank)
        for lp in state.layers:
            lp.xi[...] = np.linspace(-1.0, 1.0, lp.n_weights)
        ckpt = tmp_path / "corr.lbnn"
        save_checkpoint(ckpt, state)
        calls = []
        logit_sd = LayerParams.logit_sd

        def counting(self):
            calls.append(1)
            return logit_sd(self)

        monkeypatch.setattr(LayerParams, "logit_sd", counting)
        code, _, _ = _run_main(
            ["eval", str(ckpt), "--csv", str(trained["csv"]), "--gamma", "med",
             "--beta", "sim", "-R", "2", "--ood-csv", str(trained["csv"]),
             "--out", str(tmp_path / "ev")], capsys)
        assert code == 0
        assert len(calls) == state.n_transitions

    def test_absurd_corr_samples_exit_two_without_csv(self, trained, tmp_path, capsys):
        out = tmp_path / "ev_big"
        code, _, err = _run_main(
            ["eval", str(trained["ckpt"]), "--csv", str(trained["csv"]), "--out", str(out),
             "--corr-layer", "0", "--corr-samples", "12345678901234567890"], capsys)
        assert code == 2
        assert err.startswith("config error: the layer 0 inclusion correlations count in "
                              "float32, exact up to 2**24 samples, got 12345678901234567890")
        assert not (out / "correlation_layer0.csv").exists()

    def test_correlation_csv_bytes_match_per_value_repr(self, trained, tmp_path, capsys,
                                                        monkeypatch):
        corr = np.array([[1.0, -0.0, 5e-324], [0.1 + 0.2, 1.0, -1.0], [0.0, 0.5, 1.0]])
        constant = np.array([False, True, False])
        monkeypatch.setattr(cli, "inclusion_correlation", lambda *args: (corr, constant))
        out = tmp_path / "ev_bytes"
        code, _, _ = _run_main(
            ["eval", str(trained["ckpt"]), "--csv", str(trained["csv"]), "--out", str(out),
             "--corr-layer", "0"], capsys)
        assert code == 0
        expected = "0,1,0\n" + "".join(",".join(repr(float(v)) for v in row) + "\n"
                                       for row in corr)
        assert (out / "correlation_layer0.csv").read_bytes() == expected.encode()

    def test_refused_corr_layer_writes_nothing(self, trained, tmp_path, capsys):
        out = tmp_path / "ev_big"
        code, stdout, err = _run_main(
            ["eval", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--ood-csv", str(trained["csv"]), "--out", str(out),
             "--corr-layer", "0", "--corr-samples", "12345678901234567890"], capsys)
        assert code == 2
        assert err.startswith("config error: the layer 0 inclusion correlations")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command,flags,expected", [
        ("eval", ["--csv", "{csv}", "--corr-layer", "5"], "layer index 5 out of range"),
        ("eval", ["--csv", "{csv}", "--corr-layer", "0", "--corr-samples", "1"],
         "need at least two samples to correlate"),
        ("eval", ["--csv", "{csv}", "--corr-layer", "0", "--corr-samples", "16777217"],
         "the layer 0 inclusion correlations count in float32, exact up to 2**24 samples, "
         "got 16777217"),
        ("predict", ["--images", "{images}", "--labels", "{labels}", "--standardize"],
         "--standardize: IDX pixels are consumed pre-scaled"),
        ("eval", ["--images", "{images}", "--labels", "{labels}", "--standardize"],
         "--standardize: IDX pixels are consumed pre-scaled"),
        ("eval", ["--csv", "{csv}", "--ood-images", "{images}", "--ood-labels", "{labels}",
                  "--standardize"], "--standardize: IDX pixels are consumed pre-scaled"),
    ], ids=["corr_layer", "corr_samples_1", "corr_samples_2**24+1", "predict_idx_standardize",
            "eval_idx_standardize", "eval_ood_idx_standardize"])
    def test_refused_flags_predict_nothing(self, trained, tmp_path, capsys, monkeypatch,
                                           command, flags, expected):
        _, images, labels = _idx_pair(tmp_path, 12)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return predictor.predict(*args, **kwargs)

        monkeypatch.setattr(cli, "predict", counting)
        flags = [f.format(csv=trained["csv"], images=images, labels=labels) for f in flags]
        out = tmp_path / "out"
        code, stdout, err = _run_main([command, str(trained["ckpt"]), *flags,
                                       "--out", str(out)], capsys)
        assert code == 2
        assert err == f"config error: {expected}\n"
        assert stdout == ""
        assert calls == []
        assert not out.exists()

    def test_unreadable_ood_data_writes_nothing(self, trained, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return predictor.predict(*args, **kwargs)

        monkeypatch.setattr(cli, "predict", counting)
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        out = tmp_path / "ev_ood"
        code, stdout, err = _run_main(
            ["eval", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--ood-csv", str(narrow), "--out", str(out)], capsys)
        assert code == 1
        assert err == "error: features must be (n, 4), got (2, 2)\n"
        assert stdout == ""
        assert calls == []
        assert not out.exists()

    def test_absurd_replicates_exit_two_without_writing(self, trained, tmp_path, capsys,
                                                        monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew before checking the replicate count")

        monkeypatch.setattr(predictor, "sample_network", refuse)
        out = tmp_path / "ev_reps"
        code, stdout, err = _run_main(
            ["eval", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--ood-csv", str(trained["csv"]), "-R", "12345678901234567890",
             "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("config error: replicates: ")
        assert stdout == ""
        assert not out.exists()

    def test_accuracy_independent_of_row_order(self, tmp_path, capsys):
        # The same rows, class 0 first and class 1 first: integer labels
        # are class ids, so both files score the same.  This state's
        # accuracy is far from 1/2, so a relabelled file would show.
        state = init_state(NetworkSpec((4, 3, 2)), PriorConfig(), Family.MVN_FULL,
                           RngStream(2, 0))
        ckpt_path = tmp_path / "full.lbnn"
        save_checkpoint(ckpt_path, state)
        ds = dataio.synth_clusters(60, 4, 2, separation=4.0, seed=1)
        accuracies = []
        for first in (0, 1):
            order = np.argsort(ds.labels != first, kind="stable")
            path = tmp_path / f"first{first}.csv"
            path.write_text("".join(
                ",".join(repr(float(v)) for v in ds.features[i]) + f",{ds.labels[i]}\n"
                for i in order))
            code, stdout, _ = _run_main(
                ["eval", str(ckpt_path), "--csv", str(path), "--gamma", "all",
                 "--beta", "mea", "--out", str(tmp_path / f"ev{first}")], capsys)
            assert code == 0
            [line] = [ln for ln in stdout.splitlines()
                      if ln.startswith("all_class_accuracy=")]
            accuracies.append(float(line.split("=")[1]))
        assert accuracies[0] == accuracies[1]
        assert abs(accuracies[0] - 0.5) > 0.2

    def test_identical_ood_dataset_gives_identical_cdf(self, trained,
                                                       tmp_path, capsys):
        out = tmp_path / "ev2"
        code, _, _ = _run_main(
            ["eval", str(trained["ckpt"]), "--csv", str(trained["csv"]),
             "--ood-csv", str(trained["csv"]), "--out", str(out)], capsys)
        assert code == 0
        assert (out / "entropy_in.csv").read_bytes() == \
               (out / "entropy_ood.csv").read_bytes()


FORMAT_RUN = """\
[dataset]
format = {fmt}
{keys}
[model]
widths = 4,3,2

[phase:train]
epochs = 1
batch_size = 10

[run]
seeds = 1
output_dir = {out}
run_id = fmt
"""


def _idx_pair(tmp_path, n):
    """An IDX image/label pair of n rows with 4 features, and its dataset."""
    gen = np.random.default_rng(n)
    data = dataio.Dataset(np.round(gen.uniform(size=(n, 4)) * 255.0) / 255.0,
                          gen.integers(0, 2, size=n), n_classes=2)
    images, labels = tmp_path / f"images{n}.idx", tmp_path / f"labels{n}.idx"
    dataio.write_idx(data, images, labels)
    return data, images, labels


class TestDataFormats:
    @pytest.mark.parametrize("fmt", ["csv", "idx", "synth_logistic", "idx_test_pair"])
    def test_train_on_each_format(self, tmp_path, capsys, fmt):
        data, images, labels = _idx_pair(tmp_path, 30)
        eval_rows = 30
        if fmt == "csv":
            path = tmp_path / "data.csv"
            path.write_text("".join(",".join(map(repr, row.tolist())) + f",{label}\n"
                                    for row, label in zip(data.features, data.labels)))
            keys = f"path = {path}\n"
        elif fmt.startswith("idx"):
            keys = f"train_images = {images}\ntrain_labels = {labels}\n"
            if fmt == "idx_test_pair":
                test, test_images, test_labels = _idx_pair(tmp_path, 12)
                keys += f"test_images = {test_images}\ntest_labels = {test_labels}\n"
                eval_rows = test.n
        else:
            keys = "n = 30\np = 4\nk_true = 2\ndata_seed = 4\n"
        cfg = tmp_path / "run.ini"
        cfg.write_text(FORMAT_RUN.format(fmt=fmt.removesuffix("_test_pair"), keys=keys,
                                         out=tmp_path / "out"))
        code, stdout, _ = _run_main(["train", str(cfg)], capsys)
        assert code == 0
        assert f"train_rows=30 eval_rows={eval_rows}" in stdout
        seed_dir = tmp_path / "out" / "fmt" / "seed1"
        lines = (seed_dir / "predictions.csv").read_text().splitlines()
        assert len(lines) == 1 + eval_rows
        assert (seed_dir / "checkpoint_final.lbnn").exists()

    @pytest.mark.parametrize("fmt,keys,expected", [
        ("csv", "path = {csv}\nlabel_column = none\n",
         "label_column: training needs labels; 'none' is for predict and eval"),
        ("csv", "path = {csv}\ndelimiter = ab\n", "delimiter: must be a single character"),
        ("idx", "{train}test_images = {images}\n",
         "test_images and test_labels must come together"),
        ("synth_logistic", "p = 3\nk_true = 4\n", "k_true: must not exceed p"),
        ("idx", "{train}{test}train_n = 20\ntest_n = 10\n",
         "a test IDX pair and a split cannot be combined"),
        ("idx", "{train}standardize = true\n", "standardize: IDX pixels are consumed pre-scaled"),
    ], ids=["unlabeled_csv", "long_delimiter", "unpaired_test_images", "k_true_over_p",
            "idx_test_pair_and_split", "idx_standardize"])
    def test_dataset_problems_exit_two_writing_nothing(self, tmp_path, capsys,
                                                        fmt, keys, expected):
        data, images, labels = _idx_pair(tmp_path, 30)
        csv = tmp_path / "data.csv"
        csv.write_text("".join(",".join(map(repr, row.tolist())) + f",{label}\n"
                               for row, label in zip(data.features, data.labels)))
        keys = keys.format(csv=csv, images=images,
                           train=f"train_images = {images}\ntrain_labels = {labels}\n",
                           test=f"test_images = {images}\ntest_labels = {labels}\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(FORMAT_RUN.format(fmt=fmt, keys=keys, out=tmp_path / "out"))
        code, stdout, err = _run_main(["train", str(cfg)], capsys)
        assert code == 2
        assert err == f"config error: [dataset] {expected}\n"
        assert stdout == ""
        assert not (tmp_path / "out").exists()

    def test_predict_and_eval_read_idx_flags(self, trained, tmp_path, capsys):
        _, images, labels = _idx_pair(tmp_path, 12)
        idx = ["--images", str(images), "--labels", str(labels)]
        out = tmp_path / "preds.csv"
        code, stdout, _ = _run_main(["predict", str(trained["ckpt"]), *idx,
                                     "--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 13
        assert "all_class_accuracy=" in stdout
        ev = tmp_path / "ev"
        code, _, _ = _run_main(["eval", str(trained["ckpt"]), *idx, "--ood-images",
                                str(images), "--ood-labels", str(labels), "--out", str(ev)],
                               capsys)
        assert code == 0
        assert (ev / "entropy_in.csv").read_bytes() == (ev / "entropy_ood.csv").read_bytes()
        code, _, err = _run_main(["predict", str(trained["ckpt"]), "--images", str(images),
                                  "--out", str(out)], capsys)
        assert code == 2
        assert "IDX input needs both images and labels paths" in err


class TestInspectCommand:
    def test_lists_contents(self, trained, capsys):
        code, stdout, _ = _run_main(["inspect", str(trained["ckpt"])], capsys)
        assert code == 0
        assert "version 1" in stdout
        assert "layer00/kappa" in stdout
        assert "widths" in stdout

    def test_parses_the_file_once(self, trained, capsys, monkeypatch):
        calls = []

        def counting(path):
            calls.append(path)
            return read_manifest(path)

        monkeypatch.setattr("slabnn.checkpoint.read_manifest", counting)
        code, stdout, _ = _run_main(["inspect", str(trained["ckpt"])], capsys)
        assert code == 0
        assert "layer00/kappa  (5x3)" in stdout
        assert len(calls) == 1

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
