"""The README's API example and the demos run as documented."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import slabnn
from slabnn.cli import load_config, main
from slabnn.errors import ConfigError

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def test_readme_quick_start_keeps_the_true_features(capsys):
    readme = (ROOT / "README.md").read_text()
    [block] = re.findall(r"## Quick start \(API\)\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert "features kept: [0 1 2 3 4]\n" in capsys.readouterr().out


def test_ood_entropy_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(slabnn.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(DEMOS / "ood_entropy.py")], cwd=ROOT, env=env,
                         check=True, capture_output=True, text=True, timeout=120).stdout
    inside = float(re.search(r"median entropy, in-domain: (\S+)", out).group(1))
    shifted = float(re.search(r"median entropy, shifted: +(\S+)", out).group(1))
    assert shifted > inside


def test_sparse_recovery_demo_trains(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["train", str(DEMOS / "sparse_recovery.ini")]) == 0
    run = tmp_path / "runs" / "sparse_recovery"
    assert (run / "summary.kv").is_file()
    for seed in (1, 2):
        kv = dict(line.split("=", 1)
                  for line in (run / f"seed{seed}" / "metrics.kv").read_text().splitlines())
        assert 0.2 <= float(kv["density"]) <= 0.3  # about 5 of 20 features and the bias


def test_digits_config_lacks_only_its_data_files(tmp_path, monkeypatch):
    monkeypatch.setenv("SLABNN_DATA_DIR", str(tmp_path))
    with pytest.raises(ConfigError) as info:
        load_config(str(DEMOS / "digits_idx.ini"))
    mnist = tmp_path / "data" / "mnist"
    assert str(info.value).splitlines() == [
        f"[dataset] train_images: file not found: {mnist / 'train-images-idx3-ubyte'}",
        f"[dataset] train_labels: file not found: {mnist / 'train-labels-idx1-ubyte'}",
    ]
