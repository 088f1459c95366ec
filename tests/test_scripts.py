"""The shipped scripts, run in a subprocess as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_end_to_end(data_dir, tracks_per_class, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_end_to_end.py"),
         "--data-dir", str(data_dir), "--tracks-per-class", str(tracks_per_class),
         "--duration-s", "24", "--seeds", "0", "--epochs", "1", "--quiet", *flags],
        capture_output=True, text=True, env=env, timeout=300)


def test_end_to_end_script_runs(tmp_path):
    proc = run_end_to_end(tmp_path / "corpus", 7)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("mean: accuracy=") for line in proc.stdout.splitlines())


def assert_refused_before_rendering(proc, data_dir):
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert not list(data_dir.glob("*.wav"))


# 4 tracks a class is below split_dataset's 10 entries; 6 leaves the 8/1/1
# split's test share empty
@pytest.mark.parametrize("tracks_per_class", [4, 6])
def test_end_to_end_script_too_small_corpus_exits_2(tracks_per_class, tmp_path):
    proc = run_end_to_end(tmp_path / "corpus", tracks_per_class)
    assert_refused_before_rendering(proc, tmp_path / "corpus")


# a training setting TrainConfig refuses, on a corpus large enough to split
@pytest.mark.parametrize("flags", [["--epochs", "0"], ["--lr", "-1"]],
                         ids=["epochs_0", "lr_negative"])
def test_end_to_end_script_bad_training_setting_exits_2(flags, tmp_path):
    proc = run_end_to_end(tmp_path / "corpus", 7, *flags)
    assert_refused_before_rendering(proc, tmp_path / "corpus")
