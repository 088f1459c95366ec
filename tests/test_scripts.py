"""The shipped scripts, run in a subprocess as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_end_to_end(data_dir, tracks_per_class):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_end_to_end.py"),
         "--data-dir", str(data_dir), "--tracks-per-class", str(tracks_per_class),
         "--duration-s", "24", "--seeds", "0", "--epochs", "1", "--quiet"],
        capture_output=True, text=True, env=env, timeout=300)


def test_end_to_end_script_runs(tmp_path):
    proc = run_end_to_end(tmp_path / "corpus", 7)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("mean: accuracy=") for line in proc.stdout.splitlines())


# 4 tracks a class is below split_dataset's 10 entries; 6 leaves the 8/1/1
# split's test share empty
@pytest.mark.parametrize("tracks_per_class", [4, 6])
def test_end_to_end_script_too_small_corpus_exits_2(tracks_per_class, tmp_path):
    proc = run_end_to_end(tmp_path / "corpus", tracks_per_class)
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    # refused before any track is rendered
    assert not list((tmp_path / "corpus").glob("*.wav"))
