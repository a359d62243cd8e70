"""The scripts under scripts/ run end to end on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from ddm.config import ABLATIONS
from test_cli import TINY

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def test_run_pipeline(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    out = tmp_path / "run"
    done = run_script("run_pipeline.py", "--config", str(cfg), "--out",
                      str(out), "--workers", "1", "--no-plot", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    report = (out / "pred" / "report.csv").read_text().splitlines()
    assert report[0] == "threshold,precision,recall,f1" and len(report) == 12


def test_ablation_sweep(tmp_path):
    done = run_script("ablation_sweep.py", "--epochs", "1", "--train-videos",
                      "1", "--val-videos", "1", "--workers", "1",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = [line.split()[0] for line in done.stdout.splitlines()[2:]]
    assert rows == list(ABLATIONS)
