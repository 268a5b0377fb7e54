"""Smoke test of the benchmark harness; it gates on no timing.

Run from the repository root with `python -m pytest perfbench -m bench`.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402


def _run(script: Path, tmp_path: Path, *extra: str) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script), "--workload", "profile", "--seed", "1",
            "--seconds", "0.1", *extra]
    return subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=tmp_path)


@pytest.mark.bench
def test_one_pass_writes_valid_json(tmp_path):
    proc = _run(HERE / "run.py", tmp_path, "--trace", "1", "--label", "smoke",
                "--bench-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] == 8
    assert [name for name, _ in PER_LAYER] == list(line["metrics"])
    for name, unit in PER_LAYER:
        assert line["metrics"][name]["unit"] == unit
        assert math.isfinite(line["metrics"][name]["value"])

    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    env = bench["environment"]
    for key in ("git_sha", "python", "numpy", "scipy", "nproc", "threads"):
        assert key in env
    assert env["threads"]["STROBOFP_THREADS"] == "1"
    assert bench["seed"] == 1 and bench["result"] == line
    profile = bench["workloads"]["profile"]
    assert profile["passes"] == {"untraced": 1, "traced": 1}
    assert len(profile["commands"]) == 4
    assert all(argv.startswith("strobofp ") for argv in profile["commands"].values())
    for name, _ in END_TO_END:
        assert profile["end_to_end"][name] > 0.0
    assert profile["end_to_end"]["failed_frac"] == 0.0


@pytest.mark.bench
def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run(copy / "run.py", tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
