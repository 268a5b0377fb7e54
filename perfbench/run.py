"""Benchmark of the strobofp CLI: three workloads, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|profile|mc|all --seed N \
        --seconds S --trace 0|1 [--label NAME] [--bench-dir DIR]

Each workload is a list of `strobofp` commands (workloads.py) run one after
another as a closed loop, each in a fresh interpreter (child.py), for about
`--seconds` seconds of whole passes.  Every output is checked.  With
`--trace 0` the last stdout line is the end-to-end result; with `--trace 1`
traced passes alternate with untraced ones and the last line carries the
per-layer metrics.  `--workload all` runs every workload with tracing and
prints everything.  `--label NAME` also writes BENCH_<NAME>.json into
`--bench-dir` (default: perfbench/results).

The benchmark pins STROBOFP_THREADS and the BLAS thread counts to 1: this
is the single-threaded baseline.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

THREAD_ENV = {
    "STROBOFP_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)  # before numpy loads, for the checks in this process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"
# Commands still running this long after a workload starts (or three times
# --seconds, if that is longer) are killed and counted as failed, so that a
# hung command cannot hold a run past its limit.
WORKLOAD_LIMIT_S = 150.0

# The result line of each mode: (name, unit) in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cmd_geomean_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("operator_core.build_s", "s"),
    ("operator_core.build_calls", "count"),
    ("operator_core.matvec_s", "s"),
    ("operator_core.matvec_calls", "count"),
    ("operator_core.matvec_gflop", "gflop"),
    ("resolvent.factor_s", "s"),
    ("resolvent.factor_calls", "count"),
    ("resolvent.factor_gflop", "gflop"),
    ("resolvent.factor_mb", "MB"),
    ("resolvent.solve_s", "s"),
    ("resolvent.solve_calls", "count"),
    ("resolvent.refine_ratio", "ratio"),
    ("resolvent.spectral_frac", "frac"),
    ("resolvent.spectral_calls", "count"),
    ("resolvent.matvec_per_spectral", "count"),
    ("resolvent.survival_frac", "frac"),
    ("resolvent.lambda0_err", "abs"),
    ("montecarlo.simulate_frac", "frac"),
    ("montecarlo.trials", "count"),
    ("montecarlo.frames", "count"),
    ("montecarlo.overflow", "count"),
    ("fitting.fit_frac", "frac"),
    ("asymptotics.mode_sum_frac", "frac"),
    ("asymptotics.mode_sum_calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)
# Printed and stored besides the result line.  Per-command times
# ("<command>_s", seconds) come from the workload; the Monte Carlo per-case
# costs are "<name>.<case>".
DIAGNOSTICS = (
    ("failed_frac", "frac"),
    ("setup_raw_s", "s"),
    ("wall_raw_s", "s"),
    ("reference_s", "s"),
    ("import_reference_s", "s"),
    ("command_s", "s"),
    ("resolvent.spectral_s", "s"),
    ("resolvent.survival_s", "s"),
    ("montecarlo.simulate_s", "s"),
    ("fitting.fit_s", "s"),
    ("asymptotics.mode_sum_s", "s"),
    ("operator_core.self_s", "s"),
    ("resolvent.self_s", "s"),
    ("montecarlo.self_s", "s"),
    ("fitting.self_s", "s"),
    ("asymptotics.self_s", "s"),
    ("montecarlo.us_per_trial", "us"),
    ("montecarlo.ns_per_frame", "ns"),
)
UNITS = dict((*END_TO_END, *PER_LAYER, *DIAGNOSTICS))
LAMBDA0_RHO = 200.0
# The host's speed drifts by up to 40% over tens of minutes (shared 2-vCPU
# VM), so end-to-end times are given at a reference speed.  Each untraced
# command's interpreter also times a fixed job outside strobofp (banded
# Cholesky and convolution, see child.reference_s) after main(argv); a pass's
# times are scaled by REFERENCE_S / (median of the pass's jobs).  Import time
# follows the speed of loading modules rather than of arithmetic, so each
# command's import (in setup_s and wall_s) is scaled instead by
# IMPORT_REFERENCE_S / (the time of IMPORT_REFERENCE, a fixed import of NumPy
# and SciPy in an interpreter of its own, run just before the command).  Both
# constants are about the jobs' times on that VM when quiet.
REFERENCE_S = 0.25
IMPORT_REFERENCE_S = 0.45
IMPORT_REFERENCE = (
    "import time; t0 = time.perf_counter(); "
    "import numpy, scipy.linalg, scipy.special; "
    "print(time.perf_counter() - t0)"
)
WORKLOADS = ("sweep", "profile", "mc")


def unit_of(name: str, units: dict) -> str:
    return units[name] if name in units else units[name.rsplit(".", 1)[0]]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- running commands ------------------------------------------------------------


def import_reference(env: dict, cwd: Path) -> float:
    """Seconds of IMPORT_REFERENCE in a fresh interpreter (no strobofp code)."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_REFERENCE], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def run_command(cmd, workdir: Path, trace: bool, env: dict, deadline: float) -> dict:
    """One command in a fresh interpreter; returns its record plus `failure`."""
    from workloads import CheckFailed

    result = workdir / f"{cmd.name}.result.json"
    argv = [sys.executable, str(CHILD), str(result), "1" if trace else "0", "--", *cmd.argv]
    record = {"name": cmd.name}
    if not trace:
        record["import_reference_s"] = import_reference(env, workdir)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=max(0.0, deadline - t0))
    except subprocess.TimeoutExpired:
        record.update(wall_s=time.perf_counter() - t0,
                      failure="killed at the workload's time limit")
        return record
    record["wall_s"] = time.perf_counter() - t0
    if proc.returncode != 0 or not result.is_file():
        record["failure"] = f"interpreter exited {proc.returncode}: {proc.stderr[-400:]}"
        return record
    record.update(json.loads(result.read_text()), failure=None)
    if record["error"]:
        record["failure"] = record["error"]
    elif record["rc"] != 0:
        record["failure"] = f"strobofp exited {record['rc']}: {proc.stderr[-400:]}"
    else:
        try:
            cmd.check(workdir)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            record["failure"] = f"check: {type(exc).__name__}: {exc}"
    return record


def run_pass(commands, trace: bool, env: dict, work_root: Path, deadline: float) -> list[dict]:
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        return [run_command(cmd, workdir, trace, env, deadline) for cmd in commands]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(commands, seconds: float, trace: bool, work_root: Path):
    """Whole passes for about `seconds`; with `trace`, traced passes alternate.

    The run stops at the pass boundary nearest to `seconds`.  A first
    untimed `strobofp --help` compiles the package's bytecode and loads
    NumPy and SciPy from disk once, as any earlier invocation would.  No
    pass starts after the workload's time limit; a command still running at
    it is killed.
    """
    env = child_env()
    deadline = time.perf_counter() + max(WORKLOAD_LIMIT_S, 3.0 * seconds)
    subprocess.run([sys.executable, str(CHILD), str(work_root / "warm-up.json"), "0", "--",
                    "--help"], cwd=work_root, env=env, capture_output=True, timeout=60)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(commands, False, env, work_root, deadline))
        if trace:
            traced.append(run_pass(commands, True, env, work_root, deadline))
        now = time.perf_counter()
        if (now - start) * (len(plain) + 0.5) / len(plain) > seconds or now >= deadline:
            return plain, traced


# -- metrics ---------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values))


def pass_speed(records) -> float:
    """REFERENCE_S over the median time of the pass's reference jobs."""
    return REFERENCE_S / _median([r["reference_s"] for r in records if "reference_s" in r]
                                 or [math.nan])


def import_speed(record) -> float:
    """IMPORT_REFERENCE_S over the import reference run just before the command."""
    return IMPORT_REFERENCE_S / record["import_reference_s"]


def pass_wall(records, speed: float | None = None) -> float:
    """Interpreter start to exit, summed over the pass, without the reference job.

    With `speed`, each command's import is put at the reference import speed
    and the rest of its time is multiplied by `speed`.
    """
    total = 0.0
    for r in records:
        wall = r["wall_s"] - r.get("reference_s", 0.0)
        if speed is not None and "import_s" in r:
            wall = speed * (wall - r["import_s"]) + import_speed(r) * r["import_s"]
        total += wall
    return total


def end_to_end(passes) -> dict:
    """Medians over passes at the reference speed; command times are `main(argv)` only."""
    records = [r for p in passes for r in p]
    ok = [r for r in records if r["failure"] is None]
    names = [r["name"] for r in passes[0]]
    speeds = [pass_speed(p) for p in passes]
    out = {}
    for name in names:
        times = [s * r["main_s"] for p, s in zip(passes, speeds) for r in p
                 if r["name"] == name and r["failure"] is None]
        if times:
            out[f"{name}_s"] = _median(times)
    per_cmd = [out[f"{n}_s"] for n in names if f"{n}_s" in out]
    imported = [r for r in records if "import_s" in r]
    out["setup_s"] = _median([import_speed(r) * r["import_s"] for r in imported] or [math.nan])
    out["wall_s"] = _median([pass_wall(p, s) for p, s in zip(passes, speeds)])
    out["cmd_geomean_s"] = (math.exp(statistics.fmean(math.log(t) for t in per_cmd))
                            if per_cmd else math.nan)
    out["setup_raw_s"] = _median([r["import_s"] for r in imported] or [math.nan])
    out["wall_raw_s"] = _median([pass_wall(p) for p in passes])
    out["reference_s"] = _median([r["reference_s"] for r in records if "reference_s" in r]
                                 or [math.nan])
    out["import_reference_s"] = _median([r["import_reference_s"] for r in records])
    out["peak_rss_mb"] = _median([max(r.get("rss_kb", 0) for r in p) / 1024.0 for p in passes])
    out["failed_frac"] = (len(records) - len(ok)) / len(records)
    return out


def per_layer(traced, plain, lambda0_err: float) -> dict:
    from spans import pass_metrics

    per_pass = [pass_metrics({r["name"]: r.get("spans", []) for r in p}) for p in traced]
    out = {key: _median([m.get(key, 0.0) for m in per_pass]) for key in per_pass[0]}
    out["resolvent.lambda0_err"] = lambda0_err
    # Each traced pass against the untraced pass just before it, so that a
    # drift in the host's speed over the run cancels.
    out["trace.overhead_frac"] = _median([pass_wall(t) / pass_wall(p)
                                          for t, p in zip(traced, plain)]) - 1.0
    return out


def lambda0_error(rho: float = LAMBDA0_RHO) -> float:
    """|lambda0 from spectral_pair - scipy.linalg.eig_banded| at one rho."""
    import numpy as np
    from scipy.linalg import eig_banded

    from strobofp import ProblemSpec, build_operator, spectral_pair

    op = build_operator(ProblemSpec(rho=rho))
    lam, _, _ = spectral_pair(op)
    bw, n = op.bandwidth, op.n
    upper = np.zeros((bw + 1, n))
    for d in range(bw + 1):
        upper[bw - d, d:] = op.band[d]
    ref = eig_banded(upper, eigvals_only=True, select="i", select_range=(n - 1, n - 1))
    return abs(lam - float(ref[0]))


# -- reporting -------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "threads": dict(THREAD_ENV),
    }


def _value(value: float, unit: str):
    return int(value) if unit == "count" and float(value).is_integer() else value


def print_block(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        unit = unit_of(name, units)
        value = _value(value, unit)
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<36} {text:>14} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path) -> dict:
    from workloads import workload

    commands = workload(name, seed)
    plain, traced = measure(commands, seconds, trace, work_root)
    records = [r for p in plain + traced for r in p]
    failures = [f"{r['name']}: {r['failure']}" for r in records if r["failure"]]
    result = {
        "workload": name,
        "commands": {c.name: "strobofp " + " ".join(c.argv) for c in commands},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "end_to_end": end_to_end(plain),
    }
    if trace:
        result["per_layer"] = per_layer(traced, plain, lambda0_error())
    print(f"== workload {name}  seed={seed}  passes={len(plain)} untraced, {len(traced)} "
          f"traced  nproc={os.cpu_count()}  STROBOFP_THREADS=1  BLAS threads=1")
    for label, argv in result["commands"].items():
        print(f"  {label:<14} {argv}")
    units = {**UNITS, **{f"{c.name}_s": "s" for c in commands}}
    print_block("end to end (median over untraced passes, times at the reference speed;"
                " command times are main(argv)):",
                result["end_to_end"], units)
    if trace:
        print_block("per layer (median over traced passes; flops and MB are computed):",
                    result["per_layer"], units)
    for line in failures:
        print(f"FAILED {line}")
    return result


def result_line(results, trace: bool, prefix: bool) -> dict:
    metrics = {}
    chosen = [*END_TO_END, *PER_LAYER] if prefix else (PER_LAYER if trace else END_TO_END)
    for res in results:
        values = {**res["end_to_end"], **res.get("per_layer", {})}
        for name, unit in chosen:
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": _value(values[name], unit), "unit": unit}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def write_bench(path: Path, args, results, line: dict) -> None:
    payload = {
        "label": args.label,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {r["workload"]: r for r in results},
        "result": line,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--label", default=None, help="write BENCH_<label>.json")
    parser.add_argument("--bench-dir", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "strobofp" / "cli.py").is_file():
        print(f"perfbench: no strobofp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    everything = args.workload == "all"
    names = WORKLOADS if everything else (args.workload,)
    trace = everything or args.trace == 1
    WORK_ROOT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        results = [run_workload(n, args.seed, args.seconds, trace, work_root) for n in names]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    line = result_line(results, trace, prefix=everything)
    if args.label:
        write_bench(args.bench_dir / f"BENCH_{args.label}.json", args, results, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
