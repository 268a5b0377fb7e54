"""Run one `strobofp` command in this fresh interpreter and record what it cost.

Usage: python3 child.py RESULT_JSON TRACE(0|1) -- ARGV...

The harness in run.py starts one interpreter per command, because a real
`strobofp` invocation is a fresh process: no cache can outlive a command
unless a user would also keep it.  This script times `import strobofp.cli`
(reported as set-up; NumPy and SciPy load inside it, as they do for a user)
separately from `strobofp.cli.main(argv)`, and with TRACE=1 wraps the
package's public callables so that every call into a layer becomes a span.
Spans are kept in memory and written to RESULT_JSON when the command has
finished.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

# (module, attribute) pairs wrapped in traced runs.  The span is named after
# the layer that owns the callable; SciPy's banded Cholesky routines are
# wrapped under the names the `resolvent` module imports them by, and the
# thread-pool helper counts as CLI work.
TRACED = (
    ("operator_core", "build_operator"),
    ("operator_core", "build_averaged_operator"),
    ("resolvent", "exit_stats"),
    ("resolvent", "mean_frames"),
    ("resolvent", "spectral_pair"),
    ("resolvent", "survival_sequence"),
    ("resolvent", "cholesky_banded"),
    ("resolvent", "cho_solve_banded"),
    ("montecarlo", "simulate_tau"),
    ("montecarlo", "self_averaging_check"),
    ("montecarlo", "write_histogram_csv"),
    ("fitting", "fit_boundary"),
    ("fitting", "fit_bulk"),
    ("fitting", "fit_gap"),
    ("asymptotics", "mode_sum_survival"),
    ("_threads", "parallel_map"),
)
_LAYER = {"_threads": "cli"}


def _matvec_work(args, result):
    """Computed flops of one banded Toeplitz product: 2 n (2 bw + 1)."""
    op = args[0]
    return {"gflop": 2.0 * op.n * (2 * op.bandwidth + 1) * 1e-9}


def _factor_work(args, result):
    """Computed flops (about n bw^2) and band-factor bytes of one Cholesky."""
    rows, n = args[0].shape
    bw = rows - 1
    return {"gflop": n * bw * bw * 1e-9, "bytes": 8.0 * rows * n}


def _mc_work(args, result):
    """Trials, frames simulated (from the returned histogram) and overflow."""
    hist = result.histogram
    frames = sum(k * int(c) for k, c in enumerate(hist.tolist(), start=1))
    return {
        "trials": result.n_trials,
        "frames": frames + result.overflow * result.n_cap,
        "overflow": result.overflow,
    }


_WORK = {
    "operator_core.matvec": _matvec_work,
    "resolvent.cholesky_banded": _factor_work,
    "montecarlo.simulate_tau": _mc_work,
}


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, work)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = _WORK.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                done = work(args, result) if work and result is not None else None
                spans[index] = (name, start, end, parent, done)

        return traced

    def install(self):
        """Wrap every TRACED callable in every package namespace that holds it."""
        import importlib

        import strobofp

        modules = {
            short: importlib.import_module(f"strobofp.{short}")
            for short in ("_threads", "asymptotics", "cli", "fitting",
                          "montecarlo", "operator_core", "resolvent")
        }
        namespaces = [strobofp, *modules.values()]
        for short, attr in TRACED:
            original = getattr(modules[short], attr)
            wrapped = self.wrap(f"{_LAYER.get(short, short)}.{attr}", original)
            for namespace in namespaces:
                if getattr(namespace, attr, None) is original:
                    setattr(namespace, attr, wrapped)
        cls = modules["operator_core"].StroboOperator
        cls.matvec = self.wrap("operator_core.matvec", cls.matvec)

    def root(self, fn, *args):
        """Run the command itself as the root span `cli.main`."""
        return self.wrap("cli.main", fn)(*args)


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB.

    VmHWM starts afresh at exec; ru_maxrss would also count the parent's
    resident set at fork, so it is only the fallback off Linux.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reference_s() -> float:
    """Time of a fixed job outside strobofp: nine SciPy banded Cholesky
    factorizations (n = 3600, bandwidth 153), then 600 NumPy convolutions of
    a 3600-vector with a 307-wide kernel, about equal parts.  run.py scales
    command times by it to a reference machine speed; the two parts follow
    the host's speed at LAPACK and at NumPy work, which differ."""
    import numpy as np
    from scipy.linalg import cholesky_banded

    t0 = time.perf_counter()
    ab = np.full((154, 3600), -0.5 / 307)
    ab[-1] = 1.0
    for _ in range(9):
        cholesky_banded(ab)
    vec, kernel = np.linspace(0.0, 1.0, 3600), np.full(307, 1.0 / 307)
    for _ in range(600):
        vec = np.convolve(vec, kernel)[153:3753]
    return time.perf_counter() - t0


def main(argv) -> int:
    result_path, trace = argv[0], argv[1] == "1"
    command = argv[argv.index("--") + 1:]
    record = {"argv": command, "rc": None, "error": None}
    t0 = time.perf_counter()
    import strobofp.cli

    record["import_s"] = time.perf_counter() - t0
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    t1 = time.perf_counter()
    try:
        if tracer:
            record["rc"] = tracer.root(strobofp.cli.main, command)
        else:
            record["rc"] = strobofp.cli.main(command)
    except Exception:  # reported to the harness, which counts it as failed
        record["error"] = traceback.format_exc(limit=5)
    record["main_s"] = time.perf_counter() - t1
    record["rss_kb"] = peak_rss_kb()
    if not tracer:
        record["reference_s"] = reference_s()
    if tracer:
        record["spans"] = [
            (name, start - t1, end - t1, parent, work)
            for name, start, end, parent, work in tracer.spans
        ]
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
