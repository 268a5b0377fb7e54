"""The benchmark's workloads: `strobofp` command lines and their output checks.

Each command writes its output into the pass's working directory; its check
reads that output back and raises CheckFailed when a number is wrong.  Fit
checks use the tolerances of the acceptance suite (tests/test_acceptance.py).
Why each workload exists is recorded in NOTES.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from strobofp import asymptotics
from strobofp.cli import read_csv
from strobofp.fitting import REFERENCE_FITS


class CheckFailed(Exception):
    """A command's output is missing or disagrees with its reference."""


@dataclass(frozen=True)
class Command:
    """One timed `strobofp` invocation; `name` + "_s" is its metric."""

    name: str
    argv: tuple
    check: Callable[[Path], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _csv(path: Path, columns):
    _require(path.is_file(), f"{path.name} was not written")
    _, found, rows = read_csv(path.read_text())
    _require(found == list(columns), f"{path.name} columns {found} != {list(columns)}")
    table = np.array(rows, dtype=float)
    _require(table.ndim == 2 and np.all(np.isfinite(table)), f"{path.name} has non-finite rows")
    return table


def _json(path: Path) -> dict:
    _require(path.is_file(), f"{path.name} was not written")
    return json.loads(path.read_text())


def _near(name: str, value: float, target: float, tol: float) -> None:
    _require(abs(value - target) <= tol, f"{name}={value!r} not within {tol:g} of {target!r}")


# -- sweep ---------------------------------------------------------------------

_SWEEP_RHOS = np.arange(20.0, 201.0, 10.0)
# Criterion 04v: gap*rho^2 = pi^2/2 + beta/rho + ..., with beta = -2 pi^2 b.
_BETA_IMPLIED = -2.0 * math.pi**2 * asymptotics.BULK_B


def check_meantau(out: Path) -> None:
    """Rows against the bulk law, plus criterion 04v on the gap column."""
    t = _csv(out / "meantau.csv", ("rho", "y0", "M", "mean_tau", "lambda0", "gap"))
    rho, y0, M, mean_tau, lam, gap = t.T
    _require(np.array_equal(rho, _SWEEP_RHOS), f"rho column {rho.tolist()}")
    _require(np.all(y0 == 0.5), "y0 column is not 0.5")
    _require(np.allclose(mean_tau, 1.0 + M, rtol=1e-12, atol=0.0), "mean_tau != 1 + M")
    _require(np.all((lam > 0.0) & (lam < 1.0)), "lambda0 outside (0, 1)")
    _require(np.allclose(gap, 1.0 - lam, rtol=0.0, atol=1e-15), "gap != 1 - lambda0")
    law = np.array([asymptotics.bulk_law(r) for r in rho])
    worst = float(np.max(np.abs(mean_tau - law)))
    _require(worst <= 0.05, f"E[tau] deviates from bulk_law by {worst:.3g} (> 0.05)")
    window = rho <= 120.0
    r = rho[window]
    design = np.column_stack([np.ones_like(r), 1.0 / r, 1.0 / r**2])
    intercept, beta3, _ = np.linalg.lstsq(design, gap[window] * r**2, rcond=None)[0]
    _near("gap intercept (3-term)", intercept, math.pi**2 / 2.0, 1e-3)
    _near("gap beta (3-term)", beta3, _BETA_IMPLIED, 0.15)


def check_fit_gap(out: Path) -> None:
    """Criterion 04v on the CLI's two-term fit: pi^2/2 intercept, negative beta.

    The two-term model omits the 1/rho^2 term, which moves its intercept by
    about 5e-3 on [20, 120]; the 1e-3 tolerance of criterion 04v applies to
    the three-term fit, checked on the gap column of `meantau`.
    """
    fit = _json(out / "fit_gap.json")
    _require(fit["model"] == "gap" and fit["n_points"] == 11, f"fit_gap header {fit}")
    _near("intercept", fit["coefficients"]["intercept"], math.pi**2 / 2.0, 1e-2)
    _require(fit["coefficients"]["beta"] < 0.0, "gap beta is not negative")


def check_survival(out: Path) -> None:
    """S_n is a survival sequence whose tail decays at the 04v gap law."""
    t = _csv(out / "survival.csv", ("n", "S_n", "mode_sum"))
    n, s, mode = t.T
    _require(np.array_equal(n, np.arange(2001.0)), "n column is not 0..2000")
    _require(s[0] == 1.0 and mode[0] == 1.0, "S_0 != 1")
    # A bulk start survives the first frames with S_n = 1 to rounding error.
    _require(np.all((s > 0.0) & (s <= 1.0 + 1e-12)) and np.all(np.diff(s) <= 1e-12),
             "S_n is not a non-increasing sequence in (0, 1]")
    _require(np.all((mode >= 0.0) & (mode <= 1.0)), "mode_sum outside [0, 1]")
    rho = 100.0
    gap_law = (math.pi**2 / 2.0 + _BETA_IMPLIED / rho) / rho**2
    tail_gap = 1.0 - s[-1] / s[-2]
    _require(abs(tail_gap / gap_law - 1.0) <= 1e-2,
             f"tail decay 1 - S_n/S_(n-1) = {tail_gap:.6g}, gap law {gap_law:.6g}")


# -- profile -------------------------------------------------------------------


def _fit(out: Path, filename: str, model: str) -> dict:
    fit = _json(out / filename)
    _require(fit["model"] == model and fit["n_points"] == 19, f"{filename} header {fit}")
    return {**fit["coefficients"], **fit["derived"]}


def check_fit_boundary(out: Path) -> None:
    """Criterion 01: A within 1e-3, B within 2e-3 of the reference."""
    c, ref = _fit(out, "fit_boundary.json", "boundary"), REFERENCE_FITS["boundary"]
    _near("A", c["A"], ref["A"], 1e-3)
    _near("B", c["B"], ref["B"], 2e-3)


def check_fit_bulk(out: Path) -> None:
    """Criterion 03: a 1e-3, b 5e-3, c and C 2e-2."""
    c, ref = _fit(out, "fit_bulk.json", "bulk"), REFERENCE_FITS["bulk"]
    for name, tol in (("a", 1e-3), ("b", 5e-3), ("c", 2e-2), ("C", 2e-2)):
        _near(name, c[name], ref[name], tol)


def check_figures(out: Path) -> None:
    """Every figure CSV parses with cli.read_csv; every script is written."""
    figures = out / "figures"
    _require(len(_csv(figures / "fig2.csv", ("rho", "etau_bulk_law", "quarter_rho_sq"))) == 40,
             "fig2.csv does not have 40 rows")
    for name, last in (("fig3", "M_asymptote"), ("fig4", "M_quarter_rho_sq")):
        table = _csv(figures / f"{name}.csv", ("rho", "M_data", "M_fit", last))
        _require(np.array_equal(table[:, 0], _SWEEP_RHOS), f"{name}.csv rho column")
    for name in ("fig2", "fig3", "fig4"):
        script = figures / f"{name}.gp"
        _require(script.is_file() and f"{name}.csv" in script.read_text(),
                 f"{name}.gp missing or not plotting {name}.csv")


def check_fit_bulk_exp(out: Path) -> None:
    """Exponential frame intervals keep the rho^2/4 leading term."""
    _near("a", _fit(out, "fit_bulk_exp.json", "bulk")["a"], 0.25, 1e-3)


# -- mc ------------------------------------------------------------------------


# The CLI marks a run `passed` at |z| < 3, which about 1 seed in 100 misses
# on one of the four mc commands by chance (seed 21 gives z = 3.38 on
# mc_bulk).  The benchmark repeats the test for every seed it is given, so
# it gates at five standard errors and reports the CLI's flag alongside.
MC_Z_BOUND = 5.0


def _mc_check(filename: str, trials: int, seed: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        report = _json(out / filename)
        _require(report["mc"]["n_trials"] == trials and report["mc"]["seed"] == seed,
                 f"{filename} ran {report['mc']}")
        _require(report["mc"]["overflow"] == 0, f"{filename} overflow {report['mc']['overflow']}")
        _require(abs(report["z_score"]) < MC_Z_BOUND,
                 f"{filename} z-score {report['z_score']:.3f} (CLI passed={report['passed']})")

    check.__doc__ = "No trial overflowed and the z-score is within MC_Z_BOUND."
    return check


def _mc(name: str, seed: int, trials: int, *args: str) -> Command:
    out = f"{name}.json"
    argv = ("mc", *args, "--trials", str(trials), "--seed", str(seed), "--out", out)
    return Command(name, argv, _mc_check(out, trials, seed))


def workload(name: str, seed: int) -> list[Command]:
    """Command list of one workload; only `mc` uses the seed."""
    if name == "sweep":
        return [
            Command("meantau", ("meantau", "--rho-range", "20:200:10", "--y0", "0.5",
                                "--out", "meantau.csv"), check_meantau),
            Command("fit_gap", ("fit", "--which", "gap", "--out", "fit_gap.json"),
                    check_fit_gap),
            Command("survival", ("survival", "--rho", "100", "--y0", "0.5", "--n-max", "2000",
                                 "--modesum", "--out", "survival.csv"), check_survival),
        ]
    if name == "profile":
        return [
            Command("fit_boundary", ("fit", "--which", "boundary", "--out", "fit_boundary.json"),
                    check_fit_boundary),
            Command("fit_bulk", ("fit", "--which", "bulk", "--out", "fit_bulk.json"),
                    check_fit_bulk),
            Command("figures", ("figures", "--out", "figures"), check_figures),
            Command("fit_bulk_exp", ("fit", "--which", "bulk", "--dist", "exponential",
                                     "--out", "fit_bulk_exp.json"), check_fit_bulk_exp),
        ]
    if name == "mc":
        return [
            _mc("mc_short", seed, 100_000, "--rho", "2"),
            _mc("mc_bulk", seed, 100_000, "--rho", "10", "--y0", "0.5"),
            _mc("mc_random", seed, 100_000, "--rho", "10", "--dist", "exponential"),
            _mc("mc_boundary", seed, 50_000, "--rho", "30", "--y0", "0"),
        ]
    raise ValueError(f"unknown workload {name!r}")
