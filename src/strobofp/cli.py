"""Command-line driver: sweeps, validation runs, and figure data files.

Subcommands: meantau, survival, spectrum, fit, mc, figures.  Tabular output
is CSV with a versioned header comment, structured output is JSON, figures
are CSV plus gnuplot scripts.  Every command is deterministic given its
configuration (Monte Carlo given its seed); exit codes are 0 on success,
2 on usage errors, 3 on numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import asymptotics
from ._threads import parallel_map
from .errors import ConvergenceError, FitError, ResolutionError, SolverError
from .fitting import REFERENCE_FITS, check_window, fit_boundary, fit_bulk, fit_gap
from .montecarlo import self_averaging_check, write_histogram_csv
from .operator_core import (
    DEFAULT_CUTOFF_ETA,
    FrameDistribution,
    ProblemSpec,
    build_averaged_operator,
)
from .resolvent import exit_stats, mean_frames, spectral_pair, survival_sequence

CSV_SCHEMA_VERSION = 1

_NUMERICAL_ERRORS = (
    ResolutionError,
    SolverError,
    ConvergenceError,
    FitError,
    np.linalg.LinAlgError,
    MemoryError,
)


class UsageError(argparse.ArgumentTypeError):
    """Invalid flag value or combination; argparse reports one raised by a
    `type` converter, `main` any other."""


@dataclass
class RunConfig:
    """Serializable record of one CLI invocation."""

    command: str
    rho: float | None = None
    rho_range: tuple | None = None
    y0: float = 0.5
    n_grid: int | None = None
    eta: float = DEFAULT_CUTOFF_ETA
    dist: str = "deterministic"
    trials: int = 100_000
    seed: int = 12345
    out: str = "-"
    fmt: str = "csv"
    modesum: bool = False
    n_max: int = 100
    which: str = "boundary"
    hist_out: str | None = None

    def to_dict(self) -> dict:
        raw = asdict(self)
        if raw["rho_range"] is not None:
            raw["rho_range"] = list(raw["rho_range"])
        return raw


def parse_rho_range(text: str) -> tuple:
    """lo:hi:step, inclusive of lo, inclusive of hi up to step/2 rounding."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise UsageError(f"range must be finite with lo <= hi and step > 0, got {text!r}")
    return lo, hi, step


def _range_values(rng: tuple) -> np.ndarray:
    lo, hi, step = rng
    return np.arange(lo, hi + 0.5 * step, step)


def _resolve_rhos(cfg: RunConfig) -> np.ndarray:
    if cfg.rho is not None:
        return np.array([cfg.rho])
    return _range_values(cfg.rho_range)


def _spec(cfg: RunConfig, rho: float) -> ProblemSpec:
    return ProblemSpec(rho=rho, y0=cfg.y0, n_grid=cfg.n_grid, cutoff_eta=cfg.eta)


def _operator(cfg: RunConfig, rho: float, mu: FrameDistribution):
    return build_averaged_operator(_spec(cfg, rho), mu)


def _sweep(cfg: RunConfig, rhos, mu: FrameDistribution, per_op):
    """Rows (rho, *per_op(operator)) in the order of `rhos`, one operator each."""
    return parallel_map(lambda rho: (rho, *per_op(_operator(cfg, rho, mu))), rhos)


def _nan_to_none(obj):
    """Copy of a JSON payload of dicts and floats with every NaN made None."""
    if isinstance(obj, dict):
        return {key: _nan_to_none(value) for key, value in obj.items()}
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _format(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))  # shortest representation that round-trips exactly
    return str(x)


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")


def _check_output_paths(cfg: RunConfig) -> None:
    """Refuse an --out or --hist-out file that cannot be written, before any work.

    `figures` takes --out as a directory and creates it as its first step.
    """
    paths = [cfg.hist_out]
    if cfg.command != "figures" and cfg.out != "-":
        paths.append(cfg.out)
    for path in filter(None, paths):
        target = Path(path)
        parent = target.parent
        if target.is_dir() or not parent.is_dir() or not os.access(parent, os.W_OK):
            raise UsageError(
                f"cannot write {path}: it is a directory, or its directory "
                f"is missing or not writable"
            )


def _csv_text(command: str, columns, rows, extra_comment: str | None = None) -> str:
    lines = [f"# strobofp csv v{CSV_SCHEMA_VERSION} command={command}"]
    if extra_comment:
        lines.append(f"# {extra_comment}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format(x) for x in row))
    return "\n".join(lines) + "\n"


def read_csv(text: str):
    """Round-trip reader for the CSV emitted here: (comments, columns, rows)."""
    comments, columns, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append([float(x) for x in line.split(",")])
    return comments, columns, rows


# -- subcommands -------------------------------------------------------------


def cmd_meantau(cfg: RunConfig) -> int:
    mu = FrameDistribution.parse(cfg.dist)
    rhos = _resolve_rhos(cfg)

    def stats_row(op):
        stats = exit_stats(op, cfg.y0)
        return (cfg.y0, stats.M, stats.mean_tau, stats.lambda0, stats.gap)

    rows = _sweep(cfg, rhos, mu, stats_row)
    if cfg.fmt == "json":
        names = ("rho", "y0", "M", "mean_tau", "lambda0", "gap")
        payload = [dict(zip(names, row)) for row in rows]
        _write_text(cfg.out, json.dumps(payload, indent=2) + "\n")
    else:
        _write_text(
            cfg.out,
            _csv_text("meantau", ("rho", "y0", "M", "mean_tau", "lambda0", "gap"),
                      rows, f"dist={mu.describe()}"),
        )
    return 0


def cmd_survival(cfg: RunConfig) -> int:
    mu = FrameDistribution.parse(cfg.dist)
    if cfg.modesum and cfg.y0 not in (0.0, 0.5, 1.0):
        raise UsageError("--modesum needs y0 in {0, 0.5, 1}")
    if cfg.n_max < 1:
        raise UsageError(f"--n-max must be >= 1, got {cfg.n_max}")
    series = survival_sequence(_operator(cfg, cfg.rho, mu), cfg.y0, cfg.n_max)
    columns = ["n", "S_n"]
    rows = [[n, s] for n, s in enumerate(series.values)]
    if cfg.modesum:
        start = "bulk" if cfg.y0 == 0.5 else "boundary"
        columns.append("mode_sum")
        sums = asymptotics.mode_sum_survival(cfg.rho, np.arange(1, cfg.n_max + 1), start)
        for row, value in zip(rows, [1.0, *sums.tolist()]):
            row.append(value)
    _write_text(
        cfg.out,
        _csv_text("survival", columns, rows, f"rho={_format(cfg.rho)} y0={_format(cfg.y0)}"),
    )
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    mu = FrameDistribution.parse(cfg.dist)
    rhos = _resolve_rhos(cfg)

    def spectrum_row(op):
        lam, _, a0 = spectral_pair(op, y0=cfg.y0)
        return (lam, 1.0 - lam, a0)

    rows = _sweep(cfg, rhos, mu, spectrum_row)
    _write_text(
        cfg.out,
        _csv_text("spectrum", ("rho", "lambda0", "gap", "a0_est"), rows,
                  f"dist={mu.describe()} y0={_format(cfg.y0)}"),
    )
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    mu = FrameDistribution.parse(cfg.dist)
    which = cfg.which
    rng = cfg.rho_range or ((20.0, 120.0, 10.0) if which == "gap" else (20.0, 200.0, 10.0))
    rhos = _range_values(rng)
    check_window(which, rhos)
    fit, per_op = {
        "boundary": (fit_boundary, lambda op: (mean_frames(op, 0.0).M,)),
        "bulk": (fit_bulk, lambda op: (mean_frames(op, 0.5).M,)),
        "gap": (fit_gap, lambda op: (1.0 - spectral_pair(op)[0],)),
    }[which]
    result = fit(_sweep(cfg, rhos, mu, per_op))

    _write_text(cfg.out, result.to_json(indent=2, sort_keys=True) + "\n")
    targets = REFERENCE_FITS[which]
    lines = [f"fit {which} over rho in [{result.window[0]:g}, {result.window[1]:g}], "
             f"{result.n_points} points, rms residual {result.rms_residual:.3e}"]
    merged = dict(result.coefficients)
    merged.update(result.derived)
    for name, value in merged.items():
        if name in targets:
            dev = value - targets[name]
            lines.append(f"  {name} = {value:+.6f}   target {targets[name]:+.6f}   "
                         f"deviation {dev:+.2e}")
        else:
            lines.append(f"  {name} = {value:+.6f}")
    print("\n".join(lines))
    return 0


def cmd_mc(cfg: RunConfig) -> int:
    mu = FrameDistribution.parse(cfg.dist)
    report = self_averaging_check(_spec(cfg, cfg.rho), mu, cfg.trials, cfg.seed)
    payload = {
        "mode": "deterministic" if mu.kind == "deterministic" else "self-averaging",
        "rho": cfg.rho,
        "y0": cfg.y0,
        "mc": report.mc.summary_dict(),
        "resolvent_mean_tau": report.resolvent_mean_tau,
        "z_score": report.z_score,
        "passed": report.passed,
    }
    if mu.kind != "deterministic":
        payload["distribution"] = report.distribution
    text = json.dumps(_nan_to_none(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_text(cfg.out, text + "\n")
    if cfg.hist_out:
        write_histogram_csv(report.mc, cfg.hist_out)
    return 0


_GNUPLOT_HEADER = "set datafile separator ','\nset key left top\nset grid\n"


def _figure2(out_dir: Path) -> None:
    rhos = asymptotics.loglog_window_points(10.0, 100.0, 40)
    rows = [(r, asymptotics.bulk_law(r), 0.25 * r * r) for r in rhos]
    alpha_low = asymptotics.effective_exponent(
        [(r, asymptotics.bulk_law(r)) for r in asymptotics.loglog_window_points(10, 30)],
        (10, 30),
    )
    alpha_high = asymptotics.effective_exponent(
        [(r, asymptotics.bulk_law(r)) for r in asymptotics.loglog_window_points(30, 100)],
        (30, 100),
    )
    comment = (f"alpha_eff[10,30]={alpha_low:.4f} alpha_eff[30,100]={alpha_high:.4f} "
               f"reference slope 2")
    (out_dir / "fig2.csv").write_text(
        _csv_text("figures/fig2", ("rho", "etau_bulk_law", "quarter_rho_sq"),
                  rows, comment),
        newline="\n",
    )
    script = (
        _GNUPLOT_HEADER
        + "set logscale xy\nset xlabel 'rho'\nset ylabel 'E[tau]'\n"
        + f"set label 1 'alpha_eff = {alpha_low:.2f} on [10,30]' at graph 0.05, 0.9\n"
        + f"set label 2 'alpha_eff = {alpha_high:.2f} on [30,100]' at graph 0.05, 0.82\n"
        + "plot 'fig2.csv' using 1:2 with lines title 'bulk law', \\\n"
        + "     'fig2.csv' using 1:3 with lines dashtype 2 title 'rho^2/4'\n"
    )
    (out_dir / "fig2.gp").write_text(script, newline="\n")


def _figure_sweep(out_dir: Path, name: str, data) -> None:
    if name == "fig3":
        fit = fit_boundary(data)
        coef = fit.coefficients
        model = lambda r: coef["A"] * r + coef["B"] + coef["C"] / r
        asym = lambda r: r / math.sqrt(2.0) + (asymptotics.BOUNDARY_CONST - 1.0)
        labels = ("M_data", "M_fit", "M_asymptote")
        title = "boundary start (y0=0)"
    else:
        fit = fit_bulk(data)
        coef = fit.coefficients
        model = lambda r: coef["a"] * r * r + coef["b"] * r + coef["c"]
        asym = lambda r: 0.25 * r * r
        labels = ("M_data", "M_fit", "M_quarter_rho_sq")
        title = "bulk start (y0=1/2)"
    rows = [(r, m, model(r), asym(r)) for r, m in data]
    (out_dir / f"{name}.csv").write_text(
        _csv_text(f"figures/{name}", ("rho",) + labels, rows,
                  f"{title}; fit {fit.to_json()}"),
        newline="\n",
    )
    script = (
        _GNUPLOT_HEADER
        + f"set xlabel 'rho'\nset ylabel 'M'\nset title '{title}'\n"
        + f"plot '{name}.csv' using 1:2 with points pointtype 7 title 'data', \\\n"
        + f"     '{name}.csv' using 1:3 with lines title 'fit', \\\n"
        + f"     '{name}.csv' using 1:4 with lines dashtype 2 title 'asymptote'\n"
    )
    (out_dir / f"{name}.gp").write_text(script, newline="\n")


def cmd_figures(cfg: RunConfig) -> int:
    rhos = _range_values(cfg.rho_range or (20.0, 200.0, 10.0))
    check_window("boundary", rhos)
    check_window("bulk", rhos)
    out_dir = Path(cfg.out if cfg.out != "-" else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _sweep(cfg, rhos, FrameDistribution.deterministic(),
                  lambda op: (mean_frames(op, 0.0).M, mean_frames(op, 0.5).M))
    _figure2(out_dir)
    _figure_sweep(out_dir, "fig3", [(rho, m_edge) for rho, m_edge, _ in rows])
    _figure_sweep(out_dir, "fig4", [(rho, m_bulk) for rho, _, m_bulk in rows])
    print(f"wrote fig2/fig3/fig4 csv+gp under {out_dir}")
    return 0


_HANDLERS = {
    "meantau": cmd_meantau,
    "survival": cmd_survival,
    "spectrum": cmd_spectrum,
    "fit": cmd_fit,
    "mc": cmd_mc,
    "figures": cmd_figures,
}


# Options several subcommands register, each read by every handler that takes it.
_SHARED_FLAGS = {
    "--rho": dict(type=float, help="single confinement ratio"),
    "--rho-range": dict(type=parse_rho_range, metavar="LO:HI:STEP",
                        help="sweep lo:hi:step (inclusive of lo and hi)"),
    "--y0": dict(type=float, help="start point in [0,1]"),
    "--dist": dict(help="frame-interval law: deterministic | twopoint:u1,u2,p "
                        "| jitter:eps | exponential"),
    "--n-grid": dict(type=int, help="override the N=ceil(18 rho) resolution rule"),
    "--eta": dict(type=float,
                  help="band cutoff: drop the kernel below e^{-eta^2/2} of its peak"),
    "--out": dict(help="output path ('-' = stdout)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strobofp",
        description="Survival statistics of Brownian motion under frame-based "
                    "(kill-on-check) monitoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help, rho_flags, *flags):
        """Subparser taking `rho_flags` (exactly one if --rho is among them),
        `flags`, --n-grid, --eta and --out.  An option left unset stays out of
        the namespace, so its RunConfig default applies."""
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        if rho_flags == ("--rho",):
            p.add_argument("--rho", required=True, **_SHARED_FLAGS["--rho"])
        else:
            group = p.add_mutually_exclusive_group(required="--rho" in rho_flags)
            for flag in rho_flags:
                group.add_argument(flag, **_SHARED_FLAGS[flag])
        for flag in (*flags, "--n-grid", "--eta", "--out"):
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = subcommand("meantau", "mean frame counts and spectral gap over a sweep",
                   ("--rho", "--rho-range"), "--y0", "--dist")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))

    p = subcommand("survival", "survival sequence S_0..S_n", ("--rho",), "--y0", "--dist")
    p.add_argument("--n-max", type=int)
    p.add_argument("--modesum", action="store_true",
                   help="add the sine-mode reference column (y0 in {0, 0.5, 1})")

    subcommand("spectrum", "leading eigenvalue and overlap over a sweep",
               ("--rho", "--rho-range"), "--y0", "--dist")

    p = subcommand("fit", "regress a sweep and compare to reference constants",
                   ("--rho-range",), "--dist")
    p.add_argument("--which", choices=("boundary", "bulk", "gap"))

    p = subcommand("mc", "Monte Carlo validation against the resolvent",
                   ("--rho",), "--y0", "--dist")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--hist-out", help="write the tau histogram as CSV")

    subcommand("figures", "emit fig2/fig3/fig4 data and gnuplot scripts", ("--rho-range",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = RunConfig(**vars(args))
        _check_output_paths(cfg)
        return _HANDLERS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
