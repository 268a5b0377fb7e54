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
from .errors import ConvergenceError, FitError, ResolutionError, SolverError
from .fitting import MODELS, REFERENCE_FITS, check_window, fit_boundary, fit_bulk, fit_gap
from .montecarlo import self_averaging_check, write_histogram_csv
from .operator_core import (
    DEFAULT_CUTOFF_ETA,
    FrameDistribution,
    ProblemSpec,
    build_averaged_operator,
)
from .resolvent import (
    exit_stats,
    leading_eigenvalue,
    mean_frames,
    spectral_pair,
    survival_sequence,
    weight_resolvent,
)

CSV_SCHEMA_VERSION = 1

_NUMERICAL_ERRORS = (
    ResolutionError,
    SolverError,
    ConvergenceError,
    FitError,
    np.linalg.LinAlgError,
    MemoryError,
    Warning,  # raised as an error under -W error, such as the fit's correlation warning
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
    """lo + k step up to hi + step/2: lo always, and at most a million points."""
    lo, hi, step = rng
    span = (hi - lo) / step
    if not span < 1e6:
        raise UsageError(f"range {lo:g}:{hi:g}:{step:g} gives {span + 1:.3g} points, over 1e6")
    return lo + step * np.arange(math.floor(span + 0.5) + 1)


def _rho_points(cfg: RunConfig, models=()) -> list:
    """--rho, else the --rho-range points, else the first of `models`'
    default sweep; refused unless it lies in each model's window."""
    if cfg.rho is not None:
        rhos = [cfg.rho]
    else:
        rhos = _range_values(cfg.rho_range or MODELS[models[0]].sweep).tolist()
    for model in models:
        check_window(model, rhos)
    return rhos


def _spec(cfg: RunConfig, rho: float) -> ProblemSpec:
    return ProblemSpec(rho=rho, y0=cfg.y0, n_grid=cfg.n_grid, cutoff_eta=cfg.eta)


def _operator(cfg: RunConfig, rho: float, mu: FrameDistribution):
    return build_averaged_operator(_spec(cfg, rho), mu)


def _sweep(cfg: RunConfig, rhos, mu: FrameDistribution, per_op, resolvent: bool = False):
    """Rows (rho, *per_op(operator)), one rho after another (`_threads` says why).

    With `resolvent`, for a per_op that reads M, u = (I - K)^{-1} w is
    solved first at each point and the last two (operator, u) pairs are
    handed to the next solve, which may start from them
    (`resolvent.weight_resolvent`).
    """
    rows, previous = [], ()
    for rho in rhos:
        op = _operator(cfg, rho, mu)
        if resolvent:
            previous = (*previous[-1:], (op, weight_resolvent(op, previous)))
        rows.append((rho, *per_op(op)))
    return rows


def _nan_to_none(obj):
    """Copy of a JSON payload of dicts and floats with every NaN made None."""
    if isinstance(obj, dict):
        return {key: _nan_to_none(value) for key, value in obj.items()}
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")


def _check_output_paths(cfg: RunConfig) -> None:
    """Refuse, before any work, an --out or --hist-out file that cannot be
    written, and a --hist-out that is stdout or the --out file.

    `figures` takes --out as a directory and creates it as its first step.
    """
    out = None if cfg.command == "figures" or cfg.out == "-" else cfg.out
    if cfg.hist_out == "-" or cfg.hist_out and out and (
            Path(cfg.hist_out).resolve() == Path(out).resolve()):
        raise UsageError(f"--hist-out {cfg.hist_out} must be a file other than --out")
    for path in filter(None, (cfg.hist_out, out)):
        target = Path(path)
        parent = target.parent
        if target.is_dir() or not parent.is_dir() or not os.access(parent, os.W_OK):
            raise UsageError(
                f"cannot write {path}: it is a directory, or its directory "
                f"is missing or not writable"
            )


def _csv_text(command: str, columns, rows, extra_comment: str) -> str:
    """Rows of Python ints and floats under the versioned header and one
    comment line; each value is written by repr, the shortest text that
    round-trips exactly."""
    head = [f"# strobofp csv v{CSV_SCHEMA_VERSION} command={command}", f"# {extra_comment}",
            ",".join(columns)]
    return "\n".join([*head, *(",".join(map(repr, row)) for row in rows)]) + "\n"


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
    rhos = _rho_points(cfg)

    def stats_row(op):
        stats = exit_stats(op, cfg.y0)
        return (cfg.y0, stats.M, stats.mean_tau, stats.lambda0, stats.gap)

    rows = _sweep(cfg, rhos, mu, stats_row, resolvent=True)
    names = ("rho", "y0", "M", "mean_tau", "lambda0", "gap")
    if cfg.fmt == "json":
        payload = [dict(zip(names, row)) for row in rows]
        _write_text(cfg.out, json.dumps(payload, indent=2) + "\n")
    else:
        _write_text(cfg.out, _csv_text("meantau", names, rows, f"dist={mu.describe()}"))
    return 0


def cmd_survival(cfg: RunConfig) -> int:
    mu = FrameDistribution.parse(cfg.dist)
    if cfg.modesum and cfg.y0 not in (0.0, 0.5, 1.0):
        raise UsageError("--modesum needs y0 in {0, 0.5, 1}")
    if cfg.n_max < 1:
        raise UsageError(f"--n-max must be >= 1, got {cfg.n_max}")
    series = survival_sequence(_operator(cfg, cfg.rho, mu), cfg.y0, cfg.n_max)
    columns = ["n", "S_n"]
    cells = [range(cfg.n_max + 1), series.values.tolist()]
    if cfg.modesum:
        start = "bulk" if cfg.y0 == 0.5 else "boundary"
        columns.append("mode_sum")
        sums = asymptotics.mode_sum_survival(cfg.rho, np.arange(1, cfg.n_max + 1), start)
        cells.append([1.0, *sums.tolist()])
    _write_text(cfg.out, _csv_text("survival", columns, zip(*cells),
                                   f"rho={cfg.rho!r} y0={cfg.y0!r}"))
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    mu = FrameDistribution.parse(cfg.dist)
    rhos = _rho_points(cfg)

    def spectrum_row(op):
        lam, _, a0 = spectral_pair(op, y0=cfg.y0)
        return (lam, 1.0 - lam, a0)

    rows = _sweep(cfg, rhos, mu, spectrum_row)
    _write_text(cfg.out, _csv_text("spectrum", ("rho", "lambda0", "gap", "a0_est"), rows,
                                   f"dist={mu.describe()} y0={cfg.y0!r}"))
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    mu = FrameDistribution.parse(cfg.dist)
    which = cfg.which
    rhos = _rho_points(cfg, (which,))
    fit, per_op = {
        "boundary": (fit_boundary, lambda op: (mean_frames(op, 0.0).M,)),
        "bulk": (fit_bulk, lambda op: (mean_frames(op, 0.5).M,)),
        "gap": (fit_gap, lambda op: (1.0 - leading_eigenvalue(op),)),
    }[which]
    result = fit(_sweep(cfg, rhos, mu, per_op, resolvent=which != "gap"))

    _write_text(cfg.out, result.to_json(indent=2, sort_keys=True) + "\n")
    # the reference constants hold for deterministic frames alone
    targets = REFERENCE_FITS[which] if mu.kind == "deterministic" else {}
    lines = [f"fit {which} over rho in [{result.window[0]:g}, {result.window[1]:g}], "
             f"{result.n_points} points, rms residual {result.rms_residual:.3e}"]
    for name, value in {**result.coefficients, **result.derived}.items():
        line = f"  {name} = {value:+.6f}"
        if name in targets:
            line += f"   target {targets[name]:+.6f}   deviation {value - targets[name]:+.2e}"
        lines.append(line)
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
    if report.exact_mean_tau is not None:
        payload["exact_mean_tau"] = report.exact_mean_tau
    text = json.dumps(_nan_to_none(payload), indent=2, sort_keys=True, allow_nan=False)
    _write_text(cfg.out, text + "\n")
    if cfg.hist_out:
        write_histogram_csv(report.mc, cfg.hist_out)
    return 0


_GNUPLOT_HEADER = "set datafile separator ','\nset key left top\nset grid\n"


def _write_figure(out_dir: Path, name: str, columns, rows, comment: str, plot: str) -> None:
    """`name`.csv, the rows under `comment`, and `name`.gp, the shared header then `plot`."""
    (out_dir / f"{name}.csv").write_text(
        _csv_text(f"figures/{name}", columns, rows, comment), newline="\n")
    (out_dir / f"{name}.gp").write_text(_GNUPLOT_HEADER + plot, newline="\n")


def _figure2(out_dir: Path) -> None:
    rhos = asymptotics.loglog_window_points(10.0, 100.0, 40).tolist()
    rows = [(r, asymptotics.bulk_law(r), 0.25 * r * r) for r in rhos]
    alpha_low, alpha_high = (
        asymptotics.effective_exponent(
            [(r, asymptotics.bulk_law(r)) for r in asymptotics.loglog_window_points(*window)],
            window,
        )
        for window in ((10, 30), (30, 100))
    )
    _write_figure(
        out_dir, "fig2", ("rho", "etau_bulk_law", "quarter_rho_sq"), rows,
        f"alpha_eff[10,30]={alpha_low:.4f} alpha_eff[30,100]={alpha_high:.4f} "
        f"reference slope 2",
        "set logscale xy\nset xlabel 'rho'\nset ylabel 'E[tau]'\n"
        f"set label 1 'alpha_eff = {alpha_low:.2f} on [10,30]' at graph 0.05, 0.9\n"
        f"set label 2 'alpha_eff = {alpha_high:.2f} on [30,100]' at graph 0.05, 0.82\n"
        "plot 'fig2.csv' using 1:2 with lines title 'bulk law', \\\n"
        "     'fig2.csv' using 1:3 with lines dashtype 2 title 'rho^2/4'\n",
    )


# name, model fitted, start y0 of its sweep column, asymptote, its column, title
_FIGURE_SWEEPS = (
    ("fig3", "boundary", 0.0, lambda r: r / math.sqrt(2.0) + (asymptotics.BOUNDARY_CONST - 1.0),
     "M_asymptote", "boundary start (y0=0)"),
    ("fig4", "bulk", 0.5, lambda r: 0.25 * r * r, "M_quarter_rho_sq", "bulk start (y0=1/2)"),
)


def cmd_figures(cfg: RunConfig) -> int:
    # fig3 and fig4 share one sweep, their models' default
    rhos = _rho_points(cfg, [model for _, model, *_ in _FIGURE_SWEEPS])
    out_dir = Path(cfg.out if cfg.out != "-" else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _sweep(cfg, rhos, FrameDistribution.deterministic(),
                  lambda op: [mean_frames(op, y0).M for _, _, y0, *_ in _FIGURE_SWEEPS],
                  resolvent=True)
    _figure2(out_dir)
    fits = {"boundary": fit_boundary, "bulk": fit_bulk}
    for column, (name, model, _, asymptote, asymptote_column, title) in enumerate(
            _FIGURE_SWEEPS, 1):
        data = [(row[0], row[column]) for row in rows]
        fit = fits[model](data)
        coef, curve = tuple(fit.coefficients.values()), MODELS[model].curve
        _write_figure(
            out_dir, name, ("rho", "M_data", "M_fit", asymptote_column),
            [(r, m, curve(coef, r), asymptote(r)) for r, m in data],
            f"{title}; fit {fit.to_json()}",
            f"set xlabel 'rho'\nset ylabel 'M'\nset title '{title}'\n"
            f"plot '{name}.csv' using 1:2 with points pointtype 7 title 'data', \\\n"
            f"     '{name}.csv' using 1:3 with lines title 'fit', \\\n"
            f"     '{name}.csv' using 1:4 with lines dashtype 2 title 'asymptote'\n",
        )
    print(f"wrote fig2/fig3/fig4 csv+gp under {out_dir}")
    return 0


# Every option, by flag; each subcommand registers some and its handler reads those.
_FLAGS = {
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
    "--format": dict(dest="fmt", choices=("csv", "json")),
    "--n-max": dict(type=int),
    "--modesum": dict(action="store_true",
                      help="add the sine-mode reference column (y0 in {0, 0.5, 1})"),
    "--which": dict(choices=tuple(MODELS)),
    "--trials": dict(type=int),
    "--seed": dict(type=int),
    "--hist-out": dict(help="write the tau histogram as CSV"),
}


# name: handler, help, rho flags (exactly one if --rho is among them), other flags
_SUBCOMMANDS = {
    "meantau": (cmd_meantau, "mean frame counts and spectral gap over a sweep",
                ("--rho", "--rho-range"),
                ("--y0", "--dist", "--n-grid", "--eta", "--out", "--format")),
    "survival": (cmd_survival, "survival sequence S_0..S_n", ("--rho",),
                 ("--y0", "--dist", "--n-grid", "--eta", "--out", "--n-max", "--modesum")),
    "spectrum": (cmd_spectrum, "leading eigenvalue and overlap over a sweep",
                 ("--rho", "--rho-range"), ("--y0", "--dist", "--n-grid", "--eta", "--out")),
    "fit": (cmd_fit, "regress a sweep and compare to reference constants", ("--rho-range",),
            ("--dist", "--n-grid", "--eta", "--out", "--which")),
    "mc": (cmd_mc, "Monte Carlo validation against the resolvent", ("--rho",),
           ("--y0", "--dist", "--n-grid", "--eta", "--out", "--trials", "--seed",
            "--hist-out")),
    "figures": (cmd_figures, "emit fig2/fig3/fig4 data and gnuplot scripts", ("--rho-range",),
                ("--n-grid", "--eta", "--out")),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, for the argv that `_plain_args` does not read."""
    parser = argparse.ArgumentParser(
        prog="strobofp",
        description="Survival statistics of Brownian motion under frame-based "
                    "(kill-on-check) monitoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, rho_flags, flags) in _SUBCOMMANDS.items():
        # an option left unset stays out of the namespace: its RunConfig default applies
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        if rho_flags == ("--rho",):
            p.add_argument("--rho", required=True, **_FLAGS["--rho"])
        else:
            group = p.add_mutually_exclusive_group(required="--rho" in rho_flags)
            for flag in rho_flags:
                group.add_argument(flag, **_FLAGS[flag])
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _plain_args(argv) -> dict | None:
    """`vars(build_parser().parse_args(argv))` for a plain argv, read from the
    flag table without argparse, else None.  Plain: a subcommand, then flags
    it registers, each once and spelled out, as `--flag value` (bare
    `--modesum`) with a value that is not dash-led (but `-`), converts and
    lies in its choices, and the subcommand's --rho/--rho-range rule holds."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, _, rho_flags, flags = _SUBCOMMANDS[argv[0]]
    args = {"command": argv[0]}
    rest = iter(argv[1:])
    for flag in rest:
        if flag not in rho_flags + flags:
            return None
        spec = _FLAGS[flag]
        dest = spec.get("dest", flag[2:].replace("-", "_"))
        if dest in args:
            return None
        if spec.get("action") == "store_true":
            args[dest] = True
            continue
        text = next(rest, None)
        if text is None or text.startswith("-") and text != "-":
            return None
        try:
            args[dest] = spec.get("type", str)(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in spec and args[dest] not in spec["choices"]:
            return None
    if "--rho" in rho_flags and ("rho" in args) == ("rho_range" in args):
        return None
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
    try:
        cfg = RunConfig(**args)
        _check_output_paths(cfg)
        return _SUBCOMMANDS[cfg.command][0](cfg)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
