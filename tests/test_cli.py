"""CLI surface: schemas, determinism, exit codes, config round trip."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from strobofp import (
    FrameDistribution,
    ProblemSpec,
    SolverError,
    build_averaged_operator,
    build_operator,
    bulk_law,
    mean_frames,
)
from strobofp import cli, montecarlo
from strobofp.cli import RunConfig, main, parse_rho_range, read_csv, UsageError
from strobofp.operator_core import StroboOperator


def run(tmp_path, *argv):
    return main(list(argv))


def test_cli_import_leaves_scipy_special_unloaded():
    # neither is needed: the solvers are written out, not scipy.sparse.linalg's
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, strobofp.cli; "
            "print([name in sys.modules for name in ('scipy.special', 'scipy.sparse')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[False, False]"


# Run in a fresh interpreter: `mc` first, against the modules `import
# strobofp.cli` loaded, then commands with laws within the symbol-ratio
# bound, then a law beyond it, which alone reaches numpy.fft.  No command
# imports SciPy.
_STARTUP_SCRIPT = """
import contextlib, io, json, sys
import strobofp.cli as cli

def numpy_modules():
    return {m for m in sys.modules if m.split(".")[0] == "numpy"}

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
report = {"rc": []}
with contextlib.redirect_stdout(io.StringIO()):
    before = numpy_modules()
    report["rc"].append(cli.main(["mc", "--rho", "2", "--trials", "1000"]))
    report["mc_numpy"] = sorted(numpy_modules() - before)
    for argv in (["meantau", "--rho", "20", "--out", out + "/m.csv"],
                 ["fit", "--which", "bulk", "--dist", "exponential",
                  "--rho-range", "20:80:10", "--out", out + "/f.json"],
                 ["survival", "--rho", "20", "--n-max", "50", "--out", out + "/s.csv"]):
        report["rc"].append(cli.main(argv))
    report["scipy"] = scipy_modules()
    report["fft"] = "numpy.fft" in sys.modules
    report["beyond_bound_rc"] = cli.main(["meantau", "--rho", "20", "--dist",
                                          "twopoint:1e-5,1,0.999", "--out", out + "/w.csv"])
    report["beyond_bound_scipy"] = scipy_modules()
    report["beyond_bound_fft"] = "numpy.fft" in sys.modules
print(json.dumps(report))
"""


def test_commands_within_the_bound_load_no_scipy(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True, timeout=120).stdout
    report = json.loads(out)
    assert report["rc"] == [0, 0, 0, 0]
    assert report["mc_numpy"] == []
    assert report["scipy"] == []
    assert not report["fft"]
    assert report["beyond_bound_rc"] == 0
    assert report["beyond_bound_scipy"] == []
    assert report["beyond_bound_fft"]


# Every flag each subcommand registers; each is read by that subcommand's handler.
FLAG_SETS = {
    "meantau": {"--rho", "--rho-range", "--y0", "--dist", "--n-grid", "--eta", "--out",
                "--format"},
    "survival": {"--rho", "--y0", "--dist", "--n-grid", "--eta", "--out", "--n-max",
                 "--modesum"},
    "spectrum": {"--rho", "--rho-range", "--y0", "--dist", "--n-grid", "--eta", "--out"},
    "fit": {"--rho-range", "--dist", "--n-grid", "--eta", "--out", "--which"},
    "mc": {"--rho", "--y0", "--dist", "--n-grid", "--eta", "--out", "--trials", "--seed",
           "--hist-out"},
    "figures": {"--rho-range", "--n-grid", "--eta", "--out"},
}


def test_each_subcommand_registers_exactly_its_flag_set():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    registered = {}
    for name, subparser in sub.choices.items():
        actions = [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]
        assert {a.dest for a in actions} <= fields
        registered[name] = {opt for a in actions for opt in a.option_strings}
    assert registered == FLAG_SETS
    assert sum(map(len, registered.values())) == 42


class TestRangeParsing:
    def test_inclusive_endpoints(self):
        lo, hi, step = parse_rho_range("20:200:10")
        assert (lo, hi, step) == (20.0, 200.0, 10.0)

    def test_standard_sweep_has_19_points(self):
        from strobofp.cli import _range_values

        values = _range_values((20.0, 200.0, 10.0))
        assert values.size == 19
        assert values[0] == 20.0 and values[-1] == 200.0

    @pytest.mark.parametrize("text", ["20:200", "5:1:1", "a:b:c", "10:20:0",
                                      "nan:20:1", "10:inf:1", "10:20:inf",
                                      "-inf:20:1", "10:20:nan"])
    def test_malformed(self, text):
        with pytest.raises((UsageError, ValueError)):
            parse_rho_range(text)


class TestRunConfig:
    def test_round_trip_through_json(self):
        cfg = RunConfig(
            command="meantau", rho_range=(20.0, 60.0, 10.0), y0=0.25,
            dist="jitter:0.5", seed=7, out="x.csv",
        )
        raw = cfg.to_dict()
        assert set(raw) == {f.name for f in dataclasses.fields(RunConfig)}
        assert json.loads(json.dumps(raw)) == raw


class TestMeantau:
    def test_single_rho_matches_library(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["meantau", "--rho", "20", "--y0", "0", "--out", str(out)]) == 0
        comments, columns, rows = read_csv(out.read_text())
        assert columns == ["rho", "y0", "M", "mean_tau", "lambda0", "gap"]
        assert comments[0].startswith("# strobofp csv v1")
        direct = mean_frames(build_operator(ProblemSpec(rho=20.0, y0=0.0)), 0.0).M
        assert rows[0][2] == pytest.approx(direct, rel=1e-12)
        assert rows[0][2] == pytest.approx(13.97, abs=0.01)

    def test_sweep_sorted_and_monotone(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["meantau", "--rho-range", "5:15:5", "--y0", "0.5",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out.read_text())
        assert len(rows) == 3
        ms = [r[2] for r in rows]
        assert ms == sorted(ms)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["meantau", "--rho-range", "4:12:4", "--y0", "0.3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["meantau", "--rho", "6", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload[0]["rho"] == 6.0
        assert 0.0 < payload[0]["lambda0"] < 1.0


    def test_large_rho_meets_bulk_law(self, tmp_path):
        out = tmp_path / "m.csv"
        assert main(["meantau", "--rho", "1000", "--y0", "0.5", "--out", str(out)]) == 0
        _, _, rows = read_csv(out.read_text())
        # measured relative gap 5.3e-7 (250583.4547 against 250583.5876)
        assert rows[0][3] == pytest.approx(bulk_law(1000.0), rel=1e-6)


class TestSurvival:
    def test_first_row_is_one_and_monotone(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["survival", "--rho", "10", "--y0", "0.5", "--n-max", "50",
                     "--out", str(out)]) == 0
        _, columns, rows = read_csv(out.read_text())
        assert columns == ["n", "S_n"]
        assert rows[0] == [0.0, 1.0]
        s = [r[1] for r in rows]
        assert all(b <= a + 1e-15 for a, b in zip(s, s[1:]))
        assert rows[1][1] == pytest.approx(1.0 - 5.7e-7, abs=1e-6)

    def test_modesum_column(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["survival", "--rho", "30", "--y0", "0.5", "--n-max", "10",
                     "--modesum", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out.read_text())
        assert columns == ["n", "S_n", "mode_sum"]
        assert rows[0][2] == 1.0

    def test_modesum_requires_special_start(self, tmp_path, capsys):
        code = main(["survival", "--rho", "10", "--y0", "0.3", "--modesum"])
        assert code == 2

    def test_random_interval_survival(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["survival", "--rho", "8", "--dist", "exponential",
                     "--n-max", "20", "--out", str(out)]) == 0
        _, _, rows = read_csv(out.read_text())
        s = [r[1] for r in rows]
        assert s[0] == 1.0
        assert all(b <= a for a, b in zip(s, s[1:]))


class TestSpectrum:
    def test_schema(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["spectrum", "--rho-range", "5:10:5", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out.read_text())
        assert columns == ["rho", "lambda0", "gap", "a0_est"]
        for row in rows:
            assert 0.0 < row[1] < 1.0
            assert row[2] == pytest.approx(1.0 - row[1], abs=1e-14)


class TestFit:
    def test_boundary_fit_summary(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(["fit", "--which", "boundary", "--rho-range", "20:80:10",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "boundary"
        assert payload["coefficients"]["A"] == pytest.approx(0.70726, abs=2e-3)
        captured = capsys.readouterr().out
        assert "target" in captured and "deviation" in captured

    def test_gap_fit_runs(self, tmp_path):
        out = tmp_path / "gap.json"
        assert main(["fit", "--which", "gap", "--rho-range", "20:50:10",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["model"] == "gap"
        assert payload["coefficients"]["intercept"] == pytest.approx(4.93, abs=0.05)

    def test_rejects_single_rho(self):
        assert main(["fit", "--which", "bulk", "--rho", "30"]) == 2


class TestMC:
    def test_deterministic_json(self, tmp_path):
        out = tmp_path / "mc.json"
        hist = tmp_path / "hist.csv"
        assert main(["mc", "--rho", "5", "--trials", "4000", "--seed", "3",
                     "--out", str(out), "--hist-out", str(hist)]) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "deterministic"
        assert payload["passed"] is True
        assert abs(payload["z_score"]) < 3.0
        assert hist.read_text().startswith("tau,count")

    def test_self_averaging_json(self, tmp_path):
        out = tmp_path / "mc.json"
        assert main(["mc", "--rho", "5", "--dist", "exponential", "--trials",
                     "4000", "--seed", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "self-averaging"
        assert payload["distribution"] == "exponential"

    def test_random_law_reference_uses_grid_flags(self, tmp_path):
        out = tmp_path / "mc.json"
        assert main(["mc", "--rho", "5", "--dist", "exponential", "--n-grid", "60",
                     "--trials", "10", "--out", str(out)]) == 0
        op = build_averaged_operator(ProblemSpec(rho=5.0, n_grid=60),
                                     FrameDistribution.exponential())
        payload = json.loads(out.read_text())
        assert payload["resolvent_mean_tau"] == mean_frames(op, 0.5).mean_tau

    @pytest.mark.parametrize("argv", [
        ["--rho", "0.01", "--trials", "20"],
        ["--rho", "0.01", "--trials", "20", "--dist", "jitter:0.2"],
        ["--rho", "5", "--trials", "1"],
    ])
    def test_zero_or_undefined_variance_gives_strict_json(self, tmp_path, argv):
        # every trial exits on frame 1 (std error 0), or a single trial
        # leaves the std error undefined: no z-score, no pass, no NaN token
        out = tmp_path / "mc.json"
        assert main(["mc", *argv, "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["z_score"] is None
        assert payload["passed"] is False

    @pytest.mark.parametrize("dist", ["deterministic", "exponential"])
    def test_failing_reference_skips_simulation(self, monkeypatch, capsys, dist):
        def fail(op, y0):
            raise SolverError("resolvent residual exceeds the bound")

        calls = []
        monkeypatch.setattr(montecarlo, "mean_frames", fail)
        monkeypatch.setattr(montecarlo, "simulate_tau", lambda *a, **k: calls.append(a))
        assert main(["mc", "--rho", "5", "--dist", dist, "--trials", "10"]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert calls == []

    def test_every_trial_overflowing_gives_nulls(self, tmp_path, monkeypatch):
        monkeypatch.setattr(montecarlo, "_hard_cap", lambda rho: 1)
        out = tmp_path / "mc.json"
        assert main(["mc", "--rho", "20", "--trials", "400", "--seed", "5",
                     "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["mc"]["mean_tau"] is None
        assert payload["mc"]["std_error"] is None
        assert payload["mc"]["overflow"] == 400
        assert payload["z_score"] is None
        assert payload["passed"] is False

    def test_seeded_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["mc", "--rho", "4", "--trials", "2000", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFigures:
    def test_outputs_and_quarter_law(self, tmp_path, capsys):
        assert main(["figures", "--rho-range", "20:80:10",
                     "--out", str(tmp_path)]) == 0
        for name in ("fig2.csv", "fig2.gp", "fig3.csv", "fig3.gp",
                     "fig4.csv", "fig4.gp"):
            assert (tmp_path / name).exists()
        comments, columns, rows = read_csv((tmp_path / "fig4.csv").read_text())
        quarter = [r[3] for r in rows]
        assert quarter == [0.25 * r[0] ** 2 for r in rows]
        fig2 = (tmp_path / "fig2.csv").read_text()
        assert "alpha_eff[10,30]=1.86" in fig2
        assert "alpha_eff[30,100]=1.95" in fig2

    def test_fig3_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        argv = ["figures", "--rho-range", "20:80:10"]
        assert main(argv + ["--out", str(d1)]) == 0
        assert main(argv + ["--out", str(d2)]) == 0
        assert (d1 / "fig3.csv").read_bytes() == (d2 / "fig3.csv").read_bytes()


class TestExitCodes:
    def test_missing_rho_is_usage_error(self):
        assert main(["meantau"]) == 2

    def test_both_rho_and_range_is_usage_error(self):
        assert main(["meantau", "--rho", "5", "--rho-range", "5:10:5"]) == 2

    def test_bad_distribution_is_usage_error(self):
        assert main(["meantau", "--rho", "5", "--dist", "whatever"]) == 2

    @pytest.mark.parametrize("dist", ["exponential:3", "deterministic:junk"])
    def test_argument_on_bare_law_is_usage_error(self, dist, capsys):
        assert main(["meantau", "--rho", "5", "--dist", dist]) == 2
        assert "takes no argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["meantau", "--rho", "5", "--out", "{missing}/x.csv"],
        ["mc", "--rho", "2", "--trials", "100", "--hist-out", "{missing}/h.csv"],
        ["figures", "--out", "{file}/sub"],
    ])
    def test_unwritable_output_is_usage_error(self, argv, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        paths = {"missing": tmp_path / "missing", "file": tmp_path / "file"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["meantau", "--rho-range", "100:400:100", "--out", "{missing}/x.csv"],
        ["fit", "--which", "bulk", "--out", "{missing}/fit.json"],
        ["mc", "--rho", "2", "--trials", "100", "--hist-out", "{missing}/h.csv"],
        ["mc", "--rho", "2", "--trials", "100", "--out", "{dir}"],
    ])
    def test_unwritable_output_refused_before_any_work(self, argv, tmp_path, monkeypatch,
                                                       capsys):
        def fail(*args, **kwargs):
            raise AssertionError("no operator may be built for an unwritable output")

        monkeypatch.setattr(cli, "build_averaged_operator", fail)
        monkeypatch.setattr(montecarlo, "build_averaged_operator", fail)
        monkeypatch.setattr(montecarlo, "simulate_tau", fail)
        paths = {"missing": tmp_path / "missing", "dir": tmp_path}
        assert main([arg.format(**paths) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot write" in err

    @pytest.mark.parametrize("argv", [
        ["mc", "--rho", "1e6", "--trials", "10"],
        ["mc", "--rho", "3000", "--trials", "100000", "--dist", "exponential"],
    ])
    def test_over_frame_budget_refused_before_any_work(self, argv, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("no work may start over the frame budget")

        monkeypatch.setattr(montecarlo, "build_averaged_operator", fail)
        monkeypatch.setattr(montecarlo, "simulate_tau", fail)
        assert main(argv) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_refused_before_any_work(self, trials, monkeypatch, capsys):
        # the N = 18000 reference solve at rho = 1000 would come first
        def fail(*args, **kwargs):
            raise AssertionError("no operator may be built for a bad --trials")

        monkeypatch.setattr(montecarlo, "build_averaged_operator", fail)
        assert main(["mc", "--rho", "1000", "--trials", trials]) == 2
        assert "n_trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_uint64_refused_before_any_work(self, seed, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("no operator may be built for a bad --seed")

        monkeypatch.setattr(montecarlo, "build_averaged_operator", fail)
        assert main(["mc", "--rho", "1000", "--trials", "10", "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err

    def test_memory_error_in_the_solve_is_numerical_error(self, monkeypatch, capsys):
        def exhausted(self, half):
            raise MemoryError("no room for the product")

        monkeypatch.setattr(StroboOperator, "even_matvec", exhausted)
        assert main(["meantau", "--rho", "20", "--dist", "twopoint:1e-5,1,0.999"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "no room for the product" in err

    @pytest.mark.parametrize("dist", ["twopoint:inf,1,0.5", "twopoint:1,inf,0"])
    def test_non_finite_two_point_support_is_usage_error(self, dist, capsys):
        assert main(["meantau", "--rho", "5", "--dist", dist]) == 2
        assert "two-point support must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fit", "--rho-range", "20:30:10"],
        ["fit", "--which", "bulk", "--rho-range", "20:50:10"],
    ])
    def test_too_few_fit_points_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figures", "--rho", "30", "--out", "{out}"],
        ["figures", "--y0", "0.3", "--out", "{out}"],
        ["figures", "--dist", "exponential", "--out", "{out}"],
        ["fit", "--y0", "0.3"],
        ["fit", "--rho", "30"],
        ["survival", "--rho-range", "5:5:1"],
        ["mc", "--rho-range", "5:5:1", "--trials", "10"],
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv, tmp_path,
                                                              monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("no operator may be built for a rejected flag")

        monkeypatch.setattr(cli, "build_averaged_operator", fail)
        monkeypatch.setattr(montecarlo, "build_averaged_operator", fail)
        out = tmp_path / "figs"
        assert main([arg.format(out=out) for arg in argv]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--which", "bulk", "--rho-range", "200:600:100"],
        ["fit", "--which", "gap", "--rho-range", "10:100:10"],
        ["figures", "--rho-range", "200:500:100", "--out", "{out}"],
        ["figures", "--rho-range", "5:100:5", "--out", "{out}"],
    ])
    def test_short_or_low_fit_window_refused_before_any_work(self, argv, tmp_path,
                                                             monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(cli, "build_averaged_operator", lambda *a: builds.append(a))
        out = tmp_path / "figs"
        assert main([arg.format(out=out) for arg in argv]) == 2
        assert builds == []
        assert not out.exists()
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("dist", ["twopoint:1e-320,1,0.5", "twopoint:1e-4,1,0.5",
                                      "twopoint:5e-324,1e308,0.5"])
    def test_unresolved_narrow_component_is_numerical_error(self, dist, capsys):
        assert main(["meantau", "--rho", "5", "--dist", dist]) == 3
        err = capsys.readouterr().err
        assert "narrowest interval component" in err and "(N >= " in err

    @pytest.mark.parametrize("argv", [
        ["meantau", "--rho", "5"],
        ["meantau", "--rho", "5", "--dist", "exponential"],
        ["survival", "--rho", "5", "--n-max", "3"],
    ])
    def test_huge_cutoff_gives_the_full_band(self, argv, tmp_path):
        # eta = 100 already keeps every offset at rho = 5; 1e308 must not overflow
        assert build_operator(ProblemSpec(rho=5.0, cutoff_eta=1e308)).bandwidth == 89
        outputs = []
        for eta in ("1e308", "100"):
            out = tmp_path / f"{eta}.csv"
            assert main([*argv, "--eta", eta, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv", [
        ["meantau", "--rho", "1e306", "--dist", "exponential"],
        ["meantau", "--rho", "1e306"],
        ["meantau", "--rho", "1e308"],
    ])
    def test_grid_beyond_any_array_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["survival", "--rho", "40", "--dist", "twopoint:0.0001,1,0.9", "--n-max", "3000"],
        ["meantau", "--rho", "40", "--dist", "twopoint:0.0001,1,0.9"],
        ["spectrum", "--rho", "20", "--dist", "twopoint:1e-6,1,0.999"],
    ])
    def test_supercritical_aliasing_refused_before_any_solve(self, argv, monkeypatch, capsys):
        # survival used to exit 0 here with S_3000 = 4.98
        def fail(*args, **kwargs):
            raise AssertionError("no solve may start on a supercritical operator")

        for name in ("survival_sequence", "exit_stats", "spectral_pair"):
            monkeypatch.setattr(cli, name, fail)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "aliases the narrowest interval component" in err and "(N >= " in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--rho", "1e-310"],
        ["meantau", "--rho", "1e-310"],
        ["survival", "--rho", "1e-310", "--n-max", "5"],
        ["spectrum", "--rho", "5e-324"],
    ])
    def test_subnormal_rho_exits_cleanly(self, argv, monkeypatch, capsys):
        # subnormal floats carry fewer digits than the eigen bound asks for:
        # refused as a usage error before any build, naming the smallest
        # normal float
        def fail(*args, **kwargs):
            raise AssertionError("no operator may be built at a subnormal rho")

        monkeypatch.setattr(cli, "build_averaged_operator", fail)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage error" in err and "smallest normal float 2.2250738585072014e-308" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["spectrum", "meantau"])
    @pytest.mark.parametrize("rho", ["2.3e-308", "1e-307", "1e-300"])
    def test_smallest_normal_rho_runs(self, command, rho, capsys):
        assert main([command, "--rho", rho]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("n_max", ["0", "-5"])
    def test_bad_n_max_refused_before_any_work(self, n_max, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("no operator may be built for a bad --n-max")

        monkeypatch.setattr(cli, "build_averaged_operator", fail)
        assert main(["survival", "--rho", "1000", "--n-max", n_max]) == 2
        assert "--n-max must be >= 1" in capsys.readouterr().err

    def test_unresolved_kernel_is_numerical_error(self):
        assert main(["meantau", "--rho", "100", "--n-grid", "40"]) == 3

    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_out_of_memory_is_numerical_error(self, monkeypatch, capsys):
        def no_memory(cfg, rho, mu):
            raise MemoryError("Unable to allocate 134. GiB")

        monkeypatch.setattr(cli, "_operator", no_memory)
        assert main(["meantau", "--rho", "1e9"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["meantau", "--rho", "inf"],
        ["spectrum", "--rho", "inf"],
        ["survival", "--rho", "inf"],
        ["mc", "--rho", "inf"],
        ["meantau", "--rho", "5", "--eta", "inf"],
        ["meantau", "--rho", "5", "--eta", "nan"],
        ["mc", "--rho", "nan"],
        ["mc", "--rho", "1e200", "--trials", "10"],
    ])
    def test_non_finite_input_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err
