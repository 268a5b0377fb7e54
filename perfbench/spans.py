"""Per-layer metrics derived from the spans that child.py records.

A span is (name, start, end, parent index, work); the name is
"<layer>.<callable>" and the layers are the package modules
operator_core, resolvent, montecarlo, fitting, asymptotics and cli.  A
span's self time is its duration minus the part of that interval its child
spans cover.  Flop and byte counts are computed from the public `n` and
`bandwidth` of each operator, not measured.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("operator_core", "resolvent", "montecarlo", "fitting", "asymptotics", "cli")

_BUILD = ("operator_core.build_operator", "operator_core.build_averaged_operator")
_FIT = ("fitting.fit_boundary", "fitting.fit_bulk", "fitting.fit_gap")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _under(spans, index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def command_metrics(spans) -> dict:
    """Per-layer totals of one traced command (spans of one interpreter)."""
    time = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        time[name] += span[2] - span[1]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += own
        for key, value in (span[4] or {}).items():
            work[f"{name}.{key}"] += value
    solves_in_mean = sum(1 for i, s in enumerate(spans)
                         if s[0] == "resolvent.cho_solve_banded"
                         and _under(spans, i, "resolvent.mean_frames"))
    matvecs_in_spectral = sum(1 for i, s in enumerate(spans)
                              if s[0] == "operator_core.matvec"
                              and _under(spans, i, "resolvent.spectral_pair"))
    m = {
        "command_s": time["cli.main"],
        "operator_core.build_s": sum(time[n] for n in _BUILD),
        "operator_core.build_calls": sum(calls[n] for n in _BUILD),
        "operator_core.matvec_s": time["operator_core.matvec"],
        "operator_core.matvec_calls": calls["operator_core.matvec"],
        "operator_core.matvec_gflop": work["operator_core.matvec.gflop"],
        "resolvent.factor_s": time["resolvent.cholesky_banded"],
        "resolvent.factor_calls": calls["resolvent.cholesky_banded"],
        "resolvent.factor_gflop": work["resolvent.cholesky_banded.gflop"],
        "resolvent.factor_mb": work["resolvent.cholesky_banded.bytes"] * 1e-6,
        "resolvent.solve_s": time["resolvent.cho_solve_banded"],
        "resolvent.solve_calls": calls["resolvent.cho_solve_banded"],
        "resolvent.mean_frames_calls": calls["resolvent.mean_frames"],
        "resolvent.solves_in_mean_frames": solves_in_mean,
        "resolvent.spectral_s": time["resolvent.spectral_pair"],
        "resolvent.spectral_calls": calls["resolvent.spectral_pair"],
        "resolvent.matvecs_in_spectral": matvecs_in_spectral,
        "resolvent.survival_s": time["resolvent.survival_sequence"],
        "montecarlo.simulate_s": time["montecarlo.simulate_tau"],
        "montecarlo.trials": work["montecarlo.simulate_tau.trials"],
        "montecarlo.frames": work["montecarlo.simulate_tau.frames"],
        "montecarlo.overflow": work["montecarlo.simulate_tau.overflow"],
        "fitting.fit_s": sum(time[n] for n in _FIT),
        "asymptotics.mode_sum_s": time["asymptotics.mode_sum_survival"],
        "asymptotics.mode_sum_calls": calls["asymptotics.mode_sum_survival"],
    }
    for layer, own in layer_self.items():
        m[f"{layer}.self_s"] = own
    return m


def pass_metrics(commands) -> dict:
    """Layer metrics of one traced pass from {command name: spans}.

    Sums the commands, then forms the ratios: refine_ratio is banded solves
    per mean_frames call (1.0 means no refinement), matvec_per_spectral is
    matvecs per spectral_pair call, and each *_frac is a share of the
    pass's command time.  Monte Carlo commands also give per-trial and
    per-frame costs under `.<case>`, the command name without "mc_".
    """
    total = defaultdict(float)
    cases = {}
    for name, spans in commands.items():
        m = command_metrics(spans)
        for key, value in m.items():
            total[key] += value
        if m["montecarlo.trials"]:
            case = name.removeprefix("mc_")
            cases[f"montecarlo.us_per_trial.{case}"] = (
                1e6 * m["montecarlo.simulate_s"] / m["montecarlo.trials"])
            cases[f"montecarlo.ns_per_frame.{case}"] = (
                1e9 * m["montecarlo.simulate_s"] / m["montecarlo.frames"])
    out = dict(total)
    mean_calls = out.pop("resolvent.mean_frames_calls")
    solves = out.pop("resolvent.solves_in_mean_frames")
    out["resolvent.refine_ratio"] = solves / mean_calls if mean_calls else 0.0
    spectral_matvecs = out.pop("resolvent.matvecs_in_spectral")
    spectral_calls = out["resolvent.spectral_calls"]
    out["resolvent.matvec_per_spectral"] = (
        spectral_matvecs / spectral_calls if spectral_calls else 0.0)
    command_s = out["command_s"]
    for key in ("resolvent.spectral", "resolvent.survival", "montecarlo.simulate",
                "fitting.fit", "asymptotics.mode_sum"):
        out[f"{key}_frac"] = out[f"{key}_s"] / command_s if command_s else 0.0
    out.update(cases)
    return out
