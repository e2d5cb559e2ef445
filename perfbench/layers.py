"""Per-layer figures of asfes: what the traced run wraps, what it derives
from the spans, and micro-timings of single calls at fixed states.

Each figure, and the end-to-end metric it should move (``wall_ref`` unless
named):

* ``dynamics.*_us``: one right-hand-side call at a fixed state.  The n1
  figures move sim-scalar and sim-dense, the n2 ones sim-sweep2d, and
  ``reduced_rhs_us`` verify.
* ``integrate.step_us.*``: integrator self time per step, right-hand side
  and channel recording excluded, and with them the tracer's own cost per
  wrapped call (``Tracer.calibrate``); moves sim-scalar and sim-sweep2d.
  Batching shows as ``rhs_calls_per_step`` falling at equal ``steps``.
* ``integrate.warmup_s`` and ``numeric_average_ms``: time per call;
  ``warmup_success_ratio``: warmups that settled over warmups run.
* ``integrate.channels_us`` and ``cli.csv_*``: the output layer, which
  only sim-dense spends much time in; ``cli.csv_*`` also move its
  ``peak_rss_mb``, and ``cli.parse_scenario_ms`` moves ``setup_s``.
* ``integrate.numeric_average_ms`` and ``analysis.*``: verify only.

Counts are per traced pass; times are plain seconds (not normalized), with
the benchmark's speed samples taken out by the tracer's clock.
"""

from __future__ import annotations

import statistics
import sys
import time
from importlib import import_module
from pathlib import Path

import numpy as np

from tracer import Tracer, install
from workloads import n_steps

RHS_LEAVES = {"full": "dynamics.rhs.full", "average": "dynamics.rhs.average",
              "reduced": "dynamics.rhs.reduced"}
CHANNELS_LEAF = "integrate.channels"
ROOT_SPAN = "pass"

UNITS = {
    "dynamics.rhs_us.asfes.n1": "us", "dynamics.rhs_us.newton.n1": "us",
    "dynamics.rhs_us.classical.n1": "us", "dynamics.rhs_us.asfes.n2": "us",
    "dynamics.rhs_us.classical.n2": "us", "dynamics.average_rhs_us.n2": "us",
    "dynamics.reduced_rhs_us.n2": "us", "dynamics.rhs_calls": "count",
    "integrate.steps": "count", "integrate.step_us.full": "us",
    "integrate.step_us.average": "us", "integrate.step_us.reduced": "us",
    "integrate.rhs_calls_per_step": "calls/step", "integrate.records": "count",
    "integrate.channels_us": "us", "integrate.warmup_s": "s",
    "integrate.warmup_success_ratio": "ratio", "integrate.numeric_average_ms": "ms",
    "integrate.diverged_runs": "count", "cli.parse_scenario_ms": "ms",
    "cli.csv_s": "s", "cli.csv_rows": "count", "cli.csv_bytes": "bytes",
    "cli.csv_us_per_row": "us", "analysis.average_equilibrium_us": "us",
    "analysis.spectral_check_us": "us", "analysis.finite_diff_jacobian_us": "us",
    "analysis.safety_report_ms": "ms", "trace.overhead_frac": "ratio",
}


def _find(args, kwargs, predicate):
    return next(a for a in (*args, *kwargs.values()) if predicate(a))


def _annotate_integrate(span, args, kwargs, result, exc):
    """Steps from the settings passed in; records from the trajectory."""
    settings = _find(args, kwargs, lambda a: hasattr(a, "t_end") and hasattr(a, "dt"))
    steps = n_steps(settings.t_end, settings.dt)
    if exc is not None:
        if not hasattr(exc, "partial"):
            return
        span.attrs["diverged"] = True
        result = exc.partial
        steps = round(exc.time / (settings.t_end / steps)) - 1
    span.attrs["steps"] = steps
    span.attrs["records"] = len(result)


def _annotate_csv(span, args, kwargs, result, exc):
    if exc is None:
        span.attrs["rows"] = len(_find(args, kwargs, lambda a: hasattr(a, "times")))
        span.attrs["bytes"] = Path(_find(args, kwargs, lambda a: isinstance(a, Path))).stat().st_size


def instrument(tracer: Tracer):
    """Wrap the public functions of each asfes module; returns the undo."""
    analysis, cli, dynamics, integrate = (
        import_module(f"asfes.{name}") for name in ("analysis", "cli", "dynamics", "integrate"))
    spans = {
        cli.parse_scenario: ("cli.parse_scenario", None),
        cli.run_simulate: ("cli.run_simulate", None),
        cli.run_analyze: ("cli.run_analyze", None),
        cli.run_verify: ("cli.run_verify", None),
        cli.write_trajectory_csv: ("cli.write_trajectory_csv", _annotate_csv),
        integrate.integrate: ("integrate.integrate", _annotate_integrate),
        integrate.warmup: ("integrate.warmup", None),
        integrate.numeric_average: ("integrate.numeric_average", None),
        analysis.safety_report: ("analysis.safety_report", None),
        analysis.average_equilibrium: ("analysis.average_equilibrium", None),
        analysis.spectral_check: ("analysis.spectral_check", None),
        analysis.finite_diff_jacobian: ("analysis.finite_diff_jacobian", None),
    }
    replacements = {fn: tracer.wrap_span(name, fn, annotate)
                    for fn, (name, annotate) in spans.items()}
    factories = {
        dynamics.make_rhs: RHS_LEAVES["full"],
        dynamics.make_average_rhs: RHS_LEAVES["average"],
        integrate.full_state_channels: CHANNELS_LEAF,
        integrate.average_channels: CHANNELS_LEAF,
    }
    replacements.update({fn: tracer.wrap_factory(name, fn) for fn, name in factories.items()})
    replacements[dynamics.reduced_rhs] = tracer.wrap_leaf(RHS_LEAVES["reduced"], dynamics.reduced_rhs)
    modules = [m for name, m in sys.modules.items() if name == "asfes" or name.startswith("asfes.")]
    return install(modules, replacements)


def _mean(values, scale=1.0):
    return scale * statistics.fmean(values) if values else None


def span_figures(tracer: Tracer, root: int) -> dict:
    """Figures over the spans opened inside ``root``; None where the pass
    never reached the layer."""
    spans = [(i, tracer.spans[i]) for i in tracer.subtree(root)]
    self_times = tracer.self_times()
    named = {}
    for i, span in spans:
        named.setdefault(span.name, []).append((i, span))

    def tally(span_list, leaf):
        """(calls, seconds) of a leaf over the spans, wrapper cost taken out."""
        tallies = [s.leaves.get(leaf, (0, 0.0)) for _, s in span_list]
        return sum(t[0] for t in tallies), sum(tracer.leaf_seconds(t) for t in tallies)

    integrations = named.get("integrate.integrate", [])
    figures = {
        "dynamics.rhs_calls": sum(tally(spans, leaf)[0] for leaf in RHS_LEAVES.values()),
        "integrate.steps": sum(s.attrs.get("steps", 0) for _, s in integrations),
        "integrate.records": sum(s.attrs.get("records", 0) for _, s in integrations),
        "integrate.diverged_runs": sum(1 for _, s in integrations if s.attrs.get("diverged")),
    }
    for kind, leaf in RHS_LEAVES.items():
        runs = [(i, s) for i, s in integrations if leaf in s.leaves]
        steps = sum(s.attrs["steps"] for _, s in runs)
        figures[f"integrate.step_us.{kind}"] = (
            1e6 * sum(self_times[i] for i, _ in runs) / steps if steps else None)
    rhs_in_steps = sum(tally(integrations, leaf)[0] for leaf in RHS_LEAVES.values())
    figures["integrate.rhs_calls_per_step"] = (
        rhs_in_steps / figures["integrate.steps"] if figures["integrate.steps"] else None)
    calls, seconds = tally(integrations, CHANNELS_LEAF)
    figures["integrate.channels_us"] = 1e6 * seconds / calls if calls else None

    warmups = named.get("integrate.warmup", [])
    figures["integrate.warmup_s"] = _mean([s.duration for _, s in warmups])
    figures["integrate.warmup_success_ratio"] = (
        sum(1 for _, s in warmups if "error" not in s.attrs) / len(warmups) if warmups else None)
    figures["integrate.numeric_average_ms"] = _mean(
        [s.duration for _, s in named.get("integrate.numeric_average", [])], 1e3)
    figures["cli.parse_scenario_ms"] = _mean(
        [s.duration for _, s in named.get("cli.parse_scenario", [])], 1e3)
    figures["analysis.safety_report_ms"] = _mean(
        [s.duration for _, s in named.get("analysis.safety_report", [])], 1e3)

    csvs = [s for _, s in named.get("cli.write_trajectory_csv", []) if "rows" in s.attrs]
    rows = sum(s.attrs["rows"] for s in csvs)
    csv_s = sum(s.duration for s in csvs)
    figures.update({
        "cli.csv_s": csv_s if csvs else None,
        "cli.csv_rows": rows if csvs else None,
        "cli.csv_bytes": sum(s.attrs["bytes"] for s in csvs) if csvs else None,
        "cli.csv_us_per_row": 1e6 * csv_s / rows if rows else None,
    })
    return figures


def probe_figures(tracer: Tracer, models: dict, scenario_path: Path, out_dir: Path) -> dict:
    """Figures of a short fixed run that reaches every layer.

    A workload that never reaches a layer takes that layer's figures from
    here, so that every reported figure is a measurement.
    """
    cli, integrate = import_module("asfes.cli"), import_module("asfes.integrate")
    plant2, cfg2, _ = models["n2"]
    root = len(tracer.spans)
    undo = instrument(tracer)
    try:
        with tracer.span("probe"):
            cli.run_simulate(cli.parse_scenario(scenario_path), out_dir)
            for _ in range(3):
                integrate.numeric_average(plant2, cfg2, models["x2"])
    finally:
        undo()
    return span_figures(tracer, root)


# ---- micro-timings at fixed states --------------------------------------------

def per_call_us(fn, target_s: float = 0.02, repeats: int = 7) -> float:
    """Median over ``repeats`` timed loops of about ``target_s`` each."""
    clock = time.perf_counter
    calls = 1
    while True:
        t0 = clock()
        for _ in range(calls):
            fn()
        elapsed = clock() - t0
        if elapsed >= target_s / 4:
            break
        calls *= 4
    calls = max(1, round(calls * target_s / elapsed))
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            fn()
        samples.append((clock() - t0) / calls)
    return 1e6 * statistics.median(samples)


def example_models() -> dict:
    """The two example plants and configurations, and a fixed n2 state."""
    from asfes import (AlgorithmConfig, DitherConfig, LinearBarrier, QuadraticObjective,
                       exact_initial_state, validate_plant)

    plant1 = validate_plant(QuadraticObjective(j_star=0.0, hessian=0.1, theta_star=0.0),
                            LinearBarrier(h0=-1.0, h1=-1.0))
    cfg1 = AlgorithmConfig(k=0.3, c=0.1, delta=1e-3, omega_f=3.0,
                           dither=DitherConfig(amplitude=0.25, ratios=(1,), base_scale=200.0))
    plant2 = validate_plant(
        QuadraticObjective(j_star=0.0, hessian=np.diag([2.0, 2.0]), theta_star=np.zeros(2)),
        LinearBarrier(h0=-1.0, h1=np.array([1.0, 1.0])))
    cfg2 = AlgorithmConfig(k=0.1, c=1.0, delta=1e-3, omega_f=3.0,
                           dither=DitherConfig(amplitude=0.25, ratios=(75, 100), base_scale=1.0))
    x2 = exact_initial_state(plant2, cfg2, np.array([1.5, -1.5])).as_vector()
    x2[:2] -= plant2.theta_star
    return {"n1": (plant1, cfg1, np.array([-3.0])), "n2": (plant2, cfg2, np.array([1.5, -1.5])),
            "x2": x2}


def micro_figures(models: dict) -> dict:
    """Single calls on the example plants, at states the runs pass through."""
    from asfes import Variant, exact_initial_state
    from asfes import analysis
    from asfes.dynamics import make_average_rhs, make_rhs, reduced_rhs

    t = 0.1234
    figures = {}
    for dim, variants in (("n1", ("asfes", "newton", "classical")), ("n2", ("asfes", "classical"))):
        plant, cfg, theta0 = models[dim]
        for name in variants:
            cfg_v = cfg.with_variant(Variant(name))
            f = make_rhs(plant, cfg_v)
            y = exact_initial_state(plant, cfg_v, theta0).as_vector()
            figures[f"dynamics.rhs_us.{name}.{dim}"] = per_call_us(lambda: f(t, y))

    plant2, cfg2, _ = models["n2"]
    x = models["x2"]
    f_avg = make_average_rhs(plant2, cfg2)
    figures["dynamics.average_rhs_us.n2"] = per_call_us(lambda: f_avg(x))
    xr = x[:2].copy()
    figures["dynamics.reduced_rhs_us.n2"] = per_call_us(lambda: reduced_rhs(plant2, cfg2, xr))

    eq = analysis.average_equilibrium(plant2, cfg2)
    g = analysis.average_error_rhs(plant2, cfg2, eq)
    zero = np.zeros(x.shape[0])
    figures["analysis.average_equilibrium_us"] = per_call_us(
        lambda: analysis.average_equilibrium(plant2, cfg2))
    figures["analysis.spectral_check_us"] = per_call_us(
        lambda: analysis.spectral_check(plant2, cfg2, eq))
    figures["analysis.finite_diff_jacobian_us"] = per_call_us(
        lambda: analysis.finite_diff_jacobian(g, zero, 1e-6))
    return figures
