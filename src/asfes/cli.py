"""Scenario-driven command line: simulate, analyze, verify.

Scenario files are flat INI-style text with sections [plant], [gains],
[dither] and [sim]; see the bundled ``scenarios/example1.scenario`` for the
full key set.  Exit codes: 0 success, 1 validation failure, 2 runtime
divergence, 3 property failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from . import analysis
from .dynamics import (
    AlgorithmConfig,
    StateLayout,
    Variant,
    make_average_rhs,
    make_rhs,
    reduced_rhs,
)
from .errors import (ComputationError, NonFiniteState, NonFiniteValue, NonPositiveTrials,
                     ParseError, TooManySteps, UnusableOutput, ValidationError)
from .integrate import (
    IntegrationSettings,
    Trajectory,
    average_channels,
    check_resolves_dither,
    default_dt,
    exact_initial_state,
    full_state_channels,
    integrate,
    numeric_average,
    reduced_channels,
    warmup,
)
from .problem import (
    LinearBarrier,
    PlantModel,
    QuadraticObjective,
    constrained_minimum,
    eval_barrier,
    eval_objective,
    nb_eigenvector_condition,
    require_finite,
    validate_plant,
)
from .sampling import random_full_state, random_plant, random_config
from .signals import DitherConfig

_VARIANT_NAMES = {
    "asfes": Variant.ASFES,
    "newton": Variant.NEWTON_ASFES,
    "classical": Variant.CLASSICAL_ES,
}

_KNOWN_KEYS = {
    "plant": {"hessian_row", "theta_star", "j_star", "h0", "h1"},
    "gains": {"k", "c", "delta", "omega_f"},
    "dither": {"amplitude", "base_scale", "ratios"},
    "sim": {
        "theta0", "t_end", "dt", "record_stride", "gamma_guard",
        "warmup_rel_tol", "variants", "include_reduced", "include_average",
    },
}
_REPEATABLE = {"hessian_row", "theta0"}


@dataclass(frozen=True)
class Scenario:
    """Everything one invocation needs: plant, gains, starts, horizons.

    ``c_values`` and ``initial_thetas`` may hold several entries; the runner
    loops over their product.  ``config`` carries the first c value.
    """

    plant: PlantModel
    config: AlgorithmConfig
    c_values: tuple
    initial_thetas: tuple
    settings: IntegrationSettings
    warmup_rel_tol: float
    variants_to_run: tuple
    include_reduced: bool
    include_average: bool

    @property
    def initial_theta(self) -> np.ndarray:
        return self.initial_thetas[0]

    def config_for(self, c: float, variant: Variant) -> AlgorithmConfig:
        return replace(self.config, c=c, variant=variant)


def _parse_floats(text: str, line: int) -> list:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParseError(line, f"expected comma-separated numbers, got {text!r}") from exc


def _parse_bool(text: str, line: int, key: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ParseError(line, f"{key}: expected true/false, got {text!r}")


def _parse_number(text: str, line: int, key: str) -> float:
    values = _parse_floats(text, line)
    if len(values) != 1:
        raise ParseError(line, f"{key} takes one number, got {text.strip()!r}")
    return values[0]


def _parse_positive(text: str, line: int, key: str) -> float:
    x = _parse_number(text, line, key)
    if not (math.isfinite(x) and x > 0.0):
        raise ParseError(line, f"{key} must be positive and finite, got {text.strip()!r}")
    return x


def _parse_dt(text: str, line: int, key: str) -> Optional[float]:
    """A step, or None for ``auto`` (the default for the dither)."""
    return None if text.strip().lower() == "auto" else _parse_number(text, line, key)


def _named_once(values, names, line: int, key: str) -> None:
    """Runs and report sections are named by ``names``, so two values with
    one name would be written one over the other."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(line, f"{key}: {values[names.index(name)]} and {values[i]} "
                                   f"would both be written as {name}, one over the other")


def _parse_variants(text: str, line: int, key: str) -> tuple:
    names = [tok.strip().lower() for tok in text.split(",") if tok.strip()]
    unknown = [nm for nm in names if nm not in _VARIANT_NAMES]
    if unknown:
        raise ParseError(line, f"{key}: unknown variant {unknown[0]!r}")
    _named_once(names, names, line, key)
    return tuple(_VARIANT_NAMES[nm] for nm in names)


# optional [sim] keys: key -> (default text, converter(text, line, key))
_SIM_OPTIONS = {
    "dt": ("auto", _parse_dt),
    "record_stride": ("1", _parse_number),
    "gamma_guard": ("1e6", _parse_number),
    "warmup_rel_tol": ("1e-4", _parse_positive),
    "variants": ("asfes", _parse_variants),
    "include_reduced": ("false", _parse_bool),
    "include_average": ("false", _parse_bool),
}


def parse_scenario(path) -> Scenario:
    """Parse and validate a scenario file (unknown keys are rejected)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(None, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                               f"at offset {exc.start}") from exc
    sections: dict = {name: {} for name in _KNOWN_KEYS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _KNOWN_KEYS:
                raise ParseError(lineno, f"unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected key = value, got {raw.strip()!r}")
        if section is None:
            raise ParseError(lineno, "key outside of any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[section]:
            raise ParseError(lineno, f"unknown key {key!r} in section [{section}]")
        if key in _REPEATABLE:
            sections[section].setdefault(key, []).append((lineno, value))
        elif key in sections[section]:
            raise ParseError(lineno, f"duplicate key {key!r} in section [{section}]")
        else:
            sections[section][key] = (lineno, value)
        continue

    def require(section_name: str, key: str):
        try:
            return sections[section_name][key]
        except KeyError:
            raise ParseError(None, f"missing key {key!r} in section [{section_name}]")

    def numbers(section_name: str, key: str) -> list:
        ln, v = require(section_name, key)
        return _parse_floats(v, ln)

    def number(section_name: str, key: str) -> float:
        ln, v = require(section_name, key)
        return _parse_number(v, ln, key)

    # plant
    rows = []
    for ln, v in require("plant", "hessian_row"):
        rows.append(_parse_floats(v, ln))
        if len(rows[-1]) != len(rows[0]):
            raise ParseError(ln, f"hessian_row has {len(rows[-1])} entries, not {len(rows[0])}")
    plant = validate_plant(
        QuadraticObjective(j_star=number("plant", "j_star"), hessian=np.array(rows),
                           theta_star=np.array(numbers("plant", "theta_star"))),
        LinearBarrier(h0=number("plant", "h0"), h1=np.array(numbers("plant", "h1"))),
    )

    # dither
    ln, v = require("dither", "ratios")
    try:
        ratios = tuple(Fraction(tok.strip()) for tok in v.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(ln, f"expected comma-separated rationals, got {v!r}") from exc
    dither = DitherConfig(amplitude=number("dither", "amplitude"), ratios=ratios,
                          base_scale=number("dither", "base_scale"))
    if dither.dimension != plant.dimension:
        raise ParseError(ln, f"{dither.dimension} dither frequencies for a "
                             f"{plant.dimension}-parameter plant")

    # gains
    ln, v = require("gains", "c")
    c_values = tuple(_parse_floats(v, ln))
    _named_once(c_values, [f"c{c:g}" for c in c_values], ln, "c")
    config = AlgorithmConfig(k=number("gains", "k"), c=c_values[0],
                             delta=number("gains", "delta"),
                             omega_f=number("gains", "omega_f"),
                             dither=dither, variant=Variant.ASFES)

    # sim
    thetas = []
    for ln, v in require("sim", "theta0"):
        th = np.array(_parse_floats(v, ln))
        if th.shape != (plant.dimension,):
            raise ParseError(ln, f"theta0 has {th.shape[0]} components, expected {plant.dimension}")
        require_finite(th, f"line {ln}: theta0")
        with np.errstate(over="ignore", invalid="ignore"):
            require_finite((eval_objective(plant, th), eval_barrier(plant, th)),
                           f"line {ln}: J and h at theta0")
        thetas.append(th)
    opts = {}
    for key, (default, convert) in _SIM_OPTIONS.items():
        ln, v = sections["sim"].get(key, (None, default))
        opts[key] = convert(v, ln, key)
    if not (opts["variants"] or opts["include_average"] or opts["include_reduced"]):
        # the default variants are not empty, so the file set them
        raise ParseError(sections["sim"]["variants"][0],
                         "variants: no variant given and include_average and include_reduced "
                         "are false, so the scenario asks for no run")
    dt = default_dt(dither) if opts["dt"] is None else opts["dt"]

    try:
        settings = IntegrationSettings(dt=dt, t_end=number("sim", "t_end"),
                                       record_stride=opts["record_stride"],
                                       gamma_guard=opts["gamma_guard"])
        # warmup and the dither-free runs step horizons of their own, bounded here too
        warmup_settings(settings, config.omega_f)
        if opts["include_average"] or opts["include_reduced"]:
            _slow_settings(settings, config.omega_f)
    except (NonFiniteValue, TooManySteps) as exc:
        raise type(exc)(f"{exc}; set by t_end, dt (auto: base_scale, ratios) and omega_f") from None
    check_resolves_dither(settings, dither)
    optimum = constrained_minimum(plant)
    require_finite(np.append(optimum.theta_smin, optimum.j_s_star),
                   "constrained minimum of [plant] hessian_row, theta_star, j_star, h0 and h1")
    # per-variant configs are validated here so a bad combination fails fast
    for c in c_values:
        for variant in opts["variants"]:
            replace(config, c=c, variant=variant)
    return Scenario(
        plant=plant, config=config, c_values=c_values,
        initial_thetas=tuple(thetas), settings=settings,
        warmup_rel_tol=opts["warmup_rel_tol"], variants_to_run=opts["variants"],
        include_reduced=opts["include_reduced"], include_average=opts["include_average"],
    )


def warmup_settings(settings: IntegrationSettings, omega_f: float) -> IntegrationSettings:
    """Horizon for settling the filters, independent of the run horizon:
    sixty filter time constants reach far below the default tolerance."""
    return replace(settings, t_end=max(settings.t_end, 60.0 / omega_f))


def _slow_settings(settings: IntegrationSettings, omega_f: float) -> IntegrationSettings:
    """Step for the dither-free hierarchies (averaged and reduced models):
    no fast oscillation to resolve, so 25x the base step, capped by the
    filter time constant."""
    return replace(settings, dt=min(25.0 * settings.dt, 0.25 / omega_f), record_stride=1)


def write_trajectory_csv(
    path: Path,
    traj: Trajectory,
    theta_hat_label: str,
    c: float,
    extra_state_names: Sequence[str] = (),
) -> None:
    """One row per record: time, plant input theta, raw states, J, h, and
    the assigned-rate envelope h(0)exp(-c t).  17 significant digits so
    re-parsing reproduces every float exactly."""
    n = traj.thetas.shape[1]
    state_cols = [f"{theta_hat_label}_{i + 1}" for i in range(n)] + list(extra_state_names)
    cols = ["t", *(f"theta_{i + 1}" for i in range(n)), *state_cols, "j", "h", "envelope"]
    # the C library's exp, as the envelope has always been written: numpy's
    # SIMD exp differs from it in the last bit on some inputs
    decay = np.fromiter(map(math.exp, (-c * traj.times).tolist()), float, len(traj))
    table = np.column_stack([traj.times, traj.thetas, traj.states[:, :len(state_cols)],
                             traj.j_values, traj.h_values, traj.h_values[0] * decay])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(cols), comments="")


def _output_dir(output_dir) -> Path:
    """The output directory, made if missing; one that cannot be made (a
    file is in its place or in its path) is :class:`UnusableOutput`."""
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnusableOutput(f"--out {out} cannot be used as a directory: "
                             f"{exc.strerror or exc}") from exc
    return out


def run_simulate(scenario: Scenario, output_dir) -> int:
    """Warm up and integrate every requested variant (plus the averaged and
    reduced models when asked), writing one CSV per run and a summary.

    The runs go c-major, then theta0: at each (c, theta0) the variants in
    the scenario's order, then the averaged run, then the reduced run
    (from theta0 - theta*).  Each run steps alone and is written, CSV and
    summary block, before the next one steps.  A dithered run starts from
    the warmup of its start and filter layout (with or without the Newton
    row), done the first time that pair comes up and shared by every later
    run of it: the warmup holds the theta rows, so it reads neither c nor
    the safety term.  A failed warmup falls back to the exact filter
    initialization, with a note.  Returns 0 on success, 2 if any run
    diverged (its CSV then holds the trajectory up to the failure, and its
    summary block a DIVERGED note).
    """
    out = _output_dir(output_dir)
    plant = scenario.plant
    n = plant.dimension
    average_layout = StateLayout.of(n)
    optimum = constrained_minimum(plant)
    warm = warmup_settings(scenario.settings, scenario.config.omega_f)
    slow = _slow_settings(scenario.settings, scenario.config.omega_f)
    warmed = {}  # (newton, theta0 bytes) -> initial state, or the error its warmup raised
    summary_lines, diverged = [], False

    def run(name, rhs, x0, settings, label, c, channels, layout=None, notes=()):
        nonlocal diverged
        try:
            traj = integrate(rhs, x0, settings, channels=channels,
                             gamma_index=None if layout is None else layout.gamma)
        except NonFiniteState as exc:
            diverged = True
            traj, notes = exc.partial, [*notes, f"DIVERGED: {exc}"]
        write_trajectory_csv(out / f"{name}.csv", traj, label, c,
                             () if layout is None else layout.filter_names)
        report = analysis.safety_report(traj, plant, c, optimum)
        summary_lines.extend(_summary_block(name, report, traj, notes))

    for c in scenario.c_values:
        cfg = scenario.config_for(c, Variant.ASFES)

        def reduced(t, y):
            # reduced_rhs reuses the field it built last while plant and cfg
            # are the same objects, so each rate builds it once; perfbench's
            # tracer counts the reduced model's calls by that name
            return reduced_rhs(plant, cfg, y)

        for xi, theta0 in enumerate(scenario.initial_thetas):
            for variant in scenario.variants_to_run:
                run_cfg = scenario.config_for(c, variant)
                newton = variant is Variant.NEWTON_ASFES
                key = (newton, theta0.tobytes())
                if key not in warmed:
                    try:
                        warmed[key] = warmup(plant, run_cfg, theta0, warm,
                                             scenario.warmup_rel_tol)
                    except ComputationError as exc:
                        warmed[key] = exc
                state0, notes = warmed[key], []
                if isinstance(state0, ComputationError):
                    notes.append(f"warmup failed ({state0}); "
                                 "falling back to exact filter initialization")
                    state0 = exact_initial_state(plant, run_cfg, theta0)
                run(f"{variant.value}_c{c:g}_x{xi}", make_rhs(plant, run_cfg),
                    state0.as_vector(), scenario.settings, "theta_hat", c,
                    full_state_channels(plant, run_cfg), StateLayout.of(n, newton), notes)
            if scenario.include_average:
                x0 = exact_initial_state(plant, cfg, theta0).as_vector()
                x0[average_layout.theta] = theta0 - plant.theta_star
                f = make_average_rhs(plant, cfg)
                run(f"average_c{c:g}_x{xi}", lambda t, y: f(y), x0, slow, "theta_tilde", c,
                    average_channels(plant), average_layout)
            if scenario.include_reduced:
                run(f"reduced_c{c:g}_x{xi}", reduced, theta0 - plant.theta_star, slow,
                    "theta_tilde", c, reduced_channels(plant))

    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    return 2 if diverged else 0


def _summary_block(name: str, report, traj: Trajectory, notes: list) -> list:
    lines = [f"[{name}]"]
    lines.append(f"  worst_violation = {report.worst_violation:.6g}")
    lines.append(f"  violation_time = {report.violation_time:.6g}")
    lines.append(f"  final_h = {report.final_h:.6g}")
    if report.entered_safe_set_at is not None:
        lines.append(f"  entered_safe_set_at = {report.entered_safe_set_at:.6g}")
    lines.append(f"  final_objective_gap = {report.final_objective_gap:.6g}")
    if traj.gamma_exceeded_at is not None:
        lines.append(f"  gamma_guard_exceeded_at = {traj.gamma_exceeded_at:.6g}")
    for s in notes:
        lines.append(f"  note: {s}")
    lines.append("")
    return lines


def run_analyze(scenario: Scenario, output_dir) -> int:
    """Write equilibrium, constrained-optimum, spectral and Jacobian-check
    results to a readable report plus a machine-readable CSV."""
    out = _output_dir(output_dir)
    plant = scenario.plant
    n = plant.dimension
    lines = []
    rows = []  # (section, key, value)

    def emit(section: str, key: str, value) -> None:
        if isinstance(value, float):
            lines.append(f"  {key} = {value:.12g}")
            rows.append((section, key, f"{value:.17g}"))
        elif isinstance(value, np.ndarray):
            lines.append(f"  {key} = [{', '.join(f'{v:.12g}' for v in value)}]")
            for i, v in enumerate(value):
                rows.append((section, f"{key}_{i + 1}", f"{float(v):.17g}"))
        else:
            lines.append(f"  {key} = {value}")
            rows.append((section, key, str(value)))

    optimum = constrained_minimum(plant)
    lines.append("[constrained_optimum]")
    emit("constrained_optimum", "theta_smin", optimum.theta_smin)
    emit("constrained_optimum", "j_s_star", float(optimum.j_s_star))
    emit("constrained_optimum", "active", optimum.active)
    emit("constrained_optimum", "nb_eigenvector_condition",
         nb_eigenvector_condition(plant, 1e-9))
    lines.append("")

    for c in scenario.c_values:
        cfg = scenario.config_for(c, Variant.ASFES)
        sec = f"c={c:g}"
        lines.append(f"[equilibrium {sec}]")
        eq = analysis.average_equilibrium(plant, cfg)
        emit(sec, "theta_tilde_ae", eq.theta_tilde_ae)
        emit(sec, "theta_ae", eq.theta_tilde_ae + plant.theta_star)
        emit(sec, "g_j_ae", eq.g_j_ae)
        emit(sec, "eta_j_ae", eq.eta_j_ae)
        emit(sec, "g_h_ae", eq.g_h_ae)
        emit(sec, "eta_h_ae", eq.eta_h_ae)
        emit(sec, "gamma_ae", eq.gamma_ae)
        emit(sec, "d", eq.d)
        emit(sec, "c1", eq.c1)
        emit(sec, "alpha", analysis.equilibrium_alpha(plant, cfg, eq))
        residual = float(np.linalg.norm(
            make_average_rhs(plant, cfg)(eq.as_vector())))
        emit(sec, "residual_norm", residual)

        report = analysis.spectral_check(plant, cfg, eq)
        emit(sec, "hurwitz", report.hurwitz)
        emit(sec, "omega_f_eigen_found", report.omega_f_eigen_found)
        emit(sec, "max_pairing_residual",
             max(report.pairing_residuals) if report.pairing_residuals else 0.0)
        emit(sec, "j11_eigenvalues_real", report.j11_eigenvalues.real)
        emit(sec, "j11_eigenvalues_imag", report.j11_eigenvalues.imag)
        emit(sec, "z_eigenvalues_real", report.z_eigenvalues.real)
        emit(sec, "reduced_eigenvalues_real", report.reduced_eigenvalues.real)

        j11 = analysis.jacobian_j11(plant, cfg, eq)
        g = analysis.average_error_rhs(plant, cfg, eq)
        fd = analysis.finite_diff_jacobian(g, np.zeros(StateLayout.of(n).size), 1e-6)
        lead = fd[:j11.shape[0], :j11.shape[1]]
        emit(sec, "j11_fd_rel_error",
             float(np.max(np.abs(lead - j11)) / max(1.0, np.max(np.abs(j11)))))
        j_r = analysis.reduced_jacobian(plant, cfg, eq)
        fd_r = analysis.finite_diff_jacobian(
            lambda x: reduced_rhs(plant, cfg, x + eq.theta_tilde_ae),
            np.zeros(n), 1e-6)
        emit(sec, "jr_fd_rel_error",
             float(np.max(np.abs(fd_r - j_r)) / max(1.0, np.max(np.abs(j_r)))))
        lines.append("")

    lines.append("[delta_sweep]")
    cfg0 = scenario.config_for(scenario.c_values[0], Variant.ASFES)
    for dl in (1e-6, 1e-4, 1e-2):
        eq_d = analysis.average_equilibrium(plant, replace(cfg0, delta=dl))
        emit("delta_sweep", f"eta_h_ae_delta_{dl:g}", eq_d.eta_h_ae)
    lines.append("")

    (out / "analysis.txt").write_text("\n".join(lines) + "\n")
    with (out / "analysis.csv").open("w", newline="") as fh:
        fh.write("section,key,value\n")
        for section, key, value in rows:
            fh.write(f"{section},{key},{value}\n")
    return 0


def run_verify(seed: int, trials: int, stream: Optional[TextIO] = None) -> int:
    """Run the seeded randomized invariant suites and print one line per
    property.  Returns 0 when every property holds, 3 otherwise; a
    ``trials`` below one is :class:`NonPositiveTrials`."""
    stream = stream or sys.stdout
    if trials <= 0:
        raise NonPositiveTrials(f"--trials must be a positive integer, got {trials}")

    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<24} {detail}", file=stream)
        if not ok:
            failures += 1

    # averaging oracle: quadrature average of the dithered field against the
    # analytic averaged field, on the two-parameter example configuration
    rng = np.random.default_rng(seed)
    plant2 = validate_plant(
        QuadraticObjective(j_star=0.0, hessian=np.diag([2.0, 2.0]),
                           theta_star=np.zeros(2)),
        LinearBarrier(h0=-1.0, h1=np.array([1.0, 1.0])),
    )
    cfg2 = AlgorithmConfig(k=0.1, c=1.0, delta=1e-3, omega_f=3.0,
                           dither=DitherConfig(0.25, (75, 100), 1.0))
    average = make_average_rhs(plant2, cfg2)
    worst = 0.0
    for _ in range(trials):
        x = random_full_state(rng, 2)
        ana = average(x)
        num = numeric_average(plant2, cfg2, x)
        rel = float(np.max(np.abs(num - ana) / np.maximum(1.0, np.abs(ana))))
        worst = max(worst, rel)
    report("averaging-oracle", worst <= 1e-8,
           f"trials={trials} max_rel_err={worst:.3e}")

    # closed-form equilibrium: residual, safe interior, gamma root
    rng = np.random.default_rng(seed + 1)
    worst_res, worst_gam, min_eta = 0.0, 0.0, math.inf
    for i in range(trials):
        nn = (i % 5) + 1
        plant = random_plant(rng, nn)
        cfg = random_config(rng, nn)
        eq = analysis.average_equilibrium(plant, cfg)
        res = float(np.linalg.norm(make_average_rhs(plant, cfg)(eq.as_vector())))
        worst_res = max(worst_res, res)
        min_eta = min(min_eta, eq.eta_h_ae)
        worst_gam = max(worst_gam, abs(eq.gamma_ae - 1.0 / float(plant.h1 @ plant.h1)))
    report("equilibrium-residual", worst_res <= 1e-10,
           f"trials={trials} max_residual={worst_res:.3e}")
    report("equilibrium-interior", min_eta > 0.0,
           f"trials={trials} min_eta_h={min_eta:.3e}")
    report("gamma-riccati-root", worst_gam <= 1e-12,
           f"trials={trials} max_error={worst_gam:.3e}")

    # spectral structure of the linearization
    rng = np.random.default_rng(seed + 2)
    dims = (1, 2, 3, 5)
    worst_pair = 0.0
    ok = True
    detail = ""
    for i in range(trials):
        nn = dims[i % len(dims)]
        plant = random_plant(rng, nn)
        cfg = random_config(rng, nn)
        try:
            eq = analysis.average_equilibrium(plant, cfg)
            rep = analysis.spectral_check(plant, cfg, eq)
            if rep.pairing_residuals:
                worst_pair = max(worst_pair, max(rep.pairing_residuals))
        except ComputationError as exc:
            ok = False
            detail = str(exc)
            break
    report("spectral-structure", ok,
           detail if not ok else f"trials={trials} max_pairing_residual={worst_pair:.3e}")

    # exact safety of the reduced model
    rng = np.random.default_rng(seed + 3)
    n_red = max(5, trials // 10)
    worst_gap = math.inf
    for i in range(n_red):
        nn = (i % 3) + 1
        plant = random_plant(rng, nn, h0_sign=-1)
        cfg = random_config(rng, nn)
        settings = IntegrationSettings(dt=0.005, t_end=8.0, record_stride=1)
        for start_scale in (1.0, -1.0):
            x0 = plant.h1 / float(np.linalg.norm(plant.h1)) * start_scale * 2.0
            traj = integrate(lambda t, y: reduced_rhs(plant, cfg, y), x0,
                             settings, channels=reduced_channels(plant))
            gap = traj.h_values - traj.h_values[0] * np.exp(-cfg.c * traj.times)
            worst_gap = min(worst_gap, float(np.min(gap)))
    report("reduced-exact-safety", worst_gap >= -1e-6,
           f"trials={n_red} min_envelope_gap={worst_gap:.3e}")

    if failures == 0:
        print(f"ALL PROPERTIES PASS (seed={seed}, trials={trials})", file=stream)
        return 0
    print(f"{failures} PROPERTY FAILURES (seed={seed}, trials={trials})", file=stream)
    return 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="asfes",
        description="Safe extremum seeking: simulate scenarios, analyze "
                    "equilibria and spectra, verify numeric invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate all requested variants")
    p_sim.add_argument("scenario", help="path to a .scenario file")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_ana = sub.add_parser("analyze", help="equilibrium, spectra, Jacobian checks")
    p_ana.add_argument("scenario", help="path to a .scenario file")
    p_ana.add_argument("--out", required=True, help="output directory")

    p_ver = sub.add_parser("verify", help="seeded randomized invariant suites")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=100)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return run_simulate(parse_scenario(args.scenario), args.out)
        if args.command == "analyze":
            return run_analyze(parse_scenario(args.scenario), args.out)
        return run_verify(args.seed, args.trials)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
