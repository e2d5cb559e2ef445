"""Fixed-step fourth-order Runge-Kutta integration, warmup, and the
quadrature oracle for the averaged dynamics.

A fixed step is deliberate: the dither period dictates the resolution
anyway, and identical inputs must give bit-identical trajectories so golden
traces and determinism checks stay meaningful.  One stepper serves every
run, one state at a time, on Python floats, in an RK4 loop generated for
its right-hand side and compiled once per kind.  A dithered field of
:func:`~asfes.dynamics.make_rhs` is written into the loop, stage by stage;
any other right-hand side is called once per stage with the state as a
list, and may return a list or a 1-D array.  Each stage is the array
expression written per component, so the records are bit for bit those
of the array arithmetic.  One RK4 step of a dithered field costs about
6 us at n = 1 and 8 us at n = 2 that way, against 9 and 12 us when the
same field is called once per stage (medians on a shared 2-core VM,
Python 3.11; ``BENCH_generated_loop.json``).
"""

from __future__ import annotations

import ast
import functools
import math
import re
import types
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson

from .dynamics import (
    _SHAPES,
    AlgorithmConfig,
    FullState,
    StateLayout,
    Variant,
    _field_parts,
    _function_code,
    make_rhs,
)
from .errors import (
    DimensionMismatch,
    NonFiniteState,
    NonPositiveTolerance,
    QuadratureFailure,
    TooManySteps,
    ValidationError,
    WarmupTimeout,
)
from .problem import PlantModel, component_sum, eval_barrier, eval_objective, require_finite
from .signals import dither, signal_period

# default step resolves the fastest dither oscillation with 40 samples; the
# settings validator only insists on 20
DEFAULT_SAMPLES_PER_PERIOD = 40
MIN_SAMPLES_PER_PERIOD = 20
# a run of more steps is a mistaken scenario: hours at about 6 us per step
MAX_STEPS = 10**9


@dataclass(frozen=True)
class IntegrationSettings:
    dt: float
    t_end: float
    record_stride: int = 1
    gamma_guard: float = 1e6

    def __post_init__(self):
        for name in ("dt", "t_end"):
            require_finite(getattr(self, name), name)
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        if self.t_end <= 0.0:
            raise ValidationError("t_end must be positive")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise TooManySteps(
                f"t_end={self.t_end:g} over dt={self.dt:g} is over {MAX_STEPS:.0e} steps")
        stride = self.record_stride
        # past 2**53 every float is an integer, so none states a stride
        if not (1 <= stride <= 2**53 and stride == int(stride)):
            raise ValidationError(
                f"record_stride must be a positive integer up to 2**53, got {stride!r}")
        if not self.gamma_guard > 0.0:
            raise ValidationError(f"gamma_guard must be positive, got {self.gamma_guard!r}")
        object.__setattr__(self, "record_stride", int(stride))


def step_count(t_end: float, dt: float) -> int:
    """Steps of at most ``dt`` that cover ``[0, t_end]``."""
    return max(1, math.ceil(t_end / dt - 1e-9))


def default_dt(dither_cfg) -> float:
    return (2.0 * math.pi / dither_cfg.omega_max) / DEFAULT_SAMPLES_PER_PERIOD


def check_resolves_dither(settings: IntegrationSettings, dither_cfg) -> None:
    """The step must resolve the fastest dither period (20 samples minimum)."""
    limit = (2.0 * math.pi / dither_cfg.omega_max) / MIN_SAMPLES_PER_PERIOD
    if settings.dt > limit * (1.0 + 1e-12):
        raise ValidationError(
            f"dt={settings.dt:.3e} does not resolve the fastest dither period; "
            f"need dt <= {limit:.3e}"
        )


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: times (R,), raw states (R, size), and the plant
    channels that :func:`integrate` evaluates on them.

    ``thetas`` (R, n) holds the point fed to the plant maps at each record
    (theta_hat + S(t) for the dithered systems, theta_tilde + theta* for the
    averaged and reduced models); ``j_values`` and ``h_values`` are the
    objective and safety metric there, None for a run given no channels.
    ``diverged_at`` is the time the state left the reals; the records then
    stop at the step before.
    """

    times: np.ndarray
    states: np.ndarray
    thetas: Optional[np.ndarray] = None
    j_values: Optional[np.ndarray] = None
    h_values: Optional[np.ndarray] = None
    gamma_exceeded_at: Optional[float] = None
    diverged_at: Optional[float] = None

    def __len__(self) -> int:
        return self.times.shape[0]

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.shape[0] != self.times.shape[0]:
            raise ValidationError("times and states must have matching lengths")
        if self.times.shape[0] and np.any(np.diff(self.times) <= 0.0):
            raise ValidationError("times must be strictly increasing")


# channels(times (R,), states (size, R)) -> (theta (n, R), J (R,), h (R,)),
# over all R records of a run, the states component-major
ChannelFn = Callable[[np.ndarray, np.ndarray], tuple]


def full_state_channels(plant: PlantModel, cfg: AlgorithmConfig) -> ChannelFn:
    """Channels of the dithered systems: theta = theta_hat + S(t), with J
    and h evaluated there."""
    theta_at = StateLayout.of(plant.dimension).theta

    def channels(times, states):
        theta = states[theta_at] + dither(cfg.dither, times)
        return theta, eval_objective(plant, theta), eval_barrier(plant, theta)

    return channels


def average_channels(plant: PlantModel) -> ChannelFn:
    """Channels of averaged-coordinate states: theta = theta_tilde + theta*."""

    def channels(times, states):
        theta = states[:plant.dimension] + plant.theta_star[:, None]
        return theta, eval_objective(plant, theta), eval_barrier(plant, theta)

    return channels


reduced_channels = average_channels  # the reduced model uses the same coordinate


def integrate(
    rhs: Callable,
    x0,
    settings: IntegrationSettings,
    channels: Optional[ChannelFn] = None,
    gamma_index: Optional[int] = None,
) -> Trajectory:
    """Classic fixed-step RK4 of one state ``x0`` ``(size,)`` from t=0 to
    t_end, recording every ``record_stride``-th step (plus the first and
    last).

    The state is stepped on Python floats: ``rhs(t, y)`` gets a list of
    ``size`` floats and returns a list or a 1-D array of as many, which
    the stepper turns into a list; a dithered field of
    :func:`~asfes.dynamics.make_rhs` is not called but written into the
    stepping loop.  ``channels`` is called once, on all the records (see
    :data:`ChannelFn`).

    A state that leaves the reals raises :class:`NonFiniteState`, carrying
    the trajectory recorded up to the step before, channels included.
    Crossing ``gamma_guard`` in magnitude at ``gamma_index`` is only
    flagged, not stopped: the local theory gives no global bound, so
    divergence is surfaced as a diagnostic.
    """
    run = _rk4(rhs, x0, settings, gamma_index)
    if channels is not None:
        # a J or h beyond the float range is recorded as inf, with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            theta, j, h = channels(run.times, run.states.T)
        run = replace(run, thetas=theta.T, j_values=j, h_values=h)
    if run.diverged_at is not None:
        raise NonFiniteState(run.diverged_at, partial=run)
    return run


def _rk4(rhs, x0, settings: IntegrationSettings, gamma_index: Optional[int],
         held: int = 0) -> Trajectory:
    """The stepper behind :func:`integrate` and :func:`warmup`: the
    trajectory of one state, which stops with ``diverged_at`` set where
    the state leaves the reals.  The first ``held`` rows are held where
    they are: their derivative is taken as zero, whatever ``rhs`` gives."""
    y = np.array(x0, dtype=float)
    if y.ndim != 1:
        raise DimensionMismatch(f"x0 has shape {y.shape}; it must be one state vector")
    n_steps = step_count(settings.t_end, settings.dt)
    h = settings.t_end / n_steps
    times = [0.0]
    states = array("d")                # every record, flat, in step order
    size = y.shape[0]
    loop = _one_state_loop(rhs, size, held, gamma_index)
    # an opaque rhs may compute on numpy; its inf/nan warnings on the way
    # to a divergence are noise
    with np.errstate(over="ignore", invalid="ignore"):
        stopped, crossed = loop(rhs, y.tolist(), n_steps, h, settings.record_stride,
                                settings.gamma_guard, times, states)
    return Trajectory(np.array(times), np.frombuffer(states).reshape(len(times), size),
                      gamma_exceeded_at=None if crossed is None else crossed * h,
                      diverged_at=None if stopped is None else stopped * h)


# ---- the one-state RK4 loop, generated ----------------------------------------
#
# One state is stepped by a function generated for its right-hand side: each
# component is a local float, and the four stages are written out, so that a
# step costs its arithmetic and little else.  A stage's derivative takes one
# of two forms:
#
# * fused: the body of a dithered field of asfes.dynamics (the ``template`` of
#   a make_rhs closure), written into the loop once per stage with the stage's
#   locals suffixed; the lines of the time alone are computed once for stages
#   2 and 3, which share t + h/2;
# * opaque: a call of ``rhs`` on the stage's state as a list, for any other
#   right-hand side.  It may return a list or a 1-D array, of the state's
#   length.
#
# The stage points and the update are the array expressions y + (h/2) k and
# y + (h/6) (((k1 + 2 k2) + 2 k3) + k4) written per component, so the records
# are bit for bit those of the array arithmetic.  The loop records into
# ``times`` and the flat ``states`` and returns two step numbers: where the
# state left the reals (None if it did not) and where gamma first crossed the
# guard (None if it did not).

# each stage's time, and the step that leads from the state to its point
_STAGES = (("t", None), ("t_half", "half"), ("t_half", "half"), ("t_step", "h"))


def _as_list(dy, size: int) -> list:
    """A one-state derivative as a list of ``size`` floats."""
    if type(dy) is not list:
        dy = dy.tolist()
    if len(dy) != size:     # unpacking it would fail without naming the fault
        raise DimensionMismatch(f"rhs gave {len(dy)} components for a state of {size}")
    return dy


def _stage_parts(model: Optional[str], n: int) -> tuple:
    """``(state names, body lines, derivative expressions)`` of one stage:
    the dithered field ``model`` at dimension n, or, for model None, a call
    of ``rhs`` on a state of n rows."""
    if model is None:
        state = [f"y{r}" for r in range(n)]
        rows = [f"dy{r}" for r in range(n)]
        return state, [f"dy = rhs(t, [{', '.join(state)}])",
                       f"if type(dy) is not list or len(dy) != {n}: dy = as_list(dy, {n})",
                       f"{', '.join(rows)}, = dy"], rows
    _, state, lines, rows = _field_parts(model, n)
    return state, lines, rows


def _names(code: str) -> tuple:
    """The names one line of source assigns and the names it reads."""
    names = [node for node in ast.walk(ast.parse(code)) if isinstance(node, ast.Name)]
    return ({node.id for node in names if isinstance(node.ctx, ast.Store)},
            {node.id for node in names if isinstance(node.ctx, ast.Load)})


def _renamed(code: str, rename: dict) -> str:
    return re.sub(r"\b\w+\b", lambda m: rename.get(m.group(), m.group()), code)


def _loop_source(model: Optional[str], n: int, held: int, gamma_index: Optional[int]) -> str:
    """The loop for the dithered field ``model`` at dimension n, or the
    opaque loop (model None) for a state of n rows, with the first ``held``
    rows held and gamma watched at row ``gamma_index`` (None: not at all)."""
    state, lines, rows = _stage_parts(model, n)
    rows = ["0.0"] * held + rows[held:]
    body = [(line, *_names(line)) for line in lines]       # (line, assigned, read)
    if model is not None:
        # a field's lines that only the held rows read are dropped
        needed = set().union(*(_names(row)[1] for row in rows))
        kept = []
        for line, assigned, read in reversed(body):
            if assigned & needed:
                kept.insert(0, (line, assigned, read))
                needed |= read
        body = kept
    local = {"t", *state, *(name for _, assigned, _ in body for name in assigned)}
    timed = {"t"}                   # the time and what is computed from it alone
    for _, assigned, read in body:
        if read & local <= timed:
            timed |= assigned

    steps = []
    stages = []                     # each stage's derivative, row by row
    for s, (t, step) in enumerate(_STAGES, start=1):
        rename = {name: f"{name}_{s}" for name in local}
        if s == 1:
            rename.update((x, x) for x in state)
        if s == 3:
            rename.update((name, f"{name}_2") for name in timed)
        rename["t"] = t
        if step is not None:
            steps += [f"{rename[x]} = ({x} + ({step} * {k}))" for x, k in zip(state, stages[-1])]
        steps += [_renamed(line, rename) for line, assigned, _ in body
                  if not (s == 3 and assigned <= timed)]
        ks = []
        for r, row in enumerate(rows):
            # a held row's 0.0, or a local the body assigned, serves as it is
            if row == "0.0" or (row.isidentifier() and row not in state):
                ks.append(_renamed(row, rename))
            else:
                steps.append(f"k{s}_{r} = {_renamed(row, rename)}")
                ks.append(f"k{s}_{r}")
        stages.append(ks)
    steps += [f"{x} = ({x} + (sixth * ((({k1} + (2.0 * {k2})) + (2.0 * {k3})) + {k4})))"
              for x, k1, k2, k3, k4 in zip(state, *stages)]
    # x - x is 0.0 for a finite x and nan otherwise
    steps += [f"if ({' + '.join(f'({x} - {x})' for x in state)}) != 0.0:",
              "    return (i + 1), crossed"]
    if gamma_index is not None:
        steps += [f"if crossed is None and abs({state[gamma_index]}) > guard:",
                  "    crossed = (i + 1)"]
    steps += ["if ((i + 1) % stride) == 0 or (i + 1) == n_steps:",
              "    append(((i + 1) * h))",
              f"    record(({', '.join(state)},))"]
    body_lines = [
        "half = (0.5 * h)", "sixth = (h / 6.0)", f"{', '.join(state)}, = y",
        "append, record = times.append, states.extend", f"record(({', '.join(state)},))",
        "crossed = None",
        "for i in range(n_steps):",
        *(f"    {line}" for line in
          ["t = (i * h)", "t_half = (t + half)", "t_step = (t + h)", *steps]),
        "return None, crossed"]
    return (f"def rk4_{model or 'opaque'}_{n}(rhs, y, n_steps, h, stride, guard, times, states):\n"
            + "".join(f"    {line}\n" for line in body_lines))


@functools.cache
def _loop_code(model: Optional[str], n: int, held: int,
               gamma_index: Optional[int]) -> types.CodeType:
    return _function_code(_loop_source(model, n, held, gamma_index),
                          f"<asfes rk4 loop, {model or 'opaque'}, n={n}>")


def _one_state_loop(rhs, size: int, held: int, gamma_index: Optional[int]) -> Callable:
    """The generated loop that steps one state of ``size`` rows of ``rhs``:
    fused with the field's template where ``rhs`` carries one for a state of
    that size, opaque otherwise."""
    template = getattr(rhs, "template", None)
    if template is not None:
        model, n, constants = template
        if StateLayout.of(n, model == Variant.NEWTON_ASFES.value).size == size:
            return types.FunctionType(_loop_code(model, n, held, gamma_index),
                                      {**constants, **_SHAPES["floats"]})
    return types.FunctionType(_loop_code(None, size, held, gamma_index), {"as_list": _as_list})


def exact_initial_state(plant: PlantModel, cfg: AlgorithmConfig, theta0) -> FullState:
    """Filter states set to the values they estimate, parameter at theta0.

    G_J and G_h get the true gradients, eta_J the objective plus the probing
    bias (a^2/4) tr(H), eta_h the safety value, gamma its Riccati fixed
    point, and Gamma the true inverse Hessian for the Newton variant.
    """
    theta0 = np.atleast_1d(np.asarray(theta0, float))
    tt = theta0 - plant.theta_star
    a = cfg.dither.amplitude
    eta_j = eval_objective(plant, theta0) + 0.25 * a * a * float(np.trace(plant.hessian))
    gamma_newton = None
    if cfg.variant is Variant.NEWTON_ASFES:
        gamma_newton = 1.0 / float(plant.hessian[0, 0])
    return FullState(
        theta_hat=theta0,
        g_j=plant.hessian @ tt,
        eta_j=eta_j,
        g_h=plant.h1.copy(),
        eta_h=eval_barrier(plant, theta0),
        gamma=1.0 / float(plant.h1 @ plant.h1),
        gamma_newton=gamma_newton,
    )


@np.errstate(over="ignore", invalid="ignore")    # a start that overflows fails by name
def warmup(
    plant: PlantModel,
    cfg: AlgorithmConfig,
    theta0,
    settings: IntegrationSettings,
    rel_tol: float,
) -> FullState:
    """Settle the filters with the parameter frozen at theta0 ``(n,)``.

    Steps the filter subsystem (parameter rows held) with the stepper of
    :func:`integrate`, one signal period at a time, and compares the filter
    states one period apart: sampling at period boundaries removes the
    dither ripple, which never converges pointwise.  The start is settled
    once the relative change drops below ``rel_tol``, and the assembled
    initial state is returned.  It fails with :class:`WarmupTimeout` when
    ``t_end`` is exhausted first, or with :class:`NonFiniteState`.
    """
    if not rel_tol > 0.0:
        raise NonPositiveTolerance("rel_tol must be positive")
    check_resolves_dither(settings, cfg.dither)
    n = plant.dimension
    start = np.atleast_1d(np.asarray(theta0, float))
    if start.shape != (n,):
        raise DimensionMismatch(f"theta0 has shape {np.shape(theta0)}, expected ({n},)")
    layout = StateLayout.of(n, cfg.variant is Variant.NEWTON_ASFES)
    filters = layout.filters
    f = make_rhs(plant, cfg)
    period = signal_period(cfg.dither)
    one_period = IntegrationSettings(
        dt=settings.dt, t_end=period,
        record_stride=step_count(period, settings.dt))

    # theta at the start, eta_J and eta_h at J and h there, G_J and G_h
    # at zero, gamma (and Gamma) at one
    y = layout.pack([start, 0.0, eval_objective(plant, start), 0.0,
                     eval_barrier(plant, start), 1.0, 1.0][:len(layout.blocks)])
    prev = y[filters]
    for p in range(max(1, int(settings.t_end / period))):
        run = _rk4(f, y, one_period, None, held=layout.theta.stop)
        if run.diverged_at is not None:
            raise NonFiniteState(p * period + run.diverged_at)
        y = run.states[-1]
        if _norm(y[filters] - prev) <= rel_tol * max(_norm(y[filters]), 1e-30):
            return FullState.from_vector(y, n)
        prev = y[filters]
    raise WarmupTimeout(
        f"filters did not settle to rel_tol={rel_tol:g} within t_end={settings.t_end:g}")


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, its squares summed left to right."""
    return math.sqrt(component_sum(x * x))


def numeric_average(
    plant: PlantModel,
    cfg: AlgorithmConfig,
    x,
    nodes_per_fastest_period: int = 200,
) -> np.ndarray:
    """Quadrature average of the dithered field over one signal period.

    The state is held fixed (interpreted in averaged coordinates, so the
    parameter block is theta_tilde) and the original right-hand side is
    averaged by composite Simpson quadrature over the exact common period.
    This is the independent oracle for
    :func:`asfes.dynamics.make_average_rhs`.
    """
    layout = StateLayout.of(plant.dimension)
    tt, *filters = layout.unpack(x)
    y = layout.pack([tt + plant.theta_star, *filters])  # the dithered field works in theta_hat

    period = signal_period(cfg.dither)
    fastest = 2.0 * math.pi / cfg.dither.omega_max
    intervals = math.ceil(nodes_per_fastest_period * period / fastest)
    intervals += intervals % 2  # composite Simpson wants an even count
    ts = np.linspace(0.0, period, intervals + 1)
    f = make_rhs(plant, cfg.with_variant(Variant.ASFES))
    # every node in one call: the state broadcast over the nodes, one time each
    samples = f(ts, np.broadcast_to(y[:, None], (y.shape[0], ts.shape[0])))
    if not np.all(np.isfinite(samples)):
        raise QuadratureFailure("non-finite integrand while averaging")
    return simpson(samples, x=ts, axis=1) / period
