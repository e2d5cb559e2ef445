"""Fixed-step fourth-order Runge-Kutta integration, warmup, and the
averaging oracle for the averaged dynamics.

A fixed step is deliberate: the dither period dictates the resolution
anyway, and identical inputs must give bit-identical trajectories so golden
traces and determinism checks stay meaningful.  One stepper serves every
run, one state at a time, on Python floats, in an RK4 loop generated for
its right-hand side and compiled once per kind.  A field of
:mod:`asfes.dynamics` (dithered, averaged or reduced) is written into the
loop, stage by stage, from the template it carries, its size included;
any other right-hand side is called once per stage with the state as a
list, and may return a list or a 1-D array.  Each stage is the array
expression written per component, so the records are bit for bit those
of the array arithmetic.

The loop of a field is also rendered as C from the same statements
(:mod:`asfes._ckernel`), compiled once per kind with the system C
compiler, and steps every run of the field where it can be built, bit for
bit as the Python loop, which remains for any other right-hand side and
wherever no kernel can be had.  One RK4 step of a dithered field costs
about 0.14 us at n = 1, 0.23 us at n = 2 and 0.31 us at n = 3 in the
kernel, against 6, 10 and 13 us in the Python loop (medians on a shared
2-core Xeon VM, Python 3.11, gcc 12.2; ``BENCH_c_kernel.json``).

Warmup steps the filter rows alone, one signal period after another, in
a loop that holds the parameter as a constant.  That loop is generated
whole, its periods and its stop rule included, as one function per kind
in both renderings, so a warmup is one call of it.

The averaging oracle, :func:`numeric_average`, takes the mean of the
dithered field at equally spaced times over the dither's common period,
which is its exact period average: no quadrature library is needed.  The
mean is a third generated function, rendered from the field like the
loops, so an oracle is one call of it.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import types
from array import array
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dynamics import (
    _MATH,
    AlgorithmConfig,
    FullState,
    StateLayout,
    Variant,
    _field_parts,
    _function_code,
    _sum,
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
from .problem import PlantModel, eval_barrier, eval_objective, finite_float, real_array
from .signals import dither, fundamental_ratio, signal_period

# default step resolves the fastest dither oscillation with 40 samples; the
# settings validator only insists on 20
DEFAULT_SAMPLES_PER_PERIOD = 40
MIN_SAMPLES_PER_PERIOD = 20
# a run of more steps is a mistaken scenario: minutes at about 0.14 us per
# step in the C kernel, hours at 6 us in the Python loop
MAX_STEPS = 10**9
# nodes of the averaging oracle per period of the fastest dither: 4 is the
# least that is exact (see numeric_average), 8 leaves a margin
ORACLE_NODES_PER_FASTEST_PERIOD = 8


@dataclass(frozen=True)
class IntegrationSettings:
    dt: float
    t_end: float
    record_stride: int = 1
    gamma_guard: float = 1e6

    def __post_init__(self):
        for name in ("dt", "t_end"):
            object.__setattr__(self, name, finite_float(getattr(self, name), name))
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        if self.t_end <= 0.0:
            raise ValidationError("t_end must be positive")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise TooManySteps(
                f"t_end={self.t_end:g} over dt={self.dt:g} is over {MAX_STEPS:.0e} steps")
        stride = finite_float(self.record_stride, "record_stride")
        # past 2**53 every float is an integer, so none states a stride
        if not (1 <= stride <= 2**53 and stride == int(stride)):
            raise ValidationError(f"record_stride must be a positive integer up to 2**53, "
                                  f"got {self.record_stride!r}")
        guard = finite_float(self.gamma_guard, "gamma_guard", finite=False)
        if not guard > 0.0:         # inf is a guard that never flags
            raise ValidationError(f"gamma_guard must be positive, got {self.gamma_guard!r}")
        object.__setattr__(self, "record_stride", int(stride))
        object.__setattr__(self, "gamma_guard", guard)


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
    """Channels of averaged-coordinate states, the averaged and the reduced
    model's: theta = theta_tilde + theta*."""

    def channels(times, states):
        theta = states[:plant.dimension] + plant.theta_star[:, None]
        return theta, eval_objective(plant, theta), eval_barrier(plant, theta)

    return channels


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
    the stepper turns into a list.  Every field of :mod:`asfes.dynamics`
    takes that form (:func:`~asfes.dynamics.make_average_rhs` and
    :func:`~asfes.dynamics.make_reduced_rhs` leave ``t`` unread), but is
    not called: it is written into the stepping loop, and an ``x0`` that is
    not of its size is a :class:`DimensionMismatch`.  ``channels`` is
    called once, on all the records (see :data:`ChannelFn`).

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


def _rk4(rhs, x0, settings: IntegrationSettings, gamma_index: Optional[int]) -> Trajectory:
    """The stepper behind :func:`integrate`: one state's trajectory, which
    stops with ``diverged_at`` set where the state leaves the reals."""
    y = np.array(x0, dtype=float)
    if y.ndim != 1:
        raise DimensionMismatch(f"x0 has shape {y.shape}; it must be one state vector")
    n_steps = step_count(settings.t_end, settings.dt)
    h = settings.t_end / n_steps
    step = _loop(rhs, y.shape[0], (), gamma_index)
    times, states, stopped, crossed = step(y.tolist(), n_steps, h, settings.record_stride,
                                           settings.gamma_guard)
    return Trajectory(times, states,
                      gamma_exceeded_at=None if crossed is None else crossed * h,
                      diverged_at=None if stopped is None else stopped * h)


# ---- the one-state RK4 loop, generated ----------------------------------------
#
# One state is stepped by a function generated for its right-hand side: each
# component is a local float, and the four stages are written out, so that a
# step costs its arithmetic and little else.  A stage's derivative takes one
# of two forms:
#
# * fused: the body of a field of asfes.dynamics (the ``template`` it carries),
#   written into the loop once per stage with the stage's locals suffixed;
# * opaque: a call of ``rhs`` on the stage's state as a list, for any other
#   right-hand side.  It may return a list or a 1-D array, of the state's
#   length.
#
# The stage points and the update are the array expressions y + (h/2) k and
# y + (h/6) (((k1 + 2 k2) + 2 k3) + k4) written per component, so the records
# are bit for bit those of the array arithmetic.  A run's loop records into
# ``times`` and the flat ``states`` and returns two step numbers: where the
# state left the reals (None if it did not) and where gamma first crossed the
# guard (None if it did not).
#
# A loop may hold its first rows as constants, bound in its namespace under
# the names the stages read: it steps only the other rows, which are its
# ``y``.  A stage line is fixed when it reads only the time, the constants
# and what other fixed lines computed: the times, in a dithered field the
# dither, and with theta held the dithered point, J and h there and the
# demodulation.  Fixed lines come first in a step, and stage 3 reuses those
# of stage 2, which share t + h/2.  The opaque loop's only fixed lines are
# the times: its ``rhs`` is called four times a step.
#
# A loop that holds rows is warmup's, and it is warmup's whole period loop:
# it steps one signal period after another, records nothing and watches no
# row, and stops where the state leaves the reals or where the change over
# a period is within ``rel_tol`` of the state, each norm the square root of
# its squares summed left to right.  So a warmup is one call of its loop.
#
# A loop that holds every row steps nothing: it is the averaging oracle's
# mean of the field at the held state over the times (period * i) / nodes,
# each row summed from 0.0 in node order and divided by nodes, which are
# the bits of numpy's sum over axis 0 (a row of -0.0s gives +0.0).
#
# A loop's statements (:func:`_loop_parts`) have two renderers: the Python
# source of :func:`_loop_source`, and the C kernel of :mod:`asfes._ckernel`.

# each stage's time, and the step that leads from the state to its point
_STAGES = (("t", None), ("t_half", "half"), ("t_half", "half"), ("t_step", "h"))


def _as_list(dy, size: int) -> list:
    """A one-state derivative as a list of ``size`` floats."""
    if type(dy) is not list:
        dy = dy.tolist()
    if len(dy) != size:     # unpacking it would fail without naming the fault
        raise DimensionMismatch(f"rhs gave {len(dy)} components for a state of {size}")
    return dy


@functools.cache
def _stage_parts(model: Optional[str], n: int) -> tuple:
    """``(state names, body lines, derivative expressions)`` of one stage:
    the field ``model`` at dimension n, or, for model None, a call of
    ``rhs`` on a state of n rows."""
    if model is None:
        state = tuple(f"y{r}" for r in range(n))
        rows = tuple(f"dy{r}" for r in range(n))
        return state, (f"dy = rhs(t, [{', '.join(state)}])",
                       f"if type(dy) is not list or len(dy) != {n}: dy = as_list(dy, {n})",
                       f"{', '.join(rows)}, = dy"), rows
    _, state, lines, rows = _field_parts(model, n)
    return tuple(state), tuple(lines), tuple(rows)


def _names(code: str) -> tuple:
    """The names one line of source assigns and the names it reads."""
    names = [node for node in ast.walk(ast.parse(code)) if isinstance(node, ast.Name)]
    return ({node.id for node in names if isinstance(node.ctx, ast.Store)},
            {node.id for node in names if isinstance(node.ctx, ast.Load)})


def _renamed(code: str, rename: dict) -> str:
    return re.sub(r"\b\w+\b", lambda m: rename.get(m.group(), m.group()), code)


class _LoopParts(NamedTuple):
    """The statements of one loop, shared by its two renderers: the Python
    source of :func:`_loop_source` and the C kernel of
    :mod:`asfes._ckernel`.  Each line is ``name = expression``, the
    expression fully parenthesised float arithmetic on names, with
    ``sin`` and ``sqrt``; a condition is such an expression, with
    comparisons and ``max``."""

    state: tuple        # the names of the rows the loop steps
    lines: list         # the stage lines: those that read only the time and
                        # the constants first, then the others in order
    update: list        # the RK4 update of each stepped row
    diverged: str       # true once a stepped row has left the reals
    watched: Optional[str]      # the stepped row gamma is in a run, or None
    # a warmup's period (a run's loop has none): the copies of the rows as
    # it starts, the norms of the change over it and of the state as it
    # ends, and the stop rule on them
    start: list
    norms: list
    settled: Optional[str]
    # the oracle's running sums, one per row of the field, where every row
    # is held: the loop is then their mean over the nodes, ``lines`` a
    # node's and ``update`` the sums
    totals: tuple = ()

    @property
    def kind(self) -> str:
        """``rk4`` for a run's loop, ``settle`` for a warmup's, ``mean``
        for the oracle's."""
        return "mean" if self.totals else "rk4" if self.settled is None else "settle"


@functools.cache
def _loop_parts(model: Optional[str], n: int, held: int,
                gamma_index: Optional[int]) -> _LoopParts:
    """The statements of the loop of :func:`_loop_source`, for the same
    arguments."""
    state, lines, rows = _stage_parts(model, n)
    if held == len(state):
        # nothing steps: the field is evaluated at each node's time and
        # summed from 0.0, node after node, as numpy's sum over axis 0 does
        totals = tuple(f"total{r}" for r in range(len(rows)))
        return _LoopParts((), ["t = ((period * i) / nodes)", *lines],
                          [f"{total} = ({total} + {row})" for total, row in zip(totals, rows)],
                          None, None, [], [], None, totals)
    state, rows = state[held:], rows[held:]                # the rows the loop steps
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
    timed = {"t"}     # the time and what is computed from it and the constants alone
    for _, assigned, read in body:
        if read & local <= timed:
            timed |= assigned

    fixed, varied = ["t = (i * h)", "t_half = (t + half)", "t_step = (t + h)"], []
    stages = []                     # each stage's derivative, row by row
    for s, (t, step) in enumerate(_STAGES, start=1):
        rename = {name: f"{name}_{s}" for name in local}
        if s == 1:
            rename.update((x, x) for x in state)
        if s == 3:
            rename.update((name, f"{name}_2") for name in timed)
        rename["t"] = t
        if step is not None:
            varied += [f"{rename[x]} = ({x} + ({step} * {k}))" for x, k in zip(state, stages[-1])]
        for line, assigned, _ in body:
            if not assigned <= timed:
                varied.append(_renamed(line, rename))
            elif s != 3:
                fixed.append(_renamed(line, rename))
        ks = []
        for r, row in enumerate(rows):
            # a local the body assigned serves as it is
            if row.isidentifier() and row not in state:
                ks.append(_renamed(row, rename))
            else:
                varied.append(f"k{s}_{r} = {_renamed(row, rename)}")
                ks.append(f"k{s}_{r}")
        stages.append(ks)
    update = [f"{x} = ({x} + (sixth * ((({k1} + (2.0 * {k2})) + (2.0 * {k3})) + {k4})))"
              for x, k1, k2, k3, k4 in zip(state, *stages)]
    # x - x is 0.0 for a finite x and nan otherwise
    diverged = f"({' + '.join(f'({x} - {x})' for x in state)}) != 0.0"
    if not held:
        watched = None if gamma_index is None else state[gamma_index]
        return _LoopParts(state, fixed + varied, update, diverged, watched, [], [], None)
    start = [f"{x}_0 = {x}" for x in state]
    norms = [f"change = sqrt({_sum([f'(({x} - {x}_0) * ({x} - {x}_0))' for x in state])})",
             f"size = sqrt({_sum([f'({x} * {x})' for x in state])})"]
    settled = "change <= (rel_tol * max(size, 1e-30))"
    return _LoopParts(state, fixed + varied, update, diverged, None, start, norms, settled)


def _loop_source(model: Optional[str], n: int, held: int, gamma_index: Optional[int]) -> str:
    """The loop for the field ``model`` at dimension n, or the opaque loop
    (model None) for a state of n rows: with no rows held, a run's
    ``rk4_<model>_<n>``, gamma watched at row ``gamma_index`` (None: not at
    all); with the first ``held`` rows held, warmup's
    ``settle_<model>_<n>``; with every row held, the oracle's
    ``mean_<model>_<n>``."""
    parts = _loop_parts(model, n, held, gamma_index)
    head = f"{parts.kind}_{model or 'opaque'}_{n}"
    state, diverged = ", ".join(parts.state), parts.diverged
    steps = parts.lines + parts.update
    body_lines = ["half = (0.5 * h)", "sixth = (h / 6.0)", f"{state}, = y"]
    if parts.totals:
        means = ", ".join(f"({total} / nodes)" for total in parts.totals)
        body_lines = [*(f"{total} = 0.0" for total in parts.totals), "for i in range(nodes):",
                      *(f"    {line}" for line in steps), f"return [{means}]"]
        head += "(rhs, period, nodes)"
    elif parts.settled is not None:
        steps += [f"if {diverged}:", "    return period, (i + 1), None"]
        period = [*parts.start, "for i in range(n_steps):", *(f"    {line}" for line in steps),
                  *parts.norms, f"if {parts.settled}:", f"    return period, None, [{state}]"]
        body_lines += ["for period in range(1, periods + 1):",
                       *(f"    {line}" for line in period), "return periods, None, None"]
        head += "(rhs, y, periods, n_steps, h, rel_tol)"
    else:
        steps += [f"if {diverged}:", "    return (i + 1), crossed"]
        if parts.watched is not None:
            steps += [f"if crossed is None and abs({parts.watched}) > guard:",
                      "    crossed = (i + 1)"]
        steps += ["if ((i + 1) % stride) == 0 or (i + 1) == n_steps:",
                  "    append(((i + 1) * h))", f"    record(({state},))"]
        body_lines += ["append, record = times.append, states.extend", f"record(({state},))",
                       "crossed = None", "for i in range(n_steps):",
                       *(f"    {line}" for line in steps), "return None, crossed"]
        head += "(rhs, y, n_steps, h, stride, guard, times, states)"
    return f"def {head}:\n" + "".join(f"    {line}\n" for line in body_lines)


@functools.cache
def _loop_code(model: Optional[str], n: int, held: int,
               gamma_index: Optional[int]) -> types.CodeType:
    return _function_code(_loop_source(model, n, held, gamma_index),
                          f"<asfes {_loop_parts(model, n, held, gamma_index).kind} loop, "
                          f"{model or 'opaque'}, n={n}>")


def _binding(rhs, size: int, held: tuple) -> tuple:
    """``(model, n, values)`` of the loop that steps ``rhs``: the model and
    n of the template it carries (None and the state's size for any other
    right-hand side), and the values the loop reads by name, the field's
    constants and the held rows.  A templated field given a state of
    another size is a :class:`DimensionMismatch`."""
    template = getattr(rhs, "template", None)
    if template is None:
        model, n, values = None, size, {}
    else:
        model, n, field_size, constants = template
        if size != field_size:
            raise DimensionMismatch(
                f"x0 has {size} rows; the {model} field at n={n} takes {field_size}")
        values = dict(constants)
    values.update(zip(_stage_parts(model, n)[0], held))
    return model, n, values


def _kernel(model: Optional[str], n: int, held: int, gamma_index: Optional[int]):
    """The C kernel (:class:`asfes._ckernel.Kernel`) of the loop of a
    field, built on first use; None for the opaque loop (model None) or
    where none can be built."""
    if model is None:
        return None
    from . import _ckernel

    key = (model, n, held, gamma_index)
    return _ckernel.kernel(key, _loop_parts(*key))


def _loop(rhs, size: int, held: tuple, gamma_index: Optional[int]) -> Callable:
    """The loop of one state of ``size`` rows of ``rhs``, its first rows
    held at the floats ``held`` (see the comment above :data:`_STAGES`).
    A templated field given a state of another size is a
    :class:`DimensionMismatch`.

    With no rows held, a run's ``step(y, n_steps, h, stride, guard) ->
    (times, states, stopped, crossed)`` steps the list of floats ``y`` and
    gives its records as arrays ``(R,)`` and ``(R, rows)``, the step where
    it left the reals and the step where gamma, at row ``gamma_index``,
    first crossed the guard in magnitude, each None where it did not.

    With rows held, a warmup's ``settle(y, periods, n_steps, h, rel_tol)
    -> (periods, stopped, state)`` steps ``y`` one period of ``n_steps``
    steps at a time, for at most ``periods`` periods, until the change
    over a period is within ``rel_tol`` of the state.  It gives the periods
    stepped, the last one cut short where the state left the reals; the
    step of that period where it did, or None; and the settled state, a
    list of floats, or None where it left the reals or did not settle.

    With every row held, the oracle's ``mean(period, nodes)`` gives the
    mean of ``rhs`` at the held state over the times ``(period * i) /
    nodes``, i < nodes, as a list: each row summed from 0.0 in node order
    and divided by ``nodes``, the bits of numpy's ``sum(axis=0) / nodes``
    over the rows of the samples.

    A templated field steps in its C kernel (see :mod:`asfes._ckernel`)
    where one can be built; otherwise the state steps in the generated
    Python loop, fused with the template ``rhs`` carries or opaque where it
    carries none, bit for bit alike."""
    model, n, values = _binding(rhs, size, held)
    kernel = _kernel(model, n, len(held), gamma_index)
    if kernel is not None:
        return kernel.bind(values)
    code = _loop_code(model, n, len(held), gamma_index)
    loop = types.FunctionType(code, {**values, **_MATH, "as_list": _as_list})
    # an opaque rhs may compute on numpy; its inf/nan warnings on the way to a
    # divergence are noise
    loop = np.errstate(over="ignore", invalid="ignore")(functools.partial(loop, rhs))
    if held:
        return loop

    def step(y, n_steps, h, stride, guard):
        times, states = [0.0], array("d")
        stopped, crossed = loop(y, n_steps, h, stride, guard, times, states)
        return (np.array(times), np.frombuffer(states).reshape(len(times), -1), stopped,
                crossed)

    return step


def _start(plant: PlantModel, theta0) -> np.ndarray:
    """``theta0`` as a float vector ``(n,)`` (a number at n = 1); any other
    shape is a :class:`DimensionMismatch`."""
    start = np.atleast_1d(real_array(theta0, "theta0"))
    if start.shape != (plant.dimension,):
        raise DimensionMismatch(
            f"theta0 has shape {np.shape(theta0)}, expected ({plant.dimension},)")
    return start


def exact_initial_state(plant: PlantModel, cfg: AlgorithmConfig, theta0) -> FullState:
    """Filter states set to the values they estimate, parameter at theta0.

    G_J and G_h get the true gradients, eta_J the objective plus the probing
    bias (a^2/4) tr(H), eta_h the safety value, gamma its Riccati fixed
    point, and Gamma the true inverse Hessian for the Newton variant.  A
    ``theta0`` of any shape but ``(n,)`` is a :class:`DimensionMismatch`.
    """
    theta0 = _start(plant, theta0)
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

    Steps the filter subsystem in the RK4 loop of :func:`integrate`, with
    the parameter rows held at theta0 as constants of the loop, one signal
    period after another, and compares the filter states one period apart:
    sampling at period boundaries removes the dither ripple, which never
    converges pointwise.  The start is settled once the relative change
    drops below ``rel_tol``, and the initial state made of theta0 and the
    settled filters is returned.  It fails with :class:`WarmupTimeout`
    when ``t_end`` is exhausted first, or with :class:`NonFiniteState`.

    The period loop and its stop rule are one generated function, the
    ``settle`` of :func:`_loop`, run in one call of the field's C kernel
    where one can be built and in Python otherwise, with the same outcome
    bit for bit.
    """
    if not rel_tol > 0.0:
        raise NonPositiveTolerance("rel_tol must be positive")
    check_resolves_dither(settings, cfg.dither)
    n = plant.dimension
    start = _start(plant, theta0)
    layout = StateLayout.of(n, cfg.variant is Variant.NEWTON_ASFES)
    f = make_rhs(plant, cfg)
    period = signal_period(cfg.dither)
    IntegrationSettings(dt=settings.dt, t_end=period)    # a period of too many steps fails
    n_steps = step_count(period, settings.dt)
    h = period / n_steps
    settle = _loop(f, layout.size, tuple(start.tolist()), None)

    # eta_J and eta_h at J and h at the start, G_J and G_h at zero, gamma
    # (and Gamma) at one
    y = layout.pack([start, 0.0, eval_objective(plant, start), 0.0,
                     eval_barrier(plant, start), 1.0, 1.0][:len(layout.blocks)])[layout.filters]
    periods, stopped, state = settle(y.tolist(), max(1, int(settings.t_end / period)), n_steps,
                                     h, float(rel_tol))
    if stopped is not None:
        raise NonFiniteState((periods - 1) * period + stopped * h)
    if state is None:
        raise WarmupTimeout(
            f"filters did not settle to rel_tol={rel_tol:g} within t_end={settings.t_end:g}")
    return FullState.from_vector(np.concatenate((start, state)), n)


def numeric_average(plant: PlantModel, cfg: AlgorithmConfig, x) -> np.ndarray:
    """Period average of the gradient variant's dithered field at the fixed
    state ``x``, read in averaged coordinates (theta_tilde in the parameter
    block): the independent oracle for :func:`asfes.dynamics.make_average_rhs`.

    The ratios are exact rationals, so omega_max is an integer K times the
    common frequency omega_0 = 2 pi / T.  With the state frozen each row is
    a trigonometric polynomial in omega_0 t of degree at most 3 K: J holds
    products of two dithers, and the G_J rows multiply it by a third.  Its
    mean at N equally spaced times ``T * i / N``, i < N, is its exact
    average for any N > 3 K, as every harmonic below N sums to zero over
    the nodes.  N is :data:`ORACLE_NODES_PER_FASTEST_PERIOD` times K.

    The mean is one call of the ``mean`` of :func:`_loop`, the state held
    as constants of the field: in the field's C kernel where one can be
    built, and in Python otherwise, with the same bits."""
    layout = StateLayout.of(plant.dimension)
    tt, *filters = layout.unpack(x)
    y = layout.pack([tt + plant.theta_star, *filters]).tolist()   # the field's theta_hat
    period, base = signal_period(cfg.dither), fundamental_ratio(cfg.dither)
    nodes = ORACLE_NODES_PER_FASTEST_PERIOD * int(max(cfg.dither.ratios) / base)
    f = make_rhs(plant, cfg.with_variant(Variant.ASFES))
    mean = np.array(_loop(f, layout.size, tuple(y), None)(period, nodes))
    if not np.all(np.isfinite(mean)):
        raise QuadratureFailure("non-finite integrand while averaging")
    return mean
