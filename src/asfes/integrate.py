"""Fixed-step fourth-order Runge-Kutta integration, warmup, and the
quadrature oracle for the averaged dynamics.

A fixed step is deliberate: the dither period dictates the resolution
anyway, and identical inputs must give bit-identical trajectories so golden
traces and determinism checks stay meaningful.  One stepper serves a single
state and a component-major batch of states (see :mod:`asfes.dynamics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson

from .dynamics import (
    AlgorithmConfig,
    FullState,
    StateLayout,
    Variant,
    make_rhs,
)
from .errors import (
    ComputationError,
    DimensionMismatch,
    NonFiniteState,
    NonPositiveTolerance,
    QuadratureFailure,
    ValidationError,
    WarmupTimeout,
)
from .problem import PlantModel, component_sum, eval_barrier, eval_objective, require_finite
from .signals import dither, signal_period

# default step resolves the fastest dither oscillation with 40 samples; the
# settings validator only insists on 20
DEFAULT_SAMPLES_PER_PERIOD = 40
MIN_SAMPLES_PER_PERIOD = 20


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
    """Recorded run: times, raw states, and the evaluated plant channels.

    ``thetas`` holds the point fed to the plant maps at each record
    (theta_hat + S(t) for the dithered systems, theta_tilde + theta* for the
    averaged and reduced models); ``j_values`` and ``h_values`` are the
    objective and safety metric there.  Channel arrays are None for runs of
    abstract fields with no plant attached.  ``diverged_at`` is the time
    the state left the reals; the records then stop at the step before.
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


ChannelFn = Callable[[float, np.ndarray], tuple]


def full_state_channels(plant: PlantModel, cfg: AlgorithmConfig) -> ChannelFn:
    """theta = theta_hat + S(t), with J and h evaluated there; for one state
    or a component-major batch."""
    theta_at = StateLayout.of(plant.dimension).theta

    def channels(t, y):
        s = dither(cfg.dither, t)
        theta = y[theta_at] + (s if y.ndim == 1 else s[:, None])
        return theta, eval_objective(plant, theta), eval_barrier(plant, theta)

    return channels


def average_channels(plant: PlantModel) -> ChannelFn:
    """theta = theta_tilde + theta* for averaged-coordinate states."""
    n = plant.dimension

    def channels(t, y):
        theta = y[:n] + plant.theta_star
        return theta, eval_objective(plant, theta), eval_barrier(plant, theta)

    return channels


reduced_channels = average_channels  # the reduced model uses the same coordinate


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0,
    settings: IntegrationSettings,
    channels: Optional[ChannelFn] = None,
    gamma_index: Optional[int] = None,
):
    """Classic fixed-step RK4 from t=0 to t_end, recording every
    ``record_stride``-th step (plus the first and last).

    ``x0`` is one state ``(size,)``, which gives a :class:`Trajectory`, or
    a component-major batch ``(size, B)``, which gives a list of B, one per
    member.  ``rhs`` and ``channels`` take the same shapes.

    A single state that leaves the reals raises :class:`NonFiniteState`,
    carrying the trajectory recorded so far.  In a batch such a member
    stops instead: its trajectory ends at the step before and records
    ``diverged_at``, and the other members go on.  Crossing
    ``gamma_guard`` in magnitude at ``gamma_index`` is only flagged, not
    stopped: the local theory gives no global bound, so divergence is
    surfaced as a diagnostic.
    """
    runs = _rk4(rhs, x0, settings, channels, gamma_index)
    if np.ndim(x0) == 2:
        return runs
    if runs[0].diverged_at is not None:
        raise NonFiniteState(runs[0].diverged_at, partial=runs[0])
    return runs[0]


def _rk4(rhs, x0, settings: IntegrationSettings, channels: Optional[ChannelFn],
         gamma_index: Optional[int]) -> list:
    """The stepper behind :func:`integrate` and :func:`warmup`: one
    trajectory per member, a single state counting as one member, and a
    member that diverges stops with ``diverged_at`` set."""
    y = np.array(x0, dtype=float)
    if y.ndim not in (1, 2):
        raise DimensionMismatch("x0 must be a state vector or a (size, B) batch")
    batch = y.ndim == 2
    members = y.shape[1] if batch else 1
    n_steps = step_count(settings.t_end, settings.dt)
    h = settings.t_end / n_steps
    stride = settings.record_stride
    guard = settings.gamma_guard

    times = [0.0]
    states = [y.copy()]
    chans = [channels(0.0, y)] if channels else None
    alive = np.ones(members, dtype=bool)
    # members whose gamma has not crossed the guard yet; None once there are none
    watched = alive.copy() if gamma_index is not None else None
    records = [None] * members         # a diverged member's record count
    diverged_at = [None] * members
    gamma_exceeded_at = [None] * members

    def build() -> list:
        series = [np.array(states)]        # states, then theta, J and h
        if chans is not None:
            series += [np.array([c[i] for c in chans]) for i in range(3)]
        runs = []
        for b in range(members):
            r = len(times) if records[b] is None else records[b]
            runs.append(Trajectory(
                np.array(times[:r]), *(x[:r, ..., b].copy() if batch else x for x in series),
                gamma_exceeded_at=gamma_exceeded_at[b], diverged_at=diverged_at[b],
            ))
        return runs

    half = 0.5 * h
    sixth = h / 6.0
    # divergence is detected per member; the intermediate inf/nan warnings
    # on the way there are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = i * h
            k1 = rhs(t, y)
            k2 = rhs(t + half, y + half * k1)
            k3 = rhs(t + half, y + half * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_next = (i + 1) * h
            if not np.isfinite(y).all():
                bad = ~np.isfinite(y).all(axis=0) if batch else np.ones(1, dtype=bool)
                for b in np.flatnonzero(bad & alive):
                    diverged_at[b] = t_next
                    records[b] = len(times)
                alive &= ~bad
                if not alive.any():
                    break
                # park diverged members at a finite state; their columns are
                # never read again, and columns do not mix
                y[:, bad] = 0.0
                if watched is not None:
                    watched &= alive
            if watched is not None:
                g = abs(y[gamma_index])
                if (g.max() if batch else g) > guard:
                    crossed = watched & (g > guard)
                    for b in np.flatnonzero(crossed):
                        gamma_exceeded_at[b] = t_next
                    watched &= ~crossed
                    if not watched.any():
                        watched = None
            if (i + 1) % stride == 0 or i + 1 == n_steps:
                times.append(t_next)
                states.append(y.copy())
                if chans is not None:
                    chans.append(channels(t_next, y))
    return build()


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
):
    """Settle the filters with the parameter frozen at theta0.

    Steps the filter subsystem (parameter rows masked) with the stepper of
    :func:`integrate`, one signal period at a time, and compares the filter
    states one period apart: sampling at period boundaries removes the
    dither ripple, which never converges pointwise.  A start is settled
    once the relative change drops below ``rel_tol``; it fails with
    :class:`WarmupTimeout` when ``t_end`` is exhausted first, or with
    :class:`NonFiniteState`.

    ``theta0`` is one start ``(n,)``: the assembled initial state is
    returned, or the failure raised.  A component-major ``(n, B)`` array is
    a batch of B starts stepped together, each settling at its own period
    boundary: the result is a list with, per start, its initial state or
    the :class:`ComputationError` it failed with.
    """
    if not rel_tol > 0.0:
        raise NonPositiveTolerance("rel_tol must be positive")
    check_resolves_dither(settings, cfg.dither)
    n = plant.dimension
    starts = np.asarray(theta0, float)
    single = starts.ndim < 2
    if single:
        starts = starts.reshape(-1, 1)
    if starts.ndim != 2 or starts.shape[0] != n:
        raise DimensionMismatch(
            f"theta0 has shape {np.shape(theta0)}, expected ({n},) or ({n}, B)")
    layout = StateLayout.of(n, cfg.variant is Variant.NEWTON_ASFES)
    theta_at, filters = layout.theta, layout.filters
    f = make_rhs(plant, cfg)

    def frozen(t, y):
        dy = f(t, y)
        dy[theta_at] = 0.0
        return dy

    period = signal_period(cfg.dither)
    one_period = IntegrationSettings(
        dt=settings.dt, t_end=period,
        record_stride=step_count(period, settings.dt))

    # theta at the starts, eta_J and eta_h at J and h there, G_J and G_h
    # at zero, gamma (and Gamma) at one
    ys = layout.pack([starts, 0.0, eval_objective(plant, starts), 0.0,
                      eval_barrier(plant, starts), 1.0, 1.0][:len(layout.blocks)])

    results = [None] * starts.shape[1]
    live = list(range(starts.shape[1]))      # batch column -> start
    prev = ys[filters].copy()
    max_periods = max(1, int(settings.t_end / period))
    for p in range(max_periods):
        runs = _rk4(frozen, ys[:, 0] if single else ys, one_period, None, None)
        ys = np.stack([run.states[-1] for run in runs], axis=1)
        change = _norms(ys[filters] - prev)
        scale = np.maximum(_norms(ys[filters]), 1e-30)
        keep = []
        for col, run in enumerate(runs):
            if run.diverged_at is not None:
                results[live[col]] = NonFiniteState(p * period + run.diverged_at)
            elif change[col] <= rel_tol * scale[col]:
                results[live[col]] = FullState.from_vector(ys[:, col], n)
            else:
                keep.append(col)
        ys, prev = ys[:, keep], ys[filters, keep]
        live = [live[col] for col in keep]
        if not live:
            break
    for start in live:
        results[start] = WarmupTimeout(
            f"filters did not settle to rel_tol={rel_tol:g} within t_end={settings.t_end:g}")
    if single:
        if isinstance(results[0], ComputationError):
            raise results[0]
        return results[0]
    return results


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a component-major batch."""
    return np.sqrt(component_sum(x * x))


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
    # every node in one call: the state broadcast over a batch, one time each
    samples = f(ts, np.broadcast_to(y[:, None], (y.shape[0], ts.shape[0])))
    if not np.all(np.isfinite(samples)):
        raise QuadratureFailure("non-finite integrand while averaging")
    return simpson(samples, x=ts, axis=1) / period
