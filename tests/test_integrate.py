import importlib
import itertools
import math
import warnings
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from asfes import (
    AlgorithmConfig,
    DitherConfig,
    LinearBarrier,
    QuadraticObjective,
    Variant,
    _ckernel,
    eval_barrier,
    eval_objective,
    validate_plant,
)
from asfes.analysis import average_equilibrium
from asfes.cli import _slow_settings, parse_scenario
from asfes.dynamics import (FullState, StateLayout, make_average_rhs, make_reduced_rhs,
                            make_rhs, reduced_rhs)
from asfes.errors import (
    DimensionMismatch,
    NonFiniteState,
    NonFiniteValue,
    NonPositiveDefiniteHessian,
    NonPositiveTolerance,
    QuadratureFailure,
    TooManySteps,
    ValidationError,
    WarmupTimeout,
)
from asfes.integrate import (
    IntegrationSettings,
    _binding,
    _loop,
    _rk4,
    average_channels,
    check_resolves_dither,
    default_dt,
    exact_initial_state,
    full_state_channels,
    integrate,
    numeric_average,
    step_count,
    warmup,
)
from asfes.problem import component_sum
from asfes.sampling import random_config, random_full_state, random_plant
from asfes.signals import fundamental_ratio, signal_period
from backends import compiler, use_python_loop

# the module, which the package's integrate function shadows as an attribute
integrate_module = importlib.import_module("asfes.integrate")


class TestSettings:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            IntegrationSettings(dt=0.0, t_end=1.0)
        with pytest.raises(ValidationError):
            IntegrationSettings(dt=0.1, t_end=0.0)
        with pytest.raises(ValidationError):
            IntegrationSettings(dt=0.1, t_end=1.0, record_stride=0)
        with pytest.raises(ValidationError):
            IntegrationSettings(dt=0.1, t_end=1.0, record_stride=1.5)
        with pytest.raises(ValidationError):
            IntegrationSettings(dt=0.1, t_end=math.inf)
        with pytest.raises(ValidationError):
            IntegrationSettings(dt=0.1, t_end=1.0, gamma_guard=-1.0)
        with pytest.raises(TooManySteps):
            IntegrationSettings(dt=1e-320, t_end=1.0)
        with pytest.raises(ValidationError, match="^gamma_guard must be positive"):
            IntegrationSettings(dt=0.1, t_end=1.0, gamma_guard=math.nan)
        # inf is a guard that never flags
        assert IntegrationSettings(dt=0.1, t_end=1.0, gamma_guard=math.inf).gamma_guard == math.inf

    @pytest.mark.parametrize("field, value", [
        ("dt", None), ("dt", "a"), ("t_end", None), ("t_end", [1.0, 2.0]),
        ("record_stride", "a"), ("record_stride", None), ("record_stride", np.array([1, 2])),
        ("gamma_guard", None), ("gamma_guard", "a"), ("gamma_guard", np.array([1.0])),
    ])
    def test_non_numbers_are_named(self, field, value):
        # a value that is not one number is a ValidationError naming its
        # field, never a bare TypeError from a comparison or np.isfinite
        values = {"dt": 0.1, "t_end": 1.0, field: value}
        with pytest.raises(ValidationError, match=f"^{field} must be one number"):
            IntegrationSettings(**values)

    def test_dither_resolution_check(self, cfg1):
        check_resolves_dither(IntegrationSettings(dt=default_dt(cfg1.dither), t_end=1.0),
                              cfg1.dither)
        coarse = IntegrationSettings(dt=0.01, t_end=1.0)  # 3 samples per period
        with pytest.raises(ValidationError):
            check_resolves_dither(coarse, cfg1.dither)

    def test_default_dt_is_forty_samples(self, cfg1):
        assert default_dt(cfg1.dither) == pytest.approx((2 * math.pi / 200.0) / 40.0)


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(lambda t, y: [-v for v in y], np.array([1.0]),
                         IntegrationSettings(dt=1e-3, t_end=1.0, record_stride=1000))
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_constant_field(self):
        traj = integrate(lambda t, y: np.zeros_like(y), np.array([2.0, -1.0]),
                         IntegrationSettings(dt=0.1, t_end=2.0))
        assert np.all(traj.states == np.array([2.0, -1.0]))

    def test_average_system_returns_to_equilibrium(self, plant1, cfg1):
        eq = average_equilibrium(plant1, cfg1)
        x0 = eq.as_vector() + 1e-3
        f = make_average_rhs(plant1, cfg1)
        traj = integrate(lambda t, y: f(y), x0,
                         IntegrationSettings(dt=0.02, t_end=200.0, record_stride=100))
        assert np.linalg.norm(traj.states[-1] - eq.as_vector()) <= 1e-6

    def test_non_finite_state_raises_with_time_and_partial(self):
        # finite-time blow-up of dx/dt = x^2 from x(0) = 1 at t = 1
        with pytest.raises(NonFiniteState) as exc:
            integrate(lambda t, y: [v * v for v in y], np.array([1.0]),
                      IntegrationSettings(dt=1e-3, t_end=2.0))
        assert 0.9 < exc.value.time < 1.1
        assert exc.value.partial is not None
        assert len(exc.value.partial) > 0

    def test_gamma_guard_flag(self, plant1, cfg1):
        x0 = exact_initial_state(plant1, cfg1, [-3.0]).as_vector()
        settings = IntegrationSettings(dt=default_dt(cfg1.dither), t_end=0.05,
                                       record_stride=4, gamma_guard=0.5)
        traj = integrate(make_rhs(plant1, cfg1), x0, settings,
                         gamma_index=StateLayout.of(1).gamma)
        assert traj.gamma_exceeded_at is not None  # gamma sits at 1 > 0.5

    def test_determinism_bitwise(self, plant1, cfg1):
        x0 = exact_initial_state(plant1, cfg1, [-3.0]).as_vector()
        settings = IntegrationSettings(dt=default_dt(cfg1.dither), t_end=1.0,
                                       record_stride=7)
        runs = [
            integrate(make_rhs(plant1, cfg1), x0.copy(), settings,
                      channels=full_state_channels(plant1, cfg1))
            for _ in range(2)
        ]
        assert runs[0].times.tobytes() == runs[1].times.tobytes()
        assert runs[0].states.tobytes() == runs[1].states.tobytes()
        assert runs[0].j_values.tobytes() == runs[1].j_values.tobytes()

    def test_channel_recomputation_identity(self, plant1, cfg1, plant2, cfg2):
        # the channels of a run, evaluated once over all its records, are
        # bit for bit the plant maps evaluated record by record, for the
        # dithered and the averaged model at n = 1 and n = 2
        from asfes.signals import dither

        cases = [(plant1, cfg1, [-3.0]), (plant2, cfg2, [1.5, -1.5])]
        for (plant, cfg, start), averaged in itertools.product(cases, (False, True)):
            theta_at = StateLayout.of(plant.dimension).theta
            x0 = exact_initial_state(plant, cfg, start).as_vector()
            if averaged:
                x0[theta_at] -= plant.theta_star
                f = make_average_rhs(plant, cfg)
                rhs, channels = (lambda t, y: f(y)), average_channels(plant)
            else:
                rhs, channels = make_rhs(plant, cfg), full_state_channels(plant, cfg)
            settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=0.5, record_stride=11)
            traj = integrate(rhs, x0, settings, channels=channels)
            for i, t in enumerate(traj.times):
                offset = plant.theta_star if averaged else dither(cfg.dither, t)
                theta = traj.states[i, theta_at] + offset
                assert traj.thetas[i].tobytes() == theta.tobytes()
                assert traj.j_values[i] == eval_objective(plant, theta)
                assert traj.h_values[i] == eval_barrier(plant, theta)

    def test_rk4_order_on_example1(self, plant1, cfg1):
        x0 = exact_initial_state(plant1, cfg1, [-3.0]).as_vector()
        f = make_rhs(plant1, cfg1)
        dt0 = 10.0 / 12800.0

        def final_state(dt):
            settings = IntegrationSettings(dt=dt, t_end=10.0, record_stride=10**9)
            return integrate(f, x0, settings).states[-1]

        ref = final_state(dt0 / 8.0)
        e1 = np.linalg.norm(final_state(dt0) - ref)
        e2 = np.linalg.norm(final_state(dt0 / 2.0) - ref)
        ratio = e1 / e2
        assert 8.0 <= ratio <= 32.0


TRAJECTORY_FIELDS = ("times", "states", "thetas", "j_values", "h_values")


def assert_same_run(got, want, fields=TRAJECTORY_FIELDS):
    """Byte-identical records, crossing time and divergence time."""
    for name in fields:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.gamma_exceeded_at == want.gamma_exceeded_at
    assert got.diverged_at == want.diverged_at


def _rk4_reference(rhs, x0, settings, gamma_index=None):
    """The one-state RK4 loop as it was written on numpy arrays: the state
    and its stages are ``(size,)`` arrays, and ``rhs`` gets and returns
    arrays.  Returns ``(times, states, gamma_exceeded_at, diverged_at)``."""
    y = np.array(x0, dtype=float)
    n_steps = step_count(settings.t_end, settings.dt)
    h = settings.t_end / n_steps
    half, sixth = 0.5 * h, h / 6.0
    times, states = [0.0], [y.copy()]
    gamma_exceeded_at = diverged_at = None
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
                diverged_at = t_next
                break
            if (gamma_index is not None and gamma_exceeded_at is None
                    and abs(y[gamma_index]) > settings.gamma_guard):
                gamma_exceeded_at = t_next
            if (i + 1) % settings.record_stride == 0 or i + 1 == n_steps:
                times.append(t_next)
                states.append(y.copy())
    return np.array(times), np.array(states), gamma_exceeded_at, diverged_at


def _one_state_case(model, n, variant, seed):
    """A random plant's field of ``model``, a start, the gamma row (None
    for the reduced model, which has no gamma) and the configuration."""
    rng = np.random.default_rng(seed)
    plant, cfg = random_plant(rng, n), random_config(rng, n, variant)
    theta0 = rng.uniform(-2.0, 2.0, n)
    if model == "reduced":
        reduced = make_reduced_rhs(plant, cfg)
        return (lambda t, y: reduced(y)), theta0 - plant.theta_star, None, cfg
    x0 = exact_initial_state(plant, cfg, theta0).as_vector()
    if model == "average":
        x0[:n] -= plant.theta_star
        f = make_average_rhs(plant, cfg)
        return (lambda t, y: f(y)), x0, StateLayout.of(n).gamma, cfg
    return make_rhs(plant, cfg), x0, StateLayout.of(n).gamma, cfg


class TestFloatStepper:
    @pytest.mark.parametrize("model, n, variant", [
        ("full", 1, Variant.ASFES), ("full", 1, Variant.NEWTON_ASFES),
        ("full", 1, Variant.CLASSICAL_ES), ("full", 2, Variant.ASFES),
        ("average", 1, Variant.ASFES), ("average", 2, Variant.ASFES),
        ("reduced", 1, Variant.ASFES), ("reduced", 2, Variant.ASFES),
        ("reduced", 3, Variant.ASFES),
    ])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_matches_the_array_arithmetic(self, model, n, variant, seed):
        # one state steps on Python floats; every record, and the time the
        # gamma guard is crossed, is bit for bit the numpy loop's
        rhs, x0, gamma_at, cfg = _one_state_case(model, n, variant, seed)
        guard = 1e6
        if gamma_at is not None:
            # gamma from half its fixed point climbs back, across the guard
            x0[gamma_at] *= 0.5
            guard = 1.2 * x0[gamma_at]
        dt = 0.01 if model == "reduced" else default_dt(cfg.dither)
        settings = IntegrationSettings(dt=dt, t_end=400 * dt, record_stride=7, gamma_guard=guard)
        times, states, crossed, diverged = _rk4_reference(rhs, x0, settings, gamma_at)
        try:
            traj = integrate(rhs, x0, settings, gamma_index=gamma_at)
        except NonFiniteState as exc:       # a Newton start may escape
            traj = exc.partial
        assert traj.diverged_at == diverged
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert traj.gamma_exceeded_at == crossed

    @pytest.mark.parametrize("n", [1, 2])
    def test_diverging_run_matches_the_array_arithmetic(self, n):
        # a negative gamma makes the Riccati row escape in finite time
        rhs, x0, gamma_at, cfg = _one_state_case("full", n, Variant.ASFES, 5)
        x0[gamma_at] = -5.0
        settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=1.0, record_stride=3)
        times, states, crossed, diverged = _rk4_reference(rhs, x0, settings, gamma_at)
        assert diverged is not None
        with pytest.raises(NonFiniteState) as exc:
            integrate(rhs, x0, settings, gamma_index=gamma_at)
        partial = exc.value.partial
        assert exc.value.time == partial.diverged_at == diverged
        assert partial.times.tobytes() == times.tobytes()
        assert partial.states.tobytes() == states.tobytes()
        assert partial.gamma_exceeded_at == crossed

    def test_rhs_of_another_length_is_a_mismatch(self):
        with pytest.raises(DimensionMismatch):
            integrate(lambda t, y: [0.0], np.zeros(2), IntegrationSettings(dt=0.1, t_end=1.0))


def test_an_array_of_states_is_a_mismatch(plant2, cfg2):
    # integrate and warmup take one state and one start: a component-major
    # (size, B) or (n, B) array is a named mismatch
    settings = IntegrationSettings(dt=default_dt(cfg2.dither), t_end=1.0)
    x0 = exact_initial_state(plant2, cfg2, [1.5, -1.5]).as_vector()
    with pytest.raises(DimensionMismatch):
        integrate(make_rhs(plant2, cfg2), np.stack([x0, x0], axis=1), settings)
    with pytest.raises(DimensionMismatch):
        warmup(plant2, cfg2, np.array([[1.5, -0.5], [-1.5, -0.5]]), settings, 1e-4)


def test_a_field_given_a_state_of_another_size_is_a_mismatch(plant2, cfg2):
    # a field carries its size in its template: a start of another size is
    # named, not stepped by the opaque loop into a TypeError
    settings = IntegrationSettings(dt=default_dt(cfg2.dither), t_end=0.1)
    for make, size in ((make_rhs, 9), (make_average_rhs, 9), (make_reduced_rhs, 2)):
        for x0 in (np.zeros(size - 1), np.zeros(size + 1)):
            with pytest.raises(DimensionMismatch):
                integrate(make(plant2, cfg2), x0, settings)


@pytest.mark.parametrize("slope, rel_tol, outcome", [
    (1.0, 1.0, (1, None, True)),        # a change of exactly rel_tol times the state
    (1.0, 0.6, (2, None, True)),        # a change of about half the state
    (1.0, 0.3, (3, None, False)),       # a third of it in the last period
    (1e-40, 1e-4, (1, None, True)),     # a state under 1e-30 is taken as 1e-30
])
def test_settle_stop_rule(slope, rel_tol, outcome):
    # rows 1 and 2 grow at a constant rate from 0, row 0 held, one period
    # of 10 steps at a time for at most 3 periods: the change over the
    # first period is the state itself, and over the p-th about 1/p of it
    settle = _loop(lambda t, y: [0.0, slope, slope], 3, (0.0,), None)
    periods, stopped, state = settle([0.0, 0.0], 3, 10, 0.1, rel_tol)
    assert (periods, stopped, state is not None) == outcome


def _opaque(rhs, size: int):
    """A plain lambda around a field of asfes.dynamics: the fused loop
    steps the field, and the opaque loop the lambda."""
    if rhs.template[0] in ("average", "reduced"):
        opaque = lambda t, y: rhs(y)  # noqa: E731
    else:
        opaque = lambda t, y: rhs(t, y)  # noqa: E731
    loops = [_binding(f, size, ())[:2] for f in (rhs, opaque)]
    assert loops == [rhs.template[:2], (None, size)]
    return opaque


def _fused_and_opaque(rhs, x0, settings, gamma_at):
    """One state of a field of asfes.dynamics stepped by the fused loop,
    and by the opaque loop through a plain lambda around the same field."""
    return [_rk4(f, x0, settings, gamma_at) for f in (rhs, _opaque(rhs, len(x0)))]


def _held_settles(rhs, x0, held, *args) -> list:
    """The outcomes ``(periods, stopped, state bytes)`` of warmup's settle
    of x0, its first ``held`` rows held, called with ``args`` in the fused
    and in the opaque Python loop."""
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        use_python_loop(patch)
        for f in (rhs, _opaque(rhs, len(x0))):
            settle = _loop(f, len(x0), tuple(x0[:held].tolist()), None)
            periods, stopped, state = settle(x0[held:].tolist(), *args)
            outcomes.append((periods, stopped,
                             None if state is None else array("d", state).tobytes()))
    return outcomes


def assert_same_records(got, want):
    """:func:`assert_same_run` for runs recorded without channels."""
    assert_same_run(got, want, fields=("times", "states"))


class TestGeneratedLoop:
    @hypothesis_settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from([(1, Variant.NEWTON_ASFES)]
                                + [(n, variant) for n in (1, 2, 3, 4)
                                   for variant in (Variant.ASFES, Variant.CLASSICAL_ES)]
                                + [(n, model) for n in (1, 2, 3)
                                   for model in ("average", "reduced")]),
           held=st.booleans(), stride=st.integers(1, 12), steps=st.integers(1, 150),
           seed=st.integers(0, 2**32 - 1))
    def test_fused_loop_is_the_opaque_loop(self, case, held, stride, steps, seed):
        # a field written into the loop steps bit for bit as the loop that
        # calls it: the dithered field across the gamma guard and into
        # divergence (a negative Gamma escapes), or with its theta rows held
        # in warmup's settle, to the same period and step; the averaged
        # field across the guard, and the reduced field
        n, model = case
        rng = np.random.default_rng(seed)
        dithered = isinstance(model, Variant)
        plant = random_plant(rng, n)
        cfg = random_config(rng, n, model if dithered else Variant.ASFES)
        cfg = replace(cfg, c=float(rng.uniform(0.01, 5.0)))
        dt = default_dt(cfg.dither)
        if model == "reduced":
            rhs, x0 = make_reduced_rhs(plant, cfg), rng.uniform(-2.0, 2.0, n)
            gamma_at, guard = None, 1e6
        else:
            layout = StateLayout.of(n, model is Variant.NEWTON_ASFES)
            x0 = rng.uniform(-2.0, 2.0, layout.size)
            gamma_at = layout.gamma
            x0[gamma_at] = rng.uniform(0.2, 2.0)
            guard = float(x0[gamma_at] * rng.uniform(0.9, 1.5))
            rhs = (make_rhs if dithered else make_average_rhs)(plant, cfg)
        settings = IntegrationSettings(
            dt=dt, t_end=steps * dt * rng.uniform(0.5, 1.0), record_stride=stride,
            gamma_guard=guard)
        if held and dithered:
            # up to 3 periods of the run's steps, to a rel_tol that some
            # starts reach and some do not
            n_steps = step_count(settings.t_end, dt)
            fused, opaque = _held_settles(rhs, x0, layout.theta.stop, 3, n_steps,
                                          settings.t_end / n_steps, 10.0 ** rng.uniform(-4.0, 0.0))
            assert fused == opaque
        else:
            assert_same_records(*_fused_and_opaque(rhs, x0, settings, gamma_at))

    @pytest.mark.parametrize("model", ["average", "reduced"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_averaged_and_reduced_fields_integrate_as_their_lambdas(self, model, n):
        # integrate takes the averaged and reduced fields themselves, and
        # records the bytes of the same field called through a lambda
        rng = np.random.default_rng(n)
        plant, cfg = random_plant(rng, n), random_config(rng, n)
        theta0 = rng.uniform(-2.0, 2.0, n)
        if model == "average":
            f = make_average_rhs(plant, cfg)
            x0 = exact_initial_state(plant, cfg, theta0).as_vector()
            x0[:n] -= plant.theta_star
            gamma_at = StateLayout.of(n).gamma
        else:
            f, x0, gamma_at = make_reduced_rhs(plant, cfg), theta0 - plant.theta_star, None
        settings = IntegrationSettings(dt=0.01, t_end=3.0, record_stride=7)
        runs = [integrate(rhs, x0, settings, channels=average_channels(plant),
                          gamma_index=gamma_at) for rhs in (f, lambda t, y: f(y))]
        assert_same_run(*runs)

    @pytest.mark.parametrize("back_end", ["python", pytest.param("compiled", marks=compiler)])
    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_reduced_run_through_reduced_rhs_is_the_fields_run(self, example, back_end,
                                                               scenario_dir, monkeypatch):
        # simulate steps its reduced run through reduced_rhs, which the
        # opaque loop calls once a stage: from every start and at every rate
        # of both examples, its states and h are the bytes of the field's
        # own run, fused in the Python loop or stepped in its kernel
        if back_end == "python":
            use_python_loop(monkeypatch)
        scenario = parse_scenario(scenario_dir / f"{example}.scenario")
        plant = scenario.plant
        slow = _slow_settings(scenario.settings, scenario.config.omega_f)
        for c in scenario.c_values:
            cfg = scenario.config_for(c, Variant.ASFES)
            for theta0 in scenario.initial_thetas:
                runs = [integrate(rhs, theta0 - plant.theta_star, slow,
                                  channels=average_channels(plant))
                        for rhs in (make_reduced_rhs(plant, cfg),
                                    lambda t, y: reduced_rhs(plant, cfg, y))]
                assert_same_run(*runs, fields=("times", "states", "h_values"))

    def test_newton_escape_is_the_same_in_both_loops(self, plant1, cfg1):
        # NB-ASfES on example 1 from theta0 = -3: Gamma crosses the guard
        # at the second step and leaves the reals at the third; with theta
        # held, as in warmup, it escapes too
        cfg = cfg1.with_variant(Variant.NEWTON_ASFES)
        layout = StateLayout.of(1, True)
        x0 = exact_initial_state(plant1, cfg, [-3.0]).as_vector()
        settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=1.0, record_stride=1)
        rhs = make_rhs(plant1, cfg)
        fused, opaque = _fused_and_opaque(rhs, x0, settings, layout.gamma_newton)
        assert fused.gamma_exceeded_at == 2 * fused.times[1]
        assert fused.diverged_at == 3 * fused.times[1]
        assert_same_records(fused, opaque)
        channels = full_state_channels(plant1, cfg)
        with pytest.raises(NonFiniteState) as exc:
            integrate(rhs, x0, settings, channels=channels, gamma_index=layout.gamma_newton)
        assert exc.value.time == fused.diverged_at
        # the partial trajectory carries its channels
        theta, j, h = channels(fused.times, fused.states.T)
        assert_same_run(exc.value.partial,
                        replace(fused, thetas=theta.T, j_values=j, h_values=h))
        # warmup's settle, theta held, steps the filters as the whole state
        # steps with a derivative of 0.0 for theta, in the fused and the
        # opaque loop: it escapes at the same step, and a period that ends
        # before then (rel_tol inf stops after it) ends at the same state
        frozen = _rk4(lambda t, y: [0.0] + rhs(t, y)[1:], x0, settings, None)
        n_steps = step_count(settings.t_end, settings.dt)
        h = settings.t_end / n_steps
        stopped = len(frozen.times)
        assert frozen.diverged_at == stopped * h
        assert _held_settles(rhs, x0, 1, 1, n_steps, h, math.inf) == [(1, stopped, None)] * 2
        for steps in range(1, stopped):
            settled = (1, None, frozen.states[steps, 1:].tobytes())
            assert _held_settles(rhs, x0, 1, 1, steps, h, math.inf) == [settled] * 2


class TestWarmup:
    def test_example1_filter_values(self, plant1, cfg1):
        settings = IntegrationSettings(dt=default_dt(cfg1.dither), t_end=30.0)
        state = warmup(plant1, cfg1, [-3.0], settings, 1e-4)
        ripple = 0.25**2  # dither-ripple tolerance, order a^2
        np.testing.assert_array_equal(state.theta_hat, [-3.0])
        assert abs(state.g_j[0] - (-0.3)) < ripple
        assert abs(state.eta_j - 0.4515625) < ripple
        assert abs(state.g_h[0] - (-1.0)) < ripple
        assert abs(state.eta_h - 2.0) < ripple
        assert abs(state.gamma - 1.0) < ripple
        assert state.gamma_newton is None

    def test_gradient_vanishes_at_safe_minimizer(self):
        from asfes import LinearBarrier, QuadraticObjective, validate_plant

        plant = validate_plant(QuadraticObjective(0.0, 0.1, 0.0),
                               LinearBarrier(1.0, -1.0))
        cfg = AlgorithmConfig(k=0.3, c=0.1, delta=1e-3, omega_f=3.0,
                              dither=DitherConfig(0.25, (1,), 200.0))
        settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=30.0)
        state = warmup(plant, cfg, [0.0], settings, 1e-4)
        assert abs(state.g_j[0]) < 0.25**2

    def test_newton_gamma_settles_near_true_inverse_hessian(self, plant1, cfg1):
        # close to the minimizer the demodulation ripple is small relative to
        # its mean and the inverse-Hessian estimate settles within 5%
        cfg = AlgorithmConfig(k=cfg1.k, c=cfg1.c, delta=cfg1.delta,
                              omega_f=cfg1.omega_f, dither=cfg1.dither,
                              variant=Variant.NEWTON_ASFES)
        settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=40.0)
        state = warmup(plant1, cfg, [-0.2], settings, 1e-4)
        assert state.gamma_newton == pytest.approx(10.0, rel=0.05)

    def test_newton_warmup_diverges_far_from_minimizer(self, plant1, cfg1):
        # the raw second-order demodulation J(theta0 + S) N has ripple larger
        # than its mean at theta0 = -3, so the inverse of the Riccati state
        # crosses zero and the estimate escapes in finite time; the warmup
        # surfaces this instead of hiding it
        cfg = AlgorithmConfig(k=cfg1.k, c=cfg1.c, delta=cfg1.delta,
                              omega_f=cfg1.omega_f, dither=cfg1.dither,
                              variant=Variant.NEWTON_ASFES)
        settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=30.0)
        with pytest.raises(NonFiniteState):
            warmup(plant1, cfg, [-3.0], settings, 1e-4)

    def test_timeout(self, plant1, cfg1):
        settings = IntegrationSettings(dt=default_dt(cfg1.dither), t_end=0.2)
        with pytest.raises(WarmupTimeout):
            warmup(plant1, cfg1, [-3.0], settings, 1e-12)

    def test_rejects_bad_tolerance(self, plant1, cfg1):
        settings = IntegrationSettings(dt=default_dt(cfg1.dither), t_end=1.0)
        with pytest.raises(NonPositiveTolerance):
            warmup(plant1, cfg1, [-3.0], settings, 0.0)


@np.errstate(over="ignore", invalid="ignore")
def _warmup_reference(rhs, plant, cfg, theta0, settings, rel_tol):
    """Warmup stepped without a held loop: ``_rk4`` steps the whole state,
    one period at a time, through a lambda that gives 0.0 for the theta
    rows and ``rhs``'s derivative for the filters.  Returns ``(outcome,
    steps)``: the outcome is ``("settled", state bytes)``, ``("diverged",
    time)`` or ``("timeout", None)``.  A theta of -0.0 comes out as 0.0,
    the sum its RK4 update takes."""
    n = plant.dimension
    start = np.atleast_1d(np.asarray(theta0, float))
    layout = StateLayout.of(n, cfg.variant is Variant.NEWTON_ASFES)
    period = signal_period(cfg.dither)
    n_steps = step_count(period, settings.dt)
    one_period = IntegrationSettings(dt=settings.dt, t_end=period, record_stride=n_steps)
    y = layout.pack([start, 0.0, eval_objective(plant, start), 0.0,
                     eval_barrier(plant, start), 1.0, 1.0][:len(layout.blocks)])
    prev = y[layout.filters]

    def frozen(t, y):
        return [0.0] * n + list(rhs(t, y)[n:])

    def norm(x):
        return math.sqrt(component_sum(x * x))

    for p in range(max(1, int(settings.t_end / period))):
        run = _rk4(frozen, y, one_period, None)
        if run.diverged_at is not None:
            stopped = round(run.diverged_at / (period / n_steps))
            return ("diverged", p * period + run.diverged_at), p * n_steps + stopped
        y = run.states[-1]
        if norm(y[layout.filters] - prev) <= rel_tol * max(norm(y[layout.filters]), 1e-30):
            return ("settled", y.tobytes()), (p + 1) * n_steps
        prev = y[layout.filters]
    return ("timeout", None), (p + 1) * n_steps


def settle_outcomes(monkeypatch) -> list:
    """The ``(periods, stopped, state)`` of every settle that warmups
    make, in order, until the test ends."""
    outcomes, loop = [], integrate_module._loop

    def spy(rhs, size, held, gamma_index):
        run = loop(rhs, size, held, gamma_index)
        if not held:
            return run

        def recorded(*call):
            outcomes.append(run(*call))
            return outcomes[-1]

        return recorded

    monkeypatch.setattr(integrate_module, "_loop", spy)
    return outcomes


def _warmup_outcome(plant, cfg, theta0, settings, rel_tol):
    try:
        return "settled", warmup(plant, cfg, theta0, settings, rel_tol).as_vector().tobytes()
    except NonFiniteState as exc:
        return "diverged", exc.time
    except WarmupTimeout:
        return "timeout", None


def _held_at(outcome, theta0):
    """A reference outcome with a settled state's theta rows set to theta0,
    byte for byte: warmup returns the start itself as theta_hat."""
    if outcome[0] != "settled":
        return outcome
    start = np.atleast_1d(np.asarray(theta0, float))
    filters = np.frombuffer(outcome[1])[start.shape[0]:]
    return "settled", np.concatenate((start, filters)).tobytes()


# warmup cases: (plant, variant, theta0, t_end, rel_tol, outcome).  A plant
# 1 or 2 is that example; (seed, n) is a random plant of dimension n, and a
# theta0 of None a random start near its optimum.  A "diverged later"
# outcome leaves the reals after the first period.
WARMUP_CASES = {
    **{f"random-{variant.value}-n{n}": ((100 + n, n), variant, None, 20.0, 1e-6, "settled")
       for variant, n in [(Variant.ASFES, 1), (Variant.ASFES, 2), (Variant.ASFES, 3),
                          (Variant.CLASSICAL_ES, 1), (Variant.CLASSICAL_ES, 2),
                          (Variant.CLASSICAL_ES, 3), (Variant.NEWTON_ASFES, 1)]},
    # theta is never stepped, so a -0.0 start comes back as -0.0
    "negative-zero-n1": ((1, 1), Variant.ASFES, [-0.0], 20.0, 1e-6, "settled"),
    "negative-zero-second-row": ((2, 2), Variant.ASFES, [0.4, -0.0], 20.0, 1e-6, "settled"),
    "negative-zero-first-row": ((302, 2), Variant.ASFES, [-0.0, 0.5], 20.0, 1e-6, "settled"),
    "overflowing-start": (1, Variant.ASFES, [1e308], 1.0, 1e-4, "diverged"),
    # example 1's Newton warmup from theta0 = -3 escapes in a later period
    "newton-escape": (1, Variant.NEWTON_ASFES, [-3.0], 30.0, 1e-4, "diverged later"),
    "newton-gamma-escape": ((301, 1), Variant.NEWTON_ASFES, [30.0], 20.0, 1e-6, "diverged"),
    "timeout": (1, Variant.ASFES, [-3.0], 0.2, 1e-12, "timeout"),
    "one-period-timeout": (1, Variant.ASFES, [-3.0], 0.04, 1e-4, "timeout"),
    "example2-settles": (2, Variant.ASFES, [1.5, -0.5], 30.0, 1e-4, "settled"),
}


@pytest.mark.parametrize("plant, variant, theta0, t_end, rel_tol, outcome",
                         list(WARMUP_CASES.values()), ids=list(WARMUP_CASES))
def test_warmup_outcomes(monkeypatch, request, plant, variant, theta0, t_end, rel_tol,
                         outcome):
    # warmup holds theta as a constant of its loop; every outcome is bit for
    # bit that of stepping the whole state each period afresh, theta_hat
    # aside, in the C kernel where it builds and in the Python loop
    if isinstance(plant, int):
        cfg = request.getfixturevalue(f"cfg{plant}").with_variant(variant)
        plant = request.getfixturevalue(f"plant{plant}")
    else:
        seed, n = plant
        rng = np.random.default_rng(seed)
        plant, cfg = random_plant(rng, n), random_config(rng, n, variant)
        if theta0 is None:
            theta0 = plant.theta_star + rng.uniform(-0.3, 0.3, n)
    n = plant.dimension
    settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=t_end)
    want, steps = _warmup_reference(make_rhs(plant, cfg), plant, cfg, theta0, settings, rel_tol)
    want = _held_at(want, theta0)
    kind, *later = outcome.split()
    assert want[0] == kind
    if later:
        assert want[1] > signal_period(cfg.dither)
    settles = settle_outcomes(monkeypatch)
    compiled = _warmup_outcome(plant, cfg, theta0, settings, rel_tol)
    if _ckernel._compiler() is not None:
        kernel = _ckernel._loaded[(variant.value, n, n, None)]
        assert kernel.function.__name__ == f"settle_{variant.value}_{n}"
    use_python_loop(monkeypatch)
    assert _warmup_outcome(plant, cfg, theta0, settings, rel_tol) == compiled == want
    # both back ends stop in the period, and at the step, where the reference does
    n_steps = step_count(signal_period(cfg.dither), settings.dt)
    assert len(settles) == 2
    for periods, stopped, _ in settles:
        assert (periods - 1) * n_steps + (stopped or n_steps) == steps
    if kind == "settled":
        state = np.frombuffer(compiled[1])
        assert list(np.signbit(state[:n])) == list(np.signbit(theta0))


@pytest.mark.parametrize("variant, n, theta0", [(Variant.ASFES, 2, [1.5, -0.5]),
                                                (Variant.NEWTON_ASFES, 1, [-3.0]),
                                                (Variant.CLASSICAL_ES, 1, [-0.0])])
def test_warmup_of_an_opaque_field_calls_it_four_times_a_step(
        monkeypatch, plant1, cfg1, plant2, cfg2, variant, n, theta0):
    # a field without its template, as a tracer's wrapper gives, steps in
    # the opaque loop as the field does and is called in each stage of
    # every step of every period
    plant, cfg = (plant1, cfg1) if n == 1 else (plant2, cfg2)
    cfg = cfg.with_variant(variant)
    settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=10.0)
    f = make_rhs(plant, cfg)
    want, steps = _warmup_reference(f, plant, cfg, theta0, settings, 1e-4)
    calls = []

    def opaque(t, y):
        calls.append(t)
        return f(t, y)

    monkeypatch.setattr(integrate_module, "make_rhs", lambda plant, cfg: opaque)
    assert _warmup_outcome(plant, cfg, theta0, settings, 1e-4) == _held_at(want, theta0)
    assert len(calls) == 4 * steps
    assert steps > 2 * step_count(signal_period(cfg.dither), settings.dt)


def test_overflowing_inputs_fail_by_name_without_warnings(plant1, cfg1):
    # each of these overflows a float somewhere; the named error must come
    # without a numpy RuntimeWarning on the way
    settings = IntegrationSettings(dt=default_dt(cfg1.dither), t_end=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            warmup(plant1, cfg1, [1e308], settings, 1e-4)
        with pytest.raises(NonPositiveDefiniteHessian):
            validate_plant(QuadraticObjective(0.0, -1e308, 0.0), LinearBarrier(-1.0, -1.0))
        with pytest.raises(NonFiniteValue, match="h1"):
            validate_plant(QuadraticObjective(0.0, 0.1, 0.0), LinearBarrier(-1.0, -1e308))
        with pytest.raises(NonFiniteValue, match="ratios"):
            DitherConfig(0.25, ("1e308",), 200.0)
        # an integer beyond the float range is not finite either, and is named
        huge = 10**400
        for make, name in [
            (lambda: DitherConfig(huge, (1,), 200.0), "dither amplitude"),
            (lambda: DitherConfig(0.25, (1,), -huge), "dither base_scale"),
            (lambda: replace(cfg1, k=huge), "k"),
            (lambda: replace(cfg1, c=huge), "c"),
            (lambda: replace(cfg1, delta=-huge), "delta"),
            (lambda: replace(cfg1, omega_f=huge), "omega_f"),
            (lambda: QuadraticObjective(huge, 0.1, 0.0), "j_star"),
            (lambda: LinearBarrier(-huge, -1.0), "h0"),
        ]:
            with pytest.raises(NonFiniteValue, match=f"^{name} must be finite"):
                make()


class TestNumericAverage:
    def test_gradient_row_with_zero_parameter_error(self, cfg2):
        from asfes import LinearBarrier, QuadraticObjective, validate_plant

        plant = validate_plant(
            QuadraticObjective(0.0, [[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0]),
            LinearBarrier(1.0, [1.0, 1.0]),
        )
        rng = np.random.default_rng(7)
        x = random_full_state(rng, 2)
        x[:2] = 0.0
        avg = numeric_average(plant, cfg2, x)
        np.testing.assert_allclose(avg[2:4], -cfg2.omega_f * x[2:4], atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mean_is_exact_from_four_nodes_per_fastest_period(self, monkeypatch, n, rng):
        # with the state frozen every row is a trigonometric polynomial of
        # degree at most 3 omega_max / omega_0, so the mean at 4 nodes per
        # fastest period is already its exact average: 8 gives the same
        # numbers, and both are the analytic averaged field, to rounding
        for _ in range(4):
            plant, cfg = random_plant(rng, n), random_config(rng, n)
            x = random_full_state(rng, n)
            ana = np.asarray(make_average_rhs(plant, cfg)(x))
            means = {}
            for nodes in (4, 8):
                monkeypatch.setattr(integrate_module, "ORACLE_NODES_PER_FASTEST_PERIOD", nodes)
                means[nodes] = numeric_average(plant, cfg, x)
            scale = np.maximum(1.0, np.abs(ana))
            assert np.max(np.abs(means[4] - means[8]) / scale) < 1e-12
            assert np.max(np.abs(means[8] - ana) / scale) < 1e-12

    def test_node_doubling_converges(self, monkeypatch, plant2, cfg2, rng):
        x = random_full_state(rng, 2)
        coarse = numeric_average(plant2, cfg2, x)
        monkeypatch.setattr(integrate_module, "ORACLE_NODES_PER_FASTEST_PERIOD", 400)
        fine = numeric_average(plant2, cfg2, x)
        assert np.max(np.abs(fine - coarse)) < 1e-10


def _oracle_samples(plant, cfg, x) -> np.ndarray:
    """The gradient field at each node of numeric_average, (nodes, size),
    through its bound form, at the state in its own coordinates."""
    layout = StateLayout.of(plant.dimension)
    tt, *filters = layout.unpack(x)
    y = layout.pack([tt + plant.theta_star, *filters]).tolist()
    period, base = signal_period(cfg.dither), fundamental_ratio(cfg.dither)
    nodes = integrate_module.ORACLE_NODES_PER_FASTEST_PERIOD * int(max(cfg.dither.ratios) / base)
    f = make_rhs(plant, cfg.with_variant(Variant.ASFES))
    return np.array([f(period * i / nodes, y) for i in range(nodes)])


def _oracle_reference(plant, cfg, x) -> np.ndarray:
    """The oracle's mean as numpy takes it: the samples summed over the
    nodes and divided by their count."""
    samples = _oracle_samples(plant, cfg, x)
    return samples.sum(axis=0) / samples.shape[0]


@pytest.fixture(params=["python", pytest.param("compiled", marks=compiler)])
def oracle_backend(request, monkeypatch):
    """Each back end of the oracle's mean in turn: the generated Python
    function, as where no C compiler is found, or the field's kernel."""
    if request.param == "python":
        use_python_loop(monkeypatch)
    return request.param


class TestOracleMean:
    """numeric_average's one generated call against numpy's mean of the
    samples, bit for bit, on both back ends."""

    @pytest.mark.parametrize("nodes", [4, 8, 400])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_is_numpys_mean_bit_for_bit(self, monkeypatch, oracle_backend, n, nodes):
        monkeypatch.setattr(integrate_module, "ORACLE_NODES_PER_FASTEST_PERIOD", nodes)
        rng = np.random.default_rng(100 * n + nodes)
        for _ in range(3):
            plant, cfg = random_plant(rng, n), random_config(rng, n)
            x = random_full_state(rng, n)
            mean = numeric_average(plant, cfg, x)
            assert mean.tobytes() == _oracle_reference(plant, cfg, x).tobytes()
        kernel = _ckernel._loaded[("asfes", n, StateLayout.of(n).size, None)]
        assert (kernel is not None) == (oracle_backend == "compiled")

    def test_a_row_of_negative_zeros_averages_to_positive_zero(self, oracle_backend, plant2,
                                                               cfg2):
        # G_J at +0.0, gamma at -0.0 and G_h positive make the theta and
        # gamma rows -0.0 at every node; numpy's sum starts from +0.0, so
        # their mean is +0.0, which seeding the sum with the first node
        # would turn into -0.0
        layout = StateLayout.of(2)
        x = layout.pack([[0.3, -0.2], [0.0, 0.0], 0.5, [1.0, 2.0], -0.4, -0.0])
        rows = [0, 1, layout.gamma]
        samples = _oracle_samples(plant2, cfg2, x)[:, rows]
        assert (samples == 0.0).all() and np.signbit(samples).all()
        mean = numeric_average(plant2, cfg2, x)
        assert mean.tobytes() == _oracle_reference(plant2, cfg2, x).tobytes()
        assert (mean[rows] == 0.0).all() and not np.signbit(mean[rows]).any()

    @pytest.mark.parametrize("scale", [1e200, math.inf])
    def test_a_non_finite_integrand_is_a_quadrature_failure(self, oracle_backend, plant2,
                                                            cfg2, scale):
        x = scale * (1.0 + np.abs(random_full_state(np.random.default_rng(3), 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureFailure, match="non-finite integrand"):
                numeric_average(plant2, cfg2, x)

    @pytest.mark.parametrize("answer", ["list", "array"])
    def test_an_untemplated_field_is_called_once_per_node(self, monkeypatch, plant2, cfg2,
                                                          answer):
        # a field without its template, as a tracer's wrapper gives, is
        # called at each node's time on the held state, as a list, and may
        # answer with a list or an array; the mean has the same bits
        x = random_full_state(np.random.default_rng(4), 2)
        want = _oracle_reference(plant2, cfg2, x)
        calls = []

        def untemplated(plant, cfg):
            f = make_rhs(plant, cfg)

            def opaque(t, y):
                calls.append((t, y))
                return f(t, y) if answer == "list" else np.asarray(f(t, y))

            return opaque

        monkeypatch.setattr(integrate_module, "make_rhs", untemplated)
        assert numeric_average(plant2, cfg2, x).tobytes() == want.tobytes()
        period = signal_period(cfg2.dither)
        y = x.tolist()          # theta* is 0: the state is the field's own
        assert calls == [(period * i / 32, y) for i in range(32)]
        monkeypatch.setattr(integrate_module, "make_rhs", lambda plant, cfg: lambda t, y: [0.0])
        with pytest.raises(DimensionMismatch, match="rhs gave 1 components for a state of 9"):
            numeric_average(plant2, cfg2, x)


@pytest.mark.parametrize("call", [
    lambda p, c: numeric_average(p, c, ["a"] * 9),
    lambda p, c: numeric_average(p, c, 1j * np.ones(9)),
    lambda p, c: make_average_rhs(p, c)(1j * np.ones(9)),
    lambda p, c: make_rhs(p, c)(0.0, [object()] * 9),
    lambda p, c: FullState.from_vector(["a"] * 9, 2),
    lambda p, c: StateLayout.of(2).unpack(np.ones(9) + 0j),
    lambda p, c: exact_initial_state(p, c, "ab"),
    lambda p, c: exact_initial_state(p, c, [1j, 0.0]),
    lambda p, c: warmup(p, c, "ab", IntegrationSettings(dt=default_dt(c.dither), t_end=1.0),
                        1e-4),
], ids=["oracle-str", "oracle-complex", "average-complex", "field-object", "from_vector-str",
        "unpack-complex", "exact-str", "exact-complex", "warmup-str"])
def test_a_state_that_is_not_real_numbers_is_named(plant2, cfg2, call):
    # a string, an object or a complex state is a ValidationError that
    # names it, not a bare ValueError or TypeError, nor a complex state
    # cast to its real part with numpy's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="must be real numbers") as exc:
            call(plant2, cfg2)
    assert type(exc.value) is ValidationError


def test_an_integer_beyond_the_float_range_is_named(plant2, cfg2):
    # numpy's conversion would raise a bare OverflowError
    for call in (lambda: numeric_average(plant2, cfg2, [10**400] * 9),
                 lambda: numeric_average(plant2, cfg2, [0.0] * 8 + [-10**400]),
                 lambda: make_reduced_rhs(plant2, cfg2)([10**400, 0.0]),
                 lambda: exact_initial_state(plant2, cfg2, [0.0, 10**5000])):
        with pytest.raises(NonFiniteValue, match="holds an integer beyond the float range"):
            call()


class TestExactInitialState:
    @pytest.mark.parametrize("theta0", [[], [1.0, 2.0, 3.0], [[0.0, 0.0]], 0.5])
    def test_a_start_of_another_shape_is_named(self, plant2, cfg2, theta0):
        # numpy would raise a bare ValueError while broadcasting
        with pytest.raises(DimensionMismatch, match=r"^theta0 has shape .*, expected \(2,\)"):
            exact_initial_state(plant2, cfg2, theta0)

    def test_example1_values(self, plant1, cfg1):
        state = exact_initial_state(plant1, cfg1, [-3.0])
        np.testing.assert_allclose(state.g_j, [-0.3], atol=1e-15)
        assert state.eta_j == pytest.approx(0.4515625, abs=1e-15)
        np.testing.assert_array_equal(state.g_h, plant1.h1)
        assert state.eta_h == pytest.approx(2.0)
        assert state.gamma == pytest.approx(1.0)

    def test_newton_gets_inverse_hessian(self, plant1, cfg1):
        cfg = AlgorithmConfig(k=0.3, c=0.1, delta=1e-3, omega_f=3.0,
                              dither=cfg1.dither, variant=Variant.NEWTON_ASFES)
        state = exact_initial_state(plant1, cfg, [-3.0])
        assert state.gamma_newton == pytest.approx(10.0)
