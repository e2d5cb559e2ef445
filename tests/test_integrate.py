import itertools
import math
import warnings
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
    eval_barrier,
    eval_objective,
    validate_plant,
)
from asfes.analysis import average_equilibrium
from asfes.dynamics import StateLayout, make_average_rhs, make_reduced_rhs, make_rhs
from asfes.errors import (
    DimensionMismatch,
    NonFiniteState,
    NonFiniteValue,
    NonPositiveDefiniteHessian,
    NonPositiveTolerance,
    TooManySteps,
    ValidationError,
    WarmupTimeout,
)
from asfes.integrate import (
    IntegrationSettings,
    _one_state_loop,
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
from asfes.sampling import random_config, random_full_state, random_plant


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


def _fused_and_opaque(rhs, x0, settings, gamma_at, held=0):
    """One state of a make_rhs field stepped by the fused loop, and by the
    opaque loop through a plain lambda around the same field."""
    opaque = lambda t, y: rhs(t, y)  # noqa: E731
    loops = [_one_state_loop(f, len(x0), held, gamma_at).__code__.co_name for f in (rhs, opaque)]
    assert loops == [f"rk4_{rhs.template[0]}_{rhs.template[1]}", f"rk4_opaque_{len(x0)}"]
    return [_rk4(f, x0, settings, gamma_at, held) for f in (rhs, opaque)]


def assert_same_records(got, want):
    """:func:`assert_same_run` for runs recorded without channels."""
    assert_same_run(got, want, fields=("times", "states"))


class TestGeneratedLoop:
    @hypothesis_settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from([(1, Variant.NEWTON_ASFES)]
                                + [(n, variant) for n in (1, 2, 3, 4)
                                   for variant in (Variant.ASFES, Variant.CLASSICAL_ES)]),
           held=st.booleans(), stride=st.integers(1, 12), steps=st.integers(1, 150),
           seed=st.integers(0, 2**32 - 1))
    def test_fused_loop_is_the_opaque_loop(self, case, held, stride, steps, seed):
        # the dithered field written into the loop steps bit for bit as the
        # loop that calls it, with its theta rows held (as in warmup) or
        # not, across the gamma guard and into divergence (a negative
        # Gamma escapes)
        n, variant = case
        rng = np.random.default_rng(seed)
        plant, cfg = random_plant(rng, n), random_config(rng, n, variant)
        layout = StateLayout.of(n, variant is Variant.NEWTON_ASFES)
        x0 = rng.uniform(-2.0, 2.0, layout.size)
        x0[layout.gamma] = rng.uniform(0.2, 2.0)
        dt = default_dt(cfg.dither)
        settings = IntegrationSettings(
            dt=dt, t_end=steps * dt * rng.uniform(0.5, 1.0), record_stride=stride,
            gamma_guard=float(x0[layout.gamma] * rng.uniform(0.9, 1.5)))
        rhs = make_rhs(plant, replace(cfg, c=float(rng.uniform(0.01, 5.0))))
        fused, opaque = _fused_and_opaque(rhs, x0, settings, layout.gamma,
                                          layout.theta.stop if held else 0)
        assert_same_records(fused, opaque)

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
        fused, opaque = _fused_and_opaque(rhs, x0, settings, layout.gamma_newton, held=1)
        assert fused.diverged_at is not None and np.all(fused.states[:, 0] == -3.0)
        assert_same_records(fused, opaque)


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

    def test_node_doubling_converges(self, plant2, cfg2, rng):
        x = random_full_state(rng, 2)
        coarse = numeric_average(plant2, cfg2, x, nodes_per_fastest_period=200)
        fine = numeric_average(plant2, cfg2, x, nodes_per_fastest_period=400)
        assert np.max(np.abs(fine - coarse)) < 1e-10


class TestExactInitialState:
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
