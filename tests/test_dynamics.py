import ast
import inspect
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

import asfes

from asfes import (
    AlgorithmConfig,
    DitherConfig,
    FullState,
    LinearBarrier,
    QuadraticObjective,
    Variant,
    boundary_layer_rhs,
    dither,
    eval_barrier,
    eval_objective,
    make_average_rhs,
    make_rhs,
    reduced_rhs,
    smooth_max,
    validate_plant,
)
from asfes import dynamics
from asfes.analysis import Equilibrium, average_equilibrium, finite_diff_jacobian
from asfes.dynamics import StateLayout, make_reduced_rhs
from asfes.errors import DimensionMismatch, NotScalar, ValidationError
from asfes.integrate import _loop_source, numeric_average
from asfes.sampling import random_config, random_full_state, random_plant
from oracles import demod, newton_demod


def generated_loop_keys():
    """Every kind of one-state RK4 loop: each dithered field at n = 1, 2, 3
    (Newton at 1) and the opaque loop for states of 1 to 10 rows, with and
    without held theta rows and a watched gamma row."""
    keys = []
    for model in [v.value for v in Variant] + [None]:
        for n in (1, 2, 3) if model else range(1, 11):
            if model == Variant.NEWTON_ASFES.value and n > 1:
                continue
            layout = StateLayout.of(n, model == Variant.NEWTON_ASFES.value)
            held_rows = (0, n) if model else (0, 1)
            keys += [(model, n, held, gamma) for held in held_rows
                     for gamma in (None, layout.gamma if model else n - 1)]
    return keys


def warmed_state_example1():
    # filter states at their slow-scale fixed points for theta_hat = -3
    return FullState(theta_hat=[-3.0], g_j=[-0.3], eta_j=0.4515625,
                     g_h=[-1.0], eta_h=2.0, gamma=1.0)


class TestAsfesRhs:
    def test_example1_parameter_row(self, plant1, cfg1):
        dx = make_rhs(plant1, cfg1)(0.0, warmed_state_example1().as_vector())
        expected = 0.09 - smooth_max(0.09 - 0.2, 1e-3)
        assert dx[StateLayout.of(1).theta][0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0877724, abs=5e-8)

    def test_example1_parameter_row_scripted(self, plant1, cfg1):
        # independent elementwise evaluation of every equation at t = 0
        x = warmed_state_example1()
        t = 0.0
        s = 0.25 * math.sin(200.0 * t)
        m = (2.0 / 0.25) * math.sin(200.0 * t)
        jv = 0.5 * 0.1 * (x.theta_hat[0] + s) ** 2
        hv = -1.0 - (x.theta_hat[0] + s)
        arg = 0.3 * x.g_j[0] * x.g_h[0] - 0.1 * x.eta_h
        want = np.array([
            -0.3 * x.g_j[0] + x.gamma * 0.5 * (arg + math.sqrt(arg**2 + 1e-3)) * x.g_h[0],
            -3.0 * x.g_j[0] + 3.0 * (jv - x.eta_j) * m,
            -3.0 * x.eta_j + 3.0 * jv,
            -3.0 * x.g_h[0] + 3.0 * (hv - x.eta_h) * m,
            -3.0 * x.eta_h + 3.0 * hv,
            3.0 * x.gamma * (1.0 - x.gamma * x.g_h[0] ** 2),
        ])
        got = make_rhs(plant1, cfg1)(t, x.as_vector())
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_gamma_riccati_roots(self, plant1, cfg1):
        x = warmed_state_example1().as_vector()
        x[5] = 1.0 / x[3] ** 2  # gamma = 1/||G_h||^2
        f = make_rhs(plant1, cfg1)
        assert f(0.3, x)[5] == pytest.approx(0.0, abs=1e-15)
        x[5] = 0.0
        assert f(0.3, x)[5] == 0.0

    def test_filter_rows_vanish_at_quasi_steady_values(self, plant2, cfg2):
        # with the demodulated inputs at their slow fixed points the average
        # filter rows are exactly zero
        tt = np.array([0.3, -0.2])
        a = cfg2.dither.amplitude
        layout = StateLayout.of(2)
        xa = layout.pack([
            tt,
            plant2.hessian @ tt,
            eval_objective(plant2, tt + plant2.theta_star)
            + 0.25 * a * a * np.trace(plant2.hessian),
            plant2.h1.copy(),
            eval_barrier(plant2, tt + plant2.theta_star),
            1.0 / float(plant2.h1 @ plant2.h1),
        ])
        dxa = make_average_rhs(plant2, cfg2)(xa)
        np.testing.assert_allclose(dxa[layout.g_j], 0.0, atol=1e-15)
        np.testing.assert_allclose(dxa[layout.g_h], 0.0, atol=1e-15)
        assert dxa[layout.eta_j] == pytest.approx(0.0, abs=1e-14)
        assert dxa[layout.eta_h] == pytest.approx(0.0, abs=1e-14)
        assert dxa[layout.gamma] == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self, plant2, cfg2):
        with pytest.raises(DimensionMismatch):
            make_rhs(plant2, cfg2)(0.0, np.zeros(5))

    def test_scalar_fast_path_matches_generic(self, plant1, cfg1, rng):
        # at n = 1 one state runs on Python floats, each block a row
        fast = make_rhs(plant1, cfg1)
        for _ in range(25):
            y = rng.uniform(-2.0, 2.0, size=6)
            y[5] = rng.uniform(0.1, 2.0)
            t = float(rng.uniform(0.0, 1.0))
            got = fast(t, y.copy())
            want = _generic_rhs_reference(plant1, cfg1, t, y)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batched_closure_matches_generic(self, n, rng):
        # one closure for one state (size,) and a batch (size, B), at n = 1
        # (each block a row) and n >= 2 alike
        plant, cfg = random_plant(rng, n), random_config(rng, n)
        layout = StateLayout.of(n)
        ys = rng.uniform(-2.0, 2.0, size=(layout.size, 4))
        ys[layout.gamma] = rng.uniform(0.1, 2.0, size=4)
        t = float(rng.uniform(0.0, 1.0))
        rhs = make_rhs(plant, cfg)
        got = rhs(t, ys)
        for b in range(4):
            want = _generic_rhs_reference(plant, cfg, t, ys[:, b])
            np.testing.assert_allclose(got[:, b], want, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(rhs(t, ys[:, b].copy()), want, rtol=1e-12, atol=1e-12)


def _generic_rhs_reference(plant, cfg, t, y):
    """Plain numpy transcription of the dithered field (no fast path), for
    every variant."""
    n = plant.dimension
    sins = np.sin(cfg.dither.omegas() * t)
    d = y[:n] + cfg.dither.amplitude * sins - plant.theta_star
    jv = plant.j_star + 0.5 * float(d @ (plant.hessian @ d))
    hv = plant.h0 + float(plant.h1 @ d)
    m = (2.0 / cfg.dither.amplitude) * sins
    gj, eta_j = y[n:2 * n], y[2 * n]
    gh, eta_h, gamma = y[2 * n + 1:3 * n + 1], y[3 * n + 1], y[3 * n + 2]
    gain = cfg.k * y[3 * n + 3] if cfg.variant is Variant.NEWTON_ASFES else cfg.k
    arg = gain * float(gj @ gh) - cfg.c * eta_h
    out = np.empty_like(y)
    out[:n] = -gain * gj
    if cfg.variant is not Variant.CLASSICAL_ES:
        out[:n] += gamma * smooth_max(arg, cfg.delta) * gh
    if cfg.variant is Variant.NEWTON_ASFES:
        big_gamma = y[3 * n + 3]
        second = (16.0 / cfg.dither.amplitude**2) * (sins[0] ** 2 - 0.5)
        out[3 * n + 3] = cfg.omega_f * big_gamma * (1.0 - big_gamma * jv * second)
    out[n:2 * n] = cfg.omega_f * ((jv - eta_j) * m - gj)
    out[2 * n] = cfg.omega_f * (jv - eta_j)
    out[2 * n + 1:3 * n + 1] = cfg.omega_f * ((hv - eta_h) * m - gh)
    out[3 * n + 1] = cfg.omega_f * (hv - eta_h)
    out[3 * n + 2] = cfg.omega_f * gamma * (1.0 - gamma * float(gh @ gh))
    return out


def _random_states(rng, n, newton, members):
    """A component-major array of states with gamma (and Gamma) positive."""
    layout = StateLayout.of(n, newton)
    ys = rng.uniform(-2.0, 2.0, size=(layout.size, members))
    ys[layout.gamma] = rng.uniform(0.1, 2.0, size=members)
    if newton:
        ys[layout.gamma_newton] = rng.uniform(0.2, 2.0, size=members)
    return ys


@hypothesis_settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(
           st.tuples(st.integers(1, 5), st.sampled_from([Variant.ASFES, Variant.CLASSICAL_ES])),
           st.tuples(st.just(1), st.just(Variant.NEWTON_ASFES))),
       members=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_float_field_is_each_rows_member(case, members, seed):
    # the template's two shapes: one state on floats is bit for bit its
    # column of a 2-D call on rows (each column at its own time, as the
    # averaging oracle calls it), and both are the field
    n, variant = case
    rng = np.random.default_rng(seed)
    plant, cfg = random_plant(rng, n), random_config(rng, n, variant)
    ys = _random_states(rng, n, variant is Variant.NEWTON_ASFES, members)
    ts = rng.uniform(0.0, 2.0, size=members)
    rhs = make_rhs(plant, cfg)
    columns = rhs(ts, ys)
    for b in range(members):
        one = rhs(float(ts[b]), ys[:, b].tolist())
        assert np.array(one).tobytes() == columns[:, b].tobytes()
        want = _generic_rhs_reference(plant, cfg, ts[b], ys[:, b])
        np.testing.assert_allclose(one, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n, variant", [
    (1, Variant.ASFES), (1, Variant.NEWTON_ASFES), (1, Variant.CLASSICAL_ES),
    (2, Variant.ASFES), (3, Variant.CLASSICAL_ES), (4, Variant.ASFES),
])
def test_filter_and_riccati_rows_demodulate(n, variant, rng):
    # the filter rows low-pass J and h at the probe point, demodulated by
    # (2/a) sin(omega t); the Newton row is driven by J (16/a^2)(sin^2 - 1/2)
    newton = variant is Variant.NEWTON_ASFES
    layout = StateLayout.of(n, newton)
    plant, cfg = random_plant(rng, n), random_config(rng, n, variant)
    f = make_rhs(plant, cfg)
    wf = cfg.omega_f
    for y, t in zip(_random_states(rng, n, newton, 10).T, rng.uniform(0.0, 5.0, size=10)):
        dy = np.array(f(t, y.tolist()))
        probe = y[layout.theta] + dither(cfg.dither, t)
        jv, hv, m = eval_objective(plant, probe), eval_barrier(plant, probe), demod(cfg.dither, t)
        want = [
            (layout.g_j, wf * ((jv - y[layout.eta_j]) * m - y[layout.g_j])),
            (layout.eta_j, wf * (jv - y[layout.eta_j])),
            (layout.g_h, wf * ((hv - y[layout.eta_h]) * m - y[layout.g_h])),
            (layout.eta_h, wf * (hv - y[layout.eta_h])),
        ]
        if newton:
            big_gamma = y[layout.gamma_newton]
            second = newton_demod(cfg.dither.amplitude, cfg.dither.omegas()[0], t)
            want.append((layout.gamma_newton, wf * big_gamma * (1.0 - big_gamma * jv * second)))
        for rows, value in want:
            np.testing.assert_allclose(dy[rows], value, rtol=1e-12, atol=1e-12)


class TestNewtonRhs:
    def test_gamma_newton_fixed_point_by_quadrature(self, plant1, cfg1):
        # the period average of the demodulated objective equals the true
        # Hessian, so Gamma = 1/H zeroes the averaged Riccati row
        cfg = AlgorithmConfig(k=cfg1.k, c=cfg1.c, delta=cfg1.delta,
                              omega_f=cfg1.omega_f, dither=cfg1.dither,
                              variant=Variant.NEWTON_ASFES)
        x = np.concatenate([warmed_state_example1().as_vector(), [10.0]])
        period = 2.0 * math.pi / 200.0
        ts = np.linspace(0.0, period, 4001)
        f = make_rhs(plant1, cfg)
        vals = np.array([f(t, x)[6] for t in ts])
        from scipy.integrate import simpson

        avg = simpson(vals, x=ts) / period
        assert avg == pytest.approx(0.0, abs=1e-9)
        # independent quadrature of J(theta_hat + S) N over the period
        jn = np.array([
            (0.5 * 0.1 * (-3.0 + 0.25 * math.sin(200.0 * t)) ** 2)
            * (16.0 / 0.0625) * (math.sin(200.0 * t) ** 2 - 0.5)
            for t in ts
        ])
        assert simpson(jn, x=ts) / period == pytest.approx(0.1, abs=1e-10)

    def test_gamma_newton_zero_is_invariant(self, plant1, cfg1):
        cfg = AlgorithmConfig(k=cfg1.k, c=cfg1.c, delta=cfg1.delta,
                              omega_f=cfg1.omega_f, dither=cfg1.dither,
                              variant=Variant.NEWTON_ASFES)
        x = np.concatenate([warmed_state_example1().as_vector(), [0.0]])
        assert make_rhs(plant1, cfg)(0.1, x)[6] == 0.0

    def test_effective_gain_cancels_hessian(self, plant1, cfg1):
        # with Gamma = 1/H the parameter row sees k*Gamma*G_J = 10x the
        # plain gradient term for H = 0.1
        cfg = AlgorithmConfig(k=cfg1.k, c=cfg1.c, delta=cfg1.delta,
                              omega_f=cfg1.omega_f, dither=cfg1.dither,
                              variant=Variant.NEWTON_ASFES)
        base = warmed_state_example1().as_vector()
        x = np.concatenate([base, [10.0]])
        dx_nb = make_rhs(plant1, cfg)(0.0, x)
        arg = 0.3 * 10.0 * (-0.3) * (-1.0) - 0.1 * 2.0
        expected = -0.3 * 10.0 * (-0.3) + 1.0 * smooth_max(arg, 1e-3) * (-1.0)
        assert dx_nb[0] == pytest.approx(expected, abs=1e-14)
        dx_grad = make_rhs(plant1, cfg1)(0.0, base)
        assert abs(-cfg.k * 10.0 * base[1]) == pytest.approx(
            10.0 * abs(-cfg1.k * base[1])
        )
        assert dx_grad[0] != dx_nb[0]

    def test_multidimensional_rejected(self, plant2, cfg2):
        with pytest.raises(NotScalar):
            AlgorithmConfig(k=0.1, c=1.0, delta=1e-3, omega_f=3.0,
                            dither=cfg2.dither, variant=Variant.NEWTON_ASFES)
        with pytest.raises(NotScalar):
            cfg2.with_variant(Variant.NEWTON_ASFES)


class TestClassicalRhs:
    def test_differs_exactly_by_safety_term(self, plant1, cfg1, rng):
        asfes = make_rhs(plant1, cfg1)
        classical = make_rhs(plant1, cfg1.with_variant(Variant.CLASSICAL_ES))
        for _ in range(10):
            y = rng.uniform(-2.0, 2.0, size=6)
            y[5] = rng.uniform(0.1, 2.0)
            t = float(rng.uniform(0.0, 1.0))
            d_asfes = asfes(t, y)
            d_classical = classical(t, y)
            arg = cfg1.k * y[1] * y[3] - cfg1.c * y[4]
            safety = y[5] * smooth_max(arg, cfg1.delta) * y[3]
            assert d_asfes[0] - d_classical[0] == pytest.approx(safety, abs=1e-14)
            np.testing.assert_array_equal(d_asfes[1:], d_classical[1:])

    def test_zero_gradient_estimate_freezes_parameter(self, plant1, cfg1):
        y = warmed_state_example1().as_vector()
        y[1] = 0.0
        classical = make_rhs(plant1, cfg1.with_variant(Variant.CLASSICAL_ES))
        assert classical(0.0, y)[0] == 0.0

    def test_approaches_classical_as_c_grows(self, plant1, rng):
        # for eta_h > 0 the softened-max argument is driven to -infinity,
        # leaving a remainder of order delta / (c eta_h)
        y = warmed_state_example1().as_vector()
        delta = 1e-6
        prev = math.inf
        for c in (10.0, 100.0, 1000.0):
            cfg = AlgorithmConfig(k=0.3, c=c, delta=delta, omega_f=3.0,
                                  dither=DitherConfig(0.25, (1,), 200.0))
            classical = cfg.with_variant(Variant.CLASSICAL_ES)
            diff = abs(make_rhs(plant1, cfg)(0.0, y)[0]
                       - make_rhs(plant1, classical)(0.0, y)[0])
            bound = y[5] * abs(y[3]) * delta / (2.0 * c * y[4])
            assert diff <= bound * 1.01
            assert diff < prev
            prev = diff


class TestAverageRhs:
    def test_zero_at_equilibrium(self, plant1, cfg1, plant2, cfg2):
        for plant, cfg in ((plant1, cfg1), (plant2, cfg2)):
            eq = average_equilibrium(plant, cfg)
            res = make_average_rhs(plant, cfg)(eq.as_vector())
            assert np.linalg.norm(res) <= 1e-10

    def test_gradient_filter_row_at_origin(self, plant2, cfg2, rng):
        x = random_full_state(rng, 2)
        x[:2] = 0.0
        dx = make_average_rhs(plant2, cfg2)(x)
        np.testing.assert_allclose(dx[2:4], -cfg2.omega_f * x[2:4], atol=1e-15)

    def test_eta_j_equilibrium_value_example1(self, plant1, cfg1):
        eq = average_equilibrium(plant1, cfg1)
        tt = eq.theta_tilde_ae
        expected = (plant1.j_star + 0.5 * float(tt @ (plant1.hessian @ tt))
                    + 0.25 * 0.25**2 * 0.1)
        assert eq.eta_j_ae == pytest.approx(expected, abs=1e-15)
        x = eq.as_vector()
        x[2] = expected
        assert make_average_rhs(plant1, cfg1)(x)[2] == pytest.approx(0.0, abs=1e-15)


class TestAveragingConsistency:
    def test_quadrature_matches_analytic_average(self, plant2, cfg2, rng):
        # the central correctness oracle: the period average of the dithered
        # field equals the analytic averaged field, state by state
        average = make_average_rhs(plant2, cfg2)
        for _ in range(50):
            x = random_full_state(rng, 2)
            ana = average(x)
            num = numeric_average(plant2, cfg2, x)
            np.testing.assert_allclose(
                num, ana, atol=1e-8, rtol=1e-8,
            )

    def test_also_holds_for_random_plants(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            plant = random_plant(rng, n)
            cfg = random_config(rng, n)
            x = random_full_state(rng, n)
            ana = make_average_rhs(plant, cfg)(x)
            num = numeric_average(plant, cfg, x)
            np.testing.assert_allclose(num, ana, atol=1e-8, rtol=1e-8)


def _reduced_rhs_reference(plant, cfg, x):
    """The reduced field at one point as BLAS products and smooth_max, and
    a first-order bound on how far rounding its three dot products moves
    each component: a few ulps of each term and of the softened max's
    argument, which the max's cancellation can pass on whole."""
    x = np.atleast_1d(np.asarray(x, float))
    h1 = plant.h1
    hx = plant.hessian @ x
    arg = cfg.k * float(hx @ h1) - cfg.c * (plant.h0 + float(h1 @ x))
    s = smooth_max(arg, cfg.delta)
    q = float(h1 @ h1)
    size_hx = np.abs(plant.hessian) @ np.abs(x)
    size_arg = (cfg.k * float(size_hx @ np.abs(h1))
                + cfg.c * (abs(plant.h0) + float(np.abs(h1) @ np.abs(x))))
    bound = 1e-14 * (cfg.k * size_hx + np.abs(h1) / q * (s + size_arg))
    return -cfg.k * hx + (h1 / q) * s, bound


class TestReducedRhs:
    def test_one_point_matches_the_reference(self, rng):
        # BLAS may fuse multiply-adds, so at n >= 2 the two differ by the
        # rounding of their dot products; at n = 1 there is no sum to differ
        for i in range(300):
            n = i % 3 + 1
            plant, cfg = random_plant(rng, n), random_config(rng, n)
            x = rng.uniform(-3.0, 3.0, n)
            got = reduced_rhs(plant, cfg, x)
            want, bound = _reduced_rhs_reference(plant, cfg, x)
            assert got.shape == (n,)
            assert reduced_rhs(plant, cfg, x.tolist()).tobytes() == got.tobytes()
            if n == 1:
                assert got.tobytes() == want.tobytes()
                assert reduced_rhs(plant, cfg, float(x[0])).tobytes() == got.tobytes()
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + bound), (got, want)

    def test_field_is_built_once_per_plant_config_and_rate(self, plant1, cfg1, plant2, cfg2,
                                                           monkeypatch):
        # a run stepped through reduced_rhs builds its field once; another
        # plant, or a config with another rate, builds its own, and gets
        # its own values
        builds = []
        make = dynamics.make_reduced_rhs
        monkeypatch.setattr(dynamics, "make_reduced_rhs",
                            lambda *args: builds.append(args) or make(*args))
        monkeypatch.setattr(dynamics, "_last_reduced", (None, None, None))
        x = np.array([0.5, -0.25])
        cfg2_fast = replace(cfg2, c=2.0 * cfg2.c)
        plant2_shifted = validate_plant(plant2.objective,
                                        LinearBarrier(h0=plant2.h0 - 0.5, h1=plant2.h1))
        # the second and third keys each change one of rate and plant
        keys = [(plant2, cfg2), (plant2, cfg2_fast), (plant2_shifted, cfg2_fast),
                (plant1, cfg1), (plant2, cfg2)]
        for plant, cfg in keys:
            point = x[:plant.dimension]
            for _ in range(3):
                got = reduced_rhs(plant, cfg, point)
                assert got.tobytes() == np.asarray(make(plant, cfg)(point)).tobytes()
        assert builds == keys
        assert reduced_rhs(plant2, cfg2, x).tobytes() != reduced_rhs(plant2, cfg2_fast,
                                                                     x).tobytes()

    def test_bad_shapes_rejected(self, plant2, cfg2):
        # an (n, B) array of points among them: the field takes one point
        field = make_reduced_rhs(plant2, cfg2)
        for x in (np.zeros(3), np.zeros((3, 2)), np.zeros((2, 3)), np.zeros((2, 2, 1)), 1.0):
            with pytest.raises(DimensionMismatch):
                reduced_rhs(plant2, cfg2, x)
            with pytest.raises(DimensionMismatch):
                field(x)

    def test_zero_at_average_equilibrium(self, plant1, cfg1, plant2, cfg2):
        for plant, cfg in ((plant1, cfg1), (plant2, cfg2)):
            eq = average_equilibrium(plant, cfg)
            res = reduced_rhs(plant, cfg, eq.theta_tilde_ae)
            assert np.linalg.norm(res) <= 1e-10

    def test_example1_hand_value(self, plant1, cfg1):
        val = reduced_rhs(plant1, cfg1, [-3.0])
        expected = 0.09 - smooth_max(-0.11, 1e-3)
        assert val[0] == pytest.approx(expected, abs=1e-15)
        assert val[0] == pytest.approx(0.0877724, abs=5e-8)

    def test_small_delta_limit_is_plain_gradient_flow(self, plant1):
        # softened-max argument strictly negative here, so the safety term
        # disappears as delta -> 0
        tt = np.array([-3.0])
        for delta, tol in ((1e-4, 1e-2), (1e-8, 1e-4), (1e-12, 1e-6)):
            cfg = AlgorithmConfig(k=0.3, c=0.1, delta=delta, omega_f=3.0,
                                  dither=DitherConfig(0.25, (1,), 200.0))
            val = reduced_rhs(plant1, cfg, tt)
            np.testing.assert_allclose(val, -0.3 * plant1.hessian @ tt, atol=tol)

    def test_barrier_rate_inequality(self, plant2, cfg2, rng):
        # along the reduced field, dh/dt + c h stays strictly positive
        for _ in range(100):
            tt = rng.uniform(-3.0, 3.0, size=2)
            rate = float(plant2.h1 @ reduced_rhs(plant2, cfg2, tt))
            h = plant2.h0 + float(plant2.h1 @ tt)
            assert rate + cfg2.c * h > 0.0


class TestBoundaryLayerRhs:
    def test_origin_is_equilibrium(self, plant2):
        z = np.zeros(StateLayout.of(2).size - 2)
        np.testing.assert_array_equal(boundary_layer_rhs(z, plant2.h1), z)

    def test_riccati_root(self, plant2):
        z = np.zeros(7)
        z[6] = -1.0 / float(plant2.h1 @ plant2.h1)
        out = boundary_layer_rhs(z, plant2.h1)
        assert out[6] == 0.0

    def test_linearization_eigenvalues_all_minus_one(self, plant1, plant2):
        for plant in (plant1, plant2):
            n = plant.dimension
            rows = StateLayout.of(n).size - n
            jac = finite_diff_jacobian(
                lambda z: boundary_layer_rhs(z, plant.h1),
                np.zeros(rows), 1e-6,
            )
            eigs = np.sort(np.linalg.eigvals(jac).real)
            np.testing.assert_allclose(eigs, -np.ones(rows), atol=1e-8)
            assert np.max(np.abs(np.linalg.eigvals(jac).imag)) < 1e-10


class TestStateLayout:
    @pytest.mark.parametrize("newton", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_blocks_partition_the_state(self, n, newton):
        layout = StateLayout.of(n, newton)
        rows = np.arange(layout.size)
        # each row in exactly one block, the blocks in order
        covered = np.concatenate([np.atleast_1d(rows[b]) for b in layout.blocks])
        np.testing.assert_array_equal(covered, rows)
        assert (layout.gamma_newton is not None) == newton
        np.testing.assert_array_equal(rows[layout.filters], rows[layout.theta.stop:])
        assert len(layout.filter_names) == layout.size - n
        assert StateLayout.of(n, newton) is layout

    def test_offsets_written_only_in_the_layout(self):
        # block positions such as 3 * n + 2 belong to StateLayout alone
        src = Path(asfes.__file__).parent
        tree = ast.parse((src / "dynamics.py").read_text())
        cls = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "StateLayout")
        inside = range(cls.lineno, cls.end_lineno + 1)
        offenders = [
            f"{path.name}:{i}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(r"[0-9] \* n", line)
            and not (path.name == "dynamics.py" and i in inside)
        ]
        assert offenders == []

    def test_make_rhs_builds_one_closure(self):
        # one dithered field for every dimension and shape: no second
        # (scalar) copy of it nested in make_rhs
        src = Path(asfes.__file__).parent / "dynamics.py"
        tree = ast.parse(src.read_text())
        make = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "make_rhs")
        nested = [node for node in ast.walk(make) if node is not make
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        assert len(nested) == 1, [ast.dump(node)[:60] for node in nested]

    def test_rk4_holds_one_stepping_loop(self):
        # every state steps in a loop that one generator writes for every
        # right-hand side, holding one loop; _rk4 has no loop of its own
        src = Path(asfes.__file__).parent / "integrate.py"
        tree = ast.parse(src.read_text())
        rk4 = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_rk4")
        assert [node for node in ast.walk(rk4) if isinstance(node, (ast.For, ast.While))] == []
        for key in generated_loop_keys():
            loops = [node for node in ast.walk(ast.parse(_loop_source(*key)))
                     if isinstance(node, (ast.For, ast.While))]
            assert [ast.unparse(node.iter) for node in loops] == ["range(n_steps)"]

    @pytest.mark.parametrize("name", ["make_rhs", "reduced_rhs", "make_reduced_rhs",
                                      "make_average_rhs", "_field_parts", "generated"])
    def test_fields_take_no_matrix_product(self, name):
        # a BLAS product's order of summation, and its fused multiply-adds,
        # may depend on the columns around a state; the fields sum left to
        # right, so that nothing sums across columns and each column is
        # bit for bit its own state.  "generated" is every source the
        # template emits (the dithered fields in both shapes, the averaged
        # and reduced fields on floats), and every RK4 loop generated from it.
        if name == "generated":
            shapes = {v.value: ("floats", "rows") for v in Variant}
            shapes.update(average=("floats",), reduced=("floats",))
            trees = [ast.parse(dynamics._field_source(model, n, shape))
                     for model, kinds in shapes.items() for n in (1, 2, 3) for shape in kinds
                     if model != Variant.NEWTON_ASFES.value or n == 1]
            trees += [ast.parse(_loop_source(model, n, held, gamma))
                      for model, n, held, gamma in generated_loop_keys()]
        else:
            src = Path(asfes.__file__).parent / "dynamics.py"
            trees = [next(node for node in ast.parse(src.read_text()).body
                          if isinstance(node, ast.FunctionDef) and node.name == name)]
        products = ("dot", "vdot", "inner", "matmul", "einsum", "tensordot")
        found = [ast.dump(node)[:60] for tree in trees for node in ast.walk(tree)
                 if isinstance(getattr(node, "op", None), ast.MatMult)
                 or (isinstance(node, ast.Attribute) and node.attr in products)
                 or (isinstance(node, ast.Name) and node.id in products)]
        assert found == []


@pytest.mark.parametrize("field", ["make_rhs", "reduced_rhs", "make_reduced_rhs"])
@pytest.mark.parametrize("n", [1, 2])
def test_rates_are_one_per_member(n, field, rng):
    # each run has one attractivity rate, its config's c: a field takes no
    # rate of its own, a config with a rate that is not one positive
    # number is a named ValidationError, and a field built from a config
    # with another rate takes that rate
    plant, cfg = random_plant(rng, n), random_config(rng, n)
    if field == "reduced_rhs":
        def call(config):
            return reduced_rhs(plant, config, point)
        point = rng.uniform(-1.0, 1.0, n)
    elif field == "make_rhs":
        def call(config):
            return make_rhs(plant, config)(0.0, point)
        point = random_full_state(rng, n)
    else:
        def call(config):
            return make_reduced_rhs(plant, config)(point)
        point = rng.uniform(-1.0, 1.0, n)
    assert "c" not in inspect.signature(getattr(dynamics, field)).parameters
    for rate in (-1.0, 0.0, math.nan, math.inf, np.array([0.3, 0.5]), np.array([0.3])):
        with pytest.raises(ValidationError):
            replace(cfg, c=rate)
    rate = 2.0 * cfg.c
    fresh = AlgorithmConfig(k=cfg.k, c=rate, delta=cfg.delta, omega_f=cfg.omega_f,
                            dither=cfg.dither)
    assert call(replace(cfg, c=rate)).tobytes() == call(fresh).tobytes()


@pytest.mark.parametrize("case", [
    (1, Variant.ASFES), (1, Variant.NEWTON_ASFES), (1, Variant.CLASSICAL_ES),
    (2, Variant.ASFES), (2, Variant.CLASSICAL_ES), (3, Variant.ASFES), "average1",
    "average2", "average3", "reduced1", "reduced2", "reduced3",
])
def test_fields_return_a_list_for_a_list(case, rng):
    # the integrator passes one state as a list of floats: the dithered,
    # averaged and reduced fields answer with a list, an array with an
    # array, and the two hold the same bits
    if isinstance(case, str):
        n = int(case[-1])
        plant, cfg = random_plant(rng, n), random_config(rng, n)
        field = (make_average_rhs if case.startswith("average") else make_reduced_rhs)(plant, cfg)
    else:
        n, variant = case
        plant, cfg = random_plant(rng, n), random_config(rng, n, variant)
        dithered = make_rhs(plant, cfg)

        def field(y):
            return dithered(0.37, y)
    y = rng.uniform(-1.0, 1.0, n) if str(case).startswith("reduced") else random_full_state(rng, n)
    if case == (1, Variant.NEWTON_ASFES):
        y = np.append(y, rng.uniform(0.2, 2.0))         # the Gamma row
    from_array = field(y)
    from_list = field(y.tolist())
    assert type(from_array) is np.ndarray and type(from_list) is list
    assert all(type(v) is float for v in from_list)
    assert np.array(from_list).tobytes() == from_array.tobytes()
    for wrong in (y.tolist()[:-1], y.tolist() + [0.0]):
        with pytest.raises(DimensionMismatch):
            field(wrong)


class TestStateContainers:
    @pytest.mark.parametrize("cls, n, newton", [
        (FullState, 3, False), (FullState, 1, True), (Equilibrium, 2, False),
    ], ids=["full", "full_newton", "equilibrium"])
    def test_round_trip(self, rng, cls, n, newton):
        layout = StateLayout.of(n, newton)
        vec = rng.uniform(-1.0, 1.0, size=layout.size)
        extra = (0.5, 0.25) if cls is Equilibrium else ()    # d and c1
        state = cls(*layout.unpack(vec), *extra)
        np.testing.assert_array_equal(state.as_vector(), vec)
        if cls is not Equilibrium:
            back = cls.from_vector(vec, n)
            np.testing.assert_array_equal(back.as_vector(), vec)
            assert getattr(back, "gamma_newton", None) == (
                vec[layout.gamma_newton] if newton else None)

    def test_bad_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            FullState.from_vector(np.zeros(8), 2)
