import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import asfes

from asfes import (
    AlgorithmConfig,
    DitherConfig,
    FullState,
    LinearBarrier,
    QuadraticObjective,
    Variant,
    boundary_layer_rhs,
    eval_barrier,
    eval_objective,
    make_average_rhs,
    make_rhs,
    reduced_rhs,
    smooth_max,
    validate_plant,
)
from asfes.analysis import Equilibrium, average_equilibrium, finite_diff_jacobian
from asfes.dynamics import StateLayout
from asfes.errors import DimensionMismatch, NotScalar
from asfes.integrate import numeric_average
from asfes.sampling import random_config, random_full_state, random_plant


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
    """Plain numpy transcription of the dithered field (no fast path)."""
    n = plant.dimension
    sins = np.sin(cfg.dither.omegas() * t)
    d = y[:n] + cfg.dither.amplitude * sins - plant.theta_star
    jv = plant.j_star + 0.5 * float(d @ (plant.hessian @ d))
    hv = plant.h0 + float(plant.h1 @ d)
    m = (2.0 / cfg.dither.amplitude) * sins
    gj, eta_j = y[n:2 * n], y[2 * n]
    gh, eta_h, gamma = y[2 * n + 1:3 * n + 1], y[3 * n + 1], y[3 * n + 2]
    arg = cfg.k * float(gj @ gh) - cfg.c * eta_h
    out = np.empty_like(y)
    out[:n] = -cfg.k * gj + gamma * smooth_max(arg, cfg.delta) * gh
    out[n:2 * n] = cfg.omega_f * ((jv - eta_j) * m - gj)
    out[2 * n] = cfg.omega_f * (jv - eta_j)
    out[2 * n + 1:3 * n + 1] = cfg.omega_f * ((hv - eta_h) * m - gh)
    out[3 * n + 1] = cfg.omega_f * (hv - eta_h)
    out[3 * n + 2] = cfg.omega_f * gamma * (1.0 - gamma * float(gh @ gh))
    return out


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


class TestReducedRhs:
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
        # one dithered field for every dimension and batch size: no second
        # (scalar) copy of it nested in make_rhs
        src = Path(asfes.__file__).parent / "dynamics.py"
        tree = ast.parse(src.read_text())
        make = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "make_rhs")
        nested = [node for node in ast.walk(make) if node is not make
                  and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        assert len(nested) == 1, [ast.dump(node)[:60] for node in nested]


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
