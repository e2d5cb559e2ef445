import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from scipy.optimize import root

from asfes import (
    AlgorithmConfig,
    DitherConfig,
    LinearBarrier,
    QuadraticObjective,
    Trajectory,
    constrained_minimum,
    eval_barrier,
    validate_plant,
)
from asfes import analysis as analysis_module
from asfes.analysis import (
    average_equilibrium,
    average_error_rhs,
    equilibrium_alpha,
    finite_diff_jacobian,
    jacobian_j11,
    m_matrix,
    reduced_jacobian,
    safety_report,
    spectral_check,
    z_matrix,
)
from asfes.dynamics import StateLayout, make_average_rhs, make_reduced_rhs
from asfes.errors import (
    DimensionMismatch,
    EmptyTrajectory,
    HurwitzViolation,
    NonFiniteEntry,
    NonPositiveTolerance,
    PairingFailure,
    ValidationError,
)
from asfes.integrate import (
    IntegrationSettings,
    average_channels,
    integrate,
)
from asfes.sampling import FREQUENCY_POOL, random_config, random_plant
import oracles


def replace_delta(cfg, delta):
    return AlgorithmConfig(k=cfg.k, c=cfg.c, delta=delta, omega_f=cfg.omega_f,
                           dither=cfg.dither, variant=cfg.variant)


class TestAverageEquilibrium:
    def test_example1_values(self, plant1, cfg1):
        eq = average_equilibrium(plant1, cfg1)
        assert eq.d == pytest.approx(10.0 / 3.0, rel=1e-14)
        assert eq.theta_tilde_ae[0] == pytest.approx(-1.077350269189626, abs=1e-10)
        assert eq.eta_h_ae == pytest.approx(0.07735026918962573, abs=1e-12)
        assert eq.gamma_ae == pytest.approx(1.0, abs=1e-15)
        assert eq.g_j_ae[0] == pytest.approx(-0.10773502691896258, abs=1e-12)
        assert eq.c1 == pytest.approx(0.10773502691896258, abs=1e-12)

    def test_carries_the_residual_it_was_checked_with(self, rng):
        # the residual is ||f_avg(eq)||, the same float as computed again
        for n in (1, 2, 3):
            plant, cfg = random_plant(rng, n), random_config(rng, n)
            eq = average_equilibrium(plant, cfg)
            f = make_average_rhs(plant, cfg)
            assert eq.residual == float(np.linalg.norm(f(eq.as_vector())))

    def test_overflow_is_a_named_error(self):
        # (c h0)^2 overflows: example 1 with c = 1e100 and h0 = -1e100
        plant = validate_plant(QuadraticObjective(0.0, 0.1, 0.0), LinearBarrier(-1e100, -1.0))
        cfg = AlgorithmConfig(k=0.3, c=1e100, delta=1e-3, omega_f=3.0,
                              dither=DitherConfig(0.25, (1,), 200.0))
        with pytest.raises(NonFiniteEntry):
            average_equilibrium(plant, cfg)

    def test_example1_against_root_finder(self, plant1, cfg1):
        eq = average_equilibrium(plant1, cfg1)
        f = make_average_rhs(plant1, cfg1)
        sol = root(f, eq.as_vector() + 0.05, tol=1e-13)
        assert sol.success
        np.testing.assert_allclose(sol.x, eq.as_vector(), atol=1e-8)

    def test_safe_plant_small_delta_recovers_unconstrained(self):
        plant = validate_plant(QuadraticObjective(0.0, 0.1, 0.0),
                               LinearBarrier(1.0, -1.0))
        cfg = AlgorithmConfig(k=0.3, c=0.1, delta=1e-12, omega_f=3.0,
                              dither=DitherConfig(0.25, (1,), 200.0))
        eq = average_equilibrium(plant, cfg)
        assert abs(eq.g_j_ae[0]) < 1e-10
        assert abs(eq.theta_tilde_ae[0]) < 1e-9

    def test_eta_h_equals_barrier_at_equilibrium(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            plant = random_plant(rng, n)
            cfg = random_config(rng, n)
            eq = average_equilibrium(plant, cfg)
            assert eval_barrier(plant, plant.theta_star + eq.theta_tilde_ae) == \
                pytest.approx(eq.eta_h_ae, abs=1e-10)

    def test_regular_at_grazing_constraint(self, cfg1):
        plant = validate_plant(QuadraticObjective(0.0, 0.1, 0.0),
                               LinearBarrier(0.0, -1.0))
        eq = average_equilibrium(plant, cfg1)
        assert eq.eta_h_ae > 0.0
        assert np.linalg.norm(make_average_rhs(plant, cfg1)(eq.as_vector())) <= 1e-10

    def test_interior_equilibrium_both_signs(self, rng):
        for sign in (-1, 1):
            for _ in range(20):
                n = int(rng.integers(1, 5))
                plant = random_plant(rng, n, h0_sign=sign)
                cfg = random_config(rng, n)
                eq = average_equilibrium(plant, cfg)
                assert eq.eta_h_ae > 0.0

    def test_delta_bias_favors_safety(self, plant1, cfg1):
        etas = [average_equilibrium(plant1, replace_delta(cfg1, d)).eta_h_ae
                for d in (1e-6, 1e-4, 1e-2)]
        assert etas[0] < etas[1] < etas[2]

    def test_small_delta_limit_hits_constrained_minimum(self, plant1, cfg1,
                                                        plant2, cfg2, rng):
        cases = [(plant1, cfg1), (plant2, cfg2)]
        for _ in range(5):
            n = int(rng.integers(1, 4))
            cases.append((random_plant(rng, n, h0_sign=-1), random_config(rng, n)))
        for plant, cfg in cases:
            eq = average_equilibrium(plant, replace_delta(cfg, 1e-8))
            opt = constrained_minimum(plant)
            gap = np.linalg.norm(plant.theta_star + eq.theta_tilde_ae - opt.theta_smin)
            assert gap < 1e-4


@hypothesis_settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), sign=st.sampled_from([-1.0, 1.0]),
       log_c_h0=st.floats(-3.0, 8.0))
def test_closed_forms_do_not_cancel(n, seed, sign, log_c_h0):
    # nu and alpha against their exact values (50 digits, from the same
    # float d, c h0, delta and argument) on random plants with |c h0| up
    # to 1e8: nu > 0 within 1e-12 relative, where -c h0 + sqrt(...)
    # cancels for c h0 > 0, and alpha within 1e-12 relative and in (0, 1)
    # where it is below 1 by more than half an ulp, as 1 - arg/root
    # cancels for arg < 0
    rng = np.random.default_rng(seed)
    base, cfg = random_plant(rng, n), random_config(rng, n)
    plant = validate_plant(
        QuadraticObjective(base.j_star, base.hessian, base.theta_star),
        LinearBarrier(sign * 10.0**log_c_h0 / cfg.c, base.h1))
    eq = average_equilibrium(plant, cfg)
    mpmath.mp.dps = 50
    c_h0, d, delta = (mpmath.mpf(float(v)) for v in (cfg.c * np.float64(plant.h0), eq.d,
                                                     cfg.delta))
    nu = (-c_h0 + mpmath.sqrt(c_h0 * c_h0 + d * delta)) / (2 * d)
    h1_sq = plant.h1 @ plant.h1
    assert nu > 0 and eq.c1 > 0.0
    assert abs(eq.c1 - nu / mpmath.mpf(float(cfg.k * h1_sq))) <= 1e-12 * eq.c1
    arg = mpmath.mpf(cfg.k * eq.c1 * float(h1_sq) - cfg.c * eq.eta_h_ae)
    exact = (arg / mpmath.sqrt(arg * arg + delta) + 1) / 2
    alpha = equilibrium_alpha(plant, cfg, eq)
    assert abs(alpha - exact) <= 1e-12 * exact
    assert 0.0 < alpha <= 1.0 and (alpha < 1.0 or 1 - exact < 2.0**-54)


class TestJacobians:
    def test_alpha_strictly_inside_unit_interval(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            plant = random_plant(rng, n)
            cfg = random_config(rng, n)
            eq = average_equilibrium(plant, cfg)
            alpha = equilibrium_alpha(plant, cfg, eq)
            assert 0.0 < alpha < 1.0

    def test_example1_block_entries(self, plant1, cfg1):
        eq = average_equilibrium(plant1, cfg1)
        j11 = jacobian_j11(plant1, cfg1, equilibrium_alpha(plant1, cfg1, eq))
        assert j11.shape == (3, 3)
        assert j11[1, 0] == pytest.approx(3.0 * 0.1)   # omega_f H
        assert j11[2, 0] == pytest.approx(-3.0)        # omega_f h1
        assert j11[1, 1] == -3.0 and j11[2, 2] == -3.0
        assert j11[0, 0] == 0.0

    def test_m_matrix_definite(self, rng):
        h1 = rng.standard_normal(4)
        for alpha in (0.0, 0.3, 0.7, 0.99):
            m = m_matrix(0.5, h1, alpha)
            np.testing.assert_allclose(m, m.T, atol=1e-15)
            assert np.linalg.eigvalsh(m)[0] > 0.0
        # positive semidefinite with a null direction along h1 at alpha = 1
        eigs = np.linalg.eigvalsh(m_matrix(0.5, h1, 1.0))
        assert eigs[0] == pytest.approx(0.0, abs=1e-12)
        assert eigs[1] > 0.0

    def test_finite_difference_recovers_linear_map(self, rng):
        a = rng.standard_normal((5, 5))
        jac = finite_diff_jacobian(lambda x: a @ x, rng.standard_normal(5), 1e-5)
        np.testing.assert_allclose(jac, a, atol=1e-10)

    def test_finite_difference_constant_field(self):
        jac = finite_diff_jacobian(lambda x: np.ones(3), np.zeros(3), 1e-5)
        np.testing.assert_array_equal(jac, np.zeros((3, 3)))

    def test_finite_difference_guards(self):
        with pytest.raises(NonPositiveTolerance):
            finite_diff_jacobian(lambda x: x, np.zeros(2), 0.0)
        # a step that is not a finite number is an input error (exit 1),
        # not a failed computation
        for step in (math.nan, math.inf, -math.inf, None):
            with pytest.raises(ValidationError, match="^step must be"):
                finite_diff_jacobian(lambda x: x, np.zeros(2), step)
        with pytest.raises(NonFiniteEntry):
            finite_diff_jacobian(lambda x: 1.0 / (x - 1e-6), np.zeros(1), 1e-6)

    def test_finite_difference_takes_one_vector(self):
        # a scalar or a matrix x0 is named, not an IndexError or a bare
        # broadcast error
        for x0 in (0.0, np.zeros((2, 2))):
            with pytest.raises(DimensionMismatch, match="one state vector"):
                finite_diff_jacobian(lambda x: x, x0, 1e-6)

    def test_finite_difference_takes_one_vector_from_rhs(self):
        # an rhs that gives a scalar or a matrix at x0, or at a shifted
        # point anything but a vector of its length at x0, is named, not an
        # IndexError or a bare broadcast error
        for rhs in (lambda x: 0.0, lambda x: np.zeros((2, 2)),
                    lambda x: np.zeros(2 if not x.any() else 3),
                    lambda x: np.zeros(2) if not x.any() else np.zeros((2, 1)),
                    lambda x: np.zeros(2) if not x.any() else 1.0):
            with pytest.raises(DimensionMismatch, match="^rhs gave a result of shape"):
                finite_diff_jacobian(rhs, np.zeros(2), 1e-6)

    def test_j11_matches_finite_differences(self, plant1, cfg1, plant2, cfg2, rng):
        cases = [(plant1, cfg1), (plant2, cfg2)]
        for _ in range(10):
            n = int(rng.integers(1, 5))
            cases.append((random_plant(rng, n), random_config(rng, n)))
        for plant, cfg in cases:
            n = plant.dimension
            eq = average_equilibrium(plant, cfg)
            j11 = jacobian_j11(plant, cfg, equilibrium_alpha(plant, cfg, eq))
            g = average_error_rhs(plant, cfg, eq)
            fd = finite_diff_jacobian(g, np.zeros(StateLayout.of(n).size), 1e-6)
            lead = fd[:j11.shape[0], :j11.shape[1]]
            scale = np.max(np.abs(j11))
            assert np.max(np.abs(lead - j11)) <= 1e-6 * max(1.0, scale)

    def test_error_system_blocks_decouple(self, plant2, cfg2):
        # rows of the leading block do not depend on the trailing error
        # coordinates at the equilibrium
        n = 2
        eq = average_equilibrium(plant2, cfg2)
        g = average_error_rhs(plant2, cfg2, eq)
        fd = finite_diff_jacobian(g, np.zeros(StateLayout.of(n).size), 1e-6)
        lead = jacobian_j11(plant2, cfg2, equilibrium_alpha(plant2, cfg2, eq)).shape[0]
        np.testing.assert_allclose(fd[n:lead, lead:], 0.0, atol=1e-9)

    def test_reduced_jacobian_matches_finite_differences(self, plant1, cfg1,
                                                         plant2, cfg2, rng):
        cases = [(plant1, cfg1), (plant2, cfg2)]
        for _ in range(10):
            n = int(rng.integers(1, 5))
            cases.append((random_plant(rng, n), random_config(rng, n)))
        for plant, cfg in cases:
            eq = average_equilibrium(plant, cfg)
            j_r = reduced_jacobian(plant, cfg, equilibrium_alpha(plant, cfg, eq))
            reduced = make_reduced_rhs(plant, cfg)
            fd = finite_diff_jacobian(
                lambda x: reduced(x + eq.theta_tilde_ae), np.zeros(plant.dimension), 1e-6)
            assert np.max(np.abs(fd - j_r)) <= 1e-6 * max(1.0, np.max(np.abs(j_r)))

    def test_reduced_spectrum_real_negative(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            plant = random_plant(rng, n)
            cfg = random_config(rng, n)
            eq = average_equilibrium(plant, cfg)
            alpha = equilibrium_alpha(plant, cfg, eq)
            eigs = np.linalg.eigvals(reduced_jacobian(plant, cfg, alpha))
            assert np.max(np.abs(eigs.imag)) <= 1e-10 * np.max(np.abs(eigs))
            assert np.max(eigs.real) < 0.0

    def test_reduced_jacobian_alpha_zero_limit(self, plant2, cfg2):
        # with the safety filter inactive the reduced model is plain
        # gradient flow
        m = m_matrix(cfg2.k, plant2.h1, 0.0)
        np.testing.assert_allclose(-(m @ plant2.hessian), -cfg2.k * plant2.hessian,
                                   atol=1e-15)


class TestSpectralCheck:
    def test_random_plants_pass_all_four_checks(self, rng):
        dims = (1, 2, 3, 5)
        for i in range(100):
            n = dims[i % 4]
            plant = random_plant(rng, n)
            cfg = random_config(rng, n)
            eq = average_equilibrium(plant, cfg)
            report = spectral_check(plant, cfg, eq)
            assert report.hurwitz
            assert report.omega_f_eigen_found
            assert len(report.pairing_residuals) == 2 * n
            assert np.max(report.z_eigenvalues.real) > 0.0

    def test_report_matches_the_pairing_oracle(self, rng):
        # the -omega_f eigenvalue found and taken out on Python numbers, and
        # the residuals tabulated once, give numpy's argmin and np.delete and
        # the oracle's twice-computed residuals, bit for bit
        for i in range(60):
            n = (1, 2, 3, 5)[i % 4]
            plant, cfg = random_plant(rng, n), random_config(rng, n)
            alpha = equilibrium_alpha(plant, cfg, average_equilibrium(plant, cfg))
            sort = analysis_module._sorted_eigenvalues
            j11, z = sort(jacobian_j11(plant, cfg, alpha)), sort(z_matrix(plant, cfg, alpha))
            i_wf = int(np.argmin(np.abs(j11 + cfg.omega_f)))
            want = oracles.pair_eigenvalues(np.delete(j11, i_wf).tolist(), z.real.tolist(),
                                            cfg.omega_f)
            got = spectral_check(plant, cfg, average_equilibrium(plant, cfg)).pairing_residuals
            assert [r.hex() for r in got] == [r.hex() for r in want]

    def test_pairing_matches_its_oracle(self, rng):
        # random spectra, complex and real, shuffled, some of them broken by a
        # perturbation or a missing slot: the same residuals, bit for bit, or
        # the same PairingFailure.  Real eigenvalues whose lambda ** 2 (the C
        # library's pow) differs from lambda * lambda are put in where this
        # platform has any
        mismatched = [x for x in rng.uniform(-6.0, -0.01, 20000).tolist() if x ** 2 != x * x]
        outcomes = set()
        for trial in range(400):
            wf = float(rng.uniform(1.0, 5.0))
            n = int(rng.integers(1, 6))
            zs, lambdas = [], []
            for _ in range(n):
                if mismatched and rng.random() < 0.3:
                    lam = mismatched.pop()
                    z = -(lam * lam + wf * lam)
                    roots = [lam, -wf - lam]
                else:
                    z = float(rng.uniform(0.05, 3.0))
                    disc = wf * wf - 4.0 * z
                    half = math.sqrt(abs(disc)) / 2.0
                    roots = ([-wf / 2.0 + half, -wf / 2.0 - half] if disc >= 0.0 else
                             [complex(-wf / 2.0, half), complex(-wf / 2.0, -half)])
                zs.append(z)
                lambdas += roots
            order = rng.permutation(len(lambdas)).tolist()
            lambdas = [lambdas[i] for i in order]
            if trial % 4 == 1:
                lambdas[0] += 1e-6
            elif trial % 4 == 2:
                lambdas.append(lambdas[0])      # one eigenvalue more than slots
            try:
                want = ("pass", [r.hex() for r in oracles.pair_eigenvalues(lambdas, zs, wf)])
            except PairingFailure as exc:
                want = ("fail", str(exc))
            try:
                got = ("pass", [r.hex() for r in analysis_module._pair_eigenvalues(
                    lambdas, zs, wf)])
            except PairingFailure as exc:
                got = ("fail", str(exc))
            assert got == want
            outcomes.add(want[0] if want[0] == "pass" else want[1].split()[0])
        # passes, residual failures and slot failures all occurred
        assert outcomes == {"pass", "eigenvalue", "ran"}

    @pytest.mark.parametrize("alpha", [-1.0, -100.0])
    @pytest.mark.parametrize("broken", [(), ("OMEGA_F_EIGEN_TOL", "REAL_SPECTRUM_TOL",
                                             "PAIRING_TOL")])
    def test_negative_alpha_is_a_hurwitz_violation(self, monkeypatch, plant2, cfg2,
                                                   alpha, broken):
        # a slope below zero pushes the parameter away from the boundary:
        # J11 gets an unstable eigenvalue and Z a negative one, and the
        # Hurwitz check, the first, is the one named, whatever else fails
        eq = average_equilibrium(plant2, cfg2)
        assert np.min(np.linalg.eigvals(z_matrix(plant2, cfg2, alpha=alpha)).real) < 0.0
        monkeypatch.setattr(analysis_module, "equilibrium_alpha", lambda *args: alpha)
        for name in broken:
            monkeypatch.setattr(analysis_module, name, -1.0)
        with pytest.raises(HurwitzViolation, match="real part"):
            spectral_check(plant2, cfg2, eq)

    @pytest.mark.parametrize("broken, message", [
        (("PAIRING_TOL",), "pairing residual"),
        (("REAL_SPECTRUM_TOL", "PAIRING_TOL"), "Z has a complex"),
        (("OMEGA_F_EIGEN_TOL", "REAL_SPECTRUM_TOL", "PAIRING_TOL"), "-omega_f not found"),
    ])
    def test_first_failed_check_is_named(self, monkeypatch, plant1, cfg1, plant2, cfg2,
                                         broken, message):
        # a negative tolerance fails its check on any spectrum; of several
        # failing checks the first in the order -omega_f, Z, pairing is named
        for name in broken:
            monkeypatch.setattr(analysis_module, name, -1.0)
        for plant, cfg in ((plant1, cfg1), (plant2, cfg2)):
            with pytest.raises(PairingFailure, match=message):
                spectral_check(plant, cfg, average_equilibrium(plant, cfg))

    def test_one_m_matrix_per_check(self, monkeypatch, plant2, cfg2):
        # J11, Z and the reduced Jacobian share one M, and their spectra are
        # those of the public builders, each of which builds its own
        eq = average_equilibrium(plant2, cfg2)
        alpha = equilibrium_alpha(plant2, cfg2, eq)
        want = [analysis_module._sorted_eigenvalues(build(plant2, cfg2, alpha)).tobytes()
                for build in (jacobian_j11, z_matrix, reduced_jacobian)]
        builds = []

        def counted(*args):
            builds.append(args)
            return m_matrix(*args)

        monkeypatch.setattr(analysis_module, "m_matrix", counted)
        report = spectral_check(plant2, cfg2, eq)
        assert len(builds) == 1
        assert [report.j11_eigenvalues.tobytes(), report.z_eigenvalues.tobytes(),
                report.reduced_eigenvalues.tobytes()] == want

    def test_alpha_zero_override_gives_gradient_spectrum(self, plant2, cfg2):
        z = z_matrix(plant2, cfg2, alpha=0.0)
        want = np.sort(np.linalg.eigvals(cfg2.omega_f * cfg2.k * plant2.hessian).real)
        got = np.sort(np.linalg.eigvals(z).real)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_example1_scalar_chain(self, plant1, cfg1):
        eq = average_equilibrium(plant1, cfg1)
        alpha = equilibrium_alpha(plant1, cfg1, eq)
        z = z_matrix(plant1, cfg1, alpha)
        expected = cfg1.omega_f * (cfg1.k * (1 - alpha) * 0.1 + cfg1.c * alpha)
        assert z[0, 0] == pytest.approx(expected, rel=1e-12)
        report = spectral_check(plant1, cfg1, eq)
        # both non-trivial roots of x^2 + omega_f x + z solve the pairing
        roots = np.roots([1.0, cfg1.omega_f, z[0, 0]])
        got = sorted(report.j11_eigenvalues.real)
        assert any(abs(r - got[1]) < 1e-9 for r in roots)
        assert any(abs(r - got[2]) < 1e-9 for r in roots)


class TestSafetyReport:
    def test_reduced_model_safe_start(self, plant1, cfg1):
        settings = IntegrationSettings(dt=0.01, t_end=150.0, record_stride=1)
        reduced = make_reduced_rhs(plant1, cfg1)
        traj = integrate(lambda t, y: reduced(y), np.array([-3.0]), settings,
                         channels=average_channels(plant1))
        report = safety_report(traj, plant1, cfg1.c, constrained_minimum(plant1))
        assert report.worst_violation >= -1e-6
        assert report.entered_safe_set_at is None
        assert report.final_h > 0.0

    def test_reduced_model_unsafe_start(self, plant1, cfg1):
        settings = IntegrationSettings(dt=0.01, t_end=150.0, record_stride=1)
        reduced = make_reduced_rhs(plant1, cfg1)
        traj = integrate(lambda t, y: reduced(y), np.array([0.5]), settings,
                         channels=average_channels(plant1))
        report = safety_report(traj, plant1, cfg1.c, constrained_minimum(plant1))
        assert report.worst_violation >= -1e-6
        assert report.entered_safe_set_at is not None
        # before first recorded safe time, h was negative
        i = np.searchsorted(traj.times, report.entered_safe_set_at)
        assert np.all(traj.h_values[:i] < 0.0)

    def test_constant_trajectory_dominates_envelope(self, plant1):
        times = np.linspace(0.0, 10.0, 101)
        theta = np.full((101, 1), -3.0)
        h = np.full(101, 2.0)
        j = np.full(101, 0.45)
        traj = Trajectory(times=times, states=theta, thetas=theta,
                          j_values=j, h_values=h)
        report = safety_report(traj, plant1, 0.7, constrained_minimum(plant1))
        # the gap h(0)(1 - exp(-c t)) is nonnegative and zero at t = 0
        assert report.worst_violation == 0.0
        assert report.violation_time == 0.0

    def test_empty_trajectory_rejected(self, plant1):
        traj = Trajectory(times=np.zeros(0), states=np.zeros((0, 1)),
                          thetas=np.zeros((0, 1)), j_values=np.zeros(0),
                          h_values=np.zeros(0))
        with pytest.raises(EmptyTrajectory):
            safety_report(traj, plant1, 0.1, constrained_minimum(plant1))


def test_random_config_takes_n_up_to_the_pool(rng):
    # each n the frequency pool supports draws its own ratios and a base
    # scale in [20, 50]; any other n is a named mismatch, a negative one too,
    # which would slice the pool from its end
    for n in range(1, len(FREQUENCY_POOL) + 1):
        cfg = random_config(rng, n)
        assert tuple(cfg.dither.ratios) == FREQUENCY_POOL[:n]
        assert 20.0 <= cfg.dither.base_scale <= 50.0
    for n in (len(FREQUENCY_POOL) + 1, 0, -1):
        with pytest.raises(DimensionMismatch, match="frequency pool"):
            random_config(rng, n)
