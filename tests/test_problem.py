import math
import warnings

import numpy as np
import pytest

from asfes import (
    LinearBarrier,
    QuadraticObjective,
    constrained_minimum,
    eval_barrier,
    eval_objective,
    nb_eigenvector_condition,
    validate_plant,
)
from asfes.errors import (
    DimensionMismatch,
    NonFiniteValue,
    NonPositiveDefiniteHessian,
    NonPositiveTolerance,
    NonSymmetricHessian,
    ValidationError,
    ZeroBarrierGradient,
)
from asfes.problem import finite_float, real_array, require_finite


def grid_min_2d(plant, lo=-2.0, hi=2.0, res=1e-3):
    """Brute-force constrained minimum on a grid, written from scratch:
    J and h are evaluated directly from the plant parameters."""
    xs = np.arange(lo, hi + res / 2, res)
    hess = plant.hessian
    ts = plant.theta_star
    h0, h1 = plant.h0, plant.h1
    best_j, best_theta = np.inf, None
    for x1 in xs:
        d1 = x1 - ts[0]
        d2 = xs - ts[1]
        h_vals = h0 + h1[0] * d1 + h1[1] * d2
        safe = h_vals >= 0.0
        if not np.any(safe):
            continue
        d2s = d2[safe]
        j_vals = plant.j_star + 0.5 * (
            hess[0, 0] * d1 * d1 + 2.0 * hess[0, 1] * d1 * d2s + hess[1, 1] * d2s * d2s
        )
        i = int(np.argmin(j_vals))
        if j_vals[i] < best_j:
            best_j = float(j_vals[i])
            best_theta = np.array([x1, xs[safe][i]])
    return best_theta, best_j


class TestValidatePlant:
    def test_example1_plant(self, plant1):
        assert plant1.dimension == 1
        assert plant1.hessian.shape == (1, 1)
        assert plant1.h0 == -1.0

    def test_example2_plant(self, plant2):
        assert plant2.dimension == 2
        np.testing.assert_array_equal(plant2.h1, [1.0, 1.0])

    def test_indefinite_hessian_rejected(self):
        obj = QuadraticObjective(0.0, [[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0])
        with pytest.raises(NonPositiveDefiniteHessian):
            validate_plant(obj, LinearBarrier(-1.0, [1.0, 1.0]))

    def test_asymmetric_hessian_rejected(self):
        obj = QuadraticObjective(0.0, [[1.0, 0.1], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(NonSymmetricHessian):
            validate_plant(obj, LinearBarrier(-1.0, [1.0, 1.0]))

    def test_zero_barrier_gradient_rejected(self):
        obj = QuadraticObjective(0.0, [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(ZeroBarrierGradient):
            validate_plant(obj, LinearBarrier(-1.0, [0.0, 0.0]))

    def test_dimension_mismatch_rejected(self):
        obj = QuadraticObjective(0.0, [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            validate_plant(obj, LinearBarrier(-1.0, [1.0]))
        with pytest.raises(DimensionMismatch):
            validate_plant(
                QuadraticObjective(0.0, [[1.0, 0.0], [0.0, 1.0]], [0.0]),
                LinearBarrier(-1.0, [1.0, 1.0]),
            )
        # a plant with no parameters is a mismatch too, not an IndexError
        with pytest.raises(DimensionMismatch, match="at least one parameter"):
            validate_plant(QuadraticObjective(0.0, np.zeros((0, 0)), np.zeros(0)),
                           LinearBarrier(0.0, np.zeros(0)))


class TestEvaluation:
    def test_objective_example1(self, plant1):
        assert eval_objective(plant1, -3.0) == pytest.approx(0.5 * 0.1 * 9.0, abs=1e-15)

    def test_objective_at_minimizer(self, plant2):
        assert eval_objective(plant2, [0.0, 0.0]) == 0.0

    def test_objective_example2(self, plant2):
        # J = theta_1^2 + theta_2^2 at the boundary midpoint
        assert eval_objective(plant2, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_barrier_example1(self, plant1):
        assert eval_barrier(plant1, -3.0) == pytest.approx(2.0, abs=1e-15)

    def test_barrier_at_minimizer(self, plant1, plant2):
        assert eval_barrier(plant1, 0.0) == plant1.h0
        assert eval_barrier(plant2, [0.0, 0.0]) == plant2.h0

    def test_barrier_on_boundary(self, plant2):
        assert eval_barrier(plant2, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_checked(self, plant2):
        with pytest.raises(DimensionMismatch):
            eval_objective(plant2, [1.0])
        with pytest.raises(DimensionMismatch):
            eval_barrier(plant2, [1.0, 2.0, 3.0])


class TestConstrainedMinimum:
    def test_example2_against_grid(self, plant2):
        opt = constrained_minimum(plant2)
        assert opt.active
        np.testing.assert_allclose(opt.theta_smin, [0.5, 0.5], atol=1e-12)
        assert opt.j_s_star == pytest.approx(0.5, abs=1e-12)
        theta_g, j_g = grid_min_2d(plant2, res=1e-3)
        # no safe grid point may beat the analytic minimum, and the grid
        # minimum must approach it at the grid resolution
        assert j_g >= opt.j_s_star - 1e-12
        assert j_g <= opt.j_s_star + 5e-3
        np.testing.assert_allclose(theta_g, opt.theta_smin, atol=2e-3)

    def test_inactive_when_safe(self, plant1):
        plant = validate_plant(
            QuadraticObjective(0.0, 0.1, 0.0), LinearBarrier(1.0, -1.0)
        )
        opt = constrained_minimum(plant)
        assert not opt.active
        assert opt.j_s_star == plant.j_star
        np.testing.assert_array_equal(opt.theta_smin, plant.theta_star)

    def test_example1_against_line_search(self, plant1):
        opt = constrained_minimum(plant1)
        np.testing.assert_allclose(opt.theta_smin, [-1.0], atol=1e-12)
        assert opt.j_s_star == pytest.approx(0.05, abs=1e-12)
        # independent one-dimensional search on the safe ray {theta <= -1}
        grid = np.linspace(-4.0, -1.0, 300001)
        j_grid = 0.0 + 0.5 * 0.1 * grid**2
        assert j_grid.min() >= opt.j_s_star - 1e-12
        assert j_grid.min() == pytest.approx(opt.j_s_star, abs=1e-6)

    def test_boundary_case_h0_zero(self):
        plant = validate_plant(
            QuadraticObjective(0.3, 0.1, 0.0), LinearBarrier(0.0, -1.0)
        )
        opt = constrained_minimum(plant)
        assert not opt.active
        assert opt.j_s_star == 0.3

    def test_minimizer_on_boundary(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            plant = validate_plant(
                QuadraticObjective(rng.uniform(-1, 1), a @ a.T + np.eye(n),
                                   rng.uniform(-1, 1, n)),
                LinearBarrier(-float(rng.uniform(0.1, 2.0)), rng.standard_normal(n)),
            )
            opt = constrained_minimum(plant)
            assert abs(eval_barrier(plant, opt.theta_smin)) < 1e-10

    def test_safe_points_never_beat_minimum(self, plant2, rng):
        opt = constrained_minimum(plant2)
        count = 0
        while count < 100:
            theta = rng.uniform(-3, 3, size=2)
            if eval_barrier(plant2, theta) >= 0.0:
                assert eval_objective(plant2, theta) >= opt.j_s_star - 1e-10
                count += 1

    def test_random_2d_plants_against_grid(self, rng):
        for _ in range(10):
            a = rng.standard_normal((2, 2))
            hess = a @ a.T / 2 + np.diag(rng.uniform(0.5, 1.5, 2))
            theta_star = rng.uniform(-0.5, 0.5, 2)
            h1 = rng.standard_normal(2)
            h1 /= np.linalg.norm(h1)
            plant = validate_plant(
                QuadraticObjective(0.0, hess, theta_star),
                LinearBarrier(-float(rng.uniform(0.2, 0.8)), h1),
            )
            opt = constrained_minimum(plant)
            assert np.all(np.abs(opt.theta_smin) < 1.8)  # stays inside the grid
            theta_g, j_g = grid_min_2d(plant, res=4e-3)
            assert j_g >= opt.j_s_star - 1e-12
            grad = np.linalg.norm(hess @ (opt.theta_smin - theta_star))
            assert j_g <= opt.j_s_star + 4e-3 * 5.0 * (1.0 + grad)


class TestNbEigenvectorCondition:
    def test_scalar_always_true(self, plant1):
        assert nb_eigenvector_condition(plant1, 1e-12)

    def test_scaled_identity_true(self, plant2):
        assert nb_eigenvector_condition(plant2, 1e-12)

    def test_anisotropic_false(self):
        plant = validate_plant(
            QuadraticObjective(0.0, [[1.0, 0.0], [0.0, 4.0]], [0.0, 0.0]),
            LinearBarrier(-1.0, [1.0, 1.0]),
        )
        assert not nb_eigenvector_condition(plant, 1e-6)
        # direct check: H^{-1} h1 = (1, 0.25) is not parallel to (1, 1)
        r = np.linalg.solve(plant.hessian, plant.h1)
        np.testing.assert_allclose(r, [1.0, 0.25])

    def test_rejects_bad_tolerance(self, plant1):
        with pytest.raises(NonPositiveTolerance):
            nb_eigenvector_condition(plant1, 0.0)
        for tol in (math.nan, math.inf, "x"):
            with pytest.raises(ValidationError, match="^tol must be"):
                nb_eigenvector_condition(plant1, tol)


@pytest.mark.parametrize("make, name", [
    (lambda: QuadraticObjective(None, 0.1, 0.0), "j_star"),
    (lambda: QuadraticObjective(np.array([0.5]), 0.1, 0.0), "j_star"),
    (lambda: QuadraticObjective(0.0, "x", 0.0), "hessian"),
    (lambda: QuadraticObjective(0.0, [[1.0, 0.0], [0.0]], [0.0, 0.0]), "hessian"),
    (lambda: QuadraticObjective(0.0, 0.1, "x"), "theta_star"),
    (lambda: LinearBarrier("abc", 1.0), "h0"),
    (lambda: LinearBarrier(-1.0, {"a": 1.0}), "h1"),
])
def test_non_numbers_are_named(make, name):
    # a plant value that is not a number (or, for a scalar, not one number)
    # is a ValidationError naming its field, never a bare TypeError or
    # ValueError from a converter
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        make()



@pytest.mark.parametrize("call, message", [
    (lambda: real_array(["a", 10**5000], "a state"),
     r"^a state must be real numbers, got a list of shape \(2,\)"),
    (lambda: real_array([[1.0], 10**5000], "a state"), "^a state must be an array, got a list$"),
    (lambda: finite_float([10**5000], "k"), r"^k must be one number, got a list of shape \(1,\)"),
    (lambda: finite_float({10**5000: 1}, "k"), "^k must be one number, got a dict$"),
])
def test_a_huge_integer_is_described_not_printed(call, message):
    # Python refuses the repr of an int past 4300 digits: the message names
    # the value's type and shape, or the message itself would end in a bare
    # ValueError
    with pytest.raises(ValidationError, match=message):
        call()


def test_finiteness_is_checked_on_every_entry():
    for finite in (1.0, np.float64(-2.5), 3, (1.0, 2.0), np.zeros((3, 3)), np.ones(4)):
        require_finite(finite, "x")
    for value, shown in ((math.inf, "inf"), (math.nan, "nan"), (np.float64(-math.inf), ""),
                         ((1.0, -math.inf), r"\(1.0, -inf\)"),
                         (np.array([[0.0, 1.0], [math.nan, 2.0]]), r"array\(\[\[ 0.,  1.\]")):
        with pytest.raises(NonFiniteValue, match=f"^x must be finite, got {shown}"):
            require_finite(value, "x")


def test_asymmetry_is_measured_as_numpy_measures_it(rng):
    # the largest |H - H'| on Python floats: numpy's value in the message,
    # and an asymmetry beyond the float range is inf, with no overflow warning
    for n in (2, 3, 5):
        h = np.eye(n) + 1e-9 * rng.standard_normal((n, n))
        want = float(np.max(np.abs(h - h.T)))
        with pytest.raises(NonSymmetricHessian, match=f"^max absolute asymmetry {want:.3e} "):
            validate_plant(QuadraticObjective(0.0, h, np.zeros(n)),
                           LinearBarrier(-1.0, np.ones(n)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonSymmetricHessian, match="^max absolute asymmetry inf "):
            validate_plant(QuadraticObjective(0.0, [[1.0, 1e308], [-1e308, 1.0]], [0.0, 0.0]),
                           LinearBarrier(-1.0, [1.0, 1.0]))
