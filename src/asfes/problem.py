"""Plant definitions and analytic optima.

The plant is the pair of maps the algorithm can only sample: a quadratic
objective J(theta) = J* + (theta - theta*)' H (theta - theta*) / 2 with
symmetric positive definite Hessian H, and a linear safety metric
h(theta) = h0 + h1' (theta - theta*).  The safe set is {h >= 0}; h0 < 0
means the unconstrained minimizer theta* is unsafe and the constrained
minimizer sits on the boundary h = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    NonPositiveDefiniteHessian,
    NonPositiveTolerance,
    NonSymmetricHessian,
    ValidationError,
    ZeroBarrierGradient,
)

SYMMETRY_TOL = 1e-12
# positive definiteness is decided relative to the largest eigenvalue so the
# check is invariant under rescaling of J
DEFINITENESS_RTOL = 1e-10


def real_array(x, name: str) -> np.ndarray:
    """``x`` as a float array.  A ragged nesting is a
    :class:`DimensionMismatch`, and anything else that is not real numbers
    a :class:`ValidationError`, each naming ``name``: a string or an
    object that is no number, and a complex value, which numpy would cast
    with a warning and its imaginary part dropped.  An integer beyond the
    float range is a :class:`NonFiniteValue`."""
    try:
        a = np.asarray(x)
    except ValueError:
        raise DimensionMismatch(f"{name} must be an array, got {_described(x)}") from None
    try:
        if a.dtype.kind != "c":
            return a.astype(float, copy=False)
    except OverflowError:
        raise NonFiniteValue(f"{name} holds an integer beyond the float range") from None
    except (TypeError, ValueError):
        pass
    raise ValidationError(f"{name} must be real numbers, got {_described(x)}")


def _described(x) -> str:
    """``x``'s type, and its shape where numpy gives it one of at least one
    axis, for an error message.  Never its repr, which Python refuses for an
    int past 4300 digits."""
    try:
        shape = np.shape(x)
    except (TypeError, ValueError):
        shape = ()
    return f"a {type(x).__name__}" + (f" of shape {shape}" if shape else "")


def _array(x, name: str, ndim: int) -> np.ndarray:
    """``x`` as a finite float array of ``ndim`` axes, a square one at 2; a
    number is one entry."""
    a = real_array(x, name)
    a = a.reshape((1,) * ndim) if a.ndim == 0 else a
    if a.ndim != ndim or a.shape != a.shape[:1] * ndim:
        raise DimensionMismatch(
            f"{name} must be {'a vector' if ndim == 1 else 'square'}, got shape {a.shape}")
    require_finite(a, name)
    return a


def finite_float(value, name: str, finite: bool = True) -> float:
    """``value`` as a Python float, so that no numpy scalar's precision reaches the fields;
    a Python float, the common case, goes straight to the finiteness check.  Anything but
    one number is a :class:`ValidationError` naming ``name`` (a one-element array too: numpy
    before 2.0 only warns on its ``float``), and, if ``finite``, a NaN or infinity
    :class:`NonFiniteValue`."""
    if type(value) is not float:
        try:
            if np.ndim(value) != 0:
                raise TypeError
            value = float(value)
        except OverflowError:       # an integer beyond the float range, as 1e400 is
            value = np.inf if value > 0 else -np.inf
        except (TypeError, ValueError):
            raise ValidationError(f"{name} must be one number, got {_described(value)}") from None
    if finite and not -np.inf < value < np.inf:
        raise NonFiniteValue(f"{name} must be finite, got {value!r}")
    return value


def require_finite(value, name: str) -> None:
    """Raise :class:`NonFiniteValue` naming ``name`` unless every entry of
    ``value``, a real number or an array of them, is finite.  The check runs
    on Python floats: on the few entries it is given, that costs less than
    numpy's ufunc."""
    values = (value,) if isinstance(value, float) else np.ravel(value).tolist()
    if not all(map(math.isfinite, values)):
        raise NonFiniteValue(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class QuadraticObjective:
    """Quadratic objective: value at the minimizer, Hessian, minimizer."""

    j_star: float
    hessian: np.ndarray
    theta_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "j_star", finite_float(self.j_star, "j_star"))
        object.__setattr__(self, "hessian", _array(self.hessian, "hessian", 2))
        object.__setattr__(self, "theta_star", _array(self.theta_star, "theta_star", 1))


@dataclass(frozen=True)
class LinearBarrier:
    """Linear safety metric: value at theta* and constant gradient."""

    h0: float
    h1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h0", finite_float(self.h0, "h0"))
        object.__setattr__(self, "h1", _array(self.h1, "h1", 1))


@dataclass(frozen=True)
class PlantModel:
    """Validated plant: the objective's minimum ``j_star``, Hessian and
    minimizer ``theta_star``, the barrier's value ``h0`` at theta* and its
    gradient ``h1``, and the common dimension.  Build through
    :func:`validate_plant`, which checks every assumption."""

    j_star: float
    hessian: np.ndarray
    theta_star: np.ndarray
    h0: float
    h1: np.ndarray
    dimension: int


@dataclass(frozen=True)
class ConstrainedOptimum:
    """Minimizer and minimum of J over the safe set {h >= 0}."""

    theta_smin: np.ndarray
    j_s_star: float
    active: bool


def validate_plant(objective: QuadraticObjective, barrier: LinearBarrier) -> PlantModel:
    """Check every plant assumption and return the assembled model.

    Raises the error naming the first violated assumption: the Hessian must
    be symmetric (max absolute asymmetry below 1e-12) and positive definite,
    the barrier gradient nonzero, and all dimensions consistent.
    """
    h = objective.hessian
    n = h.shape[0]
    if n == 0:
        raise DimensionMismatch("the plant needs at least one parameter")
    if objective.theta_star.shape != (n,):
        raise DimensionMismatch(
            f"theta_star has dimension {objective.theta_star.shape[0]}, hessian is {n}x{n}"
        )
    if barrier.h1.shape != (n,):
        raise DimensionMismatch(
            f"h1 has dimension {barrier.h1.shape[0]}, hessian is {n}x{n}"
        )
    # on Python floats, which subtract as numpy does, at a fraction of its cost
    asym = max(map(abs, map(float.__sub__, h.ravel().tolist(), h.T.ravel().tolist())))
    if asym > SYMMETRY_TOL:
        raise NonSymmetricHessian(f"max absolute asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    eigs = np.linalg.eigvalsh(0.5 * h + 0.5 * h.T)     # halved first: no overflow
    if eigs[0] <= DEFINITENESS_RTOL * max(eigs[-1], 0.0) or eigs[-1] <= 0.0:
        raise NonPositiveDefiniteHessian(
            f"hessian eigenvalues span [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
        )
    h1_squared(barrier.h1)
    return PlantModel(j_star=objective.j_star, hessian=h,
                      theta_star=objective.theta_star, h0=barrier.h0,
                      h1=barrier.h1, dimension=n)


def h1_squared(h1: np.ndarray) -> float:
    """||h1||^2 of a barrier gradient ``h1``, a vector of finite floats;
    gamma settles at its inverse.  A zero ``h1`` is a
    :class:`ZeroBarrierGradient` and a square that overflows a
    :class:`NonFiniteValue`."""
    with np.errstate(over="ignore"):
        squared = float(h1 @ h1)
    if squared == 0.0:
        raise ZeroBarrierGradient("h1 must have at least one nonzero component")
    require_finite(squared, "||h1||^2")
    return squared


def component_sum(x):
    """Sum over the leading (component) axis, one row after the other.

    Points are component-major: ``(n,)`` for one, ``(n, R)`` for the R
    records of a run.  A fixed left-to-right sum keeps each record's value
    independent of the records around it, which a BLAS or pairwise
    reduction does not guarantee.
    """
    if x.ndim == 1:
        # one point: Python floats, the same IEEE sums at a fraction of the
        # cost of numpy scalars
        x = x.tolist()
    total = x[0]
    for row in x[1:]:
        total = total + row
    return total


def hessian_product(hessian: np.ndarray, d):
    """H d for one point ``(n,)`` or a run's records ``(n, R)``, as an
    explicit sum over the Hessian's columns, so that, as in
    :func:`component_sum`, no record's value depends on the others."""
    hd = np.multiply.outer(hessian[:, 0], d[0])
    for j in range(1, d.shape[0]):
        hd = hd + np.multiply.outer(hessian[:, j], d[j])
    return hd


def _offset(plant: PlantModel, theta) -> np.ndarray:
    """theta - theta* for one point ``(n,)`` or a run's records ``(n, R)``."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if t.ndim > 2 or t.shape[0] != plant.dimension:
        raise DimensionMismatch(
            f"theta has shape {t.shape}, plant dimension is {plant.dimension}"
        )
    return t - (plant.theta_star if t.ndim == 1 else plant.theta_star[:, None])


def eval_objective(plant: PlantModel, theta):
    """J(theta) = J* + (theta - theta*)' H (theta - theta*) / 2, for one point
    (a float) or a run's records ``(n, R)`` (one value per record)."""
    d = _offset(plant, theta)
    hd = hessian_product(plant.hessian, d)
    return plant.j_star + 0.5 * component_sum(d * hd)


def eval_barrier(plant: PlantModel, theta):
    """h(theta) = h0 + h1' (theta - theta*), for one point or a run's records."""
    d = _offset(plant, theta)
    h1 = plant.h1 if d.ndim == 1 else plant.h1[:, None]
    return plant.h0 + component_sum(h1 * d)


def constrained_minimum(plant: PlantModel) -> ConstrainedOptimum:
    """Minimum of J over {h >= 0}.

    If h0 >= 0 the unconstrained minimizer is already safe.  Otherwise the
    minimizer sits on the boundary, displaced from theta* along H^{-1} h1:
    theta_smin = |h0| H^{-1} h1 / (h1' H^{-1} h1) + theta* with value
    J_s* = J* + h0^2 / (2 h1' H^{-1} h1).
    """
    if plant.h0 >= 0.0:
        return ConstrainedOptimum(
            theta_smin=plant.theta_star.copy(), j_s_star=plant.j_star, active=False
        )
    # a plant near the float range gives a non-finite optimum, not a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hinv_h1 = np.linalg.solve(plant.hessian, plant.h1)
        q = plant.h1 @ hinv_h1
        theta_smin = abs(plant.h0) * hinv_h1 / q + plant.theta_star
        j_s_star = plant.j_star + plant.h0 * plant.h0 / (2.0 * q)
    return ConstrainedOptimum(theta_smin=theta_smin, j_s_star=j_s_star, active=True)


def nb_eigenvector_condition(plant: PlantModel, tol: float) -> bool:
    """Whether h1 is (numerically) an eigenvector of H^{-1}.

    Only then does the Newton-based variant share its equilibrium with the
    constrained minimizer; in one dimension this always holds.  The test is
    that the residual of H^{-1} h1 against its projection onto h1 stays
    within ``tol`` relative to the norm of H^{-1} h1.
    """
    if not finite_float(tol, "tol") > 0.0:
        raise NonPositiveTolerance("tol must be positive")
    r = np.linalg.solve(plant.hessian, plant.h1)
    proj = (float(plant.h1 @ r) / float(plant.h1 @ plant.h1)) * plant.h1
    return float(np.linalg.norm(r - proj)) <= tol * float(np.linalg.norm(r))
