"""Plant definitions and analytic optima.

The plant is the pair of maps the algorithm can only sample: a quadratic
objective J(theta) = J* + (theta - theta*)' H (theta - theta*) / 2 with
symmetric positive definite Hessian H, and a linear safety metric
h(theta) = h0 + h1' (theta - theta*).  The safe set is {h >= 0}; h0 < 0
means the unconstrained minimizer theta* is unsafe and the constrained
minimizer sits on the boundary h = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    NonPositiveDefiniteHessian,
    NonPositiveTolerance,
    NonSymmetricHessian,
    ZeroBarrierGradient,
)

SYMMETRY_TOL = 1e-12
# positive definiteness is decided relative to the largest eigenvalue so the
# check is invariant under rescaling of J
DEFINITENESS_RTOL = 1e-10


def _vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector, got shape {v.shape}")
    return v


def require_finite(value, name: str) -> None:
    """Raise :class:`NonFiniteValue` naming ``name`` unless every entry of
    ``value`` is finite."""
    if not np.all(np.isfinite(value)):
        raise NonFiniteValue(f"{name} must be finite, got {value!r}")


def _matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"hessian must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class QuadraticObjective:
    """Quadratic objective: value at the minimizer, Hessian, minimizer."""

    j_star: float
    hessian: np.ndarray
    theta_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "j_star", float(self.j_star))
        object.__setattr__(self, "hessian", _matrix(self.hessian))
        object.__setattr__(self, "theta_star", _vector(self.theta_star, "theta_star"))
        for name in ("j_star", "hessian", "theta_star"):
            require_finite(getattr(self, name), name)


@dataclass(frozen=True)
class LinearBarrier:
    """Linear safety metric: value at theta* and constant gradient."""

    h0: float
    h1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h0", float(self.h0))
        object.__setattr__(self, "h1", _vector(self.h1, "h1"))
        require_finite(self.h0, "h0")
        require_finite(self.h1, "h1")


@dataclass(frozen=True)
class PlantModel:
    """Validated objective/barrier pair.  Build through :func:`validate_plant`."""

    objective: QuadraticObjective
    barrier: LinearBarrier
    dimension: int

    @property
    def hessian(self) -> np.ndarray:
        return self.objective.hessian

    @property
    def theta_star(self) -> np.ndarray:
        return self.objective.theta_star

    @property
    def j_star(self) -> float:
        return self.objective.j_star

    @property
    def h0(self) -> float:
        return self.barrier.h0

    @property
    def h1(self) -> np.ndarray:
        return self.barrier.h1


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
    if objective.theta_star.shape != (n,):
        raise DimensionMismatch(
            f"theta_star has dimension {objective.theta_star.shape[0]}, hessian is {n}x{n}"
        )
    if barrier.h1.shape != (n,):
        raise DimensionMismatch(
            f"h1 has dimension {barrier.h1.shape[0]}, hessian is {n}x{n}"
        )
    asym = float(np.max(np.abs(h - h.T))) if n else 0.0
    if asym > SYMMETRY_TOL:
        raise NonSymmetricHessian(f"max absolute asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    eigs = np.linalg.eigvalsh(0.5 * h + 0.5 * h.T)     # halved first: no overflow
    if eigs[0] <= DEFINITENESS_RTOL * max(eigs[-1], 0.0) or eigs[-1] <= 0.0:
        raise NonPositiveDefiniteHessian(
            f"hessian eigenvalues span [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
        )
    with np.errstate(over="ignore"):
        h1_squared = float(barrier.h1 @ barrier.h1)    # gamma settles at its inverse
    if h1_squared == 0.0:
        raise ZeroBarrierGradient("h1 must have at least one nonzero component")
    require_finite(h1_squared, "||h1||^2")
    return PlantModel(objective=objective, barrier=barrier, dimension=n)


def component_sum(x):
    """Sum over the leading (component) axis, one row after the other.

    Points and states are component-major: ``(n,)`` for one, ``(n, B)`` for
    a batch of B.  A fixed left-to-right sum keeps each member's value
    independent of the batch around it, which a BLAS or pairwise reduction
    does not guarantee.
    """
    if x.ndim == 1:
        # one point: Python floats, the same IEEE sums at a fraction of the
        # cost of numpy scalars
        x = x.tolist()
    total = x[0]
    for row in x[1:]:
        total = total + row
    return total


def hessian_columns(hessian: np.ndarray, ndim: int) -> np.ndarray:
    """The Hessian's columns, shaped to multiply a component-major array of
    ``ndim`` dimensions: ``(n,)`` for one point, ``(n, 1)`` for a batch."""
    return hessian.T if ndim == 1 else hessian.T[:, :, None]


def hessian_product(columns: np.ndarray, d):
    """H d as an explicit sum over the Hessian's columns (see
    :func:`hessian_columns`), for the same batch-independence as
    :func:`component_sum`."""
    hd = columns[0] * d[0]
    for j in range(1, d.shape[0]):
        hd = hd + columns[j] * d[j]
    return hd


def _offset(plant: PlantModel, theta) -> np.ndarray:
    """theta - theta* for one point ``(n,)`` or a batch ``(n, B)``."""
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    if t.ndim > 2 or t.shape[0] != plant.dimension:
        raise DimensionMismatch(
            f"theta has shape {t.shape}, plant dimension is {plant.dimension}"
        )
    return t - (plant.theta_star if t.ndim == 1 else plant.theta_star[:, None])


def eval_objective(plant: PlantModel, theta):
    """J(theta) = J* + (theta - theta*)' H (theta - theta*) / 2, for one point
    (a float) or a component-major batch ``(n, B)`` (one value per member)."""
    d = _offset(plant, theta)
    hd = hessian_product(hessian_columns(plant.hessian, d.ndim), d)
    return plant.j_star + 0.5 * component_sum(d * hd)


def eval_barrier(plant: PlantModel, theta):
    """h(theta) = h0 + h1' (theta - theta*), for one point or a batch."""
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
    hinv_h1 = np.linalg.solve(plant.hessian, plant.h1)
    q = float(plant.h1 @ hinv_h1)
    theta_smin = abs(plant.h0) * hinv_h1 / q + plant.theta_star
    j_s_star = plant.j_star + plant.h0**2 / (2.0 * q)
    return ConstrainedOptimum(theta_smin=theta_smin, j_s_star=j_s_star, active=True)


def nb_eigenvector_condition(plant: PlantModel, tol: float) -> bool:
    """Whether h1 is (numerically) an eigenvector of H^{-1}.

    Only then does the Newton-based variant share its equilibrium with the
    constrained minimizer; in one dimension this always holds.  The test is
    that the residual of H^{-1} h1 against its projection onto h1 stays
    within ``tol`` relative to the norm of H^{-1} h1.
    """
    if tol <= 0.0:
        raise NonPositiveTolerance("tol must be positive")
    r = np.linalg.solve(plant.hessian, plant.h1)
    proj = (float(plant.h1 @ r) / float(plant.h1 @ plant.h1)) * plant.h1
    return float(np.linalg.norm(r - proj)) <= tol * float(np.linalg.norm(r))
