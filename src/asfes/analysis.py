"""Closed-form equilibrium of the averaged dynamics, linearizations, spectral
structure checks, and trajectory safety reports.

The averaged dynamics have a unique equilibrium once gamma is taken at its
positive Riccati root.  Writing G_J = nu h1 / (k ||h1||^2) for an unknown
nu > 0 (the safety-filter gain is strictly positive, so G_J must align with
h1), the parameter row collapses to the scalar fixed-point equation
nu = smooth_max(nu - c h0 - d nu, delta) with d = c h1'H^{-1}h1 / (k||h1||^2).
Squaring away the square root leaves the quadratic

    d nu^2 + c h0 nu - delta/4 = 0,

whose positive root is nu = (-c h0 + sqrt(c^2 h0^2 + d delta)) / (2 d).
This pre-simplified form is regular at h0 = 0, so no special-casing of the
grazing constraint is needed.  Where c h0 > 0 its numerator cancels, so
the root is taken there in the rationalised form
nu = delta / (2 (c h0 + sqrt(c^2 h0^2 + d delta))).

The linearizations J11, Z and the reduced Jacobian read the equilibrium
only through alpha, the slope of the softened max there
(:func:`equilibrium_alpha`).  One function of alpha, :func:`linearization`,
builds all three from the one matrix M = k (I - alpha h1 h1' / ||h1||^2)
and the one product M H they share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .dynamics import AlgorithmConfig, PackedBlocks, StateLayout, make_average_rhs
from .errors import (
    DimensionMismatch,
    EmptyTrajectory,
    HurwitzViolation,
    NonFiniteEntry,
    NonPositiveTolerance,
    PairingFailure,
    ResidualTooLarge,
)
from .integrate import Trajectory
from .problem import ConstrainedOptimum, PlantModel, finite_float

PAIRING_TOL = 1e-8
OMEGA_F_EIGEN_TOL = 1e-8
REAL_SPECTRUM_TOL = 1e-10


@dataclass(frozen=True)
class Equilibrium(PackedBlocks):
    """Equilibrium of the averaged dynamics plus the scalars d and c1
    (G_J at equilibrium equals c1 * h1) reused by the linearization, and
    the residual ||f_avg(eq)|| that :func:`average_equilibrium` checked it
    with (nan for one made otherwise)."""

    theta_tilde_ae: np.ndarray
    g_j_ae: np.ndarray
    eta_j_ae: float
    g_h_ae: np.ndarray
    eta_h_ae: float
    gamma_ae: float
    d: float
    c1: float
    residual: float = math.nan


@dataclass(frozen=True)
class SpectralReport:
    """Evidence from a :func:`spectral_check` that passed: the sorted
    spectra of J11, Z and the reduced Jacobian, and the residual of each
    of the 2n quadratic pairings.  ``hurwitz`` and ``omega_f_eigen_found``
    are therefore true."""

    j11_eigenvalues: np.ndarray
    z_eigenvalues: np.ndarray
    pairing_residuals: List[float]
    hurwitz: bool
    omega_f_eigen_found: bool
    reduced_eigenvalues: np.ndarray


@dataclass(frozen=True)
class SafetyReport:
    """How a trajectory fared against the assigned-rate envelope
    h(theta(0)) * exp(-c t) and against the constrained minimum."""

    worst_violation: float
    violation_time: float
    final_h: float
    entered_safe_set_at: Optional[float]
    final_objective_gap: float


def average_equilibrium(plant: PlantModel, cfg: AlgorithmConfig) -> Equilibrium:
    """Closed-form equilibrium of the averaged dynamics.

    Solves the nu-quadratic described in the module docstring, then chains
    the remaining components: theta_tilde = H^{-1} G_J, eta_h the safety
    value there (always strictly positive, whatever the sign of h0: the
    softened max biases the equilibrium into the safe interior), eta_j the
    objective value plus the probing bias, gamma = 1/||h1||^2.  The result
    is residual-checked by substitution into the averaged field (``residual``).
    """
    h1 = plant.h1
    h0 = plant.h0
    k, c, delta = cfg.k, cfg.c, cfg.delta
    a = cfg.dither.amplitude
    # numpy floats throughout: an overflow or a zero divide gives inf or nan,
    # which the check below names, instead of a bare Python error or warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h1_sq = h1 @ h1
        hinv_h1 = np.linalg.solve(plant.hessian, h1)
        q = h1 @ hinv_h1
        d = c * q / (k * h1_sq)
        ch0 = c * np.float64(h0)
        root = np.sqrt(ch0 ** 2 + d * delta)
        # -c h0 + root cancels for a large c h0 > 0; its rationalised form does not
        nu = delta / (2.0 * (ch0 + root)) if ch0 > 0.0 else (-ch0 + root) / (2.0 * d)
        c1 = nu / (k * h1_sq)
        theta_tilde_ae = c1 * hinv_h1
        # theta_tilde, G_J, eta_J, G_h, eta_h, gamma
        blocks = [theta_tilde_ae, c1 * h1,
                  float(plant.j_star + 0.5 * c1 * c1 * q
                        + 0.25 * a * a * float(plant.hessian.trace())),
                  h1.copy(), float(h0 + h1 @ theta_tilde_ae), float(1.0 / h1_sq)]
        vec = StateLayout.of(plant.dimension).pack(blocks)
        norm = np.linalg.norm(vec)
        if not all(map(math.isfinite, (norm, d, c1))):   # a finite norm has finite entries
            raise NonFiniteEntry(f"the averaged equilibrium for c={c:g} is not finite")
        residual = float(np.linalg.norm(make_average_rhs(plant, cfg)(vec)))
    scale = max(1.0, cfg.omega_f) * max(1.0, float(norm))
    if not residual <= 1e-10 * scale:
        raise ResidualTooLarge(
            f"equilibrium residual {residual:.3e} exceeds tolerance"
        )
    return Equilibrium(*blocks, d=float(d), c1=float(c1), residual=residual)


def equilibrium_alpha(plant: PlantModel, cfg: AlgorithmConfig, eq: Equilibrium) -> float:
    """Slope of the softened max at the equilibrium argument, in (0, 1):
    0.5 (arg / sqrt(arg^2 + delta) + 1), rationalised for arg < 0.  It
    rounds to 1.0 where 1 - alpha, about delta / (4 arg^2), is under half
    an ulp: for arg above about 7e7 sqrt(delta)."""
    arg = cfg.k * eq.c1 * float(plant.h1 @ plant.h1) - cfg.c * eq.eta_h_ae
    root = math.sqrt(arg * arg + cfg.delta)
    if arg < 0.0:
        # arg + root cancels for a large -arg; its rationalised form does not
        return 0.5 * cfg.delta / (root * (root - arg))
    return 0.5 * (arg / root + 1.0)


def m_matrix(k: float, h1: np.ndarray, alpha: float) -> np.ndarray:
    """k (I - alpha h1 h1' / ||h1||^2); positive definite for alpha < 1."""
    n = h1.shape[0]
    return k * (np.eye(n) - alpha * np.outer(h1, h1) / float(h1 @ h1))


class Linearization(NamedTuple):
    """The linearizations at the equilibrium whose softened-max slope is
    alpha, with M = :func:`m_matrix` ``(k, h1, alpha)``.

    ``j11`` is the leading block of the linearized averaged error dynamics.
    Its rows and columns are ordered (theta_tilde, G_J, eta_h); the
    remaining error coordinates decouple at the equilibrium, contributing
    only -omega_f eigenvalues.  ``z`` is omega_f M H + omega_f (c alpha /
    ||h1||^2) h1 h1'; for alpha in [0, 1) its spectrum is real and strictly
    positive, and at the equilibrium's alpha it generates the non-trivial
    eigenvalues of ``j11`` in quadratic pairs.  ``reduced`` is the
    linearization of the reduced model, -M H - c alpha h1 h1' / ||h1||^2,
    with a real negative spectrum."""

    j11: np.ndarray
    z: np.ndarray
    reduced: np.ndarray


def linearization(plant: PlantModel, cfg: AlgorithmConfig, alpha: float) -> Linearization:
    """J11, Z and the reduced Jacobian for the softened-max slope ``alpha``
    (see :class:`Linearization`), from one M, one M H, one h1 h1' and one
    ||h1||^2.  An ``alpha`` that is not one finite number is a
    :class:`ValidationError`, a :class:`NonFiniteValue` if it is nan or
    infinite."""
    alpha = finite_float(alpha, "alpha")
    h1 = plant.h1
    n = plant.dimension
    wf, c = cfg.omega_f, cfg.c
    m = m_matrix(cfg.k, h1, alpha)
    mh = m @ plant.hessian
    outer = np.outer(h1, h1)
    h1_sq = float(h1 @ h1)
    layout = StateLayout.of(n)
    # the leading error coordinates (error_coordinate_indices): theta_tilde
    # and G_J in their layout rows, then eta_h in the row eta_J has there
    tt, gj, eh = layout.theta, layout.g_j, layout.eta_j
    j11 = np.zeros((eh + 1, eh + 1))
    j11[tt, gj] = -m
    j11[tt, eh] = -c * alpha * h1 / h1_sq
    j11[gj, tt] = wf * plant.hessian
    j11[gj, gj] = -wf * np.eye(n)
    j11[eh, tt] = wf * h1
    j11[eh, eh] = -wf
    return Linearization(j11=j11, z=wf * mh + wf * (c * alpha / h1_sq) * outer,
                         reduced=-mh - c * alpha * outer / h1_sq)


def finite_diff_jacobian(
    rhs: Callable[[np.ndarray], np.ndarray], x0, step: float
) -> np.ndarray:
    """Central-difference Jacobian, column j from (f(x+s e_j) - f(x-s e_j)) / 2s.

    ``rhs`` must give one vector, of the same length at every point; any
    other result is a :class:`DimensionMismatch`."""
    if not finite_float(step, "step") > 0.0:
        raise NonPositiveTolerance("step must be positive")
    x0 = np.asarray(x0, float)
    if x0.ndim != 1:
        raise DimensionMismatch(f"x0 has shape {x0.shape}; it must be one state vector")

    def value(x, shape=None) -> np.ndarray:
        f = np.asarray(rhs(x), float)
        if f.ndim != 1 or shape not in (None, f.shape):
            raise DimensionMismatch(
                f"rhs gave a result of shape {f.shape}; it must be one vector"
                + ("" if shape is None else f" of {shape[0]} values, as at x0"))
        return f

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f0 = value(x0)
        jac = np.empty((f0.shape[0], x0.shape[0]))
        for j in range(x0.shape[0]):
            e = np.zeros_like(x0)
            e[j] = step
            jac[:, j] = (value(x0 + e, f0.shape) - value(x0 - e, f0.shape)) / (2.0 * step)
    if not np.all(np.isfinite(jac)):
        raise NonFiniteEntry("non-finite entry in finite-difference Jacobian")
    return jac


def error_coordinate_indices(n: int) -> np.ndarray:
    """Permutation mapping the reordered error state
    (theta_tilde, G_J, eta_h, G_h, gamma, eta_J) onto the plain layout."""
    layout = StateLayout.of(n)
    return np.r_[layout.theta, layout.g_j, layout.eta_h, layout.g_h, layout.gamma, layout.eta_j]


def average_error_rhs(
    plant: PlantModel, cfg: AlgorithmConfig, eq: Equilibrium
) -> Callable[[np.ndarray], np.ndarray]:
    """Averaged dynamics in reordered error coordinates around the
    equilibrium; its Jacobian at zero has :func:`linearization`'s ``j11`` as
    leading block."""
    f = make_average_rhs(plant, cfg)
    perm = error_coordinate_indices(plant.dimension)
    x_eq = eq.as_vector()
    inv = np.argsort(perm)

    def g(x_c: np.ndarray) -> np.ndarray:
        x = x_eq + np.asarray(x_c, float)[inv]
        return f(x)[perm]

    return g


def _pair_eigenvalues(lambdas: list, z_eigs: list, omega_f: float) -> List[float]:
    """Match each J11 eigenvalue (minus the -omega_f one) to a Z eigenvalue
    through lambda^2 + omega_f lambda + z = 0; every z takes exactly two.
    The eigenvalues go in the order of their best residual, and each takes
    the free z of least residual.  They are Python numbers, which compute
    as numpy's do.

    Each eigenvalue's residuals are computed once.  The order takes its
    square as lambda ** 2 and the residuals as lambda * lambda.  For a
    complex lambda the two differ at most in the sign of a zero, which the
    absolute value drops.  For a real one the C library's pow can differ
    from the product in the last bit, so that row is computed again."""
    table, keys = [], []
    for lam in lambdas:
        linear = omega_f * lam
        square = lam ** 2
        row = [abs(square + linear + z) for z in z_eigs]
        keys.append(min(row))
        if lam * lam != square:
            row = [abs(lam * lam + linear + z) for z in z_eigs]
        table.append(row)
    capacity = [2] * len(z_eigs)
    residuals_out = []
    for i in sorted(range(len(lambdas)), key=keys.__getitem__):
        best_j, best_r = None, math.inf
        for j, r in enumerate(table[i]):
            if capacity[j] and r < best_r:
                best_j, best_r = j, r
        if best_j is None:
            raise PairingFailure("ran out of quadratic-pair slots")
        tol = PAIRING_TOL * max(1.0, abs(z_eigs[best_j]))
        if best_r > tol:
            raise PairingFailure(
                f"eigenvalue {lambdas[i]:.6g} has pairing residual {best_r:.3e} > {tol:.3e}"
            )
        capacity[best_j] -= 1
        residuals_out.append(best_r)
    return residuals_out


def _sorted_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``m`` by real part, then imaginary part."""
    eigs = np.linalg.eigvals(m)
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def spectral_check(plant: PlantModel, cfg: AlgorithmConfig, eq: Equilibrium) -> SpectralReport:
    """Verify the spectral structure of the linearized averaged dynamics.

    Checks, in this order, that (i) the J11 block is Hurwitz, (ii) -omega_f
    sits in its spectrum, (iii) every eigenvalue of Z is real and strictly
    positive, and (iv) the remaining 2n eigenvalues pair two-to-one with the
    eigenvalues of Z through lambda^2 + omega_f lambda + z = 0.  The first
    violation raises :class:`HurwitzViolation` for (i) and
    :class:`PairingFailure` for the others, so a returned report passed
    every check; it carries the evidence.
    """
    wf = cfg.omega_f
    lin = linearization(plant, cfg, equilibrium_alpha(plant, cfg, eq))
    j11_eigs = _sorted_eigenvalues(lin.j11)
    z_eigs = _sorted_eigenvalues(lin.z)
    lambdas = j11_eigs.tolist()
    # sorted by real part, a NaN last, so the last has the greatest, as np.max gives it
    if not lambdas[-1].real < 0.0:
        raise HurwitzViolation(
            f"J11 has an eigenvalue with real part {lambdas[-1].real:.3e}"
        )
    # numpy's absolute value: for a complex number it can differ from Python's
    # in the last bit.  The spectrum of a finite matrix has no NaN, so the first
    # least distance is the one np.argmin finds
    dist = np.abs(j11_eigs + wf).tolist()
    miss = min(dist)
    if not miss <= OMEGA_F_EIGEN_TOL * max(1.0, wf):
        raise PairingFailure(
            f"-omega_f not found in the J11 spectrum (closest miss {miss:.3e})"
        )
    del lambdas[dist.index(miss)]
    z_list = z_eigs.tolist()
    if not all(
        abs(zv.imag) <= REAL_SPECTRUM_TOL * max(abs(zv), 1e-300) and zv.real > 0.0
        for zv in z_list
    ):
        raise PairingFailure("Z has a complex or non-positive eigenvalue")
    residuals = _pair_eigenvalues(lambdas, [zv.real for zv in z_list], wf)
    return SpectralReport(
        j11_eigenvalues=j11_eigs,
        z_eigenvalues=z_eigs,
        pairing_residuals=residuals,
        hurwitz=True,
        omega_f_eigen_found=True,
        reduced_eigenvalues=_sorted_eigenvalues(lin.reduced),
    )


def envelope(h0: float, c: float, times: np.ndarray) -> np.ndarray:
    """The assigned-rate envelope h(0) exp(-c t) at ``times`` ``(R,)``, with
    the C library's exp, as the trajectory CSVs have always written it:
    numpy's SIMD exp differs from it in the last bit on some inputs.  The
    CSVs, :func:`safety_report` and verify all take it from here, so they
    agree to the bit.  It is computed in the compiled output library of
    :mod:`asfes._ckernel`, or through :func:`math.exp` where that is not
    built or an exp overflows."""
    from . import _ckernel

    compiled = _ckernel.envelope()
    values = None if compiled is None else compiled(h0, c, times)
    if values is not None:
        return values
    decay = np.fromiter(map(math.exp, (-c * times).tolist()), float, times.shape[0])
    return h0 * decay


def safety_report(
    traj: Trajectory, plant: PlantModel, c: float, constrained: ConstrainedOptimum
) -> SafetyReport:
    """Compare a trajectory's h channel against its assigned-rate envelope.

    ``worst_violation`` is the minimum over recorded times of
    h(t) - h(0) exp(-c t) (see :func:`envelope`); zero at t=0 by construction, and staying near
    zero (or above) means the envelope held.  For unsafe starts the first
    recorded entry into {h >= 0} is noted.  The final objective gap is
    measured against the constrained minimum.
    """
    if len(traj) == 0:
        raise EmptyTrajectory("cannot report on an empty trajectory")
    if traj.h_values is None or traj.j_values is None:
        raise EmptyTrajectory("trajectory carries no plant channels")
    h = traj.h_values
    gap = h - envelope(h[0], c, traj.times)
    i_min = int(np.argmin(gap))
    entered = None
    if h[0] < 0.0:
        safe = np.nonzero(h >= 0.0)[0]
        if safe.size:
            entered = float(traj.times[safe[0]])
    return SafetyReport(
        worst_violation=float(gap[i_min]),
        violation_time=float(traj.times[i_min]),
        final_h=float(h[-1]),
        entered_safe_set_at=entered,
        final_objective_gap=float(abs(traj.j_values[-1] - constrained.j_s_star)),
    )
