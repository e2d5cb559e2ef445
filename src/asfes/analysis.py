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
grazing constraint is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .dynamics import AlgorithmConfig, PackedBlocks, StateLayout, make_average_rhs
from .errors import (
    EmptyTrajectory,
    HurwitzViolation,
    NonFiniteEntry,
    NonPositiveTolerance,
    PairingFailure,
    ResidualTooLarge,
)
from .integrate import Trajectory
from .problem import ConstrainedOptimum, PlantModel

PAIRING_TOL = 1e-8
OMEGA_F_EIGEN_TOL = 1e-8
REAL_SPECTRUM_TOL = 1e-10


@dataclass(frozen=True)
class Equilibrium(PackedBlocks):
    """Equilibrium of the averaged dynamics plus the scalars d and c1
    (G_J at equilibrium equals c1 * h1) reused by the linearization."""

    theta_tilde_ae: np.ndarray
    g_j_ae: np.ndarray
    eta_j_ae: float
    g_h_ae: np.ndarray
    eta_h_ae: float
    gamma_ae: float
    d: float
    c1: float


@dataclass(frozen=True)
class SpectralReport:
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
    is residual-checked by substitution into the averaged field.
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
        nu = (-ch0 + np.sqrt(ch0 ** 2 + d * delta)) / (2.0 * d)
        c1 = nu / (k * h1_sq)
        theta_tilde_ae = c1 * hinv_h1
        eq = Equilibrium(
            theta_tilde_ae=theta_tilde_ae,
            g_j_ae=c1 * h1,
            eta_j_ae=float(plant.j_star + 0.5 * c1 * c1 * q
                           + 0.25 * a * a * float(np.trace(plant.hessian))),
            g_h_ae=h1.copy(),
            eta_h_ae=float(h0 + h1 @ theta_tilde_ae),
            gamma_ae=float(1.0 / h1_sq),
            d=float(d),
            c1=float(c1),
        )
        vec = eq.as_vector()
        norm = np.linalg.norm(vec)
        if not np.all(np.isfinite((norm, d, c1))):   # a finite norm has finite entries
            raise NonFiniteEntry(f"the averaged equilibrium for c={c:g} is not finite")
        residual = float(np.linalg.norm(make_average_rhs(plant, cfg)(vec)))
    scale = max(1.0, cfg.omega_f) * max(1.0, float(norm))
    if not residual <= 1e-10 * scale:
        raise ResidualTooLarge(
            f"equilibrium residual {residual:.3e} exceeds tolerance"
        )
    return eq


def equilibrium_alpha(plant: PlantModel, cfg: AlgorithmConfig, eq: Equilibrium) -> float:
    """Slope of the softened max at the equilibrium argument, in (0, 1)."""
    arg = cfg.k * eq.c1 * float(plant.h1 @ plant.h1) - cfg.c * eq.eta_h_ae
    return 0.5 * (arg / math.sqrt(arg * arg + cfg.delta) + 1.0)


def m_matrix(k: float, h1: np.ndarray, alpha: float) -> np.ndarray:
    """k (I - alpha h1 h1' / ||h1||^2); positive definite for alpha < 1."""
    n = h1.shape[0]
    return k * (np.eye(n) - alpha * np.outer(h1, h1) / float(h1 @ h1))


def jacobian_j11(plant: PlantModel, cfg: AlgorithmConfig, eq: Equilibrium) -> np.ndarray:
    """Leading block of the linearized averaged error dynamics.

    Rows and columns are ordered (theta_tilde, G_J, eta_h); the remaining
    error coordinates decouple at the equilibrium, contributing only
    -omega_f eigenvalues.
    """
    h1 = plant.h1
    n = plant.dimension
    wf = cfg.omega_f
    alpha = equilibrium_alpha(plant, cfg, eq)
    m = m_matrix(cfg.k, h1, alpha)
    layout = StateLayout.of(n)
    # the leading error coordinates (error_coordinate_indices): theta_tilde
    # and G_J in their layout rows, then eta_h in the row eta_J has there
    tt, gj, eh = layout.theta, layout.g_j, layout.eta_j
    j11 = np.zeros((eh + 1, eh + 1))
    j11[tt, gj] = -m
    j11[tt, eh] = -cfg.c * alpha * h1 / float(h1 @ h1)
    j11[gj, tt] = wf * plant.hessian
    j11[gj, gj] = -wf * np.eye(n)
    j11[eh, tt] = wf * h1
    j11[eh, eh] = -wf
    return j11


def z_matrix(
    plant: PlantModel,
    cfg: AlgorithmConfig,
    eq: Optional[Equilibrium] = None,
    alpha: Optional[float] = None,
) -> np.ndarray:
    """omega_f M H + omega_f (c alpha / ||h1||^2) h1 h1'.

    Its spectrum is real and strictly positive, and generates the non-trivial
    eigenvalues of the J11 block in quadratic pairs.  ``alpha`` may be
    overridden (for boundary-case studies); by default it is evaluated at
    the equilibrium.
    """
    if alpha is None:
        if eq is None:
            raise ValueError("pass an equilibrium or an explicit alpha")
        alpha = equilibrium_alpha(plant, cfg, eq)
    h1 = plant.h1
    m = m_matrix(cfg.k, h1, alpha)
    return cfg.omega_f * (m @ plant.hessian) + cfg.omega_f * (
        cfg.c * alpha / float(h1 @ h1)
    ) * np.outer(h1, h1)


def reduced_jacobian(plant: PlantModel, cfg: AlgorithmConfig, eq: Equilibrium) -> np.ndarray:
    """Linearization of the reduced model at its equilibrium:
    -M H - c alpha h1 h1' / ||h1||^2.  Real negative spectrum."""
    h1 = plant.h1
    alpha = equilibrium_alpha(plant, cfg, eq)
    m = m_matrix(cfg.k, h1, alpha)
    return -(m @ plant.hessian) - cfg.c * alpha * np.outer(h1, h1) / float(h1 @ h1)


def finite_diff_jacobian(
    rhs: Callable[[np.ndarray], np.ndarray], x0, step: float
) -> np.ndarray:
    """Central-difference Jacobian, column j from (f(x+s e_j) - f(x-s e_j)) / 2s."""
    if step <= 0.0:
        raise NonPositiveTolerance("step must be positive")
    x0 = np.asarray(x0, float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f0 = np.asarray(rhs(x0), float)
        jac = np.empty((f0.shape[0], x0.shape[0]))
        for j in range(x0.shape[0]):
            e = np.zeros_like(x0)
            e[j] = step
            jac[:, j] = (np.asarray(rhs(x0 + e)) - np.asarray(rhs(x0 - e))) / (2.0 * step)
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
    equilibrium; its Jacobian at zero has ``jacobian_j11`` as leading block."""
    f = make_average_rhs(plant, cfg)
    perm = error_coordinate_indices(plant.dimension)
    x_eq = eq.as_vector()
    inv = np.argsort(perm)

    def g(x_c: np.ndarray) -> np.ndarray:
        x = x_eq + np.asarray(x_c, float)[inv]
        return f(x)[perm]

    return g


def _pair_eigenvalues(
    lambdas: np.ndarray, z_eigs: np.ndarray, omega_f: float
) -> List[float]:
    """Match each J11 eigenvalue (minus the -omega_f one) to a Z eigenvalue
    through lambda^2 + omega_f lambda + z = 0; every z takes exactly two."""
    capacity = {i: 2 for i in range(z_eigs.shape[0])}
    residuals_out = []
    order = sorted(
        range(lambdas.shape[0]),
        key=lambda i: min(
            abs(lambdas[i] ** 2 + omega_f * lambdas[i] + z) for z in z_eigs
        ),
    )
    for i in order:
        lam = lambdas[i]
        best_j, best_r = None, math.inf
        for j, z in enumerate(z_eigs):
            if capacity[j] == 0:
                continue
            r = abs(lam * lam + omega_f * lam + z)
            if r < best_r:
                best_j, best_r = j, r
        if best_j is None:
            raise PairingFailure("ran out of quadratic-pair slots")
        tol = PAIRING_TOL * max(1.0, abs(z_eigs[best_j]))
        if best_r > tol:
            raise PairingFailure(
                f"eigenvalue {lam:.6g} has pairing residual {best_r:.3e} > {tol:.3e}"
            )
        capacity[best_j] -= 1
        residuals_out.append(float(best_r))
    return residuals_out


def spectral_check(plant: PlantModel, cfg: AlgorithmConfig, eq: Equilibrium) -> SpectralReport:
    """Verify the spectral structure of the linearized averaged dynamics.

    Checks that (i) the J11 block is Hurwitz, (ii) -omega_f sits in its
    spectrum, (iii) every eigenvalue of Z is real and strictly positive, and
    (iv) the remaining 2n eigenvalues pair two-to-one with the eigenvalues
    of Z through lambda^2 + omega_f lambda + z = 0.  Raises on violation;
    the returned report carries the evidence.
    """
    wf = cfg.omega_f
    j11 = jacobian_j11(plant, cfg, eq)
    z = z_matrix(plant, cfg, eq)
    j11_eigs = np.linalg.eigvals(j11)
    z_eigs = np.linalg.eigvals(z)
    j_r = reduced_jacobian(plant, cfg, eq)
    reduced_eigs = np.linalg.eigvals(j_r)

    order = np.lexsort((j11_eigs.imag, j11_eigs.real))
    j11_eigs = j11_eigs[order]
    z_eigs = z_eigs[np.lexsort((z_eigs.imag, z_eigs.real))]

    hurwitz = bool(np.max(j11_eigs.real) < 0.0)

    dist = np.abs(j11_eigs + wf)
    i_wf = int(np.argmin(dist))
    omega_f_found = bool(dist[i_wf] <= OMEGA_F_EIGEN_TOL * max(1.0, wf))

    z_real_positive = all(
        abs(zv.imag) <= REAL_SPECTRUM_TOL * max(abs(zv), 1e-300) and zv.real > 0.0
        for zv in z_eigs
    )

    rest = np.delete(j11_eigs, i_wf)
    residuals = None
    pairing_error = None
    try:
        residuals = _pair_eigenvalues(rest, z_eigs.real, wf)
    except PairingFailure as exc:
        pairing_error = exc

    report = SpectralReport(
        j11_eigenvalues=j11_eigs,
        z_eigenvalues=z_eigs,
        pairing_residuals=residuals if residuals is not None else [],
        hurwitz=hurwitz,
        omega_f_eigen_found=omega_f_found,
        reduced_eigenvalues=reduced_eigs[np.lexsort((reduced_eigs.imag, reduced_eigs.real))],
    )
    if not hurwitz:
        raise HurwitzViolation(
            f"J11 has an eigenvalue with real part {np.max(j11_eigs.real):.3e}"
        )
    if not omega_f_found:
        raise PairingFailure(
            f"-omega_f not found in the J11 spectrum (closest miss {dist[i_wf]:.3e})"
        )
    if not z_real_positive:
        raise PairingFailure("Z has a complex or non-positive eigenvalue")
    if pairing_error is not None:
        raise pairing_error
    return report


def safety_report(
    traj: Trajectory, plant: PlantModel, c: float, constrained: ConstrainedOptimum
) -> SafetyReport:
    """Compare a trajectory's h channel against its assigned-rate envelope.

    ``worst_violation`` is the minimum over recorded times of
    h(t) - h(0) exp(-c t); zero at t=0 by construction, and staying near
    zero (or above) means the envelope held.  For unsafe starts the first
    recorded entry into {h >= 0} is noted.  The final objective gap is
    measured against the constrained minimum.
    """
    if len(traj) == 0:
        raise EmptyTrajectory("cannot report on an empty trajectory")
    if traj.h_values is None or traj.j_values is None:
        raise EmptyTrajectory("trajectory carries no plant channels")
    h = traj.h_values
    envelope = h[0] * np.exp(-c * traj.times)
    gap = h - envelope
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
