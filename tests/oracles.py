"""Demodulation signals written out independently of the package, whose
fields inline them: oracles for the filter and Riccati rows.  Also the
seeded draws and the eigenvalue pairing as they were first written, one
numpy call per draw and one residual computation per use: oracles for the
draw order that ``asfes verify``'s output depends on, and for the
pairing's residuals."""

import math

import numpy as np

from asfes import analysis
from asfes.dynamics import AlgorithmConfig, StateLayout, Variant
from asfes.errors import NonPositiveAmplitude, PairingFailure
from asfes.problem import LinearBarrier, QuadraticObjective, validate_plant
from asfes.sampling import FREQUENCY_POOL
from asfes.signals import DitherConfig


def demod(cfg, t: float) -> np.ndarray:
    """Demodulation signal, component i equal to (2/a)*sin(omega_i t)."""
    return (2.0 / cfg.amplitude) * np.sin(cfg.omegas() * t)


def newton_demod(amplitude: float, omega: float, t: float) -> float:
    """Second-order demodulator (16/a^2)(sin^2(omega t) - 1/2), scalar case."""
    if amplitude <= 0.0:
        raise NonPositiveAmplitude("amplitude must be positive")
    s = math.sin(omega * t)
    return (16.0 / amplitude**2) * (s * s - 0.5)


def random_plant(rng, n, h0_sign=None):
    """The random plant of dimension n, one numpy call per draw."""
    a = rng.standard_normal((n, n))
    hess = a @ a.T / n + np.diag(rng.uniform(0.3, 1.5, size=n))
    theta_star = rng.uniform(-1.0, 1.0, size=n)
    j_star = rng.uniform(-0.5, 0.5)
    h1 = rng.standard_normal(n)
    h1 *= rng.uniform(0.5, 2.0) / np.linalg.norm(h1)
    h0 = rng.uniform(0.1, 1.5)
    if h0_sign is None:
        h0 *= rng.choice([-1.0, 1.0])
    else:
        h0 *= float(np.sign(h0_sign))
    return validate_plant(
        QuadraticObjective(j_star=j_star, hessian=hess, theta_star=theta_star),
        LinearBarrier(h0=h0, h1=h1),
    )


def random_config(rng, n, variant=Variant.ASFES):
    """The random configuration of dimension n, one numpy call per draw."""
    dither = DitherConfig(
        amplitude=rng.uniform(0.05, 0.3),
        ratios=FREQUENCY_POOL[:n],
        base_scale=rng.uniform(20.0, 50.0),
    )
    return AlgorithmConfig(
        k=rng.uniform(0.1, 1.0),
        c=rng.uniform(0.1, 1.0),
        delta=10.0 ** rng.uniform(-5.0, -2.0),
        omega_f=rng.uniform(1.0, 5.0),
        dither=dither,
        variant=variant,
    )


def random_full_state(rng, n):
    """The random averaged-coordinate state, one numpy call per draw."""
    layout = StateLayout.of(n)
    x = rng.uniform(-2.0, 2.0, size=layout.size)
    x[layout.gamma] = rng.uniform(0.2, 2.0)
    return x


def pair_eigenvalues(lambdas, z_eigs, omega_f):
    """The quadratic pairing with its sort key and its greedy loop each
    computing the residuals they read."""
    capacity = {i: 2 for i in range(len(z_eigs))}
    residuals_out = []
    order = sorted(
        range(len(lambdas)),
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
        tol = analysis.PAIRING_TOL * max(1.0, abs(z_eigs[best_j]))
        if best_r > tol:
            raise PairingFailure(
                f"eigenvalue {lam:.6g} has pairing residual {best_r:.3e} > {tol:.3e}"
            )
        capacity[best_j] -= 1
        residuals_out.append(float(best_r))
    return residuals_out
