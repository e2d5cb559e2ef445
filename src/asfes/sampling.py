"""Seeded random plants and configurations for the verification sweeps.

Everything is kept at unit scale (eigenvalues, gradients and offsets within
roughly a decade of one) so the fixed absolute tolerances in the checks are
meaningful.
"""

from __future__ import annotations

import numpy as np

from .dynamics import AlgorithmConfig, StateLayout, Variant
from .errors import DimensionMismatch
from .problem import LinearBarrier, PlantModel, QuadraticObjective, validate_plant
from .signals import DitherConfig

# pairwise sums of distinct members never land on a member
FREQUENCY_POOL = (2, 3, 9, 14, 25)


def random_plant(rng: np.random.Generator, n: int, h0_sign: int | None = None) -> PlantModel:
    """Random well-conditioned plant of dimension n.

    ``h0_sign`` forces the sign of h0 (negative: the unconstrained minimizer
    is unsafe); by default both signs occur.
    """
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


def random_config(
    rng: np.random.Generator, n: int, variant: Variant = Variant.ASFES
) -> AlgorithmConfig:
    """Random positive gains with an admissible frequency set."""
    if not 1 <= n <= len(FREQUENCY_POOL):
        raise DimensionMismatch(f"the frequency pool supports n from 1 to {len(FREQUENCY_POOL)}, "
                                f"got {n}")
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


def random_full_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random averaged-coordinate state with gamma kept positive."""
    layout = StateLayout.of(n)
    x = rng.uniform(-2.0, 2.0, size=layout.size)
    x[layout.gamma] = rng.uniform(0.2, 2.0)
    return x
