"""Seeded random plants and configurations for the verification sweeps.

Everything is kept at unit scale (eigenvalues, gradients and offsets within
roughly a decade of one) so the fixed absolute tolerances in the checks are
meaningful.

The draw order is part of ``asfes verify``'s contract: its output is fixed
byte for byte per seed and trial count.
"""

from __future__ import annotations

import operator

import numpy as np

from .dynamics import AlgorithmConfig, StateLayout, Variant
from .errors import DimensionMismatch, ValidationError
from .problem import LinearBarrier, PlantModel, QuadraticObjective, validate_plant
from .signals import DitherConfig

# pairwise sums of distinct members never land on a member
FREQUENCY_POOL = (2, 3, 9, 14, 25)


def random_plant(rng: np.random.Generator, n: int, h0_sign: int | None = None) -> PlantModel:
    """Random well-conditioned plant of dimension n.

    ``h0_sign`` forces the sign of h0 (negative: the unconstrained minimizer
    is unsafe); by default both signs occur.  An ``n`` that is not an
    integer is a :class:`ValidationError`, one below 1 a
    :class:`DimensionMismatch`, each raised before any draw.
    """
    n = _integer(n)
    if n < 1:
        raise DimensionMismatch(f"the plant needs at least one parameter, got n={n}")
    a = rng.standard_normal((n, n))
    u = rng.random(n + n + 1)       # the Hessian's diagonal (n), theta* (n), J*
    hess = a @ a.T / n + np.diag(_uniform(u[:n], 0.3, 1.5))
    h1 = rng.standard_normal(n)
    scale, h0 = rng.random(2).tolist()
    h1 *= _uniform(scale, 0.5, 2.0) / np.linalg.norm(h1)
    h0 = _uniform(h0, 0.1, 1.5)
    if h0_sign is None:
        # rng.choice([-1.0, 1.0]) takes its index from this same draw
        h0 = h0 if rng.integers(0, 2) else -h0
    else:
        h0 *= float(np.sign(h0_sign))
    return validate_plant(
        QuadraticObjective(j_star=_uniform(float(u[-1]), -0.5, 0.5), hessian=hess,
                           theta_star=_uniform(u[n:-1], -1.0, 1.0)),
        LinearBarrier(h0=h0, h1=h1),
    )


def random_config(
    rng: np.random.Generator, n: int, variant: Variant = Variant.ASFES
) -> AlgorithmConfig:
    """Random positive gains with an admissible frequency set.  An ``n``
    that is not an integer is a :class:`ValidationError`, one the frequency
    pool cannot serve a :class:`DimensionMismatch`, each raised before any
    draw."""
    n = _integer(n)
    if not 1 <= n <= len(FREQUENCY_POOL):
        raise DimensionMismatch(f"the frequency pool supports n from 1 to {len(FREQUENCY_POOL)}, "
                                f"got {n}")
    amplitude, base_scale, k, c, log_delta, omega_f = rng.random(6).tolist()
    dither = DitherConfig(
        amplitude=_uniform(amplitude, 0.05, 0.3),
        ratios=FREQUENCY_POOL[:n],
        base_scale=_uniform(base_scale, 20.0, 50.0),
    )
    return AlgorithmConfig(
        k=_uniform(k, 0.1, 1.0),
        c=_uniform(c, 0.1, 1.0),
        delta=10.0 ** _uniform(log_delta, -5.0, -2.0),
        omega_f=_uniform(omega_f, 1.0, 5.0),
        dither=dither,
        variant=variant,
    )


def random_full_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random averaged-coordinate state with gamma kept positive."""
    layout = StateLayout.of(n)
    u = rng.random(layout.size + 1)
    x = _uniform(u[:-1], -2.0, 2.0)
    x[layout.gamma] = _uniform(u[-1], 0.2, 2.0)
    return x


def _uniform(u, low: float, high: float):
    """``rng.uniform(low, high)`` from the draw ``u`` of ``rng.random()``, by
    numpy's own formula, to the bit.  So one ``rng.random(k)`` takes a run
    of k consecutive uniforms at the cost of one call, and leaves the
    generator as the k calls would."""
    return low + (high - low) * u


def _integer(n) -> int:
    """``n`` as an int; anything else is a :class:`ValidationError`."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValidationError(f"n must be an integer, got a {type(n).__name__}") from None
