"""The dither, the softened max, and period arithmetic.

The demodulation signals (2/a) sin(omega t) and the Newton variant's
(16/a^2)(sin^2(omega t) - 1/2) are written into the fields themselves (see
:mod:`asfes.dynamics`).

Frequencies are stored as exact rationals times a common base scale so that
admissibility (no duplicate frequencies, no pair summing to a third) and the
common period are decided in integer arithmetic rather than floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateFrequency,
    NonFiniteValue,
    NonPositiveAmplitude,
    NonPositiveDelta,
    ResonantTriple,
    ValidationError,
)


def _as_fraction(r) -> Fraction:
    if isinstance(r, Fraction):
        return r
    if isinstance(r, int):
        return Fraction(r)
    if isinstance(r, str):
        return Fraction(r)
    if isinstance(r, float):
        if not r.is_integer():
            raise ValidationError(
                f"frequency ratio {r!r} is a non-integer float; pass a string "
                "or Fraction so the rational value is exact"
            )
        return Fraction(int(r))
    raise ValidationError(f"cannot interpret frequency ratio {r!r}")


@dataclass(frozen=True)
class DitherConfig:
    """Probing amplitude plus frequencies ``base_scale * ratio_i``."""

    amplitude: float
    ratios: tuple
    base_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "base_scale", float(self.base_scale))
        ratios = tuple(_as_fraction(r) for r in self.ratios)
        object.__setattr__(self, "ratios", ratios)
        for name in ("amplitude", "base_scale"):
            if not math.isfinite(getattr(self, name)):
                raise NonFiniteValue(f"dither {name} must be finite, got {getattr(self, name)!r}")
        if self.amplitude <= 0.0:
            raise NonPositiveAmplitude("dither amplitude must be positive")
        # the averaged model scales by a^2, the Newton demodulator by 16/a^2
        a2 = self.amplitude * self.amplitude
        if not (0.0 < a2 < math.inf and 16.0 / a2 < math.inf):
            raise NonFiniteValue(f"dither amplitude^2 and 16/amplitude^2 must be finite "
                                 f"and nonzero, got amplitude={self.amplitude!r}")
        if self.base_scale <= 0.0:
            raise ValidationError("base_scale must be positive")
        if not ratios:
            raise ValidationError("at least one dither frequency is required")
        if any(r <= 0 for r in ratios):
            raise ValidationError("frequency ratios must be positive")
        validate_frequencies(ratios)
        # read by every dither call and every field build, so built once; Python
        # floats overflow to inf without a warning, huge rationals raise
        try:
            omegas = np.array([self.base_scale * float(r) for r in ratios])
            period = signal_period(self)
        except OverflowError:
            omegas, period = np.array([math.inf]), math.inf
        if not (np.all(np.isfinite(omegas)) and math.isfinite(period)):
            raise NonFiniteValue("dither frequencies base_scale * ratios and their "
                                 "common period must be finite floats")
        omegas.flags.writeable = False
        object.__setattr__(self, "_omegas", omegas)

    @property
    def dimension(self) -> int:
        return len(self.ratios)

    def omegas(self) -> np.ndarray:
        """Frequencies in radians per unit time (a read-only array)."""
        return self._omegas

    @property
    def omega_max(self) -> float:
        return self.base_scale * float(max(self.ratios))


def validate_frequencies(ratios: Sequence) -> None:
    """Reject duplicate ratios and any pair summing to a third ratio.

    The checks use exact rational comparison.
    """
    ratios = tuple(_as_fraction(r) for r in ratios)
    n = len(ratios)
    for i, j in combinations(range(n), 2):
        if ratios[i] == ratios[j]:
            raise DuplicateFrequency(i, j)
    for i, j in combinations(range(n), 2):
        for k in range(n):
            if k == i or k == j:
                continue
            if ratios[i] + ratios[j] == ratios[k]:
                raise ResonantTriple(i, j, k)


def smooth_max(x, delta: float):
    """Softened positive part (x + sqrt(x^2 + delta)) / 2.

    Positive in exact arithmetic, exceeding max(x, 0) by at most
    sqrt(delta)/2 (the gap peaks at x = 0).  Keeping the output positive is
    what lets the safety filter gain stay differentiable.  In floating point
    the sum cancels for very negative x: the exact value is about
    delta / (4 |x|), but ``smooth_max(-1e5, 1e-3)`` is 0.17% off it and
    ``smooth_max(-1e9, 1e-3)`` is 0.0.  The form is kept as it is because
    every recorded trajectory is computed with it.
    """
    if delta <= 0.0:
        raise NonPositiveDelta("delta must be positive")
    x = np.asarray(x, dtype=float)
    out = 0.5 * (x + np.sqrt(x * x + delta))
    return float(out) if out.ndim == 0 else out


def dither(cfg: DitherConfig, t) -> np.ndarray:
    """Probing signal, component i equal to a*sin(omega_i t); for a vector
    of times, one column per time."""
    return cfg.amplitude * np.sin(np.multiply.outer(cfg.omegas(), t))


def common_period(cfg: DitherConfig) -> float:
    """Common period of sin(ratio_i * tau) in the normalized phase tau.

    Computed exactly as 2*pi*lcm(q_i)/gcd(p_i) for ratios p_i/q_i in lowest
    terms.  Divide by ``base_scale`` for the period in plant time; see
    :func:`signal_period`.
    """
    num = math.gcd(*(r.numerator for r in cfg.ratios))
    den = math.lcm(*(r.denominator for r in cfg.ratios))
    return 2.0 * math.pi * den / num


def signal_period(cfg: DitherConfig) -> float:
    """Interval after which the dither and demodulation signals repeat."""
    return common_period(cfg) / cfg.base_scale
