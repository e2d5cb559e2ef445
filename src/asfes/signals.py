"""The dither, the softened max, and period arithmetic.

The demodulation signals (2/a) sin(omega t) and the Newton variant's
(16/a^2)(sin^2(omega t) - 1/2) are written into the fields themselves (see
:mod:`asfes.dynamics`).

Frequencies are stored as exact rationals times a common base scale so that
admissibility (no duplicate frequencies, no pair summing to a third) and the
common period are decided in integer arithmetic rather than floating point.
"""

from __future__ import annotations

import functools
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
from .problem import finite_float


def _as_fraction(r) -> Fraction:
    if isinstance(r, float):
        if not r.is_integer():
            raise ValidationError(f"frequency ratio {r!r} is a non-integer float; pass a "
                                  "string or Fraction so the rational value is exact")
        r = int(r)
    if isinstance(r, (Fraction, int, str)):
        try:
            return Fraction(r)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"frequency ratio {r!r} is not a rational number") from None
    raise ValidationError(f"cannot interpret frequency ratio {r!r}")


@dataclass(frozen=True)
class DitherConfig:
    """Probing amplitude plus frequencies ``base_scale * ratio_i``.  The ratios are checked
    once per exact ratio tuple, by :func:`_frequency_facts`, which keeps no failed verdict."""

    amplitude: float
    ratios: tuple
    base_scale: float = 1.0

    def __post_init__(self):
        for name in ("amplitude", "base_scale"):
            object.__setattr__(self, name, finite_float(getattr(self, name), f"dither {name}"))
        if self.amplitude <= 0.0:
            raise NonPositiveAmplitude("dither amplitude must be positive")
        # the averaged model scales by a^2, the Newton demodulator by 16/a^2
        a2 = self.amplitude * self.amplitude
        if not (0.0 < a2 < math.inf and 16.0 / a2 < math.inf):
            raise NonFiniteValue(f"dither amplitude^2 and 16/amplitude^2 must be finite "
                                 f"and nonzero, got amplitude={self.amplitude!r}")
        if self.base_scale <= 0.0:
            raise ValidationError("base_scale must be positive")
        try:
            ratios = tuple(self.ratios)
            # keyed on the types too: 2.5 == Fraction(5, 2), but a float must not pass
            ratios, fundamental = _frequency_facts((tuple(map(type, ratios)), ratios))
        except TypeError:       # not a sequence, or an unhashable member: not numbers
            raise ValidationError(f"cannot interpret frequency ratios {self.ratios!r}") from None
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "_fundamental", fundamental)
        # read by every dither call and every field build, so built once; Python
        # floats overflow to inf without a warning, huge rationals raise
        try:
            omegas = np.array([self.base_scale * float(r) for r in ratios])
            period = signal_period(self)
        except OverflowError:
            omegas, period = np.array([math.inf]), math.inf
        if not (np.isfinite(omegas).all() and math.isfinite(period)):
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


@functools.lru_cache(maxsize=256)
def _frequency_facts(key: tuple) -> tuple:
    """``(Fraction ratios, fundamental ratio)`` of ``key``, ``(types, ratios)``."""
    ratios = tuple(_as_fraction(r) for r in key[1])
    if not ratios:
        raise ValidationError("at least one dither frequency is required")
    if any(r <= 0 for r in ratios):
        raise ValidationError("frequency ratios must be positive")
    validate_frequencies(ratios)
    return ratios, Fraction(math.gcd(*(r.numerator for r in ratios)),
                            math.lcm(*(r.denominator for r in ratios)))


def validate_frequencies(ratios: Sequence) -> None:
    """Reject duplicate ratios and any pair summing to a third ratio.

    The checks use exact rational comparison, each pair's sum looked up in a
    map from value to index; the error names the first pair in
    :func:`itertools.combinations` order.  DitherConfig caches the verdict.
    Ratios that are no sequence of numbers are a :class:`ValidationError`.
    """
    try:
        ratios = tuple(_as_fraction(r) for r in ratios)
    except TypeError:       # not iterable
        raise ValidationError(f"cannot interpret frequency ratios: a {type(ratios).__name__} "
                              "is no sequence") from None
    index = {}      # value -> its first index; the least repeat is the first equal pair
    repeats = sorted((i, j) for j, r in enumerate(ratios) if (i := index.setdefault(r, j)) != j)
    if repeats:
        raise DuplicateFrequency(*repeats[0])
    for i, j in combinations(range(len(ratios)), 2):
        k = index.get(ratios[i] + ratios[j])
        if k is not None and k != i and k != j:
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
    if not finite_float(delta, "delta") > 0.0:
        raise NonPositiveDelta("delta must be positive")
    x = np.asarray(x, dtype=float)
    out = 0.5 * (x + np.sqrt(x * x + delta))
    return float(out) if out.ndim == 0 else out


def dither(cfg: DitherConfig, t) -> np.ndarray:
    """Probing signal, component i equal to a*sin(omega_i t); for a vector
    of times, one column per time."""
    return cfg.amplitude * np.sin(np.multiply.outer(cfg.omegas(), t))


def fundamental_ratio(cfg: DitherConfig) -> Fraction:
    """omega_0 / base_scale: gcd(p_i)/lcm(q_i) for ratios p_i/q_i in lowest terms."""
    return cfg._fundamental


def common_period(cfg: DitherConfig) -> float:
    """Common period of sin(ratio_i * tau) in the normalized phase tau.

    Computed exactly as 2*pi*lcm(q_i)/gcd(p_i) for ratios p_i/q_i in lowest
    terms.  Divide by ``base_scale`` for the period in plant time; see
    :func:`signal_period`.
    """
    base = fundamental_ratio(cfg)
    return 2.0 * math.pi * base.denominator / base.numerator


def signal_period(cfg: DitherConfig) -> float:
    """Interval after which the dither and demodulation signals repeat."""
    return common_period(cfg) / cfg.base_scale
