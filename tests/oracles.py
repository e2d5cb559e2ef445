"""Demodulation signals written out independently of the package, whose
fields inline them: oracles for the filter and Riccati rows."""

import math

import numpy as np

from asfes.errors import NonPositiveAmplitude


def demod(cfg, t: float) -> np.ndarray:
    """Demodulation signal, component i equal to (2/a)*sin(omega_i t)."""
    return (2.0 / cfg.amplitude) * np.sin(cfg.omegas() * t)


def newton_demod(amplitude: float, omega: float, t: float) -> float:
    """Second-order demodulator (16/a^2)(sin^2(omega t) - 1/2), scalar case."""
    if amplitude <= 0.0:
        raise NonPositiveAmplitude("amplitude must be positive")
    s = math.sin(omega * t)
    return (16.0 / amplitude**2) * (s * s - 0.5)
