"""Right-hand sides for every model in the hierarchy.

Five systems share one state convention:

* the dithered algorithm (gradient, Newton for one parameter, and the
  classical unconstrained baseline), state
  ``[theta_hat, G_J, eta_J, G_h, eta_h, gamma(, Gamma)]`` of size 3n+3
  (3n+4 with the Newton inverse-Hessian estimate Gamma);
* the averaged dynamics in the error coordinate theta_tilde = theta_hat -
  theta*, same layout, size 3n+3;
* the quasi-steady reduced model, the n-vector theta_tilde_r alone;
* the boundary-layer (fast filter transient) model of size 2n+3.

States are component-major.  One run is a ``(size,)`` vector; the dithered
algorithm also steps a batch of B runs as one ``(size, B)`` array, one
column per member, so ``y[:n]``, ``y[2 * n]`` and the other rows index both
shapes the same way.  Within a batch nothing is summed across members, so
each member's trajectory is bit-for-bit the one it has when run alone.

theta = theta_hat + S(t) is the point actually fed to the plant maps; it is
derived, never stored.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NotScalar, ValidationError
from .problem import PlantModel, component_sum, hessian_columns, hessian_product
from .signals import DitherConfig, smooth_max


class Variant(enum.Enum):
    ASFES = "asfes"
    NEWTON_ASFES = "newton"
    CLASSICAL_ES = "classical"


@dataclass(frozen=True)
class AlgorithmConfig:
    """Design constants: adaptation gain k, attractivity rate c, softening
    delta, filter gain omega_f, plus the dither and the variant selector."""

    k: float
    c: float
    delta: float
    omega_f: float
    dither: DitherConfig
    variant: Variant = Variant.ASFES

    def __post_init__(self):
        for name in ("k", "c", "delta", "omega_f"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise NonFiniteValue(f"{name} must be finite, got {value!r}")
            if value <= 0.0:
                raise ValidationError(f"{name} must be strictly positive")
        if self.variant is Variant.NEWTON_ASFES and self.dither.dimension != 1:
            raise NotScalar(
                "the Newton-based variant is only defined for one parameter"
            )

    @property
    def dimension(self) -> int:
        return self.dither.dimension

    def with_variant(self, variant: Variant) -> "AlgorithmConfig":
        return replace(self, variant=variant)


def state_size(n: int, newton: bool = False) -> int:
    return 3 * n + 3 + int(newton)


@dataclass(frozen=True)
class FullState:
    """Algorithm state; ``gamma_newton`` present only for the Newton variant."""

    theta_hat: np.ndarray
    g_j: np.ndarray
    eta_j: float
    g_h: np.ndarray
    eta_h: float
    gamma: float
    gamma_newton: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", np.atleast_1d(np.asarray(self.theta_hat, float)))
        object.__setattr__(self, "g_j", np.atleast_1d(np.asarray(self.g_j, float)))
        object.__setattr__(self, "g_h", np.atleast_1d(np.asarray(self.g_h, float)))
        n = self.theta_hat.shape[0]
        if self.g_j.shape != (n,) or self.g_h.shape != (n,):
            raise DimensionMismatch("theta_hat, g_j and g_h must share one dimension")

    @property
    def dimension(self) -> int:
        return self.theta_hat.shape[0]

    def as_vector(self) -> np.ndarray:
        parts = [self.theta_hat, self.g_j, [self.eta_j], self.g_h,
                 [self.eta_h], [self.gamma]]
        if self.gamma_newton is not None:
            parts.append([self.gamma_newton])
        return np.concatenate([np.asarray(p, float) for p in parts])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int) -> "FullState":
        vec = np.asarray(vec, float)
        if vec.shape[0] == state_size(n, newton=True):
            gamma_newton = float(vec[3 * n + 3])
        elif vec.shape[0] == state_size(n):
            gamma_newton = None
        else:
            raise DimensionMismatch(
                f"state vector of length {vec.shape[0]} does not match n={n}"
            )
        return cls(
            theta_hat=vec[:n].copy(),
            g_j=vec[n:2 * n].copy(),
            eta_j=float(vec[2 * n]),
            g_h=vec[2 * n + 1:3 * n + 1].copy(),
            eta_h=float(vec[3 * n + 1]),
            gamma=float(vec[3 * n + 2]),
            gamma_newton=gamma_newton,
        )


@dataclass(frozen=True)
class AverageState:
    """State of the averaged dynamics in the theta_tilde coordinate."""

    theta_tilde_a: np.ndarray
    g_j_a: np.ndarray
    eta_j_a: float
    g_h_a: np.ndarray
    eta_h_a: float
    gamma_a: float

    def __post_init__(self):
        object.__setattr__(self, "theta_tilde_a", np.atleast_1d(np.asarray(self.theta_tilde_a, float)))
        object.__setattr__(self, "g_j_a", np.atleast_1d(np.asarray(self.g_j_a, float)))
        object.__setattr__(self, "g_h_a", np.atleast_1d(np.asarray(self.g_h_a, float)))
        n = self.theta_tilde_a.shape[0]
        if self.g_j_a.shape != (n,) or self.g_h_a.shape != (n,):
            raise DimensionMismatch("theta_tilde_a, g_j_a and g_h_a must share one dimension")

    @property
    def dimension(self) -> int:
        return self.theta_tilde_a.shape[0]

    def as_vector(self) -> np.ndarray:
        return np.concatenate([
            self.theta_tilde_a, self.g_j_a, [self.eta_j_a],
            self.g_h_a, [self.eta_h_a], [self.gamma_a],
        ])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n: int) -> "AverageState":
        vec = np.asarray(vec, float)
        if vec.shape[0] != state_size(n):
            raise DimensionMismatch(
                f"state vector of length {vec.shape[0]} does not match n={n}"
            )
        return cls(
            theta_tilde_a=vec[:n].copy(),
            g_j_a=vec[n:2 * n].copy(),
            eta_j_a=float(vec[2 * n]),
            g_h_a=vec[2 * n + 1:3 * n + 1].copy(),
            eta_h_a=float(vec[3 * n + 1]),
            gamma_a=float(vec[3 * n + 2]),
        )


def make_rhs(plant: PlantModel, cfg: AlgorithmConfig,
             variant: Optional[Variant] = None,
             c=None) -> Callable[[float, np.ndarray], np.ndarray]:
    """Build ``f(t, y) -> dy`` for the dithered algorithm.

    ``y`` is one state ``(size,)`` or a component-major batch ``(size, B)``,
    and ``dy`` has its shape.  For a batch, ``t`` may also be a vector of B
    times, one per member.  ``c`` overrides ``cfg.c``: a scalar, or one
    attractivity rate per batch member.

    Everything constant is hoisted out of the returned closure; the
    integrator calls it a few hundred thousand times per run.
    """
    variant = cfg.variant if variant is None else variant
    n = plant.dimension
    if cfg.dimension != n:
        raise DimensionMismatch(
            f"dither has {cfg.dimension} frequencies, plant dimension is {n}"
        )
    if variant is Variant.NEWTON_ASFES and n != 1:
        raise NotScalar("the Newton-based variant is only defined for one parameter")
    c = cfg.c if c is None else c
    if np.ndim(c) == 0:
        c = float(c)
    else:
        c = np.asarray(c, float)
        if c.ndim != 1 or not np.all(np.isfinite(c)) or np.any(c <= 0.0):
            raise ValidationError("c must be finite and strictly positive, one value per member")

    theta_star = plant.theta_star
    j_star = plant.j_star
    h0 = plant.h0
    h1 = plant.h1
    k, delta, wf = cfg.k, cfg.delta, cfg.omega_f
    a = cfg.dither.amplitude
    omegas = cfg.dither.omegas()
    two_over_a = 2.0 / a
    newton = variant is Variant.NEWTON_ASFES
    classical = variant is Variant.CLASSICAL_ES
    size = state_size(n, newton=newton)
    n_coef = 16.0 / (a * a)
    # per-component constants shaped for one state (ndim 1) or a batch (ndim 2)
    shaped = {
        ndim: (omegas.reshape(shape), theta_star.reshape(shape), h1.reshape(shape),
               hessian_columns(plant.hessian, ndim))
        for ndim, shape in ((1, (n,)), (2, (n, 1)))
    }

    def rhs(t, y: np.ndarray) -> np.ndarray:
        if y.shape[0] != size:
            raise DimensionMismatch(
                f"state vector of length {y.shape[0]}, expected {size}"
            )
        w, ts, h1s, hcols = shaped[y.ndim]
        # one state: the sums below are Python floats, and math.sqrt rounds
        # as np.sqrt does
        root = math.sqrt if y.ndim == 1 else np.sqrt
        sins = np.sin(w * t)
        d = y[:n] + a * sins - ts                  # theta - theta* at the probe point
        jv = j_star + 0.5 * component_sum(d * hessian_product(hcols, d))
        hv = h0 + component_sum(h1s * d)
        m = two_over_a * sins
        gj = y[n:2 * n]
        eta_j = y[2 * n]
        gh = y[2 * n + 1:3 * n + 1]
        eta_h = y[3 * n + 1]
        gamma = y[3 * n + 2]
        out = np.empty(y.shape)
        if classical:
            out[:n] = -k * gj
        elif newton:
            big_gamma = y[3 * n + 3]
            s = sins[0]
            arg = k * big_gamma * gj[0] * gh[0] - c * eta_h
            out[0] = -k * big_gamma * gj[0] + gamma * (0.5 * (arg + root(arg * arg + delta))) * gh[0]
            out[3 * n + 3] = wf * big_gamma * (1.0 - big_gamma * jv * n_coef * (s * s - 0.5))
        else:
            arg = k * component_sum(gj * gh) - c * eta_h
            out[:n] = -k * gj + gamma * (0.5 * (arg + root(arg * arg + delta))) * gh
        ej = jv - eta_j
        eh = hv - eta_h
        out[n:2 * n] = wf * (ej * m - gj)
        out[2 * n] = wf * ej
        out[2 * n + 1:3 * n + 1] = wf * (eh * m - gh)
        out[3 * n + 1] = wf * eh
        out[3 * n + 2] = wf * gamma * (1.0 - gamma * component_sum(gh * gh))
        return out

    if n != 1 or not isinstance(c, float):
        return rhs

    # one state at n = 1: plain float arithmetic, about a tenth of the cost of
    # the array closure above; a property test pins it against a plain numpy
    # transcription of the field
    h11 = float(plant.hessian[0, 0])
    ts0 = float(theta_star[0])
    h1s = float(h1[0])
    om1 = float(omegas[0])
    sqrt = math.sqrt
    sin = math.sin

    def scalar_rhs(t, y: np.ndarray) -> np.ndarray:
        if y.ndim != 1:
            return rhs(t, y)
        if y.shape[0] != size:
            raise DimensionMismatch(
                f"state vector of length {y.shape[0]}, expected {size}"
            )
        s = sin(om1 * t)
        d = y[0] + a * s - ts0
        jv = j_star + 0.5 * h11 * d * d
        hv = h0 + h1s * d
        m = two_over_a * s
        gj, eta_j, gh, eta_h, gamma = y[1], y[2], y[3], y[4], y[5]
        out = np.empty(size)
        if classical:
            out[0] = -k * gj
        elif newton:
            big_gamma = y[6]
            arg = k * big_gamma * gj * gh - c * eta_h
            out[0] = -k * big_gamma * gj + gamma * (0.5 * (arg + sqrt(arg * arg + delta))) * gh
            out[6] = wf * big_gamma * (1.0 - big_gamma * jv * n_coef * (s * s - 0.5))
        else:
            arg = k * gj * gh - c * eta_h
            out[0] = -k * gj + gamma * (0.5 * (arg + sqrt(arg * arg + delta))) * gh
        out[1] = wf * ((jv - eta_j) * m - gj)
        out[2] = wf * (jv - eta_j)
        out[3] = wf * ((hv - eta_h) * m - gh)
        out[4] = wf * (hv - eta_h)
        out[5] = wf * gamma * (1.0 - gamma * gh * gh)
        return out

    return scalar_rhs


def _dispatch_state(plant, cfg, t, x, variant):
    f = make_rhs(plant, cfg, variant=variant)
    if isinstance(x, FullState):
        return FullState.from_vector(f(t, x.as_vector()), plant.dimension)
    return f(t, np.asarray(x, float))


def asfes_rhs(plant: PlantModel, cfg: AlgorithmConfig, t: float, x):
    """Time derivative of the safe-seeking algorithm.

    The parameter row is -k G_J plus the safety override
    gamma * smooth_max(k G_J'G_h - c eta_h, delta) * G_h; the four filter
    rows low-pass the demodulated objective and safety measurements, and
    gamma tracks 1/||G_h||^2 through its scalar Riccati equation.
    """
    return _dispatch_state(plant, cfg, t, x, Variant.ASFES)


def nb_asfes_rhs(plant: PlantModel, cfg: AlgorithmConfig, t: float, x):
    """Newton-based variant (one parameter only).

    The parameter row uses k*Gamma*G_J in place of k*G_J, and Gamma obeys
    the Riccati equation driven by the second-order demodulation of the
    objective, whose period average equals the Hessian.
    """
    return _dispatch_state(plant, cfg, t, x, Variant.NEWTON_ASFES)


def classical_es_rhs(plant: PlantModel, cfg: AlgorithmConfig, t: float, x):
    """Unconstrained baseline: parameter row -k G_J with no safety term.

    The barrier filter states are still integrated so runs can report h
    along the trajectory; they do not influence the parameter.
    """
    return _dispatch_state(plant, cfg, t, x, Variant.CLASSICAL_ES)


def make_average_rhs(plant: PlantModel, cfg: AlgorithmConfig) -> Callable[[np.ndarray], np.ndarray]:
    """Build ``f(x) -> dx`` for the averaged dynamics (autonomous)."""
    n = plant.dimension
    if cfg.dimension != n:
        raise DimensionMismatch(
            f"dither has {cfg.dimension} frequencies, plant dimension is {n}"
        )
    hess = plant.hessian
    j_star = plant.j_star
    h0 = plant.h0
    h1 = plant.h1
    k, c, delta, wf = cfg.k, cfg.c, cfg.delta, cfg.omega_f
    # the probing bias on the filtered objective; analysis-side knowledge
    trace_term = 0.25 * cfg.dither.amplitude**2 * float(np.trace(hess))
    size = state_size(n)
    sqrt = math.sqrt

    def rhs(x: np.ndarray) -> np.ndarray:
        if x.shape[0] != size:
            raise DimensionMismatch(
                f"state vector of length {x.shape[0]}, expected {size}"
            )
        tt = x[:n]
        gj = x[n:2 * n]
        eta_j = x[2 * n]
        gh = x[2 * n + 1:3 * n + 1]
        eta_h = x[3 * n + 1]
        gamma = x[3 * n + 2]
        h_tt = hess @ tt
        jv = j_star + 0.5 * float(tt @ h_tt)
        hv = h0 + float(h1 @ tt)
        out = np.empty(size)
        arg = k * float(gj @ gh) - c * eta_h
        out[:n] = -k * gj + gamma * (0.5 * (arg + sqrt(arg * arg + delta))) * gh
        out[n:2 * n] = wf * (h_tt - gj)
        out[2 * n] = wf * (jv + trace_term - eta_j)
        out[2 * n + 1:3 * n + 1] = wf * (h1 - gh)
        out[3 * n + 1] = wf * (hv - eta_h)
        out[3 * n + 2] = wf * gamma * (1.0 - gamma * float(gh @ gh))
        return out

    return rhs


def average_rhs(plant: PlantModel, cfg: AlgorithmConfig, xa):
    """Time derivative of the averaged dynamics.

    The filter rows relax to H theta_tilde, J(theta_tilde + theta*) plus
    the probing bias (a^2/4) tr(H), h1, and h(theta_tilde + theta*); the
    parameter and gamma rows keep their original form.
    """
    f = make_average_rhs(plant, cfg)
    if isinstance(xa, AverageState):
        return AverageState.from_vector(f(xa.as_vector()), plant.dimension)
    return f(np.asarray(xa, float))


def reduced_rhs(plant: PlantModel, cfg: AlgorithmConfig, theta_tilde_r) -> np.ndarray:
    """Quasi-steady reduced model in the theta_tilde coordinate.

    Obtained by pinning every filter at its instantaneous fixed point:
    -k H x + h1/||h1||^2 * smooth_max(k x'H h1 - c (h0 + h1'x), delta).
    Along this field h satisfies dh/dt + c h > 0, so {h >= 0} is forward
    invariant and h decays no faster than exp(-c t).
    """
    x = np.atleast_1d(np.asarray(theta_tilde_r, float))
    n = plant.dimension
    if x.shape != (n,):
        raise DimensionMismatch(f"theta_tilde_r has shape {x.shape}, expected ({n},)")
    h1 = plant.h1
    hx = plant.hessian @ x
    arg = cfg.k * float(hx @ h1) - cfg.c * (plant.h0 + float(h1 @ x))
    return -cfg.k * hx + (h1 / float(h1 @ h1)) * smooth_max(arg, cfg.delta)


def boundary_layer_rhs(z_b, h1) -> np.ndarray:
    """Fast filter transient in stretched time, for frozen slow states.

    The four filter blocks decay linearly; the last component is the gamma
    Riccati row shifted by its equilibrium 1/||h1||^2.  All 2n+3
    eigenvalues of the linearization at the origin equal -1.
    """
    z = np.atleast_1d(np.asarray(z_b, float))
    h1 = np.atleast_1d(np.asarray(h1, float))
    n = h1.shape[0]
    if z.shape != (2 * n + 3,):
        raise DimensionMismatch(
            f"boundary-layer state has shape {z.shape}, expected ({2 * n + 3},)"
        )
    gamma_eq = 1.0 / float(h1 @ h1)
    out = -z.copy()
    g = z[2 * n + 2] + gamma_eq
    gh = z[n + 1:2 * n + 1] + h1
    out[2 * n + 2] = g * (1.0 - g * float(gh @ gh))
    return out
