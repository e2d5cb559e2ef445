"""Right-hand sides for every model in the hierarchy.

Five systems share one state, whose blocks and their positions
:class:`StateLayout` holds:

* the dithered algorithm (gradient, Newton for one parameter, and the
  classical unconstrained baseline); the Newton variant adds the
  inverse-Hessian estimate Gamma as a last block;
* the averaged dynamics, the same layout in the error coordinate
  theta_tilde = theta_hat - theta*;
* the quasi-steady reduced model, the n-vector theta_tilde_r alone;
* the boundary-layer (fast filter transient) model, the layout's filter
  rows alone.

States are component-major.  One run is a ``(size,)`` vector; the dithered
algorithm also steps a batch of B runs as one ``(size, B)`` array, one
column per member, so the layout's slices and indices address both shapes
the same way.  Within a batch nothing is summed across members, so each
member's trajectory is bit-for-bit the one it has when run alone.

theta = theta_hat + S(t) is the point actually fed to the plant maps; it is
derived, never stored.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields, replace
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


@dataclass(frozen=True, eq=False)
class StateLayout:
    """Positions of the blocks of the algorithm state, in the order
    ``[theta, G_J, eta_J, G_h, eta_h, gamma(, Gamma)]``.

    Vector blocks are slices and scalar blocks ints, so they index a state
    ``(size,)`` and a batch ``(size, B)`` alike; ``gamma_newton`` is None
    without the Newton block, and ``blocks`` holds the positions in order.
    ``filters`` is every row after theta, which is also the boundary-layer
    state, and ``filter_names`` names those rows as CSV columns.  Build one
    with :meth:`of`, which makes each layout once.
    """

    n: int
    newton: bool
    theta: slice
    g_j: slice
    eta_j: int
    g_h: slice
    eta_h: int
    gamma: int
    gamma_newton: Optional[int]
    size: int
    filters: slice
    filter_names: tuple
    blocks: tuple

    @classmethod
    @functools.cache
    def of(cls, n: int, newton: bool = False) -> "StateLayout":
        blocks = (slice(0, n), slice(n, 2 * n), 2 * n, slice(2 * n + 1, 3 * n + 1),
                  3 * n + 1, 3 * n + 2) + ((3 * n + 3,) if newton else ())
        names = [f"g_j_{i + 1}" for i in range(n)] + ["eta_j"]
        names += [f"g_h_{i + 1}" for i in range(n)] + ["eta_h", "gamma"]
        names += ["gamma_newton"] if newton else []
        return cls(n, newton, *blocks[:6], blocks[6] if newton else None,
                   3 * n + 3 + int(newton), slice(n, None), tuple(names), blocks)

    def pack(self, values) -> np.ndarray:
        """The state with the values of :attr:`blocks`, in order; a batch
        ``(size, B)`` when the theta value is ``(n, B)``."""
        vec = np.empty((self.size,) + np.shape(values[0])[1:])
        for where, value in zip(self.blocks, values, strict=True):
            vec[where] = value
        return vec

    def unpack(self, vec) -> list:
        """The values of :attr:`blocks` in a state vector: copies of the
        vector blocks, floats for the scalar ones."""
        vec = np.asarray(vec, float)
        if vec.shape != (self.size,):
            raise DimensionMismatch(
                f"state vector of shape {vec.shape} does not match n={self.n}")
        return [vec[b].copy() if isinstance(b, slice) else float(vec[b]) for b in self.blocks]


class PackedBlocks:
    """Base of the state containers: a dataclass whose leading fields are
    the blocks of a :class:`StateLayout`, in order.  A ``gamma_newton``
    field left at None is an absent Newton block."""

    def __post_init__(self):
        vectors = [f.name for f, where in zip(fields(self), StateLayout.of(1).blocks)
                   if isinstance(where, slice)]
        for name in vectors:
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), float)))
        if any(getattr(self, name).shape != (self.dimension,) for name in vectors):
            raise DimensionMismatch(f"{', '.join(vectors)} must share one dimension")

    @property
    def dimension(self) -> int:
        return getattr(self, fields(self)[0].name).shape[0]

    def as_vector(self) -> np.ndarray:
        layout = StateLayout.of(self.dimension, getattr(self, "gamma_newton", None) is not None)
        return layout.pack([getattr(self, f.name) for f in fields(self)][:len(layout.blocks)])


class UnpackedBlocks(PackedBlocks):
    """A :class:`PackedBlocks` container that a state vector also builds."""

    @classmethod
    def from_vector(cls, vec, n: int):
        newton = (any(f.name == "gamma_newton" for f in fields(cls))
                  and np.shape(vec)[:1] == (StateLayout.of(n, True).size,))
        return cls(*StateLayout.of(n, newton).unpack(vec))


@dataclass(frozen=True)
class FullState(UnpackedBlocks):
    """Algorithm state; ``gamma_newton`` present only for the Newton variant."""

    theta_hat: np.ndarray
    g_j: np.ndarray
    eta_j: float
    g_h: np.ndarray
    eta_h: float
    gamma: float
    gamma_newton: Optional[float] = None


@dataclass(frozen=True)
class AverageState(UnpackedBlocks):
    """State of the averaged dynamics in the theta_tilde coordinate."""

    theta_tilde_a: np.ndarray
    g_j_a: np.ndarray
    eta_j_a: float
    g_h_a: np.ndarray
    eta_h_a: float
    gamma_a: float


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
    layout = StateLayout.of(n, newton)
    size = layout.size
    theta_at, gj_at, ej_at, gh_at = layout.theta, layout.g_j, layout.eta_j, layout.g_h
    eh_at, gamma_at, big_gamma_at = layout.eta_h, layout.gamma, layout.gamma_newton
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
        d = y[theta_at] + a * sins - ts                 # theta - theta* at the probe point
        jv = j_star + 0.5 * component_sum(d * hessian_product(hcols, d))
        hv = h0 + component_sum(h1s * d)
        m = two_over_a * sins
        gj = y[gj_at]
        eta_j = y[ej_at]
        gh = y[gh_at]
        eta_h = y[eh_at]
        gamma = y[gamma_at]
        out = np.empty(y.shape)
        if classical:
            out[theta_at] = -k * gj
        elif newton:
            big_gamma = y[big_gamma_at]
            s = sins[0]
            arg = k * big_gamma * gj[0] * gh[0] - c * eta_h
            out[theta_at] = -k * big_gamma * gj[0] + gamma * (0.5 * (arg + root(arg * arg + delta))) * gh[0]
            out[big_gamma_at] = wf * big_gamma * (1.0 - big_gamma * jv * n_coef * (s * s - 0.5))
        else:
            arg = k * component_sum(gj * gh) - c * eta_h
            out[theta_at] = -k * gj + gamma * (0.5 * (arg + root(arg * arg + delta))) * gh
        ej = jv - eta_j
        eh = hv - eta_h
        out[gj_at] = wf * (ej * m - gj)
        out[ej_at] = wf * ej
        out[gh_at] = wf * (eh * m - gh)
        out[eh_at] = wf * eh
        out[gamma_at] = wf * gamma * (1.0 - gamma * component_sum(gh * gh))
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
    th1, gj1, gh1 = theta_at.start, gj_at.start, gh_at.start   # one row per block
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
        d = y[th1] + a * s - ts0
        jv = j_star + 0.5 * h11 * d * d
        hv = h0 + h1s * d
        m = two_over_a * s
        gj, eta_j, gh, eta_h, gamma = y[gj1], y[ej_at], y[gh1], y[eh_at], y[gamma_at]
        out = np.empty(size)
        if classical:
            out[th1] = -k * gj
        elif newton:
            big_gamma = y[big_gamma_at]
            arg = k * big_gamma * gj * gh - c * eta_h
            out[th1] = -k * big_gamma * gj + gamma * (0.5 * (arg + sqrt(arg * arg + delta))) * gh
            out[big_gamma_at] = wf * big_gamma * (1.0 - big_gamma * jv * n_coef * (s * s - 0.5))
        else:
            arg = k * gj * gh - c * eta_h
            out[th1] = -k * gj + gamma * (0.5 * (arg + sqrt(arg * arg + delta))) * gh
        out[gj1] = wf * ((jv - eta_j) * m - gj)
        out[ej_at] = wf * (jv - eta_j)
        out[gh1] = wf * ((hv - eta_h) * m - gh)
        out[eh_at] = wf * (hv - eta_h)
        out[gamma_at] = wf * gamma * (1.0 - gamma * gh * gh)
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
    layout = StateLayout.of(n)
    size = layout.size
    theta_at, gj_at, ej_at, gh_at = layout.theta, layout.g_j, layout.eta_j, layout.g_h
    eh_at, gamma_at = layout.eta_h, layout.gamma
    sqrt = math.sqrt

    def rhs(x: np.ndarray) -> np.ndarray:
        if x.shape[0] != size:
            raise DimensionMismatch(
                f"state vector of length {x.shape[0]}, expected {size}"
            )
        tt = x[theta_at]
        gj = x[gj_at]
        eta_j = x[ej_at]
        gh = x[gh_at]
        eta_h = x[eh_at]
        gamma = x[gamma_at]
        h_tt = hess @ tt
        jv = j_star + 0.5 * float(tt @ h_tt)
        hv = h0 + float(h1 @ tt)
        out = np.empty(size)
        arg = k * float(gj @ gh) - c * eta_h
        out[theta_at] = -k * gj + gamma * (0.5 * (arg + sqrt(arg * arg + delta))) * gh
        out[gj_at] = wf * (h_tt - gj)
        out[ej_at] = wf * (jv + trace_term - eta_j)
        out[gh_at] = wf * (h1 - gh)
        out[eh_at] = wf * (hv - eta_h)
        out[gamma_at] = wf * gamma * (1.0 - gamma * float(gh @ gh))
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
    layout = StateLayout.of(h1.shape[0])
    y = np.zeros(layout.size)              # z in the filter rows of a full state
    if z.shape != y[layout.filters].shape:
        raise DimensionMismatch(
            f"boundary-layer state has shape {z.shape}, expected {y[layout.filters].shape}"
        )
    y[layout.filters] = z
    gamma_eq = 1.0 / float(h1 @ h1)
    out = -y
    g = y[layout.gamma] + gamma_eq
    gh = y[layout.g_h] + h1
    out[layout.gamma] = g * (1.0 - g * float(gh @ gh))
    return out[layout.filters]
