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
the same way.  At n = 1 the dithered field reads each block as one row
instead: a float for one state, a ``(B,)`` row for a batch.  The reduced
model likewise takes one point ``(n,)``, read as floats, or a batch
``(n, B)``, read as ``(B,)`` rows.

The integrator steps one state on Python floats and hands it to a field as
a list of floats (see :mod:`asfes.integrate`).  The dithered and averaged
fields then return a list, the reduced model an array; given an array,
each field returns an array.  Within a batch nothing is summed across
members, and every sum runs left to right, so each member's trajectory is
bit-for-bit the one it has when run alone.

theta = theta_hat + S(t) is the point actually fed to the plant maps; it is
derived, never stored.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NotScalar, ValidationError
from .problem import PlantModel, component_sum, hessian_columns, hessian_product
from .signals import DitherConfig


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


@dataclass(frozen=True)
class FullState(PackedBlocks):
    """Algorithm state; ``gamma_newton`` present only for the Newton variant."""

    theta_hat: np.ndarray
    g_j: np.ndarray
    eta_j: float
    g_h: np.ndarray
    eta_h: float
    gamma: float
    gamma_newton: Optional[float] = None

    @classmethod
    def from_vector(cls, vec, n: int) -> "FullState":
        newton = np.shape(vec)[:1] == (StateLayout.of(n, True).size,)
        return cls(*StateLayout.of(n, newton).unpack(vec))


def _rates(c):
    """The attractivity rate a field takes: a float, or a ``(B,)`` array of
    finite positive rates, one per batch member."""
    if type(c) is float:        # reduced_rhs's per-call case; np.ndim costs about 1 us
        return c
    if np.ndim(c) == 0:
        return float(c)
    c = np.asarray(c, float)
    if c.ndim != 1 or not np.all(np.isfinite(c)) or np.any(c <= 0.0):
        raise ValidationError("c must be finite and strictly positive, one value per member")
    return c


def _check_members(c: np.ndarray, y) -> None:
    """Per-member rates ``c`` need a batch ``y`` of as many members."""
    shape = np.shape(y)
    if len(shape) != 2 or shape[1] != c.shape[0]:
        given = "one state" if len(shape) == 1 else f"a batch of {shape[1]}"
        raise DimensionMismatch(
            f"c holds one rate per member, {c.shape[0]} in all, for {given}")


def make_rhs(plant: PlantModel, cfg: AlgorithmConfig, c=None) -> Callable:
    """Build ``f(t, y) -> dy`` for the dithered algorithm of ``cfg.variant``.

    The parameter row depends on the variant:

    * gradient: -k G_J plus the safety override
      gamma * smooth_max(k G_J'G_h - c eta_h, delta) * G_h;
    * Newton (one parameter only): k Gamma G_J in place of k G_J in both
      terms, and Gamma obeys the Riccati row
      omega_f Gamma (1 - Gamma J N(t)), driven by the second-order
      demodulation N(t) = (16/a^2)(sin^2(omega t) - 1/2) of the objective,
      whose period average equals the Hessian;
    * classical: -k G_J with no safety term.  The barrier filters are still
      integrated so runs can report h along the trajectory; they do not
      influence the parameter.

    The four filter rows low-pass the demodulated objective and safety
    measurements, and gamma tracks 1/||G_h||^2 through its scalar Riccati
    equation.

    ``y`` is one state ``(size,)`` or a component-major batch ``(size, B)``,
    and ``dy`` has its shape.  One state may also be a list of floats, as
    the integrator passes it, and ``dy`` is then a list too.  For a batch,
    ``t`` may also be a vector of B times, one per member.  ``c`` overrides
    ``cfg.c``: a scalar, or one attractivity rate per batch member.

    One closure serves every dimension and both shapes.  At n = 1 each block
    is a single row, which the closure reads as a Python float for one state
    (straight from a list, with no array made on the way) and as a ``(B,)``
    row for a batch.  At n >= 2 the blocks are ``(n,)`` or ``(n, B)``, and
    component sums run left to right; a list's scalar blocks are read as
    floats, its vector blocks from an array made of it, and ``dy`` is made
    a list on the way out.  Everything constant is
    hoisted out of the closure; the integrator calls it a few hundred
    thousand times per run.
    """
    n = plant.dimension
    if cfg.dimension != n:
        raise DimensionMismatch(
            f"dither has {cfg.dimension} frequencies, plant dimension is {n}"
        )
    c = _rates(cfg.c if c is None else c)
    per_member = not isinstance(c, float)

    theta_star = plant.theta_star
    j_star = plant.j_star
    h0 = plant.h0
    h1 = plant.h1
    k, delta, wf = cfg.k, cfg.delta, cfg.omega_f
    a = cfg.dither.amplitude
    omegas = cfg.dither.omegas()
    two_over_a = 2.0 / a
    newton = cfg.variant is Variant.NEWTON_ASFES
    classical = cfg.variant is Variant.CLASSICAL_ES
    layout = StateLayout.of(n, newton)
    size = layout.size
    theta_at, gj_at, ej_at, gh_at = layout.theta, layout.g_j, layout.eta_j, layout.g_h
    eh_at, gamma_at, big_gamma_at = layout.eta_h, layout.gamma, layout.gamma_newton
    n_coef = 16.0 / (a * a)
    rows = n == 1
    if rows:
        # at n = 1 each block is one row: a float for one state (read from
        # the list, or from y.tolist(), with math's sin and sqrt keeping it
        # one; far cheaper than numpy scalars) and a (B,) view for a batch,
        # so a component sum is the row itself and H d is h11 * d
        theta_at, gj_at, gh_at = theta_at.start, gj_at.start, gh_at.start
        total, hessian_times = operator.pos, operator.mul
        consts = (float(omegas[0]), float(theta_star[0]), float(h1[0]), float(plant.hessian[0, 0]))
        shaped = {1: consts + (math.sin, math.sqrt), 2: consts + (np.sin, np.sqrt)}
    else:
        # per-component constants shaped for one state (ndim 1) or a batch
        # (ndim 2); on one state the component sums are Python floats, and
        # math.sqrt rounds as np.sqrt does
        total, hessian_times = component_sum, hessian_product
        shaped = {
            ndim: (omegas.reshape(shape), theta_star.reshape(shape), h1.reshape(shape),
                   hessian_columns(plant.hessian, ndim), np.sin, root)
            for ndim, shape, root in ((1, (n,), math.sqrt), (2, (n, 1), np.sqrt))
        }

    def rhs(t, y):
        if len(y) != size:
            raise DimensionMismatch(f"state vector of length {len(y)}, expected {size}")
        listed = type(y) is list
        if per_member:
            _check_members(c, y)
        ndim = 1 if listed else y.ndim
        floats = rows and ndim == 1
        w, ts, h1s, hcols, sin, root = shaped[ndim]
        # a list's scalar blocks are read as floats, and so is every block at
        # n = 1; a list's vector blocks at n >= 2 come from an array of it
        scalars = y.tolist() if floats and not listed else y
        blocks = scalars if floats else (np.array(y) if listed else y)
        sins = sin(w * t)
        d = blocks[theta_at] + a * sins - ts            # theta - theta* at the probe point
        jv = j_star + 0.5 * total(d * hessian_times(hcols, d))
        hv = h0 + total(h1s * d)
        m = two_over_a * sins
        gj = blocks[gj_at]
        eta_j = scalars[ej_at]
        gh = blocks[gh_at]
        eta_h = scalars[eh_at]
        gamma = scalars[gamma_at]
        out = [0.0] * size if floats else np.empty(blocks.shape)
        if classical:
            out[theta_at] = -k * gj
        elif newton:
            big_gamma = blocks[big_gamma_at]
            arg = k * big_gamma * gj * gh - c * eta_h
            out[theta_at] = -k * big_gamma * gj + gamma * (0.5 * (arg + root(arg * arg + delta))) * gh
            out[big_gamma_at] = wf * big_gamma * (1.0 - big_gamma * jv * n_coef * (sins * sins - 0.5))
        else:
            arg = k * total(gj * gh) - c * eta_h
            out[theta_at] = -k * gj + gamma * (0.5 * (arg + root(arg * arg + delta))) * gh
        ej = jv - eta_j
        eh = hv - eta_h
        out[gj_at] = wf * (ej * m - gj)
        out[ej_at] = wf * ej
        out[gh_at] = wf * (eh * m - gh)
        out[eh_at] = wf * eh
        out[gamma_at] = wf * gamma * (1.0 - gamma * total(gh * gh))
        if floats != listed:
            return np.array(out) if floats else out.tolist()
        return out

    return rhs


def make_average_rhs(plant: PlantModel, cfg: AlgorithmConfig) -> Callable:
    """Build ``f(x) -> dx`` for the averaged dynamics (autonomous).

    The filter rows relax to H theta_tilde, J(theta_tilde + theta*) plus
    the probing bias (a^2/4) tr(H), h1, and h(theta_tilde + theta*); the
    parameter and gamma rows keep their original form.

    ``x`` is one state ``(size,)``, an array or a list of floats, and
    ``dx`` has its type.
    """
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

    def rhs(x):
        if len(x) != size:
            raise DimensionMismatch(f"state vector of length {len(x)}, expected {size}")
        listed = type(x) is list
        if listed:
            x = np.array(x)
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
        return out.tolist() if listed else out

    return rhs


def reduced_rhs(plant: PlantModel, cfg: AlgorithmConfig, theta_tilde_r, c=None) -> np.ndarray:
    """Quasi-steady reduced model in the theta_tilde coordinate.

    Obtained by pinning every filter at its instantaneous fixed point:
    -k H x + h1/||h1||^2 * smooth_max(k x'H h1 - c (h0 + h1'x), delta).
    Along this field h satisfies dh/dt + c h > 0, so {h >= 0} is forward
    invariant and h decays no faster than exp(-c t).

    ``theta_tilde_r`` is one point ``(n,)`` (any sequence; a number at
    n = 1) or a component-major batch ``(n, B)``, and the result has its
    shape.  ``c`` overrides ``cfg.c`` as in :func:`make_rhs`: a scalar, or
    one rate per batch member.  One point is computed on Python floats and
    a batch on its ``(B,)`` rows, with the same left-to-right sums, so each
    member is bit-for-bit its one-point value.  The result is an array,
    also for a list of floats, which is read without a conversion.
    """
    n = plant.dimension
    x = theta_tilde_r
    # one point is read as Python floats (math.sqrt rounds as np.sqrt does):
    # far cheaper than numpy on a few components.  A list of n floats, as
    # the stepper passes it, is read as it is.
    if not (type(x) is list and len(x) == n and all(type(v) is float for v in x)):
        x = np.asarray(theta_tilde_r, float)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.ndim > 2 or x.shape[0] != n:
            raise DimensionMismatch(
                f"theta_tilde_r has shape {x.shape}, expected ({n},) or ({n}, B)")
        if x.ndim == 1:
            x = x.tolist()
    c = _rates(cfg.c if c is None else c)
    if not isinstance(c, float):
        _check_members(c, x)
    root = math.sqrt if type(x) is list else np.sqrt
    k = cfg.k
    h1 = plant.h1.tolist()
    # every sum left to right, none by BLAS or pairwise, so that nothing
    # depends on the batch around a member
    hx = []
    for row in plant.hessian.tolist():
        total = row[0] * x[0]
        for j in range(1, n):
            total = total + row[j] * x[j]
        hx.append(total)
    hx_h1, h1_x, q = hx[0] * h1[0], h1[0] * x[0], h1[0] * h1[0]
    for i in range(1, n):
        hx_h1 = hx_h1 + hx[i] * h1[i]
        h1_x = h1_x + h1[i] * x[i]
        q = q + h1[i] * h1[i]
    arg = k * hx_h1 - c * (plant.h0 + h1_x)
    s = 0.5 * (arg + root(arg * arg + cfg.delta))          # smooth_max(arg, delta)
    return np.array([-k * hx_i + (h1_i / q) * s for hx_i, h1_i in zip(hx, h1)])


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
