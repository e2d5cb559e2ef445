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

States are component-major.  One run is one ``(size,)`` vector, with one
attractivity rate, its config's ``c``.  The dithered field also evaluates
a ``(size, B)`` array, one state per column, each at its own time: the
averaging oracle (:func:`asfes.integrate.numeric_average`) takes all its
quadrature nodes in one such call.  The layout's slices and indices
address both shapes the same way.

The dithered, averaged and reduced fields are each written once, as an
expression template: a generator emits the source of the field with every
component unrolled for the dimension n (and, for the dithered field, the
variant), and the source is compiled once per model, n and shape.  One
state is computed on Python floats, a list in and a list out; the
dithered field's columns are computed on their ``(B,)`` rows with numpy.
A 1-D array goes through the float shape and comes back as an array.
The integrator writes the dithered field's body straight into its
generated RK4 loop (see :mod:`asfes.integrate`).  On a few components
numpy's per-call cost, not the arithmetic, sets the price of a call: one
n = 2 call of the dithered field on one state costs about 2 us as a list
and 70 us as the rows of a ``(size, 1)`` array (``timeit`` minimum on a
shared 2-core VM, Python 3.11).  Every sum runs left to right and no
matrix product is taken, so each column is bit for bit the state
computed alone.

theta = theta_hat + S(t) is the point actually fed to the plant maps; it is
derived, never stored.
"""

from __future__ import annotations

import enum
import functools
import math
import types
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NonFiniteValue, NotScalar, ValidationError
from .problem import PlantModel
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
            if np.ndim(getattr(self, name)) != 0:
                raise ValidationError(f"{name} must be one number, got {getattr(self, name)!r}")
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
    ``(size,)`` and a ``(size, B)`` array of states alike; ``gamma_newton``
    is None without the Newton block, and ``blocks`` holds the positions in
    order.
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
        """The state with the values of :attr:`blocks`, in order."""
        vec = np.empty(self.size)
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


# ---- the fields' expression template ------------------------------------------
#
# Each field is written once, below, as the source of one function with every
# component unrolled for the dimension n.  Every sum runs left to right and is
# fully parenthesised, so one column's value never depends on the columns
# around it.  One source serves two shapes, which differ only in the names
# the function finds in its namespace and in how the result is assembled:
#
# * floats: one state as a list of Python floats, with math's sin and sqrt;
#   the function returns a list;
# * rows: a component-major ``(size, B)`` array of states, each component a
#   ``(B,)`` row, with numpy's sin and sqrt; the function returns a
#   ``(size, B)`` array.  Only the dithered field is built in this shape,
#   for the averaging oracle.
#
# math.sin and math.sqrt round as numpy's do, so a column is bit for bit the
# state computed alone.  Plant and design constants are bound through the
# namespace as well, never written into the source, so each source is
# compiled once per (model, n, shape).

_SHAPES = {"floats": {"sin": math.sin, "sqrt": math.sqrt},
           "rows": {"sin": np.sin, "sqrt": np.sqrt, "array": np.array}}
# smooth_max(arg, delta), as the fields write it
_SOFT_MAX = "(0.5 * (arg + sqrt(((arg * arg) + delta))))"


def _sum(terms: list) -> str:
    total = terms[0]
    for term in terms[1:]:
        total = f"({total} + {term})"
    return total


def _dot(left: str, right: str, n: int) -> str:
    """sum_i left_i * right_i, the component names as format strings of i."""
    return _sum([f"({left.format(i)} * {right.format(i)})" for i in range(n)])


def _hessian_times(x: str, i: int, n: int) -> str:
    """Component i of H x."""
    return _sum([f"(H{i}_{j} * {x.format(j)})" for j in range(n)])


def _field_parts(model: str, n: int) -> tuple:
    """``(parameters, state names, body lines, result expressions)`` of one
    field: ``model`` is a :class:`Variant` value or ``"average"`` or
    ``"reduced"``.  The body reads the state through its names, which the
    last parameter unpacks into."""
    idx = range(n)
    if model == "reduced":
        # -k H x + h1/||h1||^2 * smooth_max(k x'H h1 - c (h0 + h1'x), delta)
        lines = [f"hx{i} = {_hessian_times('x{}', i, n)}" for i in idx]
        lines.append(f"arg = ((k * {_dot('hx{}', 'h1_{}', n)}) - "
                     f"(c * (h0 + {_dot('h1_{}', 'x{}', n)})))")
        lines.append(f"s = {_SOFT_MAX}")
        return (["x"], [f"x{i}" for i in idx], lines,
                [f"((neg_k * hx{i}) + (p{i} * s))" for i in idx])

    newton = model == Variant.NEWTON_ASFES.value
    state = ([f"th{i}" for i in idx] + [f"gj{i}" for i in idx] + ["eta_j"]
             + [f"gh{i}" for i in idx] + ["eta_h", "gamma"] + (["big_gamma"] if newton else []))
    lines = []
    if model == "average":
        # the state's theta block is theta_tilde; the filters relax to their
        # period averages, eta_J with the probing bias
        lines += [f"g{i} = {_hessian_times('th{}', i, n)}" for i in idx]
        lines.append(f"jv = (j_star + (0.5 * {_dot('th{}', 'g{}', n)}))")
        lines.append(f"hv = (h0 + {_dot('h1_{}', 'th{}', n)})")
        lines.append("e_j = ((jv + trace_term) - eta_j)")
        gj_rows = [f"(wf * (g{i} - gj{i}))" for i in idx]
        gh_rows = [f"(wf * (h1_{i} - gh{i}))" for i in idx]
    else:
        # the plant is probed at theta_hat + a sin(omega t); the filters
        # low-pass the measurements demodulated by (2/a) sin(omega t)
        lines += [f"s{i} = sin((w{i} * t))" for i in idx]
        lines += [f"d{i} = ((th{i} + (a * s{i})) - ts{i})" for i in idx]
        lines += [f"hd{i} = {_hessian_times('d{}', i, n)}" for i in idx]
        lines.append(f"jv = (j_star + (0.5 * {_dot('d{}', 'hd{}', n)}))")
        lines.append(f"hv = (h0 + {_dot('h1_{}', 'd{}', n)})")
        lines += [f"m{i} = (two_over_a * s{i})" for i in idx]
        lines.append("e_j = (jv - eta_j)")
        gj_rows = [f"(wf * ((e_j * m{i}) - gj{i}))" for i in idx]
        gh_rows = [f"(wf * ((e_h * m{i}) - gh{i}))" for i in idx]
    lines.append("e_h = (hv - eta_h)")
    if model == Variant.CLASSICAL_ES.value:
        theta_rows = [f"(neg_k * gj{i})" for i in idx]
    else:
        # the gradient row plus the safety override
        # gamma * smooth_max(k G_J'G_h - c eta_h, delta) * G_h; the Newton
        # variant scales G_J by Gamma in both terms
        if newton:
            lines.append("arg = ((((k * big_gamma) * gj0) * gh0) - (c * eta_h))")
        else:
            lines.append(f"arg = ((k * {_dot('gj{}', 'gh{}', n)}) - (c * eta_h))")
        lines.append(f"safety = (gamma * {_SOFT_MAX})")
        gain = "(neg_k * big_gamma)" if newton else "neg_k"
        theta_rows = [f"(({gain} * gj{i}) + (safety * gh{i}))" for i in idx]
    rows = theta_rows + gj_rows + ["(wf * e_j)"] + gh_rows + [
        "(wf * e_h)", f"((wf * gamma) * (1.0 - (gamma * {_dot('gh{}', 'gh{}', n)})))"]
    if newton:
        # the Riccati row of Gamma, driven by the second-order demodulation
        # J (16/a^2)(sin^2(omega t) - 1/2) of the objective
        rows.append("((wf * big_gamma) * (1.0 - (((big_gamma * jv) * n_coef) "
                    "* ((s0 * s0) - 0.5))))")
    return (["y"] if model == "average" else ["t", "y"]), state, lines, rows


def _field_source(model: str, n: int, shape: str) -> str:
    """The source of one shape of a field (see the comment above
    :func:`_sum`)."""
    params, state, lines, rows = _field_parts(model, n)
    result = "[" + ",\n            ".join(rows) + "]"
    if shape == "rows":
        result = f"array({result})"
    unpack = f"{', '.join(state)}, = {params[-1]}"
    body = "\n".join(f"    {line}" for line in [unpack, *lines, f"return {result}"])
    return f"def {model}_{shape}({', '.join(params)}):\n{body}\n"


def _function_code(source: str, filename: str) -> types.CodeType:
    """The code of the one function ``source`` defines."""
    module = compile(source, filename, "exec")
    return next(const for const in module.co_consts if isinstance(const, types.CodeType))


@functools.cache
def _field_code(model: str, n: int, shape: str) -> types.CodeType:
    return _function_code(_field_source(model, n, shape), f"<asfes {model} field, n={n}>")


def _field(model: str, n: int, shape: str, constants: dict) -> Callable:
    """One shape of a field, bound to ``constants``."""
    return types.FunctionType(_field_code(model, n, shape), {**constants, **_SHAPES[shape]})


@functools.cache
def _names(prefix: str, n: int) -> tuple:
    """The names of the n components of a constant in the sources."""
    return tuple(f"{prefix}{i}" for i in range(n))


@functools.cache
def _plant_names(n: int) -> tuple:
    return ("j_star", "h0", *_names("h1_", n), *_names("ts", n),
            *(f"H{i}_{j}" for i in range(n) for j in range(n)))


def _plant_constants(plant: PlantModel) -> dict:
    """The plant's constants, as floats, by their names in the sources."""
    values = [plant.j_star, plant.h0, *plant.h1.tolist(), *plant.theta_star.tolist(),
              *plant.hessian.ravel().tolist()]
    return dict(zip(_plant_names(plant.dimension), values))


def _design_constants(cfg: AlgorithmConfig) -> dict:
    return {"k": cfg.k, "neg_k": -cfg.k, "c": float(cfg.c), "delta": cfg.delta,
            "wf": cfg.omega_f}


def _check_dimension(plant: PlantModel, cfg: AlgorithmConfig) -> int:
    n = plant.dimension
    if cfg.dimension != n:
        raise DimensionMismatch(
            f"dither has {cfg.dimension} frequencies, plant dimension is {n}"
        )
    return n


def make_rhs(plant: PlantModel, cfg: AlgorithmConfig) -> Callable:
    """Build ``f(t, y) -> dy`` for the dithered algorithm of ``cfg.variant``,
    with the attractivity rate ``cfg.c``.

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

    ``y`` is one state ``(size,)``, an array or a list of floats, and
    ``dy`` has its type.  A component-major ``(size, B)`` array of states
    gives ``(size, B)``; ``t`` may then be a vector of B times, one per
    column, as the averaging oracle passes its quadrature nodes.

    The arithmetic is the field's expression template, unrolled for n and
    the variant and built in two shapes: one state on Python floats (a list
    is read as it is, a 1-D array through ``tolist``) and the columns of a
    2-D array on their ``(B,)`` rows.  The closure returned only checks
    the state and picks the shape.  It also carries ``template``, the
    ``(model, n, constants)`` it was built from, so that the integrator
    can write the field's body into its generated RK4 loop.  One state's
    RK4 step in that loop takes about 6 us at n = 1, 8 at n = 2 and 11 at
    n = 3 (medians on a shared 2-core VM, Python 3.11; see
    ``BENCH_generated_loop.json``).
    """
    n = _check_dimension(plant, cfg)
    a = cfg.dither.amplitude
    constants = {**_plant_constants(plant), **_design_constants(cfg), "a": a,
                 "two_over_a": 2.0 / a, "n_coef": 16.0 / (a * a)}
    constants.update(zip(_names("w", n), cfg.dither.omegas().tolist()))
    floats, rows = (_field(cfg.variant.value, n, shape, constants) for shape in _SHAPES)
    size = StateLayout.of(n, cfg.variant is Variant.NEWTON_ASFES).size

    def rhs(t, y):
        if len(y) != size:
            raise DimensionMismatch(f"state vector of length {len(y)}, expected {size}")
        if type(y) is list:
            return floats(t, y)
        if y.ndim == 2:
            return rows(t, y)
        return np.array(floats(t, y.tolist()))

    rhs.template = (cfg.variant.value, n, constants)
    return rhs


def make_average_rhs(plant: PlantModel, cfg: AlgorithmConfig) -> Callable:
    """Build ``f(x) -> dx`` for the averaged dynamics (autonomous).

    The filter rows relax to H theta_tilde, J(theta_tilde + theta*) plus
    the probing bias (a^2/4) tr(H), h1, and h(theta_tilde + theta*); the
    parameter and gamma rows keep their original form.

    ``x`` is one state ``(size,)``, an array or a list of floats, and
    ``dx`` has its type.  It is computed on Python floats from the field's
    expression template, with the dithered field's left-to-right sums.
    """
    n = _check_dimension(plant, cfg)
    constants = {**_plant_constants(plant), **_design_constants(cfg),
                 # the probing bias on the filtered objective; analysis-side knowledge
                 "trace_term": 0.25 * cfg.dither.amplitude**2 * float(np.trace(plant.hessian))}
    floats = _field("average", n, "floats", constants)
    size = StateLayout.of(n).size

    def rhs(x):
        if len(x) != size:
            raise DimensionMismatch(f"state vector of length {len(x)}, expected {size}")
        if type(x) is list:
            return floats(x)
        return np.array(floats(x.tolist()))

    return rhs


def make_reduced_rhs(plant: PlantModel, cfg: AlgorithmConfig) -> Callable:
    """Build ``f(x) -> dx`` for the quasi-steady reduced model in the
    theta_tilde coordinate.

    Obtained by pinning every filter at its instantaneous fixed point:
    -k H x + h1/||h1||^2 * smooth_max(k x'H h1 - c (h0 + h1'x), delta).
    Along this field h satisfies dh/dt + c h > 0, so {h >= 0} is forward
    invariant and h decays no faster than exp(-c t).

    ``x`` is one point ``(n,)`` (any sequence; a number at n = 1), and the
    result is a list for a list of floats, an array otherwise.  It is
    computed on Python floats from the field's expression template.
    """
    n = plant.dimension
    h1 = plant.h1.tolist()
    q = h1[0] * h1[0]
    for v in h1[1:]:
        q = q + v * v
    constants = {**_plant_constants(plant), **_design_constants(cfg)}
    constants.update(zip(_names("p", n), [v / q for v in h1]))
    floats = _field("reduced", n, "floats", constants)

    def reduced(x):
        # a list of n floats, as the stepper passes it, is read as it is
        if type(x) is list and len(x) == n and all(type(v) is float for v in x):
            return floats(x)
        x = np.asarray(x, float)
        if x.ndim == 0:
            x = x.reshape(1)
        if x.shape != (n,):
            raise DimensionMismatch(f"theta_tilde_r has shape {x.shape}, expected ({n},)")
        return np.array(floats(x.tolist()))

    return reduced


# (plant, cfg, field) of the reduced field reduced_rhs built last
_last_reduced = (None, None, None)


def reduced_rhs(plant: PlantModel, cfg: AlgorithmConfig, theta_tilde_r) -> np.ndarray:
    """:func:`make_reduced_rhs` called once, as an array.

    The field built last is kept and called again while ``plant`` and
    ``cfg`` are the same objects, so a run stepped through this function
    builds its field once (about 3 us a call at n = 2, the array included,
    against 18 us with the build)."""
    global _last_reduced
    last = _last_reduced
    if last[0] is not plant or last[1] is not cfg:
        last = _last_reduced = (plant, cfg, make_reduced_rhs(plant, cfg))
    return np.asarray(last[2](theta_tilde_r))


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
