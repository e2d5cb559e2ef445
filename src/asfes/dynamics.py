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
attractivity rate, its config's ``c``.  Every field takes one state, and the
layout's slices and indices address it.

The dithered, averaged and reduced fields are each written once, as an
expression template: a generator emits the source of the field with every
component unrolled for the dimension n (and, for the dithered field, the
variant), and the source is compiled once per model and n.  One binder
makes the field of every model, with one set of input rules: one state is
computed on Python floats, a list in and a list out, and any other one
state goes through the same floats and comes back as an array.  A list
of floats reaches the arithmetic through an entry generated per state
size, which tests the type of each item, one by one.  Every
field carries its template, size included, and the integrator writes its
body straight into its generated RK4 loop (see :mod:`asfes.integrate`).
Every sum runs left to right and no matrix product is taken, so a
state's value is bit for bit the same in every caller.

theta = theta_hat + S(t) is the point actually fed to the plant maps; it is
derived, never stored.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import types
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NotScalar, ValidationError
from .problem import PlantModel, component_sum, finite_float, real_array
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
            value = finite_float(getattr(self, name), name)
            if value <= 0.0:
                raise ValidationError(f"{name} must be strictly positive")
            object.__setattr__(self, name, value)
        if not isinstance(self.variant, Variant):
            raise ValidationError(f"variant must be a Variant, got {self.variant!r}")
        if self.variant is Variant.NEWTON_ASFES and self.dither.dimension != 1:
            raise NotScalar(
                "the Newton-based variant is only defined for one parameter"
            )

    @property
    def dimension(self) -> int:
        return self.dither.dimension

    def with_variant(self, variant: Variant) -> "AlgorithmConfig":
        return self if variant is self.variant else replace(self, variant=variant)


@dataclass(frozen=True, eq=False)
class StateLayout:
    """Positions of the blocks of the algorithm state, in the order
    ``[theta, G_J, eta_J, G_h, eta_h, gamma(, Gamma)]``.

    Vector blocks are slices and scalar blocks ints, which index a state
    ``(size,)``; ``gamma_newton`` is None without the Newton block, and
    ``blocks`` holds the positions in order.  ``filters`` is every row after
    theta, which is also the boundary-layer state, and ``filter_names``
    names those rows as CSV columns.  Build one with :meth:`of`, which makes
    each layout once.
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
        vector blocks, floats for the scalar ones.  A state that is not real
        numbers is a :class:`ValidationError`."""
        vec = real_array(vec, "a state")
        if vec.shape != (self.size,):
            raise DimensionMismatch(
                f"state vector of shape {vec.shape} does not match n={self.n}")
        return [vec[b].copy() if isinstance(b, slice) else float(vec[b]) for b in self.blocks]


class PackedBlocks:
    """Base of the state containers: a dataclass whose leading fields, in
    ``__dataclass_fields__`` order (no ``fields()`` walk), are the blocks of a
    :class:`StateLayout`.  A ``gamma_newton`` left at None is an absent Newton block.
    Vector blocks become float arrays and scalar blocks Python floats, which
    may be infinite; a block that is not real numbers is a
    :class:`ValidationError` naming it."""

    def __post_init__(self):
        layout = StateLayout.of(1, getattr(self, "gamma_newton", None) is not None)
        vectors = []
        for name, where in zip(self.__dataclass_fields__, layout.blocks):
            if isinstance(where, slice):
                vectors.append(name)
                value = real_array(getattr(self, name), name)
                value = value if value.ndim else value.reshape(1)
            else:
                value = finite_float(getattr(self, name), name, finite=False)
            object.__setattr__(self, name, value)
        if any(getattr(self, name).shape != (self.dimension,) for name in vectors):
            raise DimensionMismatch(f"{', '.join(vectors)} must share one dimension")

    @property
    def dimension(self) -> int:
        return getattr(self, next(iter(self.__dataclass_fields__))).shape[0]

    def as_vector(self) -> np.ndarray:
        layout = StateLayout.of(self.dimension, getattr(self, "gamma_newton", None) is not None)
        names = list(self.__dataclass_fields__)[:len(layout.blocks)]
        return layout.pack([getattr(self, name) for name in names])


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
# fully parenthesised.  The function takes one state as a list of Python
# floats, computes with math's sin and sqrt, which round as numpy's do, and
# returns a list.  Plant and design constants are bound through the
# function's namespace, never written into the source, so each source is
# compiled once per (model, n).

_MATH = {"sin": math.sin, "sqrt": math.sqrt}
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


def _field_source(model: str, n: int) -> str:
    """The source of a field (see the comment above :data:`_MATH`)."""
    params, state, lines, rows = _field_parts(model, n)
    result = "[" + ",\n            ".join(rows) + "]"
    unpack = f"{', '.join(state)}, = {params[-1]}"
    body = "\n".join(f"    {line}" for line in [unpack, *lines, f"return {result}"])
    return f"def {model}({', '.join(params)}):\n{body}\n"


def _function_code(source: str, filename: str) -> types.CodeType:
    """The code of the one function ``source`` defines."""
    module = compile(source, filename, "exec")
    return next(const for const in module.co_consts if isinstance(const, types.CodeType))


@functools.cache
def _field_code(model: str, n: int) -> types.CodeType:
    return _function_code(_field_source(model, n), f"<asfes {model} field, n={n}>")


def _field(model: str, n: int, constants: dict) -> Callable:
    """A field, bound to ``constants``."""
    return types.FunctionType(_field_code(model, n), {**constants, **_MATH})


@functools.cache
def _entry_code(dithered: bool, size: int) -> types.CodeType:
    """The code of a field's entry: on a list of ``size`` Python floats, and
    a float ``t`` for a dithered field, it calls the field's arithmetic
    ``floats`` at once, and on anything else the binder's checks,
    ``checked``.  The type of each item is tested in turn, written out for
    the size."""
    test, call = (("len(args) == 2", "floats(args[0], y)") if dithered
                  else ("0 < len(args) < 3", "floats(y)"))
    items = " and ".join(["type(args[0]) is float"] * dithered + ["type(y) is list",
                         f"len(y) == {size}"] + [f"type(y[{i}]) is float" for i in range(size)])
    source = (f"def field(*args):\n    if {test}:\n        y = args[-1]\n"
              f"        if {items}:\n            return {call}\n    return checked(*args)\n")
    return _function_code(source, f"<asfes field entry, size={size}>")


@functools.cache
def _names(prefix: str, n: int) -> tuple:
    """The names of the n components of a constant in the sources."""
    return tuple(f"{prefix}{i}" for i in range(n))


@functools.cache
def _constant_names(n: int) -> tuple:
    """The names of the plant's and the design's constants in the sources."""
    return ("j_star", "h0", *_names("h1_", n), *_names("ts", n),
            *(f"H{i}_{j}" for i in range(n) for j in range(n)), "k", "neg_k", "c", "delta", "wf")


def _bind(model: str, plant: PlantModel, cfg: AlgorithmConfig, constants: dict) -> Callable:
    """The field ``model`` (see :func:`_field_parts`) of ``plant`` and
    ``cfg``, its template bound to their constants and to ``constants``.

    The field takes ``(t, y)``, an autonomous one also ``(y)``, ``t`` unread.
    ``y`` is one state: a list of ``size`` floats gives a list, any other
    ``(size,)`` state (a number at size 1) an array, a state that is not
    real numbers is a :class:`ValidationError` and one of another shape a
    :class:`DimensionMismatch`, as a vector ``t`` is; any other ``t`` that
    is not one real number is a :class:`ValidationError`, and a real one
    that is not a float is taken as its float.  A list of ``size`` floats,
    with a float ``t`` for a dithered field, goes straight to the template's
    arithmetic through the entry of :func:`_entry_code`, and any other call
    through the checks.  The field carries its template,
    ``(model, n, size, constants)``, for the RK4 loop."""
    n = plant.dimension
    if cfg.dimension != n:
        raise DimensionMismatch(f"dither has {cfg.dimension} frequencies, plant dimension is {n}")
    values = [plant.j_star, plant.h0, *plant.h1.tolist(), *plant.theta_star.tolist(),
              *plant.hessian.ravel().tolist(), cfg.k, -cfg.k, cfg.c, cfg.delta, cfg.omega_f]
    constants = {**dict(zip(_constant_names(n), values, strict=True)), **constants}
    dithered = model not in ("average", "reduced")
    nargs = 2 if dithered else 1        # the source's own (t, y) or (y)
    size = n if model == "reduced" else StateLayout.of(n, model == Variant.NEWTON_ASFES.value).size
    floats = _field(model, n, constants)

    def checked(*args):
        if len(args) != nargs:
            if dithered or len(args) != 2:
                raise TypeError(f"the {model} field takes {2 if dithered else '1 or 2'} arguments")
            args = args[1:]                 # the stepper's (t, y), t unread
        if dithered and type(args[0]) is not float and isinstance(args[0], numbers.Real):
            # a numpy float32 t would compute sin(w t) in float32
            args = (float(args[0]), args[1])
        y = args[-1]
        try:
            if type(y) is list and len(y) == size and set(map(type, y)) == {float}:
                return floats(*args)
            y = real_array(y, "a state")
            if y.shape == (size,) or (y.ndim == 0 and size == 1):
                return np.array(floats(*args[:-1], y.reshape(size).tolist()))
        except TypeError:       # from sin(w * t): t is not one real number
            if not dithered or isinstance(args[0], numbers.Real):
                raise
            raise (DimensionMismatch if np.ndim(args[0]) else ValidationError)(
                f"t must be one real number, got {args[0]!r}") from None
        raise DimensionMismatch(f"state of shape {y.shape}, expected ({size},)")

    entry = types.FunctionType(_entry_code(dithered, size), {"floats": floats, "checked": checked})
    entry.template = (model, n, size, constants)
    return entry


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

    ``y`` is one state ``(size,)`` and ``t`` one time: a list of floats
    gives a list, any other state an array.  Any other shape is
    :class:`DimensionMismatch`.

    The arithmetic is the field's expression template, unrolled for n and
    the variant and computed on Python floats.  The closure returned, made
    by the binder that serves every model, only checks the state.  It also
    carries ``template``, the ``(model, n, size, constants)`` it was built
    from, so that the integrator can write the field's body into its
    generated RK4 loop, and into the C kernel rendered from it.
    """
    a = cfg.dither.amplitude
    omegas = zip(_names("w", plant.dimension), cfg.dither.omegas().tolist())
    return _bind(cfg.variant.value, plant, cfg,
                 {"a": a, "two_over_a": 2.0 / a, "n_coef": 16.0 / (a * a), **dict(omegas)})


def make_average_rhs(plant: PlantModel, cfg: AlgorithmConfig) -> Callable:
    """Build ``f(x) -> dx``, or ``f(t, x)`` with ``t`` unread, for the averaged dynamics.

    The filter rows relax to H theta_tilde, J(theta_tilde + theta*) plus
    the probing bias (a^2/4) tr(H), h1, and h(theta_tilde + theta*); the
    parameter and gamma rows keep their original form.

    ``x`` is one state ``(size,)``: a list of floats gives a list, any
    other state an array (see :func:`make_rhs`).  It is computed on Python
    floats from the field's expression template, with the dithered field's
    left-to-right sums, and the integrator fuses it as it does the dithered
    field.
    """
    # the probing bias on the filtered objective; analysis-side knowledge
    bias = 0.25 * cfg.dither.amplitude**2 * float(np.trace(plant.hessian))
    return _bind("average", plant, cfg, {"trace_term": bias})


def make_reduced_rhs(plant: PlantModel, cfg: AlgorithmConfig) -> Callable:
    """Build ``f(x) -> dx`` for the quasi-steady reduced model in the
    theta_tilde coordinate; it also takes ``f(t, x)``, ``t`` unread.

    Obtained by pinning every filter at its instantaneous fixed point:
    -k H x + h1/||h1||^2 * smooth_max(k x'H h1 - c (h0 + h1'x), delta).
    Along this field h satisfies dh/dt + c h > 0, so {h >= 0} is forward
    invariant and h decays no faster than exp(-c t).

    ``x`` is one point ``(n,)`` (any sequence; a number at n = 1), and the
    result is a list for a list of floats, an array otherwise.  It is
    computed on Python floats from the field's expression template, and the
    integrator fuses it as it does the dithered field.
    """
    h1, q = plant.h1.tolist(), component_sum(plant.h1 * plant.h1)
    return _bind("reduced", plant, cfg, dict(zip(_names("p", len(h1)), [v / q for v in h1])))


# (plant, cfg, field) of the reduced field reduced_rhs built last
_last_reduced = (None, None, None)


def reduced_rhs(plant: PlantModel, cfg: AlgorithmConfig, theta_tilde_r):
    """:func:`make_reduced_rhs` called once: a list for a list of floats,
    an array otherwise.

    The field built last is kept and called again while ``plant`` and
    ``cfg`` are the same objects, so a run stepped through this function
    builds its field once (about 0.7 us a call at n = 2 on a list of floats
    and 2 us on an array, against 7 us with the build)."""
    global _last_reduced
    last = _last_reduced
    if last[0] is not plant or last[1] is not cfg:
        last = _last_reduced = (plant, cfg, make_reduced_rhs(plant, cfg))
    return last[2](theta_tilde_r)


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
