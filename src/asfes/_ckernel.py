"""Compiled C for the hot loops: the generated functions of a templated
field (a run's RK4 loop, warmup's period loop and the averaging oracle's
mean), and the output of a run, the ``%.17g`` text of the CSV rows and the
assigned-rate envelope.

:mod:`asfes.integrate` writes each generated function of a field as
Python from a list of statements (:func:`asfes.integrate._loop_parts`).
This module renders the same statements as C, compiles them with the
system C compiler into a shared library, and calls it through
:mod:`ctypes`.  A statement is
fully parenthesised float arithmetic on names with ``sin`` and ``sqrt``,
which reads the same in C; only ``abs`` becomes ``fabs``, and Python's
``max`` a conditional.  IEEE doubles evaluated in the written order round
as Python's floats do, ``sin`` is the C library's, the one
:func:`math.sin` calls, and ``sqrt`` is correctly rounded in both: so a
kernel's records, stop step, crossed step, settled state and mean are bit
for bit those of the Python function.  Two compiler flags keep them so:
``-ffp-contract=off``, since a fused multiply-add rounds once where the
Python loop rounds twice, and no ``-ffast-math`` (nor
``-ffinite-math-only``), which would fold the divergence check ``x - x``
to 0.

A kernel is compiled once per loop kind, not once per plant or start: it
reads the field's constants and held rows from an array, in the order of
its :attr:`Kernel.names`.  It is one C function: a run's RK4 loop; for a
loop that holds rows, warmup's whole period loop with its stop rule, so
that a warmup is one call; or, for one that holds every row, the
oracle's mean of the field over its nodes, so that an oracle is one
call.

The output library, :data:`CSV_SOURCE`, is fixed C.  Its CSV formatter
(:func:`formatter`) writes a block of rows as ``%.17g`` values with exact
integer arithmetic, correctly rounded as Python's ``%`` is, so its bytes
are Python's.  It is not C's ``printf``, which writes a nan with its sign
bit set as ``-nan`` and follows the locale.  It takes finite values with
magnitudes in [2**-129, 2**127) and zeros; each other value is written by
Python's ``%``.  Its :func:`envelope` takes the C library's exp, the one
:func:`math.exp` calls, so its values are Python's bit for bit too.

Compiled libraries are kept in the process and on disk, under
``$XDG_CACHE_HOME/asfes`` (by default ``~/.cache/asfes``), as
``rk4-<sha256>.so`` for a kernel and ``csv-<sha256>.so`` for the output
library, named by the sha256 of the source and the compiler command, or
in a directory of the process's own where that one cannot be written.
Where no compiler is found, a compile fails or a library does not load,
:func:`kernel`, :func:`formatter` and :func:`envelope` give None, and the
caller steps, formats or takes exp in Python.  Nothing is compiled or
loaded before the first run or CSV, and :mod:`subprocess` is imported only
for a build.
"""

from __future__ import annotations

import os
import re
import shutil
from typing import Callable, Optional

import numpy as np

# a loop key (see asfes.integrate._loop_code) -> its Kernel, and "csv" ->
# (text, envelope) of the output library; None where it could not be built
_loaded: dict = {}
# the directory of libraries for this process alone, made where the cache
# cannot be written
_private_dir: Optional[str] = None
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
LIBRARIES = ("-lm",)
# what a compiled library, kernel or output library, ends in, followed by the
# sha256 of what precedes it
SEAL = b"asfes-rk4-kernel"
COMPILE_TIMEOUT_S = 120


def _compiler() -> Optional[str]:
    """The path of the system C compiler, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/asfes``, by default ``~/.cache/asfes``; an
    :class:`OSError` where there is no home directory."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):     # the XDG rule: a relative path is ignored
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):
            raise OSError("no home directory")
    return os.path.join(base, "asfes")


def _c_expression(code: str) -> str:
    """An expression or condition of the loop statements in C: C's abs is
    the integer one, and Python's ``max(a, b)`` is ``a`` unless ``b > a``."""
    code = re.sub(r"\babs\(", "fabs(", code)
    return re.sub(r"\bmax\(([^(),]+), ([^(),]+)\)", r"((\2 > \1) ? \2 : \1)", code)


def _c_line(line: str, declared: set) -> str:
    """One ``name = expression`` line as a C statement, which declares
    ``name`` unless it is in ``declared``."""
    name, expression = line.split(" = ", 1)
    return f"{name} = {_c_expression(expression)};" if name in declared else (
        f"const double {name} = {_c_expression(expression)};")


def render(parts, name: str) -> tuple:
    """``(source, names)``: the C function ``name`` of the statements
    ``parts`` (a :class:`asfes.integrate._LoopParts`), a run's, a warmup's
    or the oracle's as ``parts.kind`` is, and the names of the constants
    and held rows it reads from ``p``, in order.

    A run's ``int64_t name(p, y, n_steps, h, stride, guard, times, states,
    out)`` steps ``y`` as the Python loop does, writes each record's time
    and stepped rows to ``times`` and ``states``, sets ``out[0]`` to the
    records written and ``out[1]`` to the step where gamma crossed the
    guard, and returns the step where the state left the reals; 0 stands
    for None in both.

    A warmup's ``int64_t name(p, y, periods, n_steps, h, rel_tol, out)``
    steps ``y`` period by period as the Python loop does, and returns the
    periods it stepped.  It sets ``out[0]`` to the step where the state
    left the reals (0 for none) and ``out[1]`` to 1 where it settled, and
    then leaves the settled state in ``y``.

    The oracle's ``int64_t name(p, period, nodes, out)`` writes the mean of
    the field over the nodes to ``out``, one value per row, as the Python
    loop does, and returns 0."""
    state = parts.state
    lines = [*parts.lines, *parts.update, *parts.start, *parts.norms]
    assigned = {line.split(" = ", 1)[0] for line in lines}
    loop_names = {"i", "h", "half", "sixth", "period", "nodes", "sin", "sqrt"}
    read = set()
    for line in lines:
        read.update(re.findall(r"\b[A-Za-z_]\w*\b", line.split(" = ", 1)[1]))
    names = tuple(sorted(read - assigned - loop_names))
    rows = len(state)
    body = [f"const double {x} = p[{j}];" for j, x in enumerate(names)]
    steps = [_c_line(line, {*state, *parts.totals}) for line in [*parts.lines, *parts.update]]
    # a loop that steps rows reads them, and the step's constants, first
    stepping = ["const double half = (0.5 * h);", "const double sixth = (h / 6.0);",
                *(f"double {x} = y[{r}];" for r, x in enumerate(state))]
    if parts.totals:
        body += [f"double {total} = 0.0;" for total in parts.totals]
        body += ["for (int64_t i = 0; i < nodes; i++) {", *(f"    {s}" for s in steps), "}"]
        body += [f"out[{r}] = ({total} / nodes);" for r, total in enumerate(parts.totals)]
        body += ["return 0;"]
        head = f"int64_t {name}(const double *p, double period, int64_t nodes, double *out)\n"
    elif parts.settled is not None:
        body += stepping
        steps += [f"if ({parts.diverged}) {{",
                  "    out[0] = (i + 1); out[1] = 0;", "    return period;", "}"]
        period = [*(_c_line(line, set()) for line in parts.start),
                  "for (int64_t i = 0; i < n_steps; i++) {", *(f"    {s}" for s in steps), "}",
                  *(_c_line(line, set()) for line in parts.norms),
                  f"if ({_c_expression(parts.settled)}) {{",
                  *(f"    y[{r}] = {x};" for r, x in enumerate(state)),
                  "    out[0] = 0; out[1] = 1;", "    return period;", "}"]
        body += ["for (int64_t period = 1; period <= periods; period++) {",
                 *(f"    {line}" for line in period), "}",
                 "out[0] = 0; out[1] = 0;", "return periods;"]
        head = (f"int64_t {name}(const double *p, double *y, int64_t periods, int64_t n_steps,\n"
                "    double h, double rel_tol, int64_t *out)\n")
    else:
        body += [*stepping, "int64_t records = 1, crossed = 0;", "times[0] = 0.0;"]
        body += [f"states[{r}] = {x};" for r, x in enumerate(state)]
        steps += [f"if ({parts.diverged}) {{",
                  "    out[0] = records; out[1] = crossed;", "    return (i + 1);", "}"]
        if parts.watched is not None:
            steps += [f"if (crossed == 0 && fabs({parts.watched}) > guard) crossed = (i + 1);"]
        steps += ["if (((i + 1) % stride) == 0 || (i + 1) == n_steps) {",
                  "    times[records] = ((i + 1) * h);",
                  *(f"    states[records * {rows} + {r}] = {x};" for r, x in enumerate(state)),
                  "    records += 1;", "}"]
        body += ["for (int64_t i = 0; i < n_steps; i++) {", *(f"    {s}" for s in steps), "}",
                 "out[0] = records; out[1] = crossed;", "return 0;"]
        head = (f"int64_t {name}(const double *p, const double *y, int64_t n_steps, double h,\n"
                "    int64_t stride, double guard, double *times, double *states, int64_t *out)\n")
    return ("#include <math.h>\n#include <stdint.h>\n\n" + head
            + "{\n" + "".join(f"    {line}\n" for line in body) + "}\n"), names


class Kernel:
    """A loaded kernel: :meth:`bind` gives the loop of one field, a run's
    ``step``, a warmup's ``settle`` or the oracle's ``mean``, as its
    ``kind`` (:attr:`asfes.integrate._LoopParts.kind`) is."""

    def __init__(self, function, names: tuple, rows: int, kind: str):
        self.function, self.names, self.rows, self.kind = function, names, rows, kind

    def bind(self, values: dict) -> Callable:
        """The loop of the field whose float constants and held rows are
        ``values``, by name, called as :func:`asfes.integrate._loop`'s
        ``step``, ``settle`` or ``mean`` is, with the same outcome bit for
        bit: the step numbers None where the Python loop gives None."""
        import ctypes

        double, count = ctypes.c_double, ctypes.c_int64 * 2
        p = (double * len(self.names))(*[float(values[name]) for name in self.names])
        function, rows = self.function, self.rows

        if self.kind == "mean":
            def mean(period, nodes):
                out = (double * rows)()
                function(p, period, nodes, out)
                return list(out)

            return mean

        if self.kind == "settle":
            def settle(y, periods, n_steps, h, rel_tol):
                state, out = (double * rows)(*y), count()
                ran = function(p, state, periods, n_steps, h, rel_tol, out)
                stopped, settled = out
                return ran, stopped or None, list(state) if settled else None

            return settle

        def step(y, n_steps, h, stride, guard):
            # ctypes arrays pass as pointers at a fraction of numpy's cost,
            # which is most of a short run's
            records = 1 + n_steps // stride + (n_steps % stride != 0)
            times, states, out = (double * records)(), (double * (records * rows))(), count()
            stopped = function(p, (double * rows)(*y), n_steps, h, stride, guard, times, states,
                               out)
            written, crossed = out
            return (np.frombuffer(times, count=written),
                    np.frombuffer(states, count=written * rows).reshape(written, rows),
                    stopped or None, crossed or None)

        return step


def kernel(key: tuple, parts) -> Optional[Kernel]:
    """The kernel of the loop ``key``, whose statements are ``parts``,
    compiled and loaded on first use; None if that fails.  It is one
    function, ``<kind>_<model>_<n>``: a run's ``rk4``, warmup's
    ``settle`` for a loop that holds rows, or the oracle's ``mean`` for one
    that holds them all."""
    if key not in _loaded:
        import ctypes

        model, n = key[:2]
        name = f"{parts.kind}_{model}_{n}"
        source, names = render(parts, name)
        doubles, int64, double = ctypes.POINTER(ctypes.c_double), ctypes.c_int64, ctypes.c_double
        counts = ctypes.POINTER(int64)
        signature = {
            "rk4": (doubles, doubles, int64, double, int64, double, doubles, doubles, counts),
            "settle": (doubles, doubles, int64, int64, double, double, counts),
            "mean": (doubles, double, int64, doubles)}[parts.kind]
        functions = _load(source, "rk4", {name: signature})
        _loaded[key] = None if functions is None else Kernel(
            functions[name], names, len(parts.totals or parts.state), parts.kind)
    return _loaded[key]


# The output library: the %.17g text of CSV values and the assigned-rate
# envelope, one csv-*.so.
#
# format_values writes %.17g exactly, in integer arithmetic, for finite x
# with |x| in [2^-129, 2^127), and for zeros.  x = m 2^e with m < 2^53 lies
# in [2^E, 2^(E + 1)) for E = e + 52, so k0 = floor(E log10 2), one
# multiply, is k = floor(log10 |x|) or k - 1.  n = floor(|x| 10^p) for
# p = 16 - k0 is m 5^p >> -(e + p) for 0 <= p <= 55, in 128 bits up to
# p = 32 and in 192 beyond, or m 2^e / 10^-p for p < 0 and e <= 74.  n has
# 17 digits, or 18 where k0 is k - 1, and then its last digit joins the
# remainder, which rounds q, its first 17 digits, half to even.  q is
# written as a 9-digit and an 8-digit half, two digits at a time from a
# table.  Any other value stops the run.
CSV_SOURCE = r"""#include <math.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;
#define P8 100000000U
#define P16 10000000000000000ULL
#define P17 100000000000000000ULL

static const char PAIRS[200] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";
static u128 pow5[56], pow10[22];

__attribute__((constructor)) static void powers(void)
{
    pow5[0] = pow10[0] = 1;
    for (int i = 1; i < 56; i++)
        pow5[i] = pow5[i - 1] * 5;
    for (int i = 1; i < 22; i++)
        pow10[i] = pow10[i - 1] * 10;
}

static inline void pair(char *s, uint32_t v)       /* v < 100 */
{
    memcpy(s, PAIRS + 2 * v, 2);
}

static inline void eight(char *s, uint32_t v)      /* the 8 digits of v < 10^8 */
{
    const uint32_t high = v / 10000, low = v % 10000;
    pair(s, high / 100);
    pair(s + 2, high % 100);
    pair(s + 4, low / 100);
    pair(s + 6, low % 100);
}

static inline void seventeen(char *s, uint64_t q)  /* the 17 digits of q < 10^17 */
{
    const uint32_t high = (uint32_t)(q / P8), low = (uint32_t)(q % P8);
    s[0] = (char)('0' + high / P8);
    eight(s + 1, high % P8);
    eight(s + 9, low);
}

/* %.17g of x at s: the end of its text, or NULL where x is off the exact
   path.  The text takes at most 23 bytes, and writing it touches the 35
   from s on. */
static char *format_one(double x, char *s)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int biased = (int)((bits >> 52) & 0x7ff);
    const uint64_t fraction = bits & ((1ULL << 52) - 1);
    if (bits >> 63)
        *s++ = '-';
    if (biased == 0 && fraction == 0) {
        *s++ = '0';
        return s;
    }
    if (biased < 1023 - 129 || biased > 1023 + 126)     /* under 2^-129, over 2^127, inf or nan */
        return NULL;
    const uint64_t m = fraction | (1ULL << 52);
    const int e = biased - 1075;
    int k = ((biased - 1023) * 78913) >> 18;    /* floor(E log10 2) */
    const int p = 16 - k;
    u128 n, rest = 0, half = 1;
    if (p > 32) {
        /* m 5^p = top 2^64 + (low mod 2^64) takes up to 181 bits, and it is
           shifted by 64 + 9 to 64 + 62: of its last 64 bits, all shifted
           out, it only counts whether one is set */
        const u128 low = (u128)m * (uint64_t)pow5[p];
        const u128 top = (u128)m * (uint64_t)(pow5[p] >> 64) + (low >> 64);
        const int shift = -(e + p) - 64;
        n = top >> shift;
        rest = ((top & (((u128)1 << shift) - 1)) << 1) | ((uint64_t)low != 0);
        half = (u128)1 << shift;
    } else if (p >= 0) {
        const u128 scaled = (u128)m * pow5[p];
        const int shift = -(e + p);
        if (shift <= 0) {
            n = scaled << -shift;
        } else {
            n = scaled >> shift;
            rest = scaled & (((u128)1 << shift) - 1);
            half = (u128)1 << (shift - 1);
        }
    } else {                    /* |x| > 10^17, so e > 0 */
        const u128 scaled = (u128)m << e, divisor = pow10[-p];
        n = scaled / divisor;
        rest = scaled % divisor;
        half = divisor >> 1;
    }
    /* whether q rounds up, without a branch: rest > half is a coin toss */
    uint64_t q = (uint64_t)n, up;   /* 10^16 <= n < 10^18 */
    if (q >= P17) {             /* 18 digits: the last joins the remainder */
        const uint64_t last = q % 10;
        q /= 10;
        k += 1;
        up = (last > 5) | ((last == 5) & ((rest != 0) | (q & 1)));
    } else {
        up = (rest > half) | ((rest == half) & (q & 1));
    }
    q += up;
    if (q == P17) {
        q = P16;
        k += 1;
    }
    char *end;
    if (k >= 17 || k < -4) {    /* d.ddde+kk, |k| < 100 here */
        seventeen(s + 1, q);
        s[0] = s[1];
        s[1] = '.';
        end = s + 18;
        while (end[-1] == '0')
            end--;
        if (end[-1] == '.')
            end--;
        end[0] = 'e';
        end[1] = k < 0 ? '-' : '+';
        pair(end + 2, (uint32_t)(k < 0 ? -k : k));
        return end + 4;
    }
    if (k >= 0) {               /* ddd.ddd: the digits after the point move on by one */
        seventeen(s, q);
        memmove(s + k + 2, s + k + 1, 16);
        s[k + 1] = '.';
        end = s + 18;
    } else {                    /* 0.000ddd */
        memcpy(s, "0.000", 5);
        seventeen(s + 1 - k, q);
        end = s + 18 - k;
    }
    while (end[-1] == '0')
        end--;
    if (end[-1] == '.')
        end--;
    return end;
}

/* %.17g of values[start], ..., values[count - 1], each followed by ',' or,
   where it ends a row of cols values, '\n', written at buf + *size; *size
   moves past them.  Gives the index of the first value not written: count,
   or that of a value off the exact path. */
int64_t format_values(const double *values, int64_t start, int64_t count, int64_t cols,
                      char *buf, int64_t *size)
{
    if (start >= count)
        return count;
    char *at = buf + *size;
    int64_t i = start, col = start % cols;
    for (; i < count; i++) {
        char *end = format_one(values[i], at);
        if (end == NULL)
            break;
        if (++col == cols) {
            *end++ = '\n';
            col = 0;
        } else {
            *end++ = ',';
        }
        at = end;
    }
    *size = at - buf;
    return i;
}

/* out[i] = h0 exp(-c times[i]) for i < n, with the C library's exp; 1, and
   out unfinished, where an exp overflows, which math.exp raises on; else 0 */
int64_t envelope(double h0, double c, const double *times, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        const double a = -c * times[i], d = exp(a);
        if (isinf(d) && isfinite(a))
            return 1;
        out[i] = h0 * d;
    }
    return 0;
}
"""
# room per value in the text buffer: a value's text and separator take at
# most 25 bytes, whether the formatter or Python's % writes them; 2 values'
# more make room for the 35 bytes that writing the last one touches
FORMAT_WIDTH = 32


def formatter() -> Optional[Callable]:
    """``text(block)``: the rows of the float64 table ``block`` (R, C) as
    ``%.17g`` values joined by commas, one line per row, the bytes of
    Python's ``%``.  A value off the exact path is written by Python's
    ``%``, alone, and the formatter goes on after it.  The text is a view
    of one buffer the formatter keeps, good until its next call; None
    where the output library cannot be built."""
    library = _output()
    return None if library is None else library[0]


def envelope() -> Optional[Callable]:
    """``envelope(h0, c, times)``: h0 exp(-c t) at the float64 ``times``
    (R,), with the C library's exp, the one :func:`math.exp` calls, so
    bit for bit :func:`asfes.analysis.envelope`'s Python form; None where
    an exp overflows, as :func:`math.exp` raises, or where the output
    library cannot be built."""
    library = _output()
    return None if library is None else library[1]


def _output() -> Optional[tuple]:
    """``(text, envelope)`` of the output library, compiled and loaded on
    first use; None where it cannot be built."""
    if "csv" not in _loaded:
        import ctypes

        doubles, int64 = ctypes.POINTER(ctypes.c_double), ctypes.c_int64
        functions = _load(CSV_SOURCE, "csv", {
            "format_values": (doubles, int64, int64, int64, ctypes.c_char_p,
                              ctypes.POINTER(int64)),
            "envelope": (ctypes.c_double, ctypes.c_double, doubles, int64, doubles)})
        _loaded["csv"] = None if functions is None else (
            _text(functions["format_values"]), _envelope(functions["envelope"]))
    return _loaded["csv"]


def _percent(x: float) -> bytes:
    """``%.17g`` of a value off the formatter's exact path."""
    return b"%.17g" % x


def _text(function) -> Callable:
    """The ``text`` of :func:`formatter`, through the loaded
    ``format_values``."""
    import ctypes

    doubles, size = ctypes.POINTER(ctypes.c_double), ctypes.c_int64()
    buffer, chars = bytearray(), None

    def text(block: np.ndarray) -> memoryview:
        nonlocal buffer, chars
        block = np.ascontiguousarray(block, dtype=np.float64)
        count, cols = block.size, block.shape[1]
        if cols == 0:       # each row an empty line, as Python's % and np.savetxt write it
            return memoryview(b"\n" * block.shape[0])
        if len(buffer) < (count + 2) * FORMAT_WIDTH:
            buffer = bytearray((count + 2) * FORMAT_WIDTH)
            chars = (ctypes.c_char * len(buffer)).from_buffer(buffer)
        values = block.ctypes.data_as(doubles)
        size.value = 0
        done = function(values, 0, count, cols, chars, size)
        while done < count:
            value = _percent(block.item(done)) + (b"\n" if done % cols == cols - 1 else b",")
            buffer[size.value:size.value + len(value)] = value
            size.value += len(value)
            done = function(values, done + 1, count, cols, chars, size)
        return memoryview(buffer)[:size.value]

    return text


def _envelope(function) -> Callable:
    """The ``envelope`` of :func:`envelope`, through the loaded C
    ``envelope``."""
    import ctypes

    doubles = ctypes.POINTER(ctypes.c_double)

    def envelope(h0: float, c: float, times: np.ndarray) -> Optional[np.ndarray]:
        times = np.ascontiguousarray(times, dtype=np.float64)
        out = np.empty(times.shape[0])
        overflow = function(h0, c, times.ctypes.data_as(doubles), times.shape[0],
                            out.ctypes.data_as(doubles))
        return None if overflow else out

    return envelope


def _load(source: str, kind: str, functions: dict) -> Optional[dict]:
    """``{name: function}`` for each name of ``functions`` in ``source``,
    compiled or taken from the cache as a library named ``kind-*.so``, with
    the argtypes ``functions[name]`` and an ``int64_t`` result; None where
    that fails."""
    import ctypes

    path = _library(source, kind)
    if path is None or not _sealed(path):
        return None
    try:
        library = ctypes.CDLL(path)
        loaded = {name: getattr(library, name) for name in functions}
    except (OSError, AttributeError):
        return None
    for name, function in loaded.items():
        function.argtypes = functions[name]
        function.restype = ctypes.c_int64
    return loaded


def _sha256(data: bytes):
    """The sha256 of ``data``, by the interpreter's own module where it
    has one: :mod:`hashlib` would load OpenSSL's libcrypto for the same
    digest."""
    try:
        from _sha256 import sha256      # Python 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256    # 3.12 on
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def _seal(data: bytes) -> bytes:
    return SEAL + _sha256(data).digest()


def _sealed(path: str) -> bool:
    """Whether the library at ``path`` ends in the seal :func:`_compile`
    appended to it.  The loader maps a library without reading it whole,
    and a truncated one faults the process where a page is missing, so a
    library is read and checked before it is loaded; a damaged one is
    removed, to be built again by the next process."""
    try:
        with open(path, "rb") as library:
            data = library.read()
    except OSError:
        return False
    if len(data) > len(SEAL) + 32 and _seal(data[:-len(SEAL) - 32]) == data[-len(SEAL) - 32:]:
        return True
    try:
        os.remove(path)
    except OSError:
        pass
    return False


def _library(source: str, kind: str) -> Optional[str]:
    """The path of the shared library ``kind-<sha256>.so`` built from
    ``source``, compiled into the cache unless it is there already; None
    where it cannot be."""
    compiler = _compiler()
    if compiler is None:
        return None
    command = [compiler, *FLAGS, *LIBRARIES]
    digest = _sha256("\0".join([source, *command]).encode()).hexdigest()
    for where in (_cache_dir, _private):
        try:
            directory = where()
            path = os.path.join(directory, f"{kind}-{digest}.so")
            if os.path.exists(path) or _compile(compiler, source, directory, path):
                return path
            return None
        except OSError:         # the directory cannot be written
            continue
    return None


def _compile(compiler: str, source: str, directory: str, path: str) -> bool:
    """Compile ``source`` into ``path`` through a file of its own in
    ``directory``, replaced into place; False if the compiler fails.  An
    unwritable ``directory`` is an :class:`OSError`."""
    import subprocess
    import tempfile

    os.makedirs(directory, exist_ok=True)
    build = tempfile.mkdtemp(prefix="build-", dir=directory)
    try:
        c_file, library = os.path.join(build, "kernel.c"), os.path.join(build, "kernel.so")
        with open(c_file, "w") as out:
            out.write(source)
        try:
            done = subprocess.run([compiler, *FLAGS, "-o", library, c_file, *LIBRARIES],
                                  capture_output=True, timeout=COMPILE_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError):
            return False
        if done.returncode != 0 or not os.path.exists(library):
            return False
        # the loader ignores bytes past the segments a library maps
        with open(library, "rb+") as out:
            out.write(_seal(out.read()))
        os.replace(library, path)
        return True
    finally:
        shutil.rmtree(build, ignore_errors=True)


def _private() -> str:
    """A directory for this process's libraries, removed at exit."""
    global _private_dir
    if _private_dir is None:
        import atexit
        import tempfile

        _private_dir = tempfile.mkdtemp(prefix="asfes-")
        atexit.register(shutil.rmtree, _private_dir, ignore_errors=True)
    return _private_dir
