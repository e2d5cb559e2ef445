"""Compiled C for the two hot loops: the RK4 loop of a templated field,
and the ``%.17g`` text of the CSV rows.

:mod:`asfes.integrate` writes a field's RK4 loop as Python from a list of
statements (:func:`asfes.integrate._loop_parts`).  This module renders the
same statements as C, compiles them with the system C compiler into a
shared library, and calls it through :mod:`ctypes`.  A statement is
fully parenthesised float arithmetic on names with ``sin`` and ``sqrt``,
which reads the same in C; only ``abs`` becomes ``fabs``.  IEEE doubles
evaluated in the written order round as Python's floats do, ``sin`` is
the C library's, the one :func:`math.sin` calls, and ``sqrt`` is
correctly rounded in both: so a kernel's records, stop step and crossed
step are bit for bit those of the Python loop.  Two compiler flags keep
them so: ``-ffp-contract=off``, since a fused multiply-add rounds once
where the Python loop rounds twice, and no ``-ffast-math`` (nor
``-ffinite-math-only``), which would fold the divergence check ``x - x``
to 0.

A kernel is compiled once per loop kind, not once per plant or start: it
reads the field's constants and held rows from an array, in the order of
its :attr:`Kernel.names`.

The CSV formatter (:func:`formatter`) is one fixed C function,
:data:`FORMAT_SOURCE`.  It writes a block of rows as ``%.17g`` values with
exact integer arithmetic, correctly rounded as Python's ``%`` is, so its
bytes are Python's.  It is not C's ``printf``, which writes a nan with its
sign bit set as ``-nan`` and follows the locale.  It takes finite values
with magnitudes in about [1e-16, 2**127) and zeros; a block with any other
value is left to Python.

Compiled libraries are kept in the process and on disk, under
``$XDG_CACHE_HOME/asfes`` (by default ``~/.cache/asfes``), as
``rk4-<sha256>.so`` for a kernel and ``csv-<sha256>.so`` for the
formatter, named by the sha256 of the source and the compiler command, or
in a directory of the process's own where that one cannot be written.
Where no compiler is found, a compile fails or a library does not load,
:func:`kernel` and :func:`formatter` give None, and the caller steps or
formats in Python.  Nothing is compiled or loaded before the first run or
CSV, and :mod:`subprocess` and :mod:`hashlib` are imported only then.
"""

from __future__ import annotations

import os
import re
import shutil
from typing import Callable, Optional

import numpy as np

# a loop key (see asfes.integrate._loop_code) -> its Kernel, and
# "format_rows" -> the CSV formatter; None where it could not be built
_loaded: dict = {}
# the directory of libraries for this process alone, made where the cache
# cannot be written
_private_dir: Optional[str] = None
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
LIBRARIES = ("-lm",)
# what a compiled library, kernel or formatter, ends in, followed by the
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


def _c_line(line: str, declared: set) -> str:
    """One ``name = expression`` line as a C statement, which declares
    ``name`` unless it is in ``declared``.  C's abs is the integer one."""
    name, expression = line.split(" = ", 1)
    expression = re.sub(r"\babs\(", "fabs(", expression)
    return f"{name} = {expression};" if name in declared else f"const double {name} = {expression};"


def render(parts, name: str) -> tuple:
    """``(source, names)``: the C function ``name`` that runs the loop of
    ``parts`` (a :class:`asfes.integrate._LoopParts`), and the names of the
    constants and held rows it reads from ``p``, in order.

    ``int64_t name(p, y, n_steps, h, stride, guard, times, states, out)``
    steps ``y`` as the Python loop does, writes each record's time and
    stepped rows to ``times`` and ``states``, sets ``out[0]`` to the
    records written and ``out[1]`` to the step where gamma crossed the
    guard, and returns the step where the state left the reals; 0 stands
    for None in both."""
    state = parts.state
    lines = [*parts.lines, *parts.update]
    assigned = {line.split(" = ", 1)[0] for line in lines}
    loop_names = {"i", "h", "half", "sixth", "sin", "sqrt"}
    read = set()
    for line in lines:
        read.update(re.findall(r"\b[A-Za-z_]\w*\b", line.split(" = ", 1)[1]))
    names = tuple(sorted(read - assigned - loop_names))
    rows = len(state)
    body = [f"const double {x} = p[{j}];" for j, x in enumerate(names)]
    body += ["const double half = (0.5 * h);", "const double sixth = (h / 6.0);"]
    body += [f"double {x} = y[{r}];" for r, x in enumerate(state)]
    body += ["int64_t records = 1, crossed = 0;", "times[0] = 0.0;"]
    body += [f"states[{r}] = {x};" for r, x in enumerate(state)]
    steps = [_c_line(line, set(state)) for line in lines]
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
    source = ("#include <math.h>\n#include <stdint.h>\n\n"
              f"int64_t {name}(const double *p, const double *y, int64_t n_steps, double h,\n"
              "    int64_t stride, double guard, double *times, double *states, int64_t *out)\n"
              "{\n" + "".join(f"    {line}\n" for line in body) + "}\n")
    return source, names


class Kernel:
    """A loaded kernel: :meth:`bind` gives the stepper of one field."""

    def __init__(self, function, names: tuple, rows: int):
        self.function, self.names, self.rows = function, names, rows

    def bind(self, values: dict) -> Optional[Callable]:
        """The stepper of the field whose constants and held rows are
        ``values``, by name; None if one of them is not a real number.

        ``step(y, n_steps, h, stride, guard)`` steps the floats ``y`` and
        gives ``(times (R,), states (R, rows), stopped, crossed)``, the step
        numbers None where the Python loop gives None."""
        import ctypes

        double = ctypes.c_double
        try:
            p = (double * len(self.names))(*[float(values[name]) for name in self.names])
        except (TypeError, ValueError, OverflowError):
            return None
        function, rows, count = self.function, self.rows, ctypes.c_int64 * 2

        def step(y, n_steps, h, stride, guard):
            # ctypes arrays pass as pointers at a fraction of numpy's cost,
            # which is most of a short warmup period's
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
    compiled and loaded on first use; None if that fails."""
    if key not in _loaded:
        import ctypes

        model, n = key[:2]
        name = f"rk4_{model}_{n}"
        source, names = render(parts, name)
        doubles = ctypes.POINTER(ctypes.c_double)
        function = _load(source, name, "rk4", (
            doubles, doubles, ctypes.c_int64, ctypes.c_double, ctypes.c_int64, ctypes.c_double,
            doubles, doubles, ctypes.POINTER(ctypes.c_int64)))
        _loaded[key] = None if function is None else Kernel(function, names, len(parts.state))
    return _loaded[key]


# %.17g of a row-major block of doubles, exact in integer arithmetic for
# finite x with |x| in about [1e-16, 2^127): x = m 2^e with m < 2^53, and
# q = |x| 10^(16-k) for k = floor(log10 |x|), a 17-digit integer, is
# m 5^p >> -(e + p) for p = 16 - k <= 32, or m 2^e / 10^-p for p < 0 and
# e <= 74; both fit in 128 bits, and the remainder rounds q half to even.
# k is first estimated from the binary exponent alone (log10 would take
# half the time of a value), then moved until q has 17 digits.  Any other
# value, or a full buffer, gives -1.
FORMAT_SOURCE = r"""#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;
#define P16 10000000000000000ULL
#define P17 100000000000000000ULL

static int format_one(double x, char *s, const u128 *pow5, const u128 *pow10)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int biased = (int)((bits >> 52) & 0x7ff);
    uint64_t m = bits & ((1ULL << 52) - 1);
    char *at = s;
    if (bits >> 63)
        *at++ = '-';
    if (biased == 0 && m == 0) {
        *at++ = '0';
        return (int)(at - s);
    }
    if (biased == 0 || biased == 0x7ff)     /* subnormal, inf or nan */
        return 0;
    m |= 1ULL << 52;
    const int e = biased - 1075;
    if (e > 74)
        return 0;
    int k = ((biased - 1022) * 78913) >> 18;  /* floor(log10 2^(e + 53)): k or k + 1 */
    uint64_t q;
    for (;;) {
        const int p = 16 - k;
        u128 n, rest = 0, half = 1;
        if (p > 32 || p < -22)
            return 0;
        if (p >= 0) {
            const u128 scaled = (u128)m * pow5[p];
            const int shift = -(e + p);
            if (shift <= 0) {
                n = scaled << -shift;
            } else {
                n = scaled >> shift;
                rest = scaled & (((u128)1 << shift) - 1);
                half = (u128)1 << (shift - 1);
            }
        } else {                            /* |x| > 2^53 here, so e > 0 */
            const u128 scaled = (u128)m << e, divisor = pow10[-p];
            n = scaled / divisor;
            rest = scaled % divisor;
            half = divisor >> 1;
        }
        if (n >= P17) {
            k += 1;
        } else if (n < P16) {
            k -= 1;
        } else {
            q = (uint64_t)n;
            if (rest > half || (rest == half && (q & 1)))
                q += 1;
            if (q == P17) {
                q = P16;
                k += 1;
            }
            break;
        }
    }
    char d[17];
    for (int i = 16; i >= 0; i--) {
        d[i] = (char)('0' + q % 10);
        q /= 10;
    }
    int last = 16;
    while (last > 0 && d[last] == '0')
        last--;
    if (k >= 17 || k < -4) {                /* |k| < 100 on this path */
        *at++ = d[0];
        if (last > 0) {
            *at++ = '.';
            memcpy(at, d + 1, last);
            at += last;
        }
        *at++ = 'e';
        *at++ = k < 0 ? '-' : '+';
        k = k < 0 ? -k : k;
        *at++ = (char)('0' + k / 10);
        *at++ = (char)('0' + k % 10);
    } else if (k >= 0) {
        memcpy(at, d, k + 1);
        at += k + 1;
        if (last > k) {
            *at++ = '.';
            memcpy(at, d + k + 1, last - k);
            at += last - k;
        }
    } else {
        *at++ = '0';
        *at++ = '.';
        for (int i = -1; i > k; i--)
            *at++ = '0';
        memcpy(at, d, last + 1);
        at += last + 1;
    }
    return (int)(at - s);
}

int64_t format_rows(const double *values, int64_t rows, int64_t cols, char *buf, int64_t cap)
{
    u128 pow5[33], pow10[23];
    pow5[0] = pow10[0] = 1;
    for (int i = 1; i < 33; i++)
        pow5[i] = pow5[i - 1] * 5;
    for (int i = 1; i < 23; i++)
        pow10[i] = pow10[i - 1] * 10;
    char *at = buf;
    for (int64_t i = 0; i < rows * cols; i++) {
        if (buf + cap - at < 32)
            return -1;
        const int written = format_one(values[i], at, pow5, pow10);
        if (written == 0)
            return -1;
        at += written;
        *at++ = (i % cols == cols - 1) ? '\n' : ',';
    }
    return at - buf;
}
"""
# the most a value and its separator take: "-0.0000", 17 digits and ","
FORMAT_WIDTH = 32


def formatter() -> Optional[Callable]:
    """``text(block)``: the rows of the float64 table ``block`` (R, C) as
    ``%.17g`` values joined by commas, one line per row, the bytes of
    Python's ``%``; None where a value is not on the exact path.  The
    formatter is compiled and loaded on first use, and it writes into one
    buffer it keeps; None where it cannot be built."""
    if "format_rows" not in _loaded:
        import ctypes

        function = _load(FORMAT_SOURCE, "format_rows", "csv", (
            ctypes.POINTER(ctypes.c_double), ctypes.c_int64, ctypes.c_int64, ctypes.c_char_p,
            ctypes.c_int64))
        _loaded["format_rows"] = None if function is None else _text(function)
    return _loaded["format_rows"]


def _text(function) -> Callable:
    """The ``text`` of :func:`formatter`, through the loaded ``format_rows``."""
    import ctypes

    doubles, buffer = ctypes.POINTER(ctypes.c_double), bytearray()

    def text(block: np.ndarray) -> Optional[memoryview]:
        nonlocal buffer
        block = np.ascontiguousarray(block, dtype=np.float64)
        rows, cols = block.shape
        if len(buffer) < rows * cols * FORMAT_WIDTH:
            buffer = bytearray(rows * cols * FORMAT_WIDTH)
        size = function(block.ctypes.data_as(doubles), rows, cols,
                        (ctypes.c_char * len(buffer)).from_buffer(buffer), len(buffer))
        return None if size < 0 else memoryview(buffer)[:size]

    return text


def _load(source: str, name: str, kind: str, argtypes: tuple):
    """The function ``name`` of ``source``, compiled or taken from the
    cache as a library named ``kind-*.so``, with ``argtypes`` and an
    ``int64_t`` result; None where that fails."""
    import ctypes

    path = _library(source, kind)
    if path is None or not _sealed(path):
        return None
    try:
        function = getattr(ctypes.CDLL(path), name)
    except (OSError, AttributeError):
        return None
    function.argtypes = argtypes
    function.restype = ctypes.c_int64
    return function


def _seal(data: bytes) -> bytes:
    import hashlib

    return SEAL + hashlib.sha256(data).digest()


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
    import hashlib

    compiler = _compiler()
    if compiler is None:
        return None
    command = [compiler, *FLAGS, *LIBRARIES]
    digest = hashlib.sha256("\0".join([source, *command]).encode()).hexdigest()
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
