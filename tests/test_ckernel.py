"""The C kernel of a templated field against the generated Python loop:
the same records, stop step and crossed step of a run, the same periods,
stop step and settled state of a warmup, and the same mean of the
averaging oracle, bit for bit, for every loop kind; the compiled envelope
against math.exp; and every run and CSV still succeeds, with the same
bytes, where no kernel or output library can be built or loaded."""

import math
import re
import shutil
import sys
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from asfes import _ckernel, analysis
from asfes.cli import CSV_BLOCK_ROWS, parse_scenario, run_simulate, warmup_settings, write_csv
from asfes.dynamics import StateLayout, Variant, make_average_rhs, make_reduced_rhs, make_rhs
from asfes.integrate import (IntegrationSettings, _loop, _loop_parts, default_dt,
                             exact_initial_state, full_state_channels, integrate,
                             numeric_average, warmup)
from asfes.sampling import random_config, random_full_state, random_plant
from backends import compiler, use_python_loop
from test_cli import EX1_SMALL
from test_dynamics import generated_loop_keys
from test_integrate import _warmup_outcome, settle_outcomes

FUSED_KEYS = [key for key in generated_loop_keys() if key[0] is not None]


def _field(model: str, n: int, rng):
    variant = Variant(model) if model not in ("average", "reduced") else Variant.ASFES
    plant, cfg = random_plant(rng, n), random_config(rng, n, variant)
    make = {"average": make_average_rhs, "reduced": make_reduced_rhs}.get(model, make_rhs)
    return make(plant, cfg), cfg


def _outcome(step, y, *args) -> tuple:
    times, states, stopped, crossed = step(y, *args)
    return times.tobytes(), states.shape, states.tobytes(), stopped, crossed


def _starts(rhs, rng) -> list:
    """Random finite states, one with -0.0 entries and one that leaves
    the reals in its first steps."""
    size = rhs.template[2]
    x = rng.uniform(-2.0, 2.0, size)
    zeros = x.copy()
    zeros[::2] = -0.0
    return [x, rng.uniform(-0.5, 0.5, size), zeros, 1e200 * x]


# warmup's stop rules: an infinite rel_tol stops after the first period,
# 0.5 and 0.2 after one of the first periods, and 1e-300 never
REL_TOLS = (math.inf, 0.5, 0.2, 1e-300)


def _settle_outcome(settle, y, *args) -> tuple:
    periods, stopped, state = settle(y, *args)
    return periods, stopped, None if state is None else array("d", state).tobytes()


@compiler
@pytest.mark.parametrize("key", FUSED_KEYS, ids=str)
def test_kernel_steps_as_the_python_loop(monkeypatch, key):
    model, n, held, gamma = key
    rng = np.random.default_rng(FUSED_KEYS.index(key))
    rhs, cfg = _field(model, n, rng)
    dt = 0.01 if model in ("average", "reduced") else default_dt(cfg.dither)
    n_steps = 100
    for x0 in _starts(rhs, rng):
        held_rows, y = tuple(x0[:held].tolist()), x0[held:].tolist()
        if held == len(x0):
            # the oracle's mean, over 1, 4, 32 and 400 nodes of two periods
            cases = [(period, nodes) for period in (1.0, 2.0 * math.pi / 3.0)
                     for nodes in (1, 4, 32, 400)]
            for args in cases:
                compiled = array("d", _loop(rhs, len(x0), held_rows, gamma)(*args)).tobytes()
                assert _ckernel._loaded[key] is not None, "the kernel did not build"
                with monkeypatch.context() as patch:
                    use_python_loop(patch)
                    reference = array("d", _loop(rhs, len(x0), held_rows, gamma)(*args))
                assert compiled == reference.tobytes(), (x0, args)
            continue
        if held:
            # warmup's settle, of at most 4 periods
            outcome = _settle_outcome
            cases = [(4, n_steps, dt, rel_tol) for rel_tol in REL_TOLS]
        else:
            # the default, a guard crossed at once and one crossed later on
            guards = [1e6] if gamma is None else [1e6, 1e-3, 1.3 * abs(x0[gamma]) + 1e-9]
            outcome = _outcome
            # 7 does not divide 100
            cases = [(n_steps, dt, stride, guard) for stride in (1, 7, n_steps + 5)
                     for guard in guards]
        for args in cases:
            compiled = outcome(_loop(rhs, len(x0), held_rows, gamma), y, *args)
            assert _ckernel._loaded[key] is not None, "the kernel did not build"
            with monkeypatch.context() as patch:
                use_python_loop(patch)
                reference = outcome(_loop(rhs, len(x0), held_rows, gamma), y, *args)
            assert compiled == reference, (x0, args)


def test_starts_reach_divergence_and_the_guard():
    # the inputs above reach both step numbers the loops return
    rng = np.random.default_rng(7)
    rhs, cfg = _field("asfes", 2, rng)
    gamma = StateLayout.of(2).gamma
    step = _loop(rhs, 9, (), gamma)
    outcomes = [_outcome(step, x0.tolist(), 100, default_dt(cfg.dither), 7, 1e-3)
                for x0 in _starts(rhs, rng)]
    finite, *_, diverging = outcomes
    assert finite[3] is None and finite[4] is not None
    assert diverging[3] is not None and diverging[3] < 100
    # and warmup's settle, example 1's kind, reaches each of its outcomes
    key = ("asfes", 1, 1, None)
    rng = np.random.default_rng(FUSED_KEYS.index(key))
    rhs, cfg = _field("asfes", 1, rng)
    kinds = set()
    for x0 in _starts(rhs, rng):
        settle = _loop(rhs, 6, (x0[0],), None)
        for rel_tol in REL_TOLS:
            periods, stopped, state = settle(x0[1:].tolist(), 4, 100, default_dt(cfg.dither),
                                             rel_tol)
            kinds.add("diverged" if stopped else "timed out" if state is None
                      else "settled later" if periods > 1 else "settled")
    assert kinds == {"settled", "settled later", "diverged", "timed out"}


@compiler
@pytest.mark.parametrize("variant, n, theta0, t_end, rel_tol", [
    (Variant.ASFES, 1, None, 20.0, 1e-6),
    (Variant.ASFES, 2, None, 20.0, 1e-6),
    (Variant.ASFES, 3, None, 20.0, 1e-6),
    (Variant.CLASSICAL_ES, 2, None, 20.0, 1e-6),
    (Variant.NEWTON_ASFES, 1, None, 20.0, 1e-6),
    (Variant.ASFES, 1, [1e308], 5.0, 1e-4),         # overflows at once
    (Variant.ASFES, 2, None, 1.0, 1e-12),           # times out
])
def test_warmup_is_the_same_on_both_back_ends(monkeypatch, variant, n, theta0, t_end,
                                              rel_tol):
    rng = np.random.default_rng(300 + n)
    plant, cfg = random_plant(rng, n), random_config(rng, n, variant)
    if theta0 is None:
        theta0 = plant.theta_star + rng.uniform(-0.3, 0.3, n)
    settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=t_end)
    compiled = _warmup_outcome(plant, cfg, theta0, settings, rel_tol)
    use_python_loop(monkeypatch)
    assert compiled == _warmup_outcome(plant, cfg, theta0, settings, rel_tol)


@compiler
def test_example1_warmup_is_one_kernel_call(monkeypatch, scenario_dir):
    # the 92 periods of example 1's warmup step inside one call of its
    # compiled settle, the one function of its kernel
    scenario = parse_scenario(scenario_dir / "example1.scenario")
    key = ("asfes", 1, 1, None)
    kernel = _ckernel.kernel(key, _loop_parts(*key))
    assert kernel is not None, "the kernel did not build"
    calls, function = [], kernel.function

    def counted(*args):
        calls.append(function.__name__)
        return function(*args)

    monkeypatch.setattr(kernel, "function", counted)
    outcomes = settle_outcomes(monkeypatch)
    warmup(scenario.plant, scenario.config_for(scenario.c_values[0], Variant.ASFES),
           scenario.initial_thetas[0],
           warmup_settings(scenario.settings, scenario.config.omega_f), scenario.warmup_rel_tol)
    assert calls == ["settle_asfes_1"]
    assert [outcome[:2] for outcome in outcomes] == [(92, None)]


@compiler
@pytest.mark.parametrize("n", [1, 2])
def test_an_oracle_is_one_kernel_call(monkeypatch, n):
    # the averaging oracle's nodes are evaluated and summed inside one call
    # of its compiled mean, the one function of its kernel
    rng = np.random.default_rng(n)
    plant, cfg = random_plant(rng, n), random_config(rng, n)
    key = ("asfes", n, StateLayout.of(n).size, None)
    kernel = _ckernel.kernel(key, _loop_parts(*key))
    assert kernel is not None, "the kernel did not build"
    calls, function = [], kernel.function

    def counted(*args):
        calls.append(function.__name__)
        return function(*args)

    monkeypatch.setattr(kernel, "function", counted)
    numeric_average(plant, cfg, random_full_state(rng, n))
    assert calls == [f"mean_asfes_{n}"]


@compiler
@pytest.mark.parametrize("key, name", [(("asfes", 1, 0, 5), "rk4_asfes_1"),
                                       (("reduced", 2, 0, None), "rk4_reduced_2"),
                                       (("newton", 1, 1, None), "settle_newton_1"),
                                       (("asfes", 2, 9, None), "mean_asfes_2")])
def test_a_kernel_is_one_function(monkeypatch, key, name):
    # a run's kernel is its RK4 loop, a warmup's its whole period loop and
    # the oracle's its mean: each renders, compiles and loads one function
    loads, load = [], _ckernel._load

    def spy(source, kind, functions):
        loads.append((re.findall(r"^int64_t (\w+)\(", source, re.MULTILINE), list(functions)))
        return load(source, kind, functions)

    monkeypatch.setattr(_ckernel, "_loaded", {})
    monkeypatch.setattr(_ckernel, "_load", spy)
    kernel = _ckernel.kernel(key, _loop_parts(*key))
    assert loads == [([name], [name])]
    assert kernel is not None and kernel.function.__name__ == name


@compiler
def test_simulate_steps_the_averaged_run_in_its_kernel(monkeypatch, tmp_path):
    # run_simulate passes the averaged field to the integrator as it is, so
    # example 1's averaged run, gamma watched at row 5, loads its kernel
    monkeypatch.setattr(_ckernel, "_loaded", {})
    scenario = tmp_path / "small.scenario"
    scenario.write_text(EX1_SMALL)
    run_simulate(parse_scenario(scenario), tmp_path / "sim")
    assert _ckernel._loaded[("average", 1, 0, 5)] is not None


@compiler
def test_numpy_scalar_constants_step_alike_on_both_back_ends(monkeypatch, plant1, cfg1):
    # a float32 gain is stored as a Python float: the Python loop would
    # otherwise compute in float32 where the kernel reads a double
    cfg = replace(cfg1, k=np.float32(cfg1.k), c=np.float32(cfg1.c))
    settings = IntegrationSettings(dt=default_dt(cfg.dither), t_end=0.5)
    x0 = exact_initial_state(plant1, cfg, [-3.0]).as_vector()

    def run():
        traj = integrate(make_rhs(plant1, cfg), x0, settings, gamma_index=5)
        return traj.times.tobytes(), traj.states.tobytes()

    compiled = run()
    use_python_loop(monkeypatch)
    assert run() == compiled


# ---- where no kernel can be had ----------------------------------------------

def _runs(plant1, cfg1, out: Path) -> list:
    """Bytes of an integrate run, a warmup and a run_simulate, through
    whatever back end the process has."""
    out.mkdir(parents=True, exist_ok=True)
    settings = IntegrationSettings(dt=default_dt(cfg1.dither), t_end=1.0, record_stride=3)
    x0 = exact_initial_state(plant1, cfg1, [-3.0]).as_vector()
    traj = integrate(make_rhs(plant1, cfg1), x0, settings, gamma_index=5,
                     channels=full_state_channels(plant1, cfg1))
    warm = warmup(plant1, cfg1, [-3.0], replace(settings, t_end=20.0), 1e-4)
    scenario = out / "small.scenario"
    scenario.write_text(EX1_SMALL)
    code = run_simulate(parse_scenario(scenario), out / "sim")
    files = sorted((p.name, p.read_bytes()) for p in (out / "sim").iterdir())
    return [traj.times.tobytes(), traj.states.tobytes(), traj.h_values.tobytes(),
            warm.as_vector().tobytes(), code, files]


@pytest.fixture()
def compiled_runs(plant1, cfg1, tmp_path):
    return _runs(plant1, cfg1, tmp_path / "compiled")


def _check_python_loop(plant1, cfg1, out: Path, compiled_runs) -> None:
    assert _runs(plant1, cfg1, out) == compiled_runs
    assert _ckernel._loaded and all(k is None for k in _ckernel._loaded.values())


def test_no_compiler_found(monkeypatch, plant1, cfg1, tmp_path, compiled_runs):
    use_python_loop(monkeypatch)
    _check_python_loop(plant1, cfg1, tmp_path, compiled_runs)


def test_compiler_fails(monkeypatch, plant1, cfg1, tmp_path, compiled_runs):
    false = shutil.which("false")
    if false is None:
        pytest.skip("no false command")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_ckernel, "_compiler", lambda: false)
    monkeypatch.setattr(_ckernel, "_loaded", {})
    _check_python_loop(plant1, cfg1, tmp_path, compiled_runs)
    assert list((tmp_path / "cache" / "asfes").iterdir()) == []


@compiler
def test_truncated_library_in_the_cache(monkeypatch, plant1, cfg1, tmp_path, compiled_runs):
    # the loader would fault on a truncated library: it is checked first,
    # and removed so that the next process builds it again
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_ckernel, "_loaded", {})
    assert _runs(plant1, cfg1, tmp_path / "first") == compiled_runs
    built = sorted((tmp_path / "cache" / "asfes").iterdir())
    assert built and all(kernel is not None for kernel in _ckernel._loaded.values())
    for library in built:
        # a truncated copy replaces the file: truncating it in place would
        # fault this process, which still maps the library, at exit
        data = library.read_bytes()
        damaged = library.with_suffix(".part")
        damaged.write_bytes(data[:len(data) // 2])
        damaged.replace(library)
    monkeypatch.setattr(_ckernel, "_loaded", {})
    _check_python_loop(plant1, cfg1, tmp_path, compiled_runs)
    assert list((tmp_path / "cache" / "asfes").iterdir()) == []


def _check_csv(path: Path) -> None:
    """write_csv gives the bytes of Python's % for three blocks, one of
    which holds a value the formatter leaves to Python, through whatever
    back end the process has."""
    rng = np.random.default_rng(11)
    table = rng.standard_normal((2 * CSV_BLOCK_ROWS + 5, 6)) * 10.0 ** rng.integers(-8, 8, 6)
    table[CSV_BLOCK_ROWS + 3, 2] = np.nan
    write_csv(path, [f"c{i}" for i in range(6)], table)
    rows = "".join(",".join("%.17g" % x for x in row) + "\n" for row in table)
    assert path.read_bytes() == ("c0,c1,c2,c3,c4,c5\n" + rows).encode()


def test_csv_where_no_compiler_is_found(monkeypatch, tmp_path):
    use_python_loop(monkeypatch)
    _check_csv(tmp_path / "run.csv")
    assert _ckernel._loaded == {"csv": None}


def test_csv_where_the_compiler_fails(monkeypatch, tmp_path):
    false = shutil.which("false")
    if false is None:
        pytest.skip("no false command")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_ckernel, "_compiler", lambda: false)
    monkeypatch.setattr(_ckernel, "_loaded", {})
    _check_csv(tmp_path / "run.csv")
    assert _ckernel._loaded == {"csv": None}
    assert list((tmp_path / "cache" / "asfes").iterdir()) == []


@compiler
def test_truncated_formatter_in_the_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_ckernel, "_loaded", {})
    _check_csv(tmp_path / "first.csv")
    assert _ckernel._loaded["csv"] is not None
    (library,) = (tmp_path / "cache" / "asfes").glob("csv-*.so")
    data = library.read_bytes()
    damaged = library.with_suffix(".part")
    damaged.write_bytes(data[:len(data) // 2])
    damaged.replace(library)
    monkeypatch.setattr(_ckernel, "_loaded", {})
    _check_csv(tmp_path / "second.csv")
    assert _ckernel._loaded == {"csv": None}
    assert list((tmp_path / "cache" / "asfes").iterdir()) == []


# ---- the envelope ------------------------------------------------------------

def _envelope_cases() -> list:
    """``(h0, c, times)``: random h0, +-0.0 among them, and random c > 0
    over horizons where exp(-c t) falls to subnormals, from c t = 708.4,
    and to 0, from c t = 745.2."""
    rng = np.random.default_rng(29)
    h0s = [0.0, -0.0, *(rng.standard_normal(8) * 10.0 ** rng.integers(-5, 5, 8))]
    return [(h0, c, np.concatenate([[0.0], np.sort(rng.uniform(0.0, 800.0 / c, 999))]))
            for h0, c in zip(h0s, 10.0 ** rng.uniform(-3.0, 1.0, len(h0s)))]


@pytest.mark.parametrize("backend", ["python", pytest.param("compiled", marks=compiler)])
def test_envelope_is_math_exp(monkeypatch, backend):
    # h0 exp(-c t) is the bits of math.exp, taken one time at a time, on
    # both back ends; an exp that overflows raises as math.exp does
    if backend == "python":
        use_python_loop(monkeypatch)
    else:
        assert _ckernel.envelope() is not None, "the output library did not build"
    decays = []
    for h0, c, times in _envelope_cases():
        decays += map(math.exp, (-c * times).tolist())
        expected = h0 * np.array(decays[-len(times):])
        assert analysis.envelope(h0, c, times).tobytes() == expected.tobytes(), (h0, c)
    assert 0.0 in decays and any(0.0 < x < sys.float_info.min for x in decays)
    with pytest.raises(OverflowError):
        analysis.envelope(1.0, -1.0, np.array([0.0, 1000.0]))
    if backend == "python":
        assert _ckernel._loaded == {"csv": None}


@compiler
def test_unwritable_cache_takes_a_directory_of_the_process(monkeypatch, tmp_path):
    # a cache path under a file cannot be made: the kernel goes to a
    # directory of this process's own
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(_ckernel, "_loaded", {})
    monkeypatch.setattr(_ckernel, "_private_dir", None)
    rng = np.random.default_rng(3)
    rhs, cfg = _field("reduced", 2, rng)
    integrate(rhs, [0.1, 0.2], IntegrationSettings(dt=0.01, t_end=0.1))
    assert _ckernel._loaded[("reduced", 2, 0, None)] is not None
    assert any(Path(_ckernel._private_dir).glob("rk4-*.so"))


@compiler
def test_one_kernel_per_kind(monkeypatch, tmp_path):
    # the kernel reads a field's constants from its arguments: fields of
    # other plants and rates share it, in the process and on disk
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_ckernel, "_loaded", {})
    rng = np.random.default_rng(5)
    settings = IntegrationSettings(dt=0.01, t_end=0.1)
    runs = [integrate(_field("reduced", 2, rng)[0], [0.1, 0.2], settings) for _ in range(3)]
    assert len({run.states.tobytes() for run in runs}) == 3
    assert list(_ckernel._loaded) == [("reduced", 2, 0, None)]
    assert len(list((tmp_path / "asfes").iterdir())) == 1
