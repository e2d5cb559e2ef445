import dataclasses
import importlib.resources
import io
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asfes.cli import (
    _KNOWN_KEYS,
    Scenario,
    _slow_settings,
    main,
    parse_scenario,
    run_analyze,
    run_simulate,
    run_verify,
    warmup_settings,
    write_trajectory_csv,
)
from asfes.dynamics import StateLayout, Variant, make_average_rhs, make_reduced_rhs, make_rhs
from asfes.errors import (ComputationError, NonFiniteValue, NonPositiveTrials, ParseError,
                          ResonantTriple, UnusableOutput, ValidationError)
from asfes.integrate import (average_channels, exact_initial_state, full_state_channels,
                             integrate, reduced_channels, warmup)

EX1_SMALL = """
[plant]
hessian_row = 0.1
theta_star = 0
j_star = 0
h0 = -1
h1 = -1

[gains]
k = 0.3
c = 0.1
delta = 1e-3
omega_f = 3

[dither]
amplitude = 0.25
base_scale = 200
ratios = 1

[sim]
theta0 = -3
t_end = 2.0
dt = auto
record_stride = 17
warmup_rel_tol = 1e-4
variants = asfes
include_reduced = true
include_average = true
"""


def write_scenario(tmp_path, text, name="case.scenario"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseScenario:
    def test_bundled_example1(self, scenario_dir):
        s = parse_scenario(scenario_dir / "example1.scenario")
        assert s.plant.dimension == 1
        assert s.plant.hessian[0, 0] == 0.1
        assert s.config.k == 0.3 and s.config.omega_f == 3.0
        assert s.config.dither.amplitude == 0.25
        assert s.config.dither.base_scale == 200.0
        assert s.c_values == (0.1,)
        np.testing.assert_array_equal(s.initial_theta, [-3.0])
        assert s.settings.t_end == 150.0
        assert s.settings.dt == pytest.approx((2 * math.pi / 200) / 40)
        assert set(s.variants_to_run) == {
            Variant.ASFES, Variant.NEWTON_ASFES, Variant.CLASSICAL_ES,
        }
        assert s.include_reduced and s.include_average

    def test_bundled_example2(self, scenario_dir):
        s = parse_scenario(scenario_dir / "example2.scenario")
        assert s.plant.dimension == 2
        np.testing.assert_array_equal(s.plant.hessian, [[2.0, 0.0], [0.0, 2.0]])
        assert s.c_values == (1.0, 0.1)
        assert len(s.initial_thetas) == 6
        assert s.settings.t_end == 60.0
        # three safe starts, three unsafe starts
        from asfes import eval_barrier

        signs = [eval_barrier(s.plant, th) >= 0 for th in s.initial_thetas]
        assert signs.count(True) == 3 and signs.count(False) == 3

    def test_unknown_key_rejected_with_line(self, tmp_path):
        bad = EX1_SMALL.replace("j_star = 0", "j_star = 0\nbogus_key = 1")
        with pytest.raises(ParseError) as exc:
            parse_scenario(write_scenario(tmp_path, bad))
        assert exc.value.line is not None
        assert "bogus_key" in str(exc.value)

    def test_resonant_frequencies_rejected(self, tmp_path):
        bad = EX1_SMALL.replace("hessian_row = 0.1",
                                "hessian_row = 1, 0, 0\nhessian_row = 0, 1, 0\nhessian_row = 0, 0, 1")
        bad = bad.replace("theta_star = 0", "theta_star = 0, 0, 0")
        bad = bad.replace("h1 = -1", "h1 = -1, 0, 0")
        bad = bad.replace("ratios = 1", "ratios = 1, 2, 3")
        with pytest.raises(ResonantTriple):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_zero_horizon_rejected(self, tmp_path):
        bad = EX1_SMALL.replace("t_end = 2.0", "t_end = 0")
        with pytest.raises(ValidationError):
            parse_scenario(write_scenario(tmp_path, bad))
        rc = main(["simulate", str(write_scenario(tmp_path, bad)), "--out",
                   str(tmp_path / "out")])
        assert rc == 1

    def test_missing_file_is_validation_error(self, tmp_path):
        rc = main(["simulate", str(tmp_path / "nope.scenario"), "--out",
                   str(tmp_path / "out")])
        assert rc == 1

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin.scenario"
        path.write_bytes(b"[plant]\nj_star = 0\xff\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_scenario(path)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        assert "not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new, key", [
        ("k = 0.3", "k = nan", "k"),
        ("c = 0.1", "c = nan", "c"),
        ("amplitude = 0.25", "amplitude = nan", "amplitude"),
        ("h0 = -1", "h0 = nan", "h0"),
        ("theta_star = 0", "theta_star = inf", "theta_star"),
        ("theta0 = -3", "theta0 = nan", "theta0"),
        ("t_end = 2.0", "t_end = inf", "t_end"),
        ("record_stride = 17", "record_stride = 1.5", "record_stride"),
        ("t_end = 2.0", "t_end = 2.0\ngamma_guard = -1", "gamma_guard"),
        ("k = 0.3", "k = 0.3, 99", "k"),
        ("t_end = 2.0", "t_end = 2, 500", "t_end"),
        ("h0 = -1", "h0 = -1, 2", "h0"),
        ("record_stride = 17", "record_stride = 17, 3", "record_stride"),
        ("warmup_rel_tol = 1e-4", "warmup_rel_tol = -1", "warmup_rel_tol"),
        ("warmup_rel_tol = 1e-4", "warmup_rel_tol = inf", "warmup_rel_tol"),
        ("hessian_row = 0.1", "hessian_row = 0.1\nhessian_row = 1, 2", "hessian_row"),
        ("record_stride = 17", "record_stride = 1e200", "record_stride"),
        ("ratios = 1", "ratios = 1e400", "ratios"),
        ("theta0 = -3", "theta0 = 1e308", "theta0"),
        ("amplitude = 0.25", "amplitude = 1e-320", "amplitude"),
        ("amplitude = 0.25", "amplitude = 1e200", "amplitude"),
        ("h0 = -1", "h0 = -1e308", "h0"),
        ("hessian_row = 0.1", "hessian_row = 1e-320", "hessian_row"),
        ("dt = auto", "dt = 1e-320", "dt"),
        ("base_scale = 200", "base_scale = 1e308", "base_scale"),
        ("base_scale = 200", "base_scale = 1e200", "base_scale"),
        ("ratios = 1", "ratios = 1e200", "ratios"),
        ("omega_f = 3", "omega_f = 1e200", "omega_f"),
    ])
    def test_meaningless_values_rejected(self, tmp_path, capsys, old, new, key):
        path = write_scenario(tmp_path, EX1_SMALL.replace(old, new))
        with pytest.raises(ValidationError, match=key):
            parse_scenario(path)
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    def test_missing_key_rejected(self, tmp_path):
        bad = EX1_SMALL.replace("amplitude = 0.25", "")
        with pytest.raises(ParseError):
            parse_scenario(write_scenario(tmp_path, bad))

    def test_scenario_that_asks_for_no_run_rejected(self, tmp_path, capsys):
        # no variant, and neither the averaged nor the reduced model
        text = EX1_SMALL.replace("include_reduced = true", "include_reduced = false")
        text = text.replace("include_average = true", "include_average = false")
        path = write_scenario(tmp_path, text.replace("variants = asfes", "variants ="))
        line = text.splitlines().index("variants = asfes") + 1
        with pytest.raises(ParseError, match="no run") as exc:
            parse_scenario(path)
        assert exc.value.line == line
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 1
        assert f"error: line {line}: variants:" in capsys.readouterr().err
        assert not out.exists()
        # a model alone is a run
        alone = text.replace("variants = asfes", "variants =").replace(
            "include_reduced = false", "include_reduced = true")
        assert parse_scenario(write_scenario(tmp_path, alone)).variants_to_run == ()

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("old, new, key", [
        ("c = 0.1", "c = 0.1, 0.10000001", "c"),
        ("c = 0.1", "c = 0.1, 0.1", "c"),
        ("variants = asfes", "variants = asfes, classical, ASFES", "variants"),
    ])
    def test_runs_that_would_share_a_name_rejected(self, tmp_path, capsys, command,
                                                   old, new, key):
        # runs are named by f"{c:g}" and the variant, analysis sections by
        # f"{c:g}": two alike would write one file or section over the other
        text = EX1_SMALL.replace(old, new)
        path = write_scenario(tmp_path, text)
        line = text.splitlines().index(new) + 1
        with pytest.raises(ParseError, match="one over the other") as exc:
            parse_scenario(path)
        assert exc.value.line == line
        out = tmp_path / "out"
        assert main([command, str(path), "--out", str(out)]) == 1
        assert f"error: line {line}: {key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_start_whose_objective_overflows_rejected(self, tmp_path):
        path = write_scenario(tmp_path, EX1_SMALL.replace("theta0 = -3", "theta0 = 1e308"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue, match=r"^line \d+: J and h at theta0"):
                parse_scenario(path)


# values that break one number or list each in its own way
FUZZ_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e400", "1e200", "1e-320",
               "0", "-1", "", "1/0", "a", "1, 2", "3/7", "auto", "true")
FUZZ_KEYS = sorted((section, key) for section, keys in _KNOWN_KEYS.items() for key in keys)


def with_values(text: str, edits) -> str:
    """``text`` with the first assignment of each ``(section, key)`` set to
    its value, or the assignment added in a reopened section."""
    lines = text.splitlines()
    for (section, key), value in edits:
        at = next((i for i, line in enumerate(lines)
                   if line.split("=", 1)[0].strip() == key), None)
        if at is None:
            lines += [f"[{section}]", f"{key} = {value}"]
        else:
            lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(["example1", "example2"]),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                      min_size=1, max_size=2))
@example(name="example2", edits=[(("plant", "hessian_row"), "0")])
@example(name="example1", edits=[(("sim", "record_stride"), "1e200")])
@example(name="example1", edits=[(("dither", "ratios"), "1e400")])
@example(name="example1", edits=[(("sim", "theta0"), "1e308")])
@example(name="example1", edits=[(("plant", "hessian_row"), "-1e308")])
@example(name="example1", edits=[(("plant", "h1"), "-1e308")])
@example(name="example1", edits=[(("dither", "ratios"), "1e308")])
def test_parser_gives_a_scenario_or_a_validation_error(tmp_path_factory, scenario_dir,
                                                      name, edits):
    text = with_values((scenario_dir / f"{name}.scenario").read_text(), edits)
    path = tmp_path_factory.getbasetemp() / "fuzz.scenario"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert isinstance(parse_scenario(path), Scenario)
        except ValidationError:
            pass


def render_sections(text: str) -> str:
    """``text`` rendered back from its sections: one ``key = value`` a line,
    the sections in file order (a reopened one merged into its first),
    comments and blank lines dropped."""
    sections, current = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            current = sections.setdefault(line[1:-1].strip(), [])
        elif line:
            key, value = (part.strip() for part in line.split("=", 1))
            current.append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(f"{entry}\n" for entry in entries)
                   for name, entries in sections.items())


def same_scenario(a, b) -> bool:
    """Field by field: arrays by ``np.array_equal``, everything else by ``==``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(same_scenario(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_scenario(x, y) for x, y in zip(a, b)))
    return a == b


# values that many keys accept, so that more edited scenarios parse
VALID_VALUES = ("0.5", "2", "1e-3", "1, 2", "1.5, 2.5", "75, 100", "classical, asfes",
                "true", "false", "auto")


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(["example1", "example2"]),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS),
                                st.sampled_from(VALID_VALUES) | st.sampled_from(FUZZ_VALUES)),
                      max_size=2))
@example(name="example2", edits=[])
@example(name="example1", edits=[(("gains", "c"), "1, 2"), (("sim", "gamma_guard"), "1e200")])
@example(name="example1", edits=[(("sim", "variants"), "classical, asfes"),
                                 (("sim", "include_average"), "0")])
def test_valid_scenario_survives_render_and_parse(tmp_path_factory, scenario_dir, name, edits):
    text = with_values((scenario_dir / f"{name}.scenario").read_text(), edits)
    base = tmp_path_factory.getbasetemp()
    path, rendered = base / "render_in.scenario", base / "render_out.scenario"
    path.write_text(text)
    try:
        scenario = parse_scenario(path)
    except ValidationError:
        return
    rendered.write_text(render_sections(text))
    assert same_scenario(parse_scenario(rendered), scenario)


BUNDLED = {name: (importlib.resources.files("asfes") / "scenarios" / f"{name}.scenario")
           .read_text().splitlines() for name in ("example1", "example2")}
# a line of arbitrary text, a line of either bundled scenario, or a known
# key set to arbitrary text
ANY_LINE = st.one_of(st.text(), st.sampled_from(sorted({line for lines in BUNDLED.values()
                                                        for line in lines})),
                     st.builds("{0[1]} = {1}".format, st.sampled_from(FUZZ_KEYS), st.text()))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(name=st.sampled_from(sorted(BUNDLED)),
       edits=st.lists(st.tuples(st.integers(0, 60), st.booleans(), ANY_LINE), max_size=6))
def test_parser_raises_only_validation_errors_on_any_text(tmp_path_factory, name, edits):
    # a bundled scenario with lines replaced by, or added from, arbitrary
    # text and lines of either scenario: a scenario, or a ValidationError,
    # and no warning on the way
    lines = list(BUNDLED[name])
    for at, insert, line in edits:
        at %= len(lines) + 1
        lines[at:at + (not insert)] = [line]
    path = tmp_path_factory.getbasetemp() / "fuzz_text.scenario"
    path.write_text("\n".join(lines), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert isinstance(parse_scenario(path), Scenario)
        except ValidationError:
            pass


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(name=st.sampled_from(["example1", "example2"]),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                      min_size=1, max_size=2))
@example(name="example1", edits=[(("gains", "c"), "1e100"), (("plant", "h0"), "-1e100")])
@example(name="example1", edits=[(("gains", "c"), "1e308")])
@example(name="example1", edits=[(("gains", "c"), "1e-320")])
@example(name="example1", edits=[(("gains", "delta"), "1e308")])
@example(name="example2", edits=[(("gains", "k"), "1e308")])
@example(name="example1", edits=[(("gains", "k"), "1e-320")])
@example(name="example1", edits=[(("plant", "h0"), "1e200")])
@example(name="example1", edits=[(("plant", "hessian_row"), "1e200")])
@example(name="example2", edits=[(("plant", "j_star"), "-1e308")])
def test_analyze_exits_0_1_or_2(tmp_path_factory, scenario_dir, name, edits):
    # past the parser: a scenario that parses is analyzed or fails by name
    text = with_values((scenario_dir / f"{name}.scenario").read_text(), edits)
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz_analyze.scenario"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(path), "--out", str(base / "fuzz_analyze")]) in (0, 1, 2)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(name=st.sampled_from(["example1", "example2"]),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
                      min_size=1, max_size=2))
@example(name="example1", edits=[(("sim", "warmup_rel_tol"), "1e-320")])
@example(name="example2", edits=[(("gains", "k"), "1e200")])
@example(name="example2", edits=[(("gains", "c"), "1e200")])
def test_simulate_exits_0_1_or_2(tmp_path_factory, scenario_dir, name, edits):
    # past the parser: a scenario that parses is simulated or fails by name;
    # the horizon is cut to t_end = 0.3 unless an edit sets it
    text = with_values((scenario_dir / f"{name}.scenario").read_text(),
                       [(("sim", "t_end"), "0.3"), *edits])
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz_simulate.scenario"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", str(path), "--out", str(base / "fuzz_simulate")]) in (0, 1, 2)


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("where", ["file", "under_file"])
def test_out_that_cannot_be_a_directory_is_rejected(tmp_path, monkeypatch, capsys,
                                                    command, where):
    # --out naming a file, or a path through one, is a named validation
    # error, raised before anything is stepped
    import asfes.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("stepped before the output directory was checked")

    for name in ("warmup", "integrate"):
        monkeypatch.setattr(cli, name, never)
    path = write_scenario(tmp_path, EX1_SMALL)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker if where == "file" else blocker / "sub"
    runner = run_simulate if command == "simulate" else run_analyze
    with pytest.raises(UnusableOutput, match="--out"):
        runner(parse_scenario(path), out)
    assert main([command, str(path), "--out", str(out)]) == 1
    assert "--out" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"


def summary_blocks(out) -> dict:
    """``{run name: its block of summary.txt}``."""
    return {block.split("]")[0]: block
            for block in (out / "summary.txt").read_text().split("[")[1:]}


class TestRunSimulate:
    def test_small_example1_outputs(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, EX1_SMALL))
        out = tmp_path / "out"
        rc = run_simulate(scenario, out)
        assert rc == 0
        for name in ("asfes_c0.1_x0.csv", "average_c0.1_x0.csv",
                     "reduced_c0.1_x0.csv", "summary.txt"):
            assert (out / name).exists()
        summary = (out / "summary.txt").read_text()
        assert "worst_violation" in summary and "final_objective_gap" in summary

    def test_csv_round_trip_is_exact(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, EX1_SMALL))
        out = tmp_path / "out"
        assert run_simulate(scenario, out) == 0
        # independently recompute the run and compare parsed floats bitwise
        cfg = scenario.config_for(0.1, Variant.ASFES)
        state0 = warmup(scenario.plant, cfg, scenario.initial_theta,
                        warmup_settings(scenario.settings, cfg.omega_f),
                        scenario.warmup_rel_tol)
        traj = integrate(make_rhs(scenario.plant, cfg), state0.as_vector(),
                         scenario.settings,
                         channels=full_state_channels(scenario.plant, cfg),
                         gamma_index=StateLayout.of(1).gamma)
        rows = (out / "asfes_c0.1_x0.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[:3] == ["t", "theta_1", "theta_hat_1"]
        assert rows[1:] and len(rows) - 1 == len(traj)
        for i, row in enumerate(rows[1:]):
            vals = [float(tok) for tok in row.split(",")]
            assert vals[0] == traj.times[i]
            assert vals[1] == traj.thetas[i][0]
            assert vals[2] == traj.states[i][0]
            assert vals[3] == traj.states[i][1]          # g_j_1
            assert vals[-3] == traj.j_values[i]
            assert vals[-2] == traj.h_values[i]
            assert vals[-1] == traj.h_values[0] * math.exp(-0.1 * traj.times[i])

    def test_simulate_deterministic_bytes(self, tmp_path):
        scenario = parse_scenario(write_scenario(tmp_path, EX1_SMALL))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        run_simulate(scenario, out1)
        run_simulate(scenario, out2)
        for name in ("asfes_c0.1_x0.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_newton_divergence_gives_exit_2_and_partial_csv(self, tmp_path):
        text = EX1_SMALL.replace("variants = asfes", "variants = asfes, newton")
        text = text.replace("include_reduced = true", "include_reduced = false")
        text = text.replace("include_average = true", "include_average = false")
        scenario = parse_scenario(write_scenario(tmp_path, text))
        out = tmp_path / "out"
        rc = run_simulate(scenario, out)
        assert rc == 2
        assert (out / "asfes_c0.1_x0.csv").exists()
        assert (out / "newton_c0.1_x0.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "DIVERGED" in summary
        assert "warmup failed" in summary

    def test_diverging_average_and_reduced_runs_are_reported(self, tmp_path):
        # theta0 = 1e308 overflows J, which the parser rejects; set past it,
        # every run leaves the reals at its first step
        scenario = replace(parse_scenario(write_scenario(tmp_path, EX1_SMALL)),
                           initial_thetas=(np.array([1e308]),))
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_simulate(scenario, out) == 2
        blocks = summary_blocks(out)
        for name in ("asfes_c0.1_x0", "average_c0.1_x0", "reduced_c0.1_x0"):
            assert (out / f"{name}.csv").exists()
            assert "note: DIVERGED" in blocks[name]


    def test_warmups_are_shared_by_rates_and_variants(self, tmp_path, scenario_dir,
                                                      monkeypatch):
        # 2 rates x 2 starts x 3 variants: one warmup per start and filter
        # layout (with or without the Newton row), 4 in all, not 12; a failed
        # Newton warmup reaches that start's Newton run at every rate
        import asfes.cli as cli

        text = (scenario_dir / "example1.scenario").read_text()
        text = re.sub(r"(?m)^theta0 = .*\n", "", text)
        text = re.sub(r"(?m)^c = .*$", "c = 1, 0.1", text)
        text = re.sub(r"(?m)^t_end = .*$", "theta0 = -3\ntheta0 = -0.2\nt_end = 0.5", text)
        text = re.sub(r"(?m)^variants = .*$", "variants = asfes, classical, newton", text)
        text = re.sub(r"(?m)^include_(reduced|average) = .*$", "include_\\1 = false", text)
        calls, failed = [], set()

        def counted(plant, cfg, theta0, *args):
            calls.append((cfg.variant is Variant.NEWTON_ASFES, float(theta0[0])))
            try:
                return warmup(plant, cfg, theta0, *args)
            except ComputationError:
                failed.add(calls[-1])
                raise

        monkeypatch.setattr(cli, "warmup", counted)
        out = tmp_path / "out"
        assert run_simulate(parse_scenario(write_scenario(tmp_path, text)), out) == 2
        assert sorted(calls) == [(False, -3.0), (False, -0.2), (True, -3.0), (True, -0.2)]
        assert failed == {(True, -3.0)}
        blocks = summary_blocks(out)
        assert len(blocks) == 12
        for c in ("1", "0.1"):
            for xi, theta0 in enumerate((-3.0, -0.2)):
                for m in ("asfes", "classical", "newton"):
                    assert ("note: warmup failed" in blocks[f"{m}_c{c}_x{xi}"]) == (
                        (m == "newton", theta0) in failed)

    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_product_members_match_their_solo_runs(self, tmp_path, scenario_dir, example):
        # two rates x two starts: the warmups and every product step
        # member by member
        self.check_members_match_their_solo_runs(tmp_path, scenario_dir, example)

    @staticmethod
    def check_members_match_their_solo_runs(tmp_path, scenario_dir, example):
        # each member's CSV holds the run it has alone, after one warmup
        # per start shared by both rates and both variants
        text = (scenario_dir / f"{example}.scenario").read_text()
        text = re.sub(r"(?m)^theta0 = .*\n", "", text)
        text = re.sub(r"(?m)^c = .*$", "c = 1, 0.1", text)
        text = re.sub(r"(?m)^t_end = .*$", "theta0 = {}\ntheta0 = {}\nt_end = 0.5".format(
            *(("-3", "-2") if example == "example1" else ("1.5, 1.5", "-0.5, -0.5"))), text)
        text = re.sub(r"(?m)^variants = .*$", "variants = asfes, classical", text)
        text = re.sub(r"(?m)^include_average = .*$", "include_average = true", text)
        scenario = parse_scenario(write_scenario(tmp_path, text))
        plant = scenario.plant
        n = plant.dimension
        out = tmp_path / "out"
        assert run_simulate(scenario, out) == 0
        names = [line[1:-1] for line in (out / "summary.txt").read_text().splitlines()
                 if line.startswith("[")]
        assert names == [f"{m}_c{c}_x{x}" for c in ("1", "0.1") for x in (0, 1)
                         for m in ("asfes", "classical", "average", "reduced")]
        for c in (1.0, 0.1):
            for xi, theta0 in enumerate(scenario.initial_thetas):
                cfg = scenario.config_for(c, Variant.ASFES)
                state0 = warmup(plant, cfg, theta0,
                                warmup_settings(scenario.settings, cfg.omega_f),
                                scenario.warmup_rel_tol)
                for variant in (Variant.ASFES, Variant.CLASSICAL_ES):
                    cfg = scenario.config_for(c, variant)
                    traj = integrate(make_rhs(plant, cfg), state0.as_vector(),
                                     scenario.settings,
                                     channels=full_state_channels(plant, cfg),
                                     gamma_index=StateLayout.of(n).gamma)
                    rows = (out / f"{variant.value}_c{c:g}_x{xi}.csv").read_text()
                    rows = rows.strip().splitlines()[1:]
                    assert len(rows) == len(traj)
                    for i, row in enumerate(rows):
                        vals = [float(tok) for tok in row.split(",")]
                        assert vals[0] == traj.times[i]
                        assert vals[1:1 + n] == list(traj.thetas[i])
                        assert vals[1 + n:-3] == list(traj.states[i])
                        assert vals[-3:-1] == [traj.j_values[i], traj.h_values[i]]
                slow = _slow_settings(scenario.settings, cfg.omega_f)
                alone = tmp_path / "alone.csv"
                # the averaged model's product, from the exact initial state
                # with theta_tilde in the theta rows
                cfg = scenario.config_for(c, Variant.ASFES)
                layout = StateLayout.of(n)
                x0 = exact_initial_state(plant, cfg, theta0).as_vector()
                x0[layout.theta] = theta0 - plant.theta_star
                average = make_average_rhs(plant, cfg)
                averaged = integrate(lambda t, y: average(y), x0, slow,
                                     channels=average_channels(plant),
                                     gamma_index=layout.gamma)
                write_trajectory_csv(alone, averaged, "theta_tilde", c, layout.filter_names)
                assert (out / f"average_c{c:g}_x{xi}.csv").read_bytes() == alone.read_bytes()
                # the reduced model's product
                field = make_reduced_rhs(plant, cfg)
                reduced = integrate(lambda t, y: field(y), theta0 - plant.theta_star, slow,
                                    channels=reduced_channels(plant))
                write_trajectory_csv(alone, reduced, "theta_tilde", c)
                assert (out / f"reduced_c{c:g}_x{xi}.csv").read_bytes() == alone.read_bytes()


class TestRunAnalyze:
    def test_example1_report_values(self, tmp_path, scenario_dir):
        scenario = parse_scenario(scenario_dir / "example1.scenario")
        out = tmp_path / "analysis"
        assert run_analyze(scenario, out) == 0
        rows = {}
        for line in (out / "analysis.csv").read_text().strip().splitlines()[1:]:
            section, key, value = line.split(",", 2)
            rows[(section, key)] = value
        assert float(rows[("c=0.1", "theta_tilde_ae_1")]) == pytest.approx(
            -1.07735026918963, abs=1e-10)
        assert float(rows[("c=0.1", "eta_h_ae")]) == pytest.approx(
            0.0773502691896257, abs=1e-10)
        assert rows[("c=0.1", "hurwitz")] == "True"
        assert float(rows[("c=0.1", "max_pairing_residual")]) <= 1e-8
        assert float(rows[("constrained_optimum", "j_s_star")]) == 0.05
        assert rows[("constrained_optimum", "nb_eigenvector_condition")] == "True"
        # softening bias grows with delta
        sweep = [float(rows[("delta_sweep", f"eta_h_ae_delta_{d:g}")])
                 for d in (1e-6, 1e-4, 1e-2)]
        assert sweep[0] < sweep[1] < sweep[2]

    def test_example2_report_values(self, tmp_path, scenario_dir):
        scenario = parse_scenario(scenario_dir / "example2.scenario")
        out = tmp_path / "analysis"
        assert run_analyze(scenario, out) == 0
        rows = {}
        for line in (out / "analysis.csv").read_text().strip().splitlines()[1:]:
            section, key, value = line.split(",", 2)
            rows[(section, key)] = value
        assert float(rows[("constrained_optimum", "j_s_star")]) == pytest.approx(0.5)
        assert float(rows[("constrained_optimum", "theta_smin_1")]) == pytest.approx(0.5)
        assert float(rows[("constrained_optimum", "theta_smin_2")]) == pytest.approx(0.5)
        assert rows[("constrained_optimum", "nb_eigenvector_condition")] == "True"
        for c in ("c=1", "c=0.1"):
            assert rows[(c, "hurwitz")] == "True"
            assert float(rows[(c, "j11_fd_rel_error")]) <= 1e-6
            assert float(rows[(c, "jr_fd_rel_error")]) <= 1e-6

    def test_anisotropic_plant_fails_nb_condition(self, tmp_path):
        text = EX1_SMALL.replace("hessian_row = 0.1",
                                 "hessian_row = 1, 0\nhessian_row = 0, 4")
        text = text.replace("theta_star = 0", "theta_star = 0, 0")
        text = text.replace("h1 = -1", "h1 = 1, 1")
        text = text.replace("ratios = 1", "ratios = 75, 100")
        text = text.replace("base_scale = 200", "base_scale = 1")
        text = text.replace("theta0 = -3", "theta0 = 2, 2")
        scenario = parse_scenario(write_scenario(tmp_path, text))
        out = tmp_path / "analysis"
        assert run_analyze(scenario, out) == 0
        content = (out / "analysis.csv").read_text()
        assert "nb_eigenvector_condition,False" in content


class TestRunVerify:
    def test_deterministic_and_passing(self):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            assert run_verify(7, 25, stream=buf) == 0
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        assert "ALL PROPERTIES PASS" in bufs[0]

    def test_zero_trials_usage_error(self, capsys):
        for trials in (0, -3):
            buf = io.StringIO()
            with pytest.raises(NonPositiveTrials, match="--trials"):
                run_verify(7, trials, stream=buf)
            assert buf.getvalue() == ""
            assert main(["verify", "--trials", str(trials)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: --trials must be a positive integer, got {trials}\n")

    def test_main_verify(self, capsys):
        rc = main(["verify", "--seed", "3", "--trials", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 6


def test_python_dash_m_help():
    src = str(Path(__import__("asfes").__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "asfes", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert "simulate" in done.stdout
