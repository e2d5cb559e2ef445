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
from asfes.dynamics import StateLayout, Variant, make_rhs, reduced_rhs
from asfes.errors import (NonFiniteValue, ParseError, ResonantTriple, UnusableOutput,
                          ValidationError)
from asfes.integrate import full_state_channels, integrate, reduced_channels, warmup

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
        blocks = {block.split("]")[0]: block
                  for block in (out / "summary.txt").read_text().split("[")[1:]}
        for name in ("asfes_c0.1_x0", "average_c0.1_x0", "reduced_c0.1_x0"):
            assert (out / f"{name}.csv").exists()
            assert "note: DIVERGED" in blocks[name]


    @pytest.mark.parametrize("example", ["example1", "example2"])
    def test_product_members_match_their_solo_runs(self, tmp_path, scenario_dir, example):
        # two rates x two starts, stepped as one batch on example 2's plant
        # (n = 2) and member by member on example 1's (n = 1): either way
        # each member's CSV holds the run it has alone, after one warmup
        # per start shared by both rates and both variants
        text = (scenario_dir / f"{example}.scenario").read_text()
        text = re.sub(r"(?m)^theta0 = .*\n", "", text)
        text = re.sub(r"(?m)^c = .*$", "c = 1, 0.1", text)
        text = re.sub(r"(?m)^t_end = .*$", "theta0 = {}\ntheta0 = {}\nt_end = 0.5".format(
            *(("-3", "-2") if example == "example1" else ("1.5, 1.5", "-0.5, -0.5"))), text)
        text = re.sub(r"(?m)^variants = .*$", "variants = asfes, classical", text)
        text = text.replace("include_average = true", "include_average = false")
        scenario = parse_scenario(write_scenario(tmp_path, text))
        plant = scenario.plant
        n = plant.dimension
        out = tmp_path / "out"
        assert run_simulate(scenario, out) == 0
        names = [line[1:-1] for line in (out / "summary.txt").read_text().splitlines()
                 if line.startswith("[")]
        assert names == [f"{m}_c{c}_x{x}" for c in ("1", "0.1") for x in (0, 1)
                         for m in ("asfes", "classical", "reduced")]
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
                # the reduced model's product, batched on example 2 too
                reduced = integrate(lambda t, y: reduced_rhs(plant, cfg, y),
                                    theta0 - plant.theta_star,
                                    _slow_settings(scenario.settings, cfg.omega_f),
                                    channels=reduced_channels(plant))
                alone = tmp_path / "alone.csv"
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

    def test_zero_trials_usage_error(self):
        buf = io.StringIO()
        assert run_verify(7, 0, stream=buf) == 1

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
