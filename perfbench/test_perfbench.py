"""Tests of the benchmark itself: input generator, checker and tracer."""

from __future__ import annotations

import time
import types

import pytest

from checker import (Check, check_member, compare_block, load_reference, parse_summary,
                     reduced_trials, reference_key)
from tracer import Tracer, install
from workloads import (WORKLOADS, Member, barrier2, bundled, make_inputs, members,
                       parse_sections, render, scenarios, sweep_starts, write_inputs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    first = [p.read_bytes() for p in write_inputs(workload, 11, tmp_path / "a")]
    second = [p.read_bytes() for p in write_inputs(workload, 11, tmp_path / "b")]
    assert first == second


def test_inputs_are_the_bundled_examples_with_sim_keys_replaced():
    example1 = parse_sections(bundled("example1").read_text())
    (scalar,) = scenarios("sim-scalar", 0).values()
    assert {k: v for k, v in scalar.items() if k != "sim"} == {
        k: v for k, v in example1.items() if k != "sim"}
    assert [k for k, _ in scalar["sim"]] == [k for k, _ in example1["sim"]]
    assert dict(scalar["sim"])["t_end"] == "15" and dict(example1["sim"])["t_end"] == "150"
    assert parse_sections(render(scalar)) == scalar
    assert write_inputs("verify", 0, None) == [bundled("example1"), bundled("example2")]


def test_sweep_draws_three_safe_and_three_unsafe_starts():
    draws = set()
    for seed in range(10):
        starts = sweep_starts(seed)
        assert [barrier2(s) >= 0.5 for s in starts] == [True] * 3 + [False] * 3
        assert all(barrier2(s) <= -0.5 for s in starts[3:])
        assert len(set(starts)) == 6
        draws.add(tuple(starts))
    assert len(draws) > 1
    assert make_inputs("sim-sweep2d", 1) != make_inputs("sim-sweep2d", 2)


def test_every_member_a_seed_can_draw_has_a_reference():
    reference = load_reference()
    for workload in ("sim-scalar", "sim-dense", "sim-sweep2d"):
        for seed in range(20):
            (sections,) = scenarios(workload, seed).values()
            for member in members(sections):
                assert reference_key(member) in reference[workload]["members"]


def render_summary(blocks: dict) -> str:
    """Summary text in the layout ``run_simulate`` writes."""
    lines = []
    for name, block in blocks.items():
        lines.append(f"[{name}]")
        lines += [f"  {key} = {value:.6g}" for key, value in block["fields"].items()]
        lines += [f"  note: {note}" for note in block["notes"]]
        lines.append("")
    return "\n".join(lines)


def scalar_reference():
    (sections,) = scenarios("sim-scalar", 0).values()
    ref = load_reference()["sim-scalar"]["members"]
    return {m.name: (m, ref[reference_key(m)]) for m in members(sections)}


def test_checker_accepts_the_reference_and_rejects_a_perturbed_value():
    runs = scalar_reference()
    blocks = parse_summary(render_summary({name: ref for name, (_, ref) in runs.items()}))
    for name, (member, ref) in runs.items():
        assert compare_block(blocks[name], ref, 2 * member.stride * member.h) == []

    member, ref = runs["asfes_c0.1_x0"]
    perturbed = {"fields": dict(ref["fields"]), "notes": ref["notes"]}
    perturbed["fields"]["final_h"] *= 1.001
    problems = compare_block(perturbed, ref, 2 * member.stride * member.h)
    assert len(problems) == 1 and problems[0].startswith("final_h")

    member, ref = runs["newton_c0.1_x0"]
    assert any("DIVERGED" in note for note in ref["notes"])
    not_diverged = {"fields": ref["fields"], "notes": []}
    assert compare_block(not_diverged, ref, 2 * member.stride * member.h)


def test_checker_counts_rows_and_the_reduced_envelope(tmp_path):
    member = Member("reduced_c1_x0", "reduced", "0, 0", steps=2, stride=1, h=0.5)
    ref = {"fields": {}, "notes": []}
    block = {"fields": {}, "notes": []}
    header = "t,theta_1,theta_tilde_1,j,h,envelope\n"
    csv = tmp_path / "reduced_c1_x0.csv"
    csv.write_text(header + "0,0,0,1,-1,-1\n0.5,0,0,1,-0.5,-0.6\n1,0,0,1,-0.3,-0.37\n")
    assert check_member(member, block, ref, tmp_path) == []
    csv.write_text(header + "0,0,0,1,-1,-1\n0.5,0,0,1,-0.7,-0.6\n1,0,0,1,-0.3,-0.37\n")
    assert any("envelope" in p for p in check_member(member, block, ref, tmp_path))
    csv.write_text(header + "0,0,0,1,-1,-1\n")
    assert any("rows" in p for p in check_member(member, block, ref, tmp_path))

    assert reduced_trials("PASS  reduced-exact-safety     trials=7 min_envelope_gap=0\n") == 7
    assert reduced_trials("PASS  spectral-structure       trials=7 x=0\n") is None

    check = Check()
    check.op("ok", [])
    check.op("bad", ["wrong"])
    assert (check.attempted, check.failed) == (2, 1)


def test_spans_nest_and_self_time_excludes_children_and_leaves():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 1.0

    def inner():
        now[0] += 2.0
        leaf_w()
        leaf_w()

    def outer():
        now[0] += 4.0
        inner_w()
        now[0] += 8.0
        raise ValueError("late")

    leaf_w = tracer.wrap_leaf("leaf", leaf)
    inner_w = tracer.wrap_span("inner", inner)
    outer_w = tracer.wrap_span("outer", outer)
    with pytest.raises(ValueError):
        outer_w()
    leaf_w()

    outer_span, inner_span = tracer.spans
    assert (outer_span.parent, inner_span.parent) == (-1, 0)
    assert (outer_span.duration, inner_span.duration) == (16.0, 4.0)
    assert tracer.self_times() == [12.0, 2.0]
    assert inner_span.leaves == {"leaf": [2, 2.0]} and outer_span.leaves == {}
    assert outer_span.attrs == {"error": "ValueError"}
    assert tracer.orphan_leaves == {"leaf": [1, 1.0]}
    assert tracer.subtree(0) == [0, 1] and tracer.subtree(1) == [1]


def test_self_time_excludes_the_calibrated_leaf_wrapper_cost():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    tracer.leaf_outside, tracer.leaf_inside = 0.25, 0.125
    leaf_w = tracer.wrap_leaf("leaf", lambda: None)
    with tracer.span("outer"):
        now[0] += 4.0
        leaf_w()
        leaf_w()
    assert tracer.self_times() == [3.5]
    assert tracer.leaf_seconds([2, 1.0]) == 0.75

    real = Tracer()
    real.calibrate(calls=2000, repeats=3)
    assert 0.0 <= real.leaf_outside < 1e-4 and 0.0 <= real.leaf_inside < 1e-4


def test_within_runs_the_minimum_then_keeps_to_the_span():
    from run import within

    assert list(within(0.0, 3)) == [0, 1, 2]
    rounds = 0
    for rounds in within(1.0, 1):
        time.sleep(0.3)
    assert rounds + 1 == 3


def test_speed_sampler_takes_its_samples_out_of_the_call_and_the_clock():
    from run import SAMPLE_INTERVAL_S, SpeedSampler

    sampler = SpeedSampler()

    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * SAMPLE_INTERVAL_S:
            pass
        return "done"

    start = sampler.clock()
    result, (wall, cpu), (ref_wall, ref_cpu) = sampler.measure(busy)
    assert result == "done" and ref_wall > 0 and ref_cpu > 0
    assert len(sampler._samples) >= 3
    assert wall + sampler.spent[0] >= 4 * SAMPLE_INTERVAL_S > wall
    assert abs(sampler.clock() - start - wall) < 0.01
    # a call shorter than the interval still gets one sample, after it
    assert sampler.measure(lambda: 1)[2][0] > 0


def test_install_rebinds_every_name_bound_to_the_function():
    def f():
        return "f"

    a, b = types.ModuleType("a"), types.ModuleType("b")
    a.f, b.alias, b.other = f, f, len
    undo = install([a, b], {f: lambda: "wrapped"})
    assert (a.f(), b.alias(), b.other) == ("wrapped", "wrapped", len)
    undo()
    assert a.f is f and b.alias is f


def test_instrument_sees_calls_through_every_binding(tmp_path):
    import layers
    from asfes import cli

    sections = scenarios("probe", 0)["probe.scenario"]
    sections = {**sections, "sim": [(k, "0.5" if k == "t_end" else v)
                                    for k, v in sections["sim"]]}
    path = tmp_path / "tiny.scenario"
    path.write_text(render(sections))
    tracer = Tracer()
    undo = layers.instrument(tracer)
    try:
        with tracer.span(layers.ROOT_SPAN):
            assert cli.run_simulate(cli.parse_scenario(path), tmp_path / "out") == 0
    finally:
        undo()
    assert not hasattr(cli.integrate, "__wrapped__")

    names = [s.name for s in tracer.spans]
    assert names.count("integrate.integrate") == 3 and "cli.write_trajectory_csv" in names
    # warmup reaches make_rhs through the integrate module's own binding
    (warmup,) = [s for s in tracer.spans if s.name == "integrate.warmup"]
    assert warmup.leaves["dynamics.rhs.full"][0] > 0
    figures = layers.span_figures(tracer, 0)
    assert figures["integrate.steps"] == sum(m.steps for m in members(sections))
    assert figures["integrate.rhs_calls_per_step"] == 4.0
    assert all(figures[f"integrate.step_us.{kind}"] > 0 for kind in ("full", "average", "reduced"))
