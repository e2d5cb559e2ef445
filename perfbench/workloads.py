"""Seeded inputs for the four workloads, and the library calls that run them.

Every input is one of the bundled example scenarios
(``src/asfes/scenarios/example{1,2}.scenario``) with a few ``[sim]`` keys
overridden.  The program under test only ever sees the scenario files
written here, or for ``verify`` the bundled files themselves.
``make_inputs`` is pure: the same workload and seed give byte-identical
files.  Only ``sim-sweep2d`` (its theta0 starts) and ``verify`` (the seed it
passes to ``run_verify``) depend on the seed; the other two run fixed
inputs whose reference values are committed in ``reference.json``.
"""

from __future__ import annotations

import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("sim-scalar", "sim-sweep2d", "sim-dense", "verify")
BUNDLED = Path(__file__).resolve().parent.parent / "src" / "asfes" / "scenarios"

# Example 2's safe set is {theta_1 + theta_2 >= 1}.  sim-sweep2d draws three
# safe and three unsafe starts from this pool.  A pool rather than free
# draws keeps every possible member covered by a committed reference value;
# each start sits at least 0.5 from h = 0.
SWEEP_POOL = ("1.5, 1.5", "2.5, 0.5", "0.5, 2.5", "2.0, 1.0",
              "1.0, 2.0", "2.0, 2.0", "3.0, -0.5", "-0.5, 3.0",
              "-0.5, -0.5", "1.5, -1.5", "-1.5, 1.0", "0.0, 0.0",
              "-1.0, -1.0", "0.5, -1.0", "-1.0, 0.5", "0.25, 0.25")
SWEEP_PICKS = 3

# Horizons are cut from the examples' 150 and 60, and verify runs 25 trials,
# so that a run holds many passes: on a shared machine one pass's time over
# its reference time (see run.py) still varies by about 15% from pass to
# pass, and only a median over many passes stays put.  Stepping still
# dominates each simulation pass.
SCALAR_T_END = "15"
SWEEP_T_END = "2"
VERIFY_TRIALS = 25


def barrier2(theta0: str) -> float:
    """h = theta_1 + theta_2 - 1 for the example-2 plant."""
    t1, t2 = (float(tok) for tok in theta0.split(","))
    return t1 + t2 - 1.0


def render(sections: dict) -> str:
    """Scenario text from ``{section: [(key, value), ...]}``."""
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in entries]
        lines.append("")
    return "\n".join(lines)


def parse_sections(text: str) -> dict:
    """``{section: [(key, value), ...]}`` of scenario text, comments dropped."""
    sections, current = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]").strip(), [])
        elif line:
            key, value = (part.strip() for part in line.split("=", 1))
            current.append((key, value))
    return sections


def bundled(name: str) -> Path:
    return BUNDLED / f"{name}.scenario"


def _replace(entries: list, **values) -> list:
    """``entries`` with the given keys' values replaced; a key the entries
    lack is appended."""
    keys = {key for key, _ in entries}
    return ([(key, values.get(key, value)) for key, value in entries]
            + [(key, value) for key, value in values.items() if key not in keys])


def example(name: str, **sim) -> dict:
    """A bundled example's sections, with the given ``[sim]`` keys replaced."""
    sections = parse_sections(bundled(name).read_text())
    return {**sections, "sim": _replace(sections["sim"], **sim)}


def sweep_starts(seed: int) -> list:
    """Three safe then three unsafe theta0 strings, drawn from ``seed``;
    a start is safe when h(theta0) >= 0."""
    rng = random.Random(seed)
    safe = [start for start in SWEEP_POOL if barrier2(start) >= 0.0]
    unsafe = [start for start in SWEEP_POOL if barrier2(start) < 0.0]
    return rng.sample(safe, SWEEP_PICKS) + rng.sample(unsafe, SWEEP_PICKS)


def scenarios(workload: str, seed: int) -> dict:
    """``{file name: sections}`` for one workload and seed."""
    if workload == "sim-scalar":
        return {"sim-scalar.scenario": example("example1", t_end=SCALAR_T_END)}
    if workload == "sim-dense":
        return {"sim-dense.scenario": example(
            "example1", t_end=SCALAR_T_END, record_stride="1", variants="asfes",
            include_reduced="false", include_average="false")}
    if workload == "sim-sweep2d":
        return {"sim-sweep2d.scenario": sweep_sections(sweep_starts(seed))}
    if workload == "verify":
        return {f"{name}.scenario": parse_sections(bundled(name).read_text())
                for name in ("example1", "example2")}
    if workload == "probe":
        # reaches every layer in well under a second; see layers.probe_figures
        return {"probe.scenario": example("example1", t_end="5", variants="asfes")}
    raise ValueError(f"unknown workload {workload!r}")


def sweep_sections(starts) -> dict:
    """Example 2 from the given starts, over the shortened horizon."""
    sections = example("example2", t_end=SWEEP_T_END)
    sim = [("theta0", theta0) for theta0 in starts]
    sim += [entry for entry in sections["sim"] if entry[0] != "theta0"]
    return {**sections, "sim": sim}


def make_inputs(workload: str, seed: int) -> dict:
    """``{file name: scenario text}`` for one workload and seed."""
    if workload == "verify":
        return {path.name: path.read_text() for path in write_inputs(workload, seed, None)}
    return {name: render(sections) for name, sections in scenarios(workload, seed).items()}


def write_inputs(workload: str, seed: int, directory) -> list:
    """The workload's scenario files, written to ``directory``; verify
    analyzes the bundled files themselves and writes none."""
    if workload == "verify":
        return [bundled("example1"), bundled("example2")]
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, sections in scenarios(workload, seed).items():
        path = directory / name
        path.write_text(render(sections))
        paths.append(path)
    return paths


@dataclass
class Outcome:
    """What one pass of a workload returned and where it wrote."""

    exit_codes: dict = field(default_factory=dict)   # output dir name -> code
    verify_text: str = ""


def run_pass(cli, workload: str, seed: int, inputs: list, out_dir: Path) -> Outcome:
    """One pass: parse each input and make the call the CLI would make."""
    outcome = Outcome()
    if workload == "verify":
        buf = io.StringIO()
        outcome.exit_codes["verify"] = cli.run_verify(seed, VERIFY_TRIALS, stream=buf)
        outcome.verify_text = buf.getvalue()
        for path in inputs:
            outcome.exit_codes[path.stem] = cli.run_analyze(
                cli.parse_scenario(path), out_dir / path.stem)
        return outcome
    (path,) = inputs
    outcome.exit_codes[path.stem] = cli.run_simulate(
        cli.parse_scenario(path), out_dir / path.stem)
    return outcome


# ---- work counted from the inputs --------------------------------------------

def n_steps(t_end: float, dt: float) -> int:
    """Step count of the fixed-step integrator for this horizon."""
    return max(1, math.ceil(t_end / dt - 1e-9))


def n_records(steps: int, stride: int) -> int:
    """Records of a run that completes ``steps`` steps: t=0, every
    ``stride``-th step, and the last step."""
    return 1 + steps // stride + (1 if steps % stride else 0)


@dataclass(frozen=True)
class Member:
    """One simulated run of a scenario's product, as ``summary.txt`` names it."""

    name: str
    model: str        # asfes, newton, classical, average or reduced
    theta0: str
    steps: int        # steps of a run that does not diverge
    stride: int
    h: float          # the step the integrator takes: t_end / steps


def _floats(text: str) -> list:
    return [float(tok) for tok in text.split(",")]


def members(sections: dict) -> list:
    """Every run ``run_simulate`` makes for a scenario, in its order.

    Worked out from the scenario's own values, so that step and record
    counts do not rest on the program's report of them.
    """
    values = {key: value for entries in sections.values() for key, value in entries}
    sim = dict(sections["sim"])
    starts = [value for key, value in sections["sim"] if key == "theta0"]
    t_end = float(sim["t_end"])
    if sim.get("dt", "auto") == "auto":
        omega_max = float(values["base_scale"]) * max(
            float(Fraction(tok.strip())) for tok in values["ratios"].split(","))
        dt = (2.0 * math.pi / omega_max) / 40
    else:
        dt = float(sim["dt"])
    slow = min(25.0 * dt, 0.25 / float(values["omega_f"]))
    stride = int(sim.get("record_stride", "1"))
    variants = [tok.strip() for tok in sim.get("variants", "asfes").split(",")]
    slow_models = [model for model in ("average", "reduced")
                   if sim.get(f"include_{model}", "false") == "true"]
    out = []
    for c in _floats(values["c"]):
        for xi, theta0 in enumerate(starts):
            for model in variants:
                steps = n_steps(t_end, dt)
                out.append(Member(f"{model}_c{c:g}_x{xi}", model, theta0,
                                  steps, stride, t_end / steps))
            for model in slow_models:
                steps = n_steps(t_end, slow)
                out.append(Member(f"{model}_c{c:g}_x{xi}", model, theta0,
                                  steps, 1, t_end / steps))
    return out
