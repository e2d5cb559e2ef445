#!/usr/bin/env python3
"""Write ``reference.json``: what the program outputs on every input the
workloads can generate, for the checker to compare against.

    python3 perfbench/make_reference.py

sim-sweep2d is run once over every start in both pools, so the reference
covers whichever six starts a seed draws.  Regenerate only for a change
meant to alter the program's results, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from checker import REFERENCE_PATH, parse_analysis_csv, parse_summary, reference_key
from run import BLAS_THREADS, OUT, SRC
from workloads import SWEEP_POOL, members, render, scenarios, sweep_sections, write_inputs


def simulate(cli, sections: dict, out) -> dict:
    path = out / "input.scenario"
    out.mkdir(parents=True, exist_ok=True)
    path.write_text(render(sections))
    cli.run_simulate(cli.parse_scenario(path), out)
    blocks = parse_summary((out / "summary.txt").read_text())
    return {reference_key(m): blocks[m.name] for m in members(sections)}


def main() -> int:
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import asfes.cli as cli

    work = OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for name in ("sim-scalar", "sim-dense"):
        (sections,) = scenarios(name, 0).values()
        reference[name] = {"members": simulate(cli, sections, work / name)}
    reference["sim-sweep2d"] = {"members": simulate(
        cli, sweep_sections(SWEEP_POOL), work / "sim-sweep2d")}
    analysis = {}
    for path in write_inputs("verify", 0, None):
        cli.run_analyze(cli.parse_scenario(path), work / path.stem)
        analysis[path.stem] = parse_analysis_csv(work / path.stem / "analysis.csv")
    reference["verify"] = {"analysis": analysis}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
