"""Correctness of a workload pass against ``reference.json``.

Numbers are compared with a tolerance loose enough for a last-bit change in
the order of floating-point operations (the printed summary keeps six
significant digits), and times with a tolerance of two records, because
such a change can move an arg-min or a first crossing to the next record.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Member, n_records

REFERENCE_PATH = Path(__file__).with_name("reference.json")

ABS_TOL = 1e-6
REL_TOL = 1e-5
# exact safety of the reduced model: h(t) never falls below h(0) exp(-c t)
ENVELOPE_TOL = 1e-6
TIME_FIELDS = ("violation_time", "entered_safe_set_at", "gamma_guard_exceeded_at")
PROPERTIES = ("averaging-oracle", "equilibrium-residual", "equilibrium-interior",
              "gamma-riccati-root", "spectral-structure", "reduced-exact-safety")
_DIVERGED = re.compile(r"DIVERGED: .* at t=(\S+)")
_REDUCED_TRIALS = re.compile(r"^(?:PASS|FAIL)\s+reduced-exact-safety\s+trials=(\d+)\s", re.M)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass
class Check:
    """Operations attempted and, per failed operation, what was wrong."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)   # operation -> [messages]

    def op(self, name: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures[name] = problems

    def fail(self, name: str, problem: str) -> None:
        """A fault of the whole pass, such as a wrong exit code."""
        self.failures.setdefault(name, []).append(problem)

    @property
    def failed(self) -> int:
        return len(self.failures)


def close(got: float, ref: float) -> bool:
    return abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref)


def parse_summary(text: str) -> dict:
    """``{run name: {"fields": {key: float}, "notes": [text]}}``."""
    blocks, current = {}, None
    for line in text.splitlines():
        if line.startswith("["):
            current = blocks.setdefault(line.strip("[]"), {"fields": {}, "notes": []})
        elif line.strip().startswith("note: "):
            current["notes"].append(line.strip()[len("note: "):])
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            current["fields"][key] = float(value)
    return blocks


def note_kinds(notes: list) -> list:
    """'DIVERGED' or 'warmup failed': the part of a note before its detail."""
    return [re.split(r"[:(]", note, maxsplit=1)[0].strip() for note in notes]


def diverged_at(notes: list):
    for note in notes:
        match = _DIVERGED.search(note)
        if match:
            return float(match.group(1))
    return None


def compare_block(got: dict, ref: dict, time_tol: float) -> list:
    """Differences between one summary block and its reference."""
    problems = []
    if sorted(got["fields"]) != sorted(ref["fields"]):
        problems.append(f"fields {sorted(got['fields'])} != {sorted(ref['fields'])}")
    real_violation = ref["fields"].get("worst_violation", 0.0) < -ABS_TOL
    for key, want in ref["fields"].items():
        have = got["fields"].get(key)
        if have is None or (key == "violation_time" and not real_violation):
            continue
        if key in TIME_FIELDS:
            ok = abs(have - want) <= time_tol + REL_TOL * abs(want)
        else:
            ok = close(have, want)
        if not ok:
            problems.append(f"{key} = {have!r}, reference {want!r}")
    if note_kinds(got["notes"]) != note_kinds(ref["notes"]):
        problems.append(f"notes {got['notes']} != reference {ref['notes']}")
    t_got, t_ref = diverged_at(got["notes"]), diverged_at(ref["notes"])
    if t_got is not None and t_ref is not None and abs(t_got - t_ref) > time_tol:
        problems.append(f"diverged at t={t_got}, reference t={t_ref}")
    return problems


def reference_key(member: Member) -> str:
    """Runs are matched to references by model, c and start, not by index."""
    return f"{member.name.rsplit('_x', 1)[0]}@{member.theta0}"


def read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows


def scan_trajectory(path: Path, reduced: bool) -> tuple:
    """(data rows, least h - envelope or None) of a trajectory CSV, read a
    row at a time so that the check adds no memory that grows with the run
    (``peak_rss_mb`` is the whole benchmark process's)."""
    rows, gap = 0, None
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if reduced:
            h_col, env_col = header.index("h"), header.index("envelope")
            gap = math.inf
        for row in reader:
            rows += 1
            if reduced:
                gap = min(gap, float(row[h_col]) - float(row[env_col]))
    return rows, gap


def completed_steps(member: Member, notes: list) -> int:
    t_fail = diverged_at(notes)
    if t_fail is None:
        return member.steps
    return round(t_fail / member.h) - 1


def check_member(member: Member, block, ref: dict, out_dir: Path) -> list:
    if block is None:
        return ["missing from summary.txt"]
    problems = compare_block(block, ref, 2 * member.stride * member.h)
    steps = completed_steps(member, block["notes"])
    if diverged_at(block["notes"]) is None:
        records = n_records(steps, member.stride)
    else:
        records = 1 + steps // member.stride
    path = out_dir / f"{member.name}.csv"
    if not path.exists():
        return problems + [f"{path.name} not written"]
    rows, gap = scan_trajectory(path, member.model == "reduced")
    if rows != records:
        problems.append(f"{path.name}: {rows} rows, expected {records}")
    if gap is not None and gap < -ENVELOPE_TOL:
        problems.append(f"reduced run leaves its envelope: gap {gap:.3e}")
    return problems


def check_simulation(members: list, exit_code: int, out_dir: Path,
                     reference: dict, check: Check) -> dict:
    """One operation per member of the scenario's product; returns the
    parsed summary."""
    summary_path = out_dir / "summary.txt"
    blocks = parse_summary(summary_path.read_text()) if summary_path.exists() else {}
    refs = [reference["members"][reference_key(m)] for m in members]
    expected_exit = 2 if any(diverged_at(r["notes"]) is not None for r in refs) else 0
    if exit_code != expected_exit:
        check.fail("exit code", f"{exit_code}, expected {expected_exit}")
    for member, ref in zip(members, refs):
        check.op(member.name, check_member(member, blocks.get(member.name), ref, out_dir))
    extra = sorted(set(blocks) - {m.name for m in members})
    if extra:
        check.fail("summary", f"unexpected runs {extra}")
    return blocks


def parse_analysis_csv(path: Path) -> dict:
    rows = read_csv(path)
    return {f"{section}/{key}": value for section, key, value in rows[1:]}


def compare_analysis(got: dict, ref: dict) -> list:
    if sorted(got) != sorted(ref):
        return [f"keys differ: {sorted(set(got) ^ set(ref))}"]
    problems = []
    for key, want in ref.items():
        have = got[key]
        try:
            ok = close(float(have), float(want))
        except ValueError:
            ok = have == want
        if not ok:
            problems.append(f"{key} = {have}, reference {want}")
    return problems


def reduced_trials(text: str):
    """The reduced-model trial count that ``run_verify`` prints on its
    ``reduced-exact-safety`` line, or None."""
    match = _REDUCED_TRIALS.search(text)
    return int(match.group(1)) if match else None


def check_verify(seed: int, trials: int, exit_codes: dict, text: str,
                 out_dir: Path, reference: dict, check: Check) -> None:
    """One operation per verify property and per analyzed scenario."""
    lines = {line.split()[1]: line.split()[0] for line in text.splitlines()
             if len(line.split()) > 1 and line.split()[0] in ("PASS", "FAIL")}
    for name in PROPERTIES:
        status = lines.get(name)
        check.op(name, [] if status == "PASS" else [f"{name}: {status or 'not reported'}"])
    if exit_codes["verify"] != 0 or f"ALL PROPERTIES PASS (seed={seed}, trials={trials})" not in text:
        check.fail("verify", f"exit code {exit_codes['verify']}; output ends {text[-200:]!r}")
    if reduced_trials(text) is None:
        check.fail("verify", "no reduced-exact-safety trial count printed")
    for stem, ref in reference["analysis"].items():
        path = out_dir / stem / "analysis.csv"
        if exit_codes.get(stem) != 0 or not path.exists():
            check.op(f"analyze {stem}", [f"exit code {exit_codes.get(stem)}, csv written: {path.exists()}"])
        else:
            check.op(f"analyze {stem}", compare_analysis(parse_analysis_csv(path), ref))
