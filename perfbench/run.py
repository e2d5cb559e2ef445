#!/usr/bin/env python3
"""Benchmark of asfes, driven through the library calls its CLI makes.

    python3 perfbench/run.py --workload sim-scalar --seed 1 --seconds 28 --trace 0

Run it from the root of a source checkout; it imports ``asfes`` from
``src/``.  It writes the workload's scenario files from ``--seed``, repeats
the workload (parse, then ``run_simulate``, ``run_analyze`` or
``run_verify``) for ``--seconds`` (a pass starts only if one as long as
the last still ends within them), checks every pass's outputs against
``reference.json`` and prints one metric per line, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
``layers.py``) and the tracer's own overhead.  Both kinds are closed-loop,
single-process and single-threaded: BLAS is pinned to one thread.

The speed of a shared virtual machine changes by up to a factor of two,
within seconds and over minutes, for any code.  So a fixed reference
computation is timed every 0.1 s through each pass (``SpeedSampler``), and
the gated timings are pass time over mean reference time (unit ``ref``): a
median of those ratios moves with the program, not with the machine.
``setup_s`` is such a ratio too, over speed samples of its own taken in the
fresh interpreter that sets up, expressed in seconds at a nominal speed
(``SETUP_SAMPLE_NOMINAL_S``).  Plain seconds are printed and recorded as
well.

Scenario files, outputs, result records and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import (Check, check_simulation, check_verify, completed_steps, load_reference,
                     reduced_trials)
from tracer import Tracer
from workloads import (VERIFY_TRIALS, WORKLOADS, members, render, run_pass,
                       scenarios, write_inputs)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
# The reference computation integrates this system over [0, 1]: about 3 ms
# on a quiet 2-core Xeon VM.  A timer runs it every SAMPLE_INTERVAL_S during
# a pass, about 3% of the pass's time.
REFERENCE_MATRIX = ((-1.0, 2.0, 0.0), (-2.0, -1.0, 0.5), (0.0, -0.5, -0.3))
REFERENCE_T_END = 1.0
SAMPLE_INTERVAL_S = 0.1
# Set-up is timed in a fresh interpreter, with its speed sampled the same
# way as a pass's: every 0.02 s a timer runs a short pure-Python loop
# (about 0.3 ms on a quiet 2-core Xeon VM, 1.5% of set-up), and the loop's
# time is taken out of set-up's.  setup_s is set-up time over the mean loop
# time, times SETUP_SAMPLE_NOMINAL_S: seconds at that nominal speed.
SETUP_SAMPLE_NOMINAL_S = 0.0003
SETUP_CODE = """\
import signal, sys, time

def reference():
    x = 0
    for i in range(3000):
        x = (x * 31 + i) % 1000003
    return x

samples, spent = [], [0.0]

def sample(signum, frame):
    t0 = time.perf_counter()
    reference()
    samples.append(time.perf_counter() - t0)
    spent[0] += time.perf_counter() - t0

reference()
signal.signal(signal.SIGALRM, sample)
signal.setitimer(signal.ITIMER_REAL, 0.02, 0.02)
t0 = time.perf_counter()
import asfes.cli
for path in sys.argv[1:]:
    asfes.cli.parse_scenario(path)
signal.setitimer(signal.ITIMER_REAL, 0.0)
took = time.perf_counter() - t0 - spent[0]
if not samples:
    sample(None, None)
print(took, sum(samples) / len(samples))
"""
# run_verify's reduced-exact-safety property integrates two starts per
# trial, each over t_end = 8 with dt = 0.005; it prints its trial count
VERIFY_STEPS_PER_REDUCED_TRIAL = 2 * 1600

E2E_UNITS = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "steps_per_ref": "1/ref",
             "trials_per_ref": "1/ref", "peak_rss_mb": "MB"}
RAW_UNITS = {"setup_raw_s": "s", "wall_s": "s", "cpu_s": "s", "steps_per_s": "1/s",
             "trials_per_s": "1/s", "reference_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(inputs: list) -> tuple:
    """Seconds to import asfes.cli and parse the inputs in a fresh
    interpreter, and the mean seconds of the speed samples taken meanwhile."""
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, inputs)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    took, ref = map(float, done.stdout.split())
    return took, ref


def reference_kernel() -> None:
    """A fixed computation that shares no code with asfes: scipy's adaptive
    RK45 on y' = A y + sin(3t), 3 states.  Like the program's own hot loop
    it is a Python-level integrator over tiny numpy arrays, and its speed
    follows the machine's as the program's does more closely than a bare
    numpy loop's does."""
    import numpy as np
    from scipy.integrate import solve_ivp

    a = np.array(REFERENCE_MATRIX)
    solve_ivp(lambda t, y: a @ y + np.sin(3.0 * t), (0.0, REFERENCE_T_END), np.ones(3),
              method="RK45", rtol=1e-9, atol=1e-12)


class SpeedSampler:
    """Samples the machine's speed all through a timed call.

    The machine's speed changes within seconds, so samples beside a
    several-second pass do not tell how fast it ran.  Instead a timer
    signal interrupts the call every SAMPLE_INTERVAL_S and its handler
    times ``reference_kernel``.  The handler runs in the benchmark's one
    thread, between the program's bytecodes.  Its time is taken out of the
    call's time, and out of ``clock``, which a tracer can read.
    """

    def __init__(self):
        self.spent = [0.0, 0.0]   # (wall, cpu) seconds inside samples, in all
        self._samples: list = []
        reference_kernel()        # first-call costs stay out of the samples

    def clock(self) -> float:
        """``perf_counter`` less the time spent in samples."""
        return time.perf_counter() - self.spent[0]

    def _sample(self, signum=None, frame=None) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        reference_kernel()
        self._samples.append((time.perf_counter() - w0, time.process_time() - c0))
        self.spent[0] += time.perf_counter() - w0
        self.spent[1] += time.process_time() - c0

    def measure(self, run) -> tuple:
        """``(result, (wall, cpu), (ref wall, ref cpu))``: what ``run``
        returned, its seconds less the samples', and the mean sample."""
        self._samples = []
        spent = list(self.spent)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            signal.signal(signal.SIGALRM, previous)
        wall -= self.spent[0] - spent[0]
        cpu -= self.spent[1] - spent[1]
        if not self._samples:   # a call shorter than the interval
            self._sample()
        ref = tuple(statistics.fmean(sample[i] for sample in self._samples) for i in (0, 1))
        return result, (wall, cpu), ref


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(seed: int, inputs: list) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "scenario_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
    }


class Workload:
    """One workload's inputs, its passes, and the checks of their outputs."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.inputs = write_inputs(name, seed, work / "inputs")
        self.members = {stem.rsplit(".", 1)[0]: members(sections)
                        for stem, sections in scenarios(name, seed).items()
                        if name != "verify"}
        self.reference = load_reference()[name]
        self.check = Check()
        self.steps = self.trials = 0

    def run(self, cli, sampler: SpeedSampler) -> tuple:
        """One timed pass, then the check of its outputs (not timed).
        Returns the pass's (wall, cpu) and its mean reference (wall, cpu)."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        outcome, timed, ref = sampler.measure(
            lambda: run_pass(cli, self.name, self.seed, self.inputs, out))
        self._check(outcome, out)
        return timed, ref

    def _check(self, outcome, out: Path) -> None:
        if self.name == "verify":
            check_verify(self.seed, VERIFY_TRIALS, outcome.exit_codes, outcome.verify_text,
                         out, self.reference, self.check)
            self.steps = (reduced_trials(outcome.verify_text) or 0) * VERIFY_STEPS_PER_REDUCED_TRIAL
            self.trials = VERIFY_TRIALS
            return
        for stem, members in self.members.items():
            blocks = check_simulation(members, outcome.exit_codes[stem], out / stem,
                                      self.reference, self.check)
            self.steps = sum(completed_steps(m, blocks[m.name]["notes"])
                             for m in members if m.name in blocks)
            self.trials = len(members)


def within(seconds: float, minimum: int):
    """Count loop rounds: at least ``minimum``, and after that a round
    starts only if one as long as the last still ends within ``seconds``."""
    start, last, rounds = time.perf_counter(), 0.0, 0
    while True:
        now = time.perf_counter()
        if rounds >= minimum and now - start + last > seconds:
            return
        yield rounds
        last = time.perf_counter() - now
        rounds += 1


def end_to_end(workload: Workload, cli, seconds: float) -> tuple:
    """Passes over ``seconds``, each with its speed samples; the set-up
    samples are spread over the same span."""
    walls, cpus, refs, setup, setup_refs = [], [], [], [], []
    sampler = SpeedSampler()
    start = time.perf_counter()

    def setup_sample():
        took, ref = measure_setup(workload.inputs)
        setup.append(took)
        setup_refs.append(ref)

    for _ in within(seconds, 1):
        # one set-up sample each SETUP_SAMPLES-th of the span, so that a
        # slow or fast spell of the machine meets at most one of them
        if (len(setup) < SETUP_SAMPLES
                and time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES):
            setup_sample()
        (wall, cpu), ref = workload.run(cli, sampler)
        walls.append(wall)
        cpus.append(cpu)
        refs.append(ref)
    while len(setup) < SETUP_SAMPLES:
        setup_sample()
    wall_ref = statistics.median(w / r[0] for w, r in zip(walls, refs))
    wall_s = statistics.median(walls)
    metrics = {
        "setup_s": SETUP_SAMPLE_NOMINAL_S * statistics.median(
            s / r for s, r in zip(setup, setup_refs)),
        "wall_ref": wall_ref,
        "cpu_ref": statistics.median(c / r[1] for c, r in zip(cpus, refs)),
        "steps_per_ref": workload.steps / wall_ref,
        "trials_per_ref": workload.trials / wall_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_raw_s": statistics.median(setup),
        "wall_s": wall_s,
        "cpu_s": statistics.median(cpus),
        "steps_per_s": workload.steps / wall_s,
        "trials_per_s": workload.trials / wall_s,
        "reference_s": statistics.median(r[0] for r in refs),
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "reference_wall_cpu_s": refs, "setup_s": setup,
               "setup_reference_s": setup_refs}
    return metrics, samples, {"raw": raw}


def per_layer(workload: Workload, cli, seconds: float) -> tuple:
    import layers  # imports numpy, so only once BLAS threads are pinned

    models = layers.example_models()
    metrics = layers.micro_figures(models)
    sampler = SpeedSampler()
    # spans leave out the time of speed samples taken inside them
    tracer = Tracer(clock=sampler.clock)
    tracer.calibrate()
    untraced, traced, roots = [], [], []
    for _ in within(seconds, 1):
        (wall, _), ref = workload.run(cli, sampler)
        untraced.append(wall / ref[0])
        undo = layers.instrument(tracer)
        try:
            roots.append(len(tracer.spans))
            with tracer.span(layers.ROOT_SPAN):
                (wall, _), ref = workload.run(cli, sampler)
            traced.append(wall / ref[0])
        finally:
            undo()
    per_pass = [layers.span_figures(tracer, root) for root in roots]

    # verify analyzes the bundled files and has no inputs directory of its own
    probe_path = workload.work / "probe-input" / "probe.scenario"
    probe_path.parent.mkdir(parents=True, exist_ok=True)
    probe_path.write_text(render(scenarios("probe", 0)["probe.scenario"]))
    probe = layers.probe_figures(tracer, models, probe_path, workload.work / "probe")

    sources = {}
    for name in per_pass[0]:
        values = [figures[name] for figures in per_pass if figures[name] is not None]
        if values:
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = probe[name]
            sources[name] = "probe"
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    samples = {"untraced_wall_ref": untraced, "traced_wall_ref": traced}
    wrapper = {"outside_s": tracer.leaf_outside, "inside_s": tracer.leaf_inside}
    return metrics, samples, {"sources": sources, "leaf_wrapper_per_call": wrapper,
                              "spans": tracer.export()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "asfes" / "cli.py").is_file():
        print(f"error: no asfes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    workload = Workload(args.workload, args.seed, work)
    import asfes.cli as cli

    if args.trace:
        metrics, samples, extra = per_layer(workload, cli, args.seconds)
        import layers
        units = layers.UNITS
    else:
        metrics, samples, extra = end_to_end(workload, cli, args.seconds)
        units = E2E_UNITS
    check = workload.check
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "env": environment(args.seed, workload.inputs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": samples, "attempted": check.attempted, "failures": check.failures,
        **extra,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(work / "probe", ignore_errors=True)

    for name, failure in check.failures.items():
        print(f"FAILED {name}: {'; '.join(failure)}")
    sources = extra.get("sources", {})
    for name, value in metrics.items():
        note = " (probe run)" if name in sources else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    for name, value in extra.get("raw", {}).items():
        print(f"{name} = {value:.6g} {RAW_UNITS[name]} (not gated)")
    print(f"failed_frac = {check.failed / max(1, check.attempted):.6g} "
          f"({check.failed} of {check.attempted} operations)")
    print(f"passes = {len(next(iter(samples.values())))} (medians reported); record in "
          f"{(results / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
