#!/usr/bin/env python3
"""Offline benchmark for spinpic: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-sweep, verify-high, certify-sweep, cli-queries (see
bench/README.md). A run does a fixed list of ops, sized from --seconds,
checks every op's output against independent reference values, and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the ops
run under the span tracer (bench/spans.py) and the metrics are per layer.
The run uses one process and no threads (verify-sweep starts one child
interpreter per op, one at a time). Stdlib only.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 11
SAMPLE_EVERY_S = 0.005
SPEED_WINDOW_S = 0.1
CAL_NOMINAL_S = 0.00002

# name -> unit of every metric a run prints, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def calibration_loop() -> Fraction:
    """Fixed interpreter work, independent of spinpic: about 20 µs at reference speed.

    Fraction arithmetic and small dicts, like the program's own work; under a
    slowdown the program's time tracks this loop more closely than it tracks
    a loop of plain int and dict operations.
    """
    acc, d = Fraction(0), {}
    for i in range(1, 7):
        q = Fraction(i, i + 7)
        acc = acc + q * q
        d[str(i)] = acc
    return acc


class Clock:
    """Op timer that corrects CPU time for the CPU's changing speed.

    A shared virtual machine can change CPU speed by up to 2x within seconds
    (on a 2-CPU Linux VM the same pure-Python loop took 7.6 ms in one 2 s
    window and 13.8 ms in the next) and can take the CPU away altogether
    (steal time), which swamps any change worth measuring. So an op's time is
    the CPU time (user + system) it used, which leaves out stolen time: in
    this process less the signal handler's time, or in the child interpreter
    that ran it. While the clock runs, an interval timer samples the CPU's
    speed every SAMPLE_EVERY_S by timing a fixed calibration loop in a signal
    handler; the run is pinned to one CPU, so the samples see the CPU that
    runs the op. The op's CPU time is scaled by CAL_NOMINAL_S / (mean
    calibration time of the samples taken from SPEED_WINDOW_S before the op
    to SPEED_WINDOW_S after it): the time the op would take at the reference
    speed at which the loop takes CAL_NOMINAL_S.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer  # suspended while the calibration loop runs
        self.samples: list[tuple[float, float]] = []  # (when, calibration loop time)
        self.stolen = 0.0  # total time spent in the handler
        self.raw: list[tuple[float, float, float]] = []  # (start, end, CPU time)
        self._old = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        best = float("inf")
        with self.tracer.suspended() if self.tracer is not None else nullcontext():
            for _ in range(2):  # the faster of two skips a stray interrupt
                t1 = perf_counter()
                calibration_loop()
                best = min(best, perf_counter() - t1)
        self.samples.append((t0, best))
        self.stolen += perf_counter() - t0

    def __enter__(self) -> "Clock":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def _cpu(self, in_child: bool) -> float:
        if in_child:
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime
        return process_time() - self.stolen

    def time(self, fn, in_child: bool = False):
        """Run fn and record its time; return (its result or exception, whether it raised).

        in_child: the work runs in a child interpreter that fn starts and waits for.
        """
        t0, cpu0 = perf_counter(), self._cpu(in_child)
        try:
            result, raised = fn(), False
        except Exception as exc:  # a crashed op is a failed op; keep measuring
            result, raised = exc, True
        self.raw.append((t0, perf_counter(), self._cpu(in_child) - cpu0))
        return result, raised

    def normalised(self) -> list[float]:
        """Op times at reference speed; call after the clock has stopped."""
        when = [t for t, _ in self.samples]
        out = []
        for t0, t1, t in self.raw:
            lo = bisect.bisect_left(when, t0 - SPEED_WINDOW_S)
            hi = bisect.bisect_right(when, t1 + SPEED_WINDOW_S)
            window = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
            cal = statistics.fmean(c for _, c in window)
            out.append(t * CAL_NOMINAL_S / cal)
        return out


def measure_setup(env) -> float:
    """Median CPU time of a fresh interpreter importing spinpic.cli, at reference speed."""
    def run_child():
        subprocess.run([sys.executable, "-c", "import spinpic.cli"], cwd=ROOT, env=env.child_env(),
                       check=True, capture_output=True, timeout=60)

    run_child()  # writes the .pyc files once
    with Clock() as clock:
        for _ in range(SETUP_SAMPLES):
            _, raised = clock.time(run_child, in_child=True)
            if raised:
                raise RuntimeError("importing spinpic.cli failed")
    return statistics.median(clock.normalised())


def tracing(tracer, call):
    """`call` with the tracer recording only while it runs, not while outputs are checked."""

    def traced_call():
        tracer.active = True
        try:
            return call()
        finally:
            tracer.active = False

    return traced_call


def repeat_share(ops) -> float:
    seen, repeats = set(), 0
    for op in ops:
        repeats += op.key in seen
        seen.add(op.key)
    return repeats / len(ops)


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    import spans
    import workloads

    scratch = OUT / f"run-{workload}-seed{seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = workloads.Env(ROOT, scratch)
    tracer = None
    try:
        setup_s = None if traced else measure_setup(env)
        ops = workloads.WORKLOADS[workload](env, random.Random(seed), seconds)
        if traced:
            tracer = env.tracer = spans.Tracer()
            tracer.install()
        failed, correct, values, verify_checks = 0, True, 0, 0
        failures: Counter = Counter()
        with Clock(tracer) as clock:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.current_op = i
                call = op.call if tracer is None else tracing(tracer, op.call)
                result, raised = clock.time(call, op.in_child)
                if op.after is not None:
                    op.after(i)
                try:
                    if raised:
                        raise workloads.CheckError(f"{type(result).__name__}: {result}")
                    v, c = op.check(result)
                    values, verify_checks = values + v, verify_checks + c
                except Exception as exc:  # any malformed output fails the op
                    failed += 1
                    correct = correct and op.known_fault
                    failures[f"{op.label}: {type(exc).__name__}: {str(exc)[:160]}"] += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    times = clock.normalised()
    busy = sum(times)
    ops_per_s = len(ops) / busy
    for line, count in sorted(failures.items()):
        print(f"failed x{count}: {line}", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(ops)} ops, {failed} failed, {busy:.2f} s busy (normalised), "
          f"{repeat_share(ops):.1%} of ops repeat a (command, genus) pair", file=sys.stderr)

    if tracer is not None:
        tracer.write(OUT / f"trace-{workload}.csv")  # one file per workload keeps bench/out bounded
        genus_times: dict[int, list[float]] = {}
        if workload == "verify-high":  # one op verifies one genus
            for op, t in zip(ops, times):
                genus_times.setdefault(op.key[1], []).append(t)
        values_out = tracer.metrics(list(PER_LAYER), ops_per_s, verify_checks, genus_times)
        metrics = {name: {"value": values_out[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        usage = resource.RUSAGE_CHILDREN if workload == "verify-sweep" else resource.RUSAGE_SELF
        checks = verify_checks if workload in workloads.VERIFY_WORKLOADS else values
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
        measured = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "checks_per_s": checks / busy,
            "op_p50_ms": 1000 * statistics.median(times),
            "op_p90_ms": 1000 * p90,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-sweep", "verify-high", "certify-sweep", "cli-queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "spinpic" / "__init__.py").is_file():
        print(f"error: no spinpic sources under {ROOT / 'src'}; run from a spinpic checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Per-process string-hash randomisation moves a run's medians by up to
        # 5%; run, and start children, with one fixed hash seed instead.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(ROOT / "src"))
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and the interpreters it starts, so that the
        # calibration loop measures the CPU the timed work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
