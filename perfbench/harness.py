"""Rounds, calibration, metrics and the modes of the benchmark.

``run.py`` is the entry point; it sets the BLAS thread count and the import
path before this module (and with it numpy and charbound) is imported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import charbound as cb
import spans
import speed
import workloads
from workloads import AbortRun

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
#: Fresh interpreters started during a run to measure set-up; the median
#: is reported.
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Benchmark of the charbound certification pipeline.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-test: a few rounds of every workload "
                             "with all checks")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit "
                             "(the set-up measurement runs this)")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    return args


@dataclass
class Round:
    """One pass over a workload's cases: (seconds, output) per operation,
    output None for a named fault, and the round's speed factor."""

    results: list
    factor: float

    @property
    def seconds(self) -> float:
        return sum(t for t, _ in self.results)

    @property
    def successes(self) -> int:
        return sum(out is not None for _, out in self.results)


def attempt(case, problems: list):
    """One operation.  A case's named fault counts as a failed operation;
    any other exception aborts the run.  Output problems are appended to
    ``problems``."""
    start = perf_counter()
    try:
        out = case.call()
    except Exception as e:
        elapsed = perf_counter() - start
        if case.fault is None or type(e) is not case.fault:
            raise AbortRun(f"{case.label}: {type(e).__name__}: {e}") from e
        return elapsed, None
    elapsed = perf_counter() - start
    problems.extend(f"{case.label}: {p}" for p in case.check(out))
    return elapsed, out


def run_round(cases, problems: list) -> Round:
    """Attempt every case once.  The calibration kernel runs after each
    operation, outside its timing; the round's factor is the reference
    time over the kernel's median time (see speed.py)."""
    results, kernel = [], []
    for case in cases:
        results.append(attempt(case, problems))
        kernel.append(speed.kernel_seconds())
    return Round(results, speed.REFERENCE_S / statistics.median(kernel))


def run_for(cases, seconds: float, problems: list, between=None) -> list:
    """Whole rounds until ``seconds`` of operation time have passed.

    ``between(spent)``, if given, runs before each round with the operation
    time spent so far; it is not timed.
    """
    rounds = []
    spent = 0.0
    while not rounds or spent < seconds:
        if between is not None:
            between(spent)
        rounds.append(run_round(cases, problems))
        spent += rounds[-1].seconds
    return rounds


def per_operation(rounds, calibrated: bool = True) -> list:
    """Each operation's median latency over the rounds.

    Latency percentiles are taken over these medians.  Pooling every
    round's latencies instead puts the median of a mixed workload at the
    gap between two kinds of operation (on scale-ladder, between sym4 at
    12 ms and sym5 at 60 ms), where it jumps with the extremes of both.
    """
    return [statistics.median(r.results[i][0] * (r.factor if calibrated else 1.0)
                              for r in rounds)
            for i in range(len(rounds[0].results))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup_once(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports charbound and
    generates and validates the workload's inputs.

    Not scaled by the calibration kernel: start-up time is dominated by
    loading shared libraries and page faults, which the kernel's time does
    not predict (no correlation in trials on this machine).  The child is
    reaped by a blocking wait; ``subprocess.run(timeout=...)`` polls and
    rounds the time up to 50 ms steps.
    """
    start = perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    if code != 0:
        raise AbortRun(f"set-up probe exited with code {code}")
    return elapsed


def end_to_end(workload: str, seed: int, seconds: float, problems: list):
    cases = workloads.build(workload, seed)
    run_round(cases, problems)  # warm-up: first-call costs stay untimed
    setups = []

    def setup_probes(spent: float) -> None:
        # Spread over the run: the machine's slow phases last 10-40 s, and
        # probes clustered at the start all land in the same one.
        while (len(setups) < SETUP_REPEATS
               and spent >= len(setups) * seconds / SETUP_REPEATS):
            setups.append(setup_once(workload, seed))

    rounds = run_for(cases, seconds, problems, between=setup_probes)
    setup_probes(float("inf"))
    deciles = statistics.quantiles(per_operation(rounds), n=10,
                                   method="inclusive")
    raw = statistics.quantiles(per_operation(rounds, calibrated=False), n=10,
                               method="inclusive")
    print(f"raw: op_ms_p50 {raw[4] * 1e3:.3f}, op_ms_p90 {raw[8] * 1e3:.3f}, "
          f"median speed factor {statistics.median(r.factor for r in rounds):.3f}",
          file=sys.stderr)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(statistics.median(
            r.successes / (r.seconds * r.factor) for r in rounds), "ops/s"),
        "op_ms_p50": metric(deciles[4] * 1e3, "ms"),
        "op_ms_p90": metric(deciles[8] * 1e3, "ms"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MB"),
    }
    return rounds, metrics


def per_layer(workload: str, seed: int, seconds: float, problems: list):
    cases = workloads.build(workload, seed)
    run_round(cases, problems)
    tracer = spans.Tracer()
    plain, traced = [], []
    # Untraced and traced rounds alternate, so that a change of machine
    # speed during the run does not show up as tracing overhead.
    while not plain or sum(r.seconds for r in plain) < seconds / 2.0:
        plain.append(run_round(cases, problems))
        with tracer.installed():
            traced.append(run_round(cases, problems))
        tracer.fold(traced[-1].factor)
    count = len(traced)
    metrics = {}
    for name in spans.NAMES:
        metrics[f"{name}.calls"] = metric(tracer.calls[name] / count, "count")
        metrics[f"{name}.ms"] = metric(tracer.inclusive[name] * 1e3 / count, "ms")
        metrics[f"{name}.self_ms"] = metric(tracer.self_time[name] * 1e3 / count, "ms")
    refines = tracer.calls["tangent.newton_refine"]
    steps = tracer.calls["cxla.least_squares_step"]
    metrics["tangent.newton_iterations_per_refine"] = metric(
        steps / refines if refines else 0.0, "ratio")
    attempts = [out.attempts for r in traced for _, out in r.results
                if isinstance(out, cb.GoldmanReport)]
    metrics["certify.goldman_attempts_per_check"] = metric(
        statistics.mean(attempts) if attempts else 0.0, "ratio")
    overhead = (statistics.median(r.seconds * r.factor for r in traced)
                / statistics.median(r.seconds * r.factor for r in plain) - 1.0)
    metrics["trace.overhead_pct"] = metric(overhead * 100.0, "%")
    return plain + traced, metrics


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        get = getattr(ctypes.CDLL(str(lib)),
                      "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            threads = get()
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas['name']} {blas['version']} with {threads} threads, "
            f"nproc {os.cpu_count()}")


def quick(seed: int) -> int:
    """An untraced, a traced and another untraced round of every workload,
    with all checks."""
    bad = 0
    for name in WORKLOAD_NAMES:
        problems = []
        cases = workloads.build(name, seed)
        results = run_round(cases, problems).results
        tracer = spans.Tracer()
        with tracer.installed():
            results += run_round(cases, problems).results
        tracer.fold()
        traced_ops = tracer.calls["certify.certify"] + tracer.calls[
            "certify.survey"] + tracer.calls["certify.goldman_check"]
        if traced_ops != len(cases):
            problems.append(f"traced {traced_ops} operations, expected {len(cases)}")
        results += run_round(cases, problems).results
        if tracer.spans:
            problems.append("functions still wrapped after the traced round")
        failed = sum(out is None for _, out in results)
        status = "ok" if not problems else "FAIL"
        print(f"{status} {name}: {len(results)} operations, {failed} failed "
              f"(named faults)")
        for p in problems[:10]:
            print(f"  {p}")
        bad += bool(problems)
    return 1 if bad else 0


def main(argv) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed)
            return 0
        print(environment(), file=sys.stderr)
        if args.quick:
            return quick(args.seed)
        problems = []
        measure = per_layer if args.trace else end_to_end
        rounds, metrics = measure(args.workload, args.seed, args.seconds,
                                  problems)
    except AbortRun as e:
        print(f"error: run aborted: {e}", file=sys.stderr)
        return 1
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = sum(len(r.results) for r in rounds)
    failed = attempted - sum(r.successes for r in rounds)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
