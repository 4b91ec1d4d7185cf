#!/usr/bin/env python3
"""Benchmark of maskap: gateway logins, roaming logins and file-backed enrolment.

Run from the root of a checkout:

    python3 bench/run.py --workload login-persistent --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it measures untraced for half the time, then traced for the other half, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Its metrics are exactly those ``BENCHMARK.json`` lists for the mode, on
every workload; what a workload measures beyond them goes to the report
file under ``details``.
``--self-test`` only shows that every output check rejects a corrupted output.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time

from harness import SETUP_REPS, Outcome, ms, p50
from tracing import LAYERS, NULL_TRACER, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, ".work")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def run(workload, seconds: float, trace: bool) -> tuple[Outcome, dict, Tracer | None]:
    """Set up SETUP_REPS times, then measure: untraced, or half untraced, half traced."""
    setups = []
    for rep in range(SETUP_REPS):
        if rep:
            workload.teardown()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    try:
        if not trace:
            out = workload.measure(seconds, NULL_TRACER)
            out.metrics["setup_s"] = (statistics.median(setups), "s")
            return out, out.metrics, None
        base = workload.measure(seconds / 2, NULL_TRACER)
        tracer = Tracer()
        traced = workload.measure(seconds / 2, tracer)
    finally:
        workload.teardown()
    metrics = workload.layer_metrics(tracer, traced)
    self_s = tracer.self_seconds()
    for layer in LAYERS:
        # netsim runs only in set-up, before the traced half; it has no span.
        if self_s[layer] > 0:
            metrics[f"{layer}.self_us_per_op"] = (self_s[layer] / traced.attempted * 1e6, "us")
    primary = workload.primary
    overhead = p50(traced.samples[primary]) - p50(base.samples[primary])
    metrics["trace.overhead_p50_ms"] = (ms(overhead), "ms")
    out = Outcome()
    out.merge(base)
    out.merge(traced)
    return out, metrics, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("login-persistent", "login-roaming", "enroll-sync"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "maskap", "__init__.py")):
        print(f"error: no maskap package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # Everything the run starts shares one CPU.  On a virtual machine, a
    # process woken on another, idle vCPU waits for the hypervisor to run
    # that vCPU, and on a busy host that wait swamped the program's costs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A terminated run still stops the service processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, src)
    import checks
    from enroll import EnrollSync
    from logins import Persistent, Roaming

    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        faults = checks.self_test(work)
        if args.self_test:
            for line in faults:
                print(f"self-test: {line}")
            print(f"self-test: {'every check caught its corrupted output' if not faults else 'FAILED'}")
            return 1 if faults else 0
        workloads = {"login-persistent": Persistent, "login-roaming": Roaming,
                     "enroll-sync": EnrollSync}
        workload = workloads[args.workload](ROOT, work, args.seed)
        out, metrics, tracer = run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in manifest["per_layer" if args.trace else "end_to_end"]}
    wrong = [name for name, unit in wanted.items()
             if name not in metrics or metrics[name][1] != unit]
    if wrong:
        print(f"error: {args.workload} measured no {', '.join(wrong)} in the unit "
              f"{os.path.basename(MANIFEST)} gives", file=sys.stderr)
        return 1
    details = {k: v for k, v in metrics.items() if k not in wanted}
    metrics = {k: metrics[k] for k in wanted}

    correct = out.problem_count == 0 and not faults
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": faults + out.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": {k: {"value": v, "unit": u} for k, (v, u) in details.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    # One file per workload and mode, so repeated runs do not pile up.
    stem = os.path.join(OUT_DIR, args.workload)
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  cpus {os.cpu_count()}  "
          f"python {platform.python_version()}")
    print(f"attempted {out.attempted}  failed {out.failed}  correct {correct}")
    for line in report["problems"]:
        print(f"problem: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.4f} {unit}")
    for name, (value, unit) in details.items():
        print(f"{name:36s} {value:14.4f} {unit}  (detail)")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
