"""Runs one part of a workload inside a fresh interpreter started by run.py.

    child.py --workload NAME --seed N --part K --seconds S --trace 0|1 [--panel]

Part K draws its inputs from the seed "N/K".  Prints one JSON object of raw
samples and counts on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings
from collections import defaultdict

import ar1quad
import ar1quad.cli

import calibration
from tracing import Tracer
from workloads import WORKLOADS

OUT_DIR = ".perfbench"


class Samples:
    """Per-call latencies (ns per operation, at the calibration kernel's
    reference speed) with their flatness bins."""

    def __init__(self):
        self.ops = 0
        self.ns = 0
        self.latency = []
        self.bins = defaultdict(list)

    def add(self, op, dt):
        self.ops += op.size
        self.ns += dt
        per_op = dt / op.size
        self.latency.append(per_op)
        if op.bin is not None:
            self.bins[op.bin].append(per_op)


def timed_call(workload, op):
    start = time.perf_counter_ns()
    try:
        out = workload.call(op)
    except Exception as exc:  # the check decides whether this error was the documented one
        out = exc
    return out, time.perf_counter_ns() - start


def run_panel(workload):
    """Evaluate the fixed accuracy panel: worst relative error among entries
    with a correct digit, entries attempted, and the failures."""
    worst, failures = 0.0, []
    panel = workload.panel()
    for op in panel:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out, _ = timed_call(workload, op)
        res = workload.check(op, out)
        no_digit = not res.worst < 1
        if res.failed or no_digit:
            reason = res.reason or f"no correct digit (relative error {res.worst:.3g})"
            failures.append({"entry": op.label, "known_defect": bool(op.defect), "reason": reason})
        if not no_digit:
            worst = max(worst, res.worst)
    return {"worst": worst, "attempted": len(panel), "failures": failures}


def run_part(args):
    workload = WORKLOADS[args.workload](f"{args.seed}/{args.part}")
    tracer = Tracer(ar1quad) if args.trace else None
    warm = WORKLOADS[args.workload](f"{args.seed}/{args.part}/warm-up").block()
    for op in warm[: max(3, len(warm) // 4)]:
        timed_call(workload, op)

    plain, traced = Samples(), Samples()
    attempted = failed = 0
    first_failure = ""
    trace_scale = []  # calibration factor of each traced call
    deadline = time.perf_counter() + args.seconds
    n_block = n_calls = 0
    kinds = workload.calibration_kinds
    before = calibration.measure(kinds)
    while n_block == 0 or time.perf_counter() < deadline:
        block = workload.block()
        # a traced run times every block both untraced and traced, in
        # alternating order, so trace.overhead_frac compares equal inputs
        passes = [False] if tracer is None else [n_block % 2 == 1, n_block % 2 == 0]
        for use_trace in passes:
            results = []
            if use_trace:
                tracer.install()
            for i, op in enumerate(block):
                if use_trace:
                    tracer.op = n_calls + i
                results.append((op, *timed_call(workload, op)))
            if use_trace:
                tracer.uninstall()
            after = calibration.measure(kinds)
            factors = {kind: calibration.scale(kind, before, after) for kind in kinds}
            before = after
            for op, _, dt in results:
                (traced if use_trace else plain).add(op, dt * factors[workload.calibration_kind(op)])
            if use_trace:
                trace_scale += [factors[workload.calibration_kind(op)] for op in block]
            else:
                checked = results
        for op, out, _ in checked:
            res = workload.check(op, out)
            attempted += op.size
            failed += res.failed
            if res.failed and not first_failure:
                first_failure = f"{op.kind}{op.args}: {res.reason}"
        n_block += 1
        n_calls += len(block)
        before = calibration.measure(kinds)  # the checks ran since the last one

    result = {
        "attempted": attempted,
        "failed": failed,
        "first_failure": first_failure,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tail_percentile": workload.tail_percentile,
        "plain": vars(plain),
    }
    if args.panel:
        result["panel"] = run_panel(workload)
    if tracer is not None:
        result["traced"] = vars(traced)
        result["summary"] = tracer.summary(trace_scale)
        result["absent"] = tracer.absent
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-part{args.part}.csv.gz")
        tracer.write(path)
        result["spans"] = path
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--panel", action="store_true", help="also evaluate the accuracy panel")
    args = parser.parse_args()
    print(json.dumps(run_part(args)))


if __name__ == "__main__":
    sys.exit(main())
