"""ar1quad benchmark.

    python3 perfbench/run.py --workload point|sweep|oracles --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/ar1quad.  Every measurement
runs in a fresh interpreter, one at a time, with BLAS pinned to one thread.
INTERPRETERS times, alternately:

* one interpreter times `import ar1quad` and then one default `ar1quad
  verify` through cli.main (setup_child.py); setup_s and verify_s are the
  medians.  With --trace 1 it runs under -X importtime, for the import.*
  metrics, with the verify checks traced;
* one interpreter runs the workload for --seconds / INTERPRETERS and checks
  every output (child.py); the samples of all of them are pooled.  The
  first also evaluates the accuracy panel.

Timings are calibrated to a reference machine speed (calibration.py).

The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1.  Earlier lines summarise the run for a human reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup runs and workload parts, alternating; the workload gets seconds /
# INTERPRETERS in each part, so that no one process's memory layout, and no
# one stretch of the machine's speed, sets the result
INTERPRETERS = 5
IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, timeout):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.exit(f"benchmark child {argv} failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def import_split(importtime_log):
    """Microseconds attributable to each package in the part of a
    -X importtime log that `import ar1quad` produced.

    scipy and numpy: cumulative time of their modules that no scipy or numpy
    module imported (what importing them cost, including what they pulled in
    first, so numpy modules that scipy loads count for scipy); ar1quad: the
    self time of its own modules.  The log lists children before parents,
    indented two spaces per level, and ends `import ar1quad` with its
    unindented entry, so it is cut there and read backwards.
    """
    entries = []
    for line in importtime_log.splitlines():
        match = IMPORT_LINE.match(line)
        if match:
            entries.append((int(match.group(1)), int(match.group(2)), len(match.group(3)), match.group(4)))
            if entries[-1][2:] == (0, "ar1quad"):
                break
    out = {"scipy": 0, "numpy": 0, "ar1quad": 0}
    ancestors = []  # (depth, top-level package) of the enclosing imports
    for self_us, cumulative_us, depth, name in reversed(entries):
        top = name.split(".")[0]
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if top == "ar1quad":
            out[top] += self_us
        elif top in out and all(pkg not in ("scipy", "numpy") for _, pkg in ancestors):
            out[top] += cumulative_us
        ancestors.append((depth, top))
    return out


def setup_run(trace):
    """One fresh interpreter timing `import ar1quad` and then one default verify."""
    flags = ["-X", "importtime"] if trace else []
    proc = run_child([*flags, str(HERE / "setup_child.py"), "--trace", str(trace)], timeout=120)
    run = last_json(proc)
    import_scale = run.pop("import_scale")
    if not run["ok"]:
        sys.exit("ar1quad verify failed:\n" + "\n".join(run["output"]))
    if trace:
        split = {pkg: us / 1e6 * import_scale for pkg, us in import_split(proc.stderr).items()}
        run.update({"import.scipy_s": split["scipy"], "import.numpy_s": split["numpy"],
                    "import.ar1quad_own_s": split["ar1quad"]})
        run.update(run.pop("layers"))
    return run


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool(parts, key):
    """Merge the parts' samples: (operations, ns, per-op latencies, bins)."""
    ops = sum(p[key]["ops"] for p in parts)
    ns = sum(p[key]["ns"] for p in parts)
    latency = [v for p in parts for v in p[key]["latency"]]
    bins = {}
    for p in parts:
        for b, values in p[key]["bins"].items():
            bins.setdefault(int(b), []).extend(values)
    return ops, ns, latency, bins


def percentile(values, p):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[k], len(ordered) - 1 - k


def merge_summaries(parts):
    out = {}
    for p in parts:
        for name, s in p["summary"].items():
            m = out.setdefault(name, {"calls": 0, "self_ns": 0, "work": 0.0, "children": {}})
            m["calls"] += s["calls"]
            m["self_ns"] += s["self_ns"]
            m["work"] += s["work"]
            for child, n in s["children"].items():
                m["children"][child] = m["children"].get(child, 0) + n
    return out


def layer_metrics(summary, n_ops, n_rows):
    """Per-layer metrics from the merged span summary.  spectral, closed_form
    and cli.main: per workload operation; cli.run_sweep: per sweep row;
    oracle and model: per call of that function (one operation of its type)."""
    def get(name):
        return summary.get(name, {"calls": 0, "self_ns": 0, "work": 0.0, "children": {}})

    def per(value, n):
        return value / n if n else 0.0

    out = {}
    for name in ("spectral.roots", "spectral.sequence_ratios", "closed_form.constants", "spectral.domain_check"):
        out[f"{name}.calls_per_op"] = per(get(name)["calls"], n_ops)
    for name in ("spectral.roots", "spectral.sequence_ratios", "closed_form.constants", "closed_form.transform",
                 "closed_form.normalized_transform", "closed_form.ergodic_constants",
                 "closed_form.fit_convergence_rate", "cli.main"):
        out[f"{name}.self_us_per_op"] = per(get(name)["self_ns"] / 1e3, n_ops)
    out["spectral.sequence_ratios.cf_steps_per_op"] = per(get("spectral.sequence_ratios")["work"], n_ops)
    out["cli.run_sweep.self_us_per_row"] = per(get("cli.run_sweep")["self_ns"] / 1e3, n_rows)
    for name in ("oracle.unconditional_transform", "oracle.matrix_mgf", "oracle.monte_carlo_mgf",
                 "model.conditional_covariance"):
        out[f"{name}.self_us_per_op"] = per(get(name)["self_ns"] / 1e3, get(name)["calls"])
    uncond = get("oracle.unconditional_transform")
    out["oracle.unconditional_transform.transform_calls_per_op"] = per(
        uncond["children"].get("closed_form.transform", 0), uncond["calls"])
    for name, unit in (("oracle.matrix_mgf", "flops"), ("model.conditional_covariance", "bytes"),
                       ("oracle.monte_carlo_mgf", "bytes")):
        out[f"{name}.{unit}_computed_per_op"] = per(get(name)["work"], get(name)["calls"])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("point", "sweep", "oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ar1quad" / "__init__.py").is_file():
        sys.exit(f"no ar1quad sources under {ROOT / 'src'}: run from the root of an ar1quad checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setups, parts = [], []
    for part in range(INTERPRETERS):
        setups.append(setup_run(args.trace))
        argv = [str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
                "--seconds", str(args.seconds / INTERPRETERS), "--trace", str(args.trace)]
        parts.append(last_json(run_child(argv + ["--panel"] * (part == 0), timeout=args.seconds / INTERPRETERS + 100)))
    raw = {k: statistics.median(s[k] for s in setups) for k, v in setups[0].items() if isinstance(v, float)}
    absent = setups[0].get("absent", [])
    panel = parts[0]["panel"]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    first_failure = next((p["first_failure"] for p in parts if p["first_failure"]), "")
    control_failures = [f for f in panel["failures"] if not f["known_defect"]]

    ops, ns, latency, bins = pool(parts, "plain")
    tail_p = parts[0]["tail_percentile"]
    tail, beyond = percentile(latency, tail_p)
    medians = {b: statistics.median(v) for b, v in sorted(bins.items()) if len(v) >= 3}
    if args.trace:
        traced_ops, traced_ns, _, _ = pool(parts, "traced")
        raw.update(layer_metrics(merge_summaries(parts), traced_ops, traced_ops if args.workload == "sweep" else 0))
        raw["trace.overhead_frac"] = 1 - (traced_ops / traced_ns) / (ops / ns)
        absent = sorted(set(absent).union(*(p["absent"] for p in parts)))
    else:
        raw.update({
            "ops_per_s": ops / (ns / 1e9),
            "latency_p50_us": statistics.median(latency) / 1e3,
            "latency_tail_us": tail / 1e3,
            "latency_flatness": max(medians.values()) / min(medians.values()),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
            "accuracy_digits": min(16.0, -math.log10(max(panel["worst"], 1e-16))),
        })

    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if missing:
        sys.exit(f"benchmark produced no value for {missing}")
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  timed calls={len(latency)} in {INTERPRETERS} interpreters, tail=p{tail_p:g} with {beyond} samples beyond")
    print(f"  samples per horizon decade={ {b: len(v) for b, v in sorted(bins.items())} }, "
          f"median us={ {b: round(v / 1e3, 1) for b, v in medians.items()} }")
    print(f"  operations attempted={attempted} failed={failed} {first_failure}")
    print(f"  accuracy panel: {panel['attempted']} entries, {len(panel['failures'])} failed")
    for failure in panel["failures"]:
        kind = "known defect" if failure["known_defect"] else "CONTROL"
        print(f"    [{kind}] {failure['entry']}: {failure['reason']}")
    if absent:
        print(f"  functions absent from ar1quad (metrics read 0): {absent}")
    if args.trace:
        print(f"  spans written to {[p['spans'] for p in parts]}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not control_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
