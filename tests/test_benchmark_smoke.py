import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _smoke(workload, trace=0):
    """The last line of a one-second benchmark run of this workload, seed 1."""
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                          "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_oracles_benchmark_smoke_is_correct():
    # a one-second run of the benchmark's `oracles` workload: the harness
    # checks every Monte Carlo, matrix and unconditional output it times
    # against its own mpmath reference (a Monte Carlo estimate within 6 of its
    # standard errors, which must be positive), about 4 s
    last = _smoke("oracles")
    assert last["correct"] is True and last["failed"] == 0, last


@pytest.mark.parametrize("workload, trace", [("point", 0), ("sweep", 0), ("point", 1)])
def test_benchmark_smoke_is_correct(workload, trace):
    # CI's other smoke runs, one second each: `point` and `sweep` against the
    # harness's reference, and a traced `point` run, which fails when a change
    # breaks the tracer's install; 3-4 s each
    last = _smoke(workload, trace)
    assert last["correct"] is True and last["failed"] == 0, last
