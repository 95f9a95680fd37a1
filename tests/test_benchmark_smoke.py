import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_oracles_benchmark_smoke_is_correct():
    # a one-second run of the benchmark's `oracles` workload: the harness
    # checks every Monte Carlo, matrix and unconditional output it times
    # against its own mpmath reference (a Monte Carlo estimate within 6 of its
    # standard errors, which must be positive), about 4 s
    run = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "oracles",
                          "--seed", "1", "--seconds", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
