"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts: on the
2-vCPU host the baseline was recorded on, the same code ran up to ~1.9x
faster or slower from one minute, and sometimes one second, to the next.
Interpreted Python slowed more (~1.7x) than numpy's native loops (~1.3x).
So every timed stretch is bracketed by fixed reference kernels that do not
involve ar1quad, and each timing is reported at the reference speed of the
kernel matching the work it times:

    reported = measured * REFERENCE_NS[kind] / kernel_ns[kind]

* "python": complex arithmetic and cmath calls, like ar1quad's scalar code;
* "native": numpy normal draws and array arithmetic, like the Monte Carlo
  and dense-matrix oracles;
* "mixed" (import, verify): the geometric mean of the two factors.

A change to ar1quad moves every metric as before; a change in the
machine's speed moves the kernels too and cancels out.
"""

import cmath
import time

# Median kernel times on the baseline machine in its usual (slower) state,
# so that reported timings read close to wall time there.
REFERENCE_NS = {"python": 38_000, "native": 440_000}
REPEATS = {"python": 21, "native": 5}


def _python_kernel():
    z, r, acc = complex(1.9, 0.13), complex(0.6), 0j
    for _ in range(100):
        r = 1.0 / (z - r)
        acc += cmath.log(r) * r
    return acc


_rng = None


def _native_kernel():
    global _rng
    import numpy  # imported on first use, never before a timed import

    if _rng is None:
        _rng = numpy.random.default_rng(0)
    x = _rng.standard_normal(20_000)
    return numpy.exp(-0.1 * x * x).sum()


KERNELS = {"python": _python_kernel, "native": _native_kernel}


def measure(kinds=("python", "native")) -> dict:
    """kind -> median time of one kernel run, in ns (about 1-2 ms each)."""
    out = {}
    for kind in kinds:
        times = []
        for _ in range(REPEATS[kind]):
            start = time.perf_counter_ns()
            KERNELS[kind]()
            times.append(time.perf_counter_ns() - start)
        out[kind] = sorted(times)[len(times) // 2]
    return out


def scale(kind: str, before: dict, after: dict) -> float:
    """Factor that puts a stretch of `kind` work, timed between the kernel
    measurements `before` and `after`, at the reference speed."""
    if kind == "mixed":
        return (scale("python", before, after) * scale("native", before, after)) ** 0.5
    return REFERENCE_NS[kind] / ((before[kind] + after[kind]) / 2)
