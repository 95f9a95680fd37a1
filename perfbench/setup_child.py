"""Times `import ar1quad` in this fresh interpreter, then one default
`ar1quad verify` run through cli.main, both at the calibration kernel's
reference speed.

    python3 [-X importtime] setup_child.py --trace 0|1

Prints one JSON object on stdout.
"""

import time

start = time.perf_counter()
import ar1quad  # noqa: E402  (the import is what is timed)

import_s = time.perf_counter() - start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import ar1quad.cli  # noqa: E402

import calibration  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = Tracer(ar1quad) if args.trace else None
    if tracer:
        tracer.install()
    buf = io.StringIO()
    before = calibration.measure()
    # the import ran before any kernel could (numpy would have been loaded
    # early), so it is scaled by the kernels measured just after it
    import_scale = calibration.scale("mixed", before, before)
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = ar1quad.cli.main(["verify"])
    verify_s = time.perf_counter() - start
    verify_scale = calibration.scale("mixed", before, calibration.measure())
    lines = buf.getvalue().splitlines()
    passed = lines[-1].split()[0].split("/") if lines else []
    result = {"setup_s": import_s * import_scale, "verify_s": verify_s * verify_scale,
              "import_scale": import_scale,
              "ok": code == 0 and len(passed) == 2 and passed[0] == passed[1], "output": lines}
    if tracer:
        tracer.uninstall()
        summary = tracer.summary()
        result["layers"] = {
            f"{name}.self_s": summary.get(name, {"self_ns": 0})["self_ns"] / 1e9 * verify_scale
            for name in TARGETS if name.startswith("verify.")
        }
        result["absent"] = tracer.absent
    print(json.dumps(result))


if __name__ == "__main__":
    main()
