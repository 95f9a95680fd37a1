"""The public surface of the package, and which modules its entry points
import: numpy is loaded by the sweep and the Monte Carlo oracle only,
concurrent.futures by none of them, and typing, dataclasses and inspect by
none of the scalar ones (every record is a named tuple).

Each entry point runs in a fresh interpreter, which then reports whether
a module was imported: the scalar closed form, the matrix oracle, the
package import and the `transform`, `ergodic` and `verify` front ends
must not pay for any of them.
"""

import os
import subprocess
import sys

import pytest

import ar1quad

SETUP = "from ar1quad import *; p = ModelParams(0.6, 1.0); a = TransformPoint(complex(-0.3, 0.2)); "
CLI = "from ar1quad.cli import main; assert main({!r}) == 0"
POINT = ["--theta", "0.6", "--m", "1", "--x", "0.5", "--alpha=-0.3"]


def module_loaded_after(code: str, module: str = "numpy", flags: tuple = ()) -> bool:
    """Whether `module` (or any of several names separated by spaces) is loaded after `code` runs."""
    src = os.path.dirname(os.path.dirname(ar1quad.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = f"import sys\n{code}\nprint(any(name in sys.modules for name in {module.split()!r}))"
    out = subprocess.run([sys.executable, *flags, "-c", script], check=True, env=env, capture_output=True,
                         text=True).stdout
    return out.splitlines()[-1] == "True"  # the last line: a CLI command prints its result first


ENTRY_POINTS = {
    "import": "import ar1quad",
    "import_verify": "import ar1quad.verify",
    "transform": SETUP + "transform(p, a, 0.5, 40000)",
    "normalized_transform": SETUP + "normalized_transform(p, a, 0.5, 40000)",
    "ergodic_constants": SETUP + "ergodic_constants(p, a, 0.5)",
    "fit_convergence_rate": SETUP + "fit_convergence_rate(p, TransformPoint(-0.3), 0.5)",
    "unconditional_transform": SETUP + "unconditional_transform(p, a, 10)",
    "sigma_via_recursion": SETUP + "sigma_via_recursion(p, a, 0.5, 10)",
    "matrix_mgf": SETUP + "matrix_mgf(p, -0.3, 0.5, 40)",
    "roots": SETUP + "roots(p, a)",
    "sequence_ratios": SETUP + "sequence_ratios(roots(p, a), p, 10)",
    "constants": SETUP + "constants(p, a, 0.5)",
    "cli_transform": CLI.format(["transform", *POINT, "--t", "40000"]),
    "cli_ergodic": CLI.format(["ergodic", *POINT]),
    "cli_verify_smoke": CLI.format(["verify", "--grid-size", "1"]),
    "cli_verify": CLI.format(["verify"]),
}


@pytest.mark.parametrize("code", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_scalar_entry_points_do_not_load_numpy(code):
    assert not module_loaded_after(code)


@pytest.mark.parametrize("code", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_scalar_entry_points_do_not_load_typing(code):
    # -S: no site hook has imported typing before the package does, so its
    # own imports show
    assert not module_loaded_after(code, "typing", ("-S",))


@pytest.mark.parametrize("code", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_scalar_entry_points_do_not_load_dataclasses(code):
    # dataclasses imports inspect, and with it ast, dis and tokenize: about
    # half of what `import ar1quad` cost while the records were dataclasses
    assert not module_loaded_after(code, "dataclasses inspect", ("-S",))


def test_sweep_loads_numpy():
    assert module_loaded_after(CLI.format(["sweep", *POINT, "--t", "1:3"]))


def test_scalar_entry_points_do_not_load_the_thread_pool():
    # every entry point, one after another, in one interpreter
    assert not module_loaded_after("\n".join(ENTRY_POINTS.values()), "concurrent.futures")


def test_monte_carlo_loads_no_thread_pool_and_starts_no_thread():
    # the draws and the estimates run in the calling thread: a thread started
    # anywhere in the call raises, and none is left running after it
    code = (SETUP + "import threading\n"
            "def refuse(self): raise AssertionError('a thread was started')\n"
            "threading.Thread.start = refuse\n"
            "monte_carlo_mgf(p, -0.3, 0.5, 7, 200_000, 0)\n"
            "assert threading.active_count() == 1, threading.enumerate()")
    assert not module_loaded_after(code, "concurrent.futures")


def test_public_surface_is_pinned():
    # an addition to or a removal from the public names is a deliberate edit here
    assert sorted(ar1quad.__all__) == [
        "ClosedFormConstants", "ConvergenceError", "DomainBoundaryError", "DomainError", "ErgodicConstants",
        "ModelParams", "OracleResult", "ParameterError", "RateFit", "SequenceRatios", "SingularConstantError",
        "SingularSequenceError", "SpectralData", "TransformPoint", "TransformValue", "conditional_mean",
        "constants", "domain_check", "ergodic_constants", "fit_convergence_rate", "matrix_mgf", "monte_carlo_mgf",
        "normalized_transform", "roots", "sequence_ratios", "sigma_via_recursion", "transform",
        "unconditional_transform",
    ]
    assert all(hasattr(ar1quad, name) for name in ar1quad.__all__)
