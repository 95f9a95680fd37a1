"""The public surface of the package, and which modules its entry points
import: numpy is loaded by the sweep and the Monte Carlo oracle only,
concurrent.futures by none of them, and typing, dataclasses and inspect by
none of the scalar ones (every record is a named tuple).

Each entry point runs in a fresh interpreter, which then reports whether
a module was imported: the scalar closed form, the matrix oracle, the
package import and the `transform`, `ergodic` and `verify` front ends
must not pay for any of them.  `import ar1quad` loads the closed form
alone; the oracles load on first access and are bound in the package then.
"""

import os
import pickle
import subprocess
import sys

import pytest

import ar1quad

SETUP = "from ar1quad import *; p = ModelParams(0.6, 1.0); a = TransformPoint(complex(-0.3, 0.2)); "
CLI = "from ar1quad.cli import main; assert main({!r}) == 0"
POINT = ["--theta", "0.6", "--m", "1", "--x", "0.5", "--alpha=-0.3"]


def run_fresh(code: str, flags: tuple = ()) -> str:
    """The last line `code` prints in a fresh interpreter that imports the package from this tree."""
    src = os.path.dirname(os.path.dirname(ar1quad.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, *flags, "-c", code], check=True, env=env, capture_output=True,
                         text=True).stdout
    return out.splitlines()[-1]  # the last line: a CLI command prints its result first


def module_loaded_after(code: str, module: str = "numpy", flags: tuple = ()) -> bool:
    """Whether `module` (or any of several names separated by spaces) is loaded after `code` runs."""
    script = f"import sys\n{code}\nprint(any(name in sys.modules for name in {module.split()!r}))"
    return run_fresh(script, flags) == "True"


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


ORACLE_NAMES = ["OracleResult", "matrix_mgf", "monte_carlo_mgf", "sigma_via_recursion", "unconditional_transform"]


def test_import_loads_the_closed_form_alone():
    loaded = run_fresh("import sys, ar1quad; print(sorted(n for n in sys.modules if n.startswith('ar1quad')))",
                       ("-S",))
    assert loaded == str(["ar1quad", "ar1quad.closed_form", "ar1quad.errors", "ar1quad.model", "ar1quad.spectral"])


def test_oracle_names_load_on_first_access_and_stay_bound():
    # a fresh interpreter: this one bound them when the test modules imported them
    code = (f"import sys, ar1quad\nnames = {ORACLE_NAMES!r}\n"
            "assert not any(name in vars(ar1quad) for name in names + ['oracle'])\n"
            "first = ar1quad.matrix_mgf\n"
            "assert 'ar1quad.oracle' in sys.modules\n"
            "assert all(vars(ar1quad)[name] is getattr(ar1quad.oracle, name) for name in names)\n"
            "assert first is ar1quad.oracle.matrix_mgf\n"
            "print(first(ar1quad.ModelParams(0.6, 1.0), -0.3, 0.5, 40).method)")
    assert run_fresh(code, ("-S",)) == "matrix"


def test_the_oracle_submodule_resolves_after_a_bare_import():
    code = "import ar1quad\nprint(ar1quad.oracle.__name__, ar1quad.oracle.sigma_via_recursion.__module__)"
    assert run_fresh(code, ("-S",)) == "ar1quad.oracle ar1quad.oracle"


def test_star_import_binds_every_public_name():
    code = ("from ar1quad import *\nimport ar1quad\n"
            "print(all(globals()[name] is getattr(ar1quad, name) for name in ar1quad.__all__))")
    assert run_fresh(code, ("-S",)) == "True"


def test_dir_lists_the_lazy_names():
    listed = dir(ar1quad)
    assert set(ar1quad.__all__) <= set(listed) and "oracle" in listed
    assert listed == sorted(listed)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'ar1quad' has no attribute 'no_such_name'$"):
        ar1quad.no_such_name  # noqa: B018


def test_an_oracle_result_pickles():
    result = ar1quad.OracleResult(0.25, "monte_carlo", 1e-3, 100)
    assert pickle.loads(pickle.dumps(result)) == result
    assert type(pickle.loads(pickle.dumps(result))) is ar1quad.OracleResult
