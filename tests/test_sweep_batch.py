"""The sweep's batch path: `ar1quad sweep` evaluates each chunk of its
horizons in one numpy pass (sweep._horizon_batch over ARRAY_OPS).

The scalar functions are the reference: a batch row agrees with them within
the conditioning of log L_t and of exp(log n) (numpy's exp and log differ
from cmath's in the last bits), exactly at t = 0, and row for row in which
rows are error rows and where an overflow ends the sweep.  The writer's
reference is the rendering of every cell through _fmt / _csv_cell: its
output must be those bytes.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from ar1quad import (
    DomainError,
    ModelParams,
    ParameterError,
    SingularSequenceError,
    SpectralData,
    TransformPoint,
    normalized_transform,
    sequence_ratios,
    transform,
)
from ar1quad import cli, closed_form
from ar1quad import sweep as sweep_module
from ar1quad.cli import main
from ar1quad.spectral import _spectral_tuple
from mp_reference import log_transform_ref
from util import rel_err, term_sizes, within_conditioning


def sweep(*argv):
    """(exit code, JSON rows, stderr) of one in-process sweep."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", *argv])
    return code, [json.loads(line) for line in out.getvalue().splitlines()], err.getvalue()


def cells(row):
    return complex(row["log_L_re"], row["log_L_im"]), complex(row["normalized_re"], row["normalized_im"])


def scalar(params, alpha, x, t):
    """(log L_t, normalized) from the scalar functions, or None where they
    raise SingularSequenceError or DomainError (an error row)."""
    point = TransformPoint(alpha)
    try:
        return transform(params, point, x, t).log_value, normalized_transform(params, point, x, t)
    except (SingularSequenceError, DomainError):
        return None


@pytest.mark.parametrize("alpha", [-1e-6, -1e-9, -1e-12, -1e-15, -1e-300])
@pytest.mark.parametrize("theta", [0.6, -0.8, 0.95])
def test_small_alpha_rows_keep_full_relative_precision(theta, alpha):
    # the batch path ports the cancellation-free forms (expm1 for w^t - 1,
    # log1p of the excess near 1): a naive port loses ~1e-13 here
    code, rows, _ = sweep(f"--theta={theta!r}", "--m=1.0", "--x=0.5", f"--alpha={alpha!r}",
                          "--t=1,10,1000,1000000")
    assert code == 0
    assert [row["t"] for row in rows] == [1, 10, 1000, 10**6]
    for row in rows:
        log_value = cells(row)[0]
        assert rel_err(log_value, log_transform_ref(theta, 1.0, 0.5, alpha, row["t"])) <= 1e-13


@pytest.mark.parametrize("theta, m, x", [(0.6, 1.0, 0.5), (-0.8, -1.5, 2.0), (0.95, 0.0, -1.0)])
def test_range_rows_agree_with_the_scalar_functions(theta, m, x):
    # 601 horizons from t = 0 (three chunks) and a strided range, for real,
    # complex, tiny, zero and out-of-domain alpha
    alphas = [-0.3, complex(-0.3, 0.4), -1e-9, 0.0, complex(-1.0, -0.25), 0.9]
    params = ModelParams(theta, m)
    code, rows, _ = sweep(f"--theta={theta!r}", f"--m={m!r}", f"--x={x!r}",
                          "--alpha=" + ",".join(repr(complex(a).real) for a in alphas),
                          "--alpha-im=" + ",".join(repr(complex(a).imag) for a in alphas),
                          "--t=0:600,32760:33800:7")
    assert code == 0
    horizons = [*range(601), *range(32760, 33801, 7)]
    assert len(rows) == len(alphas) * len(horizons)
    for k, alpha in enumerate(alphas):
        for row, t in zip(rows[k * len(horizons):], horizons):
            assert (complex(row["alpha_re"], row["alpha_im"]), row["t"]) == (alpha, t)
            expected = scalar(params, alpha, x, t)
            if expected is None:
                assert row["error"] == "out_of_domain" and row["log_L_re"] is None
                continue
            assert within_conditioning(cells(row), expected, term_sizes(params, TransformPoint(alpha), x, t))


@pytest.mark.parametrize("alpha", [-0.3, complex(-0.3, 0.4), -1e-9, -2.5, complex(-1.0, -0.25), 0.0])
def test_horizon_zero_rows_equal_the_scalar_values(alpha):
    # the t = 0 anchors (pi_0 = 1, 1/psi_1 = theta, theta - r_0 = 0) are exact
    # in both paths: L_0 = exp(alpha*x^2) with no library rounding in log pi_0
    params = ModelParams(0.6, 1.0)
    alpha = complex(alpha)
    code, rows, _ = sweep("--theta=0.6", "--m=1.0", "--x=0.5", f"--alpha={alpha.real!r}",
                          f"--alpha-im={alpha.imag!r}", "--t=0:3")
    assert code == 0 and rows[0]["t"] == 0
    log_value, normalized = cells(rows[0])
    assert log_value == transform(params, TransformPoint(alpha), 0.5, 0).log_value == alpha * 0.25
    assert normalized == normalized_transform(params, TransformPoint(alpha), 0.5, 0)


def test_list_grid_rows_agree_with_the_scalar_functions():
    # single horizons and ranges share the chunks, in grid order: t = 0 away
    # from the front of a chunk keeps its exact anchor, a repeat is a row again
    params, point, grid = ModelParams(-0.8, 1.0), TransformPoint(-0.3), [5, 0, 3, 4, 0, 10**6, 2]
    code, rows, _ = sweep("--theta=-0.8", "--m=1.0", "--x=0.5", "--alpha=-0.3", "--t=5,0,3:4,0,1000000,2")
    assert code == 0 and [row["t"] for row in rows] == grid
    for row, t in zip(rows, grid):
        assert within_conditioning(cells(row), scalar(params, point.alpha, 0.5, t), term_sizes(params, point, 0.5, t))
    for row in rows[1], rows[4]:
        assert cells(row) == (transform(params, point, 0.5, 0).log_value, normalized_transform(params, point, 0.5, 0))


def test_list_grid_is_evaluated_in_chunks(monkeypatch):
    # 300 single horizons plus a range of 20 are 320 rows: two numpy passes
    # per alpha, not one per grid entry
    calls = []
    batch = sweep_module._horizon_batch  # the original, before it is patched

    def counting(params, point, x, stage, horizons):
        calls.append(len(horizons))
        return batch(params, point, x, stage, horizons)

    monkeypatch.setattr(sweep_module, "_horizon_batch", counting)
    grid = ",".join(map(str, range(1, 3000, 10))) + ",5000:5019"
    code, rows, _ = sweep("--theta=0.6", "--m=1.0", "--x=0.5", "--alpha=-0.3,-0.5", f"--t={grid}")
    assert code == 0 and len(rows) == 640
    assert calls == [sweep_module._SWEEP_CHUNK, 320 - sweep_module._SWEEP_CHUNK] * 2


def test_vanishing_d_t_prints_an_error_row(monkeypatch):
    # crafted roots (w = 1/2, pi_0 = 1, beta_- = 4/3): E_1 = 1 + beta_-*lambda_-*(w - 1)
    # = 0, so pi_1 and psi_2 vanish at t = 1 and nowhere else in 0..5
    crafted = SpectralData(lambda_plus=complex(3.0), lambda_minus=complex(1.5),
                           beta_plus=complex(-1.0 / 3.0), beta_minus=complex(4.0 / 3.0), in_domain=True)
    params = ModelParams(0.5, 0.0)
    with pytest.raises(SingularSequenceError):
        sequence_ratios(crafted, params, 1)
    monkeypatch.setattr(closed_form, "_roots", lambda theta, alpha: _spectral_tuple(crafted))
    argv = ["--theta=0.5", "--m=0", "--x=0.5", "--alpha=-0.3", "--t=0:5"]
    code, rows, _ = sweep(*argv)
    assert code == 0
    assert [row["error"] for row in rows] == [None, "out_of_domain", None, None, None, None]
    assert rows[1]["log_L_re"] is None and all(math.isfinite(rows[k]["log_L_re"]) for k in (0, 2, 3, 4, 5))
    assert sweep(*argv, "--strict")[0] == 2


@pytest.mark.parametrize("before", [3, 300])
def test_log_overflow_inside_a_chunk_prints_the_rows_before_it(before):
    # m = 1e152: A*t leaves the double range near t = 21,000, where the
    # normalized value has long underflowed; 300 rows cross a chunk boundary
    params, point = ModelParams(-0.8, 1e152), TransformPoint(-0.3)

    def overflows(t):
        try:
            transform(params, point, 0.5, t)
        except ParameterError as exc:
            assert "log L_t overflows" in str(exc)
            return True
        return False

    first = next(t for t in range(20000, 23000) if overflows(t))
    code, rows, err = sweep("--theta=-0.8", "--m=1e152", "--x=0.5", "--alpha=-0.3",
                            f"--t={first - before}:{first + 3}")
    assert code == 64
    assert [row["t"] for row in rows] == list(range(first - before, first))
    for row in rows:
        expected = scalar(params, point.alpha, 0.5, row["t"])
        assert within_conditioning(cells(row), expected, term_sizes(params, point, 0.5, row["t"]))
    assert err.count("\n") == 1 and err.startswith("ar1quad: error: log L_t overflows")
    assert f"t={first}" in err


def sweep_text(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", *argv])
    assert code == 0
    return out.getvalue()


def rendered(theta, m, x, alphas, t_text, fmt, batch=sweep_module._horizon_batch):
    """The sweep's output rendered row by row and cell by cell through
    _fmt / _csv_cell, from the values of the same chunks."""
    params = ModelParams(theta, m)
    csv = fmt == "csv"
    cell = sweep_module._csv_cell if csv else cli._fmt

    def line(values):
        if csv:
            return ",".join(map(cell, values)) + "\n"
        return "{" + ", ".join(f'"{k}": {cell(v)}' for k, v in zip(sweep_module._SWEEP_FIELDS, values)) + "}\n"

    horizons = [t for entry in sweep_module._parse_t_grid(t_text) for t in entry]
    lines = [",".join(sweep_module._SWEEP_FIELDS) + "\n"] if csv else []
    for alpha in alphas:
        point = TransformPoint(alpha)
        error = [None] * 6 + ["out_of_domain"]
        try:
            stage = closed_form._alpha_stage(params, point, x)
        except DomainError:
            lines += [line([alpha.real, alpha.imag, t, *error]) for t in horizons]
            continue
        for k in range(0, len(horizons), sweep_module._SWEEP_CHUNK):
            chunk = horizons[k:k + sweep_module._SWEEP_CHUNK]
            log_value, normalized, regular, _ = batch(params, point, x, stage, chunk)
            columns = (log_value.real, log_value.imag, normalized.real, normalized.imag)
            for t, ok, *values in zip(chunk, regular.tolist(), *(c.tolist() for c in columns)):
                tail = [*values, stage[2].real, stage[3], None] if ok else error
                lines.append(line([alpha.real, alpha.imag, t, *tail]))
    return "".join(lines)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("alphas, t_text", [
    # converged: constant normalized columns (also for the complex alpha)
    ([-0.3, complex(-0.3, 0.4), complex(-1.0, -0.25)], "40000:40149"),
    # the first chunk straddles convergence, the second is converged
    ([-0.3, complex(-0.05, 0.2), 0.9], "0:300"),
    # alpha = -0.0 and 0.0: every cell 0 or -0; a one-horizon grid
    ([-0.0, 0.0, complex(-0.0, -0.0)], "0:20"),
    ([-0.3, complex(-0.3, 0.4), -0.0], "5"),
    # a list grid across two chunks, with t = 0 inside the second
    ([-1e-300, complex(-2.0, 1.0)], ",".join(map(str, range(1, 2600, 10))) + ",0,1000000"),
])
def test_sweep_output_is_the_cell_by_cell_rendering(alphas, t_text, fmt):
    # the writer fills a chunk through one template, with bit-constant
    # columns formatted once; the bytes must be those of _fmt on every cell
    alphas = [complex(a) for a in alphas]
    text = sweep_text("--theta=0.6", "--m=1.0", "--x=0.5", "--alpha=" + ",".join(repr(a.real) for a in alphas),
                      "--alpha-im=" + ",".join(repr(a.imag) for a in alphas), f"--t={t_text}", f"--format={fmt}")
    assert text == rendered(0.6, 1.0, 0.5, alphas, t_text, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_output_with_a_vanishing_d_t_is_the_cell_by_cell_rendering(monkeypatch, fmt):
    # the crafted roots of test_vanishing_d_t_prints_an_error_row: an error
    # row at t = 1 among the template's rows of one chunk
    crafted = SpectralData(lambda_plus=complex(3.0), lambda_minus=complex(1.5),
                           beta_plus=complex(-1.0 / 3.0), beta_minus=complex(4.0 / 3.0), in_domain=True)
    monkeypatch.setattr(closed_form, "_roots", lambda theta, alpha: _spectral_tuple(crafted))
    text = sweep_text("--theta=0.5", "--m=0", "--x=0.5", "--alpha=-0.3,-0.2", "--alpha-im=0,0.1", "--t=0:5",
                      f"--format={fmt}")
    assert "out_of_domain" in text
    assert text == rendered(0.5, 0.0, 0.5, [complex(-0.3), complex(-0.2, 0.1)], "0:5", fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bit_constant_columns_are_tested_on_bits(monkeypatch, fmt):
    # 0.0 == -0.0, but they print as 0 and -0: a zero column with both signs
    # (log_L_im) is not constant, one with a single sign is, whichever it is
    # (normalized_re -0, normalized_im 0)
    log_value = np.array([complex(1.5, 0.0), complex(2.5, -0.0), complex(3.5, 0.0)])
    normalized = np.array([complex(-0.0, 0.0)] * 3)

    def crafted(params, point, x, stage, horizons):
        return log_value, normalized, np.ones(3, bool), None

    monkeypatch.setattr(sweep_module, "_horizon_batch", crafted)
    text = sweep_text("--theta=0.6", "--m=1.0", "--x=0.5", "--alpha=-0.3", "--t=1:3", f"--format={fmt}")
    assert text == rendered(0.6, 1.0, 0.5, [complex(-0.3)], "1:3", fmt, batch=crafted)
    if fmt == "csv":
        assert [row.split(",")[4:7] for row in text.splitlines()[1:]] == [["0", "-0", "0"], ["-0", "-0", "0"],
                                                                          ["0", "-0", "0"]]


@pytest.mark.parametrize("theta, alpha", [(0.6, complex(-0.3, 0.4)), (0.6, complex(-0.05, 0.2)),
                                          (-0.8, complex(-1.0, -0.25)), (0.9, complex(-0.3, 0.1))])
def test_converged_complex_rows_have_one_normalized_value(theta, alpha):
    # past the mixing horizon w^t underflows, so w^t - 1 is exactly -1 and
    # exp(-t*Lambda)*L_t is the same double in every row, as for a real alpha
    code, rows, _ = sweep(f"--theta={theta}", "--m=1", "--x=0.5", f"--alpha={alpha.real}",
                          f"--alpha-im={alpha.imag}", "--t=40000:40149")
    assert code == 0 and len(rows) == 150
    assert len({row["normalized_re"] for row in rows}) == 1
    assert len({row["normalized_im"] for row in rows}) == 1
