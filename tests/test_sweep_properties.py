"""Sweep rows against the scalar functions, over drawn parameters (hypothesis).

Derandomized with a bounded example count, so the suite stays deterministic.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ar1quad import (
    DomainError,
    ModelParams,
    SingularSequenceError,
    TransformPoint,
    ergodic_constants,
    normalized_transform,
    transform,
)
from ar1quad.cli import main

from util import term_sizes, within_conditioning

_SWEEP_FIELDS = ["alpha_re", "alpha_im", "t", "log_L_re", "log_L_im", "normalized_re",
                 "normalized_im", "Lambda_re", "rate", "error"]

_ALPHAS = st.one_of(
    st.floats(-5.0, 0.5).map(complex),
    st.builds(complex, st.floats(-3.0, 0.5), st.floats(-2.0, 2.0)),
    # alpha == 0; tiny; subnormal (B alone would overflow there); mostly outside D
    st.sampled_from([0j, complex(-1e-300), complex(-5e-324), complex(0.9)]),
)
_HORIZONS = st.one_of(st.integers(0, 64), st.integers(32760, 32780), st.integers(32781, 10**6))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(theta=st.floats(-0.95, 0.95).filter(lambda th: abs(th) >= 0.05), m=st.floats(-3.0, 3.0),
       x=st.floats(-4.0, 4.0), alphas=st.lists(_ALPHAS, min_size=1, max_size=4),
       horizons=st.lists(_HORIZONS, min_size=1, max_size=6))
def test_sweep_rows_equal_the_scalar_functions(theta, m, x, alphas, horizons):
    argv = ["sweep", f"--theta={theta!r}", f"--m={m!r}", f"--x={x!r}",
            "--alpha=" + ",".join(repr(a.real) for a in alphas),
            "--alpha-im=" + ",".join(repr(a.imag) for a in alphas),
            "--t=" + ",".join(map(str, horizons))]
    params = ModelParams(theta, m)
    expected = []  # alpha-major, one row per (alpha, t): None for an error row, and the term sizes
    for alpha in alphas:
        point = TransformPoint(alpha)
        for t in horizons:
            try:
                erg = ergodic_constants(params, point, x)
                log_value = transform(params, point, x, t).log_value
                normalized = normalized_transform(params, point, x, t)
            except (DomainError, SingularSequenceError):
                expected.append((alpha, t, None, None))
                continue
            expected.append((alpha, t, [log_value.real, log_value.imag, normalized.real, normalized.imag,
                                        erg.lambda_of_alpha.real, erg.rate], term_sizes(params, point, x, t)))
    for fmt in ("json", "csv"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--format", fmt])
        assert code == 0
        lines = buf.getvalue().splitlines()
        if fmt == "csv":
            assert lines.pop(0).split(",") == _SWEEP_FIELDS
            rows = [{k: None if c == "" else c if k == "error" else float(c)
                     for k, c in zip(_SWEEP_FIELDS, line.split(","))} for line in lines]
        else:
            rows = [json.loads(line) for line in lines]
        assert len(rows) == len(expected)
        for row, (alpha, t, values, sizes) in zip(rows, expected):
            assert (row["alpha_re"], row["alpha_im"], row["t"]) == (alpha.real, alpha.imag, t)
            got = [row[k] for k in _SWEEP_FIELDS[3:9]]
            if values is None:
                assert row["error"] == "out_of_domain" and got == [None] * 6
            else:
                assert row["error"] is None and got[4:] == values[4:]
                got = (complex(row["log_L_re"], row["log_L_im"]), complex(row["normalized_re"], row["normalized_im"]))
                want = (complex(values[0], values[1]), complex(values[2], values[3]))
                assert within_conditioning(got, want, sizes), (row, values, sizes)
