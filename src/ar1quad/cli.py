"""Command-line front end: single evaluations, sweeps, and self-verification.

Exit codes: 0 success, 1 verification failure, 2 domain error, 64 usage
error, 141 stdout closed by its reader (console script only).  Data goes to
stdout (one JSON object per line, or CSV with a '.' decimal separator);
diagnostics go to stderr.  Floats are printed with 17 significant digits so
that parsing the output reproduces them bit for bit.  The sweep command
runs in sweep.py (its batch path and streaming writer are described
there), which is imported when a sweep runs: no other command loads numpy.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from .closed_form import ergodic_constants, transform
from .errors import DomainError, SingularSequenceError
from .model import ModelParams
from .spectral import TransformPoint
from .verify import run_all

# stock argparse only treats plain decimals as negative numbers, which would
# reject values like "-1e-9", "-0.3,-0.5" or "-inf" as unknown options; a
# value is whatever starts like a negative number, and float() checks the rest
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 is reserved for domain errors.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """JSON-compatible scalar at 17 significant digits (exact round-trip)."""
    if type(value) is float and math.isfinite(value):  # nearly every cell: no dispatch
        return format(value, ".17g")
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return format(v, ".17g")


def _json_line(pairs) -> str:
    return "{" + ", ".join(f'"{k}": {_fmt(v)}' for k, v in pairs) + "}"


def cmd_transform(args) -> int:
    params = ModelParams(args.theta, args.m)
    point = TransformPoint(complex(args.alpha, args.alpha_im))
    tv = transform(params, point, args.x, args.t)
    print(
        _json_line(
            [
                ("log_value_re", tv.log_value.real),
                ("log_value_im", tv.log_value.imag),
                ("value_re", tv.value.real),
                ("value_im", tv.value.imag),
                ("sigma_re", tv.sigma_t.real),
                ("sigma_im", tv.sigma_t.imag),
                ("in_domain", True),  # transform raised DomainError otherwise
            ]
        )
    )
    return 0


def cmd_ergodic(args) -> int:
    params = ModelParams(args.theta, args.m)
    point = TransformPoint(complex(args.alpha, args.alpha_im))
    erg = ergodic_constants(params, point, args.x)
    print(
        _json_line(
            [
                ("Lambda_re", erg.lambda_of_alpha.real),
                ("Lambda_im", erg.lambda_of_alpha.imag),
                ("f_check_re", erg.f_check.real),
                ("f_check_im", erg.f_check.imag),
                ("rate", erg.rate),
            ]
        )
    )
    return 0


def cmd_sweep(args) -> int:
    """sweep.cmd_sweep, importing the batch path (and numpy) on first use."""
    from . import sweep

    return sweep.cmd_sweep(args)


def cmd_verify(args) -> int:
    report = run_all(grid_size=args.grid_size, tolerance=args.tolerance)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = (f"[{status}] {check.name:<22} error={check.error:.3e}  tolerance={check.tolerance:.3e}"
                f"  time={check.seconds * 1e3:.1f}ms")
        if check.detail:
            line += f"  ({check.detail})"
        print(line)
    failed = sum(not c.passed for c in report.checks)
    print(f"{len(report.checks) - failed}/{len(report.checks)} checks passed")
    return 0 if report.all_passed else 1


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built on the first call (not at import) and reused:
    building it costs more than a small sweep."""
    parser = _Parser(prog="ar1quad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--theta", type=float, required=True, help="memory coefficient, 0 < |theta| < 1")
        p.add_argument("--m", type=float, default=0.0, help="level shift (default 0)")
        p.add_argument("--x", type=float, required=True, help="conditioning start value X_0")

    p_tr = sub.add_parser("transform", help="evaluate L_t(alpha, x)")
    add_common(p_tr)
    p_tr.add_argument("--alpha", type=float, required=True, help="real part of alpha")
    p_tr.add_argument("--alpha-im", type=float, default=0.0, help="imaginary part of alpha")
    p_tr.add_argument("--t", type=int, required=True, help="horizon t >= 0")
    p_tr.set_defaults(func=cmd_transform)

    p_er = sub.add_parser("ergodic", help="evaluate Lambda(alpha) and f_check(alpha, x)")
    add_common(p_er)
    p_er.add_argument("--alpha", type=float, required=True)
    p_er.add_argument("--alpha-im", type=float, default=0.0)
    p_er.set_defaults(func=cmd_ergodic)

    p_sw = sub.add_parser("sweep", help="evaluate a grid of (alpha, t) pairs")
    add_common(p_sw)
    p_sw.add_argument("--alpha", required=True, help="comma-separated real parts")
    p_sw.add_argument("--alpha-im", default=None, help="comma-separated imaginary parts")
    p_sw.add_argument("--t", required=True, help="comma-separated horizons; START:STOP[:STEP] ranges allowed")
    p_sw.add_argument("--format", choices=("json", "csv"), default="json")
    p_sw.add_argument("--strict", action="store_true", help="exit 2 if any row is an error row")
    p_sw.set_defaults(func=cmd_sweep)

    p_vf = sub.add_parser("verify", help="run the self-verification suite")
    p_vf.add_argument("--grid-size", type=int, default=3,
                      help="values per parameter axis, >= 1 (1 = smoke run); sizes above 5 add nothing")
    p_vf.add_argument("--tolerance", type=float, default=None, help="override the float-check tolerances")
    p_vf.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # exits 64 on usage errors
    try:
        return args.func(args)
    except DomainError:
        print('{"error": "out_of_domain"}')
        return 2
    except SingularSequenceError:
        print('{"error": "singular_sequence"}')
        return 2
    except ValueError as exc:  # ParameterError is a ValueError
        print(f"ar1quad: error: {exc}", file=sys.stderr)
        return 64


def run() -> None:
    """Console-script entry point."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`ar1quad sweep ... | head`): stop quietly,
        # and send what is still buffered to devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13  # SIGPIPE
    sys.exit(code)
