"""Command-line front end: single evaluations, sweeps, and self-verification.

Exit codes: 0 success, 1 verification failure, 2 domain error, 64 usage
error, 141 stdout closed by its reader (console script only).  Data goes to
stdout (one JSON object per line, or CSV with a '.' decimal separator);
diagnostics go to stderr.  Floats are printed with 17 significant digits so
that parsing the output reproduces them bit for bit.  A sweep evaluates
its horizons (ranges and single values alike, in grid order) in chunks of
at most 256 rows, one numpy pass per chunk, and writes each chunk as soon
as it is computed: memory stays flat in the grid size.  A value column
whose cells in a chunk all have the same bits (a normalized value past
the mixing horizon, the zero imaginary parts of a real alpha) is
formatted once for the chunk, not once per row.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys

import numpy as np

from .closed_form import _alpha_stage, _horizon_batch, ergodic_constants, transform
from .errors import DomainError, SingularSequenceError
from .model import ModelParams, check_finite
from .spectral import TransformPoint
from .verify import run_all

_SWEEP_FIELDS = [
    "alpha_re",
    "alpha_im",
    "t",
    "log_L_re",
    "log_L_im",
    "normalized_re",
    "normalized_im",
    "Lambda_re",
    "rate",
    "error",
]

# Horizons per numpy pass of a sweep: the rows of one chunk are held at
# once, so memory stays flat in the grid size.
_SWEEP_CHUNK = 256


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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _fmt(value)


def _parse_t_grid(text: str) -> list[range]:
    """Comma-separated entries, each INT or START:STOP[:STEP] (inclusive).

    Rejects a negative horizon and an empty grid here, so that a sweep
    fails before it prints anything.
    """
    grid = []
    for item in text.split(","):
        parts = [int(p) for p in item.split(":")]
        if len(parts) == 1:
            start, stop, step = parts[0], parts[0], 1
        elif len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ValueError(f"bad range {item!r}")
        if step <= 0:
            raise ValueError(f"range step must be positive in {item!r}")
        horizons = range(start, stop + 1, step)
        if horizons and start < 0:
            raise ValueError(f"horizon t must be >= 0, got {start}")
        grid.append(horizons)
    if not any(grid):
        raise ValueError("alpha and t grids must be non-empty")
    return grid


def _parse_alpha_grid(alpha_text: str, alpha_im_text: str | None) -> list[complex]:
    res = [float(a) for a in alpha_text.split(",")]
    if alpha_im_text is None:
        ims = [0.0] * len(res)
    else:
        ims = [float(b) for b in alpha_im_text.split(",")]
        if len(ims) != len(res):
            raise ValueError("--alpha and --alpha-im must have the same length")
    return [complex(a, b) for a, b in zip(res, ims)]


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


def _sweep_template(cells, csv: bool) -> str:
    """One sweep line as a %-format string, from cells in _SWEEP_FIELDS
    order that are formatted already or a %-slot that each row fills in."""
    if csv:
        return ",".join(cells) + "\n"
    return "{" + ", ".join(f'"{k}": {c}' for k, c in zip(_SWEEP_FIELDS, cells)) + "}\n"


def _bit_constant(column: list, values: np.ndarray) -> bool:
    """True if every cell of a value column has the bits of the first.
    list.count compares with ==, which holds between 0.0 and -0.0 (they
    print as 0 and -0), so a zero column must also have one sign."""
    first = column[0]
    if column.count(first) != len(column):
        return False
    return first != 0.0 or np.count_nonzero(np.signbit(values)) in (0, len(column))


def _sweep_chunk(templates, horizons: list[int], log_value, normalized, regular) -> str:
    """The lines of one evaluated chunk ("" for an empty one).

    An error row where D_t vanishes; every other row through one
    %-template for the chunk (its cells are finite, and %.17g prints what
    _fmt does): the per-alpha row template split at its four value slots,
    with each value column whose cells all have the same bits (a converged
    normalized value, the zero imaginary parts of a real alpha) formatted
    once into its slot, and a %.17g slot for each other column.
    """
    pieces, error_row = templates
    n = len(horizons)
    if not n:
        return ""
    template, varying = pieces[0], [horizons]
    for values, piece in zip((log_value.real, log_value.imag, normalized.real, normalized.imag), pieces[1:]):
        column = values.tolist()
        if _bit_constant(column, values):
            template += format(column[0], ".17g") + piece
        else:
            template += "%.17g" + piece
            varying.append(column)
    if np.count_nonzero(regular) < n:
        return "".join(template % row if ok else error_row % row[0] for row, ok in zip(zip(*varying), regular.tolist()))
    width = len(varying)
    cells = [None] * (width * n)
    for k, column in enumerate(varying):
        cells[k::width] = column
    return (template * n) % tuple(cells)


def cmd_sweep(args) -> int:
    """Print every (alpha, t) row, alpha-major.

    The alpha stage of every alpha runs before the first line, so invalid
    input (such as constants that overflow) prints nothing.  The horizon
    stage then runs over chunks of at most _SWEEP_CHUNK horizons of the
    t grid, taken across its entries, in one numpy pass, and each chunk is
    written at once: the five cells fixed per alpha come from a per-alpha
    template, kept as its pieces between the four value slots, and
    _sweep_chunk fills the slots of each chunk.  A row whose log L_t or
    normalized value overflows ends the sweep (ParameterError) after the
    rows before it.
    """
    alphas = _parse_alpha_grid(args.alpha, args.alpha_im)
    t_grid = _parse_t_grid(args.t)
    params = ModelParams(args.theta, args.m)
    x = args.x
    check_finite("x", x)
    csv = args.format == "csv"
    cell = _csv_cell if csv else _fmt
    plans = []
    for alpha in alphas:
        point = TransformPoint(alpha)
        head = [cell(alpha.real), cell(alpha.imag), "%d"]
        error_row = _sweep_template(head + [cell(None)] * 6 + [cell("out_of_domain")], csv)
        try:
            stage = _alpha_stage(params, point, x)
        except DomainError:  # every row of this alpha is an error row
            plans.append((point, None, (None, error_row)))
            continue
        tail = [cell(stage[2].real), cell(stage[3]), cell(None)]
        pieces = _sweep_template(head + ["%.17g"] * 4 + tail, csv).split("%.17g")
        plans.append((point, stage, (pieces, error_row)))
    write = sys.stdout.write
    if csv:
        write(",".join(_SWEEP_FIELDS) + "\n")
    any_error = False
    for point, stage, templates in plans:
        horizons = itertools.chain.from_iterable(t_grid)
        while chunk := list(itertools.islice(horizons, _SWEEP_CHUNK)):
            if stage is None:
                any_error = True
                write((templates[1] * len(chunk)) % tuple(chunk))
                continue
            log_value, normalized, regular, error = _horizon_batch(params, point, x, stage, chunk)
            chunk = chunk[:len(regular)]  # the rows before an overflow
            any_error = any_error or np.count_nonzero(regular) < len(chunk)
            write(_sweep_chunk(templates, chunk, log_value, normalized, regular))
            if error is not None:
                raise error
    return 2 if args.strict and any_error else 0


def cmd_verify(args) -> int:
    report = run_all(
        grid_size=args.grid_size,
        seed=args.seed,
        tolerance=args.tolerance,
        mc_samples=args.mc_samples,
    )
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"[{status}] {check.name:<22} error={check.error:.3e}  tolerance={check.tolerance:.3e}"
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
    p_sw.add_argument("--strict", action="store_true", help="exit 2 if any grid point is out of domain")
    p_sw.set_defaults(func=cmd_sweep)

    p_vf = sub.add_parser("verify", help="run the self-verification suite")
    p_vf.add_argument("--grid-size", type=int, default=3, help="values per parameter axis (1 = smoke run)")
    p_vf.add_argument("--seed", type=int, default=20240901, help="Monte Carlo seed")
    p_vf.add_argument("--tolerance", type=float, default=None, help="override the float-check tolerances")
    p_vf.add_argument("--mc-samples", type=int, default=1_000_000, help="Monte Carlo sample count")
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
