"""The batch path of `ar1quad sweep`, the only module that imports numpy at
the top: cli imports it when a sweep runs, so `import ar1quad`, the scalar
functions and the other commands never load numpy.

ARRAY_OPS is spectral.SCALAR_OPS over numpy arrays: the one text of the
horizon formulas (spectral._sequence_terms, then closed_form._horizon)
evaluates a chunk of horizons in one pass, with the same
cancellation-free forms, a real base's powers kept real, and a vanishing
or non-finite E_t returned as a mask of rows instead of raised.  numpy's
exp and log differ from cmath's in the last bits, so a sweep row agrees
with the scalar functions to a few eps of the size of the terms it sums,
and exactly at t = 0, where E_0 = 1.

The horizons (ranges and single values alike, in grid order) run in
chunks of at most _SWEEP_CHUNK rows, each written as soon as it is
computed, so memory stays flat in the grid size.  A value column whose
cells in a chunk all have the same bits (a normalized value past the
mixing horizon, the zero imaginary parts of a real alpha) is formatted
once for the chunk, not once per row.
"""

from __future__ import annotations

import cmath
import itertools
import sys
from types import SimpleNamespace

import numpy as np

from .cli import _fmt
from .closed_form import _LOG_MAX, _alpha_stage, _horizon, _overflow
from .errors import DomainError
from .model import ModelParams, check_finite
from .spectral import TransformPoint, _sequence_terms

_SWEEP_FIELDS = ["alpha_re", "alpha_im", "t", "log_L_re", "log_L_im", "normalized_re", "normalized_im", "Lambda_re",
                 "rate", "error"]

# Horizons per numpy pass of a sweep: the rows of one chunk are held at
# once, so memory stays flat in the grid size.
_SWEEP_CHUNK = 256


def _complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def _array_expm1(z: np.ndarray) -> np.ndarray:
    """spectral._expm1 elementwise; a real z (every imaginary part 0) stays
    real, and the form that no element takes is not evaluated."""
    x, y = z.real, z.imag
    if not np.count_nonzero(y):
        return np.expm1(x)
    exp_x, cos_y = np.exp(x), np.cos(y)
    far = x <= -1.0
    n_far = np.count_nonzero(far)
    if n_far:
        re = exp_x * cos_y - 1.0
    if n_far < far.size:
        half_sin = np.sin(0.5 * y)
        near = np.expm1(x) * cos_y - 2.0 * half_sin * half_sin
        re = np.where(far, re, near) if n_far else near
    return _complex_array(re, exp_x * np.sin(y))


def _array_log(value: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """spectral._log elementwise: log1p of the excess where |excess| < 0.5,
    else log; the branch that no element takes is not evaluated."""
    near = abs(excess) < 0.5
    n_near = np.count_nonzero(near)
    if n_near < near.size:
        far = np.log(value)
        if not n_near:
            return far
    x, y = excess.real, excess.imag
    if np.count_nonzero(y):
        small = _complex_array(0.5 * np.log1p(x * (2.0 + x) + y * y), np.arctan2(y, 1.0 + x))
    else:
        small = np.log1p(x)
    return small if n_near == near.size else np.where(near, small, far)


def _array_power(base: complex, n: np.ndarray) -> np.ndarray:
    """spectral._int_power for an array of exponents (floats holding integers)."""
    if base.imag == 0.0:
        return np.power(base.real, n)
    return np.exp(n * cmath.log(base))


def _array_guard(t: np.ndarray, e_t: np.ndarray, *values: np.ndarray):
    """True where every value is finite (a vanishing E_t makes 1/psi_{t+1}
    non-finite), or True for no values."""
    regular = True
    for value in values:
        regular = regular & np.isfinite(value)
    return regular


def _array_exp(z: np.ndarray) -> np.ndarray:
    """exp elementwise; a real z (every imaginary part 0) stays real."""
    if not np.count_nonzero(z.imag):
        return np.exp(z.real)
    return np.exp(z)


# The operations of spectral.SCALAR_OPS over numpy arrays of horizons;
# callers silence floating-point warnings (np.errstate), since a singular
# row is masked.
ARRAY_OPS = SimpleNamespace(expm1=_array_expm1, log=_array_log, power=_array_power, guard=_array_guard)


def _horizon_batch(params: ModelParams, point: TransformPoint, x: float, stage: tuple, horizons: list[int]) -> tuple:
    """closed_form._horizon on the ARRAY_OPS sequence terms, for a list of horizons.

    Returns (log L_t, exp(-t*Lambda)*L_t, regular, error).  The arrays
    cover the rows before the first one whose log L_t is not finite or
    whose normalized value overflows; `regular` is False where E_t vanishes
    (an error row); error is the ParameterError of that first row, for the
    caller to raise once it has used the rows before it, or None.
    """
    alpha = point.alpha
    t = np.array(horizons, dtype=float)
    with np.errstate(all="ignore"):
        terms = _sequence_terms(ARRAY_OPS, params.theta, stage[0], t)
        log_value, _, log_normalized, regular = _horizon(params, x, alpha, stage[1], terms, t)[:4]
        log_finite = np.isfinite(log_value)
        overflow = regular & (~log_finite | (log_normalized.real > _LOG_MAX))
        normalized = _array_exp(log_normalized)
    if not np.count_nonzero(overflow):
        return log_value, normalized, regular, None
    stop = int(overflow.argmax())
    what = "exp(-t*Lambda)*L_t" if log_finite[stop] else "log L_t"
    error = _overflow(what, params, x, alpha, horizons[stop])
    return log_value[:stop], normalized[:stop], regular[:stop], error


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return _fmt(value)


def _parse_t_grid(text: str) -> list[range]:
    """Comma-separated entries, each INT or START:STOP[:STEP] (inclusive).

    Rejects a negative horizon, a start or stop beyond the double range and
    an empty grid here, so that a sweep fails before it prints anything.
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
        if max(start, stop) > sys.float_info.max:
            raise ValueError(f"horizon t must be at most {sys.float_info.max!r}, got {item!r}")
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

    An error row where E_t vanishes; every other row through one
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
    rows before it.  Error rows say out_of_domain for an alpha outside D
    and singular_sequence where E_t vanishes at an alpha inside it.
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
        try:
            stage, label = _alpha_stage(params, point, x), "singular_sequence"
        except DomainError:  # every row of this alpha is an error row
            stage, label = None, "out_of_domain"
        error_row = _sweep_template(head + [cell(None)] * 6 + [cell(label)], csv)
        if stage is None:
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
