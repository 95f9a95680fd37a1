"""The three seeded workloads: input generation, the timed call into
ar1quad, and the check of every output against the mpmath reference.

Each workload is a closed loop with one caller.  Horizons are drawn as a
golden-ratio (Kronecker) sequence started at a seeded offset: marginally
uniform on the workload's (log-)horizon range, but far more even than
independent draws, so the share of calls on each side of a latency cliff,
and hence the per-decade medians, barely move between seeds.  Every other
input is an independent seeded draw.

An operation fails when it raises anything but the documented typed error
for its input, returns a non-finite value for a finite in-domain input, or
is off the reference by more than L_TOL relative in L (complex log L is
compared modulo 2*pi*i).  A DomainError for an out-of-domain alpha, or a
populated `error` column in sweep output, is a success.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random

import ar1quad
import ar1quad.cli

import reference as ref

# README's oracle-agreement tolerance, as a relative error in L.
L_TOL = 1e-8
# Monte Carlo estimates must lie within this many standard errors.
MC_Z = 6.0

SWEEP_FIELDS = [
    "alpha_re", "alpha_im", "t", "log_L_re", "log_L_im",
    "normalized_re", "normalized_im", "Lambda_re", "rate", "error",
]


class Op:
    """One timed call: `kind` names the library entry point, `size` is how
    many operations it counts as (rows for a sweep call), `bin` is its
    horizon decade for latency_flatness (None when it has no horizon)."""

    __slots__ = ("kind", "args", "size", "bin", "label", "defect")

    # defect: False for controls and timed draws; ACCURACY for a known
    # accuracy defect; NAN for an input with no defined value (only a typed
    # error passes); UNDERFLOW for a true value of 0 / log value of -inf (a
    # typed error, an exact 0 or a flagged -inf log value passes)
    def __init__(self, kind, args, size=1, bin=None, label="", defect=False):
        self.kind, self.args, self.size, self.bin = kind, args, size, bin
        self.label, self.defect = label, defect


class Outcome:
    """Check result: rows failed, worst relative error (for accuracy_digits),
    and the first failure reason."""

    __slots__ = ("failed", "worst", "reason")

    def __init__(self):
        self.failed, self.worst, self.reason = 0, 0.0, ""

    def fail(self, reason, rows=1):
        self.failed += rows
        if not self.reason:
            self.reason = reason

    def error(self, name, err, tol):
        """Record a relative error; fail when it exceeds tol or is not a number."""
        if not err <= tol:
            self.fail(f"{name} error {err:.3g} > {tol:g}")
        if err > self.worst or math.isnan(err):
            self.worst = err


ACCURACY, NAN, UNDERFLOW = "accuracy", "nan", "underflow"
LOUD = (NAN, UNDERFLOW)


def decade(t: int) -> int:
    return 0 if t < 10 else min(int(math.log10(t)), 5)


def typed_error(exc: BaseException) -> bool:
    """A loud failure the library documents: one of its own error types or a ValueError."""
    return isinstance(exc, ValueError) or type(exc).__module__ == "ar1quad.errors"


def _log_uniform(rng, lo, hi):
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _theta(rng):
    return rng.choice((-1, 1)) * rng.uniform(0.05, 0.95)


def _complex_alpha(rng, theta, lo=1e-3, hi=1.0):
    while True:
        alpha = complex(-_log_uniform(rng, lo, hi), rng.choice((-1, 1)) * _log_uniform(rng, lo, hi))
        if ref.in_domain(theta, alpha, margin=1e-3):
            return alpha


class Kronecker:
    """u_j = frac(u_0 + j*g), g the golden ratio conjugate; u_0 from the seed."""

    G = (5**0.5 - 1) / 2

    def __init__(self, rng):
        self.u = rng.random()

    def take(self, n):
        out = []
        for _ in range(n):
            self.u = (self.u + self.G) % 1.0
            out.append(self.u)
        return out


class Workload:
    name = ""
    tail_percentile = 50.0
    # the calibration kernels (calibration.py) matching the work of each call
    calibration_kinds = ("python",)

    def calibration_kind(self, op: Op) -> str:
        return "python"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.horizons = {}

    def us(self, kind, n):
        """n horizon quantiles in [0, 1) from the call type's own sequence."""
        if kind not in self.horizons:
            self.horizons[kind] = Kronecker(self.rng)
        return self.horizons[kind].take(n)

    def block(self) -> list[Op]:
        raise NotImplementedError

    def call(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> Outcome:
        raise NotImplementedError

    def panel(self) -> list[Op]:
        raise NotImplementedError


class Point(Workload):
    """Independent scalar calls; fresh (theta, m, x, alpha) every call,
    horizons log-uniform on [0, 10^6]."""

    name = "point"
    tail_percentile = 99.0
    PER_BLOCK = 40  # calls per function per block
    T_MAX = 10**6

    def _draw(self):
        rng = self.rng
        theta = _theta(rng)
        m = rng.uniform(-2.0, 2.0)
        x = rng.uniform(-4.0, 4.0)
        if rng.random() < 0.5:
            alpha = complex(-_log_uniform(rng, 1e-15, 1.0))
        else:
            alpha = _complex_alpha(rng, theta)
        return theta, m, x, alpha

    def block(self):
        ops = []
        for kind in ("transform", "normalized_transform"):
            for u in self.us(kind, self.PER_BLOCK):
                t = int((self.T_MAX + 1) ** u) - 1
                ops.append(Op(kind, (*self._draw(), t), bin=decade(t)))
        ops += [Op("ergodic_constants", self._draw()) for _ in range(self.PER_BLOCK)]
        self.rng.shuffle(ops)
        return ops

    def call(self, op):
        theta, m, x, alpha, *t = op.args
        fn = getattr(ar1quad, op.kind)
        return fn(ar1quad.ModelParams(theta, m), ar1quad.TransformPoint(alpha), x, *t)

    def check(self, op, out):
        res = Outcome()
        if isinstance(out, BaseException):
            if not (op.defect in LOUD and typed_error(out)):
                res.fail(f"raised {type(out).__name__}: {out}")
            return res
        theta, m, x, alpha, *t = op.args
        if op.defect in LOUD:
            if not (op.defect == UNDERFLOW and out.overflow and out.log_value.real == -math.inf):
                res.fail(f"silent result {out!r}")
            return res
        if op.kind == "ergodic_constants":
            lam, f_check, rate = ref.ergodic_ref(theta, m, x, alpha)
            res.error("Lambda", ref.l_rel_error(out.lambda_of_alpha, lam), L_TOL)
            res.error("f_check", ref.rel_error(out.f_check, f_check), L_TOL)
            res.error("rate", ref.rel_error(out.rate, rate), L_TOL)
            res.worst = max(res.worst, ref.log_rel_error(out.lambda_of_alpha, lam))
            return res
        log_l, normalized = ref.transform_ref(theta, m, x, alpha, t[0])
        if op.kind == "normalized_transform":
            res.error("normalized", ref.rel_error(out, normalized), L_TOL)
            return res
        res.error("L", ref.l_rel_error(out.log_value, log_l), L_TOL)
        if -700 < log_l.real < 700:
            res.error("value", ref.rel_error(out.value, cmath.exp(log_l)), L_TOL)
        res.worst = max(res.worst, ref.log_rel_error(out.log_value, log_l))
        return res

    def panel(self):
        base = (0.6, 1.0, 0.5)
        ops = []
        for alpha in (-1e-9, -1e-12, -1e-15, -1e-300):
            for kind in ("transform", "normalized_transform"):
                ops.append(Op(kind, (*base, complex(alpha), 10), label=f"{kind} alpha={alpha:g}", defect=ACCURACY))
            ops.append(Op("ergodic_constants", (*base, complex(alpha)), label=f"ergodic_constants alpha={alpha:g}",
                          defect=ACCURACY))
        controls = [(*base, complex(-0.3, 0.4), 10)]  # pi*i branch of log pi_t
        controls += [(*base, complex(-0.3), t) for t in (0, 10, 1000, 32768, 32769, 10**6)]
        controls += [(*base, complex(-1.0, 0.5), 10**6), (-0.8, 1.5, -1.0, complex(-2.0), 100)]
        for args in controls:
            for kind in ("transform", "normalized_transform"):
                ops.append(Op(kind, args, label=f"{kind} {args}"))
        ops.append(Op("ergodic_constants", (*base, complex(-0.3, 0.4)), label="control ergodic"))
        for m, x, defect in ((1e200, 0.5, UNDERFLOW), (1.0, math.nan, NAN), (1.0, math.inf, UNDERFLOW)):
            ops.append(Op("transform", (0.6, m, x, complex(-0.3), 10), label=f"transform m={m:g} x={x}", defect=defect))
        return ops


class Sweep(Workload):
    """In-process `ar1quad sweep` calls of a fixed shape: four alphas (two
    real, one complex, one out of domain) x N_T contiguous horizons beyond
    32768, JSON output captured to memory."""

    name = "sweep"
    tail_percentile = 90.0
    N_T = 150
    PER_BLOCK = 2
    T_LO, T_HI = 32769, 10**6 - N_T

    def _call_op(self, theta, m, x, alphas, start, label="", defect=False):
        return Op("sweep", (theta, m, x, tuple(alphas), start), size=len(alphas) * self.N_T,
                  bin=decade(start), label=label, defect=defect)

    def block(self):
        rng, ops = self.rng, []
        for u in self.us("sweep", self.PER_BLOCK):
            start = int(self.T_LO * (self.T_HI / self.T_LO) ** u)
            theta = _theta(rng)
            alphas = [
                complex(-_log_uniform(rng, 1e-15, 1.0)),
                complex(-_log_uniform(rng, 1e-15, 1.0)),
                _complex_alpha(rng, theta),
                complex((1 + theta * theta) / 2),  # complex-conjugate roots: out of domain
            ]
            ops.append(self._call_op(theta, rng.uniform(-2, 2), rng.uniform(-4, 4), alphas, start))
        rng.shuffle(ops)
        return ops

    def argv(self, op):
        theta, m, x, alphas, start = op.args
        return [
            "sweep", f"--theta={theta!r}", f"--m={m!r}", f"--x={x!r}",
            "--alpha=" + ",".join(repr(a.real) for a in alphas),
            "--alpha-im=" + ",".join(repr(a.imag) for a in alphas),
            f"--t={start}:{start + self.N_T - 1}",
        ]

    def call(self, op):
        argv = self.argv(op)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ar1quad.cli.main(argv)
        return code, buf.getvalue()

    def check(self, op, out):
        res = Outcome()
        if isinstance(out, BaseException) or out[0] != 0:
            if op.defect in LOUD and (typed_error(out) if isinstance(out, BaseException) else out[0] in (2, 64)):
                return res
            res.fail(f"call failed: {out!r}"[:200], op.size)
            return res
        try:
            rows = [json.loads(line) for line in out[1].splitlines()]
        except ValueError as exc:
            res.fail(f"unparseable output: {exc}", op.size)
            return res
        if len(rows) != op.size or any(list(r) != SWEEP_FIELDS for r in rows):
            res.fail(f"expected {op.size} rows of {SWEEP_FIELDS}", op.size)
            return res
        theta, m, x, alphas, start = op.args
        for k, alpha in enumerate(alphas):
            chunk = rows[k * self.N_T:(k + 1) * self.N_T]
            self._check_alpha(res, op, chunk, theta, m, x, alpha, start)
        return res

    def _check_alpha(self, res, op, chunk, theta, m, x, alpha, start):
        for i, row in enumerate(chunk):
            if complex(row["alpha_re"], row["alpha_im"]) != alpha or row["t"] != start + i:
                res.fail(f"row {i} is for ({row['alpha_re']}, {row['alpha_im']}, {row['t']})")
                return
        if op.defect in LOUD:
            for row in chunk:
                if row["error"] is None and not (op.defect == UNDERFLOW and row["log_L_re"] == -math.inf):
                    res.fail(f"silent row {row}"[:200])
            return
        if not ref.in_domain(theta, alpha):
            for row in chunk:
                if row["error"] != "out_of_domain" or row["log_L_re"] is not None:
                    res.fail(f"out-of-domain row without error flag: {row}"[:200])
            return
        for row, (log_l, normalized, lam, rate) in zip(chunk, ref.sweep_ref(theta, m, x, alpha, start, len(chunk))):
            if row["error"] is not None:
                res.fail(f"in-domain row flagged {row['error']!r}")
                continue
            before = res.failed
            got_log = complex(row["log_L_re"], row["log_L_im"])
            res.error("L", ref.l_rel_error(got_log, log_l), L_TOL)
            res.error("normalized", ref.rel_error(complex(row["normalized_re"], row["normalized_im"]), normalized), L_TOL)
            res.error("Lambda_re", abs(math.expm1(row["Lambda_re"] - lam.real)), L_TOL)
            res.error("rate", ref.rel_error(row["rate"], rate), L_TOL)
            res.failed = before + min(1, res.failed - before)  # one failure per row
            res.worst = max(res.worst, ref.log_rel_error(got_log, log_l),
                            abs(row["Lambda_re"] - lam.real) / abs(lam.real))

    def panel(self):
        alphas = [complex(a) for a in (-1e-9, -1e-12, -1e-15, -1e-300)]
        ops = [self._call_op(0.6, 1.0, 0.5, alphas, 40000, label="sweep small alpha", defect=ACCURACY),
               self._call_op(0.6, 1.0, 0.5, [complex(-0.3), complex(-0.3, 0.4), complex(0.8)], 40000,
                             label="sweep theta=0.6"),
               self._call_op(-0.8, 1.5, -1.0, [complex(-2.0), complex(-1.0, 0.5)], 999000, label="sweep theta=-0.8")]
        for m, x, defect in ((1e200, 0.5, UNDERFLOW), (1.0, math.nan, NAN), (1.0, math.inf, UNDERFLOW)):
            ops.append(self._call_op(0.6, m, x, [complex(-0.3)], 40000, label=f"sweep m={m:g} x={x}", defect=defect))
        return ops


class Oracles(Workload):
    """A seeded mix of the formula-independent paths: unconditional_transform
    (t log-uniform on [10, 2000]), matrix_mgf (t in [50, 500]) and
    monte_carlo_mgf (n = 10^5, t in [5, 50]), all at real alpha < 0."""

    name = "oracles"
    tail_percentile = 95.0
    PER_BLOCK = 2  # calls per type per block
    calibration_kinds = ("python", "native")
    MC_N = 10**5
    # |alpha| * E[S_t] stays below these, keeping the value well inside the
    # double range (and the Monte Carlo estimator's relative variance modest)
    LOG_SCALE = {"unconditional_transform": 200.0, "matrix_mgf": 200.0, "monte_carlo_mgf": 5.0}
    # unconditional draws also keep |alpha| * v^2 (v the stationary variance)
    # at most 2: the integrand is then at most ~5x narrower than the start
    # law and order-64 Gauss-Hermite holds 1e-8.  Sharper (or, for complex
    # alpha, oscillating) integrands are where the quadrature misses its
    # documented tolerance without raising: a known defect, shown by the
    # panel entry at |alpha| * v^2 = 15.4.
    CURVATURE_MAX = 2.0

    def calibration_kind(self, op):
        # quadrature is 192 scalar transform calls; the other two are numpy
        return "python" if op.kind == "unconditional_transform" else "native"

    def _draw(self, kind, t):
        rng = self.rng
        theta = _theta(rng)
        m = rng.uniform(-2.0, 2.0)
        v = 1.0 / (1.0 - theta * theta)
        hi = min(1.0, self.LOG_SCALE[kind] / ((t + 1) * (v + m * m)))
        if kind == "unconditional_transform":
            hi = min(hi, self.CURVATURE_MAX / (v * v))
        return theta, m, -_log_uniform(rng, min(1e-4, hi / 10), hi)

    def block(self):
        rng, ops = self.rng, []
        for u in self.us("unconditional_transform", self.PER_BLOCK):
            t = int(10 * 200**u)
            theta, m, alpha = self._draw("unconditional_transform", t)
            ops.append(Op("unconditional_transform", (theta, m, complex(alpha), t), bin=decade(t)))
        for u in self.us("matrix_mgf", self.PER_BLOCK):
            t = 50 + int(451 * u)
            theta, m, alpha = self._draw("matrix_mgf", t)
            ops.append(Op("matrix_mgf", (theta, m, alpha, rng.uniform(-4, 4), t)))
        for u in self.us("monte_carlo_mgf", self.PER_BLOCK):
            t = 5 + int(46 * u)
            theta, m, alpha = self._draw("monte_carlo_mgf", t)
            ops.append(Op("monte_carlo_mgf", (theta, m, alpha, rng.uniform(-4, 4), t, rng.randrange(2**32))))
        rng.shuffle(ops)
        return ops

    def call(self, op):
        theta, m, *rest = op.args
        params = ar1quad.ModelParams(theta, m)
        if op.kind == "unconditional_transform":
            alpha, t = rest
            return ar1quad.unconditional_transform(params, ar1quad.TransformPoint(alpha), t)
        if op.kind == "matrix_mgf":
            return ar1quad.matrix_mgf(params, *rest)
        alpha, x, t, seed = rest
        return ar1quad.monte_carlo_mgf(params, alpha, x, t, self.MC_N, seed)

    def check(self, op, out):
        res = Outcome()
        if isinstance(out, BaseException):
            if not (op.defect in LOUD and typed_error(out)):
                res.fail(f"raised {type(out).__name__}: {out}")
            return res
        value = complex(out if op.kind == "unconditional_transform" else out.value)
        if op.defect in LOUD:
            if not (op.defect == UNDERFLOW and value == 0):
                res.fail(f"silent result {value!r}")
            return res
        theta, m, *rest = op.args
        if op.kind == "unconditional_transform":
            log_ref = ref.unconditional_ref(theta, m, *rest)
        else:
            alpha, x, t = rest[:3]
            log_ref = ref.transform_ref(theta, m, x, alpha, t)[0]
        expected = cmath.exp(log_ref)
        if op.kind == "monte_carlo_mgf":
            z = abs(value - expected) / out.stderr if out.stderr > 0 else math.inf
            if not z <= MC_Z:
                res.fail(f"Monte Carlo estimate {value} is {z:.3g} standard errors from {expected}")
            return res
        res.error("value", ref.rel_error(value, expected), L_TOL)
        return res

    def panel(self):
        ops = []
        ops = [Op("unconditional_transform", (0.6, 1.0, complex(alpha), 10),
                  label=f"unconditional_transform alpha={alpha:g}", defect=ACCURACY)
               for alpha in (-1e-9, -1e-12, -1e-15, -1e-300)]
        ops.append(Op("unconditional_transform", (-0.8, 1.5, complex(-2.0), 100),
                      label="unconditional_transform theta=-0.8 m=1.5 alpha=-2 t=100", defect=ACCURACY))
        ops += [Op("unconditional_transform", (0.6, 1.0, alpha, 100), label=f"unconditional_transform alpha={alpha}")
                for alpha in (complex(-0.3), complex(-0.3, 0.2))]
        ops += [Op("matrix_mgf", (0.6, 1.0, -0.3, 0.5, t), label=f"matrix_mgf t={t}") for t in (50, 500)]
        ops.append(Op("monte_carlo_mgf", (0.6, 1.0, -0.2, 0.0, 10, 20240901), label="monte_carlo_mgf"))
        ops.append(Op("unconditional_transform", (0.6, 1e200, complex(-0.3), 10),
                      label="unconditional_transform m=1e200", defect=UNDERFLOW))
        for x, defect in ((math.nan, NAN), (math.inf, UNDERFLOW)):
            ops.append(Op("matrix_mgf", (0.6, 1.0, -0.3, x, 10), label=f"matrix_mgf x={x}", defect=defect))
            ops.append(Op("monte_carlo_mgf", (0.6, 1.0, -0.3, x, 10, 1), label=f"monte_carlo_mgf x={x}",
                          defect=defect))
        return ops


WORKLOADS = {cls.name: cls for cls in (Point, Sweep, Oracles)}
