"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import cmath
import math
import time

from ar1quad import (
    ModelParams,
    TransformPoint,
    constants,
    ergodic_constants,
    fit_convergence_rate,
    matrix_mgf,
    monte_carlo_mgf,
    normalized_transform,
    roots,
    sequence_ratios,
    sigma_via_recursion,
    transform,
)
from ar1quad.spectral import raw_psi

from util import alpha_grid_in_domain, gauss_hermite_nodes, rel_err, worse

THETA_GRID = (-0.8, -0.3, 0.3, 0.6, 0.8)
M_GRID = (0.0, 1.5)
X_GRID = (-1.0, 0.0, 2.0)
ALPHA_GRID = (-0.05, -0.5, -2.0)
T_GRID = (1, 5, 50)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_vs_matrix_oracle():
    worst = 0.0
    for theta in THETA_GRID:
        for m in M_GRID:
            params = ModelParams(theta, m)
            for x in X_GRID:
                for alpha in ALPHA_GRID:
                    point = TransformPoint(alpha)
                    for t in T_GRID:
                        closed = transform(params, point, x, t).value.real
                        reference = matrix_mgf(params, alpha, x, t).value
                        worst = worse(worst, abs(closed - reference) / reference)
    _report(
        "criterion 1 (matrix oracle agreement)",
        worst <= 1e-8,
        f"max relative error {worst:.3e} over 270 grid points, tolerance 1e-8",
    )


def test_criterion_2_closed_form_vs_monte_carlo():
    params = ModelParams(0.6, 1.0)
    estimate = monte_carlo_mgf(params, -0.2, 0.0, 10, 1_000_000, seed=12345)
    closed = transform(params, TransformPoint(-0.2), 0.0, 10).value.real
    gap = abs(closed - estimate.value)
    _report(
        "criterion 2 (Monte Carlo agreement)",
        gap <= 4.0 * estimate.stderr,
        f"|closed - estimate| = {gap:.3e} vs 4*stderr = {4 * estimate.stderr:.3e} "
        f"(n=10^6, seed=12345)",
    )


def test_criterion_3_exactness_anchors():
    worst_l0 = 0.0
    worst_anchor = 0.0
    exact_ok = True
    for theta in THETA_GRID:
        params = ModelParams(theta, 0.7)
        at_zero = transform(params, TransformPoint(0.0), 1.3, 9)
        exact_ok &= at_zero.value == 1.0 and at_zero.log_value == 0.0
        for alpha in (-0.05, -0.5, -2.0, complex(-0.4, 0.3)):
            point = TransformPoint(alpha)
            spectral = roots(params, point)
            seq = sequence_ratios(spectral, params, 0)
            exact_ok &= seq.r == theta and seq.inv_psi == theta
            worst_anchor = worse(worst_anchor, abs(seq.log_pi))
            for x in X_GRID:
                value = transform(params, point, x, 0).value
                worst_l0 = worse(worst_l0, rel_err(value, cmath.exp(alpha * x * x)))
    ok = exact_ok and worst_l0 <= 1e-15 and worst_anchor <= 5e-15
    _report(
        "criterion 3 (exactness anchors)",
        ok,
        f"L_0 rel err {worst_l0:.2e} (<=1e-15), |log pi_0| {worst_anchor:.2e} (<=5e-15), "
        f"alpha=0 and t=0 anchors exact: {exact_ok}",
    )


def test_criterion_4_recursion_equals_telescoped_sigma():
    worst = 0.0
    for theta in THETA_GRID:
        for m in M_GRID:
            params = ModelParams(theta, m)
            for x in X_GRID:
                for alpha in ALPHA_GRID:
                    point = TransformPoint(alpha)
                    for t in T_GRID:  # all <= 50
                        direct = sigma_via_recursion(params, point, x, t)
                        closed = transform(params, point, x, t).sigma_t
                        worst = worse(worst, abs(direct - closed) / max(abs(closed), 1e-30))
    _report(
        "criterion 4 (derivation equivalence)",
        worst <= 1e-10,
        f"max relative gap {worst:.3e} between recursion and closed Sigma_t, tolerance 1e-10",
    )


def test_criterion_5_multiplicative_ergodicity_rate():
    params = ModelParams(0.6, 1.0)
    point = TransformPoint(-0.3)
    fit = fit_convergence_rate(params, point, 0.5, t_start=20, t_end=80)
    expected = ergodic_constants(params, point, 0.5).rate
    deviation = abs(fit.ratio - expected) / expected
    _report(
        "criterion 5 (geometric convergence rate)",
        deviation <= 0.05,
        f"fitted {fit.ratio:.6f} vs theta/lambda_+ {expected:.6f}, "
        f"deviation {deviation:.2%} (<=5%), {fit.n_points} points",
    )


def test_criterion_6_spectral_identity_suite():
    theta = 0.6
    params = ModelParams(theta)
    points = alpha_grid_in_domain(theta, n_min=50)[:60]
    worst_identity = 0.0
    worst_wronskian = 0.0
    for alpha in points:
        point = TransformPoint(alpha)
        spectral = roots(params, point)
        mu = point.mu
        z = spectral.lambda_plus / theta
        zi = spectral.lambda_minus / theta
        theta2 = theta * theta
        identity_pairs = [
            (spectral.lambda_plus * spectral.lambda_minus, complex(theta2)),
            (spectral.lambda_plus + spectral.lambda_minus, -2 * alpha + theta2 + 1),
            (z + zi, (mu + theta2 + 1) / theta),
            ((z - zi) ** 2, (mu + (1 - theta) ** 2) * (mu + (1 + theta) ** 2) / theta2),
            (z + zi - 2, (mu + (1 - theta) ** 2) / theta),
            (z + zi + 2, (mu + (1 + theta) ** 2) / theta),
            (
                spectral.beta_plus * spectral.beta_minus,
                mu / ((mu + (1 - theta) ** 2) * (mu + (1 + theta) ** 2)),
            ),
        ]
        worst_identity = worse(worst_identity, *(rel_err(a, b) for a, b in identity_pairs))
        target = spectral.beta_plus * spectral.beta_minus * (z - 1 / z) ** 2
        psi = [raw_psi(spectral, params, s) for s in range(22)]
        for s in range(1, 21):
            outer = psi[s + 1] * psi[s - 1]
            inner = psi[s] ** 2
            # difference of O(|z|^2s) products: measured at operand scale
            scale = max(abs(outer), abs(inner), abs(target))
            worst_wronskian = worse(worst_wronskian, abs((outer - inner) - target) / scale)
    ok = worst_identity <= 1e-12 and worst_wronskian <= 1e-10
    _report(
        "criterion 6 (spectral identity suite)",
        ok,
        f"{len(points)} alpha points (incl. complex, |Im| <= 0.5): identities "
        f"{worst_identity:.2e} (<=1e-12), Wronskian {worst_wronskian:.2e} (<=1e-10)",
    )


def test_criterion_7_tower_property():
    cases = [(0.5, 1.0, 0.3, -0.25), (0.6, 0.0, 1.0, -0.5), (-0.7, 1.5, -0.5, -1.0)]
    worst = 0.0
    for theta, m, x, alpha in cases:
        params = ModelParams(theta, m)
        point = TransformPoint(alpha)
        nodes, weights = gauss_hermite_nodes(m + theta * (x - m), 1.0, 80)
        for t in (1, 2, 5):
            integral = sum(
                w * transform(params, point, float(y), t - 1).value
                for y, w in zip(nodes, weights)
            )
            lhs = transform(params, point, x, t).value
            worst = worse(worst, rel_err(lhs, cmath.exp(alpha * x * x) * integral))
    _report(
        "criterion 7 (tower property)",
        worst <= 1e-6,
        f"max relative error {worst:.3e} across 9 cases, tolerance 1e-6",
    )


def test_criterion_8_scale_to_millions_of_steps():
    params = ModelParams(0.6, 1.0)
    point = TransformPoint(-0.3)
    horizon = 10**6
    transform(params, point, 0.5, horizon)  # warm-up
    elapsed = math.inf
    for _ in range(3):
        start = time.perf_counter()
        tv = transform(params, point, 0.5, horizon)
        norm = normalized_transform(params, point, 0.5, horizon)
        elapsed = min(elapsed, time.perf_counter() - start)
    finite = cmath.isfinite(tv.log_value) and not cmath.isnan(norm)
    limit = ergodic_constants(params, point, 0.5).f_check
    gap = rel_err(norm, limit)
    ok = finite and elapsed < 0.1 and gap <= 1e-12
    _report(
        "criterion 8 (t = 10^6 scale)",
        ok,
        f"log L finite: {finite}, {elapsed * 1e3:.2f} ms (<100 ms), "
        f"normalized vs f_check rel err {gap:.2e} (<=1e-12)",
    )


def test_criterion_9_zero_mean_reduction():
    worst_b = 0.0
    exact_ok = True
    for theta in THETA_GRID:
        params = ModelParams(theta, 0.0)
        for alpha in (-0.05, -0.5, -2.0, complex(-0.4, 0.3)):
            point = TransformPoint(alpha)
            for x in X_GRID:
                cf = constants(params, point, x)
                exact_ok &= cf.nu == 0 and cf.A == 0 and cf.C == 0
                expected_b = theta * x * x / (-2.0 * alpha)
                if x != 0:
                    worst_b = worse(worst_b, rel_err(cf.B, expected_b))
                else:
                    exact_ok &= cf.B == 0
    ok = exact_ok and worst_b <= 1e-15
    _report(
        "criterion 9 (zero-mean reduction)",
        ok,
        f"nu = A = C = 0 exactly: {exact_ok}; B vs theta*x^2/(-2 alpha) "
        f"rel err {worst_b:.2e} (<=1e-15)",
    )
