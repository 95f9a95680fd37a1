import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from ar1quad import (
    DomainBoundaryError,
    DomainError,
    ModelParams,
    ParameterError,
    SingularSequenceError,
    SpectralData,
    TransformPoint,
    domain_check,
    roots,
    sequence_ratios,
)
from ar1quad.spectral import _expm1, _roots, _spectral_tuple, raw_psi
from ar1quad.sweep import _array_expm1

from mp_reference import sequence_ref
from util import alpha_grid_in_domain, raw_pi, rel_err


def test_transform_point_mu_alias():
    point = TransformPoint(complex(-0.3, 0.4))
    assert point.mu == complex(0.6, -0.8)
    assert TransformPoint(-1.0).alpha == complex(-1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, complex(-0.3, math.nan), complex(-0.3, -math.inf)])
def test_non_finite_alpha_raises_parameter_error(alpha):
    # no transform to be inside or outside the validity domain of
    with pytest.raises(ParameterError, match="alpha must be finite"):
        TransformPoint(alpha)


def test_roots_at_alpha_zero_are_one_and_theta_squared():
    spectral = roots(ModelParams(0.5), TransformPoint(0.0))
    assert spectral.lambda_plus == 1.0
    assert spectral.lambda_minus == 0.25
    assert spectral.beta_plus == 1.0
    assert spectral.beta_minus == 0.0
    assert spectral.in_domain


def test_roots_quadratic_formula_example():
    # theta=0.5, alpha=-0.5: coefficient 2.25, discriminant 3.25 * 1.25
    spectral = roots(ModelParams(0.5), TransformPoint(-0.5))
    expected_plus = (2.25 + math.sqrt(3.25 * 1.25)) / 2.0
    assert rel_err(spectral.lambda_plus, expected_plus) < 1e-15
    assert abs(spectral.lambda_plus - 2.132782) < 1e-6
    assert abs(spectral.lambda_minus - 0.117218) < 1e-6
    assert rel_err(spectral.lambda_plus * spectral.lambda_minus, 0.25) < 1e-14


def test_root_inequalities_on_negative_axis():
    theta = 0.5
    spectral = roots(ModelParams(theta), TransformPoint(-1.0))
    assert (-2 * -1.0 + (theta + 1) ** 2) > 0 and (-2 * -1.0 + (theta - 1) ** 2) > 0
    assert spectral.lambda_plus.imag == 0 and spectral.lambda_minus.imag == 0
    assert 0 < spectral.lambda_minus.real / theta < 1 < spectral.lambda_plus.real / theta


@pytest.mark.parametrize("theta", [0.5, -0.8, 0.3, 0.95])
def test_vieta_relations_on_grid(theta):
    params = ModelParams(theta)
    for alpha in alpha_grid_in_domain(theta, n_min=40):
        spectral = roots(params, TransformPoint(alpha))
        assert rel_err(spectral.lambda_plus * spectral.lambda_minus, theta * theta) < 1e-12
        assert rel_err(spectral.lambda_plus + spectral.lambda_minus, -2 * alpha + theta**2 + 1) < 1e-12
        assert rel_err(spectral.beta_plus + spectral.beta_minus, 1.0) < 1e-12
        assert abs(spectral.lambda_minus) <= abs(spectral.lambda_plus)


def test_equal_modulus_boundary_raises_and_domain_check_is_false():
    # mu = -(1-theta)^2 zeroes one discriminant factor: repeated root
    params = ModelParams(0.5)
    boundary = TransformPoint(0.125)
    with pytest.raises(DomainBoundaryError):
        roots(params, boundary)
    assert domain_check(params, boundary) is False
    # beyond the boundary the roots are a conjugate pair of equal modulus
    assert domain_check(params, TransformPoint(0.2)) is False


@pytest.mark.parametrize("alpha", [-1e6, -100.0, -3.7, -1.0, -1e-9, 0.0])
def test_domain_contains_the_closed_negative_axis(alpha):
    assert domain_check(ModelParams(0.5), TransformPoint(alpha))


def test_sequence_anchors_at_horizon_zero():
    params = ModelParams(0.5)
    spectral = roots(params, TransformPoint(-0.5))
    seq = sequence_ratios(spectral, params, 0)
    assert seq.r == 0.5
    assert seq.inv_psi == 0.5
    assert abs(seq.log_pi) < 5e-15
    assert abs(raw_pi(spectral, params, 0) - 1.0) < 1e-14
    assert raw_psi(spectral, params, 0) == 1.0
    assert abs(raw_psi(spectral, params, 1) - 2.0) < 1e-14  # 1/theta


def test_ratio_matches_raw_psi_at_small_horizon():
    params = ModelParams(0.5)
    spectral = roots(params, TransformPoint(-0.5))
    seq = sequence_ratios(spectral, params, 5)
    assert rel_err(seq.r, raw_psi(spectral, params, 5) / raw_psi(spectral, params, 6)) < 1e-12
    assert rel_err(seq.inv_psi, 1.0 / raw_psi(spectral, params, 6)) < 1e-12
    assert rel_err(cmath.exp(seq.log_pi), raw_pi(spectral, params, 5)) < 1e-12


def test_ratio_limit_is_theta_over_lambda_plus():
    # fixed point of r = 1/(K - r): the ratio tends to theta/lambda_+
    params = ModelParams(0.5)
    spectral = roots(params, TransformPoint(-0.5))
    limit = 0.5 / spectral.lambda_plus
    seq = sequence_ratios(spectral, params, 200)
    assert abs(seq.r - limit) < 1e-10


def test_ratio_monotone_and_geometric_for_negative_real_alpha():
    params = ModelParams(0.5)
    spectral = roots(params, TransformPoint(-0.5))
    limit = 0.5 / spectral.lambda_plus
    contraction = abs(spectral.lambda_minus / spectral.lambda_plus)
    rs = [sequence_ratios(spectral, params, t).r for t in range(0, 25)]
    for r in rs:
        assert r.imag == 0
        assert 0 < r.real <= 0.5
    errors = [abs(r - limit) for r in rs]
    for a, b in zip(errors, errors[1:]):
        if a > 1e-13:  # above this the iterates sit on the float plateau
            assert b < a  # monotone approach
    for t in range(2, 8):
        ratio = errors[t + 1] / errors[t]
        assert abs(ratio - contraction) < 0.01 * contraction


@pytest.mark.parametrize("theta,alpha", [
    (0.5, -0.5),
    (0.8, -2.0),
    (-0.8, -0.05),
    (0.6, complex(-0.3, 0.4)),
    (0.3, -1e-6),
])
def test_recurrence_and_closed_paths_agree(theta, alpha):
    # the closed form against psi_t evaluated directly in mpmath
    params = ModelParams(theta)
    spectral = roots(params, TransformPoint(alpha))
    for t in [*range(60), 64, 1000, 32768, 32769, 33268, 10**6]:
        ref_r, ref_gap, ref_inv_psi = sequence_ref(theta, alpha, t)
        seq = sequence_ratios(spectral, params, t)
        assert rel_err(seq.r, ref_r) < 1e-12
        assert rel_err(seq.theta_minus_r, ref_gap) < 1e-12 if t else seq.theta_minus_r == 0
        assert abs(seq.inv_psi - ref_inv_psi) <= 1e-12 * max(abs(ref_inv_psi), 1e-280)


@pytest.mark.parametrize("theta,alpha", [(0.5, -0.5), (0.8, -2.0), (0.6, complex(-0.5, 0.3))])
def test_three_term_recurrences_hold_raw(theta, alpha):
    params = ModelParams(theta)
    spectral = roots(params, TransformPoint(alpha))
    cont = (spectral.lambda_plus + spectral.lambda_minus) / theta
    lam_sum = spectral.lambda_plus + spectral.lambda_minus
    theta2 = theta * theta
    for s in range(1, 11):
        psi_next = cont * raw_psi(spectral, params, s) - raw_psi(spectral, params, s - 1)
        assert rel_err(raw_psi(spectral, params, s + 1), psi_next) < 1e-12
        pi_next = lam_sum * raw_pi(spectral, params, s) - theta2 * raw_pi(spectral, params, s - 1)
        assert rel_err(raw_pi(spectral, params, s + 1), pi_next) < 1e-12


def test_wronskian_constant_small_index_strict():
    # |z|^(2s)*eps must stay below the O(1) constant for a strict comparison,
    # which limits the direct check to small s; the acceptance suite covers
    # s <= 20 at the operand scale.
    for theta, alpha in [(0.5, -0.5), (0.6, -0.05), (-0.8, -0.3)]:
        params = ModelParams(theta)
        spectral = roots(params, TransformPoint(alpha))
        z = spectral.lambda_plus / theta
        target = spectral.beta_plus * spectral.beta_minus * (z - 1 / z) ** 2
        for s in range(1, 5):
            lhs = raw_psi(spectral, params, s + 1) * raw_psi(spectral, params, s - 1) - raw_psi(
                spectral, params, s
            ) ** 2
            assert rel_err(lhs, target) < 1e-10


def test_public_roots_hold_the_bits_of_the_stage_tuple():
    # the record of roots() and the tuple the evaluation carries come from
    # one text: every field, log_lambda_plus included, has the same bits
    # (repr tells -0.0 from 0.0)
    rng = np.random.default_rng(20261018)
    alphas = [0j, complex(-0.0), complex(-1e-300), complex(-5e-324), complex(5e-324), complex(-1e-300, 1e-300),
              complex(-1e-15), complex(-0.3, 0.4), complex(0.9), complex(2.0)]
    alphas += [complex(re) for re in rng.uniform(-5.0, 1.0, 20)]
    alphas += [complex(re, im) for re, im in zip(rng.uniform(-5.0, 1.0, 20), rng.uniform(-2.0, 2.0, 20))]
    thetas = [0.6, -0.8, 0.95, -0.05, *rng.uniform(-0.99, 0.99, 6).tolist()]
    compared = 0
    for theta in thetas:
        for alpha in alphas:
            try:
                stage = _roots(theta, alpha)
            except DomainBoundaryError:
                with pytest.raises(DomainBoundaryError):
                    roots(ModelParams(theta), TransformPoint(alpha))
                continue
            assert repr(_spectral_tuple(roots(ModelParams(theta), TransformPoint(alpha)))) == repr(stage)
            assert type(stage[5]) is bool
            compared += 1
    assert compared >= 0.9 * len(thetas) * len(alphas)


def test_out_of_domain_sequence_request_raises():
    params = ModelParams(0.5)
    spectral = SpectralData(
        lambda_plus=complex(0.4), lambda_minus=complex(0.625),
        beta_plus=complex(1.0), beta_minus=complex(0.0), in_domain=False,
    )
    with pytest.raises(DomainError):
        sequence_ratios(spectral, params, 3)


def test_vanishing_pi_raises_singular_sequence():
    # crafted roots put a zero of pi exactly at the requested index t = 2:
    # w = 1/2, pi_0 = beta_+*lambda_+ + beta_-*lambda_- = -1/3 + 4/3 = 1 and
    # beta_+ + beta_- = 1, so E_2 = 1 + beta_-*lambda_-*(w^2 - 1) = 0
    params = ModelParams(0.5)
    crafted = SpectralData(
        lambda_plus=complex(7.0 / 3.0), lambda_minus=complex(7.0 / 6.0),
        beta_plus=complex(-1.0 / 7.0), beta_minus=complex(8.0 / 7.0), in_domain=True,
    )
    assert raw_pi(crafted, params, 0) == 1 and raw_pi(crafted, params, 2) == 0
    assert sequence_ratios(crafted, params, 0).log_pi == 0
    assert cmath.isfinite(sequence_ratios(crafted, params, 1).log_pi)
    with pytest.raises(SingularSequenceError, match="vanish"):
        sequence_ratios(crafted, params, 2)


def test_vanishing_d_t_beyond_horizon_zero_raises_singular_sequence():
    # w = lambda_-/lambda_+ = 1/2 with pi_0 = beta_+*lambda_+ + beta_-*lambda_- = 1
    # and beta_+ + beta_- = 1: E_1 = 1 + beta_-*lambda_-*(w - 1) = D_1*lambda_+ = 0,
    # so pi_1 vanishes (a zero of pi) and so does psi_2; t = 0 keeps its anchors
    params = ModelParams(0.5)
    crafted = SpectralData(
        lambda_plus=complex(3.0), lambda_minus=complex(1.5),
        beta_plus=complex(-1.0 / 3.0), beta_minus=complex(4.0 / 3.0), in_domain=True,
    )
    assert raw_pi(crafted, params, 0) == 1 and raw_pi(crafted, params, 1) == 0
    at_zero = sequence_ratios(crafted, params, 0)
    assert at_zero.log_pi == 0 and at_zero.inv_psi == at_zero.r == 0.5 and at_zero.theta_minus_r == 0
    with pytest.raises(SingularSequenceError, match="vanish"):
        sequence_ratios(crafted, params, 1)


def test_raw_evaluation_index_cap():
    params = ModelParams(0.5)
    spectral = roots(params, TransformPoint(-0.5))
    with pytest.raises(ValueError):
        raw_psi(spectral, params, 52)
    with pytest.raises(ValueError):
        raw_pi(spectral, params, 52)


def test_negative_horizon_rejected():
    params = ModelParams(0.5)
    spectral = roots(params, TransformPoint(-0.5))
    with pytest.raises(ValueError):
        sequence_ratios(spectral, params, -1)


@pytest.mark.parametrize("y", [0.1, 1.5, 2.2, 2.5, 3.0, -0.7])
def test_expm1_is_exactly_minus_one_once_exp_underflows(y):
    # w^t - 1 for a complex w at a large t: e^x no longer moves 1, so the
    # real part is exactly -1 (as for a real w), not -1 give or take an ulp
    z = complex(-800.0, y)
    assert _expm1(z).real == -1.0
    assert _array_expm1(np.array([z, complex(-40.0, y)])).real.tolist() == [-1.0, -1.0]


@pytest.mark.parametrize("x", [-800.0, -40.0, -1.5, -1.0, -0.999, -0.5, -1e-8, 0.3])
@pytest.mark.parametrize("y", [1e-9, 0.7, 2.5, -3.0])
def test_expm1_keeps_relative_precision_on_both_sides_of_re_z_minus_one(x, y):
    z = complex(x, y)
    with mpmath.workdps(40):
        exact = complex(mpmath.expm1(mpmath.mpc(x, y)))
    for value in _expm1(z), complex(_array_expm1(np.array([z, complex(-5.0, y), complex(0.1, y)]))[0]):
        assert abs(value - exact) <= 4 * sys.float_info.epsilon * abs(exact)
