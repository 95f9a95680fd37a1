"""sigma_via_recursion, the cross-check of the telescoped Sigma_t: it runs
matrix_mgf's forward elimination of L L' - 2*alpha*I, at any t >= 0 and at
a complex alpha too, so it shares no root with the closed form it checks.

The hypothesis test is derandomized with a bounded example count, so the
suite stays deterministic.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ar1quad import (ConvergenceError, DomainBoundaryError, DomainError, ModelParams, ParameterError, TransformPoint,
                     matrix_mgf, sigma_via_recursion, spectral, transform)

from util import rel_err

_POINTS = [(0.6, 1.5, 2.0, -0.5), (-0.8, -0.7, -1.0, complex(-0.3, 0.4)), (0.3, 0.0, 0.3, -2.0),
           (0.95, -2.0, 4.0, complex(-1e-30, 1e-31)), (0.05, 1.0, -4.0, complex(-1.0, -0.25))]


def _corrupt_roots(monkeypatch):
    """Bind every name of spectral._roots to a stand-in that raises where
    _roots does but returns wrong roots, weights and log lambda_+."""
    true_roots = spectral._roots

    def corrupted(theta, alpha):
        lam_plus, lam_minus, beta_plus, beta_minus, log_lambda_plus = true_roots(theta, alpha)
        return (3.0 * lam_plus + 1j, 0.5 * lam_minus - 0.25j, beta_plus - 0.125, beta_minus + 0.125,
                log_lambda_plus + 0.75)

    bound = [module for module in list(sys.modules.values()) if getattr(module, "_roots", None) is true_roots]
    assert spectral in bound
    for module in bound:
        monkeypatch.setattr(module, "_roots", corrupted)


@pytest.mark.parametrize("theta, m, x, alpha", _POINTS)
def test_sigma_recursion_reads_no_root(monkeypatch, theta, m, x, alpha):
    # wrong roots change the closed form but not the cross-check: it reads
    # only whether _roots raises, so it is independent of the roots it validates
    params, point = ModelParams(theta, m), TransformPoint(alpha)
    expected = {t: sigma_via_recursion(params, point, x, t) for t in (0, 1, 5, 50)}
    closed = transform(params, point, x, 50).sigma_t
    _corrupt_roots(monkeypatch)
    assert transform(params, point, x, 50).sigma_t != closed  # the stand-in is seen
    for t, value in expected.items():
        assert sigma_via_recursion(params, point, x, t) == value, t


@pytest.mark.parametrize("theta, alpha, error", [(0.6, 0.9, DomainError), (0.5, 0.125, DomainBoundaryError)])
def test_sigma_recursion_keeps_the_domain_contract(theta, alpha, error):
    # the one root solve raises outside D, and on its boundary, as transform does
    for evaluate in (sigma_via_recursion, transform):
        with pytest.raises(error):
            evaluate(ModelParams(theta, 1.0), TransformPoint(alpha), 0.5, 5)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(theta=st.floats(0.05, 0.95), sign=st.sampled_from([1.0, -1.0]), m=st.floats(-2.0, 2.0),
       x=st.floats(-4.0, 4.0), log_r=st.floats(math.log(1e-300), math.log(3.0)),
       phi=st.floats(math.pi / 2, 3 * math.pi / 2), t=st.integers(0, 50))
def test_sigma_recursion_matches_the_closed_form(theta, sign, m, x, log_r, phi, t):
    # alpha = r*e^(i*phi) with Re alpha <= 0: the slit's lower edge, where the
    # closed form itself loses its digits, is never approached
    r = math.exp(log_r)
    alpha = complex(min(r * math.cos(phi), 0.0), r * math.sin(phi))
    params, point = ModelParams(sign * theta, m), TransformPoint(alpha)
    direct = sigma_via_recursion(params, point, x, t)
    assert rel_err(direct, transform(params, point, x, t).sigma_t) <= 1e-12


@pytest.mark.parametrize("alpha", [-0.3, complex(-0.3, 0.2), complex(-1.0, -0.25), -1e-8, complex(-1e-30, 1e-31)])
@pytest.mark.parametrize("theta, m, x", [(0.6, 1.0, 0.5), (-0.8, -0.7, 2.0), (0.95, 1.5, -1.0)])
def test_sigma_recursion_holds_at_long_horizons(theta, m, x, alpha):
    # horizons past the t <= 50 that verify samples
    params, point = ModelParams(theta, m), TransformPoint(alpha)
    for t in (51, 1000, 10**4):
        direct = sigma_via_recursion(params, point, x, t)
        assert rel_err(direct, transform(params, point, x, t).sigma_t) <= 1e-12, t


@pytest.mark.parametrize("m", [1e200, 1e155])
@pytest.mark.parametrize("alpha", [-0.3, complex(-0.3, 0.2)])
def test_sigma_recursion_raises_where_sigma_is_not_finite(m, alpha):
    # Sigma_t ~ m^2 is beyond the double range: a typed error, not inf+nanj or
    # nan+nanj; transform raises there too
    params, point = ModelParams(0.6, m), TransformPoint(alpha)
    for evaluate in (sigma_via_recursion, transform):
        with pytest.raises(ParameterError, match="overflow"):
            evaluate(params, point, 0.5, 10)


def test_a_zero_pivot_is_a_typed_error(monkeypatch):
    # at alpha = 1/2 the first pivot 1 - 2*alpha is exactly 0; the point lies
    # outside D, so the domain check is made to pass it through
    params, point = ModelParams(0.6, 1.0), TransformPoint(0.5)
    with pytest.raises(ConvergenceError):
        matrix_mgf(params, 0.5, 0.4, 3)
    true_roots = spectral._roots
    for module in list(sys.modules.values()):
        if getattr(module, "_roots", None) is true_roots:
            monkeypatch.setattr(module, "_roots", lambda theta, alpha: (0j, 0j, 0j, 0j, 0j, True))
    with pytest.raises(ParameterError, match="Sigma_t"):
        sigma_via_recursion(params, point, 0.4, 3)
