import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ar1quad import (
    ModelParams,
    ParameterError,
    TransformPoint,
    conditional_covariance,
    conditional_mean,
    simulate_conditional,
)
from ar1quad.model import check_horizon


@pytest.mark.parametrize("theta", [0.0, 1.0, -1.0, 1.5, -2.0, float("nan")])
def test_invalid_theta_rejected(theta):
    with pytest.raises(ParameterError):
        ModelParams(theta)


def test_nonfinite_m_rejected():
    with pytest.raises(ParameterError):
        ModelParams(0.5, float("inf"))


def test_model_params_keeps_the_dataclass_contract():
    params = ModelParams(theta=0.6, m=1.0)
    assert (params.theta, params.m) == (0.6, 1.0)
    assert ModelParams(0.6).m == 0.0 and ModelParams(theta=-0.5).m == 0.0
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["theta", "m"]
    assert repr(params) == "ModelParams(theta=0.6, m=1.0)"
    assert params == ModelParams(0.6, 1.0) and hash(params) == hash(ModelParams(0.6, 1.0))
    assert params != ModelParams(0.6, 2.0) and params != ModelParams(-0.6, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.theta = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.m = 2.0
    assert dataclasses.replace(params, m=2.0) == ModelParams(0.6, 2.0)
    # replace goes through __init__, so it validates as the constructor does
    with pytest.raises(ParameterError, match=r"^need 0 < \|theta\| < 1, got theta=1\.5$"):
        dataclasses.replace(params, theta=1.5)
    with pytest.raises(ParameterError, match=r"^m must be finite, got nan$"):
        dataclasses.replace(params, m=math.nan)


def test_transform_point_keeps_the_dataclass_contract():
    point = TransformPoint(alpha=-0.3)
    assert type(point.alpha) is complex and point.alpha == complex(-0.3)
    assert [f.name for f in dataclasses.fields(TransformPoint)] == ["alpha"]
    assert repr(point) == "TransformPoint(alpha=(-0.3+0j))"
    assert point == TransformPoint(complex(-0.3)) and hash(point) == hash(TransformPoint(complex(-0.3)))
    assert point != TransformPoint(complex(-0.3, 0.1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.alpha = 0.5
    assert dataclasses.replace(point, alpha=-1) == TransformPoint(-1.0)
    with pytest.raises(ParameterError, match=r"^alpha must be finite, got \(nan\+0j\)$"):
        dataclasses.replace(point, alpha=math.nan)
    with pytest.raises(ParameterError, match=r"^alpha must be finite, got \(-0\.3\+infj\)$"):
        TransformPoint(complex(-0.3, math.inf))


@pytest.mark.parametrize("t", [0, 7, 10**6, np.int64(12), np.uint8(3), True])
def test_check_horizon_accepts_integers(t):
    horizon = check_horizon(t)
    assert type(horizon) is int and horizon == t


@pytest.mark.parametrize("t, message", [(-1, "must be >= 0, got -1"), (np.int64(-5), "must be >= 0, got -5"),
                                        (10.5, "must be an integer, got 10.5"), (10.0, "must be an integer, got 10.0"),
                                        (np.float64(3.0), "must be an integer"), ("10", "must be an integer, got '10'"),
                                        (None, "must be an integer, got None"), (Fraction(21, 2), "must be an integer")])
def test_check_horizon_rejects_other_values(t, message):
    with pytest.raises(ValueError, match="^horizon t " + message):
        check_horizon(t)


def test_horizon_zero_path_is_start_only():
    path = simulate_conditional(ModelParams(0.5), 1.0, 0, seed=3)
    assert path.values.tolist() == [1.0]
    assert path.x0 == 1.0


def test_path_satisfies_defining_recursion():
    params = ModelParams(0.5, 2.0)
    seed, t = 99, 3
    path = simulate_conditional(params, 2.0, t, seed)
    innovations = np.random.default_rng(seed).standard_normal(t)
    assert path.values[0] == 2.0
    for s in range(1, t + 1):
        step = params.theta * (path.values[s - 1] - params.m) + innovations[s - 1]
        assert abs((path.values[s] - params.m) - step) < 1e-12


def test_same_seed_is_bit_reproducible():
    params = ModelParams(-0.7, 1.0)
    a = simulate_conditional(params, 0.2, 200, seed=42)
    b = simulate_conditional(params, 0.2, 200, seed=42)
    assert np.array_equal(a.values, b.values)
    c = simulate_conditional(params, 0.2, 200, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_long_path_mean_near_stationary_level():
    # law of large numbers against the stationary mean m
    params = ModelParams(0.6, 1.0)
    t = 10_000
    path = simulate_conditional(params, 0.0, t, seed=2024)
    values = path.values
    assert abs(values.mean() - 1.0) <= 4.0 * values.std() / math.sqrt(t)


def test_negative_horizon_rejected():
    with pytest.raises(ValueError):
        simulate_conditional(ModelParams(0.5), 0.0, -1, seed=0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_start_rejected(x):
    with pytest.raises(ParameterError):
        conditional_mean(ModelParams(0.5, 1.0), x, 3)
    with pytest.raises(ParameterError):
        simulate_conditional(ModelParams(0.5, 1.0), x, 3, seed=0)


def test_conditional_mean_anchors():
    assert conditional_mean(ModelParams(0.9, -3.0), 1.7, 0) == 1.7
    assert conditional_mean(ModelParams(0.5, 2.0), 0.0, 1) == 1.0


def test_conditional_mean_matches_iterated_recursion():
    params = ModelParams(0.9, 1.0)
    level = 5.0
    m_s = level
    for s in range(1, 21):
        m_s = params.theta * m_s + params.m * (1 - params.theta)
    closed = conditional_mean(params, level, 20)
    assert abs(closed - (1.0 + 0.9**20 * 4.0)) < 1e-14
    assert abs(closed - m_s) < 1e-14


@pytest.mark.parametrize("theta", [0.5, -0.75, 0.9, 0.3])
@pytest.mark.parametrize("m,x", [(0.0, 1.0), (2.0, -0.5), (-1.5, 3.0)])
def test_conditional_mean_exact_against_rational_recursion(theta, m, x):
    # Fraction arithmetic proves the closed form solves the recursion exactly;
    # the float path must sit within a few ulp of the exact value.
    ft, fm, fx = Fraction(theta), Fraction(m), Fraction(x)
    exact = fx
    for s in range(101):
        value = conditional_mean(ModelParams(theta, m), x, s)
        target = fm + ft**s * (fx - fm)
        assert exact == target
        # absolute error scales with the summands, which may cancel
        scale = abs(m) + abs(theta**s * (x - m))
        assert abs(value - float(target)) <= 8 * scale * 2.2e-16 + 1e-300
        exact = ft * exact + fm * (1 - ft)


def test_covariance_one_step_is_unit_variance():
    assert conditional_covariance(ModelParams(0.5), 1).tolist() == [[1.0]]


def test_covariance_two_step_example():
    cov = conditional_covariance(ModelParams(0.5), 2)
    assert np.allclose(cov, [[1.0, 0.5], [0.5, 1.25]], rtol=1e-15, atol=0)


def test_covariance_empty_at_horizon_zero():
    assert conditional_covariance(ModelParams(0.5), 0).shape == (0, 0)


@pytest.mark.parametrize("theta", [0.5, -0.8, 0.95, -0.3])
@pytest.mark.parametrize("t", [1, 3, 10, 40])
def test_covariance_symmetric_positive_definite(theta, t):
    cov = conditional_covariance(ModelParams(theta), t)
    assert np.array_equal(cov, cov.T)
    np.linalg.cholesky(cov)  # raises if not positive definite


# at |theta| = 1 - eps/2, 1 - theta^(2s) is nearly flat in s
@pytest.mark.parametrize("theta", [0.6, -0.8, 0.05, 0.95, -0.3, 0.9999999999999999, -0.9999999999999999])
@pytest.mark.parametrize("t", [1, 7, 50, 300])
def test_covariance_equals_entrywise_formula_bit_for_bit(theta, t):
    # every entry raises theta to its own exponents; the table must not change a bit
    idx = np.arange(1, t + 1)
    lag = np.abs(idx[:, None] - idx[None, :])
    low = np.minimum(idx[:, None], idx[None, :])
    expected = theta**lag * (1.0 - theta ** (2 * low)) / (1.0 - theta * theta)
    assert np.array_equal(conditional_covariance(ModelParams(theta), t), expected)


def test_covariance_matches_sample_covariance():
    params = ModelParams(0.7, 1.0)
    t, n = 4, 20_000
    paths = np.empty((n, t))
    for i in range(n):
        paths[i] = simulate_conditional(params, 0.5, t, seed=10_000 + i).values[1:]
    sample = np.cov(paths, rowvar=False)
    expected = conditional_covariance(params, t)
    # SE of a Gaussian covariance entry: sqrt((S_ii S_jj + S_ij^2) / n)
    se = np.sqrt((np.outer(np.diag(expected), np.diag(expected)) + expected**2) / n)
    assert np.all(np.abs(sample - expected) <= 5.0 * se)
