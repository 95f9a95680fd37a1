import math
import os
import random
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import ar1quad
from ar1quad import (
    ConvergenceError,
    DomainError,
    ModelParams,
    ParameterError,
    TransformPoint,
    domain_check,
    matrix_mgf,
    monte_carlo_mgf,
    transform,
    unconditional_transform,
)
from ar1quad import oracle
from ar1quad.oracle import _bridge, _eliminate, _log_mgf

from mp_reference import bridge_ref, log_transform_ref, tridiagonal_det_ref
from util import conditional_covariance, gauss_hermite_nodes, rel_err


def test_matrix_horizon_zero_is_gaussian_factor():
    res = matrix_mgf(ModelParams(0.5), -0.8, 1.5, 0)
    assert res.value == math.exp(-0.8 * 1.5 * 1.5)
    assert res.method == "matrix"
    assert res.stderr is None and res.n_samples is None


def test_matrix_one_step_hand_value():
    # Sigma = [[1]], mu = [0]: det(1 + 1)^(-1/2) = 2^(-1/2)
    res = matrix_mgf(ModelParams(0.5, 0.0), -0.5, 0.0, 1)
    assert rel_err(res.value, 2**-0.5) < 1e-15
    assert abs(res.value - 0.7071068) < 1e-7


def test_matrix_matches_closed_form_at_reference_point():
    params = ModelParams(0.6, 1.0)
    closed = transform(params, TransformPoint(-0.2), 0.0, 10).value.real
    assert rel_err(closed, matrix_mgf(params, -0.2, 0.0, 10).value) < 1e-8


def test_matrix_has_no_horizon_cap():
    # the O(t) elimination evaluates past the t = 2000 budget of the old dense factorization
    params = ModelParams(0.5, 1.0)
    for alpha, t in ((-1e-3, 2001), (-1e-4, 10**4)):
        closed = transform(params, TransformPoint(alpha), 0.3, t).value.real
        assert rel_err(matrix_mgf(params, alpha, 0.3, t).value, closed) <= 1e-12


def test_matrix_divergent_alpha_raises():
    with pytest.raises(ConvergenceError):
        matrix_mgf(ModelParams(0.6), 10.0, 0.0, 5)


def test_matrix_theta_sign_invariance():
    # with m = 0, x = 0 the quadratic form depends on theta only via theta^2
    for t in (1, 5, 30):
        plus = matrix_mgf(ModelParams(0.8, 0.0), -0.7, 0.0, t).value
        minus = matrix_mgf(ModelParams(-0.8, 0.0), -0.7, 0.0, t).value
        assert rel_err(plus, minus) < 1e-10


def _dense_conditional_mgf(params, alpha, x, t):
    # the identity through an LU log-determinant and a dense solve
    cov = conditional_covariance(params, t)
    mean = params.m + params.theta ** np.arange(1, t + 1) * (x - params.m)
    mat = np.eye(t) - 2.0 * alpha * cov
    sign, log_det = np.linalg.slogdet(mat)
    assert sign > 0
    return math.exp(alpha * x * x - 0.5 * log_det + alpha * mean @ np.linalg.solve(mat, mean))


def _divergence_point(params, t):
    # I - 2*alpha*Sigma is positive definite iff alpha < 1/(2*lambda_max(Sigma))
    return 0.5 / np.linalg.eigvalsh(conditional_covariance(params, t))[-1]


@pytest.mark.parametrize("t", [1, 50, 300, 500])
@pytest.mark.parametrize("theta, m, x", [(0.6, 1.0, 0.5), (-0.8, 1.5, -2.0), (0.95, -0.7, 3.0)])
def test_matrix_matches_dense_reference(theta, m, x, t):
    params = ModelParams(theta, m)
    # alpha < 0 with |alpha|*E[S_t] at most ~50, so exp's conditioning stays below 1e-12
    v = 1.0 / (1.0 - theta * theta)
    for alpha in (-1e-6, -min(0.3, 50.0 / ((t + 1) * (v + m * m))), 0.5 * _divergence_point(params, t)):
        value = matrix_mgf(params, alpha, x, t).value
        assert rel_err(value, _dense_conditional_mgf(params, alpha, x, t)) <= 1e-12, alpha


@pytest.mark.parametrize("t", [1, 50, 300, 500])
@pytest.mark.parametrize("theta", [0.6, -0.8, 0.95])
def test_matrix_at_the_divergence_point(theta, t):
    # a zero mean keeps the value finite as alpha nears the divergence point
    params = ModelParams(theta, 0.0)
    pole = _divergence_point(params, t)
    alpha = 0.999999 * pole
    mat = np.eye(t) - 2.0 * alpha * conditional_covariance(params, t)
    # the smallest eigenvalue of mat is ~1e-6 of its largest, so log det moves by
    # ~eps*cond(mat) ~ 2e-10 under one rounding per entry; the reference is the
    # exact value at these doubles theta and alpha (a dense LU of mat itself is
    # up to 1.2x eps*cond(mat) off it)
    tol = max(1e-12, 2.0 * np.finfo(float).eps * np.linalg.cond(mat))
    reference = float(tridiagonal_det_ref(theta, alpha, t) ** -0.5)
    assert rel_err(matrix_mgf(params, alpha, 0.0, t).value, reference) <= tol
    with pytest.raises(ConvergenceError):
        matrix_mgf(params, 1.000001 * pole, 0.0, t)
    with pytest.raises(ConvergenceError):
        matrix_mgf(ModelParams(theta, 1.5), 1.000001 * pole, 0.7, t)


def test_matrix_matches_the_high_precision_reference():
    # seeded draws up to t = 10^4 at real alpha < 0 with |alpha|*E[S_t] <= 600,
    # so that log L_t >= -600 (Jensen) and the value is a normal double
    rng = random.Random(20261019)
    for _ in range(120):
        theta, m, x = rng.uniform(-0.99, 0.99), rng.uniform(-3.0, 3.0), rng.uniform(-4.0, 4.0)
        t = int(10 ** rng.uniform(0.0, 4.0))
        mean_square = max(x * x, m * m) + 1.0 / (1.0 - theta * theta)
        alpha = -(10 ** rng.uniform(-12.0, 0.0)) * min(1.0, 600.0 / (x * x + t * mean_square))
        log_ref = log_transform_ref(theta, m, x, alpha, t).real
        log_value = math.log(matrix_mgf(ModelParams(theta, m), alpha, x, t).value)
        assert abs(log_value - log_ref) <= 1e-14 * max(1.0, abs(log_ref)), (theta, m, x, alpha, t)


def test_elimination_log_mgf_at_complex_alpha_matches_the_high_precision_reference():
    # _log_mgf, the log L_t that verify's matrix oracle check compares, at
    # complex alpha: seeded draws up to t = 10^4, about 30% of them with
    # Re alpha > 0 inside D, there at |Im alpha| >= 0.05.  Nearer the slit a
    # pivot near 0 costs the elimination digits the closed form keeps:
    # 1.9e-14 against 8.7e-17 at alpha = 0.496+0.0029i, t = 2.  The log det
    # sums principal logs of the pivots and the reference takes the closed
    # form's branch, so a gap of 2*pi*i fails here.
    rng = random.Random(20261020)
    draws, positive = 0, 0
    while draws < 150:
        theta = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.95)
        m, x = rng.uniform(-2.0, 2.0), rng.uniform(-4.0, 4.0)
        t = int(10 ** rng.uniform(0.0, 4.0))
        right = rng.random() < 0.3
        re = rng.uniform(0.0, 2.0) if right else -(10 ** rng.uniform(-3.0, 0.5))
        alpha = complex(re, rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-1.3 if right else -3.0, 0.5))
        params, point = ModelParams(theta, m), TransformPoint(alpha)
        if not domain_check(params, point):
            continue
        draws += 1
        positive += alpha.real > 0
        log_ref = log_transform_ref(theta, m, x, alpha, t)
        log_value = _log_mgf(point.alpha, x, _eliminate(params, point.alpha, x, t))
        assert abs(log_value - log_ref) <= 1e-14 * max(1.0, abs(log_ref)), (theta, m, x, alpha, t)
    assert positive >= 30


def test_matrix_huge_level_gives_the_limits():
    # mu' (I - 2*alpha*Sigma)^(-1) mu ~ 1e400 overflows; the scaled mean does not
    params = ModelParams(0.6, 1e200)
    assert matrix_mgf(params, 0.0, 0.5, 10).value == 1.0
    assert matrix_mgf(params, -0.3, 0.5, 10).value == 0.0
    assert matrix_mgf(params, -1e-300, 0.5, 10).value == 0.0
    with pytest.raises(ParameterError, match="overflow"):
        matrix_mgf(params, 1e-300, 0.5, 10)


def test_matrix_overflowing_value_raises_parameter_error():
    # just inside the divergence point the true value exceeds the double range
    params = ModelParams(0.6, 1.5)
    alpha = 0.999 * _divergence_point(params, 20)
    with pytest.raises(ParameterError, match="overflow"):
        matrix_mgf(params, alpha, 0.7, 20)


@pytest.mark.parametrize("m, x", [(1e308, -1e308), (-1.5e308, 1e308)])
def test_matrix_overflowing_mean_raises_parameter_error(m, x):
    with pytest.raises(ParameterError, match="overflow"):
        matrix_mgf(ModelParams(0.6, m), -0.3, x, 3)


def test_matrix_terms_beyond_the_double_range():
    # -2*alpha = inf makes every pivot infinite: det B = inf and the value is 0,
    # not the NaN of inf/inf in the pivot update; +2*alpha = inf is past the pole
    params = ModelParams(0.6, 1.0)
    assert matrix_mgf(params, -1e308, 0.5, 5).value == 0.0
    with pytest.raises(ConvergenceError):
        matrix_mgf(params, 1e308, 0.5, 5)
    # alpha*x^2 and the quadratic form are finite, their sum is not: 0, not fsum's OverflowError
    assert matrix_mgf(ModelParams(0.6, 0.0), -1.0, 1.3e154, 1).value == 0.0
    with pytest.raises(ParameterError, match="overflow"):
        matrix_mgf(ModelParams(0.6, 0.0), 0.1, 1.3e154, 1)


def test_monte_carlo_deterministic_given_seed():
    params = ModelParams(0.6, 1.0)
    a = monte_carlo_mgf(params, -0.2, 0.0, 5, 10_000, seed=7)
    b = monte_carlo_mgf(params, -0.2, 0.0, 5, 10_000, seed=7)
    assert a == b
    assert a.method == "monte_carlo" and a.n_samples == 10_000


def plain_path_blocks(theta, m, alpha, x, t, n, seed):
    """The plain estimator the conditioned one replaced, on the same blocks and
    streams: every step X_1..X_t draws one standard_normal, and each path's
    estimate is exp(alpha*S_t); the reference for its standard error."""
    k = -(-n // 2**16)
    edges = [n * b // k for b in range(k + 1)]
    total = np.empty(n)
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(k)):
        rng = np.random.Generator(np.random.SFC64(stream))
        size = edges[b + 1] - edges[b]
        dev = np.full(size, x - m)
        block_total = np.full(size, x * x)
        for _ in range(t):
            dev = theta * dev + rng.standard_normal(size)
            block_total += (dev + m) ** 2
        total[edges[b]:edges[b + 1]] = block_total
    values = np.exp(alpha * total)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))


def replay_blocks(theta, m, alpha, x, t, n, seed):
    """The seed contract, serially: K = ceil(n / 2**16) blocks with edges n*b//K, block b
    drawing, from Generator(SFC64(SeedSequence(seed).spawn(K)[b])), one standard_normal
    vector per skeleton step X_4, X_8, ..., X_{4*(t//4)}, in that order, and nothing
    else.  The bridges between skeleton points and the tail after the last one are
    added exactly, from _bridge's coefficients: the terms in P_0 = x - m and every m^2
    are path-free, and each P_j = X_{4j} - m adds P_j*(A*P_j + B + q3*P_{j-1}).  At
    t < 4 the one exact estimate every path shares, with standard error 0."""
    k, tail = divmod(t, 4)
    c_t = q0_t = q1_t = q2_t = c = q0 = q1 = q2 = q3 = 0.0
    if tail:
        c_t, q0_t, q1_t, q2_t, _ = _bridge(theta, m, alpha, tail, False)
    if k:
        c, q0, q1, q2, q3 = _bridge(theta, m, alpha, 3, True)
    first = x - m
    q1_first, q2_first = (q1, q2) if k else (q1_t, q2_t)
    fixed = x * x + q0_t + k * (q0 + m * m) + first * (q2_first * first + q1_first)
    log_factor = c_t + k * c
    if not k:
        return math.exp(alpha * fixed + log_factor), 0.0
    theta_sq = theta * theta
    theta_4, sigma = theta_sq * theta_sq, math.sqrt((1.0 + theta_sq) * (1.0 + theta_sq * theta_sq))
    blocks = -(-n // 2**16)
    edges = [n * b // blocks for b in range(blocks + 1)]
    total = np.empty(n)
    for b, stream in enumerate(np.random.SeedSequence(seed).spawn(blocks)):
        rng = np.random.Generator(np.random.SFC64(stream))
        size = edges[b + 1] - edges[b]
        dev = np.full(size, first)
        block_total = np.full(size, fixed)
        for j in range(1, k + 1):
            nxt = theta_4 * dev + sigma * rng.standard_normal(size)
            # P_j's own square and the bridges that meet at it: two, or one and the tail
            coef_a, coef_b = (1.0 + q2 + q2_t, 2.0 * m + q1 + q1_t) if j == k else (1.0 + 2.0 * q2, 2.0 * (m + q1))
            block_total += nxt * (coef_a * nxt + coef_b + q3 * dev)
            dev = nxt
        total[edges[b]:edges[b + 1]] = block_total
    values = np.exp(alpha * total + log_factor)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("t, n, seed", [(0, 2, 0), (1, 10, 5), (7, 1000, 42), (27, 20_000, 2**32 - 1),
                                        (4, 2**16, 3), (3, 2**16 + 1, 8), (3, 150_001, 9)])
@pytest.mark.parametrize("theta, m, alpha, x", [(0.6, 1.0, -0.2, 0.3), (-0.8, -1.5, -0.01, -2.0)])
def test_monte_carlo_replays_the_documented_loop(theta, m, alpha, x, t, n, seed):
    # n <= 2**16 is one block; 2**16 + 1 is two and 150_001 three, of unequal sizes
    res = monte_carlo_mgf(ModelParams(theta, m), alpha, x, t, n, seed)
    assert (res.value, res.stderr) == replay_blocks(theta, m, alpha, x, t, n, seed)


@pytest.fixture
def fresh_pool(monkeypatch):
    """The Monte Carlo pool made anew by the test's first call that draws, and shut down after it."""
    monkeypatch.setattr(oracle, "_pool", None)
    yield
    if oracle._pool is not None:
        oracle._pool[0].shutdown()


def recorded_pools(monkeypatch, pause=0.0):
    """The thread counts the Monte Carlo pools are built with, one entry per
    pool; each build first sleeps `pause` seconds, which widens a race."""
    import concurrent.futures

    workers = []
    pool_class = concurrent.futures.ThreadPoolExecutor

    def recording_pool(max_workers):
        time.sleep(pause)
        workers.append(max_workers)
        return pool_class(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    return workers


@pytest.mark.parametrize("cores", [1, 2, 8, None])
def test_monte_carlo_bits_do_not_depend_on_the_worker_count(fresh_pool, monkeypatch, cores):
    params, n = ModelParams(0.6, 1.0), 600_001  # ten blocks, of unequal sizes
    expected = replay_blocks(0.6, 1.0, -0.1, 0.4, 7, n, 17)
    workers = recorded_pools(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        res = monte_carlo_mgf(params, -0.1, 0.4, 7, n, 17)
    finally:
        sys.setswitchinterval(interval)
    assert workers == [cores or 1]  # None: the core count is unknown
    assert (res.value, res.stderr) == expected


@pytest.mark.parametrize("n", [1000, 150_001])  # one block, three blocks
def test_monte_carlo_bits_do_not_depend_on_the_callers_error_state(n):
    # at alpha = -800 most estimates underflow to 0: a caller that raises on
    # every floating-point event gets the same bits as one that ignores them
    expected = replay_blocks(0.6, 1.0, -800.0, 0.4, 7, n, 3)
    with np.errstate(all="raise"):
        res = monte_carlo_mgf(ModelParams(0.6, 1.0), -800.0, 0.4, 7, n, 3)
    assert (res.value, res.stderr) == expected
    assert 0.0 < res.value < 1e-3


def failing_bit_generator(stream):
    raise MemoryError("no room for the block")


def test_monte_carlo_worker_error_reaches_the_caller(monkeypatch):
    # an exception in a block is raised in the calling thread, not lost in the worker
    # (t = 7: one skeleton step, so each block makes its generator)
    monkeypatch.setattr(np.random, "SFC64", failing_bit_generator)
    with pytest.raises(MemoryError, match="no room for the block"):
        monte_carlo_mgf(ModelParams(0.6, 1.0), -0.1, 0.4, 7, 150_001, 17)


def test_monte_carlo_worker_error_does_not_poison_the_pool(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "SFC64", failing_bit_generator)
        with pytest.raises(MemoryError, match="no room for the block"):
            monte_carlo_mgf(ModelParams(0.6, 1.0), -0.1, 0.4, 7, 150_001, 17)
    res = monte_carlo_mgf(ModelParams(0.6, 1.0), -0.1, 0.4, 7, 150_001, 17)
    assert (res.value, res.stderr) == replay_blocks(0.6, 1.0, -0.1, 0.4, 7, 150_001, 17)


def test_monte_carlo_first_calls_from_two_threads_share_one_pool(fresh_pool, monkeypatch):
    # both threads make their first call at once: one pool is built, and each
    # call replays its own blocks
    workers = recorded_pools(monkeypatch, pause=0.05)
    cases = [(0.6, 1.0, -0.1, 0.4, 7, 150_001, 17), (-0.8, -1.5, -0.01, -2.0, 13, 200_003, 5)]
    results = [None] * len(cases)
    start = threading.Barrier(len(cases))

    def call(i):
        theta, m, alpha, x, t, n, seed = cases[i]
        start.wait()
        res = monte_carlo_mgf(ModelParams(theta, m), alpha, x, t, n, seed)
        results[i] = res.value, res.stderr

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(workers) == 1
    assert results == [replay_blocks(*case) for case in cases]


def test_monte_carlo_calls_reuse_one_pool(fresh_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    params = ModelParams(0.6, 1.0)
    monte_carlo_mgf(params, -0.1, 0.4, 7, 600_001, 17)  # ten blocks start both threads
    pool, threads = oracle._pool, threading.active_count()
    for seed in range(20):
        monte_carlo_mgf(params, -0.1, 0.4, 7, 150_001, seed)
    assert oracle._pool is pool
    assert threading.active_count() <= threads


def test_monte_carlo_in_a_forked_child_gives_the_parents_bits():
    # the parent's pool threads do not exist in a forked child, where reusing
    # the pool hangs: the child must make its own and return in time
    args = (ModelParams(0.6, 1.0), -0.1, 0.4, 7, 150_001, 17)  # three blocks: the pool is live
    parent = monte_carlo_mgf(*args)
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # Python >= 3.12: a fork with threads running
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(30)  # a hung child is killed, so the parent's waitpid returns
            res = monte_carlo_mgf(*args)
            os.write(write, struct.pack("2d", res.value, res.stderr))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        _, status = os.waitpid(pid, 0)
        data = os.read(read, 16)
    finally:
        os.close(read)
    assert os.waitstatus_to_exitcode(status) == 0  # -14: SIGALRM, the child hung
    assert struct.unpack("2d", data) == (parent.value, parent.stderr)


@pytest.mark.parametrize("m, x", [(1e200, 0.5), (0.0, 1e200)])
@pytest.mark.parametrize("alpha", [0.0, -0.3])
def test_monte_carlo_overflowing_paths_raise_parameter_error(m, x, alpha):
    # a sampled S_t beyond the double range, as the closed form's constants are
    # there; at t = 1 the overflowing square is the last step's conditional mean
    for t in (1, 2, 5):
        with pytest.raises(ParameterError, match="overflow"):
            monte_carlo_mgf(ModelParams(0.6, m), alpha, x, t, 100, seed=1)


def test_monte_carlo_exact_cases():
    params = ModelParams(0.6, 1.0)
    for t in (1, 2, 8, 9):
        at_zero = monte_carlo_mgf(params, 0.0, 0.4, t, 1000, seed=1)
        assert at_zero.value == 1.0 and at_zero.stderr == 0.0
    no_noise = monte_carlo_mgf(params, -0.3, 0.4, 0, 1000, seed=1)
    assert no_noise.value == math.exp(-0.3 * 0.16) and no_noise.stderr == 0.0


@pytest.mark.parametrize("theta, m, x, alpha", [(0.6, 1.0, 0.4, -0.3), (-0.9, -2.0, 3.5, -0.05),
                                                (0.05, 1.7, -4.0, -1e-4), (0.95, 0.0, 0.0, -2.0)])
def test_monte_carlo_one_step_is_the_exact_value(theta, m, x, alpha):
    # X_1 given X_0 = x is integrated exactly: no normal is drawn, so no seed matters
    params = ModelParams(theta, m)
    exact = transform(params, TransformPoint(alpha), x, 1).value.real
    first, second = (monte_carlo_mgf(params, alpha, x, 1, 3000, seed) for seed in (1, 2))
    assert first == second
    assert rel_err(first.value, exact) <= 1e-14
    assert first.stderr <= 1e-15 * exact


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_monte_carlo_without_draws_returns_the_one_estimate(t):
    # every path's estimate is the same double: their mean can round an ulp or
    # two off it, and their sampled spread is rounding, not a standard error
    params = ModelParams(0.6, 1.0)
    results = [monte_carlo_mgf(params, -0.3, 0.4, t, n, seed) for n, seed in ((1000, 1), (2, 5), (4097, 9))]
    assert [r.stderr for r in results] == [0.0, 0.0, 0.0]
    assert len({r.value for r in results}) == 1
    exact = transform(params, TransformPoint(-0.3), 0.4, t).value.real
    assert rel_err(results[0].value, exact) <= 4.5e-16


@pytest.mark.parametrize("t", [1, 2, 5])
@pytest.mark.parametrize("alpha", [-1e300, -1e308])
def test_monte_carlo_huge_negative_alpha_gives_zero(alpha, t):
    # 1 - 2*alpha overflows at -1e308: the log factor is -inf and the estimate 0, not NaN
    res = monte_carlo_mgf(ModelParams(0.6, 1.0), alpha, 0.4, t, 1000, seed=1)
    assert res.value == 0.0 and res.stderr == 0.0
    # x - m = -inf: inf, or 0*inf = NaN where the bridges' weight is 0, raised
    # as an overflow with no RuntimeWarning
    with pytest.raises(ParameterError, match="overflow"):
        monte_carlo_mgf(ModelParams(0.6, 1e308), alpha, -1e308, t, 1000, seed=1)


@pytest.mark.parametrize("seed", [None, 1.5, "7", -1])
def test_monte_carlo_rejects_a_seed_that_is_not_an_integer_of_at_least_zero(seed):
    # no silent OS entropy for None: the typed ValueError and message run_all gives
    message = f"must be >= 0, got {seed}" if isinstance(seed, int) else f"must be an integer, got {seed!r}"
    with pytest.raises(ValueError) as exc:
        monte_carlo_mgf(ModelParams(0.6, 1.0), -0.2, 0.0, 3, 100, seed)
    assert str(exc.value) == "Monte Carlo seed " + message


def _log_mgf_of_squares(rows, consts, beta):
    """log E[exp(beta*||P e + w||^2)] for e ~ N(0, I): a Gaussian integral."""
    gram = np.eye(rows.shape[1]) - 2.0 * beta * rows.T @ rows
    sign, log_det = np.linalg.slogdet(gram)
    assert sign > 0
    pw = rows.T @ consts
    return -0.5 * log_det + beta * consts @ consts + 2.0 * beta * beta * pw @ np.linalg.solve(gram, pw)


def _stride_2_log_second_moment(theta, m, alpha, x, t):
    """log E[g^2] for the stride-2 estimator g = exp(alpha*T + C), t >= 2, which
    draws the even steps and integrates each odd one given its neighbours.

    The even deviations d_{2j} = theta^(2j)*(x - m) + sum_{i<=j} q*theta^(2(j-i))*e_i
    are affine in e ~ N(0, I_{t//2}), so T - x^2 is a sum of squares of affine forms
    in e, one per even step (X_{2j}) and one per odd step (sqrt(r)*mu): a dense
    Gaussian integral that shares no recursion with the oracle."""
    k = t // 2
    q_sq = 1.0 + theta * theta
    j, i = np.arange(k + 1)[:, None], np.arange(1, k + 1)[None, :]
    coef = np.where(i <= j, math.sqrt(q_sq) * theta ** (2.0 * np.maximum(j - i, 0)), 0.0)
    mean = theta ** (2.0 * np.arange(k + 1)) * (x - m)
    inner, last = (1.0 - 2.0 * alpha / q_sq) ** -0.5, (1.0 - 2.0 * alpha) ** -0.5
    slope = inner * theta / q_sq
    rows = [coef[1:], slope * (coef[:-1] + coef[1:])]
    consts = [m + mean[1:], inner * m + slope * (mean[:-1] + mean[1:])]
    log_factor = -0.5 * k * math.log1p(-2.0 * alpha / q_sq)
    if t % 2:
        rows.append(last * theta * coef[k:])
        consts.append(last * (m + theta * mean[k:]))
        log_factor -= 0.5 * math.log1p(-2.0 * alpha)
    log_mgf = _log_mgf_of_squares(np.vstack(rows), np.concatenate(consts), 2.0 * alpha)
    return 2.0 * (alpha * x * x + log_factor) + log_mgf


def _dense_bridge(theta, alpha, p, pinned):
    """(G, R, c) for p steps after X_0 - m = a, pinned to X_{p+1} - m = b or free:
    given the ends, (X_1 - m, ..., X_p - m) = G @ (a, b) + N(0, S), read off the
    dense joint precision L'L of the innovations L*D = (D_i - theta*D_{i-1})_i, and
    E[exp(alpha*||m + Y||^2)] = exp(c + alpha*||R (m + G @ (a, b))||^2) with
    R = (I - 2*alpha*S)^(-1/2) and c = -log det(I - 2*alpha*S)/2, from S's eigenvalues."""
    size = p + 2 if pinned else p + 1  # D_0, ..., D_p and, pinned, D_{p+1}
    innovations = np.eye(size)[1:] - theta * np.eye(size)[:-1]
    precision = innovations.T @ innovations
    inside, ends = np.arange(1, p + 1), [0, size - 1] if pinned else [0]
    gains = -np.linalg.solve(precision[np.ix_(inside, inside)], precision[np.ix_(inside, ends)])
    if not pinned:
        gains = np.column_stack([gains, np.zeros(p)])
    lam, vec = np.linalg.eigh(np.linalg.inv(precision[np.ix_(inside, inside)]))
    root = vec @ np.diag((1.0 - 2.0 * alpha * lam) ** -0.5) @ vec.T
    return gains, root, -0.5 * float(np.sum(np.log1p(-2.0 * alpha * lam)))


def _skeleton_log_moment(theta, m, alpha, x, t, order):
    """log E[g^order] for a path's stride-4 estimate g = exp(alpha*S + C), t >= 4.

    The skeleton deviations P_j = X_{4j} - m = theta^(4j)*(x - m) + sum_{i<=j}
    sigma*theta^(4(j-i))*e_i are affine in e ~ N(0, I_{t//4}), and S - x^2 is a sum
    of squares of affine forms in e: one per skeleton step (X_{4j}) and, through
    _dense_bridge, three per bridge and t mod 4 for the tail.  So E[g^order] is a
    dense Gaussian integral that shares no recursion with the oracle."""
    k, tail = divmod(t, 4)
    sigma = math.sqrt((1.0 + theta**2) * (1.0 + theta**4))
    j, i = np.arange(k + 1)[:, None], np.arange(1, k + 1)[None, :]
    coef = np.where(i <= j, sigma * theta ** (4.0 * np.maximum(j - i, 0)), 0.0)
    mean = theta ** (4.0 * np.arange(k + 1)) * (x - m)
    gains, root, c = _dense_bridge(theta, alpha, 3, True)
    rows, consts, log_factor = [coef[1:]], [m + mean[1:]], k * c
    for step in range(1, k + 1):
        ends, end_means = coef[step - 1:step + 1], mean[step - 1:step + 1]
        rows.append(root @ gains @ ends)
        consts.append(root @ (m + gains @ end_means))
    if tail:
        gains, root, c = _dense_bridge(theta, alpha, tail, False)
        rows.append(root @ np.outer(gains[:, 0], coef[k]))
        consts.append(root @ (m + gains[:, 0] * mean[k]))
        log_factor += c
    log_mgf = _log_mgf_of_squares(np.vstack(rows), np.concatenate(consts), order * alpha)
    return order * (alpha * x * x + log_factor) + log_mgf


def _conditioned_log_second_moment(theta, m, alpha, x, t):
    """log E[g^2] for a path's conditioned (stride-4) estimate, t >= 4."""
    return _skeleton_log_moment(theta, m, alpha, x, t, 2)


def _oracles_like_draws(seed, count):
    # the benchmark's Monte Carlo draws: |alpha|*E[S_t] <= 5, log-uniform alpha
    rng = random.Random(seed)
    for _ in range(count):
        theta = rng.choice((-1, 1)) * rng.uniform(0.05, 0.95)
        m, x, t = rng.uniform(-2.0, 2.0), rng.uniform(-4.0, 4.0), rng.randint(2, 50)
        hi = min(1.0, 5.0 / ((t + 1) * (1.0 / (1.0 - theta * theta) + m * m)))
        alpha = -(10 ** rng.uniform(math.log10(min(1e-4, hi / 10)), math.log10(hi)))
        yield theta, m, alpha, x, t, rng.randrange(2**32)


def test_monte_carlo_conditioning_keeps_the_precision():
    # on 24 draws like the benchmark's, n = 10^5: the conditioned estimator's
    # standard error is at most the plain loop's at the same (n, seed), its
    # exact variance (a Gaussian integral) is below the plain one's
    # L_t(2*alpha) - L_t(alpha)^2, and the sampled standard error matches it
    n = 10**5
    for theta, m, alpha, x, t, seed in _oracles_like_draws(20261019, 24):
        params = ModelParams(theta, m)
        res = monte_carlo_mgf(params, alpha, x, t, n, seed)
        assert res.stderr <= plain_path_blocks(theta, m, alpha, x, t, n, seed)[1], (theta, m, alpha, x, t)
        log_l = transform(params, TransformPoint(alpha), x, t).log_value.real
        plain_rel_var = math.expm1(transform(params, TransformPoint(2.0 * alpha), x, t).log_value.real - 2.0 * log_l)
        rel_var = math.expm1(_conditioned_log_second_moment(theta, m, alpha, x, t) - 2.0 * log_l)
        assert 0.0 < rel_var < plain_rel_var, (theta, m, alpha, x, t)
        assert abs(res.stderr / (math.exp(log_l) * math.sqrt(rel_var / n)) - 1.0) <= 0.05, (theta, m, alpha, x, t)


def test_monte_carlo_skeleton_nests_the_stride_2_estimator():
    # Rao-Blackwell on the 24 benchmark-like draws: the stride-4 estimate is the
    # stride-2 one averaged over X_2, X_6, ... given the coarser skeleton, so its
    # exact relative variance is at most stride 2's, which is below the plain
    # estimator's.  The dense stride-4 moments belong to an unbiased estimator (the
    # first is L_t), so a wrong bridge fails here instead of passing as a smaller variance
    for theta, m, alpha, x, t, _ in _oracles_like_draws(20261019, 24):
        params = ModelParams(theta, m)
        log_l = transform(params, TransformPoint(alpha), x, t).log_value.real
        assert abs(_skeleton_log_moment(theta, m, alpha, x, t, 1) - log_l) <= 1e-12 * max(1.0, abs(log_l))
        stride_4 = math.expm1(_conditioned_log_second_moment(theta, m, alpha, x, t) - 2.0 * log_l)
        stride_2 = math.expm1(_stride_2_log_second_moment(theta, m, alpha, x, t) - 2.0 * log_l)
        plain = math.expm1(transform(params, TransformPoint(2.0 * alpha), x, t).log_value.real - 2.0 * log_l)
        assert 0.0 < stride_4 <= stride_2 < plain, (theta, m, alpha, x, t)


def _bridge_draws(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        theta = rng.choice((-1, 1)) * rng.uniform(0.05, 0.95)
        alpha = -(10 ** rng.uniform(-300.0, math.log10(3.0)))
        yield theta, rng.uniform(-2.0, 2.0), alpha, rng.randint(1, 6), rng.random() < 0.5


def test_bridge_matches_the_dense_gaussian_integral():
    # the coefficients of log E[exp(alpha*sum X_i^2) | ends] against the dense
    # conditional law, alpha from -1e-300 to -3.  Each q is a form u' W v, which the
    # dense route gives to eps*||u||*||v|| (||W|| <= 1); a pinned bridge's b end has
    # the same q1 and q2 as its a end
    for theta, m, alpha, p, pinned in _bridge_draws(20261020, 400):
        gains, root, c = _dense_bridge(theta, alpha, p, pinned)
        weight, ones = root @ root, np.ones(p)
        got = _bridge(theta, m, alpha, p, pinned)
        case = (theta, m, alpha, p, pinned)
        assert rel_err(got[0], c) <= 4e-15, case
        assert rel_err(got[1], m * m * (ones @ weight @ ones)) <= 1e-14, case
        forms = [(2.0 * m, ones, gains[:, 0]), (1.0, gains[:, 0], gains[:, 0]), (2.0, gains[:, 0], gains[:, 1])]
        if pinned:
            forms += [(2.0 * m, ones, gains[:, 1]), (1.0, gains[:, 1], gains[:, 1])]
        for value, (factor, u, v) in zip(got[2:] + got[2:4], forms):
            bound = 1e-14 * abs(factor) * np.linalg.norm(u) * np.linalg.norm(v)
            assert abs(value - factor * (u @ weight @ v)) <= bound, case
        assert pinned or got[4] == 0.0, case


def test_bridge_matches_the_high_precision_reference():
    # each coefficient to a few ulps, the small q3 of a long bridge at a small
    # |theta| included, where the dense double route keeps only its norm's digits
    for case in _bridge_draws(20261022, 100):
        for value, expected in zip(_bridge(*case), bridge_ref(*case)):
            assert abs(value - expected) <= 4e-15 * abs(expected), case


def test_bridge_of_one_step_is_the_stride_2_factor():
    # p = 1: the interior odd step (variance 1/(1 + theta^2)) and the last step of
    # an odd t (variance 1) of the stride-2 estimator, as it wrote them
    for theta, m, alpha, _, _ in _bridge_draws(20261021, 200):
        q_sq = 1.0 + theta * theta
        inner, last = 1.0 / math.sqrt(1.0 - 2.0 * alpha / q_sq), 1.0 / math.sqrt(1.0 - 2.0 * alpha)
        for pinned, scale, slope, log_factor in ((True, inner, theta / q_sq, math.log1p(-2.0 * alpha / q_sq)),
                                                  (False, last, theta, math.log1p(-2.0 * alpha))):
            level, gain = scale * m, scale * slope
            want = (-0.5 * log_factor, level * level, 2.0 * level * gain, gain * gain,
                    2.0 * gain * gain if pinned else 0.0)
            got = _bridge(theta, m, alpha, 1, pinned)
            for value, expected in zip(got, want):
                assert abs(value - expected) <= 1e-15 * abs(expected), (theta, m, alpha, pinned)


def test_bridge_limits():
    # alpha = 0: no factor and the conditional mean's square; -2*alpha past the
    # double range: the factor is 0, as (1 - 2*alpha*v)^(-1/2) is
    for p, pinned in ((1, True), (3, True), (2, False)):
        c, *path = _bridge(0.6, 1.0, 0.0, p, pinned)
        assert c == 0.0 and min(path) >= 0.0 and path[0] > 0.0
        assert _bridge(0.6, 1.0, -1e308, p, pinned) == (-math.inf, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("t", [7, 8])
def test_monte_carlo_standard_scores_cover_the_exact_value(t):
    # 200 seeds at n = 2000: the standard scores centre on 0 and few pass 2; t = 7
    # ends in a three-step free tail after X_4, t = 8 on a skeleton point
    params, alpha, x = ModelParams(-0.7, 1.5), -0.15, -0.5
    exact = transform(params, TransformPoint(alpha), x, t).value.real
    scores = []
    for seed in range(200):
        res = monte_carlo_mgf(params, alpha, x, t, 2000, seed)
        scores.append((res.value - exact) / res.stderr)
    assert abs(sum(scores) / len(scores)) <= 0.3
    assert sum(abs(z) > 2.0 for z in scores) <= 0.08 * len(scores)


def test_monte_carlo_agrees_with_closed_form():
    params = ModelParams(0.6, 1.0)
    est = monte_carlo_mgf(params, -0.2, 0.0, 10, 200_000, seed=321)
    closed = transform(params, TransformPoint(-0.2), 0.0, 10).value.real
    assert abs(closed - est.value) <= 4.0 * est.stderr


def test_monte_carlo_stderr_scales_as_inverse_sqrt():
    params = ModelParams(0.6, 1.0)
    small = monte_carlo_mgf(params, -0.2, 0.0, 5, 50_000, seed=11)
    large = monte_carlo_mgf(params, -0.2, 0.0, 5, 200_000, seed=12)
    ratio = small.stderr / large.stderr
    assert abs(ratio - 2.0) <= 0.4  # halving within 20%


def test_monte_carlo_validation():
    params = ModelParams(0.6)
    with pytest.raises(ValueError):
        monte_carlo_mgf(params, 0.1, 0.0, 5, 100, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_mgf(params, -0.1, 0.0, 5, 1, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_mgf(params, -0.1, 0.0, -1, 100, seed=0)


def test_gauss_hermite_nodes_integrate_moments():
    nodes, weights = gauss_hermite_nodes(1.5, 2.0, 32)
    assert abs(weights.sum() - 1.0) < 1e-14
    assert abs((weights * nodes).sum() - 1.5) < 1e-13
    assert abs((weights * (nodes - 1.5) ** 2).sum() - 2.0) < 1e-12


def test_unconditional_at_alpha_zero_is_one():
    value = unconditional_transform(ModelParams(0.5, 1.0), TransformPoint(0.0), 4)
    assert abs(value - 1.0) < 1e-14


def test_unconditional_horizon_zero_closed_gaussian_integral():
    # E[exp(alpha X_0^2)] for X_0 ~ N(0, 1/(1-theta^2)) is a scaled chi-square MGF
    theta, alpha = 0.5, -0.4
    var = 1.0 / (1.0 - theta * theta)
    value = unconditional_transform(ModelParams(theta, 0.0), TransformPoint(alpha), 0)
    assert rel_err(value, (1.0 - 2.0 * alpha * var) ** -0.5) < 1e-12


def test_unconditional_rejects_low_order_and_bad_domain():
    params = ModelParams(0.5, 1.0)
    with pytest.raises(DomainError):
        unconditional_transform(params, TransformPoint(0.9), 5)


@pytest.mark.parametrize(
    "theta, m, alpha, t",
    [(0.6, 1.0, -0.3, 100), (0.6, 1.0, complex(-0.3, 0.2), 100), (-0.8, 1.5, -2.0, 100), (0.95, -1.2, -0.01, 2000)],
)
def test_unconditional_matches_high_order_gauss_hermite(theta, m, alpha, t):
    params, point = ModelParams(theta, m), TransformPoint(alpha)
    nodes, weights = gauss_hermite_nodes(m, 1.0 / (1.0 - theta * theta), 256)
    reference = sum(w * transform(params, point, float(xi), t).value for xi, w in zip(nodes, weights))
    assert rel_err(unconditional_transform(params, point, t), reference) <= 1e-12


def _dense_stationary_mgf(theta, m, alpha, t):
    # (X_0..X_t) ~ N(m*1, theta^|s-u| / (1-theta^2)); S_t is its squared norm
    idx = np.arange(t + 1)
    cov = theta ** np.abs(idx[:, None] - idx[None, :]) / (1.0 - theta * theta)
    mean = np.full(t + 1, m)
    mat = np.eye(t + 1) - 2.0 * alpha * cov
    sign, log_det = np.linalg.slogdet(mat)
    assert sign > 0
    return math.exp(-0.5 * log_det + alpha * mean @ np.linalg.solve(mat, mean))


@pytest.mark.parametrize("t", [1, 5, 50])
@pytest.mark.parametrize("theta, m, alpha", [(0.6, 1.0, -0.3), (-0.8, 1.5, -2.0), (0.3, -0.7, 0.1)])
def test_unconditional_matches_dense_stationary_form(theta, m, alpha, t):
    value = unconditional_transform(ModelParams(theta, m), TransformPoint(alpha), t)
    assert rel_err(value, _dense_stationary_mgf(theta, m, alpha, t)) <= 1e-10


def test_unconditional_divergent_integral_raises():
    # alpha lies inside D, but the start-law integral of L_t diverges
    params, point = ModelParams(0.5, 1.0), TransformPoint(complex(2.0, 0.5))
    assert domain_check(params, point)
    with pytest.raises(ConvergenceError):
        unconditional_transform(params, point, 10)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_oracles_reject_non_finite_start(x):
    params = ModelParams(0.6, 1.0)
    with pytest.raises(ParameterError):
        matrix_mgf(params, -0.3, x, 10)
    with pytest.raises(ParameterError):
        monte_carlo_mgf(params, -0.3, x, 10, 100, seed=1)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_oracles_reject_non_finite_alpha(alpha):
    # loud, not a NaN value or an out-of-domain verdict
    params = ModelParams(0.6, 1.0)
    with pytest.raises(ParameterError, match="alpha must be finite"):
        matrix_mgf(params, alpha, 0.5, 10)
    with pytest.raises(ParameterError, match="alpha must be finite"):
        monte_carlo_mgf(params, alpha, 0.5, 10, 100, seed=1)
    with pytest.raises(ParameterError, match="alpha must be finite"):
        unconditional_transform(params, TransformPoint(alpha), 10)


@pytest.mark.parametrize("n", [1e5, 100.0, "100", None, -1, 0, 1])
def test_monte_carlo_rejects_a_sample_count_that_is_not_an_integer_of_at_least_two(n):
    # a typed ValueError, with the message run_all gives for the same count
    message = f"must be >= 2, got {n}" if isinstance(n, int) else f"must be an integer, got {n!r}"
    with pytest.raises(ValueError) as exc:
        monte_carlo_mgf(ModelParams(0.6, 1.0), -0.2, 0.0, 3, n, 1)
    assert str(exc.value) == "Monte Carlo sample count " + message


def test_monte_carlo_takes_an_index_sample_count():
    params = ModelParams(0.6, 1.0)
    assert monte_carlo_mgf(params, -0.2, 0.0, 3, np.int64(1000), 1) == monte_carlo_mgf(params, -0.2, 0.0, 3, 1000, 1)
    # and an index seed, which the seed check takes as its int
    assert monte_carlo_mgf(params, -0.2, 0.0, 3, 1000, np.uint32(7)) == monte_carlo_mgf(params, -0.2, 0.0, 3, 1000, 7)


@pytest.mark.parametrize("alpha", [complex(-0.3, 0.0), TransformPoint(-0.3).alpha, np.complex128(-0.3)])
def test_oracles_take_a_complex_alpha_on_the_real_axis_as_its_real_part(alpha):
    # TransformPoint.alpha is always complex: a real alpha in that type is the real value
    params = ModelParams(0.6, 1.0)
    assert matrix_mgf(params, alpha, 0.5, 10) == matrix_mgf(params, -0.3, 0.5, 10)
    assert monte_carlo_mgf(params, alpha, 0.5, 10, 100, 1) == monte_carlo_mgf(params, -0.3, 0.5, 10, 100, 1)


@pytest.mark.parametrize("alpha", [complex(-0.3, 0.2), complex(-0.3, -1e-300), complex(0.0, 1.0)])
def test_oracles_reject_a_complex_alpha_off_the_real_axis(alpha):
    # a complex determinant would bring back the branch ambiguity the oracles arbitrate
    params = ModelParams(0.6, 1.0)
    with pytest.raises(ParameterError, match="real alpha only"):
        matrix_mgf(params, alpha, 0.5, 10)
    with pytest.raises(ParameterError, match="real alpha only"):
        monte_carlo_mgf(params, alpha, 0.5, 10, 100, 1)


@pytest.mark.parametrize("m", [1e200, -1e200])
def test_unconditional_rejects_overflowing_constants(m):
    with pytest.raises(ParameterError, match="overflow"):
        unconditional_transform(ModelParams(0.6, m), TransformPoint(-0.3), 10)


def test_unconditional_beyond_the_double_range_raises():
    # a small positive alpha inside D: the value grows like exp(t*Lambda),
    # past the largest double before t = 10^5, where it must raise, not be inf
    params, point = ModelParams(0.6, 1.0), TransformPoint(0.05)
    assert rel_err(unconditional_transform(params, point, 1000), 2.481109964153374e100) <= 1e-12
    with pytest.raises(ParameterError, match=r"E\[exp\(alpha\*S_t\)\] overflows at m=1.0, alpha=\(0.05\+0j\), t=100000"):
        unconditional_transform(params, point, 100000)


@pytest.mark.parametrize("alpha", [-0.3, complex(-0.3, 0.4), complex(-1.0, -0.25)])
def test_unconditional_below_the_double_range_is_exactly_zero(alpha):
    # exp of the complex logs would give -0j and -0-0j: the value is 0, unsigned
    assert repr(unconditional_transform(ModelParams(0.6, 1.0), TransformPoint(alpha), 10**6)) == "0j"


def test_import_does_not_load_scipy():
    # a fresh interpreter that finds the same ar1quad as this one
    src = os.path.dirname(os.path.dirname(ar1quad.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ar1quad; assert 'scipy' not in sys.modules, 'import ar1quad loaded scipy'"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_unconditional_matches_stationary_start_monte_carlo():
    theta, m, alpha, t, n = 0.5, 1.0, -0.3, 5, 400_000
    params = ModelParams(theta, m)
    quad = unconditional_transform(params, TransformPoint(alpha), t).real
    rng = np.random.default_rng(777)
    start = m + rng.standard_normal(n) * math.sqrt(1.0 / (1.0 - theta * theta))
    total = start * start
    dev = start - m
    for _ in range(t):
        dev = theta * dev + rng.standard_normal(n)
        total += (dev + m) ** 2
    values = np.exp(alpha * total)
    stderr = values.std(ddof=1) / math.sqrt(n)
    assert abs(quad - values.mean()) <= 4.0 * stderr

