"""The self-verification checks fail on a NaN error, not only on a large one."""

import math

import pytest

from ar1quad import TransformValue, transform, verify


@pytest.mark.parametrize("check", [verify.check_sigma_recursion, verify.check_matrix_oracle,
                                   verify.check_exactness_anchors])
def test_a_nan_at_one_grid_point_fails_its_check(monkeypatch, check):
    # max(worst, nan) is worst: a NaN value at one grid point used to pass
    calls = []

    def nan_once(params, point, x, t):
        calls.append(t)
        if len(calls) == 2:
            nan = complex(math.nan, math.nan)
            return TransformValue(log_value=nan, value=nan, sigma_t=nan)
        return transform(params, point, x, t)

    monkeypatch.setattr(verify, "transform", nan_once)
    result = check(1, 1.0)
    assert len(calls) > 2  # the grid points after the NaN do not clear it
    assert math.isnan(result.error) and not result.passed

