"""Shared helpers for the test suite."""

import collections

import numpy as np

from ar1quad import ModelParams, TransformPoint, domain_check


def rel_err(a, b, floor=1e-300) -> float:
    return abs(a - b) / max(abs(b), floor)


def alpha_grid_in_domain(theta: float, n_min: int = 50, include_complex: bool = True):
    """Deterministic in-domain alpha points: real-negative values plus
    complex ones with |Im alpha| <= 0.5."""
    params = ModelParams(theta)
    candidates = [complex(re) for re in np.linspace(-3.0, -0.05, 30)]
    if include_complex:
        for re in np.linspace(-2.5, -0.1, 13):
            for im in (0.5, -0.45, 0.3, -0.15):
                candidates.append(complex(re, im))
    points = [a for a in candidates if domain_check(params, TransformPoint(a))]
    assert len(points) >= n_min, f"only {len(points)} in-domain points for theta={theta}"
    return points


def count_calls(monkeypatch, module, *names):
    """Wrap each module.<name> so that its calls are counted in the returned Counter."""
    counts = collections.Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts
