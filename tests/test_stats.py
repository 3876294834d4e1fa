"""Statistics layer: transforms, tail index, regression, bootstrap."""

import json
import math

import numpy as np
import pytest

import oracles
from gwalk.stats import (
    bootstrap_ci,
    empirical_laplace,
    hill_tail_index,
    loglog_slope,
    verdict_row,
    write_verdicts,
)


def test_empirical_laplace_exact_values():
    rows = empirical_laplace([0.0, 0.0], [0.0, 1.0, 3.0])
    assert all(r["value"] == 1.0 for r in rows)
    assert rows[0]["se"] == 0.0
    rows = empirical_laplace([math.log(2.0)], [1.0])
    assert rows[0]["value"] == pytest.approx(0.5, rel=1e-15)


def test_empirical_laplace_censoring_convention():
    # +inf encodes a censored trial: weight 0 for lambda > 0, 1 at lambda 0
    rows = empirical_laplace([0.0, np.inf], [0.0, 1.0])
    assert rows[0]["value"] == 1.0
    assert rows[1]["value"] == 0.5


def test_empirical_laplace_errors():
    with pytest.raises(ValueError):
        empirical_laplace([], [1.0])
    with pytest.raises(ValueError):
        empirical_laplace([-0.1], [1.0])
    with pytest.raises(ValueError):
        empirical_laplace([1.0], [-1.0])


def test_hill_recovers_pareto_index():
    rng = np.random.default_rng(41)
    x = oracles.pareto_sample(rng, 1.7, 200_000)
    out = hill_tail_index(x, k=2000)
    assert abs(out["alpha"] - 1.7) < 0.05
    lo, hi = out["ci"]
    assert lo < out["alpha"] < hi
    assert out["k"] == 2000


def test_hill_deterministic_and_errors():
    rng = np.random.default_rng(42)
    x = oracles.pareto_sample(rng, 1.2, 5000)
    a = hill_tail_index(x, k=300, seed=9)
    b = hill_tail_index(x, k=300, seed=9)
    assert a == b
    with pytest.raises(ValueError):
        hill_tail_index(x, k=0)
    with pytest.raises(ValueError):
        hill_tail_index(x, k=len(x))
    with pytest.raises(ValueError):
        hill_tail_index([0.0] * 5 + [1.0], k=1)


def test_loglog_slope_exact_recovery():
    x = np.array([1.0, 2.0, 4.0, 8.0, 32.0])
    y = 3.0 * x**-0.75
    out = loglog_slope(x, y)
    assert out["slope"] == pytest.approx(-0.75, abs=1e-12)
    assert out["intercept"] == pytest.approx(math.log(3.0), abs=1e-12)
    lo, hi = out["ci"]
    assert hi - lo < 1e-9  # exact fit leaves no residual
    # weights shift the fit toward the weighted points
    noisy = y.copy()
    noisy[-1] *= 2.0
    w = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    out_w = loglog_slope(x, noisy, weights=w)
    assert out_w["slope"] == pytest.approx(-0.75, abs=1e-12)
    with pytest.raises(ValueError):
        loglog_slope([1.0], [1.0])
    with pytest.raises(ValueError):
        loglog_slope([1.0, 2.0], [1.0])


def test_bootstrap_ci_deterministic():
    rng = np.random.default_rng(43)
    x = rng.normal(0.0, 1.0, 400)
    a = bootstrap_ci(x, lambda s: s.mean(), seed=5)
    b = bootstrap_ci(x, lambda s: s.mean(), seed=5)
    assert a == b
    c = bootstrap_ci(x, lambda s: s.mean(), seed=6)
    assert a != c
    lo, hi = a
    assert lo < x.mean() < hi
    assert lo < 0.0 < hi  # true mean inside at this n and seed
    with pytest.raises(ValueError):
        bootstrap_ci([], lambda s: s.mean())


def test_verdict_row_and_json_roundtrip(tmp_path):
    row = verdict_row("exp", "stat", 1.5, 0.05, True, ci=(1.4, 1.6), n_trials=7)
    assert row["pass"] is True
    assert row["ci"] == [1.4, 1.6]
    assert row["n_trials"] == 7
    row2 = verdict_row("exp", "other", None, "1 +- 4 SE", False)
    assert row2["value"] is None and row2["ci"] is None
    dest = tmp_path / "verdicts.json"
    write_verdicts([row, row2], dest)
    back = json.loads(dest.read_text())
    assert back[0] == row and back[1] == row2
