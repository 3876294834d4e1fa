"""Statistics layer: transforms, mean and SE, tail index, regression,
bootstrap, numpy's median and quantile bits, strict verdict JSON."""

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
    mean_se,
    median,
    quantile,
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


def test_mean_se_exact_values_and_errors():
    # mean 2.5, sample variance 5/3, se sqrt(5/3) / 2
    mean, se = mean_se(np.array([1, 2, 3, 4]))
    assert mean == 2.5
    assert se == pytest.approx(math.sqrt(5.0 / 3.0) / 2.0, rel=1e-15)
    assert mean_se([7.0, 7.0]) == (7.0, 0.0)
    for few in ([], [1.0]):
        with pytest.raises(ValueError):
            mean_se(few)


def test_hill_recovers_pareto_index():
    rng = np.random.default_rng(41)
    x = oracles.pareto_sample(rng, 1.7, 200_000)
    out = hill_tail_index(x, k=2000)
    assert abs(out["alpha"] - 1.7) < 0.05
    lo, hi = out["ci"]
    assert lo < out["alpha"] < hi
    assert out["k"] == 2000


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hill_of_tied_top_values_is_unbounded_without_warnings():
    """Top values tied with the threshold have log-spacings 0 and an
    infinite Hill index; a bootstrap end that interpolates toward an
    infinite resample is infinite. Neither raises a numpy warning."""
    out = hill_tail_index([1.0] * 3 + [2.0] * 6, k=5)
    assert out["alpha"] == math.inf and out["ci"] == (math.inf, math.inf)
    out = hill_tail_index([1.0] * 10 + [2.0] * 6 + [5.0], k=5)
    assert out["alpha"] == pytest.approx(5 / math.log(2.5), rel=1e-15)
    lo, hi = out["ci"]
    assert math.isfinite(lo) and lo < out["alpha"] and hi == math.inf


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


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("n", [1, 2, 7, 8, 399, 400])
def test_median_and_quantile_are_numpys_bits(n):
    """median and quantile equal np.median and np.quantile byte for byte:
    odd and even n, heavy tails, integers, +inf values as bootstrap_ci's
    resamples carry them and a NaN, q as a Python float, an array and the
    bootstrap's two ends, and the median along either axis of a matrix."""
    rng = np.random.default_rng(n)
    for case in range(40):
        x = rng.standard_cauchy(n) if case % 2 else rng.normal(size=n)
        if case % 4 == 1:
            x[rng.random(n) < 0.3] = np.inf
        if case % 8 == 3:
            x[rng.integers(n)] = np.nan
        if case % 8 == 5:
            x = rng.integers(0, 30, size=n)
        for q in (float(rng.random()), 0.995, 0.5, 0.0, 1.0, rng.random(3),
                  np.array([0.025, 0.975]), np.array([])):
            with np.errstate(invalid="ignore"):
                assert _same(quantile(x, q), np.quantile(x, q)), (case, q)
        assert _same(median(x), np.median(x)), case
        m = rng.standard_cauchy((n, 1 + case % 5))
        m[rng.random(m.shape) < 0.2] = np.inf
        m[0, 0] = np.nan if case % 8 == 7 else m[0, 0]
        for axis in (0, 1):
            assert _same(median(m, axis=axis), np.median(m, axis=axis)), (case, axis)


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


def test_write_verdicts_refuses_nan(tmp_path):
    """A NaN (or infinite) value raises instead of writing invalid JSON, and
    leaves no file behind."""
    dest = tmp_path / "verdicts.json"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            write_verdicts([verdict_row("exp", "stat", bad, 0.05, False)], dest)
        assert not dest.exists()
