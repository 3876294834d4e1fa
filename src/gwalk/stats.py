"""Statistical machinery turning raw trial data into verdicts.

Empirical Laplace tables with per-point standard errors, the sample mean
with its standard error (`mean_se`; a normal 95% CI is mean +- Z95 se),
also from exact integer power sums with the variance and its error
(`sums_mean_se`, `sums_variance_se`),
Hill tail-index estimation, log-log slope regression, percentile bootstrap
confidence intervals drawn from one seeded generator per call, and
JSON-compatible verdict rows, written as strict JSON.

`median` and `quantile` return the bits of `np.median` and `np.quantile`
(default linear method) without calling them: both import `numpy.ma` on
their first call, about 18 ms of a command's time. `top_quantile` gives
quantile's bits from the largest values alone.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

import numpy as np

from . import kernel
from ._rng import derive_seed

__all__ = [
    "empirical_laplace",
    "mean_se",
    "sums_mean_se",
    "sums_variance_se",
    "hill_tail_index",
    "loglog_slope",
    "bootstrap_ci",
    "median",
    "quantile",
    "top_quantile",
    "verdict_row",
    "write_verdicts",
]

N_BOOT = 400
Z95 = 1.959963984540054  # the standard normal's 0.975 quantile


def mean_se(samples) -> tuple[float, float]:
    """Sample mean and its standard error, std(ddof=1) / sqrt(n)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError("a standard error needs at least two samples")
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


def sums_mean_se(n: int, s1: int, s2: int) -> tuple[float, float]:
    """mean_se of n integers from their exact sums s1 = sum x and
    s2 = sum x^2 (Python ints): s1 / n, which is numpy's mean while every
    partial sum is below 2^53, and sqrt(var) / sqrt(n), the variance
    (n s2 - s1^2) / (n (n - 1)) rounded once, where numpy's two-pass
    variance may differ in the last digits."""
    if n < 2:
        raise ValueError("a standard error needs at least two samples")
    return s1 / n, math.sqrt((n * s2 - s1 * s1) / (n * (n - 1))) / math.sqrt(n)


def sums_variance_se(n: int, s1: int, s2: int, s3: int, s4: int) -> tuple[float, float]:
    """The sample variance (ddof 1) of n integers and its fourth-moment
    standard error sqrt(max(m4 - var^2, 0) / n), m4 the central fourth
    moment (ddof 0), from the exact sums s_k = sum x^k (Python ints), each
    rounded once."""
    if n < 2:
        raise ValueError("a variance needs at least two samples")
    d = n * s2 - s1 * s1  # n (n - 1) var
    m4 = n**3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4  # n^4 m4
    excess = m4 * (n - 1) ** 2 - d * d * n * n  # n^4 (n - 1)^2 (m4 - var^2)
    return d / (n * (n - 1)), math.sqrt(max(excess, 0) / (n**5 * (n - 1) ** 2))


def empirical_laplace(samples, lambdas) -> list[dict]:
    """Mean of e^{-lambda X} per lambda with its standard error.

    Censored observations may be encoded as +inf; they contribute 0 for
    lambda > 0 and, by the censoring convention, 1 at lambda = 0."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty sample")
    if (x < 0).any():
        raise ValueError("samples must be nonnegative")
    rows = []
    for lam in lambdas:
        lam = float(lam)
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        if lam == 0.0:
            rows.append({"lambda": 0.0, "value": 1.0, "se": 0.0})
            continue
        e = np.exp(-lam * x)
        e[~np.isfinite(x)] = 0.0
        value, se = mean_se(e) if e.size > 1 else (float(e.mean()), 0.0)
        rows.append({"lambda": lam, "value": value, "se": se})
    return rows


def hill_tail_index(samples, k: int, seed: int = 0) -> dict:
    """Hill estimate of the tail index from the top k order statistics.

    alpha_hat = k / sum_{i<k} (log X_(n-i) - log X_(n-k)). The CI
    bootstraps the k log-spacings (deterministic resample seeds). Spacings
    that are all 0, the top values tied with X_(n-k), give +inf."""
    x = np.asarray(samples, dtype=np.float64)
    x = x[np.isfinite(x)]
    if not 1 <= k < x.size:
        raise ValueError("k must be in [1, len(samples))")
    top = np.partition(x, x.size - k - 1)[-(k + 1) :]
    top.sort()
    if top[0] <= 0:
        raise ValueError("tail samples must be positive")
    spacings = np.log(top[1:]) - math.log(top[0])

    def stat(s):
        # spacings all 0 (top values tied with the threshold): unbounded
        total = s.sum()
        return s.size / total if total > 0 else math.inf

    lo, hi = bootstrap_ci(spacings, stat, seed=derive_seed(seed, "hill", k, "ci"))
    return {"alpha": float(stat(spacings)), "ci": (lo, hi), "k": k}


def loglog_slope(x, y, weights=None) -> dict:
    """Weighted least-squares slope of log y against log x.

    Returns slope, intercept and a normal-theory CI for the slope."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    if lx.size != ly.size or lx.size < 2:
        raise ValueError("need two grids of equal length >= 2")
    w = np.ones_like(lx) if weights is None else np.asarray(weights, float)
    wsum = w.sum()
    mx = (w * lx).sum() / wsum
    my = (w * ly).sum() / wsum
    sxx = (w * (lx - mx) ** 2).sum()
    sxy = (w * (lx - mx) * (ly - my)).sum()
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = ly - intercept - slope * lx
    dof = max(lx.size - 2, 1)
    var = (w * resid**2).sum() / dof / sxx
    half = Z95 * math.sqrt(max(var, 0.0))
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "ci": (float(slope - half), float(slope + half)),
    }


def _select(x, axis, kth, combine):
    """combine(part) for x partitioned at the places kth along axis, moved
    first (x flattened when axis is None), as np.median and np.quantile
    partition it; a lane whose last place, where NaN sorts, holds NaN gives
    that NaN, as they give it."""
    x = np.asarray(x)
    part = np.partition(x.ravel() if axis is None else np.moveaxis(x, axis, 0), kth, axis=0)
    out = combine(part)
    nan = np.isnan(part[-1])
    return np.where(nan, part[-1], out)[()] if nan.any() else out


def median(x, axis=None):
    """np.median(x, axis=axis), bit for bit: the middle value, or np.mean of
    the two middle values."""
    n = np.size(x) if axis is None else np.shape(x)[axis]
    mid = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    return _select(x, axis, mid + [-1], lambda part: np.mean(part[mid], axis=0))


def _linear(n, q):
    """The places lo and hi, among n sorted values, that np.quantile's
    default linear method reads at q, and its lerp of the values a and b
    there: at the virtual index (n - 1) q, its floor and the next place
    (both the last place, -1, from n - 1 on), joined as a + (b - a) g, or
    b - (b - a)(1 - g) when g >= 0.5, where g is the index less the floor."""
    at = (n - 1) * np.asarray(q, dtype=np.float64)
    top = at >= n - 1
    lo = np.where(top, -1, np.floor(at)).astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    g = at - lo

    def lerp(a, b):
        return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)[()]

    return lo, hi, lerp


def quantile(x, q):
    """np.quantile(x, q) with its default linear method, bit for bit
    (`_linear`)."""
    lo, hi, lerp = _linear(np.size(x), q)
    return _select(x, None, sorted({0, -1, *lo.ravel().tolist(), *hi.ravel().tolist()}),
                   lambda part: lerp(part[lo], part[hi]))


def top_quantile(top, n: int, q):
    """quantile(x, q), bit for bit, for x of n values of which `top` holds
    the largest, ascending, from the places that quantile reads: ValueError
    when one of them lies below top."""
    lo, hi, lerp = _linear(n, q)
    off = n - len(top)
    if not len(top) or ((lo >= 0) & (lo < off)).any():
        raise ValueError("the quantile reads a value below the top values")
    lo, hi = (np.where(r < 0, r, r - off) for r in (lo, hi))
    return lerp(top[lo], top[hi])


def bootstrap_ci(
    samples,
    stat: Callable[[np.ndarray], float],
    n_boot: int = N_BOOT,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile 95% bootstrap CI of stat over n_boot resamples.

    One generator (`kernel.PCG64`), seeded with `seed`, draws the resamples
    in turn, each into one reused buffer of n indices, so a call's CI
    depends on its arguments alone. stat may return +inf: an end whose
    interpolation reaches an infinite resample is +inf. No caller sets
    n_boot, but the benchmark tracer reads it by name as the resample count
    of a call."""
    x = np.asarray(samples)
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    rng, idx = kernel.PCG64(seed), np.empty(n, dtype=np.int64)
    vals = np.array([stat(x[rng.integers(0, n, idx)]) for _ in range(n_boot)])
    q = np.array([0.025, 0.975])
    # the linear percentile at q interpolates the sorted values at indices
    # floor(q (n_boot - 1)) and the next one; the infinite ones sort last
    bounded = np.floor(q * (n_boot - 1)) + 1 < np.isfinite(vals).sum()
    ends = np.full(2, math.inf)
    ends[bounded] = quantile(vals, q[bounded])
    return float(ends[0]), float(ends[1])


def verdict_row(
    experiment: str,
    statistic: str,
    value: float,
    threshold,
    passed: bool,
    ci=None,
    **extra,
) -> dict:
    """One JSON-compatible verdict record."""
    row = {
        "experiment": experiment,
        "statistic": statistic,
        "value": None if value is None else float(value),
        "ci": None if ci is None else [float(ci[0]), float(ci[1])],
        "threshold": threshold,
        "pass": bool(passed),
    }
    row.update(extra)
    return row


def write_verdicts(rows: Sequence[dict], dest) -> None:
    """Write the rows to the path `dest` as strict JSON: a NaN or an
    infinity raises ValueError before the file is opened."""
    text = json.dumps(list(rows), indent=2, allow_nan=False)
    with open(dest, "w") as fh:
        fh.write(text + "\n")
