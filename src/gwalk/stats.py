"""Statistical machinery turning raw trial data into verdicts.

Empirical Laplace tables with per-point standard errors, Hill tail-index
estimation, log-log slope regression, deterministic
bootstrap confidence intervals, and JSON-compatible verdict rows.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

import numpy as np

from ._rng import derive_seed

__all__ = [
    "empirical_laplace",
    "hill_tail_index",
    "loglog_slope",
    "bootstrap_ci",
    "verdict_row",
    "write_verdicts",
]

N_BOOT = 400


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
        rows.append(
            {
                "lambda": lam,
                "value": float(e.mean()),
                "se": float(e.std(ddof=1) / math.sqrt(e.size))
                if e.size > 1
                else 0.0,
            }
        )
    return rows


def hill_tail_index(samples, k: int, seed: int = 0) -> dict:
    """Hill estimate of the tail index from the top k order statistics.

    alpha_hat = k / sum_{i<k} (log X_(n-i) - log X_(n-k)). The CI
    bootstraps the k log-spacings (deterministic resample seeds)."""
    x = np.asarray(samples, dtype=np.float64)
    x = x[np.isfinite(x)]
    if not 1 <= k < x.size:
        raise ValueError("k must be in [1, len(samples))")
    top = np.partition(x, x.size - k - 1)[-(k + 1) :]
    top.sort()
    if top[0] <= 0:
        raise ValueError("tail samples must be positive")
    spacings = np.log(top[1:]) - math.log(top[0])
    est = k / spacings.sum()

    def stat(s):
        return s.size / s.sum()

    lo, hi = bootstrap_ci(spacings, stat, seed=derive_seed(seed, "hill", k, "ci"))
    return {"alpha": float(est), "ci": (float(lo), float(hi)), "k": k}


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
    half = 1.959963984540054 * math.sqrt(max(var, 0.0))
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "ci": (float(slope - half), float(slope + half)),
    }


def bootstrap_ci(
    samples,
    stat: Callable[[np.ndarray], float],
    n_boot: int = N_BOOT,
    seed: int = 0,
    level: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap CI with fixed derived resample seeds.

    Resample r draws from derive_seed(seed, "bootstrap", r, "resample"),
    so verdicts are reproducible regardless of call order."""
    x = np.asarray(samples)
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    vals = np.empty(n_boot)
    for r in range(n_boot):
        rng = np.random.default_rng(derive_seed(seed, "bootstrap", r, "resample"))
        vals[r] = stat(x[rng.integers(0, n, size=n)])
    a = (1.0 - level) / 2.0
    lo, hi = np.quantile(vals, [a, 1.0 - a])
    return float(lo), float(hi)


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
    close = False
    if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
        dest = open(dest, "w")
        close = True
    try:
        json.dump(list(rows), dest, indent=2)
        dest.write("\n")
    finally:
        if close:
            dest.close()
