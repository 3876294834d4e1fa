"""Closed-form reference laws and limit-constant estimators.

The scaling limits compared against are built from a spectrally negative
strictly stable process Y with E[e^{lambda Y_t}] = e^{t lambda^gamma},
gamma in (1, 2], where gamma = 2 means standard Brownian motion:

    ml_laplace(gamma, lam)    Laplace transform of sup_{s<=1} Y_s
                              (Mittag-Leffler series of order 1/gamma)
    hit_laplace(gamma, a, lam) Laplace transform of the first passage
                              time of Y through level a

plus estimators for the discounted-sum constants C_inf and bold c_inf and
the tail-plateau estimator for c_kappa, and `estimate_constant`, the one
route from a law to a plug-in constant by name, which
`experiments.Constants` takes for each constant it is not given. The tests
check both transforms against a direct path sampler for Y, which lives with
the other test oracles.

`scipy.special` (for erfcx) and `mpmath` load only inside the branches of
`ml_laplace` that need them: the gamma = 2 closed form and the mpmath rerun.
No other command path imports scipy, so a subdiffusive run never pays for it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import excursion as _excursion
from . import kernel
from . import law as _law
from . import stats as _stats
from ._rng import derive_seed
from .env import discounted_sums_batch

__all__ = [
    "LimitsError",
    "ml_laplace",
    "hit_laplace",
    "estimate_discounted_moments",
    "estimate_c_kappa",
    "estimate_constant",
    "ML_LAMBDA_MAX",
]

ML_LAMBDA_MAX = 30.0
_FLOAT_TERM_CAP = 1e4  # largest alternating term float64 can absorb at 1e-11


class LimitsError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not 1.0 < gamma <= 2.0:
        raise LimitsError("DOMAIN", f"gamma must lie in (1, 2], got {gamma}")
    return gamma


def ml_laplace(gamma: float, lam: float) -> float:
    """E[e^{-lam * sup_{s<=1} Y_s}] for the stable process of index gamma.

    gamma < 2: the Mittag-Leffler series sum_k (-lam)^k / Gamma(1 + k/gamma),
    summed with compensated addition; once the alternating terms grow past
    what float64 cancellation can absorb the whole series is re-run in
    mpmath at a precision scaled to the largest term. Absolute error is
    below 1e-10 on lam <= 30 (RANGE beyond).

    gamma = 2: the supremum of standard Brownian motion at time 1 is |N(0,1)|,
    so the transform is the closed form 2 e^{lam^2/2}(1 - Phi(lam)),
    evaluated as erfcx(lam/sqrt(2)). This is the standard-Brownian
    convention, not the gamma -> 2 limit of the series (which describes
    sqrt(2) B); the theorem statements use standard B with explicit
    constants, so the closed form is the reference the tests need."""
    gamma = _check_gamma(gamma)
    lam = float(lam)
    if lam < 0:
        raise LimitsError("DOMAIN", "lambda must be nonnegative")
    if lam > ML_LAMBDA_MAX:
        raise LimitsError(
            "RANGE", f"lambda={lam} outside the documented domain [0, 30]"
        )
    if lam == 0.0:
        return 1.0
    if gamma == 2.0:
        from scipy import special

        return float(special.erfcx(lam / math.sqrt(2.0)))

    loglam = math.log(lam)
    logcap = math.log(_FLOAT_TERM_CAP)
    terms = []
    k = 0
    overflow = False
    while True:
        lg = k * loglam - math.lgamma(1.0 + k / gamma)
        if lg > logcap:
            overflow = True
            break
        t = math.exp(lg)
        terms.append(-t if k % 2 else t)
        # alternating tail: once terms decrease, truncation < first omitted
        if t < 1e-17 and k > lam**gamma:
            break
        k += 1
        if k > 100_000:  # pragma: no cover - defensive
            raise LimitsError("RANGE", "series failed to converge")
    if not overflow:
        return math.fsum(terms)

    import mpmath as mp

    with mp.workdps(60 + int(0.5 * lam**gamma)):
        s = mp.mpf(0)
        pw = mp.mpf(1)
        k = 0
        neg = -mp.mpf(lam)
        tiny = mp.mpf(10) ** (-25)
        while True:
            term = pw / mp.gamma(1 + mp.mpf(k) / gamma)
            s += term
            if abs(term) < tiny and k > lam**gamma:
                break
            pw *= neg
            k += 1
        return float(s)


def hit_laplace(gamma: float, alpha: float, lam: float) -> float:
    """E[e^{-lam * tau_alpha}], tau_alpha the first passage of Y through alpha.

    e^{-alpha lam^(1/gamma)} for gamma in (1, 2); the standard-Brownian
    first-passage transform e^{-alpha sqrt(2 lam)} at gamma = 2."""
    gamma = _check_gamma(gamma)
    if alpha < 0 or lam < 0:
        raise LimitsError("DOMAIN", "alpha and lambda must be nonnegative")
    if gamma == 2.0:
        return math.exp(-alpha * math.sqrt(2.0 * lam))
    return math.exp(-alpha * lam ** (1.0 / gamma))


def estimate_discounted_moments(
    law: _law.MarkLaw, n_samples: int, eps: float, rng: kernel.PCG64
) -> dict:
    """MC estimates of C_inf = E[D^-2] and bold c_inf = E[D^-1], with their
    normal 95% CIs, mean +- Z95 SE, under the keys C_inf_ci and
    c_inf_bold_ci.

    D is the discounted sum of the size-biased spine walk. D >= 1, so 1/D
    and 1/D^2 are bounded and their sample means are asymptotically normal.
    The sums are drawn SAMPLE_CHUNK paths per call of discounted_sums_batch,
    each call with its one scratch buffer of at most env._SLICE_ROWS x 512
    values (1 MB);
    that split fixes the order of the random draws, and so the estimates'
    bytes. Each chunk's D goes into one array of n_samples values, which
    then holds 1/D and then 1/D^2, in place, so memory holds at most two
    arrays of n_samples values (the second is the standard error's
    scratch)."""
    chunk = _excursion.SAMPLE_CHUNK
    inv = np.empty(n_samples)
    for i in range(0, n_samples, chunk):
        inv[i:i + chunk] = discounted_sums_batch(law, min(chunk, n_samples - i), eps, rng)
    np.divide(1.0, inv, out=inv)
    bold = _stats.mean_se(inv)
    np.square(inv, out=inv)
    out = {}
    for name, (mean, se) in (("C_inf", _stats.mean_se(inv)), ("c_inf_bold", bold)):
        out[name], out[f"{name}_ci"] = mean, (mean - _stats.Z95 * se, mean + _stats.Z95 * se)
    return out


def estimate_c_kappa(
    law: _law.MarkLaw, kappa: float, n_samples: int = 10**6, seed: int = 0
) -> dict:
    """Tail-plateau estimate of c_kappa from m^kappa P(B > m).

    B is the count of first-generation type-1 vertices of a fresh
    excursion tree, drawn from derive_seed(seed, "c-kappa", 0, "env"). The
    estimator convention: evaluate m^kappa times the empirical tail on a
    geometric m-grid and report the median of the top half of the grid.
    The grid spans the deep tail, from the 99.5th percentile of the positive
    values out to the ~30-exceedance point, which is the scale range the
    finite-n normalizations actually sample. Grid variation above 50% on
    that half raises a NO_PLATEAU warning. The CI bootstraps the bin
    histogram: N_BOOT multinomial redraws of the bin counts, all from one
    generator seeded derive_seed(seed, "c-kappa", 0, "boot"). A Hill
    cross-check of the tail index, with its bootstrap CI, on the top 2000
    positive values rides along. Fewer than two positive B values leave no
    tail to read: LimitsError TOO_FEW."""
    rng = kernel.PCG64(derive_seed(seed, "c-kappa", 0, "env"))
    b = _excursion.hypothesis_sums_batch(law, n_samples, rng)["B"]
    pos = b[b > 0]
    if pos.size < 2:
        raise LimitsError(
            "TOO_FEW", f"{pos.size} of {b.size} draws of B are positive; the tail needs two"
        )
    if pos.size > 10_000:
        lo = max(int(_stats.quantile(pos, 0.995)), 2)
        hi = max(int(np.partition(b, -30)[-30]), 2 * lo)
    else:
        lo, hi = 2, max(int(b.max()), 8)
    # a sorted set, not np.unique, which imports numpy.ma
    m_grid = np.array(sorted(set(np.geomspace(lo, hi, num=12).astype(np.int64).tolist())))

    n = b.size
    # draws above each grid point, and none above the last bin's open end
    above = np.array([(b > m).sum() for m in m_grid] + [0], dtype=np.int64)
    vals = m_grid.astype(float) ** kappa * above[:-1] / n
    half = vals[len(vals) // 2 :]
    est = float(_stats.median(half))
    spread = (half.max() - half.min()) / max(_stats.median(half), 1e-300)
    no_plateau = bool(spread > 0.5)
    if no_plateau:
        warnings.warn(
            f"NO_PLATEAU: tail grid varies by {spread:.0%} on its top half",
            RuntimeWarning,
        )

    # histogram bootstrap: bin counts between grid points are multinomial
    bins = np.r_[n - above[0], -np.diff(above)]
    brng = kernel.PCG64(derive_seed(seed, "c-kappa", 0, "boot"))
    counts = brng.multinomial(n, bins / n, _stats.N_BOOT)
    bvals = m_grid.astype(float) ** kappa * (n - np.cumsum(counts, axis=1)[:, :-1]) / n
    ci = _stats.quantile(_stats.median(bvals[:, len(m_grid) // 2 :], axis=1), [0.025, 0.975])

    hill = _stats.hill_tail_index(pos.astype(float), k=min(2000, pos.size - 1), seed=seed)
    return {
        "c_kappa": est,
        "ci": (float(ci[0]), float(ci[1])),
        "grid": [(int(m), float(v)) for m, v in zip(m_grid, vals)],
        "no_plateau": no_plateau,
        "hill": hill,
        "n_samples": int(n),
    }


def estimate_constant(
    law: _law.MarkLaw,
    kappa: float,
    seed: int,
    name: str,
    *,
    n_samples: int = 10**6,
    eps: float = 1e-12,
    c_kappa_samples: int = 10**6,
) -> dict:
    """The plug-in constant `name` of `law` and what its estimator reports
    beside it: c0 from the exact pair sum; c_kappa from the tail plateau of
    `c_kappa_samples` draws of B, with c_kappa_ci and the whole report as
    c_kappa_fit; C_inf and bold c_inf together, with `<name>_ci`, from one
    draw of `n_samples` discounted sums cut at `eps`."""
    if name == "c0":
        return {"c0": _law._c0_finite_sum(law)}
    if name == "c_kappa":
        fit = estimate_c_kappa(law, kappa, n_samples=c_kappa_samples, seed=seed)
        return {"c_kappa": fit["c_kappa"], "c_kappa_ci": fit["ci"], "c_kappa_fit": fit}
    rng = kernel.PCG64(derive_seed(seed, "estimate-constants", 0, "env"))
    return estimate_discounted_moments(law, n_samples, eps, rng)
