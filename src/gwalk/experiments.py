"""Seeded Monte Carlo campaigns behind the CLI commands.

Each campaign runs independent (environment, walk) trials with substream
seeds derived from one master seed, reduces in trial order, and returns
CSV-ready rows plus verdict dicts. The normalizations are regime-aware:
kappa in (1,2) targets the spectrally negative stable reference laws,
kappa = 2 the Brownian laws with the sqrt(n log n) correction, kappa > 2
the Brownian laws with the two-child correlation constant.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import limits, stats, walk
from ._rng import derive_seed
from .env import environment_survives, level_weights_batch
from .kernel import STATUS_BUDGET
from .law import MarkLaw, regime_of

__all__ = [
    "Constants",
    "trial_seeds",
    "w_hat_batch",
    "theorem2_campaign",
    "theorem1_campaign",
    "theorem3_campaign",
    "corollary_campaign",
    "W_DEPTH",
]

W_DEPTH = 15  # additive-martingale depth used as the W_inf proxy
# theorem1's step budget reaches normalized depth Z_BUDGET in an environment
# with W = W_REF (see theorem1_campaign)
Z_BUDGET = 14.0
W_REF = 2.0


@dataclass
class Constants:
    """Plug-in limit constants for one law (estimated or exact)."""

    kappa: float
    C_inf: float | None = None
    c_inf_bold: float | None = None
    c_kappa: float | None = None
    c0: float | None = None

    @property
    def regime(self) -> str:
        return regime_of(self.kappa)

    def local_time_scale(self, n: float) -> float:
        """a_n with W * L^n / a_n converging to the unit reference sup law."""
        k = self.kappa
        if self.regime == "DIFFUSIVE":
            return math.sqrt(self.c0 * n)
        if self.regime == "CRITICAL":
            return math.sqrt(self.C_inf * self.c_kappa * n * math.log(n) / 2.0)
        g = abs(math.gamma(1.0 - k))
        return (self.C_inf * self.c_kappa * g / 2.0) ** (1.0 / k) * n ** (1.0 / k)

    def return_time_scale(self, p: float) -> float:
        """b_p with T^p / (W^{kappa and 2} b_p) converging to the unit
        first-passage law."""
        k = self.kappa
        if self.regime == "DIFFUSIVE":
            return p**2 / self.c0
        if self.regime == "CRITICAL":
            return p**2 / (math.log(p) * self.C_inf * self.c_kappa)
        g = abs(math.gamma(1.0 - k))
        return 2.0 * p**k / (self.C_inf * self.c_kappa * g)

    @property
    def gamma(self) -> float:
        """Index of the reference stable process (2 means Brownian), which is
        also the power of W in the return-time normalization."""
        return self.kappa if self.regime == "SUBDIFFUSIVE" else 2.0


def _map_trials(fn, n_trials: int, threads: int) -> None:
    """Run fn(t) for t in range(n_trials): independent tasks writing to
    disjoint preallocated slots, so the reduction order is the index order
    no matter how completion interleaves."""
    if threads <= 1:
        for t in range(n_trials):
            fn(t)
        return
    with ThreadPoolExecutor(max_workers=threads) as ex:
        for _ in ex.map(fn, range(n_trials)):
            pass


def trial_seeds(master: int, experiment: str, n_trials: int):
    env = np.array(
        [derive_seed(master, experiment, t, "env") for t in range(n_trials)],
        dtype=np.uint64,
    )
    wlk = np.array(
        [derive_seed(master, experiment, t, "walk") for t in range(n_trials)],
        dtype=np.uint64,
    )
    return env, wlk


def w_hat_batch(law: MarkLaw, env_seeds) -> np.ndarray:
    """Additive martingale at depth W_DEPTH per environment, 128 environments
    at a time to bound the (environments x mean_offspring^depth) arrays."""
    seeds = np.asarray(env_seeds, dtype=np.uint64)
    out = np.empty(seeds.size)
    for i in range(0, seeds.size, 128):
        w, alive = level_weights_batch(law, seeds[i : i + 128], W_DEPTH)
        out[i : i + 128] = np.where(alive, w, 0.0)
    return out


def _laplace_rows(experiment, z_by_n, gamma, kind, lambdas, n_trials):
    """Empirical-vs-reference transform rows and per-n max distances."""
    rows = []
    dists = {}
    for n, z in z_by_n.items():
        emp = stats.empirical_laplace(z, lambdas)
        worst = 0.0
        for rec in emp:
            lam = rec["lambda"]
            if kind == "SUP":
                ref = limits.ml_laplace(gamma, lam)
            else:
                ref = limits.hit_laplace(gamma, 1.0, lam)
            diff = abs(rec["value"] - ref)
            worst = max(worst, diff)
            rows.append(
                {
                    "experiment": experiment,
                    "n": n,
                    "lambda": lam,
                    "empirical": rec["value"],
                    "se": rec["se"],
                    "reference": ref,
                    "abs_diff": diff,
                    "n_trials": n_trials,
                }
            )
        dists[n] = worst
    return rows, dists


def _laplace_verdicts(experiment, var, dists, tol, **extra):
    """The distance at the largest grid point below tol (statistic
    laplace_dist_<var><point>), and no increase of the distance along the
    grid."""
    grid = sorted(dists)
    seq = [dists[n] for n in grid]
    return [
        stats.verdict_row(
            experiment, f"laplace_dist_{var}{grid[-1]}", seq[-1], tol, seq[-1] < tol,
            **extra,
        ),
        stats.verdict_row(
            experiment, "laplace_dist_trend", seq[-1] - seq[0], 0.0,
            all(b <= a for a, b in zip(seq, seq[1:])),
            distances={str(n): dists[n] for n in grid},
        ),
    ]


def theorem2_campaign(
    law: MarkLaw,
    consts: Constants,
    master_seed: int,
    n_trials: int = 2000,
    m_grid=(10**5, 10**6),
    lambdas=(0.5, 1.0, 2.0),
    tol: float = 0.05,
    threads: int = 1,
) -> dict:
    """Local-time marginal test: W_hat * L^n / a_n against the sup law.

    Runs each trial to max(m_grid) steps, snapshotting the parent local
    time L^m at every grid point; one distance per n is the worst absolute
    transform error over the lambda grid. Verdicts: distance at the
    largest n below tol, and no increase across the n grid."""
    m_grid = sorted(int(m) for m in m_grid)
    env_seeds, walk_seeds = trial_seeds(master_seed, "theorem2", n_trials)
    L = np.empty((n_trials, len(m_grid)), dtype=np.int64)

    def one(t: int) -> None:
        res = walk.simulate_time_grid(law, int(env_seeds[t]), int(walk_seeds[t]), m_grid)
        L[t] = res["snap_L"]

    _map_trials(one, n_trials, threads)
    w = w_hat_batch(law, env_seeds)

    z_by_n = {
        n: w * L[:, j] / consts.local_time_scale(n)
        for j, n in enumerate(m_grid)
    }
    rows, dists = _laplace_rows(
        "theorem2", z_by_n, consts.gamma, "SUP", lambdas, n_trials
    )
    verdicts = _laplace_verdicts("theorem2", "n", dists, tol, n_trials=n_trials)
    return {"rows": rows, "verdicts": verdicts, "distances": dists, "z": z_by_n}


def theorem1_campaign(
    law: MarkLaw,
    consts: Constants,
    master_seed: int,
    n_trials: int = 2000,
    p_grid=(10**3, 10**4),
    lambdas=(0.5, 1.0, 2.0),
    tol: float = 0.05,
    step_cap: int = 3 * 10**7,
    threads: int = 1,
) -> dict:
    """Return-time marginal test: T^p / (W^k b_p) against the passage law.

    A trial short of its last crossing when the step budget runs out is
    censored as +inf, contributing 0 to every e^{-lambda Z}. Its true T^p
    exceeds the excised clock at the cut, so its Z exceeds the cut depth
    z_cut = (excised clock at the cut) / (W^k b_p), and censoring biases the
    empirical transform at every lambda in the grid downward by at most
    sum over censored trials of e^{-lambda_min z_cut} / n_trials. The
    verdict records this bound (censor_bias_bound) and the smallest z_cut
    (min_cut_depth). The budget Z_BUDGET * W_REF^k * b_p(max p) cuts a
    trial with W <= W_REF near z_cut = Z_BUDGET or deeper, but step_cap
    bounds any single trial (the arena costs about 13 bytes per step: 0.23
    nodes grown per step, seven 8-byte slots each, so 3e7 steps ~ 0.39 GB),
    and where it binds z_cut can be of order 1: only the recorded bound
    holds."""
    p_grid = sorted(int(p) for p in p_grid)
    env_seeds, walk_seeds = trial_seeds(master_seed, "theorem1", n_trials)
    budget = min(
        int(Z_BUDGET * W_REF**consts.gamma * consts.return_time_scale(p_grid[-1])),
        int(step_cap),
    )
    T = np.full((n_trials, len(p_grid)), -1, dtype=np.int64)
    censored = np.zeros(n_trials, dtype=bool)
    t_cut = np.zeros(n_trials, dtype=np.int64)

    def one(t: int) -> None:
        res = walk.simulate_excursion_grid(
            law, int(env_seeds[t]), int(walk_seeds[t]), p_grid, budget
        )
        got = res["snap_T"].size
        T[t, :got] = res["snap_T"]
        censored[t] = res["status"] == STATUS_BUDGET
        t_cut[t] = res["t_ex"]

    _map_trials(one, n_trials, threads)
    n_censored = int(censored.sum())
    w = w_hat_batch(law, env_seeds)
    with np.errstate(divide="ignore"):
        z_cut = t_cut[censored] / (
            w[censored] ** consts.gamma * consts.return_time_scale(p_grid[-1])
        )
    bias_bound = float(np.exp(-min(lambdas) * z_cut).sum() / n_trials)

    z_by_n = {}
    for j, p in enumerate(p_grid):
        z = np.where(
            T[:, j] >= 0,
            T[:, j] / (w**consts.gamma * consts.return_time_scale(p)),
            np.inf,
        )
        z_by_n[p] = z
    rows, dists = _laplace_rows(
        "theorem1", z_by_n, consts.gamma, "HIT", lambdas, n_trials
    )
    verdicts = _laplace_verdicts(
        "theorem1", "p", dists, tol,
        n_trials=n_trials, n_censored=n_censored,
        min_cut_depth=float(z_cut.min()) if n_censored else None,
        censor_bias_bound=bias_bound,
    )
    return {"rows": rows, "verdicts": verdicts, "distances": dists, "z": z_by_n}


def _kappa_n(kappa: float, n: int) -> float:
    regime = regime_of(kappa)
    if regime == "CRITICAL":
        return n**2 / math.log(n)
    return float(n) ** (kappa if regime == "SUBDIFFUSIVE" else 2.0)


def theorem3_campaign(
    law: MarkLaw,
    consts: Constants,
    master_seed: int,
    n_trials: int = 160,
    n_grid=(10**3, 10**4),
    budget: int = 3 * 10**7,
    shrink: float = 0.7,
    threads: int = 1,
) -> dict:
    """Range-vs-time test: per trial the uniform error
    sup_{p<=n} |R at T^p - (c_inf/2) T^p| / kappa_n, medianed over trials.

    Snapshots every crossing up to max(n_grid). A trial that exhausts the
    step budget before crossing n contributes +inf for that n (the median
    absorbs the censored fraction, which stays well under half at the
    default budget; the budget itself is memory-bound, see the arena cost
    note on theorem1_campaign). Verdict: the median shrinks by at least
    the factor `shrink` going from the first to the last n."""
    n_grid = sorted(int(n) for n in n_grid)
    n_max = n_grid[-1]
    env_seeds, walk_seeds = trial_seeds(master_seed, "theorem3", n_trials)
    half_c = consts.c_inf_bold / 2.0
    sup_err = np.full((n_trials, len(n_grid)), np.inf)
    censored = np.zeros(n_trials, dtype=bool)
    p_all = np.arange(1, n_max + 1)

    def one(t: int) -> None:
        res = walk.simulate_excursion_grid(
            law, int(env_seeds[t]), int(walk_seeds[t]), p_all, budget
        )
        censored[t] = res["status"] == STATUS_BUDGET
        got = res["snap_T"].size
        if got == 0:
            return
        err = np.abs(res["snap_R"] - half_c * res["snap_T"])
        run_max = np.maximum.accumulate(err)
        for j, n in enumerate(n_grid):
            if got >= n:
                sup_err[t, j] = run_max[n - 1] / _kappa_n(consts.kappa, n)

    _map_trials(one, n_trials, threads)
    n_censored = int(censored.sum())
    med = np.median(sup_err, axis=0)
    rows = [
        {
            "experiment": "theorem3",
            "n": n,
            "median_sup_err": med[j],
            "n_trials": n_trials,
            "n_censored_at_n": int(np.isinf(sup_err[:, j]).sum()),
        }
        for j, n in enumerate(n_grid)
    ]
    ratio = med[-1] / med[0] if med[0] > 0 else np.inf
    verdicts = [
        stats.verdict_row(
            "theorem3", "median_sup_ratio", float(ratio), shrink,
            bool(ratio <= shrink), n_trials=n_trials, n_censored=n_censored,
            medians={str(n): float(m) for n, m in zip(n_grid, med)},
        )
    ]
    return {"rows": rows, "verdicts": verdicts, "medians": med, "sup_err": sup_err}


def corollary_campaign(
    law: MarkLaw,
    kappa: float,
    master_seed: int,
    n_walkers: int = 10**4,
    n_grid=(100, 215, 464, 1000, 2154, 4641, 10000),
    tol: float = 0.1,
    threads: int = 1,
) -> dict:
    """Parent-return-probability decay: slope of log P(X_{2n+1} = e*)
    against log n, compared with -(1 - 1/(kappa and 2)).

    One cohort serves every grid point: each walker runs once to the
    largest 2n+1 and the arrival indicator at time 2n+1 is read off as
    the local-time increment L^{2n+1} - L^{2n}. Environments are drawn
    fresh per walker under the survival conditioning (vacuous for laws
    with minimum offspring 1)."""
    n_grid = sorted(int(n) for n in n_grid)
    env_seeds, walk_seeds = trial_seeds(master_seed, "corollary", n_walkers)
    m_grid = []
    for n in n_grid:
        m_grid.extend((2 * n, 2 * n + 1))
    hits = np.zeros((n_walkers, len(n_grid)), dtype=np.int8)
    rejected = np.zeros(n_walkers, dtype=np.int64)

    def one(t: int) -> None:
        env = int(env_seeds[t])
        while not environment_survives(law, env):
            rejected[t] += 1
            env = derive_seed(env, "corollary-resample", int(rejected[t]), "env")
        res = walk.simulate_time_grid(law, env, int(walk_seeds[t]), m_grid)
        L = res["snap_L"]
        hits[t] = L[1::2] - L[0::2]

    _map_trials(one, n_walkers, threads)
    counts = hits.sum(axis=0, dtype=np.int64)
    n_rejected = int(rejected.sum())
    p_hat = counts / n_walkers
    keep = counts > 0
    fit = stats.loglog_slope(
        np.asarray(n_grid, dtype=float)[keep], p_hat[keep], weights=counts[keep]
    )
    target = -(1.0 - 1.0 / min(kappa, 2.0))
    err = abs(fit["slope"] - target)
    rows = [
        {
            "experiment": "corollary",
            "n": n,
            "p_hat": p_hat[j],
            "count": int(counts[j]),
            "n_walkers": n_walkers,
        }
        for j, n in enumerate(n_grid)
    ]
    verdicts = [
        stats.verdict_row(
            "corollary", "loglog_slope", fit["slope"], target,
            bool(err <= tol), ci=fit["ci"], tol=tol, n_walkers=n_walkers,
            n_rejected=n_rejected,
        )
    ]
    return {"rows": rows, "verdicts": verdicts, "fit": fit, "p_hat": p_hat}
