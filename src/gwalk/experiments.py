"""The CLI commands, one function each, named `<command>_campaign` with `_`
for `-`.

A campaign's positional parameters are what the command needs besides its
settings (the law, then some of kappa, the plug-in constants, the master
seed and the thread count); its keyword-only parameters are its config
section, and their defaults are the command's defaults. `Constants` holds
the plug-in constants and computes each one not given on its first read,
with the `estimate_constants` section as its settings.

Every campaign returns CSV-ready rows and verdict dicts (plus the
constants.json payload for estimate-constants). A campaign whose rows can be
empty (lemma-moments, estimate-constants) also returns their keys as
`fields`, so that its CSV file has a header even then. The Monte Carlo
campaigns run independent (environment, walk) trials with substream seeds
derived from one master seed, on environments conditioned on survival, and
reduce in trial order. The normalizations are regime-aware: kappa in (1,2) targets
the spectrally negative stable reference laws, kappa = 2 the Brownian laws
with the sqrt(n log n) correction, kappa > 2 the Brownian laws with the
two-child correlation constant.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

from . import excursion, forest, kernel, limits, stats, walk
from . import law as law_mod
from ._rng import child_key_np, derive_seed, derive_seed_np
from .env import enumerate_truncated, environment_survives, level_weights_batch
from .law import MarkLaw, regime_of
from .oracle import FiniteChain

__all__ = [
    "CONSTANT_NAMES",
    "Constants",
    "trial_seeds",
    "w_hat_batch",
    "validate_law_campaign",
    "lemma_moments_campaign",
    "theorem2_campaign",
    "theorem1_campaign",
    "theorem3_campaign",
    "corollary_campaign",
    "forest_identities_campaign",
    "estimate_constants_campaign",
    "W_DEPTH",
]

W_DEPTH = 15  # additive-martingale depth used as the W_inf proxy
# theorem1 cuts a trial only past normalized depth Z_BUDGET (see
# theorem1_campaign), and samples its trials THEOREM1_CHUNK at a time
Z_BUDGET = 14.0
THEOREM1_CHUNK = 32


CONSTANT_NAMES = ("C_inf", "c_inf_bold", "c_kappa", "c0")
# what computes each constant not given, named when it is not a finite number > 0
_SUMS = "the discounted sums (estimate_constants.n_samples, eps)"
_ESTIMATOR = {"c0": "the exact pair sum", "C_inf": _SUMS, "c_inf_bold": _SUMS,
              "c_kappa": "the tail plateau (estimate_constants.c_kappa_samples)"}


def _check(key: str, value, least: int = 1, grid: bool = False) -> None:
    """Stop the command, naming the config key (<section>.<name>), unless
    value is an integer >= least or, with grid, a list of distinct integers
    >= least. A size that feeds a standard error or a median takes least=2,
    and so does a theorem's grid at kappa = 2, whose scales hold log n."""
    items = [value]
    if grid:
        items = list(value) if isinstance(value, (list, tuple, np.ndarray)) else [None]
    if not (
        all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least
            for v in items)
        and len(set(items)) == len(items) > 0
    ):
        what = "a list of distinct integers" if grid else "an integer"
        raise SystemExit(f"{key} must be {what} >= {least}, got {value!r}")


def _check_real(key: str, value, grid: bool = False) -> None:
    """Stop the command, naming the config key, unless value is a finite
    number > 0 or, with grid, a non-empty list of numbers in
    [0, limits.ML_LAMBDA_MAX], the domain of the reference transforms."""
    def real(v):
        return isinstance(v, numbers.Real) and not isinstance(v, bool)

    if grid:
        items = list(value) if isinstance(value, (list, tuple, np.ndarray)) else []
        ok = bool(items) and all(real(v) and 0 <= v <= limits.ML_LAMBDA_MAX for v in items)
        what = f"a non-empty list of numbers in [0, {limits.ML_LAMBDA_MAX}]"
    else:
        ok, what = real(value) and 0 < value < math.inf, "a finite number > 0"
    if not ok:
        raise SystemExit(f"{key} must be {what}, got {value!r}")


def _positive(value, what: str):
    """value if it is a finite number > 0; else stop the command, naming what it is."""
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value < math.inf):
        raise SystemExit(f"{what} is {value!r}: a plug-in constant must be a finite number > 0")
    return value


class Constants:
    """Plug-in limit constants of one law, each computed on its first read.

    Holds kappa and its regime, the constants given (keywords named in
    CONSTANT_NAMES; any other keyword is a TypeError), and the law, master
    seed and `settings` (the `estimate_constants` section) for
    `limits.estimate_constant`, which computes any other constant when a
    scale first reads it: c0 exactly, c_kappa from the tail plateau, C_inf
    and bold c_inf together from one discounted-sum draw. Without a law,
    reading a constant not given is a LookupError. `names` are the regime's
    constants, as estimate-constants writes them; `estimates` gathers the
    reports, CIs included. A constant, given or computed, that is not a
    finite number > 0 stops the command (a given one before any trial), as
    do an n_samples or c_kappa_samples in `settings` below 2 and an eps
    that is not a finite number > 0 (at once), and an estimator's
    LimitsError, such as a B draw with too few positive values. Reads that
    compute are not locked: campaigns read the scales on the calling thread
    only."""

    def __init__(self, kappa: float, law: MarkLaw | None = None, seed: int = 0,
                 settings: dict | None = None, **given):
        self.kappa = kappa
        self.regime = regime_of(kappa)
        # index of the reference stable process (2 means Brownian), which is
        # also the power of W in the return-time normalization
        self.gamma = kappa if self.regime == "SUBDIFFUSIVE" else 2.0
        self.names = ("C_inf", "c_inf_bold", "c0" if self.regime == "DIFFUSIVE" else "c_kappa")
        self.estimates: dict = {}
        self._law, self._seed, self._settings = law, seed, settings or {}
        for key in ("n_samples", "c_kappa_samples"):
            if key in self._settings:
                _check(f"estimate_constants.{key}", self._settings[key], least=2)
        if "eps" in self._settings:
            _check_real("estimate_constants.eps", self._settings["eps"])
        for name, value in given.items():
            if name not in CONSTANT_NAMES:
                raise TypeError(f"Constants() got an unexpected keyword argument {name!r}")
            setattr(self, name, _positive(value, f"constants.{name}"))

    def __getattr__(self, name: str):
        # reached only for an attribute not set: a constant neither given nor read
        if name not in CONSTANT_NAMES:
            raise AttributeError(name)
        if self._law is None:
            raise LookupError(f"constant {name} was not given, and no law was given to compute it")
        try:
            report = limits.estimate_constant(self._law, self.kappa, self._seed, name,
                                              **self._settings)
        except limits.LimitsError as err:
            raise SystemExit(f"{name} estimated by {_ESTIMATOR[name]}: {err}") from err
        self.estimates.update(report)
        for key in CONSTANT_NAMES:
            if key in report and key not in vars(self):
                setattr(self, key, _positive(report[key], f"{key} estimated by {_ESTIMATOR[key]}"))
        return vars(self)[name]

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

    def range_error_scale(self, n: int) -> float:
        """The scale theorem3 divides sup_{p<=n} |R - (c_inf/2) T^p| by:
        n^gamma, and n^2 / log n at kappa = 2."""
        if self.regime == "CRITICAL":
            return n**2 / math.log(n)
        return float(n) ** self.gamma


def _map_trials(fn, n_trials: int, threads: int) -> None:
    """Run fn(t) for t in range(n_trials): independent tasks writing to
    disjoint preallocated slots, so the reduction order is the index order
    no matter how completion interleaves. Only theorem1's chunks of count
    trees run through it; the walking campaigns hand their whole batch to
    `kernel.run_walks`, whose threads share a counter in C.

    `kernel._concurrent_calls` makes min(threads, n_trials) calls of one
    draining loop at once, each taking the next index from one shared range
    iterator until it runs out, so a call that draws a long trial leaves the
    rest to the others. The iterator is shared without a lock: `next()` on
    a range iterator runs under the GIL, which is enough on CPython up to
    3.12 (a free-threaded build would need one). An exception in fn stops
    its call and is raised here after every call has returned."""
    trials = iter(range(n_trials))

    def drain() -> None:
        for t in trials:
            fn(t)

    kernel._concurrent_calls(drain, (), max(1, min(threads, n_trials)))


def trial_seeds(master: int, experiment: str, n_trials: int):
    """(environment seeds, walk seeds) of trials 0..n_trials-1, as uint64."""
    trials = np.arange(n_trials, dtype=np.uint64)
    return (derive_seed_np(master, experiment, trials, "env"),
            derive_seed_np(master, experiment, trials, "walk"))


def _surviving(law: MarkLaw, env_seeds: np.ndarray, experiment: str) -> np.ndarray:
    """Condition the environments on survival, where the paper's limits
    hold (W_inf > 0): redraw each environment seed whose environment dies,
    in place, the k-th time from derive_seed(previous,
    "<experiment>-resample", k, "env"), until it survives; each round tests
    all dead trials in one batched call. Returns each trial's number of
    redraws. Laws with minimum offspring >= 1 cannot die and redraw
    nothing."""
    rejected = np.zeros(env_seeds.size, dtype=np.int64)
    dead = np.arange(env_seeds.size)
    while dead.size:
        dead = dead[~environment_survives(law, env_seeds[dead])]
        rejected[dead] += 1
        for t in dead:
            e, k = int(env_seeds[t]), int(rejected[t])
            env_seeds[t] = derive_seed(e, f"{experiment}-resample", k, "env")
    return rejected


def _grid_least(consts: Constants) -> int:
    """Least grid point of a theorem: 2 at kappa = 2, where the scales hold
    log n, which is 0 at n = 1."""
    return 2 if consts.regime == "CRITICAL" else 1


def w_hat_batch(law: MarkLaw, env_seeds) -> np.ndarray:
    """Additive martingale at depth W_DEPTH per environment (0 for one that
    dies by then)."""
    return level_weights_batch(law, env_seeds, W_DEPTH)


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
    threads: int = 1,
    *,
    n_trials: int = 2000,
    m_grid=(10**5, 10**6),
    lambdas=(0.5, 1.0, 2.0),
    tol: float = 0.05,
) -> dict:
    """Local-time marginal test: W_hat * L^n / a_n against the sup law.

    Runs each trial to max(m_grid) steps, snapshotting the parent local
    time L^m at every grid point; one distance per n is the worst absolute
    transform error over the lambda grid. Verdicts: distance at the
    largest n below tol, and no increase across the n grid."""
    kernel.require_library()
    _check("theorem2.n_trials", n_trials, least=2)
    _check("theorem2.m_grid", m_grid, least=_grid_least(consts), grid=True)
    _check_real("theorem2.lambdas", lambdas, grid=True)
    _check_real("theorem2.tol", tol)
    m_grid = sorted(int(m) for m in m_grid)
    scales = [consts.local_time_scale(n) for n in m_grid]
    env_seeds, walk_seeds = trial_seeds(master_seed, "theorem2", n_trials)
    _surviving(law, env_seeds, "theorem2")
    L = walk.simulate_time_grid(law, env_seeds, walk_seeds, m_grid, threads)["snap_L"]
    w = w_hat_batch(law, env_seeds)

    z_by_n = {n: w * L[:, j] / scales[j] for j, n in enumerate(m_grid)}
    rows, dists = _laplace_rows(
        "theorem2", z_by_n, consts.gamma, "SUP", lambdas, n_trials
    )
    verdicts = _laplace_verdicts("theorem2", "n", dists, tol, n_trials=n_trials)
    return {"rows": rows, "verdicts": verdicts}


def theorem1_campaign(
    law: MarkLaw,
    consts: Constants,
    master_seed: int,
    threads: int = 1,
    *,
    n_trials: int = 2000,
    p_grid=(10**3, 10**4),
    lambdas=(0.5, 1.0, 2.0),
    tol: float = 0.05,
) -> dict:
    """Return-time marginal test: T^p / (W^k b_p) against the passage law.

    No walk is run: W (`w_hat_batch`) and the count trees come from the
    library. At tau^p the walk is its edge-count tree N, T^p = 2 sum_x N_x
    - p (root included), and counts add over excursions on a fixed
    environment. Each trial draws one `kernel.count_trees` row per increment
    of p_grid on its environment (root counts p_1, p_2 - p_1, ...), and
    T^{p_j} is the running sum of 2 sum N - (p_j - p_{j-1}). Row j of
    trial t draws on the stream of child_key(walk seed of t, j), so a
    trial's draws depend on its seeds alone, not on THEOREM1_CHUNK, the
    threads or the other trials. Trials run THEOREM1_CHUNK to a library
    call, which holds two generations of one row at a time.

    Each row of a trial with W proxy w has the budget
    (Z_BUDGET w^k b_{p_max} + p_max) / 2 on its sum of N. A row past it has
    T^{p_max} > Z_BUDGET w^k b_{p_max}, so (b_p growing with p) the trial is
    past normalized depth Z_BUDGET at every grid point from that row on.
    There it is censored as +inf, which lowers each e^{-lambda Z} by less
    than e^{-lambda Z_BUDGET}: the transform's bias is at most
    n_censored e^{-lambda_min Z_BUDGET} / n_trials (censor_bias_bound).
    Returns the rows, verdicts, Z per grid point ("z") and the running sums
    ("T", partial where censored)."""
    kernel.require_library()
    _check("theorem1.n_trials", n_trials, least=2)
    _check("theorem1.p_grid", p_grid, least=_grid_least(consts), grid=True)
    _check_real("theorem1.lambdas", lambdas, grid=True)
    _check_real("theorem1.tol", tol)
    p_grid = sorted(int(p) for p in p_grid)
    dp = np.diff(p_grid, prepend=0)
    k = len(p_grid)
    env_seeds, walk_seeds = trial_seeds(master_seed, "theorem1", n_trials)
    _surviving(law, env_seeds, "theorem1")
    w_k = w_hat_batch(law, env_seeds) ** consts.gamma
    b_max = consts.return_time_scale(p_grid[-1])
    cap = ((Z_BUDGET * w_k * b_max + p_grid[-1]) // 2).astype(np.int64)
    T = np.empty((n_trials, k), dtype=np.int64)
    over = np.empty((n_trials, k), dtype=bool)
    tables = law.tables()

    def one(c: int) -> None:
        t = slice(c * THEOREM1_CHUNK, min((c + 1) * THEOREM1_CHUNK, n_trials))
        m = t.stop - t.start
        budget = np.repeat(cap[t], k)
        roots = np.tile(dp, m)
        sums, _ = kernel.count_trees(tables, np.repeat(env_seeds[t], k),
                                     child_key_np(walk_seeds[t, None], np.arange(k)).ravel(),
                                     roots, budget=budget)
        total = sums[0] + roots  # the sum of N, root included
        T[t] = np.cumsum((2 * total).reshape(m, k) - dp, axis=1)
        over[t] = (total > budget).reshape(m, k)

    _map_trials(one, -(-n_trials // THEOREM1_CHUNK), threads)
    censored = np.logical_or.accumulate(over, axis=1)
    n_censored = int(censored[:, -1].sum())
    bias_bound = n_censored * math.exp(-min(lambdas) * Z_BUDGET) / n_trials

    z_by_n = {
        p: np.where(
            censored[:, j], np.inf,
            T[:, j] / (w_k * consts.return_time_scale(p)),
        )
        for j, p in enumerate(p_grid)
    }
    rows, dists = _laplace_rows(
        "theorem1", z_by_n, consts.gamma, "HIT", lambdas, n_trials
    )
    verdicts = _laplace_verdicts(
        "theorem1", "p", dists, tol,
        n_trials=n_trials, n_censored=n_censored, censor_bias_bound=bias_bound,
    )
    return {"rows": rows, "verdicts": verdicts, "z": z_by_n, "T": T}


def theorem3_campaign(
    law: MarkLaw,
    consts: Constants,
    master_seed: int,
    threads: int = 1,
    *,
    n_trials: int = 160,
    n_grid=(10**3, 10**4),
    budget: int = 3 * 10**7,
    shrink: float = 0.7,
) -> dict:
    """Range-vs-time test: per trial the uniform error
    sup_{p<=n} |R at T^p - (c_inf/2) T^p| / kappa_n, medianed over trials.

    Snapshots every crossing up to max(n_grid). A trial that exhausts the
    step budget before crossing n contributes +inf for that n (the median
    absorbs the censored fraction, which stays well under half at the
    default budget). The budget is memory-bound: the walk's arena costs
    about 11 bytes per step (0.23 nodes grown per step, a 48-byte record
    each), and each thread reuses one arena for all its trials, so at the
    default 3e7 steps it holds up to about 0.33 GB per thread. The
    snapshots of every trial at every crossing take 32 n_trials max(n_grid)
    bytes (about 51 MB at the defaults).
    Verdict: the median shrinks by at least the factor `shrink` going from
    the first to the last n. A censored median is written as null; if the
    first or last one is, the ratio is null and the verdict fails with a
    reason."""
    kernel.require_library()
    _check("theorem3.n_trials", n_trials, least=2)
    _check("theorem3.n_grid", n_grid, least=_grid_least(consts), grid=True)
    _check("theorem3.budget", budget)
    _check_real("theorem3.shrink", shrink)
    n_grid = sorted(int(n) for n in n_grid)
    n_max = n_grid[-1]
    env_seeds, walk_seeds = trial_seeds(master_seed, "theorem3", n_trials)
    _surviving(law, env_seeds, "theorem3")
    half_c = consts.c_inf_bold / 2.0
    scales = [consts.range_error_scale(n) for n in n_grid]
    res = walk.simulate_excursion_grid(
        law, env_seeds, walk_seeds, np.arange(1, n_max + 1), budget, threads
    )
    # |R - (c_inf/2) T| and its running maximum over the crossings, in one
    # array; a trial's row is valid up to its nsnap
    run_max = half_c * res["snap_T"]
    np.abs(np.subtract(res["snap_R"], run_max, out=run_max), out=run_max)
    np.maximum.accumulate(run_max, axis=1, out=run_max)
    sup_err = np.column_stack([
        np.where(res["nsnap"] >= n, run_max[:, n - 1] / scales[j], np.inf)
        for j, n in enumerate(n_grid)
    ])
    n_censored = int((res["status"] == kernel.STATUS_BUDGET).sum())
    med = stats.median(sup_err, axis=0)
    # a column at least half censored has median inf, which JSON cannot carry
    known = [float(m) if np.isfinite(m) else None for m in med]
    rows = [
        {
            "experiment": "theorem3",
            "n": n,
            "median_sup_err": known[j],
            "n_trials": n_trials,
            "n_censored_at_n": int(np.isinf(sup_err[:, j]).sum()),
        }
        for j, n in enumerate(n_grid)
    ]
    ratio = None if None in (known[0], known[-1]) else known[-1] / known[0]
    missing = [n for n, m in zip(n_grid, known) if m is None]
    verdicts = [
        stats.verdict_row(
            "theorem3", "median_sup_ratio", ratio, shrink,
            ratio is not None and ratio <= shrink, n_trials=n_trials,
            n_censored=n_censored,
            medians={str(n): m for n, m in zip(n_grid, known)},
            **({} if ratio is not None else {"reason": f"median censored at n in {missing}"}),
        )
    ]
    return {"rows": rows, "verdicts": verdicts}


def corollary_campaign(
    law: MarkLaw,
    kappa: float,
    master_seed: int,
    threads: int = 1,
    *,
    n_walkers: int = 10**4,
    n_grid=(100, 215, 464, 1000, 2154, 4641, 10000),
    tol: float = 0.1,
) -> dict:
    """Parent-return-probability decay: slope of log P(X_{2n+1} = e*)
    against log n, compared with -(1 - 1/gamma), gamma the index of the
    regime's reference process (`Constants.gamma`).

    One cohort serves every grid point: each walker runs once to the
    largest 2n+1 and the arrival indicator at time 2n+1 is read off as
    the local-time increment L^{2n+1} - L^{2n}. Environments are drawn
    fresh per walker under the survival conditioning (vacuous for laws
    with minimum offspring 1), all walkers' redraws in one batched pass
    before any walk runs. With fewer than two grid points hit, the
    slope and its CI are null and the verdict fails with a reason naming
    the grid points without a hit."""
    kernel.require_library()
    _check("corollary.n_walkers", n_walkers, least=2)
    _check("corollary.n_grid", n_grid, grid=True)
    _check_real("corollary.tol", tol)
    n_grid = sorted(int(n) for n in n_grid)
    env_seeds, walk_seeds = trial_seeds(master_seed, "corollary", n_walkers)
    m_grid = []
    for n in n_grid:
        m_grid.extend((2 * n, 2 * n + 1))
    rejected = _surviving(law, env_seeds, "corollary")
    L = walk.simulate_time_grid(law, env_seeds, walk_seeds, m_grid, threads)["snap_L"]
    # a walker's arrivals at time 2n+1: 0 or 1
    counts = (L[:, 1::2] - L[:, 0::2]).sum(axis=0)
    n_rejected = int(rejected.sum())
    p_hat = counts / n_walkers
    keep = counts > 0
    target = -(1.0 - 1.0 / Constants(kappa).gamma)
    if keep.sum() >= 2:
        fit = stats.loglog_slope(
            np.asarray(n_grid, dtype=float)[keep], p_hat[keep], weights=counts[keep]
        )
        slope, ci, extra = fit["slope"], fit["ci"], {}
        passed = bool(abs(slope - target) <= tol)
    else:
        # no slope through fewer than two points: null, as theorem3 writes
        # a censored median
        missing = [n for n, k in zip(n_grid, keep) if not k]
        fit, slope, ci, passed = None, None, None, False
        extra = {"reason": f"no hit at n in {missing}"}
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
            "corollary", "loglog_slope", slope, target, passed, ci=ci, tol=tol,
            n_walkers=n_walkers, n_rejected=n_rejected, **extra,
        )
    ]
    return {"rows": rows, "verdicts": verdicts, "fit": fit}


def validate_law_campaign(law: MarkLaw, kappa: float) -> dict:
    """The law's assumption audit: psi on a grid, psi(1) = 0, psi'(1) < 0,
    and kappa (solved by the caller, which checks the first two on the way)
    with its regime and, when diffusive, c0. Moment conditions beyond these
    hold trivially for finite support and bounded offspring; a lattice law
    is a warning only. JSON has no infinity, so an infinite kappa is written
    as null with a reason."""
    top = max(4.0, (kappa if math.isfinite(kappa) else 4.0) + 2)
    grid = np.linspace(0.25, min(law_mod.KAPPA_T_MAX, top), 33)
    rows = [{"t": float(t), "psi": float(v)}
            for t, v in zip(grid, law_mod.psi_evaluate(law, grid))]
    psi1, drift = law_mod.psi_evaluate(law, 1.0), law_mod.psi_prime(law, 1.0)
    notes = ["moment conditions: trivially satisfied (finite support, bounded offspring)"]
    lattice = law.is_lattice()
    if lattice:
        warnings.warn("law is lattice-supported; scaling constants may need care")
        notes.append("lattice support detected (warning only)")
    regime = regime_of(kappa)
    infinite = kappa == math.inf
    verdicts = [
        stats.verdict_row("validate_law", "psi_at_1", psi1, 1e-9, abs(psi1) < 1e-9),
        stats.verdict_row("validate_law", "negative_drift", drift, 0.0, drift < 0.0),
        stats.verdict_row(
            "validate_law", "kappa", None if infinite else kappa, None, True,
            regime=regime, lattice=lattice,
            c0=law_mod._c0_finite_sum(law) if regime == "DIFFUSIVE" else None, notes=notes,
            **({"reason": "kappa is infinite"} if infinite else {}),
        ),
    ]
    return {"rows": rows, "verdicts": verdicts}


def lemma_moments_campaign(
    law: MarkLaw,
    master_seed: int,
    *,
    n_envs: int = 20,
    depth: int = 4,
    n_pairs: int = 60,
    n_frozen: int = 5,
    n_excursions: int = 10**5,
    regen_levels=(1, 5, 20),
    n_regen_samples: int = 10**4,
) -> dict:
    """Edge-count moment identities, three routes deep.

    Exact route: Green-matrix solves on truncated environments against the
    path-only closed forms (tolerance 1e-10). MC route: kernel excursions
    on frozen truncated environments against the solve, within 4 SE.
    Regeneration route: after m excursions, the mean number of once-visited
    vertices whose ancestors strictly below the root were visited at least
    twice equals m, within 4 SE. These are the count-1 non-root nodes of
    the pruned excursion tree at tau^m, so the route reads the B column of
    `excursion.hypothesis_sums_batch` at p = m, on fresh environments.
    An environment truncated to the root alone, on a law whose environments
    can die, has no edge to check: both routes skip it, their verdicts then
    count the skipped ones in n_root_only, and a route that skips every
    environment fails. Bad sizes or regen levels stop the command
    (SystemExit) before it samples."""
    kernel.require_library()
    for key, value in (("n_envs", n_envs), ("depth", depth), ("n_pairs", n_pairs),
                       ("n_frozen", n_frozen), ("n_excursions", n_excursions)):
        _check(f"lemma_moments.{key}", value)
    _check("lemma_moments.regen_levels", regen_levels, grid=True)
    _check("lemma_moments.n_regen_samples", n_regen_samples, least=2)
    fields = ("env", "node", "mc_mean", "oracle_mean", "se", "z")
    rows = []
    verdicts = []

    worst_mean = worst_second = 0.0
    skipped = 0
    for i in range(n_envs):
        ex = enumerate_truncated(law, derive_seed(master_seed, "lemma-oracle", i, "env"), depth)
        if len(ex["parent"]) == 1:
            skipped += 1
            continue
        chain = FiniteChain(ex)
        means = chain.expected_edge_counts()
        for x in range(1, chain.n):
            worst_mean = max(worst_mean, abs(means[x] - math.exp(-chain.V[x])))
        rng = kernel.PCG64(derive_seed(master_seed, "lemma-oracle", i, "pairs"))
        for x, y in rng.integers(1, chain.n, np.empty((n_pairs, 2), dtype=np.int64)):
            x, y = int(x), int(y)
            worst_second = max(worst_second, abs(chain.edge_second_moment(x, y)
                                                 - chain.closed_second_moment(x, y)))
    extra = {"n_root_only": skipped} if skipped else {}
    verdicts.append(
        stats.verdict_row(
            "lemma_moments", "oracle_mean_abs_err", worst_mean, 1e-10,
            worst_mean < 1e-10 and skipped < n_envs, n_envs=n_envs, depth=depth, **extra,
        )
    )
    verdicts.append(
        stats.verdict_row(
            "lemma_moments", "oracle_second_abs_err", worst_second, 1e-10,
            worst_second < 1e-10 and skipped < n_envs, n_envs=n_envs, n_pairs=n_pairs, **extra,
        )
    )

    worst_z = 0.0
    skipped = 0
    for i in range(n_frozen):
        ex = enumerate_truncated(law, derive_seed(master_seed, "lemma-mc", i, "env"), depth)
        if len(ex["parent"]) == 1:
            skipped += 1
            continue
        chain = FiniteChain(ex)
        means = chain.expected_edge_counts()
        res = kernel.run_walk(None, 0, derive_seed(master_seed, "lemma-mc", i, "walk"),
                              kernel.MODE_CROSSINGS, n_excursions, [n_excursions],
                              explicit={"parent": ex["parent"], "V": ex["V"]})
        nd = res["tree_ndown"][: chain.n]
        for x in range(1, chain.n):
            var = chain.edge_second_moment(x, x) - means[x] ** 2
            se = (var / n_excursions) ** 0.5
            z = abs(nd[x] / n_excursions - means[x]) / se
            if z > worst_z:
                worst_z = z
            rows.append(dict(zip(fields, (i, x, nd[x] / n_excursions, means[x], se, z))))
    extra = {"n_root_only": skipped} if skipped else {}
    verdicts.append(
        stats.verdict_row(
            "lemma_moments", "mc_worst_z", worst_z, 4.0, worst_z < 4.0 and skipped < n_frozen,
            n_frozen=n_frozen, n_excursions=n_excursions, **extra,
        )
    )

    for m in regen_levels:
        rng = kernel.PCG64(derive_seed(master_seed, f"regen-m{m}", 0, "walk"))
        counts = excursion.hypothesis_sums_batch(law, n_regen_samples, rng, p=m)["B"]
        mean = counts.mean()
        se = counts.std(ddof=1) / n_regen_samples**0.5
        z = abs(mean - m) / se
        verdicts.append(
            stats.verdict_row(
                "lemma_moments", f"regen_mean_m{m}", float(mean), f"{m} +- 4 SE",
                z < 4.0, se=float(se), z=float(z), n_samples=n_regen_samples,
            )
        )
    return {"rows": rows, "fields": fields, "verdicts": verdicts}


def forest_identities_campaign(
    law: MarkLaw, kappa: float, master_seed: int, *, n_trees: int = 10**4,
    n_sums: int = 10**5
) -> dict:
    """Per-tree exact identities of the excursion-forest transform on
    `n_trees` typed trees, and the moment rows of B, nu and nu_tilde with
    the mean_type1_once verdict (E[B] = 1) on `n_sums` batch draws.

    sigma1_sq, the sample variance of B, and its fourth-moment standard
    error sigma1_sq_se are null unless kappa > 4: B's tail index is kappa,
    so below 4 the error, and below 2 the variance, is infinite."""
    kernel.require_library()
    _check("forest_identities.n_trees", n_trees)
    _check("forest_identities.n_sums", n_sums, least=2)
    rng = kernel.PCG64(derive_seed(master_seed, "forest-identities", 0, "env"))
    trees = forest.sample_typed_forest(law, n_trees, rng)
    fails: dict[str, int] = {}
    for t in trees:
        for name, ok in forest.check_tree_identities(t).items():
            if not ok:
                fails[name] = fails.get(name, 0) + 1
    verdicts = [
        stats.verdict_row(
            "forest_identities", name, fails.get(name, 0), 0,
            fails.get(name, 0) == 0, n_trees=n_trees,
        )
        for name in ("skeleton_count", "final_count", "offspring", "type1_depth1")
    ]
    # the moment sums ride the batched sampler, which is exact in law: the
    # typed-forest sample above is size-truncated (redraws past the node
    # budget), which biases the means of the heavy-tailed sums downward
    rng2 = kernel.PCG64(derive_seed(master_seed, "forest-identities", 0, "sums"))
    sums = excursion.hypothesis_sums_batch(law, n_sums, rng2)
    moments = {}
    for name, key in (("b", "B"), ("nu", "nu"), ("nu_tilde", "nu_tilde")):
        moments[f"{name}_mean"], moments[f"{name}_se"] = stats.mean_se(sums[key])
    moments["sigma1_sq"] = moments["sigma1_sq_se"] = None
    if kappa > 4:
        b = sums["B"].astype(np.float64)
        var_b = b.var(ddof=1)
        m4 = np.square(np.square(b - b.mean())).mean()  # ** 4 is 5x slower
        moments["sigma1_sq"] = float(var_b)
        moments["sigma1_sq_se"] = float(math.sqrt(max(m4 - var_b**2, 0.0) / n_sums))
    b_mean, b_se = moments["b_mean"], moments["b_se"]
    verdicts.append(
        stats.verdict_row(
            "forest_identities", "mean_type1_once", b_mean, "1 +- 4 SE",
            abs(b_mean - 1.0) < 4 * b_se, se=b_se, n_trees=n_sums,
        )
    )
    rows = [
        {"experiment": "forest_identities", "statistic": k, "value": v}
        for k, v in moments.items()
    ]
    return {"rows": rows, "verdicts": verdicts}


def estimate_constants_campaign(law: MarkLaw, kappa: float, master_seed: int, **settings) -> dict:
    """Every plug-in constant of the law's regime (`Constants.names`),
    estimated afresh (none given), as the constants.json payload (an
    infinite kappa as null) with the CIs, the c_kappa tail grid as rows and
    the plateau verdict. `settings` is the estimate_constants section, the
    keyword-only parameters of `limits.estimate_constant`."""
    kernel.require_library()
    consts = Constants(kappa, law, master_seed, settings)
    for name in consts.names:
        getattr(consts, name)
    est = dict(consts.estimates)
    fit = est.pop("c_kappa_fit", None)
    payload = {"kappa": None if kappa == math.inf else kappa, **est}
    fields = ("m", "m_kappa_tail")
    rows = []
    verdicts = []
    if fit is not None:
        rows = [dict(zip(fields, (int(m), float(v)))) for m, v in fit["grid"]]
        # null marks an unbounded Hill index or CI end: on few tail values,
        # top values tied with the threshold have an infinite index
        h = fit["hill"]
        hill = [v if math.isfinite(v) else None for v in (h["alpha"], *h["ci"])]
        verdicts.append(
            stats.verdict_row(
                "estimate_constants", "c_kappa_plateau", fit["c_kappa"], None,
                not fit["no_plateau"], ci=fit["ci"], hill=hill[0], hill_ci=hill[1:],
            )
        )
    verdicts.append(
        stats.verdict_row(
            "estimate_constants", "written", None, None, True, keys=sorted(payload),
        )
    )
    return {"rows": rows, "fields": fields, "verdicts": verdicts, "constants": payload}
