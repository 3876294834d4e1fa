"""Campaign normalizations (the regime decides the scales, through one
function), theorem1: no walk, its censoring and bias bound, corollary
with too few grid points hit, the vectorised trial seeds, and the trial
pool's one shared index iterator."""

import json
import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats as sps

from gwalk import experiments, kernel
from gwalk._rng import derive_seed
from gwalk.experiments import (
    Z_BUDGET,
    Constants,
    corollary_campaign,
    theorem1_campaign,
    trial_seeds,
    w_hat_batch,
)
from gwalk.law import make_constant_bias, make_two_point, regime_of, solve_kappa

PLUG_IN = {"C_inf": 0.1, "c_inf_bold": 0.2, "c_kappa": 1.5}


@pytest.mark.parametrize("kappa", [2.0 - 1e-12, 2.0, 2.0 + 1e-12])
def test_near_critical_kappa_takes_the_critical_scales(kappa):
    """Within regime_of's tolerance of 2, kappa gets the sqrt(n log n) scales,
    not the subdiffusive formula (|Gamma(1 - kappa)| blows up there) nor the
    diffusive one (no c0 exists there)."""
    near = Constants(kappa=kappa, **PLUG_IN)
    crit = Constants(kappa=2.0, **PLUG_IN)
    assert regime_of(kappa) == near.regime == "CRITICAL"
    assert near.gamma == 2.0
    for n in (10, 1000, 10**6):
        scales = (near.local_time_scale(n), near.return_time_scale(n),
                  near.range_error_scale(n))
        assert all(math.isfinite(s) and s > 0 for s in scales)
        assert scales == (crit.local_time_scale(n), crit.return_time_scale(n),
                          crit.range_error_scale(n))
        assert near.range_error_scale(n) == n**2 / math.log(n)


def test_scales_off_critical():
    sub = Constants(kappa=1.5, **PLUG_IN)
    assert sub.regime == "SUBDIFFUSIVE" and sub.gamma == 1.5
    assert sub.range_error_scale(100) == 100**1.5
    diff = Constants(kappa=3.0, c0=0.4)
    assert diff.regime == "DIFFUSIVE" and diff.gamma == 2.0
    assert diff.local_time_scale(100) == math.sqrt(0.4 * 100)
    assert diff.return_time_scale(100) == 100**2 / 0.4
    assert diff.range_error_scale(100) == 100.0**2
    # a misspelt constant is refused, and one not given needs a law to compute it
    with pytest.raises(TypeError, match="C_Inf"):
        Constants(kappa=3.0, C_Inf=0.4)
    with pytest.raises(LookupError, match="c0"):
        Constants(kappa=3.0).local_time_scale(100)


def test_w_hat_batch_bytes_do_not_depend_on_the_chunking():
    """W for 40 environments in one call, which reuses one walker buffer,
    equals 40 one-seed calls byte for byte."""
    seeds = trial_seeds(20260814, "theorem1", 40)[0]
    law = make_two_point(0.068)
    one_call = w_hat_batch(law, seeds)
    per_seed = np.concatenate([w_hat_batch(law, seeds[i : i + 1]) for i in range(40)])
    assert one_call.tobytes() == per_seed.tobytes()


SUB_CONSTS = Constants(kappa=1.5920671652485041, C_inf=0.10078720884476033,
                       c_inf_bold=0.23048901549232143, c_kappa=1.4549607799294266)


def test_theorem1_cuts_past_z_budget_and_records_bias_bound(monkeypatch):
    """With Z_BUDGET lowered until trials are cut, each censored trial's
    partial T already exceeds Z_BUDGET w^gamma b_p at every grid point it
    misses, it is +inf there and at every later grid point, and the
    verdict's bias bound is n_censored e^{-lambda_min Z_BUDGET} / n_trials."""
    monkeypatch.setattr(experiments, "Z_BUDGET", 0.5)
    law = make_two_point(0.068)
    lambdas, p_grid, n = (0.5, 1.0), (40, 50), 40
    out = theorem1_campaign(law, SUB_CONSTS, 3, n_trials=n, p_grid=p_grid, lambdas=lambdas)
    v = out["verdicts"][0]
    w = w_hat_batch(law, trial_seeds(3, "theorem1", n)[0])
    for j, p in enumerate(p_grid):
        censored = np.isinf(out["z"][p])
        depth = out["T"][:, j] / (w**SUB_CONSTS.gamma * SUB_CONSTS.return_time_scale(p))
        assert (depth[censored] > 0.5).all()
        assert np.allclose(out["z"][p][~censored], depth[~censored])
    cut = [np.isinf(out["z"][p]) for p in p_grid]
    assert (cut[1] >= cut[0]).all() and cut[0].any()
    assert 0 < v["n_censored"] == cut[-1].sum() < n
    assert v["censor_bias_bound"] == v["n_censored"] * math.exp(-lambdas[0] * 0.5) / n
    assert "min_cut_depth" not in v


def test_theorem1_runs_no_walk(monkeypatch):
    """theorem1 reads T^p off sampled count trees: the walk kernel is never
    called. Its trials are cut only past Z_BUDGET, T^p = 2 sum N - p has the
    parity of p, and every increment of T is drawn on its trial's own
    environment: it grows with that environment's W (rank correlation; about
    0 if rows and environments were mismatched)."""
    def refuse(*args, **kwargs):
        raise AssertionError("theorem1 called the walk kernel")

    monkeypatch.setattr(kernel, "run_walk", refuse)
    monkeypatch.setattr(kernel, "run_walks", refuse)
    law, p_grid, n = make_two_point(0.068), (21, 50), 128
    out = theorem1_campaign(law, SUB_CONSTS, 3, 2, n_trials=n, p_grid=p_grid)
    v = out["verdicts"][0]
    assert v["censor_bias_bound"] == v["n_censored"] * math.exp(-0.5 * Z_BUDGET) / n
    T = out["T"]
    assert (T % 2 == np.array(p_grid) % 2).all() and (T >= p_grid).all()
    w = w_hat_batch(law, trial_seeds(3, "theorem1", n)[0])
    for increment in (T[:, 0], T[:, 1] - T[:, 0]):
        assert sps.spearmanr(increment, w).statistic > 0.25


def test_corollary_without_two_hit_grid_points_fails_with_reason():
    """Two walkers return at 2n+1 only at n = 100, so no slope can be
    fitted: the verdict has a null value and CI, fails, names the grid
    points without a hit and stays strict JSON."""
    law = make_two_point(0.068)
    out = corollary_campaign(law, solve_kappa(law), 0, n_walkers=2,
                             n_grid=(100, 1000, 10000))
    assert [r["count"] for r in out["rows"]] == [1, 0, 0]
    (v,) = out["verdicts"]
    assert (v["value"], v["ci"], v["pass"]) == (None, None, False)
    assert v["reason"] == "no hit at n in [1000, 10000]"
    assert out["fit"] is None
    json.dumps(v, allow_nan=False)


@pytest.mark.parametrize("master,experiment", [(7, "theorem2"), (2**64 + 3, "corollary")])
@pytest.mark.parametrize("n", [0, 1, 500])
def test_trial_seeds_equal_per_trial_derive_seed(master, experiment, n):
    env, wlk = trial_seeds(master, experiment, n)
    assert env.dtype == wlk.dtype == np.uint64
    assert env.tolist() == [derive_seed(master, experiment, t, "env") for t in range(n)]
    assert wlk.tolist() == [derive_seed(master, experiment, t, "walk") for t in range(n)]


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_map_trials_runs_each_trial_once(threads):
    """The workers share one range iterator: with the interpreter switching
    threads every microsecond and more workers than cores, every trial
    still runs exactly once. An exception in a trial stops the call."""
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        experiments._map_trials(seen.append, 20000, threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(20000))

    def fail(t):
        if t == 7:
            raise ValueError("trial 7")

    with pytest.raises(ValueError, match="trial 7"):
        experiments._map_trials(fail, 50, threads)


def test_map_trials_runs_its_calls_at_once():
    """At threads=2 both trials run at the same time: each waits on one
    two-party barrier, which opens only once both have reached it, so a
    runner that made one call at a time would break it (a timeout of 20 s,
    which only a stalled machine reaches)."""
    barrier = threading.Barrier(2, timeout=20)
    experiments._map_trials(lambda t: barrier.wait(), 2, 2)
    assert barrier.n_waiting == 0 and not barrier.broken


def test_forest_moments_agree_with_numpy_on_the_raw_sums():
    """At kappa > 4 (constant bias 2, where kappa is infinite) the moment
    rows of forest-identities come from the exact power sums of its draws;
    numpy on the arrays of the same draws gives the means bit for bit, and
    the standard errors, sigma1_sq and sigma1_sq_se within 1e-12 relative."""
    law, n, seed = make_constant_bias(2.0), 20_000, 3
    assert solve_kappa(law) > 4
    out = experiments.forest_identities_campaign(law, solve_kappa(law), seed, n_trees=5,
                                                 n_sums=n)
    rows = {r["statistic"]: r["value"] for r in out["rows"]}
    rng = kernel.PCG64(derive_seed(seed, "forest-identities", 0, "sums"))
    pairs = rng.integers(0, 2**64, np.empty((n, 2), dtype=np.uint64))
    sums = kernel.count_trees(law.tables(), pairs[:, 0], pairs[:, 1], 1, prune=True)[0]
    nu, nu_t, B = sums.astype(np.float64)
    for name, x in (("b", B), ("nu", nu), ("nu_tilde", nu_t)):
        assert rows[f"{name}_mean"] == x.mean()
        assert rows[f"{name}_se"] == pytest.approx(x.std(ddof=1) / math.sqrt(n), rel=1e-12)
    var = B.var(ddof=1)
    m4 = ((B - B.mean()) ** 4).mean()
    assert rows["sigma1_sq"] == pytest.approx(var, rel=1e-12)
    assert rows["sigma1_sq_se"] == pytest.approx(math.sqrt(max(m4 - var**2, 0.0) / n),
                                                 rel=1e-12)
