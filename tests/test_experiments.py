"""Campaign normalizations (the regime decides the scales, through one
function) and theorem1's record of its censoring."""

import math

import numpy as np
import pytest

from gwalk import kernel
from gwalk.experiments import (
    Constants,
    _kappa_n,
    theorem1_campaign,
    trial_seeds,
    w_hat_batch,
)
from gwalk.law import make_two_point, regime_of
from gwalk.walk import simulate_excursion_grid

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
        scales = (near.local_time_scale(n), near.return_time_scale(n), _kappa_n(kappa, n))
        assert all(math.isfinite(s) and s > 0 for s in scales)
        assert scales == (crit.local_time_scale(n), crit.return_time_scale(n), _kappa_n(2.0, n))


def test_scales_off_critical():
    sub = Constants(kappa=1.5, **PLUG_IN)
    assert sub.regime == "SUBDIFFUSIVE" and sub.gamma == 1.5
    assert _kappa_n(1.5, 100) == 100**1.5
    diff = Constants(kappa=3.0, c0=0.4)
    assert diff.regime == "DIFFUSIVE" and diff.gamma == 2.0
    assert diff.local_time_scale(100) == math.sqrt(0.4 * 100)
    assert diff.return_time_scale(100) == 100**2 / 0.4
    assert _kappa_n(3.0, 100) == 100.0**2


def test_theorem1_records_cut_depth_and_bias_bound(kernel_library, monkeypatch):
    """A step cap far below the Z_BUDGET budget censors trials at small
    normalized depth; the verdict records the smallest cut depth and the
    bias bound it implies, and each censored trial, rerun to its end, lands
    deeper than its cut depth."""
    if kernel_library is not None:
        monkeypatch.setattr(kernel, "run_walk", kernel.load_kernel(kernel_library))
    law = make_two_point(0.068)
    consts = Constants(kappa=1.5920671652485041, C_inf=0.10078720884476033,
                       c_inf_bold=0.23048901549232143, c_kappa=1.4549607799294266)
    lambdas, p_grid, cap, n = (0.5, 1.0), (20, 50), 4000, 40
    out = theorem1_campaign(law, consts, 3, n_trials=n, p_grid=p_grid,
                            lambdas=lambdas, step_cap=cap)
    v = out["verdicts"][0]
    z = out["z"][p_grid[-1]]
    censored = np.flatnonzero(np.isinf(z))
    assert v["n_censored"] == censored.size > 0
    env_seeds, walk_seeds = trial_seeds(3, "theorem1", n)
    w = w_hat_batch(law, env_seeds)
    b_p = consts.return_time_scale(p_grid[-1])
    z_cut = []
    for t in censored:
        again = simulate_excursion_grid(law, int(env_seeds[t]), int(walk_seeds[t]),
                                        p_grid, 10**9)
        assert again["status"] == kernel.STATUS_OK
        z_true = again["snap_T"][-1] / (w[t] ** consts.gamma * b_p)
        cut = (cap - p_grid[-1]) / (w[t] ** consts.gamma * b_p)
        assert z_true > cut
        z_cut.append(cut)
    assert v["min_cut_depth"] >= min(z_cut) and v["min_cut_depth"] < 14.0
    bound = v["censor_bias_bound"]
    assert bound == pytest.approx(
        sum(math.exp(-lambdas[0] * c) for c in z_cut) / n, rel=0.01)
    assert 0.0 < bound <= censored.size / n
