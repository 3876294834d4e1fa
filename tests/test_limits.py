"""Reference limit laws: transform evaluators, stable paths, constants."""

import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from gwalk import law as law_mod
from gwalk import limits
from gwalk.env import discounted_sums_batch
from gwalk.kernel import PCG64
from gwalk.law import make_constant_bias, make_two_point
from gwalk.limits import (
    ML_LAMBDA_MAX,
    LimitsError,
    estimate_c_kappa,
    estimate_constant,
    estimate_discounted_moments,
    hit_laplace,
    ml_laplace,
)
from gwalk.stats import bootstrap_ci
from oracles import sample_stable_increments, sample_stable_path_functional

EXPECTED = json.loads(
    (Path(__file__).parent / "expected" / "constants.json").read_text()
)

SUB = make_two_point(0.068)


def test_ml_laplace_matches_frozen_tables():
    for g_key, table in EXPECTED["ml"].items():
        gamma = float(g_key)
        for l_key, want in table.items():
            got = ml_laplace(gamma, float(l_key))
            assert abs(got - want) < 1e-10, (g_key, l_key)


@pytest.mark.parametrize("gamma", [1.3, 1.5920671652485041])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_ml_laplace_matches_mpmath_series(gamma, lam):
    # lam <= 2 stays in float64, lam >= 5 exercises the mpmath rerun
    want = oracles.ml_series_mp(gamma, lam)
    assert abs(ml_laplace(gamma, lam) - float(want)) < 1e-10


def test_ml_laplace_gamma2_closed_form():
    for l_key, want in EXPECTED["gauss_sup"].items():
        got = ml_laplace(2.0, float(l_key))
        assert abs(got - want) < 1e-12
    for lam in (0.25, 1.75, 7.0):
        assert abs(ml_laplace(2.0, lam) - float(oracles.gauss_sup_laplace_mp(lam))) < 1e-12


def test_ml_laplace_domain_and_range_errors():
    assert ml_laplace(1.5, 0.0) == 1.0
    with pytest.raises(LimitsError) as err:
        ml_laplace(1.0, 1.0)
    assert err.value.code == "DOMAIN"
    with pytest.raises(LimitsError):
        ml_laplace(2.5, 1.0)
    with pytest.raises(LimitsError):
        ml_laplace(1.5, -0.1)
    with pytest.raises(LimitsError) as err:
        ml_laplace(1.5, ML_LAMBDA_MAX + 1)
    assert err.value.code == "RANGE"


def test_hit_laplace_forms():
    assert abs(hit_laplace(2.0, 1.0, 1.0) - EXPECTED["hit"]["exp_minus_sqrt2"]) < 1e-12
    for gamma, alpha, lam in [(1.3, 0.7, 2.0), (1.9, 2.0, 0.3)]:
        want = math.exp(-alpha * lam ** (1.0 / gamma))
        assert hit_laplace(gamma, alpha, lam) == pytest.approx(want, rel=1e-14)
    # passage-level scaling: tau_{alpha s} equals s^gamma tau_alpha in law
    g, a, lam, s = 1.6, 1.0, 0.8, 1.7
    assert hit_laplace(g, a * s, lam) == pytest.approx(
        hit_laplace(g, a, s**g * lam), rel=1e-14
    )
    with pytest.raises(LimitsError):
        hit_laplace(1.5, -1.0, 1.0)
    with pytest.raises(LimitsError):
        hit_laplace(0.9, 1.0, 1.0)


def test_stable_increment_transform():
    """E[e^{lam X}] = e^{lam^gamma} pins scale and skew of the generator."""
    rng = np.random.default_rng(31)
    for gamma in (1.3, 1.6, 2.0):
        x = sample_stable_increments(gamma, 200_000, rng)
        lam = 0.7
        vals = np.exp(lam * x)
        want = math.exp(lam**gamma)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - want) < 4 * se, gamma


def test_stable_increments_no_positive_jumps():
    rng = np.random.default_rng(32)
    x = sample_stable_increments(1.3, 200_000, rng)
    # totally negatively skewed: huge values only happen on the left
    assert x.min() < -50
    assert x.max() < 20


def test_stable_path_sup_matches_transform():
    rng = np.random.default_rng(33)
    lam = 1.0
    sup = sample_stable_path_functional(1.6, 1.0, "SUP", 400, 20000, rng)
    emp = np.exp(-lam * sup).mean()
    ref = ml_laplace(1.6, lam)
    se = np.exp(-lam * sup).std(ddof=1) / math.sqrt(sup.size)
    # the grid sup is biased low, so the transform is biased high
    assert emp > ref - 4 * se
    assert emp - ref < 0.02 + 4 * se
    # gamma = 2 grid paths follow sqrt(2) B, the series-limit convention
    sup2 = sample_stable_path_functional(2.0, 1.0, "SUP", 400, 20000, rng)
    emp2 = np.exp(-lam * sup2).mean()
    ref2 = ml_laplace(2.0, math.sqrt(2.0) * lam)
    se2 = np.exp(-lam * sup2).std(ddof=1) / math.sqrt(sup2.size)
    assert emp2 > ref2 - 4 * se2
    assert emp2 - ref2 < 0.02 + 4 * se2


def test_stable_path_hit_matches_transform():
    rng = np.random.default_rng(34)
    lam = 1.0
    hit = sample_stable_path_functional(
        1.6, 3.0, "HIT", 600, 20000, rng, alpha=1.0
    )
    vals = np.exp(-lam * np.minimum(hit, 1e300))
    vals[np.isinf(hit)] = 0.0
    ref = hit_laplace(1.6, 1.0, lam)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    # grid passage is late, never early; censoring at t=3 also pulls down
    assert vals.mean() < ref + 4 * se
    assert ref - vals.mean() < 0.03 + 4 * se


def test_discounted_moments_constant_bias_exact():
    """D = 2 almost surely, so C_inf = 1/4 and bold c_inf = 1/2 exactly."""
    law = make_constant_bias(2.0)
    est = estimate_discounted_moments(law, 150_000, 1e-10, PCG64(35))
    assert est["c_inf_bold"] == pytest.approx(0.5, abs=1e-9)
    assert est["C_inf"] == pytest.approx(0.25, abs=1e-9)
    lo, hi = est["C_inf_ci"]
    assert lo == pytest.approx(0.25, abs=1e-8)
    assert hi == pytest.approx(0.25, abs=1e-8)
    assert sorted(est) == ["C_inf", "C_inf_ci", "c_inf_bold", "c_inf_bold_ci"]


def test_discounted_moment_cis_agree_with_the_bootstrap(monkeypatch):
    """The normal CIs of C_inf and bold c_inf (mean +- Z95 SE) are centred on
    the estimates, and on 20,000 sums of the subdiffusive law their widths
    are within 15% of the percentile bootstrap's on the same sums."""
    drawn = []

    def record(*args):
        drawn.append(discounted_sums_batch(*args))
        return drawn[-1]

    monkeypatch.setattr(limits, "discounted_sums_batch", record)
    est = estimate_discounted_moments(SUB, 20_000, 1e-12, PCG64(36))
    inv = 1.0 / np.concatenate(drawn)
    assert inv.size == 20_000
    for name, stat in (("C_inf", lambda s: (s**2).mean()), ("c_inf_bold", lambda s: s.mean())):
        lo, hi = est[f"{name}_ci"]
        assert est[name] - lo == pytest.approx(hi - est[name], rel=1e-9)
        b_lo, b_hi = bootstrap_ci(inv, stat, seed=37)
        assert hi - lo == pytest.approx(b_hi - b_lo, rel=0.15)


def test_discounted_moments_hold_two_arrays_of_n(monkeypatch):
    """Over many chunks, the traced peak of the moments of n sums stays under
    two arrays of n values (1/D, then 1/D^2, and the standard error's
    scratch) plus the peak of one chunk's draw: holding the chunks, their
    concatenation, 1/D and 1/D^2 at once would take four arrays."""
    n, chunk = 50_000, 100
    monkeypatch.setattr("gwalk.excursion.SAMPLE_CHUNK", chunk)
    tracemalloc.start()
    try:
        discounted_sums_batch(SUB, chunk, 1e-12, PCG64(7))
        _, one_chunk = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        estimate_discounted_moments(SUB, n, 1e-12, PCG64(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n + one_chunk


def test_estimate_constant_c0_is_the_exact_sum():
    """c0 comes from the exact pair sum alone: 1 on the constant-bias binary
    tree, and `law._c0_finite_sum` (checked against mpmath in test_law) on
    the diffusive two-point law."""
    bias = make_constant_bias(2.0)
    assert estimate_constant(bias, math.inf, 0, "c0") == {"c0": pytest.approx(1.0, abs=1e-12)}
    diff = make_two_point(0.02)
    kappa = law_mod.solve_kappa(diff)
    assert estimate_constant(diff, kappa, 0, "c0") == {"c0": law_mod._c0_finite_sum(diff)}


def test_estimate_c_kappa_report():
    kappa = law_mod.solve_kappa(SUB)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = estimate_c_kappa(SUB, kappa, n_samples=100_000, seed=4)
    assert out["c_kappa"] > 0
    lo, hi = out["ci"]
    assert lo <= hi
    assert out["n_samples"] == 100_000
    assert len(out["grid"]) >= 4
    ms = [m for m, _ in out["grid"]]
    assert ms == sorted(ms)
    flagged = any("NO_PLATEAU" in str(w.message) for w in caught)
    assert flagged == out["no_plateau"]
    h_lo, h_hi = out["hill"]["ci"]
    assert h_lo < out["hill"]["alpha"] < h_hi


def test_c_kappa_ci_deterministic_per_seed():
    """The histogram bootstrap's CI is a function of the seed: the same seed
    gives the same bits, another seed another CI, and at this size it holds
    the estimate. Fewer than two positive B values raise TOO_FEW."""
    kappa = law_mod.solve_kappa(SUB)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a, b, c = (estimate_c_kappa(SUB, kappa, n_samples=50_000, seed=s) for s in (4, 4, 5))
    assert a["ci"] == b["ci"] and a["ci"] != c["ci"]
    for out in (a, c):
        lo, hi = out["ci"]
        assert lo < out["c_kappa"] < hi
    with pytest.raises(LimitsError) as err:  # seed 4 draws B = (0, 2)
        estimate_c_kappa(SUB, kappa, n_samples=2, seed=4)
    assert err.value.code == "TOO_FEW"
