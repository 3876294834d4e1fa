"""Excursion trees: branching sampler, regeneration sets, hypothesis sums."""

import math

import numpy as np
import pytest

from gwalk.env import MarkedTree, enumerate_truncated
from gwalk.excursion import (
    _nb_failures_batch,
    extract_regen,
    hypothesis_sums_batch,
    sample_children_counts,
    sample_excursion_tree,
)
from gwalk.law import make_constant_bias, make_two_point
from gwalk.oracle import FiniteChain
from gwalk.walk import StepBudgetExceeded

import oracles

SUB = make_two_point(0.068)
CB = make_constant_bias(2.0)


def test_nb_failures_small_k_mean():
    rng = np.random.default_rng(5)
    k, p = 2, 0.5
    draws = _nb_failures_batch(np.full(20000, k), p, rng)
    want = k * (1 - p) / p
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - want) < 4 * se


def test_nb_failures_large_k_mean():
    # k >= 64 exercises the Gamma-Poisson mixture route
    rng = np.random.default_rng(6)
    k, p = 100, 0.6
    draws = _nb_failures_batch(np.full(20000, k), p, rng)
    want = k * (1 - p) / p
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - want) < 4 * se


def test_children_counts_total_pmf():
    """Total offspring count is negative binomial; split is multinomial."""
    rng = np.random.default_rng(7)
    k, p_back = 3, 0.4
    pc = (0.36, 0.24)
    n = 20000
    draws = np.array(
        [sample_children_counts(k, p_back, pc, rng) for _ in range(n)]
    )
    totals = draws.sum(axis=1)
    for m in range(8):
        want = oracles.nb_failures_pmf(m, k, p_back)
        emp = (totals == m).mean()
        se = math.sqrt(want * (1 - want) / n)
        assert abs(emp - want) < 4 * se + 1e-12
    # conditional split proportions
    share = draws[:, 0].sum() / totals.sum()
    assert abs(share - 0.6) < 0.02


def test_children_counts_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_children_counts(1, 0.5, (0.3,), rng)  # sums to 0.8
    with pytest.raises(ValueError):
        sample_children_counts(0, 0.5, (0.5,), rng)
    for p_back, pc in [(math.nan, (0.5,)), (0.5, (math.nan,)), (0.5, (math.inf, -math.inf)),
                       (1.5, (-0.5,)), (-0.5, (1.5,))]:
        with pytest.raises(ValueError):
            sample_children_counts(1, p_back, pc, rng)
    assert sample_children_counts(4, 1.0, (), rng) == []


def test_excursion_tree_invariants():
    rng = np.random.default_rng(11)
    tree = MarkedTree(SUB, 13, depth_cap=6)
    t = sample_excursion_tree(tree, 5, rng, keep_env_ids=True)
    assert t.root_count == 5 and t.parent[0] == -1 and t.gen[0] == 0
    for x in range(1, len(t)):
        assert t.parent[x] < x
        assert t.gen[x] == t.gen[t.parent[x]] + 1
        assert t.N[x] >= 1
        assert tree.parent[t.env_ids[x]] == t.env_ids[t.parent[x]]
        assert tree.gen[t.env_ids[x]] == t.gen[x]
    assert t.gen.max() <= 6


def test_excursion_tree_ignores_root_potential():
    """The sampler steps by the law's tables, not by e^{-V}: a root at
    V = 1000, where e^{-V} underflows, gives the same tree and the same
    generator state as a root at V = 0."""
    out = []
    for v0 in (0.0, 1000.0):
        tree = MarkedTree(SUB, 17)
        tree.V[0] = v0
        rng = np.random.default_rng(19)
        t = sample_excursion_tree(tree, 4, rng)
        out.append((t.parent.tolist(), t.gen.tolist(), t.N.tolist(), rng.random()))
    assert len(out[0][0]) > 1
    assert out[0] == out[1]


def test_direct_sampler_matches_chain_oracle():
    """The branching construction reproduces the walk's edge local times:
    per-excursion means match the Green-matrix oracle at every node."""
    env = enumerate_truncated(SUB, 314, 4)
    chain = FiniteChain({"parent": env["parent"], "V": env["V"]})
    want = chain.expected_edge_counts()
    tree = env["tree"]  # grown in BFS order, so ids line up with the arrays
    rng = np.random.default_rng(15)
    n = 20000
    sums = np.zeros(chain.n)
    sq = np.zeros(chain.n)
    for _ in range(n):
        t = sample_excursion_tree(tree, 1, rng, keep_env_ids=True)
        np.add.at(sums, t.env_ids, t.N)
        np.add.at(sq, t.env_ids, t.N.astype(np.float64) ** 2)
    mean = sums / n
    var = sq / n - mean**2
    z = (mean - want) / np.sqrt(np.maximum(var, 1e-12) / n)
    assert np.abs(z).max() < 4.5  # 31 simultaneous comparisons


def test_extract_regen_matches_naive():
    rng = np.random.default_rng(21)
    tree = MarkedTree(SUB, 22, depth_cap=8)
    for _ in range(200):
        t = sample_excursion_tree(tree, 3, rng)
        for level in (0, 1, 2):
            got = extract_regen(t, level)
            want = oracles.regen_ids_naive(t.parent, t.gen, t.N, level)
            assert list(got.ids) == want
            assert got.cardinal == len(want)
            assert got.level == level


def test_prune_level_preserves_regen_law():
    """Pruning below count-1 nodes above the cut level leaves the law of
    the extracted set untouched (the test is distributional: the pruned
    sampler consumes its generator differently)."""
    tree = MarkedTree(SUB, 33, depth_cap=8)
    for level in (0, 2):
        n = 4000
        full_rng = np.random.default_rng(1000 + level)
        pruned_rng = np.random.default_rng(2000 + level)
        a = np.empty(n)
        b = np.empty(n)
        for i in range(n):
            a[i] = extract_regen(
                sample_excursion_tree(tree, 2, full_rng), level
            ).cardinal
            b[i] = extract_regen(
                sample_excursion_tree(tree, 2, pruned_rng, regen_prune_level=level),
                level,
            ).cardinal
        se = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
        assert abs(a.mean() - b.mean()) < 4 * se


def test_hypothesis_sums_exact_moments_constant_bias():
    """E[B] = 1 for any admissible law; on the lambda = 2 tree the variance
    has the closed form 2 c0^2 / C_inf = 8."""
    rng = np.random.default_rng(8)
    out = hypothesis_sums_batch(CB, 10**6, rng)
    B = out["B"].astype(np.float64)
    se = B.std(ddof=1) / math.sqrt(B.size)
    assert abs(B.mean() - 1.0) < 4 * se
    v = B.var(ddof=1)
    m4 = ((B - B.mean()) ** 4).mean()
    se_v = math.sqrt(max(m4 - v**2, 0.0) / B.size)
    assert abs(v - 8.0) < 4 * se_v
    # pointwise structure: B counts a subset of the support, nu dominates
    assert (out["B"] <= out["nu_tilde"]).all()
    assert (out["nu_tilde"] <= out["nu"]).all()


def test_hypothesis_sums_match_per_tree_sampler():
    """Two routes to E[B]: the batched annealed sampler and per-environment
    trees fed through the regeneration extractor."""
    rng = np.random.default_rng(9)
    out = hypothesis_sums_batch(CB, 20000, rng)
    Bb = out["B"].astype(np.float64)
    per = np.empty(4000)
    for i in range(per.size):
        t = MarkedTree(CB, i)
        et = sample_excursion_tree(t, 1, rng, regen_prune_level=0)
        per[i] = extract_regen(et, 0).cardinal
    se = math.sqrt(Bb.var(ddof=1) / Bb.size + per.var(ddof=1) / per.size)
    assert abs(Bb.mean() - per.mean()) < 4 * se


def test_sampler_node_budget():
    rng = np.random.default_rng(3)
    tree = MarkedTree(SUB, 44)
    with pytest.raises(StepBudgetExceeded):
        sample_excursion_tree(tree, 500, rng, node_budget=10)
