"""Excursion trees: the level-batched sampler, its pruning, its budget, the
hypothesis sums, and the return times it encodes against kernel walks.

The law, laziness, truncation and pruning are checked on the numpy
reference `oracles.excursion_levels`, which the library's sampler matches
byte for byte (tests/test_count_trees.py); the return times are checked on
the library's sampler itself."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from gwalk import excursion, kernel
from gwalk._rng import child_key
from gwalk.env import MarkedTree, enumerate_truncated
from gwalk.excursion import hypothesis_sums_batch, sample_excursion_tree
from gwalk.forest import StepBudgetExceeded, sample_typed_forest
from gwalk.law import make_constant_bias, make_mark_law, make_two_point
from gwalk.oracle import FiniteChain

import oracles
from oracles import excursion_levels

SUB = make_two_point(0.068)
CB = make_constant_bias(2.0)


def _levels(levels, depth):
    """The first depth + 1 generations as one forest: (row, parent, gen, N),
    parent indexing the concatenation."""
    parts = [lv for _, lv in zip(range(depth + 1), levels)]
    sizes = [lv.row.size for lv in parts]
    start = np.cumsum(sizes) - sizes
    parent = [parts[0].parent] + [lv.parent + start[g] for g, lv in enumerate(parts[1:])]
    return (
        np.concatenate([lv.row for lv in parts]),
        np.concatenate(parent),
        np.repeat(np.arange(len(parts)), sizes),
        np.concatenate([lv.N for lv in parts]),
    )


def test_children_counts_total_pmf():
    """The children counts are negative multinomial: the total is negative
    binomial, and (X_0, X_1) has the joint pmf
    Gamma(k+i+j) / (Gamma(k) i! j!) 0.4^k 0.36^i 0.24^j.

    One atom with child weights 0.9 and 0.6: p_back = 1 / (1 + 1.5) = 0.4,
    the cells are 0.9 / 2.5 and 0.6 / 2.5, and the split is (0.6, 0.4).
    k = 100 puts the total's mass far from 0."""
    law = make_mark_law([(1.0, (-math.log(0.9), -math.log(0.6)))])
    p_back, cells, n = 0.4, (0.36, 0.24), 20000
    seeds = np.arange(n, dtype=np.uint64)

    def close(emp, want):
        return abs(emp - want) < 4 * math.sqrt(want * (1 - want) / n) + 1e-12

    for k, totals_at in ((3, range(8)), (100, range(110, 200, 10))):
        levels = excursion_levels(law, seeds, k, np.random.default_rng(7))
        roots = next(levels)
        assert (roots.N == k).all()
        kids = next(levels)
        first = kids.key == np.array(
            [child_key(int(x), 0) for x in roots.key[kids.parent]], dtype=np.uint64
        )
        x0 = np.bincount(kids.row[first], weights=kids.N[first], minlength=n)
        x1 = np.bincount(kids.row[~first], weights=kids.N[~first], minlength=n)
        totals = x0 + x1
        for m in totals_at:
            assert close((totals == m).mean(), oracles.nb_failures_pmf(m, k, p_back))
        if k == 3:
            for i in range(4):
                for j in range(4):
                    want = oracles.negative_multinomial_pmf((i, j), k, p_back, cells)
                    assert close(((x0 == i) & (x1 == j)).mean(), want)
        assert abs(x0.sum() / totals.sum() - 0.6) < 0.02


def test_children_counts_follow_ragged_atoms():
    """Atoms with 0, 1 and 3 children: every child drawn is a child of its
    parent's atom, as MarkedTree grows it, and child i's mean count at
    N = k is k e^{-a_i}, its variance k e^{-a_i} (1 + e^{-a_i})."""
    law = make_mark_law([(0.3, ()), (0.3, (0.5,)), (0.4, (-0.2, 0.3, 1.0))])
    k, n = 3, 6000
    seeds = np.arange(n, dtype=np.uint64)
    levels = excursion_levels(law, seeds, k, np.random.default_rng(8))
    next(levels)
    kids = next(levels)
    slot, counts = {}, {}
    for r in range(n):
        env = MarkedTree(law, r)
        children = env.grow(0)
        marks = tuple(env.mark[c] for c in children)
        counts.setdefault(marks, []).append(np.zeros(len(marks)))
        for j, c in enumerate(children):
            slot[(r, env.key[c])] = (counts[marks][-1], j)
    for r, key, N in zip(kids.row, kids.key, kids.N):
        x, j = slot[(int(r), int(key))]  # a KeyError is a child past the atom
        x[j] += N
    assert sorted(map(len, counts)) == [0, 1, 3]
    for marks, rows in counts.items():
        x = np.array(rows).reshape(len(rows), len(marks))
        for j, a in enumerate(marks):
            w = math.exp(-a)
            se = math.sqrt(k * w * (1 + w) / len(rows))
            assert abs(x[:, j].mean() - k * w) < 4 * se


def test_children_counts_validation():
    rng = kernel.PCG64(0)
    for counts in (0, -1, [1, 0]):
        with pytest.raises(ValueError, match="root counts must be >= 1"):
            kernel.count_trees(SUB.tables(), [1, 2], counts, rng)
    with pytest.raises(ValueError):
        hypothesis_sums_batch(SUB, 10, rng, p=0)


def test_excursion_tree_invariants():
    """Each sampled node is a distinct node of its row's keyed environment,
    reached from its parent's node, as MarkedTree grows it."""
    rng = kernel.PCG64(11)
    seeds = np.array([13, 14, 15, 16], dtype=np.uint64)
    t = sample_excursion_tree(SUB, seeds, 5, rng, budget=60)
    n = len(t)
    assert n == t.row.size == t.parent.size == t.key.size == t.N.size
    roots = np.flatnonzero(t.parent < 0)
    assert t.row[roots].tolist() == np.flatnonzero(~t.over).tolist()
    assert (t.N[roots] == 5).all()
    envs = [MarkedTree(SUB, int(s)) for s in seeds]
    env_id = np.zeros(n, dtype=np.int64)
    for x in range(n):
        env, pa = envs[t.row[x]], t.parent[x]
        if pa < 0:
            assert int(t.key[x]) == env.key[0]
            continue
        assert pa < x and t.row[x] == t.row[pa] and t.N[x] >= 1
        kids = [c for c in env.grow(env_id[pa]) if env.key[c] == int(t.key[x])]
        assert len(kids) == 1
        env_id[x] = kids[0]
    for r in range(seeds.size):
        ids = env_id[t.row == r]
        assert np.unique(ids).size == ids.size
    sizes = np.bincount(t.row, minlength=seeds.size)
    sums = np.bincount(t.row, weights=t.N, minlength=seeds.size)
    assert t.over.any() and (~t.over).sum() >= 2
    assert (sizes[t.over] == 0).all() and (sums[~t.over] <= 60).all()


def test_direct_sampler_matches_chain_oracle():
    """The branching construction reproduces the walk's edge local times:
    per-excursion means match the Green-matrix oracle at every node.

    Every row grows on environment 314; counts at depth <= 4 depend only on
    their ancestors, so the sampler stops after generation 4 and its nodes
    are matched to the truncated environment by key."""
    env = enumerate_truncated(SUB, 314, 4)
    chain = FiniteChain({"parent": env["parent"], "V": env["V"]})
    want = chain.expected_edge_counts()
    ids = {k: i for i, k in enumerate(env["key"].tolist())}
    n = 20000
    rng = np.random.default_rng(15)
    levels = excursion_levels(SUB, np.full(n, 314, dtype=np.uint64), 1, rng)
    sums = np.zeros(chain.n)
    sq = np.zeros(chain.n)
    for _, lv in zip(range(5), levels):
        at = np.array([ids[int(k)] for k in lv.key], dtype=np.int64)
        np.add.at(sums, at, lv.N)
        np.add.at(sq, at, lv.N.astype(np.float64) ** 2)
    mean = sums / n
    var = sq / n - mean**2
    z = (mean - want) / np.sqrt(np.maximum(var, 1e-12) / n)
    assert np.abs(z).max() < 4.5  # 31 simultaneous comparisons


def test_prune_level_preserves_regen_law():
    """Not expanding count-1 nodes below the root leaves the law of the
    level-0 regeneration set untouched: up to generation 8, the count-1
    nodes of the pruned tree match the brute-force regeneration filter on
    the full tree, in law (the two consume their generators differently)."""
    n, depth = 4000, 8
    seeds = np.full(n, 33, dtype=np.uint64)
    full = _levels(excursion_levels(SUB, seeds, 2, np.random.default_rng(1000)), depth)
    row, parent, gen, N = full
    a = np.bincount(row[oracles.regen_ids_naive(parent, gen, N, 0)], minlength=n)
    pruned = _levels(
        excursion_levels(SUB, seeds, 2, np.random.default_rng(2000), prune=True), depth
    )
    row, _, gen, N = pruned
    b = np.bincount(row[(gen > 0) & (N == 1)], minlength=n)
    se = math.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
    assert abs(a.mean() - b.mean()) < 4 * se
    for k in (0, 1, 2):
        pa, pb = (a == k).mean(), (b == k).mean()
        assert abs(pa - pb) < 4 * math.sqrt((pa * (1 - pa) + pb * (1 - pb)) / n)


def test_hypothesis_sums_exact_moments_constant_bias():
    """E[B] = 1 for any admissible law, and E[B] = p after p excursions; on
    the lambda = 2 tree the variance has the closed form
    2 c0^2 / C_inf = 8."""
    rng = kernel.PCG64(8)
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
    B5 = hypothesis_sums_batch(CB, 10**5, rng, p=5)["B"].astype(np.float64)
    assert abs(B5.mean() - 5.0) < 4 * B5.std(ddof=1) / math.sqrt(B5.size)


def test_hypothesis_sums_run_in_chunks(monkeypatch):
    """Samples run SAMPLE_CHUNK at a time, each chunk drawing its seeds and
    trees from the one rng in turn: a call equals the concatenation of
    one-chunk calls on the same generator."""
    monkeypatch.setattr(excursion, "SAMPLE_CHUNK", 100)
    whole = hypothesis_sums_batch(SUB, 250, kernel.PCG64(4), p=2)
    rng = kernel.PCG64(4)
    parts = [hypothesis_sums_batch(SUB, n, rng, p=2) for n in (100, 100, 50)]
    for key, x in whole.items():
        assert np.array_equal(x, np.concatenate([part[key] for part in parts]))


def test_hypothesis_sums_match_per_tree_sampler():
    """Two routes to the first-generation sums: the pruned batch, and
    oracles.hypothesis_check's g1 = 1 reduction over whole typed trees. The
    typed trees are size-truncated at the node budget, a small bias on the
    lambda = 2 tree."""
    rng = kernel.PCG64(9)
    rep = oracles.hypothesis_check(sample_typed_forest(CB, 1000, rng, budget=4 * 10**4))
    out = hypothesis_sums_batch(CB, 20000, rng)
    for name, key in (("b", "B"), ("nu_tilde", "nu_tilde")):
        x = out[key].astype(np.float64)
        se = math.sqrt(rep[f"{name}_se"] ** 2 + x.var(ddof=1) / x.size)
        assert abs(rep[f"{name}_mean"] - x.mean()) < 4 * se


def test_sampler_node_budget():
    """The budget bounds a row's sum of N, root included (tau^p / 2): the row
    stops growing after the generation that passes it, so what it yields is
    a prefix of its uncut tree. Budgets broadcast per row like root counts."""
    full = list(excursion_levels(SUB, [44], 500, np.random.default_rng(3)))
    sums = np.cumsum([lv.N.sum() for lv in full])
    assert len(full) > 10
    for b in (499, 500, int(sums[3]), int(sums[-1]) - 1, int(sums[-1])):
        cut = list(excursion_levels(SUB, [44], 500, np.random.default_rng(3), budget=b))
        assert len(cut) == min(np.searchsorted(sums, b, side="right") + 1, len(full))
        for x, y in zip(cut, full):
            assert np.array_equal(x.key, y.key) and np.array_equal(x.N, y.N)
        t = sample_excursion_tree(SUB, [44], 500, kernel.PCG64(3), budget=b)
        assert t.over.tolist() == [bool(sums[-1] > b)]
        assert len(t) == (0 if sums[-1] > b else sum(lv.N.size for lv in full))
    both = list(excursion_levels(SUB, [44, 44], 500, np.random.default_rng(3),
                                 budget=[499, int(sums[-1])]))
    assert [lv.row.tolist() for lv in both[1:]] == [[1] * lv.N.size for lv in full[1:]]
    assert all(np.array_equal(x.N[x.row == 1], y.N) for x, y in zip(both, full))
    with pytest.raises(StepBudgetExceeded):
        sample_typed_forest(SUB, 50, kernel.PCG64(3), budget=1, max_resample=3)


def _sampler_T(env, p, n, cap, seed):
    """min(T^p, cap) of n sampler rows at root count p on one environment;
    the budget (cap + p + 1) // 2 makes a cut row's T^p exceed cap."""
    sums, _ = kernel.count_trees(SUB.tables(), np.full(n, env, dtype=np.uint64), p,
                                 kernel.PCG64(seed), budget=(cap + p + 1) // 2)
    return np.minimum(2 * sums[0] + p, cap)  # 2 (p + the non-root sum) - p


def _kernel_T(env, p_grid, n):
    """Kernel walks on one environment, walk seeds 10^6 + i: per walk the
    excised clocks at p_grid (0 where the walk stopped short), and the
    excised clock at the cut (-1 when the walk reached max(p_grid)) for
    walks stopped by the step budget."""
    T = np.zeros((n, len(p_grid)), dtype=np.int64)
    cut = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        r = kernel.run_walk(SUB.tables(), env, 10**6 + i, kernel.MODE_CROSSINGS,
                            p_grid[-1], np.asarray(p_grid, dtype=np.int64),
                            budget=10**6)
        T[i, : r["snap_T"].size] = r["snap_T"]
        if r["status"] == kernel.STATUS_BUDGET:
            cut[i] = r["t_ex"]
    return T, cut


def test_sampler_return_time_matches_kernel():
    """On one fixed environment, T^p = 2 sum N - p of sampler rows at root
    count p against kernel walks to the p-th crossing: two-sample KS on T^p
    censored at a common cap (the ROADMAP Baseline check, at seed 12345 and
    p = 20)."""
    env, p, n, cap = 12345, 20, 2000, 5000
    T, cut = _kernel_T(env, [p], n)
    Tk = np.minimum(T[:, 0], cap)
    # a walk cut before the p-th crossing has T^p > its clock at the cut
    assert (cut[cut >= 0] >= cap).all()
    Tk[cut >= 0] = cap
    Ts = _sampler_T(env, p, n, cap, seed=1)
    assert 0.01 < (Ts == cap).mean() < 0.2
    assert sps.ks_2samp(Tk, Ts).pvalue > 0.01


def test_return_time_increments_are_fresh_rows():
    """Additivity in law, the step theorem1 rests on: on a fixed environment
    the kernel's T^{p2} - T^{p1} is distributed as a fresh sampler row at
    root count p2 - p1."""
    env, p1, p2, n, cap = 12345, 10, 30, 2000, 5000
    T, cut = _kernel_T(env, [p1, p2], n)
    # the increment is independent of T^{p1}, so the few walks cut before
    # p1 can be dropped; one cut later has T^{p2} > its clock at the cut
    T, cut = T[T[:, 0] > 0], cut[T[:, 0] > 0]
    assert (cut[cut >= 0] - T[cut >= 0, 0] >= cap).all()
    D = np.minimum(T[:, 1] - T[:, 0], cap)
    D[cut >= 0] = cap
    assert sps.ks_2samp(D, _sampler_T(env, p2 - p1, n, cap, seed=2)).pvalue > 0.01
