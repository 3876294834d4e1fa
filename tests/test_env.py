"""Environment layer: keyed trees, martingales, size-biased walk sums."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from gwalk import env as env_mod
from gwalk import kernel
from gwalk._rng import child_key, child_key_np, derive_seed, root_key, root_key_np
from gwalk.env import (
    SURVIVE_CAP,
    MarkedTree,
    discounted_sums_batch,
    enumerate_truncated,
    environment_survives,
    level_weights_batch,
    next_level,
    size_biased_increment_law,
)
from gwalk.law import (
    load_law,
    make_constant_bias,
    make_mark_law,
    make_two_point,
    psi_evaluate,
    psi_prime,
)
from gwalk.oracle import hx_array

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SUB = make_two_point(0.068)
DIFF = make_two_point(0.02)

# half the nodes have no children at all, so extinction is possible
EXT = make_mark_law([(0.5, ()), (0.5, (math.log(2.0),) * 4)])
# atoms of 0, 1 and 3 children (the law of test_children_counts_follow_ragged_atoms)
RAGGED = make_mark_law([(0.3, ()), (0.3, (0.5,)), (0.4, (-0.2, 0.3, 1.0))])


def _paths(tree, depth):
    """Map path-from-root tuples to (mark, V), growing BFS as needed."""
    out = {(): (0.0, 0.0)}
    frontier = [((), 0)]
    for _ in range(depth):
        nxt = []
        for path, x in frontier:
            for j, c in enumerate(tree.grow(x)):
                key = path + (j,)
                out[key] = (tree.mark[c], tree.V[c])
                nxt.append((key, c))
        frontier = nxt
    return out


def test_keyed_tree_growth_order_independent():
    t1 = MarkedTree(SUB, 12345)
    p1 = _paths(t1, 4)

    # grow a second copy depth-first before reading it back
    t2 = MarkedTree(SUB, 12345)
    stack = [(0, 0)]
    while stack:
        x, g = stack.pop()
        if g < 4:
            for c in t2.grow(x):
                stack.append((c, g + 1))
    p2 = _paths(t2, 4)

    assert p1 == p2
    t3 = MarkedTree(SUB, 54321)
    assert _paths(t3, 4) != p1


def test_grow_idempotent():
    t = MarkedTree(SUB, 7)
    kids = t.grow(0)
    assert t.grow(0) is kids


def _bfs(tree, depth):
    """The node ids of a MarkedTree grown breadth first, one list per
    generation 0..depth."""
    levels = [[0]]
    for _ in range(depth):
        levels.append([c for x in levels[-1] for c in tree.grow(x)])
    return levels


@pytest.mark.parametrize("law", [RAGGED, EXT], ids=["ragged", "ext"])
def test_next_level_matches_marked_tree(law):
    """Generation by generation, next_level lists every row's environment
    as MarkedTree grows it node by node in BFS order: the same keys, V to
    the last bit, the same parents; a row that dies drops out. The
    concatenated generations of enumerate_truncated are the BFS tree."""
    depth, seeds = 6, np.arange(40, dtype=np.uint64)
    t = law.tables()
    trees = [MarkedTree(law, int(s)) for s in seeds]
    bfs = [_bfs(tree, depth) for tree in trees]
    row, key, V = np.arange(seeds.size), root_key_np(seeds), np.zeros(seeds.size)
    ids = np.zeros(seeds.size, dtype=np.int64)  # MarkedTree id of each node
    for g in range(1, depth + 1):
        row, parent, key, V = next_level(t, row, key, V)
        assert (np.diff(row) >= 0).all() and (np.diff(parent) >= 0).all()
        prev, ids = ids, np.empty(row.size, dtype=np.int64)
        for r, tree in enumerate(trees):
            at = np.flatnonzero(row == r)
            ids[at] = want = bfs[r][g]
            assert len(at) == len(want)
            assert key[at].tolist() == [tree.key[x] for x in want]
            assert V[at].tobytes() == np.array([tree.V[x] for x in want]).tobytes()
            assert prev[parent[at]].tolist() == [tree.parent[x] for x in want]
            assert all(tree.gen[x] == g for x in want)
    dead = np.bincount(row, minlength=seeds.size) == 0
    assert 0 < dead.sum() < seeds.size
    for s, levels, tree in zip(seeds, bfs, trees):
        d = enumerate_truncated(law, int(s), depth)
        order = [x for lv in levels for x in lv]
        assert d["key"].tolist() == [tree.key[x] for x in order]
        assert d["V"].tobytes() == np.array([tree.V[x] for x in order]).tobytes()
        pos = {x: i for i, x in enumerate(order)}
        assert d["parent"].tolist() == [-1] + [pos[tree.parent[x]] for x in order[1:]]
        assert d["gen"].tolist() == [tree.gen[x] for x in order]


@pytest.mark.parametrize("depth", [1, 2, 3, 12])
def test_environment_survives_matches_per_seed_oracle(depth):
    """The batched survival test against a per-seed, per-node breadth-first
    growth, on rows that die, rows that reach the depth and, at depth 12,
    rows that stop at SURVIVE_CAP nodes before it."""
    seeds = [derive_seed(17, "surv-oracle", i, "env") for i in range(200)]
    got = environment_survives(EXT, np.array(seeds, dtype=np.uint64), depth=depth)
    capped = []
    for s, alive in zip(seeds, got):
        tree = MarkedTree(EXT, s)
        assert alive == oracles.survives_naive(tree, depth=depth, cap=SURVIVE_CAP)
        capped.append(np.bincount(tree.gen).max() >= SURVIVE_CAP)
    assert 0 < got.sum() < got.size
    assert (0 < sum(capped) < got.sum()) if depth == 12 else not any(capped)


def test_v_accumulates_marks():
    t = MarkedTree(SUB, 99)
    for x in range(40):
        for c in t.grow(x):
            assert t.parent[c] == x
            assert t.V[c] == pytest.approx(t.V[x] + t.mark[c], abs=1e-15)
    assert t.V[0] == 0.0 and t.parent[0] == -1


def test_hx_matches_direct_path_sum():
    d = enumerate_truncated(SUB, 4242, 5)
    parent, V = d["parent"], d["V"]
    H = hx_array(parent, V)
    for x in range(parent.size):
        chain = [x]
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        v_path = [V[u] for u in reversed(chain)]
        assert H[x] == pytest.approx(oracles.h_direct(v_path), rel=1e-12)


def _level_weight(tree: dict, level: int) -> float:
    """W_level of a fully enumerated tree, straight from its definition."""
    return math.fsum(np.exp(-tree["V"][tree["gen"] == level]))


def test_additive_martingale_level_zero_and_extinct():
    W = level_weights_batch(SUB, np.array([1], dtype=np.uint64), 0)
    assert W.tolist() == [1.0]
    with pytest.raises(ValueError, match="level must be >= 0"):
        level_weights_batch(SUB, np.array([1], dtype=np.uint64), -1)
    # an extinct seed under the extinction law
    dead = np.flatnonzero(~environment_survives(EXT, np.arange(200), depth=12))
    assert dead.size, "no extinct environment found in 200 seeds"
    seed = int(dead[0])
    W = level_weights_batch(EXT, np.array([seed], dtype=np.uint64), 12)
    assert W.tobytes() == np.zeros(1).tobytes()
    assert not (enumerate_truncated(EXT, seed, 12)["gen"] == 12).any()


def test_level_weights_batch_matches_per_tree():
    seeds = np.array(
        [derive_seed(3, "batch-vs-tree", i, "env") for i in range(40)], dtype=np.uint64
    )
    W = level_weights_batch(SUB, seeds, 6)
    assert (W > 0).all()
    for i, s in enumerate(seeds):
        want = _level_weight(enumerate_truncated(SUB, int(s), 6), 6)
        assert W[i] == pytest.approx(want, rel=1e-12)


def test_level_weights_batch_extinction_flags():
    """W > 0 exactly where generation 8 is not empty: a dead environment has
    W = 0.0."""
    seeds = np.array(
        [derive_seed(5, "batch-ext", i, "env") for i in range(200)], dtype=np.uint64
    )
    W = level_weights_batch(EXT, seeds, 8)
    n_dead = 0
    for i, s in enumerate(seeds):
        tree = enumerate_truncated(EXT, int(s), 8)
        assert W[i] == pytest.approx(_level_weight(tree, 8), abs=1e-12)
        assert (W[i] > 0) == (tree["gen"] == 8).any()
        n_dead += not W[i] > 0
    assert 0 < n_dead < 200


# the laws of the parity tests: two_point in both regimes and near the
# critical point, a deterministic tree, extinction and ragged atoms
W_LAWS = {
    "two_point_0.068": SUB,
    "two_point_0.05": make_two_point(0.05),
    "two_point_0.02": DIFF,
    "constant_bias_2": make_constant_bias(2.0),
    "extinction": EXT,
    "ragged": RAGGED,
}


@pytest.mark.parametrize("level", [0, 1, 6, 15])
@pytest.mark.parametrize("name", list(W_LAWS))
def test_level_weights_match_the_breadth_first_reference(name, level):
    """The depth-first walker's W has the bytes of the breadth-first numpy
    reference, dead environments (exactly 0.0) included."""
    law = W_LAWS[name]
    seeds = np.array([derive_seed(19, name, i, "env") for i in range(24)], dtype=np.uint64)
    W = level_weights_batch(law, seeds, level)
    assert W.tobytes() == oracles.level_weights_bfs(law, seeds, level).tobytes()
    if name == "extinction" and level == 15:
        assert (W == 0).any() and (W > 0).any()


def test_level_weights_grow_the_buffer_mid_batch(monkeypatch):
    """Seeds in increasing order of generation size, from generations that
    fit the walker's first buffer to ones that outgrow it twice and more,
    keep the reference's bytes. Each yielded V is a view of the buffer, so
    the buffers' sizes show the growth."""
    level = 18
    seeds = np.array([derive_seed(23, "grow", i, "env") for i in range(40)], dtype=np.uint64)
    t = RAGGED.tables()
    row, key, V = np.arange(seeds.size), root_key_np(seeds), np.zeros(seeds.size)
    for _ in range(level):
        row, _, key, V = next_level(t, row, key, V)
    sizes = np.bincount(row, minlength=seeds.size)
    seeds = seeds[np.argsort(sizes, kind="stable")]
    buffers, walker = [], kernel.level_potentials

    def recording(tables, env_seeds, level):
        for V in walker(tables, env_seeds, level):
            buffers.append(V.base.size)
            yield V

    monkeypatch.setattr(kernel, "level_potentials", recording)
    W = level_weights_batch(RAGGED, seeds, level)
    assert W.tobytes() == oracles.level_weights_bfs(RAGGED, seeds, level).tobytes()
    assert buffers == sorted(buffers) and len(set(buffers)) >= 3
    assert (np.array(buffers) >= np.sort(sizes)).all()
    assert sizes.min() < buffers[0] < sizes.max()


def test_additive_martingale_mean_one():
    """E[W_l] = 1 for every level; checked on a finite-variance law."""
    seeds = np.array(
        [derive_seed(11, "mart-mean", i, "env") for i in range(4000)], dtype=np.uint64
    )
    W = level_weights_batch(DIFF, seeds, 9)
    se = W.std(ddof=1) / math.sqrt(W.size)
    assert abs(W.mean() - 1.0) < 4 * se


def test_environment_survival_probability():
    # extinction probability solves q = (1 + q^4) / 2; survival matches
    q = brentq(lambda t: 0.5 + 0.5 * t**4 - t, 0.0, 0.9)
    n = 400
    seeds = np.array([derive_seed(13, "surv", i, "env") for i in range(n)], dtype=np.uint64)
    p_emp = environment_survives(EXT, seeds).mean()
    p_true = 1.0 - q
    se = math.sqrt(p_true * (1.0 - p_true) / n)
    assert abs(p_emp - p_true) < 4 * se
    # laws with minimum offspring >= 1 never die
    assert environment_survives(SUB, [0, 1]).tolist() == [True, True]


def test_size_biased_increment_law_is_normalized():
    for law in (SUB, DIFF, make_constant_bias(2.0)):
        vals, probs = size_biased_increment_law(law)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs > 0).all()
        marks = {a for _, m in law.atoms for a in m}
        assert set(np.round(vals, 12)) == {round(a, 12) for a in marks}


def test_s_walk_increment_frequencies():
    """Increment law of S: mass p e^{-a} per mark, exactly."""
    vals, probs = size_biased_increment_law(SUB)
    p = 0.068
    # two children, each marked -1 with probability p, size-biased by e^{+1}
    assert probs[vals == -1.0].sum() == pytest.approx(2 * p * math.e, rel=1e-12)
    # mean increment is the negated log-Laplace slope at 1
    assert (vals * probs).sum() == pytest.approx(-psi_prime(SUB, 1.0), rel=1e-12)


def test_discounted_sums_constant_bias_exact():
    # S is the deterministic ramp j*log(2), so D = sum 2^{-j} = 2 exactly
    law = make_constant_bias(2.0)
    rng = np.random.default_rng(1)
    d = discounted_sums_batch(law, 64, 1e-10, rng)
    assert np.allclose(d, 2.0, atol=1e-9)


def _seeded_law():
    """Seven atoms of one to three marks, each mark one of three values,
    calibrated by a shift: equal increments sit both next to each other and
    apart in the increment law, so the runs merge some atoms, not all."""
    rng = np.random.default_rng(2026)
    marks = [-0.5, 0.7, 1.6]
    atoms = [{"p": float(p), "marks": rng.choice(marks, size=rng.integers(1, 4)).tolist()}
             for p in rng.dirichlet(np.ones(7))]
    law = load_law({"atoms": atoms, "calibrate": True})
    vals, _ = size_biased_increment_law(law)
    runs = vals[np.r_[True, vals[1:] != vals[:-1]]]
    assert vals.size > runs.size > np.unique(vals).size
    return law


def _linear_runs_law(runs=64):
    """runs / 2 equal-probability atoms of two marks each, the marks
    linearly spaced, calibrated by a shift: every adjacent pair of
    increments differs, so a uniform meets runs - 1 thresholds."""
    marks = np.linspace(-1.0, 2.0, runs).reshape(-1, 2)
    law = load_law({"atoms": [{"p": 2.0 / runs, "marks": m.tolist()} for m in marks],
                    "calibrate": True})
    vals, _ = size_biased_increment_law(law)
    assert (vals[1:] != vals[:-1]).sum() == runs - 1 >= 40
    return law


SUMS_LAWS = {
    **{path.stem: load_law(json.loads(path.read_text())["law"])
       for path in sorted(CONFIGS.glob("*.json"))},
    "two_point_0.005": make_two_point(0.005),
    "seeded_7_atoms": _seeded_law(),
    "linear_64_runs": _linear_runs_law(),
}


@pytest.mark.parametrize("n", [1, 37, 5000])
@pytest.mark.parametrize("name", sorted(SUMS_LAWS))
def test_discounted_sums_match_the_searchsorted_reference(monkeypatch, name, n):
    """D and the generator's next draw are the reference's bytes, for a
    slice of 7 rows, the default slice and one slice for all: the run
    thresholds pick the increment a binary search of the cumulative law
    picks, and the generator fills the rows in order."""
    law = SUMS_LAWS[name]
    rng = np.random.default_rng(3)
    want = (oracles.discounted_sums_searchsorted(law, n, 1e-12, rng).tobytes(), rng.random())
    for rows in (7, env_mod._SLICE_ROWS, 2**30):
        monkeypatch.setattr(env_mod, "_SLICE_ROWS", rows)
        rng = np.random.default_rng(3)
        d = discounted_sums_batch(law, n, 1e-12, rng)
        assert (d.tobytes(), rng.random()) == want, rows


def _run_tables(name):
    """(thresholds, run values) of a SUMS_LAWS law, as discounted_sums_batch
    builds them; "ties" puts 16 thresholds exactly on uniforms that the
    generator seeded 3 draws first."""
    if name == "ties":
        thr = np.sort(np.random.default_rng(3).random((2, 64))[:, ::8].ravel())
        return thr, np.arange(thr.size + 1.0)
    vals, probs = size_biased_increment_law(SUMS_LAWS[name])
    ends = np.flatnonzero(vals[1:] != vals[:-1])
    return np.cumsum(probs)[ends], vals[np.r_[ends, vals.size - 1]]


@pytest.mark.parametrize("name", ["two_point_sub", "seeded_7_atoms", "linear_64_runs", "ties"])
def test_discount_exponents_match_the_numpy_passes(name):
    """One block of the library's spine walks from a nonzero S equals, byte
    for byte, numpy's draw, binary-search lookup (a uniform on a threshold
    takes the run above it), row cumsum, add S and negate, and leaves the
    generator where rng.random(out=) does: past the first block e^{-S_j}
    falls below D's last place, so only S shows the order of the sums."""
    thr, run_vals = _run_tables(name)
    S0 = np.random.default_rng(1).normal(0.0, 300.0, 50)
    rows = np.random.default_rng(2).permutation(50)[:30]
    for block in (64, 512):
        rng = np.random.default_rng(3)
        c = np.cumsum(run_vals[thr.searchsorted(rng.random((rows.size, block)), side="right")],
                      axis=1) + S0[rows, None]
        want_S = S0.copy()
        want_S[rows] = c[:, -1]
        want = ((-c).tobytes(), want_S.tobytes(), rng.random())
        rng, S, out = np.random.default_rng(3), S0.copy(), np.empty((rows.size, block))
        kernel.discount_exponents(thr, run_vals, S, rows, out, rng)
        assert (out.tobytes(), S.tobytes(), rng.random()) == want, block


def test_discount_exponents_refuses_what_does_not_fit():
    """The library writes S and out in place, so the binding refuses a
    buffer of the wrong dtype, layout or shape, a row outside S and run
    tables that do not pair up, before any draw."""
    thr, vals = np.array([0.5]), np.array([-1.0, 1.0])
    S, out, rows = np.zeros(4), np.empty((2, 8)), np.array([0, 3])
    bad = [(thr, vals, S.astype(np.float32), rows, out),
           (thr, vals, S, rows, np.empty((8, 2)).T),
           (thr, vals, S, rows, np.empty((3, 8))),
           (thr, vals, S, np.array([0, 4]), out),
           (thr, vals, S, np.array([-1, 0]), out),
           (thr, vals[:1], S, rows, out)]
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    for args in bad:
        with pytest.raises(ValueError):
            kernel.discount_exponents(*args, rng)
    assert rng.bit_generator.state == state
    kernel.discount_exponents(thr, vals, S, rows, out, rng)
    assert (S[[1, 2]] == 0).all() and (S[rows] == -out[:, -1]).all()


def test_discounted_sums_scratch_stays_flat():
    """The scratch of one call is one buffer of _SLICE_ROWS x 512 values
    whatever n is: the traced peak of 20000 sums stays under that buffer's
    bytes plus ten arrays of n values, well below a second buffer."""
    n = 20000
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        discounted_sums_batch(SUB, n, 1e-12, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < env_mod._SLICE_ROWS * env_mod._MIN_TERMS * 8 + 10 * 8 * n


def test_discounted_sums_batch_distribution():
    """E[D] = sum_j E[e^{-S_1}]^j = 1 / (1 - e^{psi(2)}) when psi(2) < 0;
    this law has kappa near 4.5, so D has finite variance."""
    law = make_two_point(0.005)
    rng = np.random.default_rng(77)
    d = discounted_sums_batch(law, 20000, 1e-9, rng)
    assert (d >= 1.0).all()
    want = 1.0 / (1.0 - math.exp(psi_evaluate(law, 2.0)))
    se = d.std(ddof=1) / math.sqrt(d.size)
    assert abs(d.mean() - want) < 4 * se


def test_vectorised_keys_match_scalar_keys():
    keys = np.array([0, 1, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
    j = np.array([0, 3, 1, 7])
    got = child_key_np(keys, j)
    assert got.dtype == np.uint64
    assert got.tolist() == [child_key(int(k), int(i)) for k, i in zip(keys, j)]
    assert root_key_np(keys).tolist() == [root_key(int(k)) for k in keys]


def test_build_chain():
    c = oracles.build_chain([0.5, -0.25, 1.0])
    assert c["parent"].tolist() == [-1, 0, 1, 2]
    assert np.allclose(c["V"], [0.0, 0.5, 0.25, 1.25])


def test_enumerate_truncated_invariants():
    d = enumerate_truncated(SUB, 31415, 4)
    parent, V, gen = d["parent"], d["V"], d["gen"]
    n = parent.size
    assert n == 2**5 - 1  # binary tree, every node present to depth 4
    assert parent[0] == -1 and V[0] == 0.0 and gen[0] == 0
    b = -math.log((0.5 - 0.068 * math.e) / (1.0 - 0.068))
    for i in range(1, n):
        assert 0 <= parent[i] < i
        assert gen[i] == gen[parent[i]] + 1
        inc = V[i] - V[parent[i]]
        assert min(abs(inc + 1.0), abs(inc - b)) < 1e-12
    # BFS: parents appear in nondecreasing order and children are contiguous
    assert (np.diff(parent[1:]) >= 0).all()
    assert gen.max() == 4
    assert not np.isin(np.flatnonzero(gen == 4), parent).any()


def test_enumerate_truncated_agrees_with_batch_weights():
    d = enumerate_truncated(SUB, 2718, 5)
    w_direct = np.exp(-d["V"][d["gen"] == 5]).sum()
    W = level_weights_batch(SUB, np.array([2718], dtype=np.uint64), 5)
    assert W[0] == pytest.approx(w_direct, rel=1e-12)
