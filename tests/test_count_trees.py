"""The library's count-tree sampler (`kernel.count_trees`) against the numpy
reference `oracles.excursion_levels`, byte for byte and row by row, each
row on its own generator (`oracles.row_generator` of its walk seed):
per-row sums, node lists and the generator's state after the row, over the
shipped laws and ragged atoms, with and without pruning, budgets and
per-row root counts; and the rows of the three callers
(`hypothesis_sums_batch`, `sample_excursion_tree`, `theorem1`). Since a row
draws on its own stream, the callers' bytes do not depend on SAMPLE_CHUNK,
THEOREM1_CHUNK or the threads, and a larger budget leaves a row within the
smaller one unchanged. count_trees writes its sums into a caller's column
slice and refuses one that does not fit before any draw, so
hypothesis_sums_batch holds one copy of its sums and one slice of seeds."""

import ctypes
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gwalk import excursion, experiments, kernel
from gwalk._rng import child_key
from gwalk.excursion import hypothesis_sums_batch, sample_excursion_tree
from gwalk.forest import sample_typed_forest
from gwalk.law import load_law, make_constant_bias, make_mark_law, solve_kappa

import oracles
from test_cli import CONSTANTS, EXTINCTION

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

LAWS = {
    **{p.stem: load_law(json.loads(p.read_text())["law"]) for p in CONFIGS},
    "constant_bias_2": make_constant_bias(2.0),
    "extinction": load_law(EXTINCTION),
    # 0, 1 and 3 children; E[sum e^{-a}] = 0.8, so the count trees are finite
    "ragged": make_mark_law([(0.3, ()), (0.3, (0.5,)), (0.4, (0.2, 0.7, 1.5))]),
}

# (rows, root counts, prune, budget); a root count or budget that is a list
# has one value per row (cycled to the rows). Unpruned trees without a
# budget have an infinite mean size on the subdiffusive laws, so they stay
# few.
SETTINGS = {
    "one-row": (1, 3, True, None),
    "pruned": (3000, 1, True, None),
    "pruned-roots": (3000, [1, 2, 5], True, None),
    "pruned-budget": (3000, 2, True, 40),
    "full": (40, 1, False, None),
    "full-budget": (2000, 2, False, 300),
    "full-row-budget": (2000, [1, 4], False, [10, 200, 5000]),
}


def _per_row(x, n):
    return x if np.ndim(x) == 0 else np.resize(np.asarray(x, dtype=np.int64), n)


def _seeds(n, seed=7):
    """(environment seeds, walk seeds) of n rows, as strided columns of one
    (n, 2) array."""
    pairs = np.random.default_rng(seed).integers(0, 2**64, size=(n, 2), dtype=np.uint64)
    return pairs[:, 0], pairs[:, 1]


def _reference(law, env_seeds, walk_seeds, roots, prune, budget):
    """(sums, node arrays, end states) of the numpy reference, row by row,
    each row on `oracles.row_generator` of its walk seed: what count_trees
    returns with keep and writes to `ends`."""
    n = env_seeds.size
    roots = np.broadcast_to(roots, n)
    budget = np.broadcast_to(None if budget is None else budget, n)
    sums = np.zeros((3, n), dtype=np.int64)
    parts, ends = [], []
    for r in range(n):
        rng = oracles.row_generator(walk_seeds[r])
        levels = list(oracles.excursion_levels(law, env_seeds[r : r + 1], roots[r], rng,
                                               prune=prune, budget=budget[r]))
        sizes = np.array([lv.N.size for lv in levels])
        start = np.cumsum(sizes) - sizes
        parts.append({
            "row": np.full(sizes.sum(), r, dtype=np.int64),
            "parent": np.concatenate([levels[0].parent]
                                     + [lv.parent + start[g] for g, lv in enumerate(levels[1:])]),
            "key": np.concatenate([lv.key for lv in levels]),
            "N": np.concatenate([lv.N for lv in levels]),
        })
        N = parts[-1]["N"][1:]
        sums[:, r] = N.sum(), N.size, (N == 1).sum()
        ends.append(rng.bit_generator.state)
    tree = {f: np.concatenate([part[f] for part in parts]) for f in parts[0]} if n else {}
    return sums, tree, ends


def _assert_same_generator(rng, ref):
    assert oracles.numpy_state(rng) == ref.bit_generator.state


def _end_states(ends):
    return [oracles.numpy_state(e) for e in ends]


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("name", LAWS)
def test_count_trees_match_reference(name, setting):
    """Every row equals the reference on that row's own generator: sums,
    nodes and the generator's state after the row."""
    law = LAWS[name]
    n, roots, prune, budget = SETTINGS[setting]
    roots, budget = _per_row(roots, n), None if budget is None else _per_row(budget, n)
    env, walk = _seeds(n)
    want, want_tree, want_ends = _reference(law, env, walk, roots, prune, budget)
    for keep in (False, True):
        ends = (kernel._PCG64 * n)()
        sums, tree = kernel.count_trees(law.tables(), env, walk, roots, prune=prune,
                                        budget=budget, keep=keep, ends=ends)
        assert sums.tobytes() == want.tobytes()
        assert _end_states(ends) == want_ends
        if keep:
            assert tree.keys() == want_tree.keys()
            for f, x in want_tree.items():
                assert tree[f].dtype == x.dtype and tree[f].tobytes() == x.tobytes(), f
        else:
            assert tree is None


def test_count_trees_buffers_grow():
    """A row outgrows the library's first buffers (1024 nodes, 1024
    expanded nodes) in one generation, and every row is still the
    reference's, with and without the node list."""
    law = LAWS["constant_bias_2"]
    env, walk = _seeds(3)
    roots = [10000, 1, 2]
    want, want_tree, want_ends = _reference(law, env, walk, roots, True, 10**6)
    first = want_tree["row"] == 0
    depth = _depth(want_tree["parent"][first])
    assert np.bincount(depth[want_tree["N"][first] >= 2]).max() > 1024
    for keep in (False, True):
        ends = (kernel._PCG64 * 3)()
        sums, tree = kernel.count_trees(law.tables(), env, walk, roots, prune=True,
                                        budget=10**6, keep=keep, ends=ends)
        assert sums.tobytes() == want.tobytes() and _end_states(ends) == want_ends
        for f, x in want_tree.items() if keep else ():
            assert tree[f].tobytes() == x.tobytes(), f


def _depth(parent):
    d = np.zeros(parent.size, dtype=np.int64)
    for i in range(parent.size):
        if parent[i] >= 0:
            d[i] = d[parent[i]] + 1
    return d


def test_too_large_poisson_rate_raises_as_numpy():
    """A rate past numpy's Poisson limit raises numpy's ValueError, after the
    generation's gamma draws, as the reference's rng.poisson does; the
    failing row's generator is left where the reference leaves it."""
    law = make_mark_law([(1.0, (-3.0, 0.0))])  # rate e^3 at slot 0
    env, walk = np.array([5, 6], dtype=np.uint64), np.array([8, 9], dtype=np.uint64)
    roots = [10**18, 1]
    ref = oracles.row_generator(walk[0])
    with pytest.raises(ValueError) as want:
        list(oracles.excursion_levels(law, env[:1], roots[0], ref))
    ends = (kernel._PCG64 * 2)()
    with pytest.raises(ValueError) as got:
        kernel.count_trees(law.tables(), env, walk, roots, ends=ends)
    assert str(got.value) == str(want.value) == "lam value too large"
    assert oracles.numpy_state(ends[0]) == ref.bit_generator.state


def test_hypothesis_sums_match_reference(monkeypatch):
    """B, nu and nu_tilde equal the reference's reductions row by row, sample
    i on the seed pair of draws 2i and 2i + 1, and the seed generator ends
    where numpy's leaves it after 2n draws."""
    monkeypatch.setattr("gwalk.excursion.SAMPLE_CHUNK", 700)
    law, n, p = LAWS["two_point_sub"], 1500, 2
    rng, ref = kernel.PCG64(4), np.random.default_rng(4)
    out = hypothesis_sums_batch(law, n, rng, p=p)
    pairs = ref.integers(0, 2**64, size=(n, 2), dtype=np.uint64)
    nu, nu_t, B = _reference(law, pairs[:, 0], pairs[:, 1], p, True, None)[0]
    for key, x in (("B", B), ("nu", nu), ("nu_tilde", nu_t)):
        assert out[key].tobytes() == x.tobytes()
    _assert_same_generator(rng, ref)


@pytest.mark.parametrize("chunk", [1, 7, 2**17])
def test_samplers_do_not_depend_on_the_chunk(monkeypatch, chunk):
    """hypothesis_sums_batch and sample_typed_forest write the same bytes
    for any SAMPLE_CHUNK: a row's draws are its own, and its seeds are
    drawn in the same order; the typed forest's redraws (budget 12) too."""
    law = LAWS["two_point_sub"]
    want_sums = hypothesis_sums_batch(law, 300, kernel.PCG64(6), p=2)
    want_trees = sample_typed_forest(law, 60, kernel.PCG64(6), budget=12, max_resample=10**4)
    monkeypatch.setattr("gwalk.excursion.SAMPLE_CHUNK", chunk)
    sums = hypothesis_sums_batch(law, 300, kernel.PCG64(6), p=2)
    trees = sample_typed_forest(law, 60, kernel.PCG64(6), budget=12, max_resample=10**4)
    for key, x in want_sums.items():
        assert sums[key].tobytes() == x.tobytes()
    assert len(trees) == len(want_trees) == 60
    for t, u in zip(trees, want_trees):
        assert t.parent.tobytes() == u.parent.tobytes() and t.beta.tobytes() == u.beta.tobytes()


def test_a_larger_budget_leaves_uncensored_rows_unchanged():
    """A row within budget b draws the same tree at budget 4b, and a row
    cut at b is a prefix of its tree at 4b: a budget only cuts a row."""
    law, b = LAWS["two_point_sub"], 40
    env, walk = _seeds(2000)
    small, cut = kernel.count_trees(law.tables(), env, walk, 2, budget=b, keep=True)
    large, full = kernel.count_trees(law.tables(), env, walk, 2, budget=4 * b, keep=True)
    within = small[0] + 2 <= b
    assert 0 < within.sum() < within.size
    assert small[:, within].tobytes() == large[:, within].tobytes()
    for r in range(env.size):
        for f in ("parent", "key", "N"):
            x, y = cut[f][cut["row"] == r], full[f][full["row"] == r]
            assert y[: x.size].tobytes() == x.tobytes()


def _bad_out(kind, n):
    wide = np.zeros((3, 2 * n), dtype=np.int64)
    frozen = np.zeros((3, n), dtype=np.int64)
    frozen.flags.writeable = False
    return {
        "dtype": np.zeros((3, n), dtype=np.int32),
        "shape": np.zeros((3, n + 1), dtype=np.int64),
        "transposed": np.zeros((n, 3), dtype=np.int64).T,
        "strided-columns": wide[:, ::2],
        "overlapping-rows": np.lib.stride_tricks.as_strided(wide, (3, n), (8 * (n - 1), 8)),
        "read-only": frozen,
        "list": [[0] * n] * 3,
    }[kind]


@pytest.mark.parametrize("kind", ["dtype", "shape", "transposed", "strided-columns",
                                  "overlapping-rows", "read-only", "list"])
def test_count_trees_refuses_an_out_that_does_not_fit(kind):
    """An `out` of the wrong dtype, shape or row layout raises ValueError
    before any draw: no row's generator is written."""
    n = 50
    ends = (kernel._PCG64 * n)()
    with pytest.raises(ValueError, match="out must be"):
        kernel.count_trees(LAWS["two_point_sub"].tables(), *_seeds(n), 1, prune=True,
                           out=_bad_out(kind, n), ends=ends)
    assert bytes(ends) == bytes(ctypes.sizeof(ends))


@pytest.mark.parametrize("arg", ["walk_seeds", "root_counts", "budget", "ends"])
def test_count_trees_refuse_per_row_arguments_that_do_not_fit(arg):
    """A per-row argument of another length, or `ends` that is not one
    `_PCG64` per row, raises ValueError before any draw."""
    n = 50
    env, walk = _seeds(n)
    ends = (kernel._PCG64 * n)()
    args = {"walk_seeds": walk, "root_counts": 1, "budget": None, "ends": ends}
    args[arg] = (kernel._PCG64 * (n - 1))() if arg == "ends" else np.ones(n - 1, dtype=np.int64)
    with pytest.raises(ValueError, match="one value per row|ends must be"):
        kernel.count_trees(LAWS["two_point_sub"].tables(), env, **args)
    assert bytes(ends) == bytes(ctypes.sizeof(ends))


def test_count_trees_write_into_a_column_slice():
    """With `out` a column slice of a wider array, the sums land in those
    columns only, with the bytes of a call without it."""
    law, n = LAWS["two_point_sub"], 300
    env, walk = _seeds(n)
    want, _ = kernel.count_trees(law.tables(), env, walk, 2, prune=True)
    wide = np.full((3, n + 20), -7, dtype=np.int64)
    got, _ = kernel.count_trees(law.tables(), env, walk, 2, prune=True, out=wide[:, 10:-10])
    assert np.shares_memory(got, wide) and wide[:, 10:-10].tobytes() == want.tobytes()
    assert (wide[:, :10] == -7).all() and (wide[:, -10:] == -7).all()


@pytest.mark.parametrize("chunk", [None, 4000])
def test_hypothesis_sums_hold_one_copy(monkeypatch, chunk):
    """The traced peak of hypothesis_sums_batch stays under one (3, n) int64
    result, one slice of seed pairs and 16 KB, at the default chunk and at a
    smaller one: each slice's sums are written straight into the result, no
    second copy of them is made, and a scalar root count is passed as one
    value."""
    n = 20000
    if chunk is not None:
        monkeypatch.setattr(excursion, "SAMPLE_CHUNK", chunk)
    c = min(n, excursion.SAMPLE_CHUNK, excursion.SEED_SLICE)
    law = LAWS["two_point_sub"]
    law.tables()  # built and cached before tracing
    rng = kernel.PCG64(5)
    tracemalloc.start()
    try:
        hypothesis_sums_batch(law, n, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * (3 * n + 2 * c) + 16 * 1024


def test_sample_excursion_tree_matches_reference():
    """The whole trees of the rows within budget, each row as the reference
    grows it on the row's generator, with the rows over budget dropped."""
    law, budget, n = LAWS["two_point_sub"], 60, 40
    env, walk = _seeds(n, 9)
    t = sample_excursion_tree(law, env, walk, 5, budget=budget)
    _, tree, _ = _reference(law, env, walk, 5, False, budget)
    total = np.bincount(tree["row"], weights=tree["N"], minlength=n)
    assert t.over.tolist() == (total > budget).tolist() and 0 < t.over.sum() < n
    keep = ~t.over[tree["row"]]
    for f in ("row", "parent", "key", "N"):
        assert getattr(t, f).tobytes() == tree[f][keep].tobytes()


def test_theorem1_chunks_match_reference(monkeypatch):
    """Every row of every count-tree call of theorem1 (threads 2) equals the
    reference on its own generator, whose walk seed is the child key j of
    its trial's walk seed."""
    calls = []
    count_trees = kernel.count_trees
    law = LAWS["two_point_sub"]

    def checked(t, env, walk, roots, prune=False, budget=None, keep=False, out=None):
        got = count_trees(t, env, walk, roots, prune=prune, budget=budget, keep=keep, out=out)
        calls.append((env, walk, roots, prune, budget, got[0].copy()))
        return got

    monkeypatch.setattr(kernel, "count_trees", checked)
    consts = experiments.Constants(solve_kappa(law), **CONSTANTS)
    experiments.theorem1_campaign(law, consts, 5, 2, n_trials=70, p_grid=(5, 20))
    assert len(calls) == math.ceil(70 / experiments.THEOREM1_CHUNK)
    _, walk = experiments.trial_seeds(5, "theorem1", 70)
    rows = sorted(int(w) for c in calls for w in c[1])
    assert rows == sorted(child_key(int(w), j) for w in walk for j in range(2))
    for env, walk, roots, prune, budget, sums in calls:
        assert sums.tobytes() == _reference(law, env, walk, roots, prune, budget)[0].tobytes()


def test_theorem1_does_not_depend_on_chunks_or_threads(monkeypatch):
    """theorem1 writes the same rows, verdicts, Z and T for THEOREM1_CHUNK
    in {1, 7, 32} at threads 1 and 2."""
    law = LAWS["two_point_sub"]
    consts = experiments.Constants(solve_kappa(law), **CONSTANTS)
    runs = set()
    for chunk in (1, 7, 32):
        monkeypatch.setattr(experiments, "THEOREM1_CHUNK", chunk)
        for threads in (1, 2):
            out = experiments.theorem1_campaign(law, consts, 5, threads, n_trials=40,
                                                p_grid=(5, 20))
            runs.add((repr(out["rows"]), repr(out["verdicts"]), out["T"].tobytes(),
                      tuple(z.tobytes() for z in out["z"].values())))
    assert len(runs) == 1
