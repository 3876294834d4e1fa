"""The library's count-tree sampler (`kernel.count_trees`) against the numpy
reference `oracles.excursion_levels`, byte for byte: per-row sums, node
lists and the generator's state after, over the shipped laws and ragged
atoms, with and without pruning, budgets and per-row root counts; and the
three callers (`hypothesis_sums_batch`, `sample_excursion_tree`, a
`theorem1` chunk) leave their generators where the reference does. The
library draws on its own generator, `kernel.PCG64`, and the reference on
numpy's, both seeded from the same integer. count_trees writes its sums
into a caller's column slice and refuses one that does not fit before any
draw, so hypothesis_sums_batch holds one copy of its sums."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gwalk import excursion, experiments, kernel
from gwalk.excursion import hypothesis_sums_batch, sample_excursion_tree
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


def _reference(law, seeds, roots, rng, prune, budget):
    """(sums, node arrays) of the numpy reference, as count_trees returns
    them with keep."""
    levels = list(oracles.excursion_levels(law, seeds, roots, rng, prune=prune,
                                           budget=budget))
    sizes = np.array([lv.row.size for lv in levels])
    start = np.cumsum(sizes) - sizes
    tree = {
        "row": np.concatenate([lv.row for lv in levels]),
        "parent": np.concatenate([levels[0].parent]
                                 + [lv.parent + start[g] for g, lv in enumerate(levels[1:])]),
        "key": np.concatenate([lv.key for lv in levels]),
        "N": np.concatenate([lv.N for lv in levels]),
    }
    sums = np.zeros((3, seeds.size), dtype=np.int64)
    for lv in levels[1:]:
        np.add.at(sums[0], lv.row, lv.N)
        np.add.at(sums[1], lv.row, 1)
        np.add.at(sums[2], lv.row[lv.N == 1], 1)
    return sums, tree


def _assert_same_generator(rng, ref):
    assert oracles.numpy_state(rng) == ref.bit_generator.state


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("name", LAWS)
def test_count_trees_match_reference(name, setting):
    law = LAWS[name]
    n, roots, prune, budget = SETTINGS[setting]
    roots, budget = _per_row(roots, n), None if budget is None else _per_row(budget, n)
    seeds = np.random.default_rng(7).integers(0, 2**64, size=n, dtype=np.uint64)
    want, want_tree = _reference(law, seeds, roots, np.random.default_rng(11), prune, budget)
    for keep in (False, True):
        rng, ref = kernel.PCG64(11), np.random.default_rng(11)
        _reference(law, seeds, roots, ref, prune, budget)
        sums, tree = kernel.count_trees(law.tables(), seeds, roots, rng, prune=prune,
                                        budget=budget, keep=keep)
        assert sums.tobytes() == want.tobytes()
        _assert_same_generator(rng, ref)
        if keep:
            assert tree.keys() == want_tree.keys()
            for f, x in want_tree.items():
                assert tree[f].dtype == x.dtype and tree[f].tobytes() == x.tobytes(), f
        else:
            assert tree is None


def test_count_trees_buffers_grow():
    """The settings above outgrow the library's first buffers (1024 nodes,
    1024 expanded nodes) in one generation and in the whole node list."""
    law = LAWS["two_point_sub"]
    seeds = np.random.default_rng(7).integers(0, 2**64, size=3000, dtype=np.uint64)
    _, tree = kernel.count_trees(law.tables(), seeds, 2, kernel.PCG64(11),
                                 prune=True, budget=40, keep=True)
    gen_sizes = np.bincount(_depth(tree["parent"]))
    assert gen_sizes[1] > 1024 and tree["N"].size > 2 * 3000


def _depth(parent):
    d = np.zeros(parent.size, dtype=np.int64)
    for i in range(parent.size):
        if parent[i] >= 0:
            d[i] = d[parent[i]] + 1
    return d


def test_too_large_poisson_rate_raises_as_numpy():
    """A rate past numpy's Poisson limit raises numpy's ValueError, after the
    generation's gamma draws, as the reference's rng.poisson does."""
    law = make_mark_law([(1.0, (-3.0, 0.0))])  # rate e^3 at slot 0
    seeds, roots = np.array([5, 6], dtype=np.uint64), [10**18, 1]
    ref, rng = np.random.default_rng(3), kernel.PCG64(3)
    with pytest.raises(ValueError) as want:
        list(oracles.excursion_levels(law, seeds, roots, ref))
    with pytest.raises(ValueError) as got:
        kernel.count_trees(law.tables(), seeds, roots, rng)
    assert str(got.value) == str(want.value) == "lam value too large"
    _assert_same_generator(rng, ref)


def test_hypothesis_sums_match_reference(monkeypatch):
    """B, nu and nu_tilde equal the reference's reductions, chunk by chunk,
    and the generator ends where the reference leaves it."""
    monkeypatch.setattr("gwalk.excursion.SAMPLE_CHUNK", 700)
    law, n, p = LAWS["two_point_sub"], 1500, 2
    rng, ref = kernel.PCG64(4), np.random.default_rng(4)
    out = hypothesis_sums_batch(law, n, rng, p=p)
    want = []
    for i in range(0, n, 700):
        seeds = ref.integers(0, 2**64, size=min(700, n - i), dtype=np.uint64)
        want.append(_reference(law, seeds, p, ref, True, None)[0])
    nu, nu_t, B = np.concatenate(want, axis=1)
    for key, x in (("B", B), ("nu", nu), ("nu_tilde", nu_t)):
        assert out[key].tobytes() == x.tobytes()
    _assert_same_generator(rng, ref)


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
    before any draw: the generator's state is unchanged."""
    n = 50
    rng = kernel.PCG64(3)
    before = oracles.numpy_state(rng)
    with pytest.raises(ValueError, match="out must be"):
        kernel.count_trees(LAWS["two_point_sub"].tables(), np.arange(n, dtype=np.uint64), 1,
                           rng, prune=True, out=_bad_out(kind, n))
    assert oracles.numpy_state(rng) == before


def test_count_trees_write_into_a_column_slice():
    """With `out` a column slice of a wider array, the sums land in those
    columns only, with the bytes and generator state of a call without it."""
    law, n = LAWS["two_point_sub"], 300
    seeds = np.arange(n, dtype=np.uint64)
    want, _ = kernel.count_trees(law.tables(), seeds, 2, kernel.PCG64(8), prune=True)
    wide = np.full((3, n + 20), -7, dtype=np.int64)
    rng = kernel.PCG64(8)
    got, _ = kernel.count_trees(law.tables(), seeds, 2, rng, prune=True, out=wide[:, 10:-10])
    assert np.shares_memory(got, wide) and wide[:, 10:-10].tobytes() == want.tobytes()
    assert (wide[:, :10] == -7).all() and (wide[:, -10:] == -7).all()
    ref = kernel.PCG64(8)
    kernel.count_trees(law.tables(), seeds, 2, ref, prune=True)
    assert oracles.numpy_state(rng) == oracles.numpy_state(ref)


@pytest.mark.parametrize("chunk", [None, 4000])
def test_hypothesis_sums_hold_one_copy(monkeypatch, chunk):
    """The traced peak of hypothesis_sums_batch stays under one (3, n) int64
    result, one chunk's seeds and root counts and 16 KB, at one chunk and at
    several: each chunk's sums are written straight into the result, and no
    second copy of them is made."""
    n = 20000
    if chunk is not None:
        monkeypatch.setattr(excursion, "SAMPLE_CHUNK", chunk)
    c = min(n, excursion.SAMPLE_CHUNK)
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
    """The whole trees of the rows within budget, renumbered, as the
    reference grows them; the generator ends where the reference leaves it."""
    law, budget = LAWS["two_point_sub"], 60
    seeds = np.arange(40, dtype=np.uint64)
    rng, ref = kernel.PCG64(9), np.random.default_rng(9)
    t = sample_excursion_tree(law, seeds, 5, rng, budget=budget)
    _, tree = _reference(law, seeds, 5, ref, False, budget)
    total = np.bincount(tree["row"], weights=tree["N"], minlength=seeds.size)
    assert t.over.tolist() == (total > budget).tolist() and 0 < t.over.sum() < seeds.size
    keep = ~t.over[tree["row"]]
    new = np.cumsum(keep) - 1
    assert t.parent.tolist() == [-1 if q < 0 else int(new[q]) for q in tree["parent"][keep]]
    for f in ("row", "key", "N"):
        assert getattr(t, f).tobytes() == tree[f][keep].tobytes()
    _assert_same_generator(rng, ref)


def test_theorem1_chunks_match_reference(monkeypatch):
    """Every count-tree call of theorem1 (one per chunk of trials, threads 2)
    returns the reference's sums from the same generator state and leaves
    the generator where the reference does."""
    calls = []
    count_trees = kernel.count_trees

    def checked(t, seeds, roots, rng, prune=False, budget=None, keep=False):
        ref = np.random.default_rng()
        ref.bit_generator.state = oracles.numpy_state(rng)
        out = count_trees(t, seeds, roots, rng, prune=prune, budget=budget, keep=keep)
        want, _ = _reference(LAWS["two_point_sub"], seeds, roots, ref, prune, budget)
        calls.append(out[0].tobytes() == want.tobytes()
                     and oracles.numpy_state(rng) == ref.bit_generator.state)
        return out

    monkeypatch.setattr(kernel, "count_trees", checked)
    consts = experiments.Constants(solve_kappa(LAWS["two_point_sub"]), **CONSTANTS)
    experiments.theorem1_campaign(LAWS["two_point_sub"], consts, 5, 2, n_trials=70,
                                  p_grid=(5, 20))
    assert calls == [True] * math.ceil(70 / experiments.THEOREM1_CHUNK)
