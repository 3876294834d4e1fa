"""Multi-type forest transform: canonical trees, skeleton, padding, paths."""

import math

import numpy as np
import pytest

import oracles
from lukasiewicz import lukasiewicz
from gwalk.forest import (
    FinalTree,
    check_tree_identities,
    finalize,
    sample_typed_forest,
    skeletonize,
    typed_from_excursion,
    typed_tree,
)
from gwalk.excursion import sample_excursion_tree
from gwalk.kernel import PCG64
from gwalk.law import make_two_point

SUB = make_two_point(0.068)


def _forest(n_trees, seed=0, law=SUB):
    return sample_typed_forest(law, n_trees, PCG64(seed), budget=400_000)


def test_typed_tree_canonicalizes_bfs_input():
    # BFS-ordered input: 0 -> {1, 2}, 1 -> {3}, 2 -> {4}
    t = typed_tree([-1, 0, 0, 1, 2], [1, 2, 1, 1, 3])
    assert t.parent.tolist() == [-1, 0, 1, 0, 3]
    assert t.beta.tolist() == [1, 2, 1, 1, 3]
    assert t.gen.tolist() == [0, 1, 2, 1, 2]
    assert t.g1.tolist() == [0, 1, 1, 1, 2]
    assert t.beta_star.tolist() == [4, 3, 1, 4, 3]
    oracles.validate_typed_tree(t)


def test_typed_tree_idempotent_on_preorder_input():
    t = typed_tree([-1, 0, 0, 1, 2], [1, 2, 1, 1, 3])
    again = typed_tree(t.parent, t.beta)
    assert np.array_equal(again.parent, t.parent)
    assert np.array_equal(again.beta, t.beta)
    assert np.array_equal(again.g1, t.g1)


def test_typed_tree_rejects_bad_input():
    with pytest.raises(ValueError):
        typed_tree([], [])
    with pytest.raises(ValueError):
        typed_tree([-1], [2])  # root count must be 1
    with pytest.raises(ValueError):
        typed_tree([-1, 0], [1, 0])  # counts must be positive
    with pytest.raises(ValueError):
        typed_tree([0, -1], [1, 1])  # root must come first
    with pytest.raises(ValueError):
        typed_tree([-1, 2, 0], [1, 1, 1])  # child before its parent


def test_validate_catches_corruption():
    t = typed_tree([-1, 0, 1], [1, 2, 1])
    t.g1[2] += 1
    with pytest.raises(AssertionError):
        oracles.validate_typed_tree(t)


def test_skeletonize_matches_naive():
    for t in _forest(60, seed=10):
        s = skeletonize(t)
        parent, t1, b2, gen = oracles.skeleton_naive(t)
        assert np.array_equal(s.parent, parent)
        assert np.array_equal(s.t1, t1)
        assert np.array_equal(s.b2, b2)
        assert np.array_equal(s.gen, gen)


def test_finalize_matches_naive():
    for t in _forest(60, seed=11):
        s = skeletonize(t)
        f = finalize(s)
        parent, ftype = oracles.finalize_naive(s.parent, s.t1, s.b2)
        assert np.array_equal(f.parent, parent)
        assert np.array_equal(f.type1, ftype)


def test_lukasiewicz_matches_naive():
    for t in _forest(60, seed=12):
        f = finalize(skeletonize(t))
        path = lukasiewicz([f])
        v_steps, d_steps = oracles.lukasiewicz_steps_naive(f.parent, f.type1)
        assert np.array_equal(np.diff(path.v1), v_steps)
        assert np.array_equal(np.diff(path.d), d_steps)


def test_tree_identities_on_sampled_trees():
    for t in _forest(200, seed=13):
        res = check_tree_identities(t)
        assert all(res.values()), res


def test_path_identities_on_sampled_forest():
    trees = _forest(300, seed=14)
    path = lukasiewicz([finalize(skeletonize(t)) for t in trees])
    assert path.n_trees == 300
    res = path.check_identities()
    assert res["first_passage"]
    assert res["forest_type"]
    assert res["sandwich"]
    assert res["sandwich_points"] > 0


def test_first_passage_trivial_forest():
    one = finalize(skeletonize(typed_tree([-1], [1])))
    assert len(one) == 1 and one.type1.tolist() == [1]
    path = lukasiewicz([one, one])
    assert path.v1.tolist() == [0, -1, -2]
    assert path.first_passage(1) == 1
    assert path.first_passage(2) == 2
    assert path.f_bar(1) == 1 and path.f_bar(10) == 2
    assert path.max_drop(0) == 0
    with pytest.raises(ValueError):
        path.first_passage(3)


def test_padding_block_structure():
    """A type-0 node's pads attach to its parent; a type-1 node's pads
    close its own block."""
    # root(b=1) with children: a(b=3, leaf) and b(b=1) with child c(b=2)
    t = typed_tree([-1, 0, 0, 2], [1, 3, 1, 2])
    f = finalize(skeletonize(t))
    # skeleton: a is type 0 with b2 = beta_star(a) = 3, so its two pads
    # hang on the root; b is type 1 with b2 = beta_star(b) = 1 + 2 = 3, so its
    # two pads close b's own block; c is type 0 with b2 = 2, so its one pad
    # hangs on b; the root (type 1, b2 = 5) closes the tree with four pads.
    # The final tree has sum(beta_star) = 5 + 3 + 3 + 2 = 13 vertices, in
    # preorder: root, a, a's pads, b, c, c's pad, b's pads, the root's pads.
    assert len(f) == int(t.beta_star.sum()) == 13
    assert f.parent.tolist() == [-1, 0, 0, 0, 0, 4, 4, 4, 4, 0, 0, 0, 0]
    assert f.type1.tolist() == [1, 0, 0, 0, 1] + [0] * 8
    counts = np.bincount(f.parent[1:], minlength=len(f))
    assert counts[0] == f.root_offspring
    # every type-0 vertex is a leaf
    zero_ids = np.flatnonzero(f.type1 == 0)
    assert not np.isin(zero_ids, f.parent[1:]).any()


def test_hypothesis_check_report():
    """Report structure and internal ordering of the three sums.

    No 4 SE gate on b here: the sampled forest is size-truncated by
    design, which biases the heavy-tailed mean low; the unbiased moment
    gate runs on the batched sampler (see the excursion tests)."""
    trees = _forest(800, seed=15)
    rep = oracles.hypothesis_check(trees)
    assert rep["n"] == 800
    # per tree b <= nu_tilde <= nu, so the means inherit the order
    assert rep["b_mean"] <= rep["nu_tilde_mean"] <= rep["nu_mean"]
    assert 0.3 < rep["b_mean"] < 1.5
    for key in ("b_se", "nu_se", "nu_tilde_se", "sigma1_sq", "sigma1_sq_se"):
        assert rep[key] > 0
    with pytest.raises(ValueError):
        oracles.hypothesis_check(trees[:1])


def test_forest_sampling_deterministic():
    a = _forest(20, seed=16)
    b = _forest(20, seed=16)
    for x, y in zip(a, b):
        assert np.array_equal(x.parent, y.parent)
        assert np.array_equal(x.beta, y.beta)


def test_forest_redraws_trees_past_the_budget():
    """Trees whose sum of N passes the budget are redrawn on fresh
    environments; each kept tree is the typed image of its excursion tree."""
    rng = PCG64(17)
    trees = sample_typed_forest(SUB, 200, rng, budget=12, max_resample=10**4)
    assert len(trees) == 200
    assert max(int(t.beta.sum()) for t in trees) <= 12 < sum(len(t) for t in trees)
    for t in trees:
        oracles.validate_typed_tree(t)
    seeds = np.arange(50, dtype=np.uint64)
    batch = sample_excursion_tree(SUB, seeds, 1, rng, budget=12)
    assert batch.over.any()
    typed = typed_from_excursion(batch)
    assert len(typed) == int((~batch.over).sum())
    sizes = np.bincount(batch.row, minlength=50)[~batch.over]
    assert [len(t) for t in typed] == sizes.tolist()
    assert [int(t.beta.sum()) for t in typed] == np.bincount(
        batch.row, weights=batch.N, minlength=50)[~batch.over].astype(int).tolist()
    with pytest.raises(ValueError):
        typed_from_excursion(sample_excursion_tree(SUB, [1], 2, rng))
