"""Two-type forest transform for count-labeled trees.

A count-labeled tree (one excursion's visited subtree, or any synthetic
source) carries an integer count beta(x) >= 1 per node with beta(root) = 1.
The transform re-encodes a forest of such trees as a two-type forest whose
type-1 Lukasiewicz path turns the cumulative weights

    F_p = sum of beta_star over the first p trees,
    beta_star(x) = beta(x) + sum of beta over the children of x,

into first-passage functionals of an integer path. Pipeline:

    TypedTree  --skeletonize-->  SkeletonTree  --finalize-->  FinalTree

Every identity checked here is an exact integer equality per sample, never
an asymptotic statement: node counts are preserved by skeletonize, the
final tree has exactly sum(beta_star) vertices, and its root offspring
count equals twice the count-weighted size of the first type-1 generation.
The path identities (F_p is p plus the child total of the first
first-passage-many type-1 vertices) are checked by the tests, which build
the path from final trees (`tests/lukasiewicz.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import excursion
from .excursion import ExcursionBatch, sample_excursion_tree
from .kernel import PCG64
from .law import MarkLaw

__all__ = [
    "TypedTree",
    "SkeletonTree",
    "FinalTree",
    "typed_tree",
    "typed_from_excursion",
    "sample_typed_forest",
    "skeletonize",
    "finalize",
    "check_tree_identities",
    "StepBudgetExceeded",
]


# ---------------------------------------------------------------------------
# typed source trees


@dataclass
class TypedTree:
    """Count-labeled tree in canonical preorder.

    parent[0] = -1 and parent[j] < j; nodes are listed in depth-first
    preorder (children of equal parents consecutive in visit order).
    beta_star and g1 are cached at construction:

        beta_star(x) = beta(x) + sum of beta over children of x,
        g1(x)        = number of strict ancestors of x with beta = 1.

    Build through typed_tree() or typed_from_excursion(), which reorder
    arbitrary topologically sorted input into preorder.
    """

    parent: np.ndarray
    beta: np.ndarray
    gen: np.ndarray
    beta_star: np.ndarray
    g1: np.ndarray

    def __len__(self) -> int:
        return len(self.parent)


def typed_tree(parent, beta) -> TypedTree:
    """Canonicalize (parent, beta) arrays into a TypedTree.

    Input only needs parents before children; nodes are re-numbered by a
    left-to-right depth-first traversal (children in ascending input id)."""
    parent = np.asarray(parent, dtype=np.int64)
    beta = np.asarray(beta, dtype=np.int64)
    n = parent.size
    if n == 0 or parent[0] != -1:
        raise ValueError("need a nonempty tree with parent[0] = -1")
    if beta.size != n:
        raise ValueError("parent and beta lengths differ")
    if beta[0] != 1:
        raise ValueError("root count must be 1")
    if (beta < 1).any():
        raise ValueError("counts must be >= 1")
    if n > 1 and not (parent[1:] < np.arange(1, n)).all():
        raise ValueError("parents must precede children")

    cnt = np.bincount(parent[1:], minlength=n)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt, out=start[1:])
    kid = np.argsort(parent[1:], kind="stable").astype(np.int64) + 1

    pos = np.empty(n, dtype=np.int64)
    new_parent = np.empty(n, dtype=np.int64)
    new_beta = np.empty(n, dtype=np.int64)
    gen = np.empty(n, dtype=np.int64)
    g1 = np.empty(n, dtype=np.int64)
    stack = [0]
    k = 0
    while stack:
        x = stack.pop()
        pos[x] = k
        new_beta[k] = beta[x]
        px = parent[x]
        if px < 0:
            new_parent[k] = -1
            gen[k] = 0
            g1[k] = 0
        else:
            pp = pos[px]
            new_parent[k] = pp
            gen[k] = gen[pp] + 1
            g1[k] = g1[pp] + (1 if new_beta[pp] == 1 else 0)
        k += 1
        s, e = start[x], start[x + 1]
        if e > s:
            stack.extend(kid[s:e][::-1])

    beta_star = new_beta.copy()
    if n > 1:
        np.add.at(beta_star, new_parent[1:], new_beta[1:])
    return TypedTree(new_parent, new_beta, gen, beta_star, g1)


def typed_from_excursion(batch: ExcursionBatch) -> list[TypedTree]:
    """The trees of an excursion batch sampled at root count 1, as typed
    source trees in row order (rows over the budget hold no tree)."""
    roots = np.flatnonzero(batch.parent < 0)
    if (batch.N[roots] != 1).any():
        raise ValueError(
            "forest source trees need root count 1; sample at p = 1"
        )
    # a row's nodes run from its root to the next root, parents by place
    bounds = np.r_[roots, batch.parent.size]
    return [typed_tree(batch.parent[s:e], batch.N[s:e]) for s, e in zip(bounds[:-1], bounds[1:])]


class StepBudgetExceeded(RuntimeError):
    """Too many excursion trees passed the budget."""

    code = "STEP_BUDGET_EXCEEDED"


def sample_typed_forest(
    law: MarkLaw,
    n_trees: int,
    rng: PCG64,
    budget: int = 10**6,
    max_resample: int = 200,
) -> list[TypedTree]:
    """n_trees independent single-excursion trees, fresh environment each,
    sampled SAMPLE_CHUNK trees at a time.

    Each attempt at a tree draws an (environment, walk) seed pair from rng:
    first one per tree in order, then, round after round, one per tree
    still to be drawn, again in order. So the trees do not depend on
    SAMPLE_CHUNK. A tree whose sum of N (beta) passes the budget is redrawn
    in the next round, so the returned sample is size-truncated; fine for
    exact-identity checks, which hold tree by tree, but do not feed it to
    tail estimators. At the default budget none of 20,000 trees drawn on
    two_point_sub was redrawn (a large tree there holds one node per about
    4 units of N)."""
    out: list[TypedTree | None] = [None] * n_trees
    todo = np.arange(n_trees)
    redrawn = 0
    while todo.size:
        over = []
        for lo in range(0, todo.size, excursion.SAMPLE_CHUNK):
            rows = todo[lo : lo + excursion.SAMPLE_CHUNK]
            seeds = rng.integers(0, 2**64, np.empty((rows.size, 2), dtype=np.uint64))
            batch = sample_excursion_tree(law, seeds[:, 0], seeds[:, 1], 1, budget=budget)
            for i, t in zip(rows[~batch.over], typed_from_excursion(batch)):
                out[i] = t
            over.append(rows[batch.over])
        todo = np.concatenate(over)
        redrawn += todo.size
        if redrawn > max_resample:
            raise StepBudgetExceeded(
                f"more than {max_resample} excursion trees passed the budget {budget}"
            )
    return out


def _level_groups(gen: np.ndarray):
    """Indices grouped by generation, ascending, root level excluded."""
    if gen.size <= 1:
        return
    idx = np.argsort(gen, kind="stable")
    levels = gen[idx]
    top = int(levels[-1])
    bounds = np.searchsorted(levels, np.arange(top + 2))
    for g in range(1, top + 1):
        yield idx[bounds[g] : bounds[g + 1]]


# ---------------------------------------------------------------------------
# skeleton


@dataclass
class SkeletonTree:
    """Skeleton of the two-type rebuild, same node ids as the source.

    Node j sits at generation g1(source j); its parent is the nearest
    strict ancestor carrying beta = 1. t1 is 1 on beta = 1 nodes and 0
    elsewhere (those are leaves here); b2 carries beta_star over."""

    parent: np.ndarray
    t1: np.ndarray
    b2: np.ndarray
    gen: np.ndarray

    def __len__(self) -> int:
        return len(self.parent)


def skeletonize(t: TypedTree) -> SkeletonTree:
    """Rebuild the tree with every node re-attached at its g1 generation.

    Rules, applied to the depth-first node sequence: node count is kept;
    the j-th skeleton node sits at generation g1 of the j-th source node;
    beta != 1 source nodes become leaves typed (0, beta_star) while
    beta = 1 nodes keep their children and are typed (1, beta_star)."""
    n = len(t)
    is_one = t.beta == 1
    anchor = np.full(n, -1, dtype=np.int64)
    for ids in _level_groups(t.gen):
        p = t.parent[ids]
        anchor[ids] = np.where(is_one[p], p, anchor[p])
    gen = t.g1.copy()
    if n > 1:
        # re-attachment must reproduce the g1 generations exactly
        assert (anchor[1:] < np.arange(1, n)).all()
        # leaf rule: only beta = 1 nodes may hold children
        assert is_one[anchor[1:]].all()
        assert (gen[1:] == gen[anchor[1:]] + 1).all()
    return SkeletonTree(
        parent=anchor,
        t1=is_one.astype(np.int64),
        b2=t.beta_star.copy(),
        gen=gen,
    )


# ---------------------------------------------------------------------------
# final tree


@dataclass
class FinalTree:
    """Binary-typed tree after leaf padding, in preorder.

    Each skeleton node x brings b2(x) - 1 extra type-0 leaves: attached to
    x itself when x is type 1, and to the parent of x when x is type 0."""

    parent: np.ndarray
    type1: np.ndarray

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def root_offspring(self) -> int:
        """Number of depth-1 vertices."""
        return int(np.count_nonzero(self.parent == 0))

    @property
    def depth1_type1(self) -> int:
        """Number of depth-1 vertices of type 1."""
        return int(np.count_nonzero((self.parent == 0) & (self.type1 == 1)))


def _run_fill(starts: np.ndarray, lengths: np.ndarray):
    """Concatenated arange(start, start+length) per run."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    out = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)
    return out + np.repeat(starts, lengths)


def finalize(s: SkeletonTree) -> FinalTree:
    """Pad the skeleton with its type-0 leaves.

    Fully vectorized: skeleton subtree x occupies the contiguous preorder
    block [pos(x), pos(x) + S(x)) of the final tree, where S sums b2 over
    the skeleton subtree; the padding leaves of a type-0 node follow it
    inside its own slot, those of a type-1 node close its block."""
    n = len(s)
    par = s.parent
    b2 = s.b2
    t1 = s.t1

    # subtree sums of b2, deepest levels first
    S = b2.copy()
    groups = list(_level_groups(s.gen))
    for ids in reversed(groups):
        np.add.at(S, par[ids], S[ids])

    # exclusive prefix sums of S over each sibling block
    presum = np.zeros(n, dtype=np.int64)
    if n > 1:
        kid = np.argsort(par[1:], kind="stable").astype(np.int64) + 1
        sizes = S[kid]
        csum = np.cumsum(sizes) - sizes
        grp = par[kid]
        first = np.flatnonzero(np.r_[True, grp[1:] != grp[:-1]])
        runs = np.diff(np.r_[first, kid.size])
        presum[kid] = csum - np.repeat(csum[first], runs)

    # preorder positions, shallow levels first
    pos = np.zeros(n, dtype=np.int64)
    for ids in groups:
        pos[ids] = pos[par[ids]] + 1 + presum[ids]

    total = int(S[0])
    fparent = np.full(total, -2, dtype=np.int64)
    ftype = np.zeros(total, dtype=np.int64)
    fparent[pos] = np.where(par >= 0, pos[np.maximum(par, 0)], -1)
    ftype[pos] = t1

    pads = b2 - 1
    has = pads > 0
    ones = has & (t1 == 1)
    zeros = has & (t1 == 0)
    if ones.any():
        st = pos[ones] + S[ones] - pads[ones]
        idx = _run_fill(st, pads[ones])
        fparent[idx] = np.repeat(pos[ones], pads[ones])
    if zeros.any():
        idx = _run_fill(pos[zeros] + 1, pads[zeros])
        fparent[idx] = np.repeat(fparent[pos[zeros]], pads[zeros])

    assert not (fparent == -2).any(), "padding left holes"
    if total > 1:
        assert (fparent[1:] < np.arange(1, total)).all()
        assert (fparent[1:] >= 0).all()
    # type-1 vertices form a rooted connected subtree
    t1_ids = np.flatnonzero(ftype == 1)
    assert t1_ids.size == 0 or t1_ids[0] == 0
    deeper = t1_ids[t1_ids > 0]
    assert (ftype[fparent[deeper]] == 1).all()
    return FinalTree(parent=fparent, type1=ftype)


def check_tree_identities(t: TypedTree) -> dict:
    """Exact per-tree identities of the transform, as booleans.

    skeleton_count : the skeleton keeps the node count
    final_count    : the final tree has sum(beta_star) vertices
    offspring      : root offspring = 2 * sum of beta over the first
                     type-1 generation {g1 = 1}
    type1_depth1   : depth-1 type-1 vertices = #{g1 = 1, beta = 1}
    """
    s = skeletonize(t)
    f = finalize(s)
    lvl1 = t.g1 == 1
    return {
        "skeleton_count": len(s) == len(t),
        "final_count": len(f) == int(t.beta_star.sum()),
        "offspring": f.root_offspring == 2 * int(t.beta[lvl1].sum()),
        "type1_depth1": f.depth1_type1
        == int(np.count_nonzero(lvl1 & (t.beta == 1))),
    }
