"""Excursion trees sampled directly from their branching law, one generation
of a whole batch at a time, and the moment sums behind the forest hypotheses.

The walk up to tau^p (the p-th return to e*) visits a random subtree;
attaching to every visited node x its edge local time N_x turns the pair
(visited set, counts) into a multi-type branching tree. Conditionally on
N_x = k and on the environment at x, draw G ~ Gamma(k, 1) and give child i
a Poisson(G e^{-a_i}) count, independently given G, for the child marks a_i
(the potential level at x cancels). Integrating G out gives the negative
multinomial NM(k; 1/(1+s), e^{-a_i}/(1+s)), s = sum_i e^{-a_i}: the total
is the number of failures before the k-th success in Bernoulli(1/(1+s))
trials (1/(1+s) is the walk's P(up), `LawTables.p_up`), split among the
children in proportion to e^{-a_i}.

`excursion_levels` is the one sampler. It carries (row, parent, key, N) per
node for a batch of (environment seed, root count) rows, one generation at a
time. A node's atom comes from its key, and the keys of the roots and of
the children from `root_key_np` and `child_key_np`, exactly as `MarkedTree`
and the walk kernels grow the keyed environment, so a row is quenched on its
seed's environment. Every
environment node occurs at most once in a tree, so fresh seeds per row give
the annealed law. Counts at depth <= d depend only on their ancestors:
stopping after generation d samples the tree truncated at depth d exactly.

By tau^p every edge has been crossed as often up as down, so
tau^p = 2 sum_x N_x over the tree, root included (N_root = p), and the
excised return time is T^p = tau^p - p = 2 sum_x N_x - p. A budget is
therefore on sum_x N_x, the walk's own unit: half its steps.

With prune=True a count-1 node below the root is not expanded. The
level-0 regeneration set (the x with |x| > 0, N_x = 1 and N >= 2 at every
ancestor strictly between the root and x) is then exactly the set of
count-1 non-root nodes, and these are also the first-generation type-1
vertices of the forest transform, so the pruned tree carries every
hypothesis sum while staying small even where the full excursion tree has
infinite expected size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from ._rng import TWO_NEG53, child_key_np, root_key_np
from .law import MarkLaw

__all__ = [
    "Level",
    "ExcursionBatch",
    "excursion_levels",
    "sample_excursion_tree",
    "hypothesis_sums_batch",
    "SAMPLE_CHUNK",
]

# samples per batch of the annealed samplers (here and in
# limits.estimate_discounted_moments): memory holds one batch's scratch
SAMPLE_CHUNK = 2**17


class Level(NamedTuple):
    """One generation of a batch. Nodes are sorted by row and, within a row,
    by parent; siblings follow their child index."""

    row: np.ndarray  # batch row of each node
    parent: np.ndarray  # index into the previous generation, -1 at the roots
    key: np.ndarray  # environment key (uint64)
    N: np.ndarray  # edge count, >= 1


def excursion_levels(
    law: MarkLaw,
    env_seeds,
    root_counts,
    rng: np.random.Generator,
    prune: bool = False,
    budget=None,
) -> Iterator[Level]:
    """Yield the generations of one excursion tree per row, roots first.

    Row r grows on the keyed environment of env_seeds[r] with root count
    root_counts[r] (a scalar applies to every row; the root count p samples
    the counts at tau^p). The generations are drawn lazily: a consumer that
    stops after generation d has drawn nothing deeper. Per generation, one
    gamma draw per expanded node and one Poisson draw per (node, child
    slot) give the children counts; a slot past the node's atom has rate 0
    and draws 0. With prune=True, count-1 nodes below the root are not
    expanded.

    With a budget (a scalar, or one value per row like root_counts), a row
    stops growing once the sum of N over its nodes passes its budget. That
    sum, root included, is tau^p / 2 for the whole tree, so the budget is
    half a walk's step budget; a consumer finds the rows over it by summing
    their N."""
    t = law.tables()
    key = root_key_np(env_seeds)
    n = key.size
    N = np.broadcast_to(np.asarray(root_counts, dtype=np.int64), n).copy()
    if (N < 1).any():
        raise ValueError("root counts must be >= 1")
    row = np.arange(n, dtype=np.int64)
    parent = np.broadcast_to(np.int64(-1), n)
    if budget is not None:
        budget = np.broadcast_to(np.asarray(budget, dtype=np.int64), n)
        total = np.zeros(n, dtype=np.int64)
    atom_of = np.repeat(np.arange(t.lens.size), t.lens)
    rate = np.zeros((t.lens.size, int(t.lens.max())))
    rate[atom_of, np.arange(t.marks.size) - t.off[atom_of]] = np.exp(-t.marks)
    root = True
    while row.size:
        yield Level(row, parent, key, N)
        ex = np.flatnonzero(N >= 2) if prune and not root else np.arange(row.size)
        root = False
        if budget is not None:
            np.add.at(total, row, N)
            ex = ex[total[row[ex]] <= budget[row[ex]]]
        atom = np.searchsorted(
            t.cum, (key[ex] >> np.uint64(11)) * TWO_NEG53, side="right"
        )
        g = rng.standard_gamma(N[ex])
        kids = rng.poisson(g[:, None] * rate[atom])
        par, j = np.nonzero(kids)
        N = kids[par, j]
        parent = ex[par]
        row = row[parent]
        key = child_key_np(key[parent], j)


@dataclass
class ExcursionBatch:
    """The complete trees of one `sample_excursion_tree` call.

    Node arrays in generation order (roots first), sorted by row within a
    generation; parent indexes the same arrays (-1 at a root). Rows whose
    tree passed the budget are flagged in `over` and hold no nodes."""

    row: np.ndarray
    parent: np.ndarray
    key: np.ndarray
    N: np.ndarray
    over: np.ndarray

    def __len__(self) -> int:
        return len(self.row)


def sample_excursion_tree(
    law: MarkLaw,
    env_seeds,
    p,
    rng: np.random.Generator,
    budget=None,
) -> ExcursionBatch:
    """(Visited set, counts) at tau^p on every environment of env_seeds,
    no walk involved: the whole trees of `excursion_levels`. A tree whose
    sum of N passes the budget is cut and dropped; its row is flagged in
    `over`, so the batch holds complete trees only."""
    seeds = np.asarray(env_seeds, dtype=np.uint64).ravel()
    levels = list(excursion_levels(law, seeds, p, rng, budget=budget))
    sizes = np.array([lv.row.size for lv in levels], dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    row = np.concatenate([lv.row for lv in levels])
    parent = np.concatenate(
        [levels[0].parent] + [lv.parent + start[g] for g, lv in enumerate(levels[1:])]
    )
    key = np.concatenate([lv.key for lv in levels])
    N = np.concatenate([lv.N for lv in levels])
    total = np.zeros(seeds.size, dtype=np.int64)
    np.add.at(total, row, N)
    over = np.zeros(seeds.size, dtype=bool) if budget is None else total > budget
    keep = ~over[row]
    if not keep.all():
        new = np.cumsum(keep) - 1
        parent = np.where(parent >= 0, new[parent], -1)
        row, parent, key, N = (x[keep] for x in (row, parent, key, N))
    return ExcursionBatch(row, parent, key, N, over)


def hypothesis_sums_batch(
    law: MarkLaw, n_samples: int, rng: np.random.Generator, p: int = 1
):
    """Per-sample sums over the pruned excursion tree at tau^p, on a fresh
    environment per sample (the annealed law):

        B      number of count-1 non-root nodes: the level-0 regeneration
               count, and at p = 1 the first-generation type-1 count,
        nu     sum of N over the non-root nodes,
        nu_t   number of non-root nodes.

    The samples run SAMPLE_CHUNK at a time, each chunk drawing its
    environment seeds from rng and then its trees, so memory holds one
    generation of one chunk. Returns dict of arrays, each of length
    n_samples."""
    B = np.zeros(n_samples, dtype=np.int64)
    nu = np.zeros(n_samples, dtype=np.int64)
    nu_t = np.zeros(n_samples, dtype=np.int64)
    for i in range(0, n_samples, SAMPLE_CHUNK):
        n = min(SAMPLE_CHUNK, n_samples - i)
        seeds = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        levels = excursion_levels(law, seeds, p, rng, prune=True)
        next(levels, None)  # the roots carry no summand
        for lv in levels:
            row = lv.row + i
            np.add.at(B, row[lv.N == 1], 1)
            np.add.at(nu, row, lv.N)
            np.add.at(nu_t, row, 1)
    return {"B": B, "nu": nu, "nu_tilde": nu_t}
