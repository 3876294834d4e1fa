"""Excursion trees sampled directly from their branching law, one generation
of a whole batch at a time, and the moment sums behind the forest hypotheses.

The walk up to tau^p (the p-th return to e*) visits a random subtree;
attaching to every visited node x its edge local time N_x turns the pair
(visited set, counts) into a multi-type branching tree: conditionally on
N_x = k and on the environment at x, the children counts are negative
multinomial: the total is the number of failures before the k-th success in
Bernoulli(p_back) trials, split multinomially among the children, where
p_back = 1/(1 + sum_i e^{-a_i}) and the split weights are proportional to
e^{-a_i} for the child marks a_i (the potential level at x cancels). These
are the per-atom rows p_up and split of `MarkLaw.tables`.

`excursion_levels` is the one sampler. It carries (row, parent, key, N) per
node for a batch of (environment seed, root count) rows, one generation at a
time. A node's atom comes from its key, and the keys of the roots and of
the children from `root_key_np` and `child_key_np`, exactly as `MarkedTree`
and the walk kernels grow the keyed environment, so a row is quenched on its
seed's environment. Every
environment node occurs at most once in a tree, so fresh seeds per row give
the annealed law. Counts at depth <= d depend only on their ancestors:
stopping after generation d samples the tree truncated at depth d exactly.

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
    "NB_INVERSION_MAX_K",
]

NB_INVERSION_MAX_K = 64
DEFAULT_NODE_BUDGET = 10**8


class Level(NamedTuple):
    """One generation of a batch. Nodes are sorted by row and, within a row,
    by parent; siblings follow their child index."""

    row: np.ndarray  # batch row of each node
    parent: np.ndarray  # index into the previous generation, -1 at the roots
    key: np.ndarray  # environment key (uint64)
    N: np.ndarray  # edge count, >= 1


def _nb_failures_batch(k: np.ndarray, p: float, rng: np.random.Generator):
    """Failures before the k-th success in Bernoulli(p) trials, for every
    entry of k at a fixed p < 1: CDF inversion for k below
    NB_INVERSION_MAX_K (falling back when p^k underflows), Gamma-Poisson
    mixture otherwise."""
    out = np.zeros(len(k), dtype=np.int64)
    kf = k.astype(np.float64)
    pmf = p ** kf
    small = (k < NB_INVERSION_MAX_K) & (pmf > 1e-290)
    if small.any():
        kf, pmf = kf[small], pmf[small]
        u = rng.random(len(kf))
        cdf = pmf.copy()
        m = np.zeros(len(kf), dtype=np.int64)
        rows = np.flatnonzero(u >= cdf)
        step, width, q = 0, 64, 1.0 - p
        # the inversion runs in rounds of `width` terms per row, doubling
        # each round (fewer when many rows are still searching, to bound the
        # temporary arrays); cumprod and cumsum accumulate in term order, so
        # each row rounds as pmf *= q (k + j) / (j + 1); cdf += pmf would,
        # whatever the round sizes
        while rows.size:
            j = np.arange(step, step + max(1, min(width, 2**16 // rows.size)),
                          dtype=np.float64)
            terms = q * (kf[rows, None] + j) / (j + 1.0)
            terms[:, 0] *= pmf[rows]
            terms = np.cumprod(terms, axis=1)
            cum = terms.copy()
            cum[:, 0] += cdf[rows]
            cum = np.cumsum(cum, axis=1)
            hit = u[rows, None] < cum
            found = hit.any(axis=1)
            m[rows[found]] = step + 1 + hit[found].argmax(axis=1)
            pmf[rows], cdf[rows] = terms[:, -1], cum[:, -1]
            rows = rows[~found]
            step += len(j)
            width *= 2
        out[small] = m
    big = ~small
    if big.any():
        g = rng.gamma(shape=k[big].astype(np.float64), scale=(1.0 - p) / p)
        out[big] = rng.poisson(g)
    return out


def excursion_levels(
    law: MarkLaw,
    env_seeds,
    root_counts,
    rng: np.random.Generator,
    prune: bool = False,
    node_budget: int | None = None,
) -> Iterator[Level]:
    """Yield the generations of one excursion tree per row, roots first.

    Row r grows on the keyed environment of env_seeds[r] with root count
    root_counts[r] (a scalar applies to every row; the root count p samples
    the counts at tau^p). The generations are drawn lazily: a consumer that
    stops after generation d has drawn nothing deeper. Per atom, one
    negative-binomial draw gives each node's child total and one
    multinomial draw its split. With prune=True, count-1 nodes below the
    root are not expanded. With node_budget, a row stops growing once its
    tree holds more than node_budget nodes, so a consumer finds the rows
    over the budget by counting their nodes."""
    t = law.tables()
    key = root_key_np(env_seeds)
    n = key.size
    N = np.broadcast_to(np.asarray(root_counts, dtype=np.int64), n).copy()
    if (N < 1).any():
        raise ValueError("root counts must be >= 1")
    row = np.arange(n, dtype=np.int64)
    parent = np.broadcast_to(np.int64(-1), n)
    size = None if node_budget is None else np.zeros(n, dtype=np.int64)
    dmax = int(t.lens.max())
    root = True
    while row.size:
        yield Level(row, parent, key, N)
        ex = np.flatnonzero(N >= 2) if prune and not root else np.arange(row.size)
        root = False
        if size is not None:
            np.add.at(size, row, 1)
            ex = ex[size[row[ex]] <= node_budget]
        atom = np.searchsorted(
            t.cum, (key[ex] >> np.uint64(11)) * TWO_NEG53, side="right"
        )
        kids = np.zeros((ex.size, dmax), dtype=np.int64)
        for a in np.flatnonzero(t.lens):
            sel = np.flatnonzero(atom == a)
            if not sel.size:
                continue
            m = _nb_failures_batch(N[ex[sel]], t.p_up[a], rng)
            pos = m > 0
            if pos.any():
                split = t.split[t.off[a] : t.off[a] + t.lens[a]]
                kids[sel[pos], : split.size] = rng.multinomial(m[pos], split)
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
    tree passed the node budget are flagged in `over` and hold no nodes."""

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
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ExcursionBatch:
    """(Visited set, counts) at tau^p on every environment of env_seeds,
    no walk involved: the whole trees of `excursion_levels`. A tree that
    passes node_budget nodes is cut and dropped; its row is flagged in
    `over`, so the batch holds complete trees only."""
    seeds = np.asarray(env_seeds, dtype=np.uint64).ravel()
    levels = list(excursion_levels(law, seeds, p, rng, node_budget=node_budget))
    sizes = np.array([lv.row.size for lv in levels], dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    row = np.concatenate([lv.row for lv in levels])
    parent = np.concatenate(
        [levels[0].parent] + [lv.parent + start[g] for g, lv in enumerate(levels[1:])]
    )
    key = np.concatenate([lv.key for lv in levels])
    N = np.concatenate([lv.N for lv in levels])
    over = np.bincount(row, minlength=seeds.size) > node_budget
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

    The environment seeds come from rng. One generation is held in memory
    at a time. Returns dict of arrays, each of length n_samples."""
    B = np.zeros(n_samples, dtype=np.int64)
    nu = np.zeros(n_samples, dtype=np.int64)
    nu_t = np.zeros(n_samples, dtype=np.int64)
    seeds = rng.integers(0, 2**64, size=n_samples, dtype=np.uint64)
    levels = excursion_levels(law, seeds, p, rng, prune=True)
    next(levels, None)  # the roots carry no summand
    for lv in levels:
        np.add.at(B, lv.row[lv.N == 1], 1)
        np.add.at(nu, lv.row, lv.N)
        np.add.at(nu_t, lv.row, 1)
    return {"B": B, "nu": nu, "nu_tilde": nu_t}
