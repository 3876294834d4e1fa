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

The one sampler is the library's `kernel.count_trees` (`gw_counts` in
`_walk.c`), which this module and `theorem1` call. It carries (row, parent,
key, N) per node for a batch of (environment seed, root count) rows, one
generation at a time, so memory holds two generations of one chunk. A node's
atom comes from its key, and the keys of the roots and of the children from
the root and child keys of `_rng`, exactly as `env.next_level` and the walk
kernel grow the keyed environment, so a row is quenched on its seed's
environment. Every environment node occurs at most once in a tree, so fresh
seeds per row give the annealed law. Counts at depth <= d depend only on
their ancestors: stopping after generation d samples the tree truncated at
depth d exactly. The draws are numpy's own gamma and Poisson, linked from
numpy's C library and made on the caller's generator in the order of the
numpy reference `tests/oracles.excursion_levels`: per generation one gamma
per expanded node, then one Poisson per (node, child slot). So the library
returns the reference's bytes and leaves the generator in the same state.

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

import numpy as np

from . import kernel
from .law import MarkLaw

__all__ = [
    "ExcursionBatch",
    "sample_excursion_tree",
    "hypothesis_sums_batch",
    "SAMPLE_CHUNK",
]

# samples per batch of the annealed samplers (here and in
# limits.estimate_discounted_moments): memory holds one batch's scratch
SAMPLE_CHUNK = 2**17


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
    rng: kernel.PCG64,
    budget=None,
) -> ExcursionBatch:
    """(Visited set, counts) at tau^p on every environment of env_seeds,
    no walk involved: the whole trees of `kernel.count_trees`. A tree whose
    sum of N passes the budget is cut and dropped; its row is flagged in
    `over`, so the batch holds complete trees only."""
    sums, tree = kernel.count_trees(law.tables(), env_seeds, p, rng, budget=budget, keep=True)
    row, parent, key, N = tree["row"], tree["parent"], tree["key"], tree["N"]
    if budget is None:
        over = np.zeros(sums.shape[1], dtype=bool)
    else:
        over = sums[0] + np.asarray(p) > np.asarray(budget)  # the sum of N, root included
    keep = ~over[row]
    if not keep.all():
        new = np.cumsum(keep) - 1
        parent = np.where(parent >= 0, new[parent], -1)
        row, parent, key, N = (x[keep] for x in (row, parent, key, N))
    return ExcursionBatch(row, parent, key, N, over)


def hypothesis_sums_batch(
    law: MarkLaw, n_samples: int, rng: kernel.PCG64, p: int = 1
):
    """Per-sample sums over the pruned excursion tree at tau^p, on a fresh
    environment per sample (the annealed law):

        B      number of count-1 non-root nodes: the level-0 regeneration
               count, and at p = 1 the first-generation type-1 count,
        nu     sum of N over the non-root nodes,
        nu_t   number of non-root nodes.

    The samples run SAMPLE_CHUNK at a time, each chunk drawing its
    environment seeds from rng and then its trees, so memory holds two
    generations of one chunk. Returns dict of arrays, each of length
    n_samples."""
    t = law.tables()
    sums = np.empty((3, n_samples), dtype=np.int64)
    for i in range(0, n_samples, SAMPLE_CHUNK):
        n = min(SAMPLE_CHUNK, n_samples - i)
        seeds = rng.integers(0, 2**64, np.empty(n, dtype=np.uint64))
        sums[:, i : i + n] = kernel.count_trees(t, seeds, p, rng, prune=True)[0]
    nu, nu_t, B = sums
    return {"B": B, "nu": nu, "nu_tilde": nu_t}
