"""Excursion trees sampled directly from their branching law, one tree at a
time on its own generator, and the moment sums behind the forest hypotheses.

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
`_walk.c`), which this module and `theorem1` call. A row is an
(environment seed, walk seed, root count): the library grows it one
generation at a time on the PCG64 stream of its walk seed, then the next
row, and stores (row, parent, key, N) per node. Unless the whole trees are
asked for (`sample_excursion_tree`), it holds two generations of one row
at a time, and with pruning only the nodes with N >= 2 among them: a
count-1 child is counted in the sums and never stored. A node's
atom comes from its key, and the keys of the roots and of the children from
the root and child keys of `_rng`, exactly as `env.next_level` and the walk
kernel grow the keyed environment, so a row is quenched on its seed's
environment. Every environment node occurs at most once in a tree, so fresh
seeds per row give the annealed law. Counts at depth <= d depend only on
their ancestors: stopping after generation d samples the tree truncated at
depth d exactly. The draws are numpy's own gamma and Poisson, linked from
numpy's C library and made in the order of the numpy reference
`tests/oracles.excursion_levels` on the row alone and the row's generator:
per generation one gamma per expanded node, then one Poisson per (node,
child slot). So each row has the reference's bytes, and a row's bytes do
not depend on how many rows are drawn with it.

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

# samples per batch of the annealed samplers (here, in forest and in
# limits.estimate_discounted_moments): memory holds one batch's scratch
SAMPLE_CHUNK = 2**17
# rows per seed slice of hypothesis_sums_batch, at most: 64 KB of seed pairs
SEED_SLICE = 2**12


@dataclass
class ExcursionBatch:
    """The complete trees of one `sample_excursion_tree` call.

    Node arrays row after row, each row's root and then its generations in
    turn; parent is the place of a node's parent among its row's nodes (-1
    at the root). Rows whose tree passed the budget are flagged in `over`
    and hold no nodes."""

    row: np.ndarray
    parent: np.ndarray
    key: np.ndarray
    N: np.ndarray
    over: np.ndarray

    def __len__(self) -> int:
        return len(self.row)


def sample_excursion_tree(law: MarkLaw, env_seeds, walk_seeds, p, budget=None) -> ExcursionBatch:
    """(Visited set, counts) at tau^p on every environment of env_seeds,
    row r drawn on the stream of walk_seeds[r], no walk involved: the whole
    trees of `kernel.count_trees`. A tree whose sum of N passes the budget
    is cut and dropped; its row is flagged in `over`, so the batch holds
    complete trees only."""
    sums, tree = kernel.count_trees(law.tables(), env_seeds, walk_seeds, p, budget=budget,
                                    keep=True)
    over = np.zeros(sums.shape[1], dtype=bool)
    if budget is not None:
        over = sums[0] + np.asarray(p) > np.asarray(budget)  # the sum of N, root included
        if over.any():
            keep = ~over[tree["row"]]  # whole rows, so parents keep their places
            tree = {f: x[keep] for f, x in tree.items()}
    return ExcursionBatch(**tree, over=over)


def hypothesis_sums_batch(
    law: MarkLaw, n_samples: int, rng: kernel.PCG64, p: int = 1
):
    """Per-sample sums over the pruned excursion tree at tau^p, on a fresh
    environment per sample (the annealed law):

        B      number of count-1 non-root nodes: the level-0 regeneration
               count, and at p = 1 the first-generation type-1 count,
        nu     sum of N over the non-root nodes,
        nu_t   number of non-root nodes.

    Sample i draws on the (environment, walk) seed pair made of rng's
    draws 2i and 2i + 1. The pairs are drawn min(SAMPLE_CHUNK, SEED_SLICE)
    samples at a time, into one reused slice, and the library writes each
    slice's sums straight into one (3, n_samples) array. So memory holds
    that array, one slice of seed pairs and the library's two generations
    of one row, and the bytes do not depend on the slice size. Returns dict
    of views of that array, each of length n_samples."""
    t = law.tables()
    sums = np.empty((3, n_samples), dtype=np.int64)
    seeds = np.empty((max(1, min(SAMPLE_CHUNK, SEED_SLICE, n_samples)), 2), dtype=np.uint64)
    for i in range(0, n_samples, len(seeds)):
        pairs = rng.integers(0, 2**64, seeds[: n_samples - i])
        kernel.count_trees(t, pairs[:, 0], pairs[:, 1], p, prune=True,
                           out=sums[:, i : i + len(pairs)])
    nu, nu_t, B = sums
    return {"B": B, "nu": nu, "nu_tilde": nu_t}
