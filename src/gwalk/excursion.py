"""Excursion trees sampled directly from their branching law, regeneration
sets, and the moment sums behind the forest hypotheses.

One excursion of the walk (from the root until e* is hit) visits a random
subtree; attaching to every visited node x its edge local time N_x turns the
pair (visited set, counts) into a multi-type branching tree: conditionally on
N_x = k and on the environment at x, the children counts are negative
multinomial: the total is the number of failures before the k-th success in
Bernoulli(p_back) trials, split multinomially among the children, where
p_back = 1/(1 + sum_i e^{-a_i}) and the split weights are proportional to
e^{-a_i} for the child marks a_i (the potential level at x cancels).

The regeneration set at level l collects the x with |x| > l, N_x = 1 and
N >= 2 along the whole ancestor path strictly between level l and x. For
l = 0 the condition "all proper non-root ancestors have N >= 2" coincides
with the first-passage indicator G1(x) = 1 used by the forest transform, so
the hypothesis sums below can all be evaluated by the same pruned traversal
that never descends below a count-1 node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import MarkedTree
from .law import MarkLaw
from .walk import StepBudgetExceeded

__all__ = [
    "ExcursionTree",
    "RegenSet",
    "sample_children_counts",
    "sample_excursion_tree",
    "extract_regen",
    "hypothesis_sums_batch",
    "NB_INVERSION_MAX_K",
]

NB_INVERSION_MAX_K = 64
DEFAULT_NODE_BUDGET = 10**8


@dataclass
class ExcursionTree:
    """Visited subtree of one run to tau^p with edge counts N_x > 0.

    Arrays indexed by a compact node id, root first, parents before
    children (DFS emission order of the sampler)."""

    parent: np.ndarray
    gen: np.ndarray
    N: np.ndarray

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def root_count(self) -> int:
        return int(self.N[0])


@dataclass
class RegenSet:
    ids: tuple[int, ...]
    level: int

    @property
    def cardinal(self) -> int:
        return len(self.ids)


def sample_children_counts(
    k: int, p_back: float, p_children, rng: np.random.Generator
) -> list[int]:
    """Negative-multinomial children counts for a node crossed k times.

    Total M = failures before the k-th success in Bernoulli(p_back) trials;
    M is then split multinomially with weights p_children / (1 - p_back)."""
    p_children = np.asarray(p_children, dtype=np.float64)
    total = p_back + p_children.sum()
    # written so that NaN fails too
    if not (0.0 <= p_back <= 1.0 and abs(total - 1.0) <= 1e-12):
        raise ValueError(f"p_back = {p_back!r}, probabilities sum to {total!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    d = len(p_children)
    if d == 0 or p_back >= 1.0:
        return [0] * d
    m = _nb_failures_batch(np.array([k]), p_back, rng)[0]
    if m == 0:
        return [0] * d
    split = rng.multinomial(m, p_children / (1.0 - p_back))
    return [int(v) for v in split]


def sample_excursion_tree(
    tree: MarkedTree,
    p: int,
    rng: np.random.Generator,
    node_budget: int = DEFAULT_NODE_BUDGET,
    keep_env_ids: bool = False,
    regen_prune_level: int | None = None,
) -> ExcursionTree:
    """Sample (visited set, counts) at tau^p directly on a quenched
    environment, no walk involved: explicit-stack DFS applying
    sample_children_counts at every node with count >= 1.

    With regen_prune_level = l the recursion stops below any node deeper
    than l whose count is 1. Such a node blocks the level-l regeneration
    predicate for all its descendants, so extract_regen at any level >= l is
    unaffected, while the sampled tree stays small even though the full
    excursion tree has infinite expected size in the sub-diffusive regime."""
    if p < 1:
        raise ValueError("p must be >= 1")
    t = tree.law.tables()
    parent = [-1]
    gen = [0]
    N = [p]
    env_ids = [0]
    stack = [(0, 0)]  # (output id, environment node id)
    while stack:
        out_id, env_id = stack.pop()
        if (
            regen_prune_level is not None
            and gen[out_id] > regen_prune_level
            and N[out_id] == 1
        ):
            continue
        kids = tree.grow(env_id)
        if not kids:
            continue
        a = tree.atom_index(env_id)
        p_kids = (1.0 - t.p_up[a]) * t.split[t.off[a] : t.off[a] + len(kids)]
        counts = sample_children_counts(N[out_id], t.p_up[a], p_kids, rng)
        for c, kc in zip(kids, counts):
            if kc == 0:
                continue
            cid = len(parent)
            if cid > node_budget:
                raise StepBudgetExceeded(
                    f"excursion tree exceeded {node_budget} nodes"
                )
            parent.append(out_id)
            gen.append(gen[out_id] + 1)
            N.append(kc)
            env_ids.append(c)
            stack.append((cid, c))
    out = ExcursionTree(
        parent=np.array(parent, dtype=np.int64),
        gen=np.array(gen, dtype=np.int64),
        N=np.array(N, dtype=np.int64),
    )
    if keep_env_ids:
        out.env_ids = np.array(env_ids, dtype=np.int64)
    return out


def extract_regen(tree: ExcursionTree, level: int) -> RegenSet:
    """Regeneration set: x with |x| > level, N_x = 1 and N >= 2 along the
    ancestor path strictly between level and |x|. DFS filter; the result is
    an antichain by construction (asserted)."""
    parent, gen, N = tree.parent, tree.gen, tree.N
    n = len(parent)
    ok = np.zeros(n, dtype=bool)
    ok[0] = True
    ids = []
    # the sampler emits parents before children
    for x in range(1, n):
        pa = parent[x]
        ok[x] = ok[pa] and (gen[pa] <= level or N[pa] >= 2)
        if ok[x] and gen[x] > level and N[x] == 1:
            ids.append(x)
    picked = set(ids)
    for x in ids:
        pa = parent[x]
        while pa > 0:
            assert pa not in picked, "regeneration set not an antichain"
            pa = parent[pa]
    return RegenSet(ids=tuple(ids), level=level)


# ----------------------------------------------------------------------------
# Batched annealed sampler of the pruned excursion top (criterion inputs)


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


def hypothesis_sums_batch(
    law: MarkLaw, n_samples: int, rng: np.random.Generator, max_depth: int = 10**6
):
    """Per-sample sums over fresh single-excursion trees, pruned below
    count-1 nodes (all summands live on nodes whose proper non-root
    ancestors have N >= 2, so nothing is lost):

        B      number of nodes with N = 1 on the pruned support
               (the level-0 regeneration count),
        nu     sum of N over the pruned support,
        nu_t   number of pruned-support nodes.

    Environments are annealed: each node draws a fresh atom and steps by
    its row of the law's step tables (LawTables.p_up and split), so no V is
    tracked.
    Returns dict of arrays, each of length n_samples."""
    t = law.tables()
    cum, off, lens = t.cum, t.off, t.lens
    n_atoms = len(lens)

    B = np.zeros(n_samples, dtype=np.int64)
    nu = np.zeros(n_samples, dtype=np.int64)
    nu_t = np.zeros(n_samples, dtype=np.int64)

    sample_id = np.arange(n_samples, dtype=np.int64)
    counts = np.ones(n_samples, dtype=np.int64)  # root counts: p = 1
    depth = 0
    while sample_id.size:
        depth += 1
        if depth > max_depth:
            raise StepBudgetExceeded("pruned excursion sampler ran too deep")
        atoms = np.searchsorted(cum, rng.random(sample_id.size), side="right")
        next_sid = []
        next_cnt = []
        for a in range(n_atoms):
            sel = np.flatnonzero(atoms == a)
            if sel.size == 0 or lens[a] == 0:
                continue
            m = _nb_failures_batch(counts[sel], t.p_up[a], rng)
            pos = np.flatnonzero(m > 0)
            if pos.size == 0:
                continue
            kid_counts = rng.multinomial(m[pos], t.split[off[a] : off[a] + lens[a]])
            sid = sample_id[sel[pos]]
            for j in range(lens[a]):
                kc = kid_counts[:, j]
                nz = kc > 0
                if not nz.any():
                    continue
                csid = sid[nz]
                ck = kc[nz]
                ones = ck == 1
                np.add.at(B, csid[ones], 1)
                np.add.at(nu, csid, ck)
                np.add.at(nu_t, csid, 1)
                deeper = ~ones
                if deeper.any():
                    next_sid.append(csid[deeper])
                    next_cnt.append(ck[deeper])
        if next_sid:
            sample_id = np.concatenate(next_sid)
            counts = np.concatenate(next_cnt)
        else:
            break
    return {"B": B, "nu": nu, "nu_tilde": nu_t}
