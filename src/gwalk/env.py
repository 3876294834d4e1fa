"""Quenched marked-tree environments and potential-level analytics.

The inspectable ``MarkedTree`` grows the same environment as the walk kernels
for an equal environment seed: a node's 64-bit key alone determines its
offspring atom (key >> 11 scaled to [0,1) against the cumulative atom
probabilities) and the keys of its children. That makes everything computed
here (the level martingale W_l, survival, truncated trees for the exact
oracles) refer to the exact environment a walker with the same seed
experiences.

Also houses the size-biased one-dimensional walk S: under the calibration
psi(1) = 0 the increment law has density p_i * exp(-a) on each mark a of atom
i, and the discounted sum D = sum_{j>=0} exp(-S_j) is the a.s. finite object
whose inverse moments drive the limit constants.
"""

from __future__ import annotations

import math

import numpy as np

from ._rng import MASK, TWO_NEG53, child_key, child_key_np, root_key, root_key_np
from .law import MarkLaw

__all__ = [
    "MarkedTree",
    "size_biased_increment_law",
    "discounted_sums_batch",
    "level_weights_batch",
    "enumerate_truncated",
    "environment_survives",
]


class MarkedTree:
    """Lazily grown quenched environment, one node at a time.

    Node 0 is the root e with V = 0. ``children[x]`` is None until the node
    is grown (UNGROWN), afterwards a fixed tuple of child ids.
    """

    def __init__(self, law: MarkLaw, env_seed: int, depth_cap: int | None = None):
        self.law = law
        self.env_seed = env_seed & MASK
        self.depth_cap = depth_cap
        t = law.tables()
        self._cum = t.cum.tolist()
        self._off = t.off.tolist()
        self._len = t.lens.tolist()
        self._marks = t.marks.tolist()
        self.parent = [-1]
        self.children: list[tuple[int, ...] | None] = [None]
        self.mark = [0.0]
        self.V = [0.0]
        self.key = [root_key(self.env_seed)]
        self.gen = [0]

    def __len__(self) -> int:
        return len(self.parent)

    def atom_index(self, node_id: int) -> int:
        u = (self.key[node_id] >> 11) * TWO_NEG53
        a = 0
        while u >= self._cum[a]:
            a += 1
        return a

    def grow(self, node_id: int) -> tuple[int, ...]:
        kids = self.children[node_id]
        if kids is not None:
            return kids
        a = self.atom_index(node_id)
        if self.depth_cap is not None and self.gen[node_id] >= self.depth_cap:
            k = 0
        else:
            k = self._len[a]
        base = self._off[a]
        vx = self.V[node_id]
        kx = self.key[node_id]
        ids = []
        for j in range(k):
            c = len(self.parent)
            mark = self._marks[base + j]
            self.parent.append(node_id)
            self.children.append(None)
            self.mark.append(mark)
            self.V.append(vx + mark)
            self.key.append(child_key(kx, j))
            self.gen.append(self.gen[node_id] + 1)
            ids.append(c)
        kids = tuple(ids)
        self.children[node_id] = kids
        return kids


# ----------------------------------------------------------------------------
# Size-biased walk S and discounted sums


def size_biased_increment_law(law: MarkLaw):
    """Values and probabilities of S_1: mass p_i e^{-a} on each mark a of
    atom i. Sums to 1 exactly when psi(1) = 0."""
    vals = []
    probs = []
    for p, marks in law.atoms:
        for a in marks:
            vals.append(a)
            probs.append(p * math.exp(-a))
    v = np.array(vals)
    q = np.array(probs)
    return v, q


_MIN_TERMS = 512
_REESTIMATE_EVERY = 64


def discounted_sums_batch(
    law: MarkLaw, n: int, eps: float, rng: np.random.Generator
) -> np.ndarray:
    """n independent discounted sums D = sum_{j>=0} e^{-S_j}, vectorized.

    Each path is truncated once a conservative geometric tail bound drops
    below eps. The bound uses an empirical drift floor delta (half the
    running mean increment), re-estimated every 64 steps after the first
    512; at least 512 terms are always taken. D includes the j = 0 term
    e^{-S_0} = 1. An active mask drops the finished paths.
    """
    vals, probs = size_biased_increment_law(law)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    S = np.zeros(n)
    D = np.ones(n)
    active = np.arange(n)
    j = 0
    block = _MIN_TERMS
    while active.size:
        na = active.size
        u = rng.random((na, block))
        inc = vals[np.searchsorted(cum, u, side="right")]
        Sa = S[active, None] + np.cumsum(inc, axis=1)
        D[active] += np.exp(-Sa).sum(axis=1)
        S[active] = Sa[:, -1]
        j += block
        delta = np.maximum(1e-9, 0.5 * S[active] / j)
        bound = np.exp(-S[active]) / (1.0 - np.exp(-delta))
        active = active[bound >= eps]
        block = _REESTIMATE_EVERY
        if j > 10**7:
            break
    return D


# ----------------------------------------------------------------------------
# Vectorized level enumeration (same keyed environments as the kernels)


def level_weights_batch(law: MarkLaw, env_seeds: np.ndarray, level: int):
    """W_level for a batch of environments at once.

    Reproduces MarkedTree and the kernels exactly for equal seeds (same key
    scheme).
    Returns (W, alive) where alive marks environments whose level is
    nonempty. Memory grows like (number of environments) * E[N]^level; chunk
    the seeds at the call site for deep levels.
    """
    cum, off, lens, flat = law.tables()[:4]
    key = root_key_np(env_seeds)
    n = key.size
    env = np.arange(n, dtype=np.int64)
    V = np.zeros(n)
    for _ in range(level):
        u = (key >> np.uint64(11)).astype(np.float64) * TWO_NEG53
        a = np.searchsorted(cum, u, side="right")
        k = lens[a]
        env = np.repeat(env, k)
        pV = np.repeat(V, k)
        pkey = np.repeat(key, k)
        tot = int(k.sum())
        if tot == 0:
            env = env[:0]
            V = V[:0]
            key = key[:0]
            break
        # per-child sibling index j: 0,1,... within each parent
        stops = np.cumsum(k)
        j = np.arange(tot, dtype=np.int64) - np.repeat(stops - k, k)
        mark_idx = np.repeat(off[a], k) + j
        V = pV + flat[mark_idx]
        key = child_key_np(pkey, j)
    W = np.bincount(env, weights=np.exp(-V), minlength=n) if env.size else np.zeros(n)
    alive = (
        np.bincount(env, minlength=n) > 0 if env.size else np.zeros(n, dtype=bool)
    )
    if level == 0:
        return np.ones(n), np.ones(n, dtype=bool)
    return W, alive


# ----------------------------------------------------------------------------
# Explicit finite trees for oracle cross-checks


def enumerate_truncated(law: MarkLaw, env_seed: int, depth: int) -> dict:
    """Fully grow the keyed environment to `depth` (BFS order, children
    consecutive) and return explicit arrays accepted by the kernels."""
    tree = MarkedTree(law, env_seed, depth_cap=depth)
    order = [0]
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        order.extend(tree.grow(x))
    # BFS discovery order already lists children consecutively
    parent = np.array(tree.parent, dtype=np.int64)
    V = np.array(tree.V)
    gen = np.array(tree.gen, dtype=np.int64)
    return {"parent": parent, "V": V, "gen": gen, "tree": tree}


def environment_survives(law: MarkLaw, env_seed: int, depth: int = 50) -> bool:
    """Whether the keyed environment's root line reaches `depth`.

    Laws with minimum offspring >= 1 cannot die and return True immediately.
    Enumeration aborts early once a level holds 4096 nodes (survival is then
    certain for practical purposes).
    """
    if min(len(m) for _, m in law.atoms) >= 1:
        return True
    tree = MarkedTree(law, env_seed)
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            nxt.extend(tree.grow(x))
            if len(nxt) >= 4096:
                return True
        if not nxt:
            return False
        frontier = nxt
    return True
