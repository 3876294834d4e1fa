"""Quenched marked-tree environments and potential-level analytics.

A node's 64-bit key alone determines its offspring atom (`atom_of`) and the
keys of its children, so the environment is a pure function of its seed, the
one the walk kernels grow. `next_level` grows one generation of a batch of
environments; survival and the truncated trees of the exact oracles run on
it. The level martingale W_l runs on the library's depth-first walker over
the same keys. `MarkedTree` grows the same environment one node at a time,
as a reference for the tests.

Also houses the size-biased one-dimensional walk S: under the calibration
psi(1) = 0 the increment law has density p_i * exp(-a) on each mark a of atom
i, and the discounted sum D = sum_{j>=0} exp(-S_j) is the a.s. finite object
whose inverse moments drive the limit constants.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernel
from ._rng import MASK, TWO_NEG53, child_key, child_key_np, root_key, root_key_np
from .law import LawTables, MarkLaw

__all__ = [
    "MarkedTree",
    "atom_of",
    "next_level",
    "size_biased_increment_law",
    "discounted_sums_batch",
    "level_weights_batch",
    "enumerate_truncated",
    "environment_survives",
]


def atom_of(t: LawTables, key):
    """Offspring atom of a node key (an int, or each key of a uint64 array):
    the key's top 53 bits as a uniform on [0, 1), against the cumulative
    atom probabilities t.cum."""
    return t.cum.searchsorted((key >> 11) * TWO_NEG53, side="right")


def next_level(t: LawTables, row, key, V):
    """The children of one generation of a batch of keyed environments.

    The generation holds per node its batch row, key and potential V, sorted
    by row. Returns (row, parent, key, V) of the next generation, parent
    indexing the given one: rows in order, then parents in order, then
    siblings by child index. Taken from the roots, the generations in turn
    list every environment in BFS order with children consecutive."""
    a = atom_of(t, key)
    k = t.lens[a]
    parent = np.repeat(np.arange(k.size), k)
    # per-child sibling index j: 0,1,... within each parent
    j = np.arange(parent.size) - (np.cumsum(k) - k)[parent]
    V = V[parent] + t.marks[t.off[a][parent] + j]
    return row[parent], parent, child_key_np(key[parent], j), V


class MarkedTree:
    """The keyed environment grown one node at a time: the per-node reference
    for the tests and for the benchmark's count of `grow` calls.

    Node 0 is the root e with V = 0. ``children[x]`` is None until the node
    is grown, afterwards a fixed tuple of child ids.
    """

    def __init__(self, law: MarkLaw, env_seed: int):
        self.law = law
        self.env_seed = env_seed & MASK
        t = law.tables()
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
        return int(atom_of(self.law.tables(), self.key[node_id]))

    def grow(self, node_id: int) -> tuple[int, ...]:
        kids = self.children[node_id]
        if kids is not None:
            return kids
        a = self.atom_index(node_id)
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
# rows of one block drawn and reduced at a time. The scratch buffer holds
# _SLICE_ROWS x _MIN_TERMS values, 4 MB at 2**10 rows, which keeps a slice in
# cache and bounds the scratch whatever n is
_SLICE_ROWS = 2**10


def discounted_sums_batch(
    law: MarkLaw, n: int, eps: float, rng: kernel.PCG64
) -> np.ndarray:
    """n independent discounted sums D = sum_{j>=0} e^{-S_j}, vectorized.

    Each path is truncated once a conservative geometric tail bound drops
    below eps. The bound uses an empirical drift floor delta (half the
    running mean increment), re-estimated every 64 steps after the first
    512; at least 512 terms are always taken. D includes the j = 0 term
    e^{-S_0} = 1. An active mask drops the finished paths.

    A uniform u draws the increment of the first value whose cumulative
    probability exceeds u. Adjacent equal values of the increment law are
    merged into runs, so that value is the value of run number
    #{run-end thresholds <= u}, a threshold being the cumulative probability
    at a run's last atom (the last run has none). Each block is drawn and
    reduced _SLICE_ROWS paths at a time in one buffer allocated once per
    call, so the scratch stays at min(n, _SLICE_ROWS) x 512 values whatever
    n is. The library (`kernel.discount_exponents`) fills a slice with
    numpy's uniforms on rng, a `kernel.PCG64`, rows in order, so D and the
    generator's state do not depend on the slice; it looks up each
    increment, takes each row's running sum and writes the exponents -S_j.
    numpy takes their exp and row sums: numpy's SIMD exp may differ from the
    C library's in the last place, and the row sum is numpy's pairwise sum,
    so D keeps the bits of the numpy reference (tests/oracles.py).
    """
    vals, probs = size_biased_increment_law(law)
    cum = np.cumsum(probs)
    ends = np.flatnonzero(vals[1:] != vals[:-1])
    thresholds = cum[ends]
    run_vals = vals[np.r_[ends, vals.size - 1]]
    S = np.zeros(n)
    D = np.ones(n)
    buf = np.empty(min(n, _SLICE_ROWS) * _MIN_TERMS)
    active = np.arange(n)
    j = 0
    block = _MIN_TERMS
    while active.size:
        for lo in range(0, active.size, _SLICE_ROWS):
            rows = active[lo:lo + _SLICE_ROWS]
            c = buf[:rows.size * block].reshape(rows.size, block)
            kernel.discount_exponents(thresholds, run_vals, S, rows, c, rng)
            np.exp(c, out=c)
            D[rows] += c.sum(axis=1)
        j += block
        delta = np.maximum(1e-9, 0.5 * S[active] / j)
        bound = np.exp(-S[active]) / (1.0 - np.exp(-delta))
        active = active[bound >= eps]
        block = _REESTIMATE_EVERY
        if j > 10**7:
            break
    return D


# ----------------------------------------------------------------------------
# W_l on the library's walker; truncated trees and survival on next_level


def level_weights_batch(law: MarkLaw, env_seeds, level: int) -> np.ndarray:
    """W_level = sum of e^{-V(x)} over generation `level`, per environment
    seed (0.0 for an environment that dies by then).

    The library's depth-first walker (`kernel.level_potentials`) lists each
    generation, so memory is one generation of one environment. The leaves
    are summed in order from 0.0, as `np.bincount` sums a row, and e^{-V}
    is numpy's exp, so W has the bits of the breadth-first reference over
    `next_level` (tests/oracles.py)."""
    seeds = np.asarray(env_seeds, dtype=np.uint64).ravel()
    W = np.zeros(seeds.size)
    for i, V in enumerate(kernel.level_potentials(law.tables(), seeds, level)):
        if V.size:
            np.negative(V, out=V)
            np.exp(V, out=V)
            W[i] = np.cumsum(V, out=V)[-1]
    return W


def enumerate_truncated(law: MarkLaw, env_seed: int, depth: int) -> dict:
    """Fully grow the keyed environment to `depth` and return explicit
    arrays accepted by the kernels: parent, V, gen and key per node, in BFS
    order with children consecutive (the generations of `next_level`)."""
    t = law.tables()
    row = np.zeros(1, dtype=np.int64)
    levels = [(np.full(1, -1), root_key_np(env_seed), np.zeros(1))]
    start = 0
    for _ in range(depth):
        prev_key, prev_V = levels[-1][1:]
        row, parent, key, V = next_level(t, row, prev_key, prev_V)
        levels.append((parent + start, key, V))
        start += prev_key.size
    parent, key, V = (np.concatenate(x) for x in zip(*levels))
    gen = np.repeat(np.arange(depth + 1), [lv[1].size for lv in levels])
    return {"parent": parent, "V": V, "gen": gen, "key": key}


# a chunk of environment_survives holds under SURVIVE_CHUNK * SURVIVE_CAP *
# (most children of an atom) nodes per generation
SURVIVE_CHUNK = 64
SURVIVE_CAP = 4096


def environment_survives(law: MarkLaw, env_seeds, depth: int = 50) -> np.ndarray:
    """Per environment seed, whether the keyed environment's root line
    reaches `depth`.

    Laws with minimum offspring >= 1 cannot die and give True at once. An
    environment stops growing, as surviving, once a generation holds
    SURVIVE_CAP nodes (survival is then certain for practical purposes).
    The seeds run SURVIVE_CHUNK at a time, so memory stays bounded."""
    seeds = np.asarray(env_seeds, dtype=np.uint64).ravel()
    out = np.ones(seeds.size, dtype=bool)
    t = law.tables()
    if t.lens.min() >= 1:
        return out
    for i in range(0, seeds.size, SURVIVE_CHUNK):
        key = root_key_np(seeds[i : i + SURVIVE_CHUNK])
        m = key.size
        row = np.arange(m)
        V = np.zeros(m)
        capped = np.zeros(m, dtype=bool)
        for _ in range(depth):
            row, _, key, V = next_level(t, row, key, V)
            capped |= np.bincount(row, minlength=m) >= SURVIVE_CAP
            keep = ~capped[row]
            row, key, V = row[keep], key[keep], V[keep]
        out[i : i + m] = capped | (np.bincount(row, minlength=m) > 0)
    return out
