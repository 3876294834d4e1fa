"""Nearest-neighbour biased walk on a marked tree, with every clock and
local-time statistic the scaling limits refer to.

Two execution paths share one law of the walk:

* a slow per-step path over an inspectable ``MarkedTree`` (this file), used
  by unit tests and oracle comparisons, with full sparse counters;
* the array kernel (`gwalk.kernel`), used for long campaigns.

Both consume the walker RNG stream identically and grow identical keyed
environments, so (law, env seed, walk seed) determines the trajectory
byte-for-byte no matter which path runs it.

Conventions: X_0 = e (the root). The parent of the root is the reflecting
vertex e*, encoded as node id -1; from e* the next move is to e with
probability one and such steps do not advance the excised clock T. tau^j is
the j-th crossing time of the oriented edge (e*, e); T^j is the excised clock
at the j-th visit to e*, and T^j = tau^j - j holds pathwise (both counters
are maintained independently and the identity is asserted, not assumed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import GOLDEN, MASK, TWO_NEG53, mix64
from .env import MarkedTree
from . import kernel

__all__ = [
    "StepBudgetExceeded",
    "WalkRecord",
    "step",
    "run_until_tau",
    "run_until_time",
    "snapshot_marginals",
    "simulate_time_grid",
    "simulate_excursion_grid",
    "write_trajectories",
    "check_conservation",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**10


class StepBudgetExceeded(RuntimeError):
    """The walk hit the hard step cap before reaching its target."""

    code = "STEP_BUDGET_EXCEEDED"


@dataclass
class WalkRecord:
    """Full state of one walk, with sparse counters.

    Site local times ``site_lt`` count arrivals per node for steps 1..m (the
    start at the root is not counted); key -1 is e*, so site_lt[-1] is the
    running L^m. Edge local times ``n_down`` count parent->child crossings
    (n_down[root] counts e*->e). ``n_up`` counts child->parent crossings.
    """

    walk_seed: int
    node: int = 0
    m: int = 0
    t_ex: int = 0
    tau: list[int] = field(default_factory=lambda: [0])
    T: list[int] = field(default_factory=lambda: [0])
    site_lt: dict[int, int] = field(default_factory=dict)
    n_down: dict[int, int] = field(default_factory=dict)
    n_up: dict[int, int] = field(default_factory=dict)
    visited: set[int] = field(default_factory=lambda: {0})
    _state: int = field(init=False)
    _wtot: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._state = self.walk_seed & MASK

    @property
    def L(self) -> int:
        return self.site_lt.get(-1, 0)

    @property
    def R(self) -> int:
        return len(self.visited)

    @property
    def crossings(self) -> int:
        return len(self.tau) - 1


def _weights(tree: MarkedTree, record: WalkRecord, x: int):
    """w(x) = e^{-V(x)} and the total over the up-move and all children,
    accumulated in the same order as the kernels (bit parity)."""
    got = record._wtot.get(x)
    if got is not None:
        return got
    kids = tree.grow(x)
    wx = math.exp(-tree.V[x])
    s = wx
    ws = []
    for c in kids:
        wc = math.exp(-tree.V[c])
        ws.append(wc)
        s += wc
    entry = (wx, s, kids, tuple(ws))
    record._wtot[x] = entry
    return entry


def step(tree: MarkedTree, record: WalkRecord) -> WalkRecord:
    """Advance one step, updating every counter in O(1) amortized."""
    x = record.node
    if x == -1:
        dest = 0
        record.m += 1
        record.n_down[0] = record.n_down.get(0, 0) + 1
        record.tau.append(record.m)
        record.T.append(record.t_ex)
        assert record.T[-1] == record.tau[-1] - (len(record.tau) - 1)
    else:
        wx, tot, kids, ws = _weights(tree, record, x)
        if not kids:
            dest = tree.parent[x]
        else:
            record._state = (record._state + GOLDEN) & MASK
            u = (mix64(record._state) >> 11) * TWO_NEG53
            u *= tot
            if u < wx:
                dest = tree.parent[x]
            else:
                u -= wx
                i = 0
                last = len(kids) - 1
                while i < last and u >= ws[i]:
                    u -= ws[i]
                    i += 1
                dest = kids[i]
        record.m += 1
        record.t_ex += 1
        if dest == tree.parent[x]:
            record.n_up[x] = record.n_up.get(x, 0) + 1
        else:
            record.n_down[dest] = record.n_down.get(dest, 0) + 1
            record.visited.add(dest)
    record.site_lt[dest] = record.site_lt.get(dest, 0) + 1
    record.node = dest
    return record


def run_until_tau(
    tree: MarkedTree, record: WalkRecord, p: int, budget: int = DEFAULT_BUDGET
) -> WalkRecord:
    """Advance until tau^p is recorded (walk then sits at the root)."""
    if p < record.crossings:
        raise ValueError("p below current excursion count")
    while record.crossings < p:
        if record.m >= budget:
            raise StepBudgetExceeded(f"budget {budget} hit before tau^{p}")
        step(tree, record)
    return record


def run_until_time(
    tree: MarkedTree, record: WalkRecord, m: int, budget: int = DEFAULT_BUDGET
) -> WalkRecord:
    """Advance to step m exactly."""
    while record.m < m:
        if record.m >= budget:
            raise StepBudgetExceeded(f"budget {budget} hit before step {m}")
        step(tree, record)
    return record


def snapshot_marginals(
    tree: MarkedTree,
    record: WalkRecord,
    time_grid=(),
    excursion_grid=(),
    budget: int = DEFAULT_BUDGET,
):
    """Advance through sorted grids, emitting marginal rows for the stats
    layer: (("m", m, L^m, R_m, tau=None, T^m) for time points and
    ("p", p, L, R_{T^p}, tau^p, T^p) for excursion points."""
    rows = []
    for m in time_grid:
        run_until_time(tree, record, int(m), budget)
        rows.append(("m", record.m, record.L, record.R, None, record.t_ex))
    for p in excursion_grid:
        run_until_tau(tree, record, int(p), budget)
        rows.append(("p", p, record.L, record.R, record.tau[p], record.T[p]))
    return rows


# ----------------------------------------------------------------------------
# Kernel-backed fast paths


def simulate_time_grid(
    law,
    env_seed: int,
    walk_seed: int,
    m_grid,
    budget: int = DEFAULT_BUDGET,
    collect_tree: bool = False,
    depth_cap: int = -1,
):
    """Run to max(m_grid) steps, snapshotting (m, L, R, T) at each grid point.

    Returns the kernel result dict; raises StepBudgetExceeded on the budget
    status (only possible when budget < max(m_grid))."""
    grid = np.asarray(sorted(int(m) for m in m_grid), dtype=np.int64)
    res = kernel.run_walk(
        law.tables(),
        env_seed,
        walk_seed,
        kernel.MODE_STEPS,
        int(grid[-1]),
        grid,
        budget=budget,
        depth_cap=depth_cap,
        collect_tree=collect_tree,
    )
    if res["status"] == kernel.STATUS_BUDGET:
        raise StepBudgetExceeded(f"budget {budget} hit before step {grid[-1]}")
    return res


def simulate_excursion_grid(
    law,
    env_seed: int,
    walk_seed: int,
    p_grid,
    budget: int = DEFAULT_BUDGET,
    collect_tree: bool = False,
    depth_cap: int = -1,
    raise_on_budget: bool = True,
):
    """Run to the max(p_grid)-th crossing of (e*, e), snapshotting
    (p, tau^p, T^p, R at tau^p) at each grid point.

    Null recurrence makes tau^p heavy-tailed, so with raise_on_budget=False
    a budget hit returns the partial result (status, completed snapshots)
    instead of raising; callers treat the missing tail as censored."""
    grid = np.asarray(sorted(int(p) for p in p_grid), dtype=np.int64)
    res = kernel.run_walk(
        law.tables(),
        env_seed,
        walk_seed,
        kernel.MODE_CROSSINGS,
        int(grid[-1]),
        grid,
        budget=budget,
        depth_cap=depth_cap,
        collect_tree=collect_tree,
    )
    if res["status"] == kernel.STATUS_BUDGET and raise_on_budget:
        raise StepBudgetExceeded(f"budget {budget} hit before crossing {grid[-1]}")
    return res


def write_trajectories(path, rows) -> None:
    """CSV dump: columns (trial, seed, m_or_p, L, R, tau, T)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trial", "seed", "m_or_p", "L", "R", "tau", "T"])
        for r in rows:
            w.writerow(r)


def check_conservation(record: WalkRecord) -> None:
    """Exact step-conservation identities; raises AssertionError on breach."""
    total = sum(record.n_down.values()) + sum(record.n_up.values())
    assert total == record.m, (total, record.m)
    assert sum(record.site_lt.values()) == record.m
    p = record.crossings
    assert record.n_down.get(0, 0) == p
    for j in range(1, p + 1):
        assert record.T[j] == record.tau[j] - j
