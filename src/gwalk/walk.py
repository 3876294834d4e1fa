"""Nearest-neighbour biased walk on a marked tree: the grid runners that the
campaigns call, on top of the walk kernel (`gwalk.kernel`).

Each runner makes one kernel call that snapshots the clocks and local times
the scaling limits refer to at a sorted grid of step counts or crossing
indices. The kernel grows the keyed environment lazily, so (law, env seed,
walk seed) determines the trajectory byte for byte.

Conventions: X_0 = e (the root). The parent of the root is the reflecting
vertex e*, encoded as node id -1; from e* the next move is to e with
probability one and such steps do not advance the excised clock T. tau^j is
the j-th crossing time of the oriented edge (e*, e); T^j is the excised clock
at the j-th visit to e*, and T^j = tau^j - j holds pathwise. The kernel keeps
the two counters apart, and the tests check the identity on its output.
"""

from __future__ import annotations

import numpy as np

from . import kernel

__all__ = [
    "StepBudgetExceeded",
    "simulate_time_grid",
    "simulate_excursion_grid",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**10


class StepBudgetExceeded(RuntimeError):
    """The walk hit the hard step cap before reaching its target."""

    code = "STEP_BUDGET_EXCEEDED"


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
