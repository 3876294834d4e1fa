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

__all__ = ["simulate_time_grid", "simulate_excursion_grid"]


def simulate_time_grid(law, env_seed: int, walk_seed: int, m_grid):
    """Run to max(m_grid) steps, snapshotting (m, L, R, T) at each grid point.

    Returns the kernel result dict."""
    grid = np.asarray(sorted(int(m) for m in m_grid), dtype=np.int64)
    return kernel.run_walk(
        law.tables(), env_seed, walk_seed, kernel.MODE_STEPS, int(grid[-1]), grid
    )


def simulate_excursion_grid(law, env_seed: int, walk_seed: int, p_grid, budget: int):
    """Run to the max(p_grid)-th crossing of (e*, e), snapshotting
    (p, tau^p, T^p, R at tau^p) at each grid point.

    Null recurrence makes tau^p heavy-tailed, so the walk stops after
    `budget` steps: the result then has status STATUS_BUDGET and only the
    snapshots completed by then, and callers treat the missing tail as
    censored."""
    grid = np.asarray(sorted(int(p) for p in p_grid), dtype=np.int64)
    return kernel.run_walk(
        law.tables(), env_seed, walk_seed, kernel.MODE_CROSSINGS, int(grid[-1]), grid,
        budget=budget,
    )
