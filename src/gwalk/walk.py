"""Nearest-neighbour biased walk on a marked tree: the grid runners that the
campaigns call, on top of the walk kernel (`gwalk.kernel`).

Each runner walks a whole batch of trials in one kernel call per thread
(`kernel.run_walks`), not one call per walk, and snapshots the clocks and
local times the scaling limits refer to at a sorted grid of step counts or
crossing indices. The kernel grows each keyed environment lazily, so (law,
env seed, walk seed) determines a trial's trajectory byte for byte, whatever
the thread count.

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


def _grid(points) -> np.ndarray:
    return np.asarray(sorted(int(p) for p in points), dtype=np.int64)


def simulate_time_grid(law, env_seeds, walk_seeds, m_grid, threads: int = 1):
    """Run trial t on (env_seeds[t], walk_seeds[t]) to max(m_grid) steps,
    snapshotting (m, L, R, T) at each grid point.

    Returns the `kernel.run_walks` result, one row per trial."""
    grid = _grid(m_grid)
    return kernel.run_walks(law.tables(), env_seeds, walk_seeds, kernel.MODE_STEPS,
                            int(grid[-1]), grid, threads=threads)


def simulate_excursion_grid(law, env_seeds, walk_seeds, p_grid, budget: int,
                            threads: int = 1):
    """Run trial t on (env_seeds[t], walk_seeds[t]) to the max(p_grid)-th
    crossing of (e*, e), snapshotting (p, tau^p, T^p, R at tau^p) at each
    grid point.

    Null recurrence makes tau^p heavy-tailed, so a walk stops after `budget`
    steps: its row then has status STATUS_BUDGET and only the nsnap
    snapshots completed by then, and callers treat the missing tail as
    censored."""
    grid = _grid(p_grid)
    return kernel.run_walks(law.tables(), env_seeds, walk_seeds, kernel.MODE_CROSSINGS,
                            int(grid[-1]), grid, budget=budget, threads=threads)
