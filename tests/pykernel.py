"""Pure-Python reference of the walk kernel, for the tests.

`gwalk.kernel` documents the walk's contract and binds the compiled kernel
`_walk.c`; this `run_walk` has the same signature and gives bit-identical
output for equal seeds, the walk's tree included, and
tests/test_kernel_parity.py compares the two. It
checks an explicit tree with the package's own `kernel.explicit_tree`. Keep
every arithmetic operation in the hot loop in the same order as `_walk.c`.
"""

from __future__ import annotations

import numpy as np

from gwalk._rng import GOLDEN, MASK, TWO_NEG53, child_key, mix64, root_key
from gwalk.env import atom_of
from gwalk.kernel import MODE_CROSSINGS, MODE_STEPS, STATUS_BUDGET, STATUS_OK, explicit_tree


def run_walk(
    law_tables,
    env_seed: int,
    walker_seed: int,
    mode: int,
    limit: int,
    snaps,
    budget: int = 10**10,
    explicit=None,
):
    """Run one walk; returns a dict of scalars and numpy arrays, the walk's
    tree among them: tree_parent, tree_atom, tree_ndown and tree_nup, one
    entry per node (tree_atom is -1 at an ungrown node).

    law_tables: the LawTables of MarkLaw.tables, or None when `explicit`
    supplies a prebuilt finite tree as a dict with keys parent, V (checked
    and converted by explicit_tree). The walk stops early, with status
    STATUS_BUDGET, once it has taken `budget` steps.
    """
    snaps = np.asarray(snaps, dtype=np.int64)
    nsnap = len(snaps)
    snap = np.empty((4, nsnap), dtype=np.int64)  # rows tau, T, L, R

    if explicit is None:
        tables = law_tables
        parent = [-1]
        key = [root_key(env_seed)]
        child0 = [-1]
        atom = [-1]
    else:
        tables, parent, child0 = explicit_tree(explicit)
        atom = list(range(len(parent)))
        key = [0] * len(parent)
    atom_off = tables.off.tolist()
    atom_len = tables.lens.tolist()
    p_up = tables.p_up.tolist()
    step_cum = tables.step_cum.tolist()

    n_down = [0] * len(parent)
    n_up = [0] * len(parent)

    state = walker_seed & MASK

    pos = 0
    m = 0
    t_ex = 0
    L = 0
    R = 1
    status = STATUS_OK
    si = 0

    while True:
        if m >= budget:
            status = STATUS_BUDGET
            break
        if pos == -1:
            # forced crossing back to the root; origin e* is off the clock
            m += 1
            n_down[0] += 1
            pos = 0
            if mode == MODE_CROSSINGS:
                while si < nsnap and snaps[si] == L:
                    snap[:, si] = (m, t_ex, L, R)
                    si += 1
                if L >= limit:
                    break
        else:
            x = pos
            if atom[x] == -1:
                # grow node x: its key alone decides the offspring draw
                kx = key[x]
                a = atom[x] = int(atom_of(tables, kx))
                child0[x] = len(parent)
                for j in range(atom_len[a]):
                    parent.append(x)
                    key.append(child_key(kx, j))
                    child0.append(-1)
                    atom.append(-1)
                    n_down.append(0)
                    n_up.append(0)

            a = atom[x]
            k = atom_len[a]
            if k == 0:
                dest = parent[x]
            else:
                state = (state + GOLDEN) & MASK
                u = (mix64(state) >> 11) * TWO_NEG53
                if u < p_up[a]:
                    dest = parent[x]
                else:
                    c = child0[x]
                    last = c + k - 1
                    j = atom_off[a]
                    while c < last and u >= step_cum[j]:
                        c += 1
                        j += 1
                    dest = c

            m += 1
            t_ex += 1
            if dest == parent[x]:
                n_up[x] += 1
                if dest == -1:
                    L += 1
            else:
                if n_down[dest] == 0:
                    R += 1
                n_down[dest] += 1
            pos = dest

        if mode == MODE_STEPS:
            while si < nsnap and snaps[si] == m:
                snap[:, si] = (m, t_ex, L, R)
                si += 1
            if m >= limit:
                break

    out = {"status": status, "m": m, "t_ex": t_ex, "L": L, "R": R, "pos": pos,
           "nsnap": si, "nodes_grown": len(parent)}
    for row, name in enumerate(("tau", "T", "L", "R")):
        out["snap_" + name] = snap[row, :si].copy()
    tree = {"parent": parent, "atom": atom, "ndown": n_down, "nup": n_up}
    for name, values in tree.items():
        out["tree_" + name] = np.array(values, dtype=np.int64)
    return out
