"""Pure-Python walk kernel: lazy quenched environment plus the biased walk.

This module is the reference implementation; the plain-C file ``_walk.c`` is
its compiled twin, which ``gwalk.kernel`` binds through ctypes when it is
built and replaces with this module, after one warning, when it is not. The
parity test asserts bit-identical output of the two on shared seeds, and the
same ``ValueError`` for a malformed explicit tree. Keep every arithmetic
operation in the hot loop in the same order in both files.

Environment representation
--------------------------
The tree is grown lazily into flat arrays. Each node carries a 64-bit key;
the key alone determines its offspring draw and the keys of its children, so
the environment is a pure function of the environment seed no matter in what
order the walk discovers it. Node 0 is the root e (potential 0); its parent
is the cemetery-like vertex e* encoded as index -1. Per node the arena keeps
seven integers: parent, key, atom, number of children, first child and the
two edge counts below. It keeps no generation; a node's depth is the length
of its parent chain.

Walk dynamics
-------------
From a tree node x the walk moves to the parent with weight e^{-V(x)} and to
child x_i with weight e^{-V(x_i)}. V(x) cancels, so a step depends only on the
marks A(x_i) = V(x_i) - V(x), that is on x's atom: P(up) = 1/(1 + s) with
s = sum_i e^{-A(x_i)}. Each node stores its atom index, and a step compares
one uniform against that atom's row of the step tables (``LawTables.p_up``
and ``step_cum``, computed once per law). No potential is stored, so the walk
is the same at every depth. An explicit tree is checked once by
``explicit_tree`` and turned into the same tables, one atom per node. The
move from e* back to the root and the move up from a leaf are forced and
consume no randomness.

Bookkeeping (all exact integers)
--------------------------------
m      raw step count
t_ex   excised clock: steps whose origin is not e*
L      number of visits to e* (arrivals)
R      number of distinct tree nodes visited
n_down[x]  moves parent(x) -> x (edge local time)
n_up[x]    moves x -> parent(x)

Two stop modes: MODE_STEPS stops after `limit` raw steps, MODE_CROSSINGS
stops at the forced return step of the `limit`-th e* visit. Snapshots are
taken at caller-given sorted raw times (MODE_STEPS) or crossing indices
(MODE_CROSSINGS).
"""

from __future__ import annotations

import numpy as np

from ._rng import GOLDEN, MASK, TWO_NEG53, child_key, mix64, root_key
from .env import atom_of
from .law import LawTables, step_law

MODE_STEPS = 0
MODE_CROSSINGS = 1

STATUS_OK = 0
STATUS_BUDGET = 2

KERNEL_IMPL = "python"

# messages of the ValueError both kernels raise for a malformed explicit tree
ERR_ROOT = "explicit tree must list the root first"
ERR_CHILDREN = "children must be consecutive"
ERR_PARENT = "explicit tree parent index outside [0, i)"
ERR_LENGTH = "explicit tree needs one V per node"


def explicit_tree(explicit):
    """Check an explicit finite tree and turn it into step tables.

    `explicit` is a dict with keys parent, V: the root first, parent[i] in
    [0, i), the children of every node at consecutive indices and one V per
    node. Raises ValueError with one of the ERR_* messages otherwise.
    Returns (tables, parent, child0): LawTables with one atom per node,
    whose marks are the differences V(child) - V(node) (cum is None, as no
    node is grown), and per node the lists of parent and first child (-1
    for a leaf).
    """
    parent = [int(v) for v in explicit["parent"]]
    V = np.asarray(explicit["V"], dtype=np.float64)
    n = len(parent)
    if len(V) != n:
        raise ValueError(ERR_LENGTH)
    if n == 0 or parent[0] != -1:
        raise ValueError(ERR_ROOT)
    lens, child0 = [0] * n, [-1] * n
    for i in range(1, n):
        pa = parent[i]
        if not 0 <= pa < i:
            raise ValueError(ERR_PARENT)
        if lens[pa] == 0:
            child0[pa] = i
        elif child0[pa] + lens[pa] != i:
            raise ValueError(ERR_CHILDREN)
        lens[pa] += 1
    lens = np.array(lens, dtype=np.int64)
    off = np.cumsum(lens) - lens
    # the non-root nodes grouped by parent, in node order: atom x's children
    kids = 1 + np.argsort(parent[1:], kind="stable")
    marks = V[kids] - V[np.array(parent)[kids]]
    tables = LawTables(None, off, lens, marks, *step_law(off, lens, marks))
    return tables, parent, child0


def run_walk(
    law_tables,
    env_seed: int,
    walker_seed: int,
    mode: int,
    limit: int,
    snaps,
    budget: int = 10**10,
    collect_tree: bool = False,
    explicit=None,
):
    """Run one walk; returns a dict of scalars and numpy arrays.

    law_tables: the LawTables of MarkLaw.tables, or None when `explicit`
    supplies a prebuilt finite tree as a dict with keys parent, V (checked
    and converted by explicit_tree). The walk stops early, with status
    STATUS_BUDGET, once it has taken `budget` steps. With collect_tree the
    result also holds the arena's tree_parent, tree_atom, tree_ndown,
    tree_nup and tree_nchild arrays.
    """
    snaps = np.asarray(snaps, dtype=np.int64)
    nsnap = len(snaps)
    snap = np.empty((5, nsnap), dtype=np.int64)  # rows idx, tau, T, L, R

    if explicit is None:
        tables = law_tables
        parent = [-1]
        key = [root_key(env_seed)]
        nchild = [-1]
        child0 = [-1]
        atom = [-1]
    else:
        tables, parent, child0 = explicit_tree(explicit)
        nchild = tables.lens.tolist()
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
    done = False

    while not done:
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
                    snap[:, si] = (L, m, t_ex, L, R)
                    si += 1
                if L >= limit:
                    done = True
            if mode == MODE_STEPS:
                while si < nsnap and snaps[si] == m:
                    snap[:, si] = (m, m, t_ex, L, R)
                    si += 1
                if m >= limit:
                    done = True
            continue

        x = pos
        if nchild[x] == -1:
            # grow node x: its key alone decides the offspring draw
            kx = key[x]
            a = int(atom_of(tables, kx))
            k = atom_len[a]
            atom[x] = a
            nchild[x] = k
            child0[x] = len(parent)
            for j in range(k):
                parent.append(x)
                key.append(child_key(kx, j))
                nchild.append(-1)
                child0.append(-1)
                atom.append(-1)
                n_down.append(0)
                n_up.append(0)

        k = nchild[x]
        if k == 0:
            dest = parent[x]
        else:
            state = (state + GOLDEN) & MASK
            u = (mix64(state) >> 11) * TWO_NEG53
            a = atom[x]
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
                snap[:, si] = (m, m, t_ex, L, R)
                si += 1
            if m >= limit:
                done = True

    out = {"status": status, "m": m, "t_ex": t_ex, "L": L, "R": R, "pos": pos,
           "nodes_grown": len(parent)}
    for row, name in enumerate(("idx", "tau", "T", "L", "R")):
        out["snap_" + name] = snap[row, :si].copy()
    if collect_tree:
        tree = {"parent": parent, "atom": atom, "ndown": n_down,
                "nup": n_up, "nchild": nchild}
        for name, values in tree.items():
            out["tree_" + name] = np.array(values, dtype=np.int64)
    return out
