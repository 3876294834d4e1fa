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
is the cemetery-like vertex e* encoded as index -1.

Walk dynamics
-------------
From a tree node x the walk moves to the parent with weight exp(-V(x)) and to
child c with weight exp(-V(c)). From e* the move back to the root is forced
and consumes no randomness. Nodes at the optional depth cap get no children
and reflect upward deterministically (again consuming no randomness).

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

import math

import numpy as np

from ._rng import GOLDEN, MASK, ROOT_SALT, TWO_NEG53, mix64

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


def run_walk(
    law_tables,
    env_seed: int,
    walker_seed: int,
    mode: int,
    limit: int,
    snaps,
    budget: int = 10**10,
    depth_cap: int = -1,
    collect_tree: bool = False,
    explicit=None,
):
    """Run one walk; returns a dict of scalars and numpy arrays.

    law_tables: (atom_cum, atom_off, atom_len, marks_flat) from MarkLaw.tables,
    or None when `explicit` supplies a prebuilt finite tree as a dict with
    keys parent, V (root first, children of every node at consecutive
    indices, each parent index below its child's).
    """
    snaps = np.asarray(snaps, dtype=np.int64)
    nsnap = len(snaps)
    snap_idx = np.empty(nsnap, dtype=np.int64)
    snap_L = np.empty(nsnap, dtype=np.int64)
    snap_R = np.empty(nsnap, dtype=np.int64)
    snap_T = np.empty(nsnap, dtype=np.int64)
    snap_tau = np.empty(nsnap, dtype=np.int64)

    if explicit is None:
        atom_cum, atom_off, atom_len, marks_flat = law_tables
        atom_cum = [float(v) for v in atom_cum]
        atom_off = [int(v) for v in atom_off]
        atom_len = [int(v) for v in atom_len]
        marks_flat = [float(v) for v in marks_flat]
        lazy = True
        parent = [-1]
        V = [0.0]
        w = [1.0]
        totw = [0.0]
        key = [mix64((env_seed ^ ROOT_SALT) & MASK)]
        gen = [0]
        nchild = [-1]
        child0 = [-1]
    else:
        lazy = False
        parent = [int(v) for v in explicit["parent"]]
        V = [float(v) for v in explicit["V"]]
        n = len(parent)
        if len(V) != n:
            raise ValueError(ERR_LENGTH)
        if n == 0 or parent[0] != -1:
            raise ValueError(ERR_ROOT)
        w = [math.exp(-v) for v in V]
        nchild = [0] * n
        child0 = [-1] * n
        for i in range(1, n):
            pa = parent[i]
            if not 0 <= pa < i:
                raise ValueError(ERR_PARENT)
            if nchild[pa] == 0:
                child0[pa] = i
            elif child0[pa] + nchild[pa] != i:
                raise ValueError(ERR_CHILDREN)
            nchild[pa] += 1
        totw = [0.0] * n
        for i in range(n):
            s = w[i]
            c0 = child0[i]
            for j in range(nchild[i]):
                s += w[c0 + j]
            totw[i] = s
        gen = [0] * n
        for i in range(1, n):
            gen[i] = gen[parent[i]] + 1
        key = [0] * n

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
                    snap_idx[si] = L
                    snap_tau[si] = m
                    snap_T[si] = t_ex
                    snap_L[si] = L
                    snap_R[si] = R
                    si += 1
                if L >= limit:
                    done = True
            if mode == MODE_STEPS:
                while si < nsnap and snaps[si] == m:
                    snap_idx[si] = m
                    snap_tau[si] = m
                    snap_T[si] = t_ex
                    snap_L[si] = L
                    snap_R[si] = R
                    si += 1
                if m >= limit:
                    done = True
            continue

        x = pos
        if nchild[x] == -1:
            # grow node x: its key alone decides the offspring draw
            kx = key[x]
            u = (kx >> 11) * TWO_NEG53
            a = 0
            while u >= atom_cum[a]:
                a += 1
            if depth_cap >= 0 and gen[x] >= depth_cap:
                k = 0
            else:
                k = atom_len[a]
            nchild[x] = k
            child0[x] = len(parent)
            base = atom_off[a]
            vx = V[x]
            gx = gen[x] + 1
            s = w[x]
            for j in range(k):
                vc = vx + marks_flat[base + j]
                wc = math.exp(-vc)
                s += wc
                parent.append(x)
                V.append(vc)
                w.append(wc)
                totw.append(0.0)
                key.append(mix64((kx ^ (((j + 2) * GOLDEN) & MASK)) & MASK))
                gen.append(gx)
                nchild.append(-1)
                child0.append(-1)
                n_down.append(0)
                n_up.append(0)
            totw[x] = s

        k = nchild[x]
        if k == 0:
            dest = parent[x]
        else:
            state = (state + GOLDEN) & MASK
            u = (mix64(state) >> 11) * TWO_NEG53
            u *= totw[x]
            if u < w[x]:
                dest = parent[x]
            else:
                u -= w[x]
                c = child0[x]
                last = c + k - 1
                while c < last and u >= w[c]:
                    u -= w[c]
                    c += 1
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
                snap_idx[si] = m
                snap_tau[si] = m
                snap_T[si] = t_ex
                snap_L[si] = L
                snap_R[si] = R
                si += 1
            if m >= limit:
                done = True

    out = {
        "status": status,
        "m": m,
        "t_ex": t_ex,
        "L": L,
        "R": R,
        "pos": pos,
        "nodes_grown": len(parent),
        "snap_idx": snap_idx[:si].copy(),
        "snap_tau": snap_tau[:si].copy(),
        "snap_T": snap_T[:si].copy(),
        "snap_L": snap_L[:si].copy(),
        "snap_R": snap_R[:si].copy(),
    }
    if collect_tree:
        out["tree_parent"] = np.array(parent, dtype=np.int64)
        out["tree_gen"] = np.array(gen, dtype=np.int64)
        out["tree_V"] = np.array(V, dtype=np.float64)
        out["tree_ndown"] = np.array(n_down, dtype=np.int64)
        out["tree_nup"] = np.array(n_up, dtype=np.int64)
        out["tree_nchild"] = np.array(nchild, dtype=np.int64)
    return out
