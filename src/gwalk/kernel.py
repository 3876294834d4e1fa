"""Walk kernel: the plain-C walk `_walk.c`, bound through ctypes.

setuptools builds `_walk.c` into the library `gwalk/_walk<EXT_SUFFIX>` beside
this file (setup.py says how). It is the only walk the package runs. Without
it, `run_walk` and `require_library` stop the command with a SystemExit that
names the library and the build command; the commands that run no walk work
without it.
tests/pykernel.py is a pure-Python reference of the same walk, which the
parity tests compare with the library bit for bit.

Environment representation
--------------------------
The tree is grown lazily into flat arrays. Each node carries a 64-bit key;
the key alone determines its offspring draw and the keys of its children, so
the environment is a pure function of the environment seed no matter in what
order the walk discovers it. Node 0 is the root e (potential 0); its parent
is the cemetery-like vertex e* encoded as index -1. The arena is one array
of 48-byte node records, six 8-byte fields: parent, first child, the two
edge counts below, atom and key. A node is ungrown while its atom is -1; a
grown node has the atom's number of children. The arena keeps no
generation; a node's depth is the length of its parent chain.

Walk dynamics
-------------
From a tree node x the walk moves to the parent with weight e^{-V(x)} and to
child x_i with weight e^{-V(x_i)}. V(x) cancels, so a step depends only on the
marks A(x_i) = V(x_i) - V(x), that is on x's atom: P(up) = 1/(1 + s) with
s = sum_i e^{-A(x_i)}. Each node stores its atom index, and a step compares
one uniform against that atom's row of the step tables (`LawTables.p_up`
and `step_cum`, computed once per law). No potential is stored, so the walk
is the same at every depth, and the kernel does no floating-point arithmetic
beyond turning a hash into a uniform. An explicit tree is checked once by
`explicit_tree` and turned into the same tables, one atom per node, so the
library itself fails only when out of memory. The move from e* back to the
root and the move up from a leaf are forced and consume no randomness.

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

Binding
-------
The library has no Python API; `load_kernel` binds it through ctypes, whose
foreign calls release the GIL, so trials on several threads run in parallel.
`_Node`, `_Arena`, `_Stats` and `_WALK_ARGTYPES` restate the C declarations
by hand (a mismatch crashes the interpreter rather than raising);
tests/test_kernel_layout.py checks them against `_walk.c`.
"""

from __future__ import annotations

import ctypes
import sysconfig
from pathlib import Path

import numpy as np

from ._rng import MASK
from .law import LawTables, step_law

MODE_STEPS = 0
MODE_CROSSINGS = 1

STATUS_OK = 0
STATUS_BUDGET = 2

KERNEL_IMPL = "compiled"

LIBRARY = Path(__file__).with_name("_walk" + sysconfig.get_config_var("EXT_SUFFIX"))

# messages of the ValueError run_walk raises for a malformed explicit tree
ERR_ROOT = "explicit tree must list the root first"
ERR_CHILDREN = "children must be consecutive"
ERR_PARENT = "explicit tree parent index outside [0, i)"
ERR_LENGTH = "explicit tree needs one V per node"

# node fields returned under collect_tree: output key -> gw_node field
_TREE = {"parent": "parent", "atom": "atom", "ndown": "n_down", "nup": "n_up"}

_P, _INT64 = ctypes.c_void_p, ctypes.c_int64


class _Node(ctypes.Structure):
    _fields_ = ([(f, _INT64) for f in ("parent", "child0", "n_down", "n_up", "atom")]
                + [("key", ctypes.c_uint64)])


class _Arena(ctypes.Structure):
    _fields_ = [("n", _INT64), ("cap", _INT64), ("node", ctypes.POINTER(_Node))]


class _Stats(ctypes.Structure):
    _fields_ = [(f, _INT64) for f in ("status", "m", "t_ex", "L", "R", "pos", "nsnap")]


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


def _arrays(values, dtypes):
    return [None if v is None else np.ascontiguousarray(v, dtype=d)
            for v, d in zip(values, dtypes)]


# dtypes of gw_walk's array arguments: the step tables, then the explicit tree
_DTYPES = [np.float64, np.int64, np.int64, np.float64, np.float64] + [np.int64] * 2

# gw_walk's parameters, in the order of its C declaration
_WALK_ARGTYPES = [_P, _P, _P, _P, _P, _INT64, _P, _P, ctypes.c_uint64, ctypes.c_uint64,
                  ctypes.c_int, _INT64, _P, _INT64, _P, _INT64, ctypes.POINTER(_Stats),
                  ctypes.POINTER(ctypes.POINTER(_Arena))]


def load_kernel(path) -> callable:
    """Bind the library at `path`; returns its `run_walk`."""
    lib = ctypes.CDLL(str(path))
    walk, free = lib.gw_walk, lib.gw_free
    walk.restype, free.restype = ctypes.c_int, None
    walk.argtypes = _WALK_ARGTYPES
    free.argtypes = [ctypes.POINTER(_Arena)]
    # (law tables, their C arrays, pointers) of the last lazy walk: every
    # trial of a campaign passes the same tables object, so its pointers are
    # bound once. The slot holds the tables and the arrays, so the pointers
    # stay valid, and is replaced as one tuple, so a pool thread never reads
    # a torn entry; two threads that miss at once both bind, harmlessly.
    bound = (None, None, None)

    def pointers(t, tree):
        arrays = _arrays([t.cum, t.off, t.lens, t.p_up, t.step_cum, *tree], _DTYPES)
        return arrays, [None if a is None else a.ctypes.data for a in arrays]

    def run_walk(law_tables, env_seed, walker_seed, mode, limit, snaps,
                 budget=10**10, collect_tree=False, explicit=None):
        """Run one walk; returns a dict of scalars and numpy arrays.

        law_tables: the LawTables of MarkLaw.tables, or None when `explicit`
        supplies a prebuilt finite tree as a dict with keys parent, V
        (checked and converted by explicit_tree). The walk stops early, with
        status STATUS_BUDGET, once it has taken `budget` steps. With
        collect_tree the result also holds the arena's tree_parent,
        tree_atom, tree_ndown and tree_nup arrays (tree_atom is -1 at an
        ungrown node). MemoryError when the arena cannot grow."""
        nonlocal bound
        (snaps,) = _arrays([snaps], [np.int64])
        snap_out = np.empty((5, len(snaps)), dtype=np.int64)
        if explicit is None:
            n_explicit = -1
            tables, arrays, ptrs = bound
            if tables is not law_tables:
                arrays, ptrs = pointers(law_tables, [None] * 2)
                bound = (law_tables, arrays, ptrs)
        else:
            t, *tree = explicit_tree(explicit)
            n_explicit = len(tree[0])
            arrays, ptrs = pointers(t, tree)
        st, arena = _Stats(), ctypes.POINTER(_Arena)()
        err = walk(*ptrs[:5], n_explicit, *ptrs[5:], int(env_seed) & MASK,
                   int(walker_seed) & MASK, int(mode), int(limit), snaps.ctypes.data,
                   len(snaps), snap_out.ctypes.data, int(budget), ctypes.byref(st),
                   ctypes.byref(arena))
        if err:
            raise MemoryError("walk kernel ran out of memory for its arena")
        try:
            A = arena.contents
            out = {k: getattr(st, k) for k in ("status", "m", "t_ex", "L", "R", "pos")}
            out["nodes_grown"] = A.n
            for row, name in enumerate(("idx", "tau", "T", "L", "R")):
                out["snap_" + name] = snap_out[row, : st.nsnap].copy()
            if collect_tree:
                nodes = np.ctypeslib.as_array(A.node, shape=(A.n,))
                for key, field in _TREE.items():
                    out["tree_" + key] = np.array(nodes[field], dtype=np.int64)
            return out
        finally:
            free(arena)

    return run_walk


def _not_built(*args, **kwargs):
    """Stand-in for the library that is not built: stops the command."""
    raise SystemExit(
        f"the walk kernel library {LIBRARY} is not built; build it with "
        "`python setup.py build_ext --inplace` in the source checkout, "
        "or install the package"
    )


run_walk = load_kernel(LIBRARY) if LIBRARY.is_file() else _not_built


def require_library() -> None:
    """Stop the command as `run_walk` would when the library is not built.
    The walking campaigns call this first, so that a missing build costs
    no constant estimate or survival draw before the message."""
    if run_walk is _not_built:
        _not_built()
