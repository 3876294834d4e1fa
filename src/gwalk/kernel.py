"""Walk kernel: the plain-C library `_walk.c`, bound through ctypes.

setuptools builds `_walk.c` into the library `gwalk/_walk<EXT_SUFFIX>` beside
this file (setup.py says how). It is the only walk the package runs, one
walk at a time (`run_walk`) or a batch of trials (`run_walks`), its
depth-first walker `level_potentials` lists the generation that W_l sums,
`count_trees` is the package's one sampler of edge-count trees,
`discount_exponents` draws the spine walks of the discounted sums and
`PCG64` is the package's one random generator. Without it, these five,
PCG64's draws and `require_library` stop the command with a SystemExit
that names the library and the build command.
Every command but `validate-law` needs it.
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
is the same at every depth, and the walk does no floating-point arithmetic
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
(MODE_CROSSINGS), as the rows tau, T, L, R (result keys snap_tau, ...): the
values of m, t_ex, L and R there. The grid itself is the tau row in
MODE_STEPS and the L row in MODE_CROSSINGS.

Level potentials
----------------
`level_potentials` lists the potentials V of one generation of each keyed
environment, depth first, in the order of `env.next_level`. Its only
floating-point arithmetic is V(child) = V(parent) + mark, summed root to
leaf as next_level sums it, so built with -ffp-contract=off it gives the
same bits. `env.level_weights_batch` takes e^{-V} with numpy's exp, not in
C: numpy's SIMD exp and the C library's exp may differ in the last place,
and W keeps the bits of the numpy reference.

Count trees
-----------
`count_trees` draws the edge-count trees of `excursion` (its docstring has
the law) one generation of a whole batch at a time, with numpy's own
gamma and Poisson from numpy's static C library, on the caller's generator
and in the order of the numpy reference tests/oracles.excursion_levels; it
returns per-row sums, and the node list on request. Its Poisson rates
g e^{-a_i} multiply the law's weights `LawTables.rate`, numpy's exp of the
marks built with the step tables, in C, one product each, so they have the
reference's bits.

Discounted sums
---------------
`discount_exponents` advances a slice of the spine walks S of
`env.discounted_sums_batch` by one block on numpy's own uniforms (the fill
behind `Generator.random`, on the caller's generator) and writes the
exponents -S_j; the exp and the (pairwise) row sum of D stay in numpy, as
e^{-V} does for W. Its increment lookup and the other bindings' atom lookup count the
cumulative values at or below a uniform without a branch, so each entry
point takes the number of atoms or runs.

Generator
---------
`PCG64` is numpy's PCG64 generator, seeded as np.random.default_rng seeds
it (`_rng.pcg64_seed`, numpy's SeedSequence in plain ints); its state is a
`gw_pcg64` record that the library advances. The count trees, the
discounted sums, `PCG64.integers` and `PCG64.multinomial` draw on it with
numpy's own distribution functions, so each draw, and the state after it,
is that of the numpy Generator seeded alike (tests/test_generator.py), and
no command imports numpy.random: its extension modules and `secrets` cost
a fresh interpreter about 10 ms and 5.5 MB of RSS (2-vCPU VM).

Binding
-------
`load_kernel` binds the library through ctypes from one table,
`_ENTRY_POINTS`, of each exported function's return and parameter types;
importing this module binds the built library beside it. The five bindings
are module functions that reach it through `require_library`. `_Node`,
`_Arena`, `_Stats`, `_Count`, `_PCG64` and `_ENTRY_POINTS` restate the C
declarations by hand (a mismatch crashes the interpreter rather than
raising); tests/test_kernel_layout.py checks them against `_walk.c`. The
library's node arrays are read as numpy views of ctypes arrays
(`_records`), which, unlike numpy.ctypeslib, costs no import.
ctypes' foreign calls release the GIL, so the campaigns walk through
`run_walks`: one `gw_walks` call per thread, all claiming the batch's trials
one at a time from one counter in C, each with one arena reused across its
trials. So a batch costs one Python call per thread, and a thread that
draws a long, heavy-tailed trial leaves the rest to the others. `run_walk`,
one `gw_walk` call per walk, serves explicit trees, `collect_tree` and the
tests. `_concurrent_calls`, which makes those calls at once, is the
package's one thread runner (`experiments._map_trials` runs on it too).
"""

from __future__ import annotations

import _thread
import ctypes
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from ._rng import MASK, pcg64_seed
from .law import LawTables, step_law

MODE_STEPS = 0
MODE_CROSSINGS = 1

STATUS_OK = 0
STATUS_BUDGET = 2

KERNEL_IMPL = "compiled"

# the interpreter's own extension suffix, sysconfig's EXT_SUFFIX, which
# setuptools names the library with; sysconfig itself would cost an import
# of 1.8 ms and 128 KB
LIBRARY = Path(__file__).with_name("_walk" + EXTENSION_SUFFIXES[0])

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


class _Count(ctypes.Structure):
    _fields_ = [(f, _INT64) for f in ("row", "parent", "N")] + [("key", ctypes.c_uint64)]


class _PCG64(ctypes.Structure):
    _fields_ = ([(f, ctypes.c_uint64) for f in ("state_hi", "state_lo", "inc_hi", "inc_lo")]
                + [("has_uint32", _INT64), ("uinteger", ctypes.c_uint64)])


_RNG = ctypes.POINTER(_PCG64)


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


def _records(ptr, n):
    """The n structs from the ctypes pointer `ptr` on, as a numpy record
    array that shares their memory."""
    return np.asarray(ctypes.cast(ptr, ctypes.POINTER(ptr._type_ * n)).contents)


def _arrays(values, dtypes):
    return [None if v is None else np.ascontiguousarray(v, dtype=d)
            for v, d in zip(values, dtypes)]


# every function that `_walk.c` exports: (restype, argtypes), the parameters
# in the order of its C declaration
_ENTRY_POINTS = {
    "gw_walk": (ctypes.c_int, [_P, _INT64, _P, _P, _P, _P, _INT64, _P, _P, ctypes.c_uint64,
                               ctypes.c_uint64, ctypes.c_int, _INT64, _P, _INT64, _P, _INT64,
                               _P, ctypes.POINTER(ctypes.POINTER(_Arena))]),
    "gw_walks": (ctypes.c_int, [_P, _INT64, _P, _P, _P, _P, _P, _P, _INT64, _P, ctypes.c_int,
                                _INT64, _P, _INT64, _P, _INT64, _P, _P]),
    "gw_free": (None, [ctypes.POINTER(_Arena)]),
    "gw_level": (_INT64, [_P, _INT64, _P, _P, _P, ctypes.c_uint64, _INT64, _P, _INT64]),
    "gw_counts": (ctypes.c_int, [_P, _INT64, _P, _INT64, _RNG, _P, _P, _P, ctypes.c_int,
                                 _INT64, _P, ctypes.POINTER(ctypes.POINTER(_Count)),
                                 ctypes.POINTER(_INT64)]),
    "gw_free_counts": (None, [ctypes.POINTER(_Count)]),
    "gw_discount": (None, [_RNG, _P, _INT64, _P, _P, _INT64, _INT64, _P, _P]),
    "gw_integers": (None, [_RNG, ctypes.c_uint64, ctypes.c_uint64, _INT64, _P]),
    "gw_multinomial": (None, [_RNG, _INT64, _P, _INT64, _INT64, _P]),
}

# gw_counts' error code for a Poisson rate numpy refuses (GW_ELAM)
_ELAM = 2

_lib = None  # the bound library, set by load_kernel


def load_kernel(path) -> None:
    """Bind the library at `path`, each entry point as `_ENTRY_POINTS`
    declares it, as the one library that the bindings below call."""
    global _lib
    lib = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _ENTRY_POINTS.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    _lib = lib


def require_library():
    """The bound library, or a stop naming it and the build command. The
    campaigns that need it call this first, so that a missing build costs
    no constant estimate or survival draw before the message."""
    if _lib is None:
        raise SystemExit(
            f"the walk kernel library {LIBRARY} is not built; build it with "
            "`python setup.py build_ext --inplace` in the source checkout, "
            "or install the package"
        )
    return _lib


# dtypes of gw_walk's array arguments: the step tables, then the explicit tree
_DTYPES = [np.float64, np.int64, np.int64, np.float64, np.float64] + [np.int64] * 2


def _pointers(t, tree=(None, None)):
    """The C arrays of step tables t and an explicit tree, which the caller
    holds while the library reads them, and their pointers."""
    arrays = _arrays([t.cum, t.off, t.lens, t.p_up, t.step_cum, *tree], _DTYPES)
    ptrs = [None if a is None else a.ctypes.data for a in arrays]
    ptrs.insert(1, 0 if t.cum is None else t.cum.size)  # the atom count
    return arrays, ptrs


def _result(stats, nodes_grown, snap_out):
    """A walk's result: the gw_stats fields (status, m, t_ex, L, R, pos,
    nsnap) from `stats`, nodes_grown, and snap_tau, snap_T, snap_L and
    snap_R from the rows of `snap_out` (..., 4, snapshots)."""
    out = {f: v for (f, _), v in zip(_Stats._fields_, stats)}
    out["nodes_grown"] = nodes_grown
    for row, name in enumerate(("tau", "T", "L", "R")):
        out["snap_" + name] = snap_out[..., row, :]
    return out


def run_walk(law_tables, env_seed, walker_seed, mode, limit, snaps,
             budget=10**10, collect_tree=False, explicit=None):
    """Run one walk; returns a dict of scalars and numpy arrays (`_result`),
    snap_* holding the nsnap snapshots taken.

    law_tables: the LawTables of MarkLaw.tables, or None when `explicit`
    supplies a prebuilt finite tree as a dict with keys parent, V (checked
    and converted by explicit_tree). The walk stops early, with status
    STATUS_BUDGET, once it has taken `budget` steps. With collect_tree the
    result also holds the arena's tree_parent, tree_atom, tree_ndown and
    tree_nup arrays (tree_atom is -1 at an ungrown node). MemoryError when
    the arena cannot grow."""
    lib = require_library()
    (snaps,) = _arrays([snaps], [np.int64])
    snap_out = np.empty((4, len(snaps)), dtype=np.int64)
    if explicit is None:
        n_explicit, (arrays, ptrs) = -1, _pointers(law_tables)
    else:
        t, *tree = explicit_tree(explicit)
        n_explicit, (arrays, ptrs) = len(tree[0]), _pointers(t, tree)
    st, arena = np.empty(len(_Stats._fields_), dtype=np.int64), ctypes.POINTER(_Arena)()
    err = lib.gw_walk(*ptrs[:6], n_explicit, *ptrs[6:], int(env_seed) & MASK,
                      int(walker_seed) & MASK, int(mode), int(limit), snaps.ctypes.data,
                      len(snaps), snap_out.ctypes.data, int(budget), st.ctypes.data,
                      ctypes.byref(arena))
    if err:
        raise MemoryError("walk kernel ran out of memory for its arena")
    try:
        A = arena.contents
        st = st.tolist()
        out = _result(st, A.n, snap_out[:, : st[-1]])  # nsnap, gw_stats' last field
        if collect_tree:
            nodes = _records(A.node, A.n)
            for key, field in _TREE.items():
                out["tree_" + key] = np.array(nodes[field], dtype=np.int64)
        return out
    finally:
        lib.gw_free(arena)


def run_walks(law_tables, env_seeds, walk_seeds, mode, limit, snaps, budget=10**10,
              threads=1):
    """Run the lazy walks of trials 0..n-1, trial t on env_seeds[t] with
    walk seed walk_seeds[t], each as run_walk(law_tables, env_seeds[t],
    walk_seeds[t], mode, limit, snaps, budget) would, in `threads`
    concurrent calls of gw_walks (no more than there are trials) that share
    its trial counter. Returns run_walk's dict of arrays with a leading
    trial axis: status, m, t_ex, L, R, pos, nsnap and nodes_grown of shape
    (n,), and snap_tau, snap_T, snap_L and snap_R of shape (n, len(snaps)),
    views of one (n, 4, len(snaps)) buffer; a trial's snapshots past its
    nsnap read 0. Every trial writes only its own slots, so the result does
    not depend on `threads`. ValueError unless there is one walk seed per
    environment seed; MemoryError when an arena cannot grow."""
    lib = require_library()
    env_seeds, walk_seeds = (np.ascontiguousarray(np.asarray(s, dtype=np.uint64).ravel())
                             for s in (env_seeds, walk_seeds))
    n = env_seeds.size
    if walk_seeds.size != n:
        raise ValueError(f"run_walks: {n} environment seeds, {walk_seeds.size} walk seeds")
    (snaps,) = _arrays([snaps], [np.int64])
    arrays, ptrs = _pointers(law_tables)
    snap_out = np.zeros((n, 4, len(snaps)), dtype=np.int64)
    st = np.empty((n, len(_Stats._fields_)), dtype=np.int64)
    nodes = np.empty(n, dtype=np.int64)
    counter = np.zeros(1, dtype=np.int64)
    args = (*ptrs[:6], env_seeds.ctypes.data, walk_seeds.ctypes.data, n,
            counter.ctypes.data, int(mode), int(limit), snaps.ctypes.data, len(snaps),
            snap_out.ctypes.data, int(budget), st.ctypes.data, nodes.ctypes.data)
    if any(_concurrent_calls(lib.gw_walks, args, max(1, min(int(threads), n)))):
        raise MemoryError("walk kernel ran out of memory for its arena")
    return _result(st.T, nodes, snap_out)


def level_potentials(law_tables, env_seeds, level):
    """Per environment seed in turn, the potentials V of its generation
    `level` in the order of `env.next_level`, as a float64 view of one
    buffer. The next seed overwrites the buffer, so the caller may too.
    The buffer holds one generation and grows when a larger one comes.
    MemoryError when the search cannot hold its path."""
    lib = require_library()
    arrays = _arrays([law_tables.cum, law_tables.off, law_tables.lens, law_tables.marks],
                     [np.float64, np.int64, np.int64, np.float64])
    ptrs = [a.ctypes.data for a in arrays]
    ptrs.insert(1, arrays[0].size)
    level = int(level)
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    buf = np.empty(1024)
    for seed in env_seeds:
        seed = int(seed) & MASK
        n = lib.gw_level(*ptrs, seed, level, buf.ctypes.data, buf.size)
        if n > buf.size:
            buf = np.empty(max(n, 2 * buf.size))
            n = lib.gw_level(*ptrs, seed, level, buf.ctypes.data, buf.size)
        if n < 0:
            raise MemoryError("level walker ran out of memory for its path")
        yield buf[:n]


def count_trees(law_tables, env_seeds, root_counts, rng, prune=False, budget=None,
                keep=False):
    """Draw one edge-count tree per environment seed from rng, a `PCG64`.

    Row r grows on the keyed environment of env_seeds[r] from a root with
    N = root_counts[r] (a scalar applies to every row). With prune, count-1
    nodes below the root are not expanded. With a budget (a scalar, or one
    value per row), a row stops growing after the generation in which its
    sum of N, root included, passes its budget. The draws are numpy's gamma
    and Poisson on rng, made while holding its lock, in the order of the
    numpy reference tests/oracles.excursion_levels, so rng ends in the
    state the reference leaves a numpy Generator seeded alike in.

    Returns (sums, tree). sums is a (3, rows) int64 array: per row, over
    the non-root nodes, the sum of N, the number of nodes and the number
    with N = 1. tree is None, or with keep a dict of the node arrays row,
    parent, key and N, all generations in turn, roots first, parent
    indexing the same arrays (-1 at a root). ValueError for a root count
    below 1 or a Poisson rate numpy refuses ("lam value too large", as
    Generator.poisson raises it); MemoryError when out of memory."""
    lib = require_library()
    seeds = np.ascontiguousarray(env_seeds, dtype=np.uint64).ravel()
    n = seeds.size
    roots = np.ascontiguousarray(np.broadcast_to(np.asarray(root_counts, dtype=np.int64), n))
    if (roots < 1).any():
        raise ValueError("root counts must be >= 1")
    caps = None if budget is None else np.ascontiguousarray(
        np.broadcast_to(np.asarray(budget, dtype=np.int64), n))
    cum, rate = _arrays([law_tables.cum, law_tables.rate], [np.float64] * 2)
    sums = np.empty((3, n), dtype=np.int64)
    tree, size = ctypes.POINTER(_Count)(), _INT64()
    with rng._lock:
        err = lib.gw_counts(cum.ctypes.data, cum.size, rate.ctypes.data, rate.shape[1],
                            rng._state, seeds.ctypes.data, roots.ctypes.data,
                            None if caps is None else caps.ctypes.data, int(bool(prune)), n,
                            sums.ctypes.data, ctypes.byref(tree) if keep else None,
                            ctypes.byref(size) if keep else None)
    if err == _ELAM:
        raise ValueError("lam value too large")
    if err:
        raise MemoryError("count-tree sampler ran out of memory")
    if not keep:
        return sums, None
    try:
        nodes = _records(tree, size.value)
        return sums, {f: np.array(nodes[f]) for f in ("row", "parent", "key", "N")}
    finally:
        lib.gw_free_counts(tree)


def discount_exponents(thresholds, run_vals, S, rows, out, rng):
    """The exponents -S_j of the next out.shape[1] terms of the discounted
    sums of the paths `rows`, written to `out`, one row per path, as
    `gw_discount` describes; S[rows] moves to the block's end. The uniforms
    are numpy's, drawn from rng (a `PCG64`) while holding its lock, rows in
    order, so rng ends where Generator.random(out=out) would leave a numpy
    Generator seeded alike.
    The library writes S and out in place: ValueError unless both are
    C-contiguous float64 arrays, out of shape (len(rows), block), rows
    index S and there is one threshold fewer than run values."""
    lib = require_library()
    thresholds, run_vals, rows = _arrays([thresholds, run_vals, rows],
                                         [np.float64, np.float64, np.int64])
    if not (all(a.dtype == np.float64 and a.flags.c_contiguous for a in (S, out))
            and out.ndim == 2 and out.shape[0] == rows.size
            and thresholds.size == run_vals.size - 1
            and (rows.size == 0 or 0 <= rows.min() <= rows.max() < S.size)):
        raise ValueError("discount_exponents: S, out, rows or the run tables do not fit")
    with rng._lock:
        lib.gw_discount(rng._state, thresholds.ctypes.data, thresholds.size,
                        run_vals.ctypes.data, rows.ctypes.data, rows.size, out.shape[1],
                        S.ctypes.data, out.ctypes.data)


class PCG64:
    """The library's random generator, seeded with a non-negative integer.

    It is numpy's PCG64 in the state np.random.default_rng(seed) starts in
    (`_rng.pcg64_seed`), and every draw is numpy's own distribution code on
    the same stream, so its draws and its state after them are those of
    that numpy Generator, bit for bit. `count_trees` and
    `discount_exponents` draw through it in the library, as do `integers`
    and `multinomial`. A draw holds the generator's lock, so threads may
    share one, but then the draws' order follows the threads'."""

    def __init__(self, seed):
        state, inc = pcg64_seed(seed)
        self._state = _PCG64(state >> 64, state & MASK, inc >> 64, inc & MASK, 0, 0)
        self._lock = _thread.allocate_lock()

    def integers(self, low, high, out):
        """Fill the C-contiguous int64 or uint64 array `out` with draws on
        [low, high), and return it: Generator.integers(low, high,
        out.shape, out.dtype)'s values. ValueError unless low < high,
        both within out's dtype (high one past its largest value)."""
        low, high = int(low), int(high)
        bound = 1 << (64 if out.dtype == np.uint64 else 63)
        if not (out.dtype in (np.int64, np.uint64) and out.flags.c_contiguous
                and bound - (1 << 64) <= low < high <= bound):
            raise ValueError(f"integers: no {out.dtype} draws on [{low}, {high})")
        with self._lock:
            require_library().gw_integers(self._state, low & MASK, high - low - 1, out.size,
                                          out.ctypes.data)
        return out

    def multinomial(self, n, pvals, size):
        """Generator.multinomial(n, pvals, size)'s (size, len(pvals)) int64
        array. ValueError for n < 0 or pvals that are not probabilities
        (numpy's checks; numpy sums pvals[:-1] compensated, this plainly)."""
        pvals = np.ascontiguousarray(pvals, dtype=np.float64).ravel()
        if not (n >= 0 and pvals.size and ((pvals >= 0) & (pvals <= 1)).all()
                and pvals[:-1].sum() <= 1.0 + 1e-12):
            raise ValueError("multinomial: n must be >= 0 and pvals probabilities "
                             "with sum(pvals[:-1]) <= 1")
        out = np.zeros((size, pvals.size), dtype=np.int64)
        with self._lock:
            require_library().gw_multinomial(self._state, int(n), pvals.ctypes.data, pvals.size,
                                             size, out.ctypes.data)
        return out


def _concurrent_calls(fn, args, calls: int) -> list:
    """The results of `calls` calls fn(*args) made at once. The calling
    thread makes the first; each other call runs on a thread started with
    `_thread`, which, unlike `threading.Thread.start`, does not wait until
    the new thread runs: on a 2-vCPU VM that wait let the new thread take
    the caller's CPU for 0.3 to 2 ms, as long as a small batch's walks.
    Returns once every call has returned (they write into the caller's
    buffers), and raises on the calling thread an exception that a call
    raised."""
    results: list = [None] * calls
    running = []

    def helper(i, lock):
        try:
            results[i] = fn(*args)
        except BaseException as exc:  # raised on the calling thread below
            results[i] = exc
        finally:
            lock.release()

    try:
        for i in range(1, calls):
            lock = _thread.allocate_lock()
            lock.acquire()
            _thread.start_new_thread(helper, (i, lock))
            running.append(lock)
        results[0] = fn(*args)
    finally:
        for lock in running:
            lock.acquire()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    return results


if LIBRARY.is_file():
    load_kernel(LIBRARY)
