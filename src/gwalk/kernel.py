"""Walk kernel dispatcher: the plain-C kernel through ctypes, or its reference.

`_walk.c` is the compiled twin of `_pykernel.run_walk`: same signature and
bit-identical output for equal seeds. Both step from `MarkLaw.tables`, and
both check an explicit tree with `_pykernel.explicit_tree`, so the library
itself fails only when out of memory. setuptools builds it into the library
`gwalk/_walk<EXT_SUFFIX>` beside this file (`pip install .`, or
`python setup.py build_ext --inplace` in a source checkout). The library has
no Python API; `load_kernel` binds it through ctypes, whose foreign calls
release the GIL, so trials on several threads run in parallel. `_Node`,
`_Arena`, `_Stats` and `_WALK_ARGTYPES` restate the C declarations by hand (a
mismatch crashes the interpreter rather than raising);
tests/test_kernel_layout.py checks them against `_walk.c`.

When no built library sits beside this file (running from `PYTHONPATH=src`
without building), `run_walk` is `_pykernel.run_walk` after one warning that
says how to build. It is about 90x slower: on a 2-vCPU x86-64 machine a
traced `theorem2` run steps at 36 Msteps/s on the library and at about
0.4 Msteps/s on `_pykernel`.
"""

from __future__ import annotations

import ctypes
import sysconfig
import warnings
from pathlib import Path

import numpy as np

from . import _pykernel
from ._rng import MASK

MODE_STEPS = _pykernel.MODE_STEPS
MODE_CROSSINGS = _pykernel.MODE_CROSSINGS
STATUS_OK = _pykernel.STATUS_OK
STATUS_BUDGET = _pykernel.STATUS_BUDGET

LIBRARY = Path(__file__).with_name("_walk" + sysconfig.get_config_var("EXT_SUFFIX"))

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
    """Bind the library at `path`; returns a `run_walk` with the signature
    and output of `_pykernel.run_walk`."""
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
            t, *tree = _pykernel.explicit_tree(explicit)
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


if LIBRARY.is_file():
    run_walk = load_kernel(LIBRARY)
    KERNEL_IMPL = "compiled"
else:
    warnings.warn(
        f"compiled walk kernel {LIBRARY.name} is not built; walks run on the "
        "pure-Python kernel, about 90x slower. Build it with "
        "`python setup.py build_ext --inplace` or install the package."
    )
    run_walk = _pykernel.run_walk
    KERNEL_IMPL = _pykernel.KERNEL_IMPL
