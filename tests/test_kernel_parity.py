"""The compiled kernel and the tests' Python reference must agree bit for bit.

`pykernel.run_walk` restates the walk loop of `_walk.c` in Python; any drift
in RNG consumption, tie-breaking, or bookkeeping order shows up here as a
hard mismatch rather than a statistical one. `compiled_run_walk`
(conftest.py) is the built library, compiled for the test session when the
package carries none.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

import oracles
import pykernel
from gwalk import kernel
from gwalk.env import MarkedTree, enumerate_truncated
from gwalk.law import load_law, make_constant_bias, make_two_point

SUB = make_two_point(0.068)


def _assert_same(a, b):
    assert a.keys() == b.keys()
    for k in a:
        va, vb = a[k], b[k]
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), k
        else:
            assert va == vb, k


@pytest.mark.parametrize("law", [SUB, make_constant_bias(2.0), make_two_point(0.02)])
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 11])
def test_time_mode_parity(compiled_run_walk, law, seed):
    args = (law.tables(), seed, seed ^ 0xABCDEF, kernel.MODE_STEPS, 20000)
    snaps = [100, 5000, 20000]
    a = compiled_run_walk(*args, snaps)
    b = pykernel.run_walk(*args, snaps)
    _assert_same(a, b)
    assert a["m"] == 20000


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_crossing_mode_parity(compiled_run_walk, seed):
    args = (SUB.tables(), seed, 1000 + seed, kernel.MODE_CROSSINGS, 200)
    a = compiled_run_walk(*args, [10, 200])
    b = pykernel.run_walk(*args, [10, 200])
    _assert_same(a, b)
    assert a["L"] == 200


def test_bound_tables_follow_the_law(compiled_run_walk):
    """Walks that alternate between laws, or pass equal tables in a new
    object, read each call's own tables: run_walk binds the tables per call
    and keeps no pointer from one call to the next."""
    other = make_two_point(0.02)
    copy = type(SUB.tables())(*(np.array(a) for a in SUB.tables()))
    for law_tables in (SUB.tables(), other.tables(), SUB.tables(), copy, other.tables()):
        args = (law_tables, 9, 10, kernel.MODE_STEPS, 3000)
        _assert_same(compiled_run_walk(*args, [3000]), pykernel.run_walk(*args, [3000]))


def test_bound_tables_under_forced_thread_switches(compiled_run_walk):
    """Threads that alternate two laws through run_walk each read their own
    call's tables while the interpreter switches threads every microsecond:
    a binding shared between calls would pair one law with the other's
    pointers."""
    tables = [SUB.tables(), make_two_point(0.02).tables()]
    want = [pykernel.run_walk(t, 9, 10, kernel.MODE_STEPS, 300, [300]) for t in tables]
    failures = []

    def work(k):
        for i in range(400):
            j = (i + k) % 2
            try:
                _assert_same(compiled_run_walk(tables[j], 9, 10, kernel.MODE_STEPS,
                                               300, [300]), want[j])
            except AssertionError as exc:
                failures.append((k, i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not failures, failures[:3]


# half the atoms childless, half with four children marked ln 2: about half
# the environments die, and a walk on one that dies is a finite-tree walk
EXTINCTION = load_law({"atoms": [{"p": 0.5, "marks": []},
                                 {"p": 0.5, "marks": [math.log(2.0)] * 4}]})
STATS = ("status", "m", "t_ex", "L", "R", "pos", "nsnap", "nodes_grown")
SNAPS = ("snap_tau", "snap_T", "snap_L", "snap_R")


@pytest.mark.parametrize("law", [SUB, EXTINCTION], ids=["two_point_sub", "extinction"])
@pytest.mark.parametrize("mode, limit, snaps, budget", [
    (kernel.MODE_STEPS, 3000, [1, 2, 500, 3000], 10**10),
    (kernel.MODE_STEPS, 3000, [1, 2, 500, 3000], 1000),
    (kernel.MODE_CROSSINGS, 40, list(range(1, 41)), 3000),
], ids=["steps", "steps-budget", "crossings-budget"])
@pytest.mark.parametrize("n", [0, 1, 24])
def test_run_walks_equals_run_walk_per_trial(compiled_run_walk, law, mode, limit, snaps,
                                             budget, n):
    """Trial t of one batched call equals run_walk on (env_seeds[t],
    walk_seeds[t]) byte for byte, censored trials included, at threads 1, 2
    and more calls than trials (and than cores) sharing the C counter with
    the interpreter switching threads every microsecond; a trial run twice
    or skipped would break it. Snapshots past a trial's nsnap read 0."""
    env = np.arange(n, dtype=np.uint64) * 7919 + 3
    wlk = np.arange(n, dtype=np.uint64) + 2**63
    want = [compiled_run_walk(law.tables(), e, w, mode, limit, snaps, budget=budget)
            for e, w in zip(env.tolist(), wlk.tolist())]
    if n > 1:  # the budget cuts every step walk short of limit, and some crossing walks
        censored = {w["status"] == kernel.STATUS_BUDGET for w in want}
        assert censored == ({False} if budget == 10**10 else
                            {True} if mode == kernel.MODE_STEPS else {False, True})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 2, n + 5):
            got = kernel.run_walks(law.tables(), env, wlk, mode, limit, snaps, budget,
                                   threads)
            assert sorted(got) == sorted([*STATS, *SNAPS])
            assert all(got[k].shape == (n,) for k in STATS)
            assert all(got[k].shape == (n, len(snaps)) for k in SNAPS)
            for t, w in enumerate(want):
                assert [int(got[k][t]) for k in STATS] == [w[k] for k in STATS], (threads, t)
                k = w["nsnap"]
                for name in SNAPS:
                    assert got[name][t, :k].tolist() == w[name].tolist(), (threads, t)
                    assert not got[name][t, k:].any()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("mode, limit, snaps, budget", [
    (kernel.MODE_STEPS, 3000, [1, 2, 500, 3000], 1000),
    (kernel.MODE_CROSSINGS, 40, list(range(1, 41)), 3000),
], ids=["steps-budget", "crossings-budget"])
def test_run_walks_write_only_the_rows_asked_for(mode, limit, snaps, budget):
    """With snap_rows, run_walks returns those snapshot rows only, in any
    order asked, each with the bytes of the four-row run, in a buffer of
    those rows alone, and the same stats; an unknown row raises ValueError."""
    env = np.arange(24, dtype=np.uint64) * 7919 + 3
    wlk = np.arange(24, dtype=np.uint64) + 2**63
    full = kernel.run_walks(SUB.tables(), env, wlk, mode, limit, snaps, budget, 2)
    for rows in (("L",), ("T", "R"), ("R", "tau"), kernel.SNAP_ROWS):
        got = kernel.run_walks(SUB.tables(), env, wlk, mode, limit, snaps, budget, 2,
                               snap_rows=rows)
        names = ["snap_" + r for r in rows]
        assert sorted(got) == sorted([*STATS, *names])
        assert got[names[0]].base.shape == (24, len(rows), len(snaps))
        for k in [*STATS, *names]:
            assert got[k].tobytes() == full[k].tobytes(), (rows, k)
    with pytest.raises(ValueError, match="snapshot rows must be among"):
        kernel.run_walks(SUB.tables(), env, wlk, mode, limit, snaps, budget, snap_rows=("x",))


def test_concurrent_calls_wait_for_every_call_and_raise_its_error():
    """Every call has returned when _concurrent_calls returns, also when one
    of them raised; the caller sees that exception."""
    finished = []

    def call(fail):
        time.sleep(0.05)
        finished.append(threading.get_ident())
        if fail and len(finished) == 2:
            raise OSError("second call")
        return len(finished)

    assert sorted(kernel._concurrent_calls(call, (False,), 3)) == [1, 2, 3]
    assert len(set(finished)) == 3
    finished.clear()
    with pytest.raises(OSError, match="second call"):
        kernel._concurrent_calls(call, (True,), 3)
    assert len(finished) == 3


def test_run_walks_needs_one_walk_seed_per_environment():
    with pytest.raises(ValueError, match="3 environment seeds, 2 walk seeds"):
        kernel.run_walks(SUB.tables(), [1, 2, 3], [4, 5], kernel.MODE_STEPS, 10, [10])


def test_budget_status_parity(compiled_run_walk):
    args = (SUB.tables(), 7, 8, kernel.MODE_CROSSINGS, 10**6)
    a = compiled_run_walk(*args, [10**6], budget=1000)
    b = pykernel.run_walk(*args, [10**6], budget=1000)
    _assert_same(a, b)
    assert a["status"] == kernel.STATUS_BUDGET
    assert a["m"] == 1000


def test_explicit_mode_parity(compiled_run_walk):
    env = enumerate_truncated(SUB, 42, 4)
    explicit = {"parent": env["parent"], "V": env["V"]}
    a = compiled_run_walk(None, 0, 77, kernel.MODE_CROSSINGS, 500, [500], explicit=explicit)
    b = pykernel.run_walk(None, 0, 77, kernel.MODE_CROSSINGS, 500, [500], explicit=explicit)
    _assert_same(a, b)
    one_node = {"parent": [-1], "V": [0.0]}
    for chain in (oracles.build_chain([0.5, 0.5, -1.0]), one_node):
        a = compiled_run_walk(None, 0, 3, kernel.MODE_STEPS, 4000, [], explicit=chain)
        b = pykernel.run_walk(None, 0, 3, kernel.MODE_STEPS, 4000, [], explicit=chain)
        _assert_same(a, b)


@pytest.mark.parametrize("impl", ["compiled", "python"])
@pytest.mark.parametrize("explicit", [False, True], ids=["lazy", "explicit"])
def test_tree_arrays_are_owned_int64_copies(request, impl, explicit):
    """Every tree_* array is a C-contiguous int64 array that owns its data,
    so none is a view into the arena the kernel frees before returning."""
    if impl == "compiled":
        run_walk = request.getfixturevalue("compiled_run_walk")
    else:
        run_walk = pykernel.run_walk
    if explicit:
        env = enumerate_truncated(SUB, 42, 4)
        res = run_walk(None, 0, 77, kernel.MODE_STEPS, 2000, [2000],
                       explicit={"parent": env["parent"], "V": env["V"]})
    else:
        res = run_walk(SUB.tables(), 9, 10, kernel.MODE_STEPS, 2000, [2000])
    names = sorted(k for k in res if k.startswith("tree_"))
    assert names == ["tree_atom", "tree_ndown", "tree_nup", "tree_parent"]
    for name in names:
        arr = res[name]
        assert arr.dtype == np.int64 and arr.flags.c_contiguous, name
        assert arr.base is None and arr.flags.owndata, name
        assert arr.shape == (res["nodes_grown"],), name


@pytest.mark.parametrize("impl", ["compiled", "python"])
def test_explicit_walk_ignores_potential_level(request, impl):
    """A step reads only differences of V, so shifting every potential by
    +-1000, where e^{-V} underflows or overflows, changes no output bit. The
    potentials are dyadic, so their differences are exact."""
    if impl == "compiled":
        run_walk = request.getfixturevalue("compiled_run_walk")
    else:
        run_walk = pykernel.run_walk
    parent = [-1] + [(i - 1) // 2 for i in range(1, 31)]  # binary, depth 4
    marks = np.random.default_rng(4).choice([-0.5, 0.25, 0.75], size=30)
    V = np.zeros(31)
    for i in range(1, 31):
        V[i] = V[parent[i]] + marks[i - 1]

    def walk(shift):
        return run_walk(None, 0, 5, kernel.MODE_STEPS, 20000, [100, 20000],
                        explicit={"parent": parent, "V": V + shift})

    base = walk(0.0)
    assert base["L"] > 0 and (base["tree_ndown"] > 0).all()
    for shift in (1000.0, -1000.0):
        _assert_same(walk(shift), base)


@pytest.mark.parametrize(
    "parent, V, message",
    [
        ([0, 0, 1], None, kernel.ERR_ROOT),
        ([], None, kernel.ERR_ROOT),
        ([-1, 0, 1, 0], None, kernel.ERR_CHILDREN),
        ([-1, 0, 3, 0], None, kernel.ERR_PARENT),
        ([-1, 0, -1], None, kernel.ERR_PARENT),
        ([-1, 0, -2], None, kernel.ERR_PARENT),
        ([-1, 1], None, kernel.ERR_PARENT),
        ([-1, 0, 0], [0.0, 1.0], kernel.ERR_LENGTH),
    ],
    ids=["root-not-first", "empty", "children-apart", "parent-ahead",
         "second-root", "negative-parent", "self-parent", "short-V"],
)
def test_explicit_tree_errors_parity(compiled_run_walk, parent, V, message):
    explicit = {"parent": parent, "V": [0.5] * len(parent) if V is None else V}
    for run_walk in (compiled_run_walk, pykernel.run_walk):
        with pytest.raises(ValueError) as err:
            run_walk(None, 0, 1, kernel.MODE_STEPS, 100, [], explicit=explicit)
        assert str(err.value) == message


def test_lazy_tree_matches_eager_enumeration(compiled_run_walk):
    """Keys are path functions, so every node the walk grows is the node at
    the same child-index path of a MarkedTree grown on the same seed: the
    same atom, the same generation (the length of its parent chain) and,
    rebuilt from the marks, the same V to the last bit."""
    res = compiled_run_walk(SUB.tables(), 2024, 1, kernel.MODE_STEPS, 5000, [])
    tree, t = MarkedTree(SUB, 2024), SUB.tables()
    parent, atom = res["tree_parent"], res["tree_atom"]
    n = len(parent)
    lazy_id = np.zeros(n, dtype=np.int64)
    gen = np.zeros(n, dtype=np.int64)
    V = np.zeros(n)
    child0 = {}
    for x in range(1, n):
        pa = parent[x]
        j = x - child0.setdefault(pa, x)  # siblings sit at consecutive ids
        lazy_id[x] = tree.grow(lazy_id[pa])[j]
        gen[x] = gen[pa] + 1
        V[x] = V[pa] + t.marks[t.off[atom[pa]] + j]
    grown = np.flatnonzero(atom >= 0)
    assert n > 50 and gen.max() > 6
    assert [atom[x] for x in grown] == [tree.atom_index(lazy_id[x]) for x in grown]
    assert np.array_equal(gen, np.array(tree.gen)[lazy_id])
    assert np.array_equal(V, np.array(tree.V)[lazy_id])
