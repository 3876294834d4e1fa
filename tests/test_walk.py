"""Walk layer: kernel grid runners, exact clocks, the identity that joins
the local time L^n and the return time T^p, and the kernel's law."""

import math

import numpy as np
import pytest

import oracles
import pykernel
from gwalk import kernel
from gwalk.env import enumerate_truncated
from gwalk.law import load_law, make_constant_bias, make_two_point
from gwalk.oracle import FiniteChain
from gwalk.walk import simulate_excursion_grid, simulate_time_grid

SUB = make_two_point(0.068)
CB = make_constant_bias(2.0)


def test_kernel_conservation_and_clock_identity():
    p = 200
    res = kernel.run_walk(SUB.tables(), 77, 88, kernel.MODE_CROSSINGS, p, np.arange(1, p + 1))
    nd, nu = res["tree_ndown"], res["tree_nup"]
    # every step crosses exactly one edge, the e* -> e steps included
    assert nd.sum() + nu.sum() == res["m"]
    assert nd[0] == res["L"] == p
    # a snapshot at every crossing j, where L = j
    assert res["snap_L"].tolist() == list(range(1, p + 1))
    # T^j = tau^j - j at every crossing j
    assert np.array_equal(res["snap_T"], res["snap_tau"] - res["snap_L"])
    # the excised clock never counts forced e* -> e steps
    assert res["t_ex"] == res["m"] - res["L"]


def test_kernel_excised_clock_identity():
    res = simulate_time_grid(SUB, [5, 7, 9], [6, 8, 10], [20000])
    pending = res["pos"] == -1
    assert (res["t_ex"] == res["m"] - res["L"] + pending).all()


def test_snapshot_marginals_rows():
    res = simulate_time_grid(SUB, [21], [22], [400, 100])
    assert res["snap_tau"].tolist() == [[100, 400]]  # the grid is sorted
    assert res["snap_L"][0, 1] >= res["snap_L"][0, 0]  # L is nondecreasing
    assert res["snap_R"][0, 1] >= res["snap_R"][0, 0]  # R is nondecreasing
    res = simulate_excursion_grid(SUB, [21], [22], [5], 10**9)
    assert res["snap_L"].tolist() == [[5]]
    assert res["snap_T"][0, 0] == res["snap_tau"][0, 0] - 5  # T^p = tau^p - p


# half the atoms childless, half with four children marked ln 2 (the
# extinction law of test_cli.py): about half the environments die
EXTINCTION = load_law({"atoms": [{"p": 0.5, "marks": []},
                                 {"p": 0.5, "marks": [math.log(2.0)] * 4}]})


@pytest.mark.parametrize("law", [SUB, EXTINCTION], ids=["two_point_sub", "extinction"])
def test_local_time_and_return_time_are_one_process(law):
    """L^n >= p <=> T^p <= n - p + 1 pathwise (Theorems 2 and 1): the p-th
    arrival at e* is raw step tau^p - 1 = T^p + p - 1. On 50 environments x
    3 walk seeds, a step walk snapshots L at every n <= 10^4 and a crossing
    walk with the same seeds T at every p <= 30 it reaches within 10^6
    steps; a p it does not reach has L^n < p at every n."""
    n = np.arange(1, 10**4 + 1)
    p = np.arange(1, 31)
    budget = 10**6
    for env in range(50):
        for walk_seed in range(3):
            L = kernel.run_walk(law.tables(), env, walk_seed, kernel.MODE_STEPS,
                                n[-1], n)["snap_L"]
            T = kernel.run_walk(law.tables(), env, walk_seed, kernel.MODE_CROSSINGS,
                                p[-1], p, budget=budget)["snap_T"]
            k = T.size
            assert np.array_equal(L[None, :] >= p[:k, None],
                                  T[:, None] <= n[None, :] - p[:k, None] + 1)
            assert (L < p[k:, None]).all()


def test_single_step_bookkeeping():
    """A one-step run, then the two-step run it starts: both branches of the
    first move (up to e*, or down to a child of the root) are exercised."""
    seen = set()
    for walk_seed in range(20):
        one = kernel.run_walk(CB.tables(), 0, walk_seed, kernel.MODE_STEPS, 1, [1])
        two = kernel.run_walk(CB.tables(), 0, walk_seed, kernel.MODE_STEPS, 2, [1, 2])
        assert (one["m"], one["t_ex"]) == (1, 1)
        assert one["tree_ndown"].sum() + one["tree_nup"].sum() == 1
        # the longer run extends the shorter one step for step
        assert two["snap_L"][0] == one["L"] and two["snap_R"][0] == one["R"]
        assert two["snap_T"][0] == one["t_ex"]
        if one["pos"] == -1:
            assert (one["L"], one["R"], one["tree_nup"][0]) == (1, 1, 1)
            # forced return to the root: off the excised clock, first crossing
            assert (two["pos"], two["m"], two["t_ex"]) == (0, 2, 1)
            assert two["tree_ndown"][0] == 1
        else:
            x = one["pos"]
            assert one["tree_parent"][x] == 0
            assert (one["L"], one["R"], one["tree_ndown"][x]) == (0, 2, 1)
            assert two["m"] == two["t_ex"] == 2
        seen.add(one["pos"] == -1)
    assert seen == {True, False}


def test_constant_bias_range_grows_at_quarter_rate(compiled_run_walk):
    """On the lambda = 2 binary tree R/m tends to 1/4 (c_inf / 2). The walk
    goes deep, past V = 745 where e^{-V} underflows; a step that used e^{-V}
    then never stepped up again and R/m overshot."""
    for i in range(5):
        res = compiled_run_walk(CB.tables(), i, 100 + i, kernel.MODE_STEPS, 10**6, [])
        assert abs(res["R"] / res["m"] - 0.25) < 0.02


def test_excursion_budget_censoring():
    res = simulate_excursion_grid(SUB, [1], [2], [1, 10**7], 500)
    assert res["status"][0] == kernel.STATUS_BUDGET
    assert res["m"][0] == 500
    assert res["nsnap"][0] <= 1  # deep grid point never reached


def test_explicit_tree_walk():
    """Kernel accepts a prebuilt finite chain and conserves steps on it."""
    chain = oracles.build_chain([0.3, -0.2])
    res = kernel.run_walk(None, 0, 909, kernel.MODE_CROSSINGS, 100, [100], explicit=chain)
    assert res["status"] == kernel.STATUS_OK
    assert res["L"] == 100
    assert res["nodes_grown"] == 3
    assert res["tree_ndown"].sum() + res["tree_nup"].sum() == res["m"]
    # every down-crossing of an inner edge is matched by an up-crossing
    assert np.array_equal(res["tree_ndown"][1:], res["tree_nup"][1:])


def test_explicit_tree_rejects_bad_layout():
    with pytest.raises(ValueError):
        kernel.run_walk(
            None,
            0,
            1,
            kernel.MODE_STEPS,
            10,
            [],
            explicit={"parent": [0, -1], "V": [0.0, 0.0]},
        )


@pytest.mark.parametrize("impl", ["compiled", "python"])
def test_kernel_law_matches_return_prob_grid(request, impl):
    """Exact law of the walk: arrivals at e* at each step 1..40 of 5000
    walkers on a 15-node truncated tree against P(X_m = e*) from the
    transition matrix. The tree is bipartite, so even steps never reach e*."""
    if impl == "compiled":
        run_walk = request.getfixturevalue("compiled_run_walk")
    else:
        run_walk = pykernel.run_walk
    env = enumerate_truncated(SUB, 42, 3)
    explicit = {"parent": env["parent"], "V": env["V"]}
    steps = np.arange(1, 41)
    n = 5000
    arrivals = np.zeros(steps.size, dtype=np.int64)
    for walk_seed in range(n):
        res = run_walk(None, 0, walk_seed, kernel.MODE_STEPS, 40, steps,
                       explicit=explicit)
        arrivals += np.diff(res["snap_L"], prepend=0)
    chain = FiniteChain(explicit)
    want = oracles.return_prob_grid(chain, steps)
    assert chain.n == 15
    # the first step leaves the root upward with the kernel's P(up)
    assert math.isclose(want[0], kernel.explicit_tree(explicit)[0].p_up[0], rel_tol=1e-15)
    assert (arrivals[1::2] == 0).all()
    odd = want[0::2]
    z = (arrivals[0::2] - n * odd) / np.sqrt(n * odd * (1.0 - odd))
    assert np.abs(z).max() < 4.5  # 20 simultaneous comparisons
