"""Deliberately naive reference implementations for the test suite.

Everything here recomputes library results from the definitions: slow
loops, explicit recursion, arbitrary-precision arithmetic. Nothing in
this module may import algorithmic code paths from gwalk beyond plain
dataclass containers and the key scheme of gwalk._rng.
"""

import json
import math
from typing import Iterator, NamedTuple

import mpmath as mp
import numpy as np
from scipy import stats as sps

from gwalk._rng import TWO_NEG53, child_key_np, root_key_np


def psi_mp(atoms, t, dps: int = 50):
    """log E[sum_children e^{-t * mark}] at high precision."""
    with mp.workdps(dps):
        acc = mp.mpf(0)
        for prob, marks in atoms:
            acc += mp.mpf(prob) * mp.fsum(mp.e ** (-mp.mpf(t) * mp.mpf(a)) for a in marks)
        return mp.log(acc)


def psi_prime_mp(atoms, t, dps: int = 50):
    """Analytic derivative -sum p*a*e^(-ta) / sum p*e^(-ta) in mpmath."""
    with mp.workdps(dps):
        tt = mp.mpf(t)
        num = mp.mpf(0)
        den = mp.mpf(0)
        for p, marks in atoms:
            for a in marks:
                term = mp.mpf(p) * mp.e ** (-tt * mp.mpf(a))
                den += term
                num += mp.mpf(a) * term
        return -num / den


def kappa_mp(atoms, hi: float = 64.0, dps: int = 50):
    """Smallest root of psi above 1, by bisection; inf when psi < 0 on
    (1, hi]."""
    with mp.workdps(dps):
        lo = mp.mpf(1) + mp.mpf("1e-9")
        if psi_mp(atoms, hi, dps) < 0:
            return math.inf
        a, b = lo, mp.mpf(hi)
        for _ in range(200):
            mid = (a + b) / 2
            if psi_mp(atoms, mid, dps) < 0:
                a = mid
            else:
                b = mid
        return float((a + b) / 2)


def solve_kappa_scipy(psi, t_max: float = 64.0) -> float:
    """solve_kappa's bracket scan on a callable psi, refined by
    scipy.optimize.brentq with the same xtol (math.inf without a sign change
    up to t_max). scipy raises ValueError when the first bracket has psi > 0
    at both ends."""
    from scipy.optimize import brentq

    t, step = 1.0 + 1e-9, 0.05
    while t < t_max:
        t_next = min(t + step, t_max)
        if psi(t_next) > 0.0:
            return float(brentq(psi, t, t_next, xtol=5e-16))
        t, step = t_next, step * 1.25
    return math.inf


def h_direct(V_path) -> float:
    """H of the last node of a root-to-node potential path: the direct
    double-exponential sum."""
    V_path = list(V_path)
    vx = V_path[-1]
    return sum(math.exp(v - vx) for v in V_path)


def ml_series_mp(gamma: float, lam: float, dps: int = 80) -> float:
    """Laplace transform sum_k (-lam)^k / Gamma(1 + k/gamma), straight
    mpmath loop with no log-domain tricks."""
    with mp.workdps(dps):
        lam_mp = mp.mpf(lam)
        g = mp.mpf(gamma)
        total = mp.mpf(0)
        term_scale = mp.mpf(1)
        k = 0
        while True:
            term = (-lam_mp) ** k / mp.gamma(1 + mp.mpf(k) / g)
            total += term
            term_scale = abs(term)
            if term_scale < mp.mpf(10) ** (-(dps - 10)) and k > lam**gamma + 4:
                break
            k += 1
            if k > 10**6:
                raise RuntimeError("series did not converge")
        return float(total)


def gauss_sup_laplace_mp(lam: float, dps: int = 50) -> float:
    """E[e^{-lam |N(0,1)|}] = 2 e^{lam^2/2} Phi(-lam)."""
    with mp.workdps(dps):
        lam_mp = mp.mpf(lam)
        return float(2 * mp.e ** (lam_mp**2 / 2) * mp.ncdf(-lam_mp))


def pareto_sample(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    """P(X > x) = x^{-alpha} for x >= 1, by inverse CDF."""
    return rng.random(n) ** (-1.0 / alpha)


def nb_failures_pmf(m: int, k: int, p_back: float) -> float:
    """P(total failures = m) before the k-th success, success prob p_back."""
    return float(sps.nbinom.pmf(m, k, p_back))


def negative_multinomial_pmf(x, k: int, p_back: float, cells) -> float:
    """P(X = x) for X negative multinomial: the failures before the k-th
    success, success prob p_back, falling into cell i with prob cells[i]:
    Gamma(k + sum x) / (Gamma(k) prod x_i!) p_back^k prod cells_i^x_i."""
    log = math.lgamma(k + sum(x)) - math.lgamma(k) + k * math.log(p_back)
    for xi, c in zip(x, cells):
        log += xi * math.log(c) - math.lgamma(xi + 1)
    return math.exp(log)


def numpy_state(rng) -> dict:
    """The state of the library's generator (a `gwalk.kernel.PCG64`) in the
    form of numpy's `bit_generator.state`: to compare with a numpy
    Generator's, or to set one to it."""
    s = rng._state
    return {"bit_generator": "PCG64",
            "state": {"state": s.state_hi << 64 | s.state_lo, "inc": s.inc_hi << 64 | s.inc_lo},
            "has_uint32": s.has_uint32, "uinteger": s.uinteger}


def discounted_sums_searchsorted(law, n: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Reference for env.discounted_sums_batch, which must return the same
    bytes and leave rng in the same state: the increment of each uniform by
    a binary search of the cumulative size-biased law (mass p e^{-a} per
    mark a of an atom of probability p), fresh arrays for every slice of
    2**12 rows. The truncation rule is the library's: 512 terms first, then
    blocks of 64 until the geometric tail bound drops below eps."""
    vals = np.array([a for _, marks in law.atoms for a in marks])
    probs = np.array([p * math.exp(-a) for p, marks in law.atoms for a in marks])
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    S = np.zeros(n)
    D = np.ones(n)
    active = np.arange(n)
    j = 0
    block = 512
    while active.size:
        for lo in range(0, active.size, 2**12):
            rows = active[lo:lo + 2**12]
            u = rng.random((rows.size, block))
            inc = vals[np.searchsorted(cum, u, side="right")]
            Sa = S[rows, None] + np.cumsum(inc, axis=1)
            D[rows] += np.exp(-Sa).sum(axis=1)
            S[rows] = Sa[:, -1]
        j += block
        delta = np.maximum(1e-9, 0.5 * S[active] / j)
        bound = np.exp(-S[active]) / (1.0 - np.exp(-delta))
        active = active[bound >= eps]
        block = 64
        if j > 10**7:
            break
    return D


def level_weights_bfs(law, env_seeds, level: int) -> np.ndarray:
    """Reference for env.level_weights_batch, which must return the same
    bytes: W_level per environment seed, breadth first over the whole batch.
    Each generation lists per node its batch row, key and V, rows in order,
    then parents, then siblings; a child's V is V[parent] + its mark. W is
    np.bincount of numpy's exp(-V) by row (0.0 for a dead environment)."""
    t = law.tables()
    key = root_key_np(env_seeds)
    n = key.size
    row, V = np.arange(n), np.zeros(n)
    for _ in range(level):
        a = t.cum.searchsorted((key >> np.uint64(11)) * TWO_NEG53, side="right")
        k = t.lens[a]
        parent = np.repeat(np.arange(k.size), k)
        j = np.arange(parent.size) - (np.cumsum(k) - k)[parent]
        V = V[parent] + t.marks[t.off[a][parent] + j]
        row, key = row[parent], child_key_np(key[parent], j)
    return np.bincount(row, weights=np.exp(-V), minlength=n)


class Level(NamedTuple):
    """One generation of an `excursion_levels` batch. Nodes are sorted by row
    and, within a row, by parent; siblings follow their child index."""

    row: np.ndarray  # batch row of each node
    parent: np.ndarray  # index into the previous generation, -1 at the roots
    key: np.ndarray  # environment key (uint64)
    N: np.ndarray  # edge count, >= 1


def excursion_levels(law, env_seeds, root_counts, rng, prune=False, budget=None) -> Iterator[Level]:
    """Reference for the library's count-tree sampler (`kernel.count_trees`),
    which must make the same draws from rng in the same order: the
    generations of one excursion tree per row, roots first, drawn lazily (a
    consumer that stops after generation d has drawn nothing deeper).

    Row r grows on the keyed environment of env_seeds[r] with root count
    root_counts[r] (a scalar applies to every row). Per generation, one
    rng.standard_gamma call over the expanded nodes, then one rng.poisson
    call over (expanded node, child slot) at rate g e^{-a_i}, 0 past the
    node's atom, where numpy draws nothing; the children are the nonzero
    counts in that order. With prune=True, count-1 nodes below the root are
    not expanded. With a budget (a scalar, or one value per row), a row
    stops growing once the sum of N over its nodes passes its budget."""
    t = law.tables()
    key = root_key_np(env_seeds)
    n = key.size
    N = np.broadcast_to(np.asarray(root_counts, dtype=np.int64), n).copy()
    if (N < 1).any():
        raise ValueError("root counts must be >= 1")
    row = np.arange(n, dtype=np.int64)
    parent = np.broadcast_to(np.int64(-1), n)
    if budget is not None:
        budget = np.broadcast_to(np.asarray(budget, dtype=np.int64), n)
        total = np.zeros(n, dtype=np.int64)
    owner = np.repeat(np.arange(t.lens.size), t.lens)  # the atom of each mark
    rate = np.zeros((t.lens.size, int(t.lens.max())))
    rate[owner, np.arange(t.marks.size) - t.off[owner]] = np.exp(-t.marks)
    root = True
    while row.size:
        yield Level(row, parent, key, N)
        ex = np.flatnonzero(N >= 2) if prune and not root else np.arange(row.size)
        root = False
        if budget is not None:
            np.add.at(total, row, N)
            ex = ex[total[row[ex]] <= budget[row[ex]]]
        g = rng.standard_gamma(N[ex])
        atom = t.cum.searchsorted((key[ex] >> np.uint64(11)) * TWO_NEG53, side="right")
        kids = rng.poisson(g[:, None] * rate[atom])
        par, j = np.nonzero(kids)
        N = kids[par, j]
        parent = ex[par]
        row = row[parent]
        key = child_key_np(key[parent], j)


def build_chain(marks) -> dict:
    """Path graph root - x1 - ... - xk with V accumulating the given marks."""
    parent = [-1]
    V = [0.0]
    for i, a in enumerate(marks):
        parent.append(i)
        V.append(V[-1] + float(a))
    return {"parent": np.array(parent, dtype=np.int64), "V": np.array(V)}


def dump_law(law, path) -> None:
    """Write a law's atoms as an `atoms`-format JSON file (the inverse of
    `load_law` on a path)."""
    doc = {"atoms": [{"p": p, "marks": list(m)} for p, m in law.atoms]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def survives_naive(tree, depth: int, cap: int) -> bool:
    """Whether an environment grown node by node (`tree.grow(x)` gives the
    child ids of node x, node 0 the root) reaches generation `depth`,
    breadth first; a generation of `cap` nodes counts as surviving."""
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            nxt.extend(tree.grow(x))
            if len(nxt) >= cap:
                return True
        if not nxt:
            return False
        frontier = nxt
    return True


def step_law_loop(off, lens, marks):
    """(p_up, step_cum, rate) of the walk's step law, one atom at a time:
    rate holds each atom's weights e^{-a_i} in its row, 0 past them."""
    p_up = np.empty(len(lens))
    step_cum = np.empty(len(marks))
    rate = np.zeros((len(lens), max(lens, default=0)))
    for a, (o, k) in enumerate(zip(off, lens)):
        wa = np.exp(-marks[o : o + k])
        s = wa.sum()
        p_up[a] = 1.0 / (1.0 + s)
        step_cum[o : o + k] = p_up[a] + np.cumsum(wa / (1.0 + s))
        rate[a, :k] = wa
    return p_up, step_cum, rate


def return_prob_grid(chain, times) -> np.ndarray:
    """P(X_m = e*) for X_0 = root at each requested raw time m, by
    matrix-vector iteration of the full chain of a `gwalk.oracle.FiniteChain`
    (its tree nodes plus e* = index n, which is reflecting)."""
    times = np.asarray(times, dtype=np.int64)
    order = np.argsort(times)
    n = chain.n
    P = np.zeros((n + 1, n + 1))
    P[:n, :n] = chain.Q
    P[0, n] = 1.0 - chain.Q[0].sum()  # the root's step up, to e*
    P[n, 0] = 1.0
    mu = np.zeros(n + 1)
    mu[0] = 1.0
    out = np.empty(len(times))
    t = 0
    for oi in order:
        target = int(times[oi])
        while t < target:
            mu = mu @ P
            t += 1
        assert abs(mu.sum() - 1.0) < 1e-12
        out[oi] = mu[n]
    return out


# ---------------------------------------------------------------------------
# naive tree transform


def validate_typed_tree(t) -> None:
    """Recompute every derived field of a `gwalk.forest.TypedTree` from
    scratch and compare: the independent route against its vectorized
    construction."""
    n = len(t)
    assert t.parent[0] == -1 and t.beta[0] == 1
    for j in range(1, n):
        assert 0 <= t.parent[j] < j
        assert t.beta[j] >= 1
    # preorder: an explicit recursive traversal must emit 0..n-1
    children: list[list[int]] = [[] for _ in range(n)]
    for j in range(1, n):
        children[t.parent[j]].append(j)
    order = []
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(reversed(children[x]))
    assert order == list(range(n)), "node order is not a preorder"
    for j in range(n):
        bs = t.beta[j] + sum(t.beta[c] for c in children[j])
        assert bs == t.beta_star[j]
        g = 0
        z = t.parent[j]
        d = 0
        while z != -1:
            g += 1 if t.beta[z] == 1 else 0
            z = t.parent[z]
            d += 1
        assert g == t.g1[j]
        assert d == t.gen[j]


def skeleton_naive(t):
    """Per-node ancestor walks: parent = nearest strict ancestor with
    count 1, generation = number of count-1 strict ancestors."""
    n = len(t)
    parent = np.full(n, -1, dtype=np.int64)
    gen = np.zeros(n, dtype=np.int64)
    for j in range(1, n):
        z = t.parent[j]
        while z != -1 and t.beta[z] != 1:
            z = t.parent[z]
        parent[j] = z
        g = 0
        z = t.parent[j]
        while z != -1:
            if t.beta[z] == 1:
                g += 1
            z = t.parent[z]
        gen[j] = g
    t1 = (t.beta == 1).astype(np.int64)
    b2 = np.asarray(t.beta_star, dtype=np.int64).copy()
    return parent, t1, b2, gen


def finalize_naive(skel_parent, t1, b2):
    """Recursive preorder emission with leaf padding.

    A count-1 (type 1) node keeps its skeleton children and closes its
    block with b2 - 1 extra leaves; any other node is a leaf whose b2 - 1
    extra leaves follow it immediately, attached to its parent."""
    n = len(skel_parent)
    children = [[] for _ in range(n)]
    for j in range(1, n):
        children[skel_parent[j]].append(j)
    out_parent: list[int] = []
    out_type: list[int] = []

    def emit(x: int, parent_pos: int) -> None:
        mypos = len(out_parent)
        out_parent.append(parent_pos)
        out_type.append(int(t1[x]))
        if t1[x] == 1:
            for c in children[x]:
                emit(c, mypos)
            for _ in range(int(b2[x]) - 1):
                out_parent.append(mypos)
                out_type.append(0)
        else:
            for _ in range(int(b2[x]) - 1):
                out_parent.append(parent_pos)
                out_type.append(0)

    emit(0, -1)
    return np.asarray(out_parent, dtype=np.int64), np.asarray(out_type, dtype=np.int64)


def lukasiewicz_steps_naive(final_parent, final_type):
    """(type-1 child counts - 1, full child counts) over the type-1
    vertices in recursive preorder of one final tree."""
    n = len(final_parent)
    children = [[] for _ in range(n)]
    for j in range(1, n):
        children[final_parent[j]].append(j)
    v_steps: list[int] = []
    d_steps: list[int] = []

    def visit(x: int) -> None:
        if final_type[x] == 1:
            n1 = sum(1 for c in children[x] if final_type[c] == 1)
            v_steps.append(n1 - 1)
            d_steps.append(len(children[x]))
        for c in children[x]:
            visit(c)

    visit(0)
    return np.asarray(v_steps, dtype=np.int64), np.asarray(d_steps, dtype=np.int64)


def regen_ids_naive(parent, gen, N, level: int):
    """Brute-force filter of the regeneration definition: nodes below
    `level` visited exactly once whose strict ancestors between level and
    the node are all visited at least twice."""
    n = len(parent)
    out = []
    for x in range(n):
        if gen[x] <= level or N[x] != 1:
            continue
        ok = True
        z = parent[x]
        while z != -1 and gen[z] > level:
            if N[z] < 2:
                ok = False
                break
            z = parent[z]
        if ok:
            out.append(x)
    return sorted(out)


def hypothesis_check(trees) -> dict:
    """The three first-generation sums reduced tree by tree over whole typed
    trees, with their SEs: the route that the pruned batch of
    `gwalk.excursion.hypothesis_sums_batch` is checked against.

    Per tree: b = #{g1 = 1, beta = 1} (also the type-1 root offspring of
    the rebuilt tree), nu_hat = sum of beta over {g1 = 1},
    nu_tilde_hat = #{g1 = 1}. sigma1_sq is the sample variance of b with a
    fourth-moment standard error."""
    b = []
    nu = []
    nut = []
    for t in trees:
        lvl1 = t.g1 == 1
        b.append(int(np.count_nonzero(lvl1 & (t.beta == 1))))
        nu.append(int(t.beta[lvl1].sum()))
        nut.append(int(np.count_nonzero(lvl1)))
    b = np.asarray(b, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    nut = np.asarray(nut, dtype=np.float64)
    n = len(b)
    if n < 2:
        raise ValueError("need at least two trees")
    var_b = b.var(ddof=1)
    m4 = ((b - b.mean()) ** 4).mean()
    return {
        "n": n,
        "b_mean": float(b.mean()),
        "b_se": float(b.std(ddof=1) / math.sqrt(n)),
        "nu_mean": float(nu.mean()),
        "nu_se": float(nu.std(ddof=1) / math.sqrt(n)),
        "nu_tilde_mean": float(nut.mean()),
        "nu_tilde_se": float(nut.std(ddof=1) / math.sqrt(n)),
        "sigma1_sq": float(var_b),
        "sigma1_sq_se": float(math.sqrt(max(m4 - var_b**2, 0.0) / n)),
    }


# ---------------------------------------------------------------------------
# spectrally negative stable process Y, E[e^{lam Y_t}] = e^{t lam^gamma}:
# the independent Monte Carlo route for gwalk.limits.ml_laplace/hit_laplace


def sample_stable_increments(
    gamma: float, size, rng: np.random.Generator
) -> np.ndarray:
    """Unit-time increments of Y: E[e^{lam X}] = e^{lam^gamma}, no positive jumps.

    Standard one-sided-skew stable generator (uniform angle plus
    exponential), totally positively skewed, then negated and scaled by
    |cos(pi gamma / 2)|^(1/gamma) so the Laplace exponent is exactly
    lam^gamma. Locked by the transform MC test."""
    gamma = float(gamma)
    if gamma == 2.0:
        # Brownian case: variance 2 per unit time (e^{lam^2} transform)
        return rng.normal(0.0, math.sqrt(2.0), size=size)
    tan_half = math.tan(math.pi * gamma / 2.0)
    b = math.atan(tan_half) / gamma
    s = (1.0 + tan_half**2) ** (1.0 / (2.0 * gamma))
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    w = rng.exponential(1.0, size=size)
    z = (
        s
        * np.sin(gamma * (u + b))
        / np.cos(u) ** (1.0 / gamma)
        * (np.cos(u - gamma * (u + b)) / w) ** ((1.0 - gamma) / gamma)
    )
    sigma = abs(math.cos(math.pi * gamma / 2.0)) ** (1.0 / gamma)
    return -sigma * z


def sample_stable_path_functional(
    gamma: float,
    t: float,
    functional: str,
    n_steps: int,
    n_paths: int = 1,
    rng: np.random.Generator | None = None,
    alpha: float = 1.0,
    block: int = 4096,
) -> np.ndarray:
    """Grid functionals of Y paths: running supremum or level passage.

    Simulates n_paths independent copies of (Y_s; s <= t) on an n_steps
    grid from i.i.d. stable increments (each scaled by dt^(1/gamma)) and
    returns, per path, either

        SUP   max(0, max over the grid of Y)
        HIT   the first grid time with Y >= alpha, +inf if not reached

    The grid makes SUP biased low and HIT biased high by one mesh step;
    both vanish as n_steps grows (documented, not corrected)."""
    gamma = float(gamma)
    if functional not in ("SUP", "HIT"):
        raise ValueError("functional must be SUP or HIT")
    if rng is None:
        rng = np.random.default_rng()
    dt = float(t) / n_steps
    scale = dt ** (1.0 / gamma)
    out = np.empty(n_paths)
    done = 0
    while done < n_paths:
        nb = min(block, n_paths - done)
        inc = scale * sample_stable_increments(gamma, (nb, n_steps), rng)
        path = np.cumsum(inc, axis=1)
        if functional == "SUP":
            out[done : done + nb] = np.maximum(path.max(axis=1), 0.0)
        else:
            hit = path >= alpha
            first = np.argmax(hit, axis=1)
            val = (first + 1.0) * dt
            val[~hit.any(axis=1)] = np.inf
            out[done : done + nb] = val
        done += nb
    return out
