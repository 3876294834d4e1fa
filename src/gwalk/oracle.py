"""Exact quenched computations on small truncated environments.

Everything here is dense linear algebra on an explicitly enumerated finite
tree plus the reflecting vertex e*: Green-function solves for per-excursion
edge counts and their second moments. These are ground truth for the walk
kernel and for the closed-form edge-count identities (which are conductance
facts, hence exact on truncations too):

    E[N_x per excursion] = e^{-V(x)}
    E[N_x N_y] = e^{-V(y)} (2 H_x - 1)                      x an ancestor of y
    E[N_x N_y] = 2 H_z e^{V(z)} e^{-V(x)} e^{-V(y)},  z = LCA, otherwise

with H_x = sum_{root <= u <= x} e^{V(u) - V(x)}.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "FiniteChain",
    "hx_array",
    "lca",
    "lemma_mean_closed_form",
    "lemma_second_closed_form",
]


def hx_array(parent: np.ndarray, V: np.ndarray) -> np.ndarray:
    """H_x for every node of an explicit tree (root first, parents before
    children)."""
    n = len(parent)
    H = np.empty(n)
    H[0] = 1.0
    for i in range(1, n):
        H[i] = 1.0 + math.exp(-(V[i] - V[parent[i]])) * H[parent[i]]
    return H


def lca(parent: np.ndarray, gen: np.ndarray, x: int, y: int) -> int:
    while gen[x] > gen[y]:
        x = parent[x]
    while gen[y] > gen[x]:
        y = parent[y]
    while x != y:
        x = parent[x]
        y = parent[y]
    return x


def _gen_array(parent: np.ndarray) -> np.ndarray:
    g = np.zeros(len(parent), dtype=np.int64)
    for i in range(1, len(parent)):
        g[i] = g[parent[i]] + 1
    return g


def lemma_mean_closed_form(V: np.ndarray, x: int) -> float:
    return math.exp(-V[x])


def lemma_second_closed_form(parent, V, x: int, y: int) -> float:
    """Closed-form E[N_x N_y] per excursion (x, y nonroot tree nodes)."""
    parent = np.asarray(parent)
    V = np.asarray(V)
    gen = _gen_array(parent)
    H = hx_array(parent, V)
    z = lca(parent, gen, x, y)
    if z == x or z == y:
        anc, desc = (x, y) if z == x else (y, x)
        return math.exp(-V[desc]) * (2.0 * H[anc] - 1.0)
    return 2.0 * H[z] * math.exp(V[z]) * math.exp(-V[x]) * math.exp(-V[y])


class FiniteChain:
    """Walk kernel on an explicit finite tree plus e*.

    `explicit` is a dict with `parent` (int array, root first, parent[0] =
    -1, children consecutive not required here) and `V` (float array).
    State indices 0..n-1 are tree nodes; e* is index n in the full chain.
    """

    def __init__(self, explicit):
        self.parent = np.asarray(explicit["parent"], dtype=np.int64)
        self.V = np.asarray(explicit["V"], dtype=np.float64)
        n = len(self.parent)
        if n == 0 or self.parent[0] != -1:
            raise ValueError("root must be first with parent -1")
        self.n = n
        self.gen = _gen_array(self.parent)
        self.H = hx_array(self.parent, self.V)
        w = np.exp(-self.V)
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            children[self.parent[i]].append(i)
        self.children = children
        # Q: substochastic kernel on tree nodes (absorption at e*);
        # up_prob[x]: mass sent from x to its parent (to e* when x is root)
        Q = np.zeros((n, n))
        up = np.zeros(n)
        for x in range(n):
            tot = w[x] + sum(w[c] for c in children[x])
            up[x] = w[x] / tot
            for c in children[x]:
                Q[x, c] = w[c] / tot
            if self.parent[x] >= 0:
                Q[x, self.parent[x]] = up[x]
        self.Q = Q
        self.up_prob = up
        self._Z = None
        rowsums = Q.sum(axis=1) + np.where(self.parent == -1, up, 0.0)
        assert np.all(np.abs(rowsums - 1.0) < 1e-13)

    @property
    def Z(self) -> np.ndarray:
        """Green matrix of the chain killed at e*: Z[a, b] = expected visits
        to b starting from a (the start counts as a visit)."""
        if self._Z is None:
            self._Z = np.linalg.inv(np.eye(self.n) - self.Q)
        return self._Z

    def expected_edge_counts(self) -> np.ndarray:
        """Per-excursion expected down-crossing counts E[N_x].

        The root's entry is exactly 1 (the crossing that opens the cycle);
        for any other node it is (expected visits to the parent before
        absorption) times the one-step parent -> x probability."""
        out = np.empty(self.n)
        out[0] = 1.0
        Z0 = self.Z[0]
        for x in range(1, self.n):
            pa = self.parent[x]
            out[x] = Z0[pa] * self.Q[pa, x]
        return out

    def edge_second_moment(self, x: int, y: int) -> float:
        """E[N_x N_y] per excursion by Green-function identities.

        Counting pairs of times (k < l), (l < k) and the diagonal:
        E[N_x N_y] = Z[e,ux] q_x Z[vx,uy] q_y + Z[e,uy] q_y Z[vy,ux] q_x
                     + 1{x=y} E[N_x], where u/v are each edge's endpoints
        and q the one-step crossing probability. The root edge opens the
        cycle deterministically, handled by its count being exactly 1."""
        if x == 0 or y == 0:
            means = self.expected_edge_counts()
            return means[y] if x == 0 else means[x]
        Z = self.Z
        ux, uy = self.parent[x], self.parent[y]
        qx, qy = self.Q[ux, x], self.Q[uy, y]
        first = Z[0, ux] * qx * Z[x, uy] * qy
        second = Z[0, uy] * qy * Z[y, ux] * qx
        diag = Z[0, ux] * qx if x == y else 0.0
        return first + second + diag
