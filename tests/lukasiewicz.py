"""The Lukasiewicz path of a forest of final trees (`gwalk.forest.FinalTree`),
for the tests of the path identities that the forest transform must satisfy:
first passage, the forest-type identity F_p = p + d(first_passage(p)), and
the sandwich bounds on f_bar.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class LukasiewiczPath:
    """Path data of a forest of final trees, concatenated in tree order.

    v1[k]  = sum over the first k type-1 vertices of (type-1 children - 1)
    d[k]   = total children (both types) of the first k type-1 vertices
    f_p[p] = cumulative vertex count of the first p trees
    k1_p[p] = cumulative type-1 vertex count of the first p trees

    Type-0 vertices are always leaves, so d over type-1 vertices already
    accounts for every non-root vertex of the forest.
    """

    v1: np.ndarray
    d: np.ndarray
    f_p: np.ndarray
    k1_p: np.ndarray
    _neg_max: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self._neg_max is None:
            self._neg_max = np.maximum.accumulate(-self.v1)

    @property
    def n_trees(self) -> int:
        return len(self.f_p) - 1

    def first_passage(self, p: int) -> int:
        """inf{k >= 1 : -v1[k] = p}, the size of the first p type-1 trees."""
        if not 1 <= p <= self.n_trees:
            raise ValueError("p out of range")
        k = int(np.searchsorted(self._neg_max, p, side="left"))
        assert self.v1[k] == -p
        return k

    def f(self, p: int) -> int:
        return int(self.f_p[p])

    def f_bar(self, m: int) -> int:
        """sup{p >= 0 : F_p <= m} on the sampled prefix."""
        return int(np.searchsorted(self.f_p, m, side="right")) - 1

    def d_bar(self, m: int) -> int:
        """sup{k >= 0 : d[k] <= m} on the sampled prefix."""
        return int(np.searchsorted(self.d, m, side="right")) - 1

    def max_drop(self, k: int) -> int:
        """max of -v1 over 0..k, i.e. the prefix maximum clamped at 0.

        The clamp is the tight convention for the sandwich bounds: a
        negative prefix maximum means no tree has closed yet, which
        forces f_bar = 0 on that prefix."""
        if k < 1:
            return 0
        return int(self._neg_max[min(k, len(self.v1) - 1)])

    def check_identities(self, m_grid=None, g_choices=(1, "half")) -> dict:
        """Exact per-sample path identities over the whole forest.

        first_passage : cumulative type-1 sizes are the first-passage
                        times of -v1 through every level p
        forest_type   : F_p = p + d(first_passage(p)) for every p
        sandwich      : min(g, max_drop(d_bar(m - g))) <= f_bar(m)
                        <= max_drop(d_bar(m)) on the valid m range
        """
        ps = np.arange(1, self.n_trees + 1)
        ks = np.searchsorted(self._neg_max, ps, side="left")
        fp_ok = bool(
            (self.v1[ks] == -ps).all() and (ks == self.k1_p[1:]).all()
        )
        ft_ok = bool((self.f_p[1:] == ps + self.d[ks]).all())

        if m_grid is None:
            top = int(self.d[-1]) - 1
            m_grid = np.unique(np.linspace(2, max(top, 2), 64, dtype=np.int64))
        sw_ok = True
        checked = 0
        for m in np.asarray(m_grid, dtype=np.int64):
            m = int(m)
            if m < 2 or m > int(self.d[-1]) - 1:
                continue
            fb = self.f_bar(m)
            hi = self.max_drop(self.d_bar(m))
            if fb > hi:
                sw_ok = False
            for g in g_choices:
                g = m // 2 if g == "half" else int(g)
                if not 1 <= g < m:
                    continue
                lo = min(g, self.max_drop(self.d_bar(m - g)))
                if lo > fb:
                    sw_ok = False
            checked += 1
        return {
            "first_passage": fp_ok,
            "forest_type": ft_ok,
            "sandwich": sw_ok,
            "sandwich_points": checked,
        }


def lukasiewicz(forest: Sequence) -> LukasiewiczPath:
    """Path encoding of a forest of final trees, tree order preserved.

    The DFS of the type-1 subforest is the preorder of each tree
    restricted to its type-1 vertices (type-0 vertices are leaves, so the
    restriction is a connected rooted subtree)."""
    n1_parts = []
    nfull_parts = []
    sizes = np.empty(len(forest), dtype=np.int64)
    k1 = np.empty(len(forest), dtype=np.int64)
    for i, f in enumerate(forest):
        cnt = np.bincount(f.parent[1:], minlength=len(f))
        mask = f.type1 == 1
        t1_children = np.zeros(len(f), dtype=np.int64)
        deeper = np.flatnonzero(mask)
        deeper = deeper[deeper > 0]
        if deeper.size:
            np.add.at(t1_children, f.parent[deeper], 1)
        n1_parts.append(t1_children[mask])
        nfull_parts.append(cnt[mask])
        sizes[i] = len(f)
        k1[i] = int(mask.sum())

    n1 = np.concatenate(n1_parts) if n1_parts else np.empty(0, np.int64)
    nf = np.concatenate(nfull_parts) if nfull_parts else np.empty(0, np.int64)
    v1 = np.zeros(len(n1) + 1, dtype=np.int64)
    np.cumsum(n1 - 1, out=v1[1:])
    d = np.zeros(len(nf) + 1, dtype=np.int64)
    np.cumsum(nf, out=d[1:])
    f_p = np.zeros(len(forest) + 1, dtype=np.int64)
    np.cumsum(sizes, out=f_p[1:])
    k1_p = np.zeros(len(forest) + 1, dtype=np.int64)
    np.cumsum(k1, out=k1_p[1:])
    return LukasiewiczPath(v1=v1, d=d, f_p=f_p, k1_p=k1_p)
