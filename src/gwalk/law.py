"""Offspring-and-mark laws and the potential-level analytics derived from them.

A law is the single source of environment randomness: one draw produces the
number of children of a node together with one real mark per child. Only
finite-support laws are admitted, so the log-Laplace transform

    psi(t) = log sum_i p_i sum_{a in marks_i} exp(-t a)

and its derivatives are exact finite sums. The walk is recurrent when the law
is calibrated to psi(1) = 0 with psi'(1) < 0, and the scaling regime is read
off the second zero kappa of psi on (1, infinity).
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "LawError",
    "LawTables",
    "MarkLaw",
    "make_mark_law",
    "psi_evaluate",
    "psi_prime",
    "solve_kappa",
    "regime_of",
    "make_two_point",
    "make_constant_bias",
    "load_law",
    "KAPPA_T_MAX",
]

KAPPA_T_MAX = 64.0

PROB_TOL = 1e-12
CALIBRATION_TOL = 1e-9
# MarkLaw.is_lattice: relative tolerance and largest multiplier of the span
LATTICE_RTOL = 1e-9
LATTICE_MAX_MULT = 10**4


class LawError(ValueError):
    """Raised when a law violates a structural precondition.

    The ``code`` attribute carries a stable machine-readable tag:
    NOT_NORMALIZED, SUBCRITICAL, ASSUMPTION_VIOLATION, NO_CONVERGENCE,
    MISSING_KEY or MALFORMED (a law file that cannot be read or is not
    JSON, a spec or atom that is not an object, or marks that are not a
    list of finite numbers).
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class LawTables(NamedTuple):
    """Per-atom tables of a law (or of an explicit tree, one atom per node).

    cum       cumulative atom probabilities, last entry forced to 1.0
    off, lens each atom's offset and length in the per-mark arrays
    marks     the child marks a_i, flattened
    p_up      per atom: P(step to the parent) = 1 / (1 + s), s = sum_i e^{-a_i}
    step_cum  per mark: P(up) + P(child <= i), the thresholds the walk kernels
              compare their uniform against
    rate      the (atoms x most children) table of the weights e^{-a_i},
              0 past an atom's children: per unit of the gamma draw, the
              Poisson rates with which `gw_counts` draws the children's counts
    """

    cum: np.ndarray | None
    off: np.ndarray
    lens: np.ndarray
    marks: np.ndarray
    p_up: np.ndarray
    step_cum: np.ndarray
    rate: np.ndarray


def step_law(off, lens, marks):
    """The walk's step law per atom and its weights: (p_up, step_cum, rate)
    of LawTables.

    From x the walk steps to the parent with weight e^{-V(x)} and to child
    x_i with weight e^{-V(x_i)}; V(x) cancels, so the law depends only on
    the weights e^{-a_i} of the marks a_i = V(x_i) - V(x) and no potential
    level is ever needed. The atoms with k children are taken together: their
    weights form one C-contiguous (atoms x k) array, whose row sums and row
    running sums are numpy's per-atom `sum` and `cumsum`, so the tables are
    bit-identical to a per-atom loop.
    """
    off = np.asarray(off, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    marks = np.asarray(marks, dtype=np.float64)
    p_up = np.ones(len(lens))  # a leaf steps up for sure
    step_cum = np.empty(len(marks))
    rate = np.zeros((len(lens), int(lens.max(initial=0))))
    for k in set(lens.tolist()) - {0}:  # not np.unique: it imports numpy.ma
        atoms = np.flatnonzero(lens == k)
        at = off[atoms, None] + np.arange(k)  # the atoms' marks, one row each
        w = np.exp(-marks[at])
        s = w.sum(axis=1)
        p_up[atoms] = 1.0 / (1.0 + s)
        step_cum[at] = p_up[atoms, None] + np.cumsum(w / (1.0 + s[:, None]), axis=1)
        rate[atoms, :k] = w
    return p_up, step_cum, rate


@dataclass(frozen=True)
class MarkLaw:
    """Finite-support law of (offspring count, marks).

    atoms: tuple of (probability, marks) pairs; each atom is one realization,
    its offspring count being len(marks). Probabilities sum to one.
    """

    atoms: tuple[tuple[float, tuple[float, ...]], ...]

    @property
    def mean_offspring(self) -> float:
        return sum(p * len(m) for p, m in self.atoms)

    @property
    def has_negative_mark(self) -> bool:
        return any(a < 0 for _, m in self.atoms for a in m)

    def is_lattice(self) -> bool:
        """True when every mark lies in dZ for one d > 0 (arithmetic in the
        renewal sense, for the spine walk behind D and c_kappa). d is the
        float gcd of the nonzero |marks| by Euclid with symmetric remainders,
        to within LATTICE_RTOL * max|mark|; since any finite set of floats is
        near a fine enough lattice, max|mark| / d may be at most
        LATTICE_MAX_MULT. validate-law reports it as a warning only."""
        marks = {abs(a) for _, m in self.atoms for a in m} - {0.0}
        if not marks:
            return True
        tol = LATTICE_RTOL * max(marks)
        d = 0.0
        for x in marks:
            while d > tol:
                x, d = d, abs(x - d * round(x / d))
            d = x
        return max(marks) / d <= LATTICE_MAX_MULT and all(
            abs(a - d * round(a / d)) <= tol for a in marks
        )

    def tables(self) -> LawTables:
        """The law's flat tables, read by the kernels and the samplers.

        Built on the first call and cached on the law as read-only arrays,
        since every trial of a campaign reads them.
        """
        got = self.__dict__.get("_tables")
        if got is None:
            cum = np.cumsum([p for p, _ in self.atoms])
            cum[-1] = 1.0
            lens = np.array([len(m) for _, m in self.atoms], dtype=np.int64)
            off = np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.int64)
            flat = np.array([a for _, m in self.atoms for a in m], dtype=np.float64)
            got = LawTables(cum.astype(np.float64), off, lens, flat,
                            *step_law(off, lens, flat))
            for a in got:
                a.flags.writeable = False
            # frozen dataclass: the cache is not a field, so eq and hash ignore it
            object.__setattr__(self, "_tables", got)
        return got


def _finite(x) -> bool:
    """True for a finite real number, bools excluded."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def make_mark_law(atoms) -> MarkLaw:
    """Validate and freeze a list of (probability, marks) atoms."""
    if not atoms:
        raise LawError("NOT_NORMALIZED", "no atoms")
    norm = []
    for p, marks in atoms:
        if not (_finite(p) and p > 0):
            raise LawError("NOT_NORMALIZED", f"p={p!r} is not a finite number > 0")
        if not (isinstance(marks, (list, tuple)) and all(_finite(a) for a in marks)):
            raise LawError("MALFORMED", f"marks={marks!r} is not a list of finite numbers")
        norm.append((float(p), tuple(float(a) for a in marks)))
    total = sum(p for p, _ in norm)
    if abs(total - 1.0) > PROB_TOL:
        raise LawError("NOT_NORMALIZED", f"probabilities sum to {total!r}")
    law = MarkLaw(tuple(norm))
    if law.mean_offspring <= 1.0:
        raise LawError(
            "SUBCRITICAL", f"mean offspring {law.mean_offspring} must exceed 1"
        )
    return law


def psi_evaluate(law: MarkLaw, t):
    """log sum_i p_i sum_{a in marks_i} exp(-t a); exact finite sum."""
    t_arr = np.asarray(t, dtype=np.float64)
    s = np.zeros_like(t_arr, dtype=np.float64)
    for p, marks in law.atoms:
        for a in marks:
            s = s + p * np.exp(-t_arr * a)
    out = np.log(s)
    return float(out) if np.isscalar(t) or out.ndim == 0 else out


def psi_prime(law: MarkLaw, t: float) -> float:
    """Analytic derivative of psi at t."""
    s = 0.0
    ds = 0.0
    for p, marks in law.atoms:
        for a in marks:
            w = p * math.exp(-t * a)
            s += w
            ds += -a * w
    return ds / s


def _require_assumption1(law: MarkLaw) -> None:
    p1 = psi_evaluate(law, 1.0)
    if abs(p1) > CALIBRATION_TOL:
        raise LawError("ASSUMPTION_VIOLATION", f"psi(1) = {p1!r}, expected 0")
    d1 = psi_prime(law, 1.0)
    if d1 >= 0:
        raise LawError("ASSUMPTION_VIOLATION", f"psi'(1) = {d1!r}, expected < 0")


# solve_kappa's Brent tolerances; rtol and maxiter are scipy.optimize.brentq's
_BRENT_XTOL = 5e-16
_BRENT_RTOL = 4 * math.ulp(1.0)
_BRENT_MAXITER = 100


def _brentq(f, xa: float, xb: float) -> float:
    """Zero of f on [xa, xb], where f(xa) and f(xb) differ in sign or one is 0.

    A line-for-line port of scipy's brentq.c (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4): the same float operations
    in the same order, so it returns scipy.optimize.brentq's bits. The caller
    checks the bracket. A division by zero, which C carries as inf or nan, can
    only yield a step that fails the short-step test, so it bisects here too.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise LawError("NO_CONVERGENCE",
                   f"Brent's method did not converge in {_BRENT_MAXITER} iterations; "
                   f"last iterate {xcur!r}")


def solve_kappa(law: MarkLaw) -> float:
    """Second zero of psi on (1, KAPPA_T_MAX]; math.inf when there is none.

    psi is convex with psi(1) = 0 and psi'(1) < 0, so it is negative just
    right of 1 and has at most one further zero. A geometric-ish scan brackets
    the sign change from t = 1 + 1e-9, then Brent's method refines it with
    xtol = 5e-16, rtol = 4 eps and at most 100 iterations. `_brentq` is a port
    of scipy.optimize.brentq and returns its bits, so scipy is not imported.

    A law calibrated only to within CALIBRATION_TOL can have psi > 0 at the
    scan's left end too; when the first bracket then holds no sign change,
    the law fails with ASSUMPTION_VIOLATION.
    """
    _require_assumption1(law)
    t = 1.0 + 1e-9
    step = 0.05
    while t < KAPPA_T_MAX:
        t_next = min(t + step, KAPPA_T_MAX)
        if psi_evaluate(law, t_next) > 0.0:
            psi_t = psi_evaluate(law, t)
            if psi_t > 0.0:
                raise LawError(
                    "ASSUMPTION_VIOLATION",
                    f"psi(1) = {psi_evaluate(law, 1.0)!r} and psi({t!r}) = {psi_t!r} "
                    f"are both positive: kappa is not bracketed right of 1",
                )
            return _brentq(lambda u: psi_evaluate(law, u), t, t_next)
        t = t_next
        step *= 1.25
    if law.has_negative_mark and psi_prime(law, KAPPA_T_MAX) > 0:
        warnings.warn(
            "kappa exceeds the search bracket t_max=%g; reporting INF "
            "(documented limitation)" % KAPPA_T_MAX
        )
    return math.inf


def regime_of(kappa: float) -> str:
    if abs(kappa - 2.0) <= 1e-9:
        return "CRITICAL"
    return "SUBDIFFUSIVE" if kappa < 2.0 else "DIFFUSIVE"


def _c0_finite_sum(law: MarkLaw) -> float:
    # E[sum_{x != y, |x|=|y|=1} e^{-V(x)-V(y)}] / (1 - e^{psi(2)})
    num = 0.0
    for p, marks in law.atoms:
        s1 = sum(math.exp(-a) for a in marks)
        s2 = sum(math.exp(-2 * a) for a in marks)
        num += p * (s1 * s1 - s2)
    return num / (1.0 - math.exp(psi_evaluate(law, 2.0)))


# ----------------------------------------------------------------------------
# Desk families


def make_two_point(p: float, b: float | None = None) -> MarkLaw:
    """Binary tree whose marks are i.i.d. two-point: -1 w.p. p, b w.p. 1-p.

    When b is omitted it is set by the calibration 2(p e + (1-p)e^{-b}) = 1,
    which requires p < 1/(2e).
    """
    if not (_finite(p) and 0 < p < 1):
        raise LawError("ASSUMPTION_VIOLATION", f"p={p!r} is not a number in (0, 1)")
    if b is None:
        x = (0.5 - p * math.e) / (1.0 - p)
        if x <= 0:
            raise LawError("ASSUMPTION_VIOLATION", f"p={p} too large to calibrate")
        b = -math.log(x)
    return make_mark_law(
        [
            (p * p, (-1.0, -1.0)),
            (p * (1 - p), (-1.0, b)),
            ((1 - p) * p, (b, -1.0)),
            ((1 - p) * (1 - p), (b, b)),
        ]
    )


def make_constant_bias(lam: float, n: int = 2) -> MarkLaw:
    """Deterministic n-ary tree with constant mark log(lam)."""
    if not (_finite(lam) and lam > 0):
        raise LawError("ASSUMPTION_VIOLATION", f"lam={lam!r} is not a finite number > 0")
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise LawError("ASSUMPTION_VIOLATION", f"n={n!r} is not an integer")
    return make_mark_law([(1.0, (math.log(lam),) * n)])


def _shift_calibrate(atoms):
    law = make_mark_law(atoms)
    c = psi_evaluate(law, 1.0)
    return [(p, tuple(a + c for a in m)) for p, m in law.atoms]


def load_law(source) -> MarkLaw:
    """Load a law from a JSON file path, file object or already-parsed dict.

    Formats: {"family": "two_point", "p": ...[, "b": ...]},
    {"family": "constant_bias", "lam": ..., "n": ...}, or
    {"atoms": [{"p": ..., "marks": [...]}, ...][, "calibrate": true]} where
    the calibrate flag shifts every mark by psi(1) to restore calibration.
    A required key that is missing is a LawError MISSING_KEY naming it, and
    a file that cannot be read or is not JSON a LawError MALFORMED naming
    the file.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        try:
            with open(source) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as err:
            raise LawError("MALFORMED", f"cannot read the law file {source}: "
                                        f"{getattr(err, 'strerror', None) or err}") from err
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise LawError("MALFORMED", f"law spec {doc!r} is not a JSON object")
    fam = doc.get("family")
    try:
        if fam == "two_point":
            return make_two_point(doc["p"], doc.get("b"))
        if fam == "constant_bias":
            return make_constant_bias(doc["lam"], doc.get("n", 2))
        if fam is not None:
            raise LawError("NOT_NORMALIZED", f"unknown family {fam!r}")
        atoms = doc["atoms"]
        if not (isinstance(atoms, list) and all(isinstance(a, dict) for a in atoms)):
            raise LawError("MALFORMED", f"atoms={atoms!r} is not a list of JSON objects")
        atoms = [(a["p"], a["marks"]) for a in atoms]
    except KeyError as err:
        raise LawError("MISSING_KEY", f"the law spec has no key {err.args[0]!r}") from err
    if doc.get("calibrate"):
        atoms = _shift_calibrate(atoms)
    return make_mark_law(atoms)

