import json
import math
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp

import oracles
from gwalk import law as law_mod
from gwalk.law import (
    LawError,
    load_law,
    make_constant_bias,
    make_mark_law,
    make_two_point,
    psi_evaluate,
    psi_prime,
    regime_of,
    solve_kappa,
)
from gwalk.experiments import validate_law_campaign

with open("tests/expected/constants.json") as fh:
    EXPECTED = json.load(fh)


def test_two_point_calibration_exact():
    for p in (0.02, 0.05, 0.068, 0.1):
        law = make_two_point(p)
        assert abs(psi_evaluate(law, 1.0)) < 1e-12


def test_two_point_matches_frozen_b():
    law = make_two_point(0.068)
    b = EXPECTED["laws"]["two_point_sub"]["b"]
    assert law.atoms[0][1][0] == -1.0 or any(
        abs(a - b) < 1e-12 for _, marks in law.atoms for a in marks
    )


def test_psi_against_mpmath():
    law = make_two_point(0.068)
    for t in (0.5, 1.0, 1.3, 2.0, 3.7):
        ref = float(oracles.psi_mp(law.atoms, t))
        assert abs(psi_evaluate(law, t) - ref) < 1e-12


def test_psi_prime_against_mpmath():
    law = make_two_point(0.05)
    for t in (0.8, 1.0, 1.5):
        ref = float(oracles.psi_prime_mp(law.atoms, t))
        assert abs(psi_prime(law, t) - ref) < 1e-8


@pytest.mark.parametrize(
    "name,factory",
    [
        ("two_point_sub", lambda: make_two_point(0.068)),
        ("two_point_crit", lambda: make_two_point(0.05)),
        ("two_point_diff", lambda: make_two_point(0.02)),
    ],
)
def test_kappa_against_frozen_and_mpmath(name, factory):
    law = factory()
    k = solve_kappa(law)
    assert abs(k - EXPECTED["laws"][name]["kappa"]) < 1e-9
    assert abs(k - oracles.kappa_mp(law.atoms)) < 1e-8


def test_kappa_infinite_for_constant_bias():
    assert solve_kappa(make_constant_bias(2.0)) == math.inf


def test_regimes():
    assert regime_of(1.5) == "SUBDIFFUSIVE"
    assert regime_of(2.0) == "CRITICAL"
    assert regime_of(3.5) == "DIFFUSIVE"
    assert regime_of(math.inf) == "DIFFUSIVE"


def test_validate_law_report():
    def report(law):
        out = validate_law_campaign(law, solve_kappa(law))
        return {v["statistic"]: v for v in out["verdicts"]}

    rep = report(make_two_point(0.068))
    kap = rep["kappa"]
    assert kap["regime"] == "SUBDIFFUSIVE" and kap["c0"] is None
    assert rep["negative_drift"]["value"] < 0 and rep["negative_drift"]["pass"]
    assert not kap["lattice"] and not any("lattice" in n for n in kap["notes"])
    c0 = report(make_two_point(0.02))["kappa"]["c0"]
    assert c0 is not None and c0 > 0


def test_uncalibrated_atoms_rejected():
    # probabilities are fine but psi(1) = log(2 e^{-1/2}) != 0, so the
    # drift normalization check must reject the law
    law = make_mark_law([(1.0, (0.5, 0.5))])
    with pytest.raises(LawError) as err:
        solve_kappa(law)
    assert err.value.code == "ASSUMPTION_VIOLATION"


def test_positive_drift_rejected():
    # single child with mark 0 keeps psi(1) = 0 but psi'(1) = 0
    with pytest.raises(LawError) as err:
        make_mark_law([(1.0, (0.0,))])
    assert err.value.code in ("ASSUMPTION_VIOLATION", "SUBCRITICAL")


def test_subcritical_rejected():
    # one child per node: no branching
    with pytest.raises(LawError):
        make_mark_law([(1.0, (math.log(2.0),))])


def test_two_point_requires_small_p():
    with pytest.raises(LawError):
        make_two_point(0.25)


def test_load_dump_roundtrip(tmp_path):
    law = make_two_point(0.068)
    path = tmp_path / "law.json"
    oracles.dump_law(law, path)
    other = load_law(str(path))
    assert other.atoms == law.atoms


def test_load_family_forms():
    law = load_law({"family": "two_point", "p": 0.068})
    assert law.atoms == make_two_point(0.068).atoms
    cb = load_law({"family": "constant_bias", "lam": 2.0, "n": 3})
    assert cb.atoms == make_constant_bias(2.0, 3).atoms


def test_load_calibrate_flag():
    base = make_two_point(0.068)
    shifted = [
        {"p": p, "marks": [a + 0.1 for a in marks]} for p, marks in base.atoms
    ]
    law = load_law({"atoms": shifted, "calibrate": True})
    assert abs(psi_evaluate(law, 1.0)) < 1e-9


def test_mark_law_properties():
    law = make_two_point(0.068)
    assert math.isclose(law.mean_offspring, 2.0)
    assert law.has_negative_mark
    cb = make_constant_bias(2.0)
    assert not cb.has_negative_mark


def test_is_lattice_means_marks_in_one_d_z():
    """Arithmetic: every mark in dZ for one d > 0. Two distinct marks with
    an irrational ratio are not; three marks with gcd 1 are."""
    assert make_constant_bias(2.0).is_lattice()
    assert make_mark_law([(0.5, (0.0, 2.0)), (0.5, (3.0,))]).is_lattice()
    assert make_mark_law([(0.5, (0.1, 0.3)), (0.5, (0.7, -0.2))]).is_lattice()
    assert not make_two_point(0.068).is_lattice()
    critical = make_mark_law(  # binary, i.i.d. marks -ln 2 (0.1) and ln 3 (0.9)
        [(0.01, (-math.log(2),) * 2), (0.09, (-math.log(2), math.log(3))),
         (0.09, (math.log(3), -math.log(2))), (0.81, (math.log(3),) * 2)]
    )
    assert abs(psi_evaluate(critical, 1.0)) < 1e-12
    assert not critical.is_lattice()
    assert not make_mark_law([(0.5, (1.0, 1.0 + 1e-3 * math.pi)), (0.5, (2.0,))]).is_lattice()


def test_c0_exact_on_constant_bias():
    # two children with equal conductance e^{-log 2} = 1/2 each:
    # the pair sum and the geometric normalizer give exactly 1
    assert abs(law_mod._c0_finite_sum(make_constant_bias(2.0)) - 1.0) < 1e-12


def test_c0_matches_mpmath_route_diffusive():
    # independent route: pair sum over sibling marks in mpmath, geometric
    # normalizer from the frozen value of psi at 2
    law = make_two_point(0.02)
    num = mp.mpf(0)
    for p, marks in law.atoms:
        s1 = mp.fsum(mp.e ** (-mp.mpf(a)) for a in marks)
        s2 = mp.fsum(mp.e ** (-2 * mp.mpf(a)) for a in marks)
        num += mp.mpf(p) * (s1 * s1 - s2)
    psi_2 = mp.mpf(EXPECTED["laws"]["two_point_diff"]["psi_2"])
    ref = num / (1 - mp.e ** psi_2)
    assert abs(law_mod._c0_finite_sum(law) - float(ref)) < 1e-9


def _config_law(name):
    with open(f"configs/{name}.json") as fh:
        return load_law(json.load(fh)["law"])


def _explicit_tables(explicit):
    from gwalk.kernel import explicit_tree

    return explicit_tree(explicit)[0]


def test_step_law_matches_per_atom_loop():
    """The step law and the weight table are bit-identical to the per-atom
    loop (rate: each atom's e^{-a_i} in its row, 0 past its children) on the
    shipped laws, the laws the tests build, explicit trees (leaves are atoms
    without marks) and ragged atoms of up to 40 marks. Atoms of 8 or more
    marks, which numpy sums pairwise, come mixed with shorter ones: explicit
    trees of a law with 2 or 9 children, and 10^4 atoms of 1 to 20 marks.
    An explicit tree's tables carry no weight table, as no count tree grows
    on it; its weights are checked as step_law computes them."""
    from gwalk.env import enumerate_truncated

    laws = [_config_law(name) for name in (
        "constant_bias_2", "two_point_diff", "two_point_near_crit", "two_point_sub")]
    laws += [make_two_point(p) for p in (0.005, 0.02, 0.05, 0.068, 0.1)]
    laws += [make_constant_bias(2.0), make_constant_bias(2.0, 3),
             make_mark_law([(0.5, ()), (0.5, (math.log(2.0),) * 4)]),
             make_mark_law([(1.0, (-math.log(0.9), -math.log(0.6)))])]
    nine = make_mark_law([(0.5, tuple(0.37 * i - 1.1 for i in range(9))), (0.5, (0.7, 1.9))])
    tables = [law.tables() for law in laws + [nine]]
    explicit = [_explicit_tables(enumerate_truncated(make_two_point(0.068), s, 4))
                for s in (314, 2718)]
    explicit += [_explicit_tables(enumerate_truncated(nine, s, 3)) for s in (5, 6)]
    explicit += [_explicit_tables(oracles.build_chain([0.5, -0.25, 1.0]))]
    assert all(t.rate is None for t in explicit)
    # an explicit tree's weights, as step_law computes them for a law
    tables += [t._replace(rate=law_mod.step_law(t.off, t.lens, t.marks)[2]) for t in explicit]
    rng = np.random.default_rng(12)
    shapes = [rng.integers(0, 40, size=rng.integers(1, 12)) for _ in range(200)]
    for lens in shapes + [rng.integers(1, 21, size=10**4)]:
        off = np.cumsum(lens) - lens
        marks = rng.normal(scale=3.0, size=lens.sum())
        tables.append(law_mod.LawTables(None, off, lens, marks,
                                        *law_mod.step_law(off, lens, marks)))
    for t in tables:
        want = oracles.step_law_loop(t.off, t.lens, t.marks)
        for got, ref in zip((t.p_up, t.step_cum, t.rate), want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _binary_iid(marks, probs, shift=0.0):
    """Binary tree whose two child marks are i.i.d. on `marks` with `probs`,
    each lowered by `shift`."""
    return make_mark_law([(p * q, (a - shift, b - shift))
                          for a, p in zip(marks, probs) for b, q in zip(marks, probs)])


# marks -ln 2 (probability 0.1) and ln 3 (0.9): psi(1) = psi(2) = 0, the
# exactly critical law
CRITICAL_BINARY = _binary_iid((-math.log(2.0), math.log(3.0)), (0.1, 0.9))


def _random_calibrated_laws(n, seed):
    """n random calibrated laws with psi'(1) < 0 and a negative mark, so
    that psi grows without bound and kappa is finite unless above 64."""
    rng = np.random.default_rng(seed)
    laws = []
    while len(laws) < n:
        k = int(rng.integers(1, 5))
        probs = rng.dirichlet(np.ones(k))
        atoms = [{"p": float(p), "marks": rng.uniform(-1.5, 3.0, int(rng.integers(1, 5))).tolist()}
                 for p in probs]
        try:
            law = load_law({"atoms": atoms, "calibrate": True})
        except LawError:  # subcritical or probabilities off by rounding
            continue
        if psi_prime(law, 1.0) < 0 and law.has_negative_mark:
            laws.append(law)
    return laws


def _kappa_cases():
    for path in sorted(Path("configs").glob("*.json")):
        with open(path) as fh:
            yield path.stem, load_law(json.load(fh)["law"])
    for p in np.linspace(0.001, 0.18, 40):
        yield f"two_point_{p:.5f}", make_two_point(float(p))
    for n in (2, 3, 5):
        yield f"constant_bias_{n}", make_constant_bias(float(n), n)
    yield "critical_binary", CRITICAL_BINARY
    for i, law in enumerate(_random_calibrated_laws(240, 20261018)):
        yield f"random_{i}", law


def test_kappa_bits_equal_scipy_brentq():
    """solve_kappa's Brent port returns scipy.optimize.brentq's bits on the
    same bracket, or fails with a code where brentq finds no sign change."""
    finite = 0
    for name, law in _kappa_cases():
        try:
            want = oracles.solve_kappa_scipy(lambda t: psi_evaluate(law, t))
        except ValueError:
            with pytest.raises(LawError) as err:
                solve_kappa(law)
            assert err.value.code == "ASSUMPTION_VIOLATION", name
            continue
        got = solve_kappa(law)
        assert type(got) is float, name
        assert got == want, (name, got, want)
        finite += math.isfinite(got)
    assert finite >= 250  # 240 random laws among them


def test_kappa_of_the_critical_binary_law():
    assert solve_kappa(CRITICAL_BINARY) == 1.9999999999999996
    assert regime_of(solve_kappa(CRITICAL_BINARY)) == "CRITICAL"


def test_kappa_unbracketed_by_a_calibration_within_tolerance():
    """kappa = 1.0127 unshifted; lowering every mark by 2e-10 keeps psi(1) =
    2e-10 within CALIBRATION_TOL but makes psi > 0 at both ends of the
    first bracket, which is a coded error, not scipy's uncoded ValueError."""
    marks, probs = (-0.8, 1.6322318448690654), (0.15, 0.85)
    assert abs(solve_kappa(_binary_iid(marks, probs)) - 1.0127) < 1e-4
    law = _binary_iid(marks, probs, shift=2e-10)
    assert 0 < psi_evaluate(law, 1.0) <= law_mod.CALIBRATION_TOL
    with pytest.raises(LawError) as err:
        solve_kappa(law)
    assert err.value.code == "ASSUMPTION_VIOLATION"
    assert "psi(1) = 2.0" in str(err.value) and "psi(1.000000001) = " in str(err.value)


def test_brent_port_raises_a_code_when_it_does_not_converge(monkeypatch):
    from scipy.optimize import brentq

    f = lambda x: x**3 - 2.0  # noqa: E731
    assert law_mod._brentq(f, 0.0, 4.0) == brentq(f, 0.0, 4.0, xtol=5e-16)
    with pytest.raises(RuntimeError, match="converge"):
        brentq(f, 0.0, 4.0, xtol=5e-16, maxiter=3)
    monkeypatch.setattr(law_mod, "_BRENT_MAXITER", 3)
    with pytest.raises(LawError) as err:
        law_mod._brentq(f, 0.0, 4.0)
    assert err.value.code == "NO_CONVERGENCE"
