import json
import math

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
    validate_law,
)

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
    rep = validate_law(make_two_point(0.068))
    assert rep.regime == "SUBDIFFUSIVE"
    assert rep.psi_prime_1 < 0
    assert rep.c0 is None
    assert not rep.lattice and not any("lattice" in n for n in rep.notes)
    rep2 = validate_law(make_two_point(0.02))
    assert rep2.c0 is not None and rep2.c0 > 0


def test_uncalibrated_atoms_rejected():
    # probabilities are fine but psi(1) = log(2 e^{-1/2}) != 0, so the
    # drift normalization check must reject the law
    law = make_mark_law([(1.0, (0.5, 0.5))])
    with pytest.raises(LawError) as err:
        validate_law(law)
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
    assert law.max_offspring == 2
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
    from gwalk._pykernel import explicit_tree

    return explicit_tree(explicit)[0]


def test_step_law_matches_per_atom_loop():
    """The vectorised step law is bit-identical to the per-atom loop on the
    shipped laws, the laws the tests build, explicit trees (leaves are
    atoms without marks) and ragged atoms of up to 40 marks."""
    from gwalk.env import enumerate_truncated

    laws = [_config_law(name) for name in (
        "constant_bias_2", "two_point_diff", "two_point_near_crit", "two_point_sub")]
    laws += [make_two_point(p) for p in (0.005, 0.02, 0.05, 0.068, 0.1)]
    laws += [make_constant_bias(2.0), make_constant_bias(2.0, 3),
             make_mark_law([(0.5, ()), (0.5, (math.log(2.0),) * 4)]),
             make_mark_law([(1.0, (-math.log(0.9), -math.log(0.6)))])]
    tables = [law.tables() for law in laws]
    tables += [_explicit_tables(enumerate_truncated(make_two_point(0.068), s, 4))
               for s in (314, 2718)]
    tables += [_explicit_tables(oracles.build_chain([0.5, -0.25, 1.0]))]
    rng = np.random.default_rng(12)
    for _ in range(200):
        lens = rng.integers(0, 40, size=rng.integers(1, 12))
        off = np.cumsum(lens) - lens
        marks = rng.normal(scale=3.0, size=lens.sum())
        tables.append(law_mod.LawTables(None, off, lens, marks,
                                        *law_mod.step_law(off, lens, marks)))
    for t in tables:
        want = oracles.step_law_loop(t.off, t.lens, t.marks)
        for got, ref in zip((t.p_up, t.step_cum), want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
