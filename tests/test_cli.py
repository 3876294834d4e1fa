"""End to end: `gwalk.cli.main` on tiny configs of all eight commands.

A rerun with the same config and seed must write byte-identical files, and so
must a run at threads=2, whose trials run at the same time on the compiled
kernel (its ctypes calls release the GIL); the benchmark's two walk configs do
so at their own sizes. A theorem with no `constants` section estimates them on
the route that estimate-constants takes, and only those its scales read; a
constant that is not a finite number > 0 stops the command. Every verdict file
is strict JSON (no NaN or Infinity), also when `theorem3` censors every trial.
`corollary` and the three theorems also run on a law whose environments can
die, so that their survival resampling runs end to end, and so does
`lemma-moments`, which skips an environment truncated to the root alone; a
command that returns no rows still writes its CSV, the header alone. A
subdiffusive command loads no scipy, and no command loads numpy.ma,
concurrent.futures, numpy.random, numpy.ctypeslib or secrets. Without
the built library, every command but validate-law stops with the build
message. Bad sizes and grids (grid point 1 at kappa = 2), bad lambdas, tol,
shrink or eps, bad `lemma-moments` settings, a tail with too few positive
draws of B, a bad seed or thread count and config keys that no command
reads stop the command with a message before it writes anything, and the
accepted keys are pinned; every shipped and benchmark config passes the key
check and loads its law. A bad law spec and a coded error raised inside a
command stop it with one line that carries the code, and a config or law
file that is missing or not JSON with one line that names it.
estimate-constants writes the CIs of every constant and the Hill index's CI.
"""

import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gwalk
from gwalk import cli, experiments, forest, kernel, limits, walk
from gwalk._rng import derive_seed
from gwalk.env import enumerate_truncated, environment_survives
from gwalk.experiments import trial_seeds
from gwalk.law import load_law, solve_kappa

CONSTANTS = {
    "C_inf": 0.10078720884476033,
    "c_inf_bold": 0.23048901549232143,
    "c_kappa": 1.4549607799294266,
}

ESTIMATE = {"n_samples": 2000, "eps": 1e-12, "c_kappa_samples": 20000}

# None: the command reads no config section
TINY = {
    "validate-law": None,
    "theorem1": {"n_trials": 40, "p_grid": [5, 20], "lambdas": [0.5, 1.0], "tol": 0.05},
    "theorem2": {"n_trials": 6, "m_grid": [200, 1000], "lambdas": [0.5, 1.0], "tol": 0.05},
    "theorem3": {"n_trials": 40, "n_grid": [2, 5], "budget": 300, "shrink": 0.7},
    "lemma-moments": {"n_envs": 2, "depth": 3, "n_pairs": 5, "n_frozen": 1,
                      "n_excursions": 300, "regen_levels": [1, 3],
                      "n_regen_samples": 400},
    "corollary": {"n_walkers": 60, "n_grid": [3, 10, 30], "tol": 0.1},
    "forest-identities": {"n_trees": 30, "n_sums": 3000},
    "estimate-constants": ESTIMATE,
}


def _run(tmp_path, command, threads, tag, section=None, constants=CONSTANTS, extra=None):
    sec = TINY[command] if section is None else section
    cfg = {"law": {"family": "two_point", "p": 0.068}, "seed": 5,
           **({} if constants is None else {"constants": constants}),
           **({} if sec is None else {command.replace("-", "_"): sec}), **(extra or {})}
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / tag
    rc = cli.main([command, "--config", str(path), "--out", str(out),
                   "--threads", str(threads)])
    assert rc in (0, 1)  # 1 means a statistical verdict failed at this size
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    name = command.replace("-", "_")
    assert f"{name}_verdicts.json" in files and f"{name}.csv" in files
    return files


def _strict_json(data: bytes):
    def refuse(name):
        raise ValueError(f"non-finite number {name} in verdict JSON")
    return json.loads(data, parse_constant=refuse)


@pytest.mark.parametrize("command", sorted(TINY))
def test_cli_bytes_identical_across_reruns_and_threads(tmp_path, command):
    first = _run(tmp_path, command, 1, "a")
    _strict_json(first[f"{command.replace('-', '_')}_verdicts.json"])
    assert _run(tmp_path, command, 1, "b") == first
    assert _run(tmp_path, command, 2, "c") == first


# half the atoms childless, half with four children marked ln 2: about half
# the environments die
EXTINCTION = {"atoms": [{"p": 0.5, "marks": []},
                        {"p": 0.5, "marks": [math.log(2.0)] * 4}]}


def test_corollary_redraws_dead_environments(tmp_path):
    """On a law with extinction (half the nodes childless, half with four
    children marked ln 2), corollary redraws the environments that die,
    the k-th time from derive_seed(previous, "corollary-resample", k, "env"):
    n_rejected > 0 and equal to a walker-by-walker count, with the same
    bytes on a rerun and at threads=2."""
    ext = EXTINCTION
    first = _run(tmp_path, "corollary", 1, "a", extra={"law": ext})
    assert _run(tmp_path, "corollary", 1, "b", extra={"law": ext}) == first
    assert _run(tmp_path, "corollary", 2, "c", extra={"law": ext}) == first
    (v,) = _strict_json(first["corollary_verdicts.json"])
    law, want = load_law(ext), 0
    for env in trial_seeds(5, "corollary", TINY["corollary"]["n_walkers"])[0].tolist():
        k = 0
        while not environment_survives(law, [env])[0]:
            k += 1
            env = derive_seed(env, "corollary-resample", k, "env")
        want += k
    assert v["n_rejected"] == want > 0


@pytest.mark.parametrize("command", ["theorem1", "theorem2", "theorem3"])
def test_theorems_condition_on_survival(tmp_path, monkeypatch, command):
    """On the law with extinction, a theorem redraws the environments that
    die, as corollary does, with the same bytes at threads=2: every trial's
    environment has W > 0. A dead one has W = 0, so Z = 0, or Z = inf where
    Z divides by W. theorem1 and theorem2 pass their environments to
    w_hat_batch; theorem3 reads no W, so its walks' environments are
    recorded from the batched runner."""
    n = TINY[command]["n_trials"]
    law = load_law(EXTINCTION)
    assert not environment_survives(law, trial_seeds(5, command, n)[0]).all()
    seeds, w_hat = [], experiments.w_hat_batch
    if command == "theorem3":
        sim = walk.simulate_excursion_grid

        def recording(law, env_seeds, *args):
            seeds.extend(env_seeds.tolist())
            return sim(law, env_seeds, *args)

        monkeypatch.setattr(walk, "simulate_excursion_grid", recording)
    else:
        def recording(law, env_seeds):
            seeds.extend(env_seeds.tolist())
            return w_hat(law, env_seeds)

        monkeypatch.setattr(experiments, "w_hat_batch", recording)
    first = _run(tmp_path, command, 1, "a", extra={"law": EXTINCTION})
    assert _run(tmp_path, command, 2, "b", extra={"law": EXTINCTION}) == first
    assert len(seeds) == 2 * n
    assert (w_hat(law, seeds) > 0).all()


def test_lemma_moments_skips_root_only_environments(tmp_path):
    """On the law with extinction, an environment truncated to the root
    alone has no edge: lemma-moments skips it in the oracle and the MC
    route, counts it in those verdicts' n_root_only, and writes the same
    bytes at threads=2. A route that skips every environment fails."""
    law = load_law(EXTINCTION)

    def root_only(seed, route, n):
        return sum(len(enumerate_truncated(law, derive_seed(seed, route, i, "env"), 3)["parent"])
                   == 1 for i in range(n))

    section = {**TINY["lemma-moments"], "n_envs": 6, "n_frozen": 6}
    first = _run(tmp_path, "lemma-moments", 1, "a", section, extra={"law": EXTINCTION})
    assert _run(tmp_path, "lemma-moments", 2, "b", section, extra={"law": EXTINCTION}) == first
    want = {"oracle_mean_abs_err": root_only(5, "lemma-oracle", 6),
            "oracle_second_abs_err": root_only(5, "lemma-oracle", 6),
            "mc_worst_z": root_only(5, "lemma-mc", 6)}
    assert 0 < min(want.values()) and max(want.values()) < 6
    got = {v["statistic"]: v.get("n_root_only", 0)
           for v in _strict_json(first["lemma_moments_verdicts.json"])}
    assert {k: got[k] for k in want} == want
    seed = next(s for s in range(100)
                if root_only(s, "lemma-oracle", 1) and root_only(s, "lemma-mc", 1))
    out = experiments.lemma_moments_campaign(law, seed, **{**section, "n_envs": 1, "n_frozen": 1})
    for v in out["verdicts"]:
        if v["statistic"] in want:
            assert v["n_root_only"] == 1 and not v["pass"], v["statistic"]
    assert out["rows"] == []


def test_a_command_without_rows_writes_the_csv_header(tmp_path):
    """A command that returns no rows still writes `<command>.csv`, holding
    the header of the rows it would carry: lemma-moments whose one frozen
    environment is the root alone (seed 4 on the law with extinction), which
    fails, and estimate-constants on a diffusive law, which fits no tail."""
    section = {**TINY["lemma-moments"], "n_envs": 1, "n_frozen": 1}
    path = tmp_path / "lemma.json"
    path.write_text(json.dumps({"law": EXTINCTION, "seed": 4, "lemma_moments": section}))
    assert cli.main(["lemma-moments", "--config", str(path), "--out", str(tmp_path / "a")]) == 1
    assert (tmp_path / "a" / "lemma_moments.csv").read_bytes() == (
        b"env,node,mc_mean,oracle_mean,se,z\r\n")
    files = _run(tmp_path, "estimate-constants", 1, "b",
                 extra={"law": {"family": "two_point", "p": 0.005}})
    assert files["estimate_constants.csv"] == b"m,m_kappa_tail\r\n"


def test_theorem_estimates_the_constants_it_is_not_given(tmp_path, monkeypatch):
    """With no constants section, theorem2 estimates the constants on the
    route of estimate-constants (same seed, same estimate_constants section):
    its files equal those of a run given the constants that command writes,
    and they are byte-identical across reruns and threads. A half-given
    section (bold c_inf only) estimates C_inf on that route too. Each
    constant is computed only when a scale reads it: no discounted sums for
    a diffusive theorem1 or theorem2, which read c0 alone, and no tail
    plateau for a subdiffusive theorem3, which reads bold c_inf alone."""
    extra = {"estimate_constants": ESTIMATE}
    first = _run(tmp_path, "theorem2", 1, "a", constants=None, extra=extra)
    assert _run(tmp_path, "theorem2", 1, "b", constants=None, extra=extra) == first
    assert _run(tmp_path, "theorem2", 2, "c", constants=None, extra=extra) == first
    est = json.loads(_run(tmp_path, "estimate-constants", 1, "est")["constants.json"])
    frozen = {k: est[k] for k in ("C_inf", "c_inf_bold", "c_kappa")}
    assert _run(tmp_path, "theorem2", 1, "d", constants=frozen) == first
    assert frozen != {k: CONSTANTS[k] for k in frozen}
    assert _run(tmp_path, "theorem2", 1, "e") != first
    bold = {"c_inf_bold": CONSTANTS["c_inf_bold"]}
    assert (_run(tmp_path, "theorem2", 1, "f", constants=bold, extra=extra)
            == _run(tmp_path, "theorem2", 1, "g", constants={**bold, "C_inf": est["C_inf"]},
                    extra=extra))

    def refuse(*args, **kwargs):
        raise AssertionError("estimated a constant that no scale reads")

    diffusive = {**extra, "law": {"family": "two_point", "p": 0.02}}
    monkeypatch.setattr(limits, "estimate_discounted_moments", refuse)
    for command in ("theorem1", "theorem2"):
        _run(tmp_path, command, 1, f"diff-{command}", constants=None, extra=diffusive)
    with pytest.raises(AssertionError, match="no scale reads"):
        _run(tmp_path, "theorem3", 1, "diff-theorem3", constants=None, extra=diffusive)
    monkeypatch.undo()
    monkeypatch.setattr(limits, "estimate_c_kappa", refuse)
    _run(tmp_path, "theorem3", 1, "sub-theorem3", constants=None, extra=extra)
    with pytest.raises(AssertionError, match="no scale reads"):
        _run(tmp_path, "theorem2", 1, "sub-theorem2", constants=None, extra=extra)


@pytest.mark.parametrize("command, constants, settings, message", [
    ("theorem2", {**CONSTANTS, "C_inf": 0}, ESTIMATE, "constants.C_inf is 0:"),
    ("theorem2", {**CONSTANTS, "C_inf": -0.1}, ESTIMATE, "constants.C_inf is -0.1:"),
    ("theorem2", {**CONSTANTS, "C_inf": "x"}, ESTIMATE, "constants.C_inf is 'x':"),
    ("theorem2", None, {**ESTIMATE, "c_kappa_samples": 10},
     "c_kappa estimated by the tail plateau (estimate_constants.c_kappa_samples) is 0.0:"),
    ("estimate-constants", None, {**ESTIMATE, "c_kappa_samples": 10},
     "c_kappa estimated by the tail plateau (estimate_constants.c_kappa_samples) is 0.0:"),
])
def test_constant_that_is_not_positive_stops_the_command(tmp_path, command, constants,
                                                         settings, message):
    """A given constant that is zero, negative or not a number, or an
    estimated one that comes out zero (c_kappa from 10 draws of B), stops the
    command with a message naming the key or the estimator and its setting,
    before any file is written."""
    with pytest.raises(SystemExit, match=re.escape(message)):
        _run(tmp_path, command, 1, "bad", constants=constants,
             extra={"estimate_constants": settings})
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("bad, message", [
    ({"regen_levels": [1, 0]}, "regen_levels"),
    ({"regen_levels": [2.5]}, "regen_levels"),
    ({"n_regen_samples": 1}, "n_regen_samples"),
])
def test_lemma_moments_rejects_bad_regen_settings(tmp_path, bad, message):
    with pytest.raises(SystemExit, match=message):
        _run(tmp_path, "lemma-moments", 1, "bad", {**TINY["lemma-moments"], **bad})
    assert not (tmp_path / "bad").exists()


INT1, INT2 = " must be an integer >= 1", " must be an integer >= 2"
GRID = " must be a list of distinct integers >= 1"
LAMBDAS = " must be a non-empty list of numbers in [0, 30.0]"
POSITIVE = " must be a finite number > 0"


@pytest.mark.parametrize("command, key, value, message", [
    ("estimate-constants", "estimate_constants.n_samples", 0, INT2),
    ("estimate-constants", "estimate_constants.n_samples", 1, INT2),
    ("estimate-constants", "estimate_constants.c_kappa_samples", 1, INT2),
    ("estimate-constants", "estimate_constants.c_kappa_samples", 2,
     "): 1 of 2 draws of B are positive"),
    ("theorem2", "estimate_constants.n_samples", 1.5, INT2),
    ("forest-identities", "forest_identities.n_sums", 1, INT2),
    ("forest-identities", "forest_identities.n_trees", 0, INT1),
    ("theorem1", "theorem1.p_grid", [5, 5], GRID),
    ("theorem1", "theorem1.n_trials", 0, INT2),
    ("theorem2", "theorem2.m_grid", [0, 100], GRID),
    ("theorem2", "theorem2.m_grid", [], GRID),
    ("corollary", "corollary.n_grid", [0, 3], GRID),
    ("corollary", "corollary.n_walkers", 1, INT2),
    ("theorem3", "theorem3.n_grid", [0, 5], GRID),
    ("theorem3", "theorem3.budget", True, INT1),
    ("lemma-moments", "lemma_moments.depth", 0, INT1),
    ("theorem2", "theorem2.lambdas", [0.5, 40.0], LAMBDAS),
    ("theorem2", "theorem2.lambdas", [-1.0], LAMBDAS),
    ("theorem1", "theorem1.lambdas", ["x", 1.0], LAMBDAS),
    ("theorem1", "theorem1.lambdas", [], LAMBDAS),
    ("theorem1", "theorem1.tol", "big", POSITIVE),
    ("theorem2", "theorem2.tol", float("nan"), POSITIVE),
    ("theorem3", "theorem3.shrink", 0, POSITIVE),
    ("corollary", "corollary.tol", -0.1, POSITIVE),
    ("estimate-constants", "estimate_constants.eps", 0, POSITIVE),
    ("estimate-constants", "estimate_constants.eps", -1, POSITIVE),
    ("theorem2", "estimate_constants.eps", "x", POSITIVE),
])
def test_bad_size_or_grid_stops_the_command(tmp_path, monkeypatch, command, key, value,
                                            message):
    """A size below 1, or below 2 where it feeds a standard error or a
    median, a grid that is not distinct integers >= 1, lambdas that are not
    a non-empty list of numbers in [0, ML_LAMBDA_MAX], a tol, shrink or
    discounted-sum cut eps that is not a finite number > 0, and a c_kappa draw with fewer than two
    positive B values (seed 4 draws B = (0, 2)) stop the command with a
    message naming <section>.<key>, before any walk, any sampled count tree
    (but that draw of B) and any file."""
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before checking the config")

    monkeypatch.setattr(kernel, "run_walk", refuse)
    monkeypatch.setattr(kernel, "run_walks", refuse)
    if command != "estimate-constants":
        monkeypatch.setattr(kernel, "count_trees", refuse)
    section, name = key.split(".")
    sections = {command.replace("-", "_"): TINY[command], "estimate_constants": ESTIMATE}
    sections[section] = {**sections[section], name: value}
    with pytest.raises(SystemExit, match=re.escape(key + message)):
        _run(tmp_path, command, 1, "bad", sections[command.replace("-", "_")],
             extra={"seed": 4, "estimate_constants": sections["estimate_constants"]})
    assert not (tmp_path / "bad").exists()


# binary, i.i.d. marks -ln 2 w.p. 0.1 and ln 3 w.p. 0.9: kappa = 2
CRITICAL = {"atoms": [{"p": pa * pb, "marks": [a, b]}
                      for a, pa in ((-math.log(2.0), 0.1), (math.log(3.0), 0.9))
                      for b, pb in ((-math.log(2.0), 0.1), (math.log(3.0), 0.9))]}


@pytest.mark.parametrize("command, key, grid", [
    ("theorem1", "p_grid", [1, 5]),
    ("theorem2", "m_grid", [1, 100]),
    ("theorem3", "n_grid", [1, 5]),
])
def test_grid_point_one_stops_a_critical_theorem(tmp_path, command, key, grid):
    """At kappa = 2 the scales hold log n, which is 0 at n = 1: a grid point
    of 1 stops the command, naming the key, before any file is written."""
    assert experiments.Constants(solve_kappa(load_law(CRITICAL))).regime == "CRITICAL"
    with pytest.raises(SystemExit, match=re.escape(
            f"{command}.{key} must be a list of distinct integers >= 2, got {grid}")):
        _run(tmp_path, command, 1, "bad", {**TINY[command], key: grid},
             extra={"law": CRITICAL})
    assert not (tmp_path / "bad").exists()


def test_estimate_constants_writes_its_intervals(tmp_path):
    """constants.json holds the normal CIs of C_inf and bold c_inf, centred
    on the estimates, and the c_kappa CI; the plateau verdict carries the
    same c_kappa CI and the Hill index with its bootstrap CI (hill_ci),
    whose unbounded end is null."""
    files = _run(tmp_path, "estimate-constants", 1, "a")
    est = _strict_json(files["constants.json"])
    for name in ("C_inf", "c_inf_bold"):
        lo, hi = est[f"{name}_ci"]
        assert lo < est[name] < hi
        assert est[name] - lo == pytest.approx(hi - est[name], rel=1e-9)
    (plateau, _) = _strict_json(files["estimate_constants_verdicts.json"])
    assert plateau["statistic"] == "c_kappa_plateau"
    assert plateau["ci"] == est["c_kappa_ci"]
    h_lo, h_hi = plateau["hill_ci"]
    assert h_lo < plateau["hill"] < h_hi
    # 20 draws of B at seed 1 leave a few tail values, some of them tied:
    # the Hill CI's upper end is unbounded and is written as null
    files = _run(tmp_path, "estimate-constants", 1, "b", {**ESTIMATE, "c_kappa_samples": 20},
                 extra={"seed": 1})
    (plateau, _) = _strict_json(files["estimate_constants_verdicts.json"])
    assert plateau["value"] > 0 and plateau["hill_ci"][0] < plateau["hill"]
    assert plateau["hill_ci"][1] is None


def test_infinite_kappa_is_written_as_null(tmp_path):
    """On the constant-bias binary tree kappa is infinite: the verdicts and
    constants.json stay strict JSON, with kappa null."""
    law = {"family": "constant_bias", "lam": 2.0, "n": 2}
    files = _run(tmp_path, "validate-law", 1, "a", extra={"law": law})
    (v,) = [v for v in _strict_json(files["validate_law_verdicts.json"])
            if v["statistic"] == "kappa"]
    assert (v["value"], v["regime"], v["reason"]) == (None, "DIFFUSIVE", "kappa is infinite")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"law": law, "estimate_constants": ESTIMATE}))
    cli.main(["estimate-constants", "--config", str(path), "--out", str(tmp_path / "b")])
    assert _strict_json((tmp_path / "b" / "constants.json").read_bytes())["kappa"] is None


def test_forest_rows_come_from_the_batch_sums(tmp_path):
    """The moment rows and the mean_type1_once verdict read the same
    hypothesis_sums_batch draws, not the size-truncated typed forest. The
    sigma1_sq rows are null (empty cells) at kappa = 1.59, where B has no
    finite variance, and finite numbers at kappa = inf (constant_bias 2)."""
    for tag, law, sigma_finite in (("a", None, False),
                                   ("b", {"family": "constant_bias", "lam": 2.0}, True)):
        files = _run(tmp_path, "forest-identities", 1, tag,
                     extra=None if law is None else {"law": law})
        cells = {r["statistic"]: r["value"] for r in
                 csv.DictReader(io.StringIO(files["forest_identities.csv"].decode()))}
        assert list(cells) == ["b_mean", "b_se", "nu_mean", "nu_se", "nu_tilde_mean",
                               "nu_tilde_se", "sigma1_sq", "sigma1_sq_se"]
        sigma = [cells.pop(k) for k in ("sigma1_sq", "sigma1_sq_se")]
        if sigma_finite:
            assert all(math.isfinite(float(v)) and float(v) >= 0 for v in sigma)
        else:
            assert sigma == ["", ""]
        rows = {k: float(v) for k, v in cells.items()}
        (verdict,) = [v for v in json.loads(files["forest_identities_verdicts.json"])
                      if v["statistic"] == "mean_type1_once"]
        assert (rows["b_mean"], rows["b_se"]) == (verdict["value"], verdict["se"])
        assert rows["b_mean"] <= rows["nu_tilde_mean"] <= rows["nu_mean"]


def test_theorem3_writes_censored_medians_as_null(tmp_path):
    """At a budget that censors every trial, the medians and the ratio are
    null, not Infinity and NaN, and the verdict fails with a reason."""
    sec = {"n_trials": 20, "n_grid": [50, 200], "budget": 100}
    files = _run(tmp_path, "theorem3", 1, "a", sec)
    (v,) = _strict_json(files["theorem3_verdicts.json"])
    assert v["n_censored"] == 20
    assert v["value"] is None and v["pass"] is False
    assert v["medians"] == {"50": None, "200": None}
    assert "censored" in v["reason"]
    rows = list(csv.DictReader(io.StringIO(files["theorem3.csv"].decode())))
    assert [r["median_sup_err"] for r in rows] == ["", ""]


@pytest.mark.parametrize("command, extra, message", [
    ("theorem1", {"theorem1": {"n_trials": 4, "z_budget": 14.0}},
     "unknown config key theorem1.z_budget"),
    ("validate-law", {"theorem1": {"z_budget": 14.0}}, "unknown config key theorem1.z_budget"),
    ("validate-law", {"theorem_2": {}}, "unknown config key 'theorem_2'"),
    ("validate-law", {"constants": {**CONSTANTS, "c_kapa": 1.0}},
     "unknown config key constants.c_kapa"),
    ("forest-identities", {"forest_identities": {"n_tree": 3}},
     "unknown config key forest_identities.n_tree"),
    ("theorem1", {"theorem1": {"n_trials": 4, "step_cap": 20000}},
     "unknown config key theorem1.step_cap"),
    ("validate-law", {"theorem1": 5}, "config key 'theorem1' must be a JSON object"),
    ("validate-law", {"law": 5}, "config key 'law' must be a JSON object"),
    ("validate-law", {"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ("theorem2", {"seed": "7"}, "seed must be an integer >= 0, got '7'"),
    ("validate-law", {"seed": -1}, "seed must be an integer >= 0, got -1"),
    ("theorem2", {"threads": "2"}, "threads must be an integer >= 1, got '2'"),
    ("theorem2", {"threads": 0}, "threads must be an integer >= 1, got 0"),
    ("validate-law", {"threads": True}, "threads must be an integer >= 1, got True"),
], ids=["theorem1-extra0-theorem1.z_budget", "validate-law-extra1-theorem1.z_budget",
        "validate-law-extra2-'theorem_2'", "validate-law-extra3-constants.c_kapa",
        "forest-identities-extra4-forest_identities.n_tree",
        "theorem1-extra5-theorem1.step_cap", "validate-law-extra6-'theorem1'",
        "validate-law-extra7-'law'", "validate-law-seed-float", "theorem2-seed-str",
        "validate-law-seed-negative", "theorem2-threads-str", "theorem2-threads-0",
        "validate-law-threads-bool"])
def test_unknown_config_key_stops_the_command(tmp_path, command, extra, message):
    """A key that no command reads, a section or law that is not a JSON
    object, a seed that is not an integer >= 0 and a thread count that is
    not an integer >= 1 stop the command with a message that names the
    key."""
    cfg = {"law": {"family": "two_point", "p": 0.068}, "seed": 5,
           "constants": CONSTANTS, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=message):
        cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("law, message", [
    ({"family": "two_point"}, "MISSING_KEY: the law spec has no key 'p'"),
    ({"atoms": [{"p": 1.0}]}, "MISSING_KEY: the law spec has no key 'marks'"),
    ({"family": "two_point", "p": 0.3}, "ASSUMPTION_VIOLATION: p=0.3 too large to calibrate"),
    ([], "MALFORMED: law spec [] is not a JSON object"),
    (3, "MALFORMED: law spec 3 is not a JSON object"),
    ({"atoms": [1]}, "MALFORMED: atoms=[1] is not a list of JSON objects"),
    ({"atoms": [{"p": 1, "marks": 3}]}, "MALFORMED: marks=3 is not a list of finite numbers"),
    ({"atoms": [{"p": 1, "marks": [1, math.inf]}]},
     "MALFORMED: marks=[1, inf] is not a list of finite numbers"),
    ({"atoms": [{"p": "x", "marks": []}]}, "NOT_NORMALIZED: p='x' is not a finite number > 0"),
    ({"atoms": [{"p": math.nan, "marks": []}]}, "NOT_NORMALIZED: p=nan is not a finite number > 0"),
    ({"family": "constant_bias", "lam": -1},
     "ASSUMPTION_VIOLATION: lam=-1 is not a finite number > 0"),
    ({"family": "two_point", "p": 1}, "ASSUMPTION_VIOLATION: p=1 is not a number in (0, 1)"),
], ids=["no-p", "no-marks", "p-too-large", "spec-list", "spec-number", "atom-number",
        "marks-number", "marks-inf", "p-str", "p-nan", "lam-negative", "p-one"])
@pytest.mark.parametrize("command", ["validate-law", "theorem2"])
def test_bad_law_stops_the_command_in_one_line(tmp_path, command, law, message):
    """A law file with a missing key, a spec, atom or marks of the wrong
    type, a probability that is not a finite number > 0 or a family
    parameter outside its domain stops the command with one line carrying
    the LawError's code and message, not a traceback, before any file is
    written."""
    (tmp_path / "law.json").write_text(json.dumps(law))
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, command, 1, "bad", extra={"law": str(tmp_path / "law.json")})
    assert exc.value.code == message
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("where, text, message", [
    ("config", None, "cannot read the config file {path}: No such file or directory"),
    ("config", '{"seed": ', "cannot read the config file {path}: "
     "Expecting value: line 1 column 10 (char 9)"),
    ("config", "[]", "the config file {path} does not hold a JSON object"),
    ("law", None, "MALFORMED: cannot read the law file {path}: No such file or directory"),
    ("law", '{"p": ', "MALFORMED: cannot read the law file {path}: "
     "Expecting value: line 1 column 7 (char 6)"),
], ids=["config-missing", "config-not-json", "config-list", "law-missing", "law-not-json"])
def test_unreadable_file_stops_the_command_in_one_line(tmp_path, where, text, message):
    """A config or law file that does not exist or is not JSON, or a config
    that is not a JSON object, stops the command with one line naming the
    file, not a traceback, before any file is written."""
    path = tmp_path / f"{where}-file.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        if where == "config":
            cli.main(["validate-law", "--config", str(path), "--out", str(tmp_path / "bad")])
        else:
            _run(tmp_path, "validate-law", 1, "bad", extra={"law": str(path)})
    assert exc.value.code == message.format(path=path)
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("command, owner, name, error, message", [
    ("theorem2", limits, "ml_laplace", limits.LimitsError("RANGE", "lambda out of range"),
     "RANGE: lambda out of range"),
    ("forest-identities", forest, "sample_typed_forest",
     forest.StepBudgetExceeded("too many trees passed the budget"),
     "STEP_BUDGET_EXCEEDED: too many trees passed the budget"),
])
def test_coded_error_stops_the_command_in_one_line(tmp_path, monkeypatch, command, owner,
                                                   name, error, message):
    """A LimitsError or StepBudgetExceeded raised inside a command stops it
    with one line carrying the error's code and message."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(owner, name, fail)
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, command, 1, "bad")
    assert exc.value.code == message
    assert not (tmp_path / "bad").exists()


def test_config_surface_is_pinned():
    """The accepted config keys, as a literal: adding or dropping one must
    change this test too."""
    assert cli._TOP_KEYS == ("law", "seed", "threads", "out")
    assert cli._SECTIONS == {
        "constants": {"C_inf", "c_inf_bold", "c_kappa", "c0", "_provenance"},
        "lemma_moments": {"n_envs", "depth", "n_pairs", "n_frozen", "n_excursions",
                          "regen_levels", "n_regen_samples"},
        "theorem1": {"n_trials", "p_grid", "lambdas", "tol"},
        "theorem2": {"n_trials", "m_grid", "lambdas", "tol"},
        "theorem3": {"n_trials", "n_grid", "budget", "shrink"},
        "corollary": {"n_walkers", "n_grid", "tol"},
        "forest_identities": {"n_trees", "n_sums"},
        "estimate_constants": {"n_samples", "eps", "c_kappa_samples"},
    }
    assert sum(len(keys) for keys in cli._SECTIONS.values()) == 32


REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted([*REPO.glob("configs/*.json"), *REPO.glob("bench/configs/*.json")])


def test_shipped_and_benchmark_configs_load():
    """Every shipped config and every benchmark config passes the key check
    and carries a law that loads, so dropping a key a config uses fails
    here and not first in a benchmark run."""
    assert len(SHIPPED_CONFIGS) == 8
    for path in SHIPPED_CONFIGS:
        cfg = json.loads(path.read_text())
        cli._check_keys(cfg)
        load_law(cfg["law"])


@pytest.mark.parametrize("command, config", [("theorem3", "walk-range.json"),
                                             ("theorem2", "walk-steps.json")])
def test_walk_benchmark_configs_same_bytes_at_one_and_two_threads(tmp_path, command, config):
    """The benchmark's walk workloads at their own sizes write the same
    bytes at threads=1 and threads=2: at threads=2 two library calls share
    the batch's trials and each trial writes only its own slots. No timing
    is asserted."""
    files = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        rc = cli.main([command, "--config", str(REPO / "bench" / "configs" / config),
                       "--out", str(out), "--threads", str(threads)])
        assert rc in (0, 1)
        files.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(files[0]) == 2 and files[1] == files[0]


COLD_PATH = """
import json, math, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import gwalk.cli
from gwalk import kernel, limits
seen = {"import": loaded()}
kernel.load_kernel(sys.argv[1])
seen["rc"] = gwalk.cli.main(["theorem2", "--config", sys.argv[2], "--out", sys.argv[3]])
seen["theorem2"] = loaded()
got = limits.ml_laplace(2.0, 1.0)
from scipy import special
seen["erfcx"] = [got.hex(), float(special.erfcx(1 / math.sqrt(2.0))).hex()]
print(json.dumps(seen))
"""


def test_subdiffusive_command_loads_no_scipy(kernel_library, tmp_path):
    """In a fresh interpreter, neither `import gwalk.cli` nor a theorem2 run
    on two_point p = 0.068 imports scipy: kappa comes from the package's own
    Brent port, and erfcx loads only at gamma = 2, where it keeps scipy's
    bits. The run walks on the session's library."""
    if kernel_library is None:
        pytest.skip("no C compiler to build the walk kernel")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"law": {"family": "two_point", "p": 0.068}, "seed": 5,
                               "constants": CONSTANTS, "theorem2": TINY["theorem2"]}))
    src = str(Path(gwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH, str(kernel_library), str(cfg),
         str(tmp_path / "out")], capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == [] and seen["theorem2"] == []
    assert seen["rc"] in (0, 1)
    assert seen["erfcx"][0] == seen["erfcx"][1]


# modules that neither `import gwalk.cli` nor any command may load
UNLOADED = ("numpy.ma", "concurrent.futures", "numpy.random", "numpy.ctypeslib", "secrets")

NO_MASKED_ARRAYS = """
import json, sys
import gwalk.cli
from gwalk import kernel
loaded = lambda: [m for m in %r if m in sys.modules]
seen = {"import": loaded()}
kernel.load_kernel(sys.argv[1])
cfg, out, commands = sys.argv[2], sys.argv[3], sys.argv[4:]
for command in commands:
    rc = gwalk.cli.main([command, "--config", cfg, "--out", out + command])
    seen[command] = [rc, loaded()]
print(json.dumps(seen))
""" % (UNLOADED,)


def test_commands_load_no_numpy_ma(kernel_library, tmp_path):
    """In a fresh interpreter, neither `import gwalk.cli` nor any of the
    eight commands in turn at the TINY sizes imports a module of UNLOADED:
    the package takes its medians, quantiles and grids without np.median,
    np.quantile and np.unique, whose first call imports numpy.ma, starts its
    threads with `kernel._concurrent_calls`, draws on the library's own
    generator, not numpy.random's (which loads secrets), and reads the
    library's arrays without numpy.ctypeslib. The config freezes no
    constant, so every theorem estimates its own on the estimate-constants
    route."""
    if kernel_library is None:
        pytest.skip("no C compiler to build the walk kernel")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "law": {"family": "two_point", "p": 0.068}, "seed": 5,
        "estimate_constants": ESTIMATE,
        **{c.replace("-", "_"): TINY[c] for c in TINY if TINY[c] is not None}}))
    src = str(Path(gwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, str(kernel_library), str(cfg),
         str(tmp_path / "out-"), *TINY], capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("import") == []
    assert seen == {command: [seen[command][0], []] for command in TINY}
    assert all(rc in (0, 1) for rc, _ in seen.values())


PACKAGE_RUN = """
import json, sys
import gwalk.cli
from gwalk import experiments, kernel, limits
cfg, out, commands = sys.argv[1], sys.argv[2], sys.argv[3:]
seen = {"impl": kernel.KERNEL_IMPL,
        "pykernel": sorted(m for m in sys.modules if "pykernel" in m),
        "estimated": [], "survival": []}
estimate_constant, surviving = limits.estimate_constant, experiments._surviving
def record(law, kappa, seed, name, **settings):
    seen["estimated"].append(name)
    return estimate_constant(law, kappa, seed, name, **settings)
def record_survival(law, env_seeds, experiment):
    seen["survival"].append(experiment)
    return surviving(law, env_seeds, experiment)
limits.estimate_constant, experiments._surviving = record, record_survival
for command in commands:
    try:
        seen[command] = gwalk.cli.main([command, "--config", cfg, "--out", out + command])
    except SystemExit as exc:
        seen[command] = str(exc)
print(json.dumps(seen))
"""

# every command but validate-law: they walk, read W or draw count trees
# through the library
NEEDS_LIBRARY = ["theorem1", "theorem2", "theorem3", "corollary", "lemma-moments",
                 "forest-identities", "estimate-constants"]


@pytest.mark.parametrize("with_library", [False, True])
def test_package_copy_with_and_without_library(kernel_library, tmp_path, with_library):
    """A package copy without the built library: every command but
    validate-law stops, at threads=2 too, with a message naming the library
    and the build command, before it estimates a constant (the config gives
    none) or draws survival, and writes no output directory; validate-law
    writes this session's bytes.
    With the library beside kernel.py, theorem2 writes this session's bytes.
    KERNEL_IMPL is "compiled" in both, and `import gwalk.cli` loads no
    module named like the tests' Python kernel."""
    if with_library and kernel_library is None:
        pytest.skip("no C compiler to build the walk kernel")
    pkg = tmp_path / "pkg" / "gwalk"
    shutil.copytree(Path(kernel.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns(kernel.LIBRARY.name, "__pycache__"))
    if with_library:
        shutil.copy(kernel_library, pkg / kernel.LIBRARY.name)
    commands = ["theorem2"] if with_library else [*NEEDS_LIBRARY, "validate-law"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "law": {"family": "two_point", "p": 0.068}, "seed": 5,
        **({"constants": CONSTANTS} if with_library else {"estimate_constants": ESTIMATE}),
        "threads": 1 if with_library else 2,
        **{c.replace("-", "_"): TINY[c] for c in commands if TINY[c] is not None}}))
    out = tmp_path / "out-"
    proc = subprocess.run(
        [sys.executable, "-c", PACKAGE_RUN, str(cfg), str(out), *commands],
        env={**os.environ, "PYTHONPATH": str(pkg.parent)},
        capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen.pop("impl") == "compiled" and seen.pop("pykernel") == []
    assert seen.pop("estimated") == []
    assert seen.pop("survival") == (["theorem2"] if with_library else [])
    for command, got in seen.items():
        if command in NEEDS_LIBRARY and not with_library:
            assert kernel.LIBRARY.name in got and "python setup.py build_ext --inplace" in got
            assert not Path(f"{out}{command}").exists()
        else:
            assert got in (0, 1)
            files = {f.name: f.read_bytes() for f in sorted(Path(f"{out}{command}").iterdir())}
            assert files == _run(tmp_path, command, 1, "in-session")
