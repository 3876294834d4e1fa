"""End to end: `gwalk.cli.main` on tiny configs of all eight commands.

A rerun with the same config and seed must write byte-identical files, and so
must a run at threads=2, whose trials run at the same time on the compiled
kernel (its ctypes calls release the GIL). Without a C compiler the runs use
the package's own kernel. A theorem with no `constants` section estimates
them on the route that estimate-constants takes, and only those its scales
read; a constant that is not a finite number > 0 stops the command. Every
verdict file is strict JSON (no NaN or Infinity), also when `theorem3`
censors every trial.
`corollary` also runs on a law whose environments can die, so that its
survival resampling runs end to end. A subdiffusive command loads no scipy. Bad `lemma-moments` settings and config
keys that no command reads stop the command with a message before it samples
anything, and the accepted keys are pinned.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gwalk
from gwalk import cli, kernel, limits
from gwalk._rng import derive_seed
from gwalk.env import environment_survives
from gwalk.experiments import trial_seeds
from gwalk.law import load_law

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


@pytest.fixture
def walk_kernel(kernel_library, monkeypatch):
    if kernel_library is not None:
        monkeypatch.setattr(kernel, "run_walk", kernel.load_kernel(kernel_library))


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
def test_cli_bytes_identical_across_reruns_and_threads(walk_kernel, tmp_path, command):
    first = _run(tmp_path, command, 1, "a")
    _strict_json(first[f"{command.replace('-', '_')}_verdicts.json"])
    assert _run(tmp_path, command, 1, "b") == first
    assert _run(tmp_path, command, 2, "c") == first


def test_corollary_redraws_dead_environments(walk_kernel, tmp_path):
    """On a law with extinction (half the nodes childless, half with four
    children marked ln 2), corollary redraws the environments that die,
    the k-th time from derive_seed(previous, "corollary-resample", k, "env"):
    n_rejected > 0 and equal to a walker-by-walker count, with the same
    bytes on a rerun and at threads=2."""
    ext = {"atoms": [{"p": 0.5, "marks": []},
                     {"p": 0.5, "marks": [math.log(2.0)] * 4}]}
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


def test_theorem_estimates_the_constants_it_is_not_given(walk_kernel, tmp_path, monkeypatch):
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


def test_forest_rows_come_from_the_batch_sums(walk_kernel, tmp_path):
    """The moment rows and the mean_type1_once verdict read the same
    hypothesis_sums_batch draws, not the size-truncated typed forest."""
    files = _run(tmp_path, "forest-identities", 1, "a")
    rows = {r["statistic"]: float(r["value"]) for r in
            csv.DictReader(io.StringIO(files["forest_identities.csv"].decode()))}
    assert list(rows) == ["b_mean", "b_se", "nu_mean", "nu_se", "nu_tilde_mean",
                          "nu_tilde_se", "sigma1_sq", "sigma1_sq_se"]
    (verdict,) = [v for v in json.loads(files["forest_identities_verdicts.json"])
                  if v["statistic"] == "mean_type1_once"]
    assert (rows["b_mean"], rows["b_se"]) == (verdict["value"], verdict["se"])
    assert rows["b_mean"] <= rows["nu_tilde_mean"] <= rows["nu_mean"]


def test_theorem3_writes_censored_medians_as_null(walk_kernel, tmp_path):
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
], ids=["theorem1-extra0-theorem1.z_budget", "validate-law-extra1-theorem1.z_budget",
        "validate-law-extra2-'theorem_2'", "validate-law-extra3-constants.c_kapa",
        "forest-identities-extra4-forest_identities.n_tree",
        "theorem1-extra5-theorem1.step_cap", "validate-law-extra6-'theorem1'",
        "validate-law-extra7-'law'"])
def test_unknown_config_key_stops_the_command(tmp_path, command, extra, message):
    """A key that no command reads, and a section or law that is not a JSON
    object, stop the command with a message that names the key."""
    cfg = {"law": {"family": "two_point", "p": 0.068}, "seed": 5,
           "constants": CONSTANTS, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=message):
        cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


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


COLD_PATH = """
import json, math, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import gwalk.cli
from gwalk import kernel, limits
seen = {"import": loaded()}
if sys.argv[1]:
    kernel.run_walk = kernel.load_kernel(sys.argv[1])
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
    bits."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"law": {"family": "two_point", "p": 0.068}, "seed": 5,
                               "constants": CONSTANTS, "theorem2": TINY["theorem2"]}))
    src = str(Path(gwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH, str(kernel_library or ""), str(cfg),
         str(tmp_path / "out")], capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == [] and seen["theorem2"] == []
    assert seen["rc"] in (0, 1)
    assert seen["erfcx"][0] == seen["erfcx"][1]
