"""End to end: `gwalk.cli.main` on tiny configs of five commands.

A rerun with the same config and seed must write byte-identical files, and so
must a run at threads=2, whose trials run at the same time on the compiled
kernel (its ctypes calls release the GIL). Without a C compiler the runs use
the package's own kernel. Bad `lemma-moments` settings and config keys that
no command reads stop the command with a message before it samples anything.
"""

import csv
import io
import json

import pytest

from gwalk import cli, kernel

CONSTANTS = {
    "C_inf": 0.10078720884476033,
    "c_inf_bold": 0.23048901549232143,
    "c_kappa": 1.4549607799294266,
}

TINY = {
    "theorem2": {"n_trials": 6, "m_grid": [200, 1000], "lambdas": [0.5, 1.0], "tol": 0.05},
    "theorem3": {"n_trials": 40, "n_grid": [2, 5], "budget": 300, "shrink": 0.7},
    "lemma-moments": {"n_envs": 2, "depth": 3, "n_pairs": 5, "n_frozen": 1,
                      "n_excursions": 300, "regen_levels": [1, 3],
                      "n_regen_samples": 400},
    "forest-identities": {"n_trees": 30, "n_sums": 3000},
    "estimate-constants": {"n_samples": 2000, "eps": 1e-12, "c_kappa_samples": 20000},
}


@pytest.fixture
def walk_kernel(kernel_library, monkeypatch):
    if kernel_library is not None:
        monkeypatch.setattr(kernel, "run_walk", kernel.load_kernel(kernel_library))


def _run(tmp_path, command, threads, tag, section=None):
    cfg = {"law": {"family": "two_point", "p": 0.068}, "seed": 5,
           "constants": CONSTANTS,
           command.replace("-", "_"): TINY[command] if section is None else section}
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


@pytest.mark.parametrize("command", sorted(TINY))
def test_cli_bytes_identical_across_reruns_and_threads(walk_kernel, tmp_path, command):
    first = _run(tmp_path, command, 1, "a")
    assert _run(tmp_path, command, 1, "b") == first
    assert _run(tmp_path, command, 2, "c") == first


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


@pytest.mark.parametrize("command, extra, key", [
    ("theorem1", {"theorem1": {"n_trials": 4, "z_budget": 14.0}}, "theorem1.z_budget"),
    ("validate-law", {"theorem1": {"z_budget": 14.0}}, "theorem1.z_budget"),
    ("validate-law", {"theorem_2": {}}, "'theorem_2'"),
    ("validate-law", {"constants": {**CONSTANTS, "c_kapa": 1.0}}, "constants.c_kapa"),
    ("forest-identities", {"forest_identities": {"n_tree": 3}}, "forest_identities.n_tree"),
])
def test_unknown_config_key_stops_the_command(tmp_path, command, extra, key):
    cfg = {"law": {"family": "two_point", "p": 0.068}, "seed": 5,
           "constants": CONSTANTS, **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit, match=f"unknown config key {key}"):
        cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
