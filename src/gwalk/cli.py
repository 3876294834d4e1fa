"""Command-line entry points: seeded experiment runs emitting CSV + verdicts.

One config document drives everything: law, master seed, grids, trial
counts, parallelism width, output directory. Command-line flags override
the matching config keys; a key that no command reads stops the command.
Rerunning a command with the same config and seed writes byte-identical
files (no timestamps, deterministic substream seeding, deterministic
reduction order).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import excursion, experiments, forest, kernel, law as law_mod, limits, stats
from ._rng import derive_seed
from .env import enumerate_truncated
from .oracle import FiniteChain, lemma_mean_closed_form, lemma_second_closed_form

__all__ = ["main"]

# the config sections of the commands that run no campaign, with every key
# they read and its default; a campaign's section holds the keyword
# parameters of its function, whose defaults are the command's
_DEFAULTS = {
    "lemma_moments": {"n_envs": 20, "depth": 4, "n_pairs": 60, "n_frozen": 5,
                      "n_excursions": 10**5, "regen_levels": (1, 5, 20),
                      "n_regen_samples": 10**4},
    "forest_identities": {"n_trees": 10**4, "n_sums": 10**5},
    "estimate_constants": {"n_samples": 10**6, "eps": 1e-12, "c_kappa_samples": 10**6},
}
_CAMPAIGNS = (experiments.theorem1_campaign, experiments.theorem2_campaign,
              experiments.theorem3_campaign, experiments.corollary_campaign)
# every key of every config section
_SECTIONS = {
    "constants": {"C_inf", "c_inf_bold", "c_kappa", "c0", "_provenance"},
    **{name: set(keys) for name, keys in _DEFAULTS.items()},
    **{fn.__name__.removesuffix("_campaign"): {
        p.name for p in inspect.signature(fn).parameters.values()
        if p.default is not p.empty and p.name != "threads"} for fn in _CAMPAIGNS},
}


def _check_keys(cfg) -> None:
    """Stop on a config key that no command reads, instead of ignoring it."""
    for key, value in cfg.items():
        if key in ("law", "seed", "threads", "out"):
            continue
        if key not in _SECTIONS:
            raise SystemExit(f"unknown config key {key!r}")
        unknown = sorted(set(value) - _SECTIONS[key])
        if unknown:
            raise SystemExit(f"unknown config key {key}.{unknown[0]}")


def _section(cfg, name) -> dict:
    return {**_DEFAULTS[name], **cfg.get(name, {})}


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        _check_keys(cfg)
        cfg["_dir"] = str(Path(args.config).resolve().parent)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.threads is not None:
        cfg["threads"] = args.threads
    if args.out is not None:
        cfg["out"] = args.out
    cfg.setdefault("seed", 0)
    cfg.setdefault("threads", 1)
    cfg.setdefault("out", "gwalk-out")
    return cfg


def _law_from(cfg) -> law_mod.MarkLaw:
    spec = cfg.get("law")
    if spec is None:
        raise SystemExit("config must carry a 'law' entry (dict or file path)")
    if isinstance(spec, str):
        base = Path(cfg.get("_dir", "."))
        return law_mod.load_law(str(base / spec) if not os.path.isabs(spec) else spec)
    return law_mod.load_law(spec)


def _resolve_constants(cfg, law, kappa) -> experiments.Constants:
    """Constants from the config when frozen there, estimated otherwise."""
    given = dict(cfg.get("constants", {}))
    given.pop("_provenance", None)
    sec = _section(cfg, "estimate_constants")
    seed = cfg["seed"]
    diffusive = law_mod.regime_of(kappa) == "DIFFUSIVE"
    if diffusive and "c0" not in given:
        given["c0"] = limits.c0_exact(law, kappa)
    if not diffusive and ("C_inf" not in given or "c_inf_bold" not in given):
        rng = np.random.default_rng(derive_seed(seed, "estimate-constants", 0, "env"))
        est = limits.estimate_discounted_moments(
            law, sec["n_samples"], sec["eps"], rng, seed=seed
        )
        given.setdefault("C_inf", est.C_inf)
        given.setdefault("c_inf_bold", est.c_inf_bold)
    if not diffusive and "c_kappa" not in given:
        ck = limits.estimate_c_kappa(
            law, kappa, n_samples=sec["c_kappa_samples"], seed=seed
        )
        given["c_kappa"] = ck["c_kappa"]
    return experiments.Constants(kappa=kappa, **given)


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _emit(cfg, name, rows, verdicts) -> int:
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    if rows:
        _write_csv(outdir / f"{name}.csv", rows)
    stats.write_verdicts(verdicts, outdir / f"{name}_verdicts.json")
    failed = 0
    for v in verdicts:
        tag = "PASS" if v["pass"] else "FAIL"
        failed += not v["pass"]
        print(f"[{tag}] {v['experiment']}/{v['statistic']} "
              f"value={v['value']} threshold={v['threshold']}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# commands


def cmd_validate_law(cfg) -> int:
    law = _law_from(cfg)
    rep = law_mod.validate_law(law)
    rows = [
        {"t": float(t), "psi": float(v)}
        for t, v in zip(rep.psi_grid, rep.psi_values)
    ]
    psi1 = rep.psi_at(1.0)
    verdicts = [
        stats.verdict_row(
            "validate_law", "psi_at_1", psi1, 1e-9, abs(psi1) < 1e-9
        ),
        stats.verdict_row(
            "validate_law", "negative_drift", rep.psi_prime_1, 0.0,
            rep.psi_prime_1 < 0.0,
        ),
        stats.verdict_row(
            "validate_law", "kappa", rep.kappa, None, True,
            regime=rep.regime, lattice=rep.lattice, c0=rep.c0,
            notes=list(rep.notes),
        ),
    ]
    return _emit(cfg, "validate_law", rows, verdicts)


def cmd_lemma_moments(cfg) -> int:
    """Edge-count moment identities, three routes deep.

    Exact route: Green-matrix solves on truncated environments against the
    path-only closed forms (tolerance 1e-10). MC route: kernel excursions
    on frozen truncated environments against the solve, within 4 SE.
    Regeneration route: after m excursions, the mean number of once-visited
    vertices whose ancestors strictly below the root were visited at least
    twice equals m, within 4 SE. These are the count-1 non-root nodes of
    the pruned excursion tree at tau^m, so the route reads the B column of
    `excursion.hypothesis_sums_batch` at p = m, on fresh environments.
    """
    law = _law_from(cfg)
    seed = cfg["seed"]
    sec = _section(cfg, "lemma_moments")
    n_envs, depth, n_pairs = sec["n_envs"], sec["depth"], sec["n_pairs"]
    n_frozen, n_exc = sec["n_frozen"], sec["n_excursions"]
    regen_levels, n_regen = sec["regen_levels"], sec["n_regen_samples"]
    if not all(isinstance(m, int) and m >= 1 for m in regen_levels):
        raise SystemExit(
            f"lemma_moments.regen_levels must hold integers >= 1, got {regen_levels!r}"
        )
    if not (isinstance(n_regen, int) and n_regen >= 2):
        raise SystemExit(
            f"lemma_moments.n_regen_samples must be an integer >= 2, got {n_regen!r}"
        )
    rows = []
    verdicts = []

    worst_mean = worst_second = 0.0
    for i in range(n_envs):
        ex = enumerate_truncated(law, derive_seed(seed, "lemma-oracle", i, "env"), depth)
        chain = FiniteChain(ex)
        means = chain.expected_edge_counts()
        for x in range(1, chain.n):
            worst_mean = max(
                worst_mean, abs(means[x] - lemma_mean_closed_form(ex["V"], x))
            )
        rng = np.random.default_rng(derive_seed(seed, "lemma-oracle", i, "pairs"))
        for x, y in rng.integers(1, chain.n, size=(n_pairs, 2)):
            worst_second = max(
                worst_second,
                abs(
                    chain.edge_second_moment(int(x), int(y))
                    - lemma_second_closed_form(ex["parent"], ex["V"], int(x), int(y))
                ),
            )
    verdicts.append(
        stats.verdict_row(
            "lemma_moments", "oracle_mean_abs_err", worst_mean, 1e-10,
            worst_mean < 1e-10, n_envs=n_envs, depth=depth,
        )
    )
    verdicts.append(
        stats.verdict_row(
            "lemma_moments", "oracle_second_abs_err", worst_second, 1e-10,
            worst_second < 1e-10, n_envs=n_envs, n_pairs=n_pairs,
        )
    )

    worst_z = 0.0
    for i in range(n_frozen):
        ex = enumerate_truncated(law, derive_seed(seed, "lemma-mc", i, "env"), depth)
        chain = FiniteChain(ex)
        means = chain.expected_edge_counts()
        res = kernel.run_walk(
            law.tables(),
            0,
            derive_seed(seed, "lemma-mc", i, "walk"),
            kernel.MODE_CROSSINGS,
            n_exc,
            np.array([n_exc], dtype=np.int64),
            collect_tree=True,
            explicit={"parent": ex["parent"], "V": ex["V"]},
        )
        nd = res["tree_ndown"][: chain.n]
        for x in range(1, chain.n):
            var = chain.edge_second_moment(x, x) - means[x] ** 2
            se = (var / n_exc) ** 0.5
            z = abs(nd[x] / n_exc - means[x]) / se
            if z > worst_z:
                worst_z = z
            rows.append(
                {
                    "env": i,
                    "node": x,
                    "mc_mean": nd[x] / n_exc,
                    "oracle_mean": means[x],
                    "se": se,
                    "z": z,
                }
            )
    verdicts.append(
        stats.verdict_row(
            "lemma_moments", "mc_worst_z", worst_z, 4.0, worst_z < 4.0,
            n_frozen=n_frozen, n_excursions=n_exc,
        )
    )

    for m in regen_levels:
        rng = np.random.default_rng(derive_seed(seed, f"regen-m{m}", 0, "walk"))
        counts = excursion.hypothesis_sums_batch(law, n_regen, rng, p=m)["B"]
        mean = counts.mean()
        se = counts.std(ddof=1) / n_regen**0.5
        z = abs(mean - m) / se
        verdicts.append(
            stats.verdict_row(
                "lemma_moments", f"regen_mean_m{m}", float(mean), f"{m} +- 4 SE",
                z < 4.0, se=float(se), z=float(z), n_samples=n_regen,
            )
        )
    return _emit(cfg, "lemma_moments", rows, verdicts)


def _theorem_common(cfg):
    law = _law_from(cfg)
    kappa = law_mod.solve_kappa(law)
    consts = _resolve_constants(cfg, law, kappa)
    return law, consts


def cmd_theorem2(cfg) -> int:
    law, consts = _theorem_common(cfg)
    out = experiments.theorem2_campaign(
        law, consts, cfg["seed"], threads=cfg["threads"], **cfg.get("theorem2", {})
    )
    return _emit(cfg, "theorem2", out["rows"], out["verdicts"])


def cmd_theorem1(cfg) -> int:
    law, consts = _theorem_common(cfg)
    out = experiments.theorem1_campaign(
        law, consts, cfg["seed"], threads=cfg["threads"], **cfg.get("theorem1", {})
    )
    return _emit(cfg, "theorem1", out["rows"], out["verdicts"])


def cmd_theorem3(cfg) -> int:
    law, consts = _theorem_common(cfg)
    out = experiments.theorem3_campaign(
        law, consts, cfg["seed"], threads=cfg["threads"], **cfg.get("theorem3", {})
    )
    return _emit(cfg, "theorem3", out["rows"], out["verdicts"])


def cmd_corollary(cfg) -> int:
    law = _law_from(cfg)
    kappa = law_mod.solve_kappa(law)
    out = experiments.corollary_campaign(
        law, kappa, cfg["seed"], threads=cfg["threads"], **cfg.get("corollary", {})
    )
    return _emit(cfg, "corollary", out["rows"], out["verdicts"])


def cmd_forest_identities(cfg) -> int:
    """Per-tree exact identities of the excursion-forest transform."""
    law = _law_from(cfg)
    seed = cfg["seed"]
    sec = _section(cfg, "forest_identities")
    n_trees, n_sums = sec["n_trees"], sec["n_sums"]
    rng = np.random.default_rng(derive_seed(seed, "forest-identities", 0, "env"))
    trees = forest.sample_typed_forest(law, n_trees, rng)
    fails: dict[str, int] = {}
    for t in trees:
        for name, ok in forest.check_tree_identities(t).items():
            if not ok:
                fails[name] = fails.get(name, 0) + 1
    verdicts = [
        stats.verdict_row(
            "forest_identities", name, fails.get(name, 0), 0,
            fails.get(name, 0) == 0, n_trees=n_trees,
        )
        for name in ("skeleton_count", "final_count", "offspring", "type1_depth1")
    ]
    # the moment sums ride the batched sampler, which is exact in law: the
    # typed-forest sample above is size-truncated (redraws past the node
    # budget), which biases the means of the heavy-tailed sums downward
    rng2 = np.random.default_rng(derive_seed(seed, "forest-identities", 0, "sums"))
    sums = excursion.hypothesis_sums_batch(law, n_sums, rng2)
    moments = {}
    for name, key in (("b", "B"), ("nu", "nu"), ("nu_tilde", "nu_tilde")):
        x = sums[key].astype(np.float64)
        moments[f"{name}_mean"] = float(x.mean())
        moments[f"{name}_se"] = float(x.std(ddof=1) / math.sqrt(n_sums))
    b = sums["B"].astype(np.float64)
    var_b = b.var(ddof=1)
    m4 = np.square(np.square(b - b.mean())).mean()  # ** 4 is 5x slower
    moments["sigma1_sq"] = float(var_b)
    moments["sigma1_sq_se"] = float(math.sqrt(max(m4 - var_b**2, 0.0) / n_sums))
    b_mean, b_se = moments["b_mean"], moments["b_se"]
    verdicts.append(
        stats.verdict_row(
            "forest_identities", "mean_type1_once", b_mean, "1 +- 4 SE",
            abs(b_mean - 1.0) < 4 * b_se, se=b_se, n_trees=n_sums,
        )
    )
    rows = [
        {"experiment": "forest_identities", "statistic": k, "value": v}
        for k, v in moments.items()
    ]
    return _emit(cfg, "forest_identities", rows, verdicts)


def cmd_estimate_constants(cfg) -> int:
    law = _law_from(cfg)
    seed = cfg["seed"]
    kappa = law_mod.solve_kappa(law)
    sec = _section(cfg, "estimate_constants")
    rows = []
    verdicts = []
    payload = {"kappa": kappa}
    diffusive = law_mod.regime_of(kappa) == "DIFFUSIVE"
    if diffusive:
        payload["c0"] = limits.c0_exact(law, kappa)
    rng = np.random.default_rng(derive_seed(seed, "estimate-constants", 0, "env"))
    est = limits.estimate_discounted_moments(
        law, sec["n_samples"], sec["eps"], rng, seed=seed
    )
    payload["C_inf"] = est.C_inf
    payload["C_inf_ci"] = list(est.C_inf_ci)
    payload["c_inf_bold"] = est.c_inf_bold
    payload["c_inf_bold_ci"] = list(est.c_inf_bold_ci)
    if kappa > 1.0 and not diffusive:
        ck = limits.estimate_c_kappa(
            law, kappa, n_samples=sec["c_kappa_samples"], seed=seed
        )
        payload["c_kappa"] = ck["c_kappa"]
        payload["c_kappa_ci"] = list(ck["ci"])
        rows = [
            {"m": int(m), "m_kappa_tail": float(v)} for m, v in ck["grid"]
        ]
        verdicts.append(
            stats.verdict_row(
                "estimate_constants", "c_kappa_plateau", ck["c_kappa"], None,
                not ck["no_plateau"], ci=ck["ci"], hill=ck["hill"]["alpha"],
            )
        )
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "constants.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    verdicts.append(
        stats.verdict_row(
            "estimate_constants", "written", None, None, True,
            keys=sorted(payload),
        )
    )
    return _emit(cfg, "estimate_constants", rows, verdicts)


_COMMANDS = {
    "validate-law": cmd_validate_law,
    "lemma-moments": cmd_lemma_moments,
    "theorem1": cmd_theorem1,
    "theorem2": cmd_theorem2,
    "theorem3": cmd_theorem3,
    "corollary": cmd_corollary,
    "forest-identities": cmd_forest_identities,
    "estimate-constants": cmd_estimate_constants,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gwalk",
        description="biased-walk-on-tree scaling-limit experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=lambda s: int(s, 0), default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)
    cfg = _load_config(args)
    return _COMMANDS[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
