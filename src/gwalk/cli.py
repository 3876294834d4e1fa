"""Command-line entry point: load the config, check its keys, run the command,
write what it returns.

Every command is one function of `gwalk.experiments`, named in `_COMMANDS`.
Its positional parameters name what it needs (`_call` fills them), and its
keyword-only parameters, with their defaults, are its config section, which
carries the command's name with `_` for `-`. The theorems' plug-in constants
are one `experiments.Constants`: the `constants` section gives some, and
each other one is computed on its first read through
`limits.estimate_constant`, whose keyword-only parameters are the
`estimate_constants` section.

One config document drives everything: law, master seed, the sections,
parallelism width, output directory. Command-line flags override the
matching config keys; a key that no command reads stops the command, and so
do a seed that is not an integer >= 0 and a thread count that is not an
integer >= 1.
A coded error of the law, the limit laws or the forest sampler (LawError,
LimitsError, StepBudgetExceeded) stops the command with one line that
carries its code and message, before any file is written.
Rerunning a command with the same config and seed writes byte-identical
files (no timestamps, deterministic substream seeding, deterministic
reduction order).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import os
import sys
from pathlib import Path

from . import experiments, forest, law as law_mod, limits, stats

__all__ = ["main"]

# command -> name of its function in `experiments`, looked up at call time so
# that a wrapper set on the module (the benchmark's tracer) is the one called
_COMMANDS = {
    "validate-law": "validate_law_campaign",
    "lemma-moments": "lemma_moments_campaign",
    "theorem1": "theorem1_campaign",
    "theorem2": "theorem2_campaign",
    "theorem3": "theorem3_campaign",
    "corollary": "corollary_campaign",
    "forest-identities": "forest_identities_campaign",
    "estimate-constants": "estimate_constants_campaign",
}
_TOP_KEYS = ("law", "seed", "threads", "out")


def _params(fn, kind) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values() if p.kind is kind]


# every key of every config section
_SECTIONS = {
    "constants": {*experiments.CONSTANT_NAMES, "_provenance"},
    "estimate_constants": set(_params(limits.estimate_constant, inspect.Parameter.KEYWORD_ONLY)),
    **{
        command.replace("-", "_"): keys
        for command, name in _COMMANDS.items()
        if (keys := set(_params(getattr(experiments, name), inspect.Parameter.KEYWORD_ONLY)))
    },
}


def _check_keys(cfg) -> None:
    """Stop on a config key that no command reads, instead of ignoring it,
    and on a section that is not a JSON object."""
    for key, value in cfg.items():
        if key in _TOP_KEYS:
            continue
        if key not in _SECTIONS:
            raise SystemExit(f"unknown config key {key!r}")
        if not isinstance(value, dict):
            raise SystemExit(f"config key {key!r} must be a JSON object, got {value!r}")
        unknown = sorted(set(value) - _SECTIONS[key])
        if unknown:
            raise SystemExit(f"unknown config key {key}.{unknown[0]}")


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as err:
            raise SystemExit(f"cannot read the config file {args.config}: "
                             f"{getattr(err, 'strerror', None) or err}") from err
        if not isinstance(cfg, dict):
            raise SystemExit(f"the config file {args.config} does not hold a JSON object")
        _check_keys(cfg)
        cfg["_dir"] = str(Path(args.config).resolve().parent)
    for key, default in (("seed", 0), ("threads", 1), ("out", "gwalk-out")):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
        cfg.setdefault(key, default)
    experiments._check("seed", cfg["seed"], least=0)
    experiments._check("threads", cfg["threads"])
    return cfg


def _law_from(cfg) -> law_mod.MarkLaw:
    spec = cfg.get("law")
    if spec is None:
        raise SystemExit("config must carry a 'law' entry (dict or file path)")
    if isinstance(spec, str):
        base = Path(cfg.get("_dir", "."))
        return law_mod.load_law(str(base / spec) if not os.path.isabs(spec) else spec)
    if not isinstance(spec, dict):
        raise SystemExit(f"config key 'law' must be a JSON object or a file path, got {spec!r}")
    return law_mod.load_law(spec)


def _call(command, cfg) -> dict:
    """Run one command's function: its positional parameters by name from
    the config (kappa and the plug-in constants only when it names them),
    its config section as keyword arguments."""
    fn = getattr(experiments, _COMMANDS[command])
    names = _params(fn, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    ctx = {"law": _law_from(cfg), "master_seed": cfg["seed"], "threads": cfg["threads"]}
    if "kappa" in names or "consts" in names:
        ctx["kappa"] = law_mod.solve_kappa(ctx["law"])
    if "consts" in names:
        ctx["consts"] = experiments.Constants(
            ctx["kappa"], ctx["law"], cfg["seed"], cfg.get("estimate_constants"),
            **{k: v for k, v in cfg.get("constants", {}).items() if k != "_provenance"},
        )
    return fn(*(ctx[n] for n in names), **cfg.get(command.replace("-", "_"), {}))


def _write_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _emit(cfg, name, out) -> int:
    """Write the command's files and print one line per verdict; 1 when a
    verdict failed."""
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    if "constants" in out:
        text = json.dumps(out["constants"], indent=2, sort_keys=True, allow_nan=False)
        (outdir / "constants.json").write_text(text + "\n")
    if out["rows"]:
        _write_csv(outdir / f"{name}.csv", out["rows"])
    stats.write_verdicts(out["verdicts"], outdir / f"{name}_verdicts.json")
    failed = 0
    for v in out["verdicts"]:
        tag = "PASS" if v["pass"] else "FAIL"
        failed += not v["pass"]
        print(f"[{tag}] {v['experiment']}/{v['statistic']} "
              f"value={v['value']} threshold={v['threshold']}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gwalk",
        description="biased-walk-on-tree scaling-limit experiments",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", type=str, default=None)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)
    cfg = _load_config(args)
    try:
        out = _call(args.command, cfg)
    except law_mod.LawError as err:  # its message starts with its code
        raise SystemExit(str(err)) from err
    except (limits.LimitsError, forest.StepBudgetExceeded) as err:
        raise SystemExit(f"{err.code}: {err}") from err
    return _emit(cfg, args.command.replace("-", "_"), out)


if __name__ == "__main__":
    sys.exit(main())
