"""gwalk benchmark: wall time, peak RSS and set-up time of four CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up copies the tree, runs the repo's own
`setup.py build` on the copy into a scratch directory under `.bench_build/`,
and times that plus the first `import gwalk.cli` from the result. Each sample
then starts a fresh interpreter (`worker.py`) that imports the built package
and times one `gwalk.cli.main([...])` call on the workload's config.

A run derives its inputs (CLI seeds) from --seed and cycles through them
until --seconds have passed, running each input at least once and the first
one twice. Every sample's outputs are checked: the verdict JSON and CSV exist,
every grid point is present, every number is finite, and the bytes equal
those of the other samples of the same input. With --trace 1 each input runs
untraced and then traced, and the traced calls give the per-layer metrics.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the full record of the run, with environment facts, goes
to `.bench_out/<workload>/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    command: str
    why: str


WORKLOADS = {
    "walk-steps": Workload(
        "theorem2",
        "theorem2 at threads=1 to a fixed step count: the kernel-rate workload "
        "and the single-threaded baseline",
    ),
    "walk-range": Workload(
        "theorem3",
        "theorem3 at threads=2 to every crossing with R: heavy-tailed run "
        "lengths, budget hits, the thread pool and the arena",
    ),
    "constants": Workload(
        "estimate-constants",
        "estimate-constants runs no kernel: vectorised discounted sums, "
        "bootstrap and hypothesis sums, and the memory of their scratch arrays",
    ),
    "forest": Workload(
        "forest-identities",
        "forest-identities runs no kernel: MarkedTree growth, the excursion "
        "sampler, the forest transform and hypothesis sums",
    ),
}

END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
INPUTS = 8  # CLI seeds per run, so that no single input sets the result
SETUP_REPEATS = 3
TIME_LIMIT_S = 165.0  # the whole run, set-up included, ends well inside 180 s


class BenchError(RuntimeError):
    """Set-up failed; the run prints no result."""


def cli_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def load_config(name: str) -> dict:
    with open(HERE / "configs" / f"{name}.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# set-up


def build_package(root: Path, work: Path) -> tuple[Path, float]:
    """Copy the checkout into `work` and build it with its own setup.py.

    The copy keeps the source tree clean: `setup.py build` writes
    `src/*.egg-info` next to the sources. Returns (build lib, seconds)."""
    t0 = time.perf_counter()
    copy = work / "tree"
    if not (root / "setup.py").is_file():
        raise BenchError(f"{root} holds no setup.py to build")
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
        ".git", ".bench_build", ".bench_out", "__pycache__", "*.egg-info"))
    lib = work / "lib"
    cmd = [sys.executable, "setup.py", "-q", "build",
           "--build-base", str(work / "build"), "--build-lib", str(lib)]
    with open(work / "build.log", "w") as log:
        proc = subprocess.run(cmd, cwd=copy, stdout=log, stderr=subprocess.STDOUT,
                              env=child_env(), timeout=120)
    if proc.returncode != 0 or not (lib / "gwalk" / "__init__.py").is_file():
        raise BenchError(f"setup.py build failed, see {work / 'build.log'}")
    return lib, time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GWALK_PURE_PYTHON", None)  # measure the build's own kernel choice
    return env


def run_worker(lib: Path, record: Path, gwalk_args=(), spans: Path | None = None,
               timeout: float = 120.0) -> dict:
    """One fresh interpreter; returns its record, or an error record."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--lib", str(lib), "--record", str(record)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    cmd += ["--", *gwalk_args]
    try:
        with open(record.with_suffix(".log"), "w") as log:
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=log,
                                  env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not record.is_file():
        tail = record.with_suffix(".log").read_text()[-2000:]
        return {"error": f"worker exited {proc.returncode}: {tail}"}
    with open(record) as fh:
        return json.load(fh)


def set_up(root: Path, work: Path, repeats: int) -> tuple[Path, list[float], dict]:
    """Build and import `repeats` times; returns (lib, set-up seconds, import record)."""
    times = []
    rec: dict = {}
    lib = None
    for i in range(repeats):
        d = work / f"setup-{i}"
        d.mkdir()
        lib, build_s = build_package(root, d)
        rec = run_worker(lib, d / "import.json")
        if "error" in rec:
            raise BenchError(f"import gwalk failed: {rec['error']}")
        times.append(build_s + rec["import_s"])
    return lib, times, rec


# ---------------------------------------------------------------------------
# output checks


def _nonfinite(x, where: str) -> list[str]:
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return []
    if isinstance(x, (int, float)):
        return [] if math.isfinite(x) else [f"{where}: non-finite {x}"]
    items = x.items() if isinstance(x, dict) else enumerate(x)
    return [p for k, v in items for p in _nonfinite(v, f"{where}.{k}")]


def _read_csv(path: Path) -> tuple[list[dict], list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    for i, row in enumerate(rows):
        for k, v in row.items():
            try:
                x = float(v)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(x):
                problems.append(f"{path.name} row {i} {k}: non-finite {v}")
    return rows, problems


def _grid_problems(command: str, sec: dict, rows: list[dict], verdicts: list[dict],
                   extra: dict) -> list[str]:
    stats = {v.get("statistic") for v in verdicts}
    problems = []

    def need(what, got, want):
        if got != want:
            problems.append(f"{what}: got {sorted(got, key=str)}, want {sorted(want, key=str)}")

    if command == "theorem2":
        grid = sorted(int(m) for m in sec["m_grid"])
        need("rows (n, lambda)", {(int(r["n"]), float(r["lambda"])) for r in rows},
             {(m, float(l)) for m in grid for l in sec["lambdas"]})
        need("verdicts", stats, {f"laplace_dist_n{grid[-1]}", "laplace_dist_trend"})
        trend = [v for v in verdicts if v.get("statistic") == "laplace_dist_trend"]
        need("trend distances", set(trend[0].get("distances", {})) if trend else set(),
             {str(m) for m in grid})
    elif command == "theorem3":
        grid = {int(n) for n in sec["n_grid"]}
        need("rows n", {int(r["n"]) for r in rows}, grid)
        need("verdicts", stats, {"median_sup_ratio"})
        med = [v.get("medians", {}) for v in verdicts]
        need("verdict medians", set(med[0]) if med else set(), {str(n) for n in grid})
    elif command == "estimate-constants":
        if not rows:
            problems.append("tail grid rows missing")
        need("verdicts", stats, {"c_kappa_plateau", "written"})
        keys = {"kappa", "C_inf", "C_inf_ci", "c_inf_bold", "c_inf_bold_ci", "c_kappa", "c_kappa_ci"}
        need("constants keys", set(extra.get("constants.json", {})), keys)
    elif command == "forest-identities":
        need("rows", {r["statistic"] for r in rows},
             {"b_mean", "b_se", "nu_mean", "nu_se", "nu_tilde_mean", "nu_tilde_se",
              "sigma1_sq", "sigma1_sq_se"})
        need("verdicts", stats, {"skeleton_count", "final_count", "offspring",
                                 "type1_depth1", "mean_type1_once"})
    return problems


def check_outputs(command: str, sec: dict, out: Path) -> dict:
    """Problems found in one sample's output, the digest of its files and its
    PASS/FAIL verdict counts."""
    name = command.replace("-", "_")
    extra_names = ["constants.json"] if command == "estimate-constants" else []
    files = [f"{name}.csv", f"{name}_verdicts.json", *extra_names]
    missing = [f for f in files if not (out / f).is_file()]
    if missing:
        return {"problems": [f"missing {missing}"], "digest": None, "pass": 0, "fail": 0}
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.encode() + b"\0" + (out / f).read_bytes() + b"\0")
    rows, problems = _read_csv(out / files[0])
    with open(out / files[1]) as fh:
        verdicts = json.load(fh)
    problems += _nonfinite(verdicts, files[1])
    extra = {}
    for f in extra_names:
        with open(out / f) as fh:
            extra[f] = json.load(fh)
        problems += _nonfinite(extra[f], f)
    problems += _grid_problems(command, sec, rows, verdicts, extra)
    passes = sum(bool(v.get("pass")) for v in verdicts)
    return {"problems": problems, "digest": digest.hexdigest(),
            "pass": passes, "fail": len(verdicts) - passes}


# ---------------------------------------------------------------------------
# samples


class Sampler:
    """Runs and checks samples, tracking the first digest of every input."""

    def __init__(self, lib: Path, work: Path, workload: str, cfg_path: Path, deadline: float):
        self.lib, self.work, self.deadline = lib, work, deadline
        self.command = WORKLOADS[workload].command
        self.cfg_path = cfg_path
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        self.sec = cfg.get(self.command.replace("-", "_"), {})
        self.threads = cfg.get("threads", 1)
        self.digests: dict[int, str] = {}
        self.samples: list[dict] = []

    def run(self, seed: int, traced: bool) -> dict:
        n = len(self.samples)
        out = self.work / f"out-{n}"
        spans = self.work / f"spans-{n}.json" if traced else None
        args = [self.command, "--config", str(self.cfg_path), "--seed", str(seed),
                "--out", str(out)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            rec = {"error": "no time left in the run"}
        else:
            rec = run_worker(self.lib, self.work / f"sample-{n}.json", args, spans, remaining)
        s = {"cli_seed": seed, "traced": traced, "wall_s": rec.get("wall_s"),
             "peak_rss_mb": rec.get("peak_rss_mb"), "rc": rec.get("rc"),
             "kernel_impl": rec.get("kernel_impl"),
             "import_warnings": rec.get("import_warnings", [])}
        problems = [rec["error"]] if "error" in rec else []
        if not problems:
            chk = check_outputs(self.command, self.sec, out)
            problems = chk["problems"]
            s.update(digest=chk["digest"], verdicts_pass=chk["pass"], verdicts_fail=chk["fail"])
            first = self.digests.setdefault(seed, chk["digest"])
            if chk["digest"] != first:
                problems.append("output bytes differ from the first sample of this input")
        if traced and not problems:
            with open(spans) as fh:
                s["trace"] = json.load(fh)
            # self times must add up to the cli.main span: exactly on one
            # thread, to more when pool threads overlap
            s["accounted_frac"] = frac = tracing.accounted_frac(s["trace"]["spans"])
            if frac < 1 - 1e-6 or (self.threads == 1 and frac > 1 + 1e-6):
                problems.append(f"span self times account for {frac:.6f} of cli.main")
        shutil.rmtree(out, ignore_errors=True)
        s["problems"] = problems
        self.samples.append(s)
        return s


def schedule(sampler: Sampler, seed: int, n_inputs: int, seconds: float, traced: bool) -> None:
    """Cycle through the inputs while the next step still ends within
    `seconds`; at least one full cycle, and (untraced) a repeat of the first
    input so that every run compares bytes."""
    t0 = time.monotonic()
    i = 0
    while True:
        t = time.monotonic()
        s_in = cli_seed(seed, i % n_inputs)
        sampler.run(s_in, traced=False)
        if traced:
            sampler.run(s_in, traced=True)
        i += 1
        now = time.monotonic()
        if i >= (n_inputs if traced else n_inputs + 1) and now + (now - t) > t0 + seconds:
            return
        if now >= sampler.deadline - 1:
            return


def measured(samples: list[dict], key: str) -> list[float]:
    values = [s[key] for s in samples if s.get(key) is not None]
    if not values:
        raise BenchError(f"no sample measured {key}")
    return values


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values.

    Used for wall time instead of the median. A shared machine alternates
    between fast and slow phases a few seconds long, and the median of such
    a two-mode sample jumps between the modes, while a mean moves with their
    mix. Dropping the outer quarters keeps a heavy-tailed input from setting
    the result."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


# ---------------------------------------------------------------------------
# environment facts


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    t_start = time.monotonic()
    root = Path.cwd()
    wl = WORKLOADS[a.workload]
    traced = a.trace == 1

    scratch = root / ".bench_build"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{a.workload}-", dir=scratch))
    try:
        lib, setup_times, imp = set_up(root, work, 1 if traced else SETUP_REPEATS)
        sampler = Sampler(lib, work, a.workload, HERE / "configs" / f"{a.workload}.json",
                          t_start + TIME_LIMIT_S)
        schedule(sampler, a.seed, INPUTS, a.seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    samples = sampler.samples
    failed = sum(bool(s["problems"]) for s in samples)
    compiled = imp["kernel_impl"] != "python"
    if traced:
        pairs = {}
        for s in samples:
            pairs.setdefault(s["cli_seed"], {})[s["traced"]] = s.get("wall_s")
        diffs = [p[True] - p[False] for p in pairs.values()
                 if p.get(True) is not None and p.get(False) is not None]
        dumps = [s["trace"] for s in samples if "trace" in s]
        values = tracing.layer_metrics(dumps, compiled, statistics.median(diffs) if diffs else 0.0)
        units = dict(tracing.LAYER_METRICS)
        spans_out = [{"cli_seed": s["cli_seed"], **s.pop("trace")} for s in samples if "trace" in s]
    else:
        values = {
            "wall_s": interquartile_mean(measured(samples, "wall_s")),
            "peak_rss_mb": statistics.median(measured(samples, "peak_rss_mb")),
            "setup_s": statistics.median(setup_times),
        }
        units = dict(END_TO_END)
        spans_out = None

    record = {
        "workload": a.workload, "command": wl.command,
        "seconds": a.seconds, "trace": a.trace,
        "env": {"seed": a.seed, "nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": imp["numpy"], "commit": git_commit(root),
                "kernel.impl": imp["kernel_impl"],
                "import_warnings": imp["import_warnings"]},
        "setup_s": setup_times,
        "fail_frac": failed / len(samples) if samples else 1.0,
        "verdicts": {"pass": sum(s.get("verdicts_pass", 0) for s in samples),
                     "fail": sum(s.get("verdicts_fail", 0) for s in samples)},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "samples": samples,
    }
    outdir = root / ".bench_out" / a.workload
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"seed-{a.seed}-trace-{a.trace}"
    with open(outdir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans_out is not None:
        with open(outdir / f"seed-{a.seed}-spans.json", "w") as fh:
            json.dump(spans_out, fh)

    for k, v in record["env"].items():
        print(f"# {k}: {v}")
    print(f"# samples: {len(samples)} over {len(sampler.digests)} inputs, "
          f"verdicts PASS {record['verdicts']['pass']} FAIL {record['verdicts']['fail']}")
    for s in samples:
        for p in s["problems"]:
            print(f"# FAILED sample seed {s['cli_seed']}: {p.strip().splitlines()[-1]}")
    print(f"# record: {outdir / stem}.json")
    print(f"fail_frac {record['fail_frac']} fraction")
    for k, m in record["metrics"].items():
        print(f"{k} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
