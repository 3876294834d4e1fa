"""Per-layer tracing of one gwalk CLI call, installed from outside the package.

`Tracer.install` replaces the public functions of each layer with wrappers
that record a span (name, start, end, parent, thread) per call. Each wrapper
is set on the module where the caller looks the name up: `forest` imports
`sample_excursion_tree`, `limits` imports `discounted_sums_batch` and
`experiments` imports `level_weights_batch`, each by name, so patching the
defining module alone would miss those calls. `MarkedTree.grow` runs once per
node and only gets a call counter, not a span.

Spans stay in memory and are written once by `Tracer.dump`. `layer_metrics`
turns the dumps of the traced calls into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time

# (module the caller looks the name up in, attribute, span name)
TARGETS = [
    ("gwalk.kernel", "run_walk", "kernel.run_walk"),
    ("gwalk.walk", "simulate_time_grid", "walk.simulate_time_grid"),
    ("gwalk.walk", "simulate_excursion_grid", "walk.simulate_excursion_grid"),
    ("gwalk.experiments", "theorem1_campaign", "experiments.theorem1_campaign"),
    ("gwalk.experiments", "theorem2_campaign", "experiments.theorem2_campaign"),
    ("gwalk.experiments", "theorem3_campaign", "experiments.theorem3_campaign"),
    ("gwalk.experiments", "_map_trials", "experiments.trials"),
    ("gwalk.experiments", "w_hat_batch", "experiments.w_hat_batch"),
    ("gwalk.experiments", "level_weights_batch", "env.level_weights_batch"),
    ("gwalk.limits", "discounted_sums_batch", "env.discounted_sums_batch"),
    ("gwalk.excursion", "hypothesis_sums_batch", "excursion.hypothesis_sums_batch"),
    ("gwalk.forest", "sample_excursion_tree", "excursion.sample_excursion_tree"),
    ("gwalk.forest", "sample_typed_forest", "forest.sample_typed_forest"),
    ("gwalk.forest", "check_tree_identities", "forest.check_tree_identities"),
    ("gwalk.limits", "estimate_discounted_moments", "limits.estimate_discounted_moments"),
    ("gwalk.limits", "estimate_c_kappa", "limits.estimate_c_kappa"),
    ("gwalk.limits", "ml_laplace", "limits.ml_laplace"),
    ("gwalk.stats", "bootstrap_ci", "stats.bootstrap_ci"),
]

ROOT = "cli.main"

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("kernel.calls", "count"),
    ("kernel.busy_s", "s"),
    ("kernel.cpu_s", "s"),
    ("kernel.steps", "count"),
    ("kernel.msteps_per_s", "Msteps/s"),
    ("kernel.nodes_grown", "count"),
    ("kernel.nodes_per_step", "nodes/step"),
    ("kernel.peak_nodes", "count"),
    ("kernel.censored_frac", "fraction"),
    ("kernel.wasted_step_frac", "fraction"),
    ("kernel.compiled", "bool"),
    ("walk.self_s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.w_hat.envs_per_s", "1/s"),
    ("experiments.parallelism", "ratio"),
    ("env.level_weights.envs_per_s", "1/s"),
    ("env.discounted_sums.samples_per_s", "1/s"),
    ("env.grow.calls", "count"),
    ("excursion.hypothesis_sums.samples_per_s", "1/s"),
    ("excursion.sample_tree.nodes_per_s", "1/s"),
    ("excursion.sample_tree.attempts", "count"),
    ("excursion.sample_tree.budget_exceeded", "count"),
    ("forest.sample.self_s", "s"),
    ("forest.transform.nodes_per_s", "1/s"),
    ("limits.discounted_moments.self_s", "s"),
    ("limits.c_kappa.self_s", "s"),
    ("stats.bootstrap.resamples_per_s", "1/s"),
    ("limits.ml_laplace.us_per_call", "us"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _kernel_attrs(fn, a, k, r):
    from gwalk.kernel import STATUS_BUDGET

    return {
        "steps": int(r["m"]),
        "nodes": int(r["nodes_grown"]),
        "censored": int(r["status"] == STATUS_BUDGET),
    }


# span name -> work counts read from the call's function, arguments and result
SPAN_ATTRS = {
    "kernel.run_walk": _kernel_attrs,
    "experiments.w_hat_batch": lambda fn, a, k, r: {"envs": len(r)},
    "env.level_weights_batch": lambda fn, a, k, r: {"envs": len(_arg(fn, a, k, "env_seeds"))},
    "env.discounted_sums_batch": lambda fn, a, k, r: {"samples": int(_arg(fn, a, k, "n"))},
    "excursion.hypothesis_sums_batch": lambda fn, a, k, r: {
        "samples": int(_arg(fn, a, k, "n_samples"))
    },
    "excursion.sample_excursion_tree": lambda fn, a, k, r: {"nodes": len(r)},
    "forest.sample_typed_forest": lambda fn, a, k, r: {"trees": len(r)},
    "forest.check_tree_identities": lambda fn, a, k, r: {"nodes": len(_arg(fn, a, k, "t"))},
    "stats.bootstrap_ci": lambda fn, a, k, r: {"resamples": int(_arg(fn, a, k, "n_boot"))},
}


class Tracer:
    """In-memory span recorder for one traced CLI call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.grow_calls = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        # a pool thread's first span belongs to whatever the main thread has
        # open, which is the trial loop that submitted it
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "thread": threading.get_ident(),
            "cpu0": time.thread_time(),
            "start": time.perf_counter(),
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu_s"] = time.thread_time() - span.pop("cpu0")
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, owner, attr: str, name: str, attrs_fn) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if attrs_fn is not None:
                # a changed signature must cost the counts, never the call
                try:
                    span.update(attrs_fn(orig, args, kwargs, result))
                except (KeyError, TypeError, ValueError) as exc:
                    span["attrs_error"] = repr(exc)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for mod, attr, name in TARGETS:
            owner = importlib.import_module(mod)
            if not hasattr(owner, attr):
                self.missing.append(f"{mod}.{attr}")
                continue
            self._wrap(owner, attr, name, SPAN_ATTRS.get(name))
        env = importlib.import_module("gwalk.env")
        tree_cls = getattr(env, "MarkedTree", None)
        if tree_cls is None or not hasattr(tree_cls, "grow"):
            self.missing.append("gwalk.env.MarkedTree.grow")
            return
        grow = tree_cls.grow

        @functools.wraps(grow)
        def counted_grow(tree, node_id):
            with self._lock:
                self.grow_calls += 1
            return grow(tree, node_id)

        tree_cls.grow = counted_grow

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "grow_calls": self.grow_calls, "missing": self.missing},
                fh,
            )


# ---------------------------------------------------------------------------
# metrics from the dumps


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its children cover."""
    by_id = {s["id"]: s for s in spans}
    kids: dict[int, list] = {}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None:
            kids.setdefault(p["id"], []).append(
                (max(s["start"], p["start"]), min(s["end"], p["end"]))
            )
    return {
        s["id"]: (s["end"] - s["start"]) - _union_length(kids.get(s["id"], []))
        for s in spans
    }


def accounted_frac(spans) -> float:
    """Sum of all self times over the root span's duration.

    Exactly 1 when spans nest properly on one thread; above 1 when pool
    threads overlap; below 1 when a span escaped its parent's interval."""
    root = [s for s in spans if s["name"] == ROOT]
    if len(root) != 1:
        return 0.0
    dur = root[0]["end"] - root[0]["start"]
    return sum(self_times(spans).values()) / dur if dur > 0 else 0.0


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(dumps, compiled: bool, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics over the traced calls: times and counts are means per
    call, rates are total work over total busy time."""
    n = len(dumps)
    busy: dict[str, float] = {}
    cpu: dict[str, float] = {}
    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    work: dict[str, float] = {}
    peak_nodes = 0
    censored_steps = 0
    grow = 0
    n_spans = 0
    for d in dumps:
        spans = d["spans"]
        n_spans += len(spans)
        grow += d["grow_calls"]
        st = self_times(spans)
        for s in spans:
            name = s["name"]
            dur = s["end"] - s["start"]
            busy[name] = busy.get(name, 0.0) + dur
            cpu[name] = cpu.get(name, 0.0) + s["cpu_s"]
            calls[name] = calls.get(name, 0) + 1
            selfs[name] = selfs.get(name, 0.0) + st[s["id"]]
            for key in ("steps", "nodes", "censored", "envs", "samples", "trees", "resamples"):
                if key in s:
                    work[f"{name}:{key}"] = work.get(f"{name}:{key}", 0) + s[key]
            if name == "kernel.run_walk":
                peak_nodes = max(peak_nodes, s.get("nodes", 0))
                if s.get("censored"):
                    censored_steps += s["steps"]
            if s.get("error") == "StepBudgetExceeded":
                work[f"{name}:budget_exceeded"] = work.get(f"{name}:budget_exceeded", 0) + 1

    def b(name):
        return busy.get(name, 0.0)

    def w(key):
        return work.get(key, 0)

    def per_call(x):
        return x / n if n else 0.0

    k = "kernel.run_walk"
    steps = w(f"{k}:steps")
    walk_self = selfs.get("walk.simulate_time_grid", 0.0) + selfs.get(
        "walk.simulate_excursion_grid", 0.0
    )
    exp_names = [s for s in selfs if s.startswith("experiments.")]
    tree = "excursion.sample_excursion_tree"
    return {
        "kernel.calls": per_call(calls.get(k, 0)),
        "kernel.busy_s": per_call(b(k)),
        "kernel.cpu_s": per_call(cpu.get(k, 0.0)),
        "kernel.steps": per_call(steps),
        "kernel.msteps_per_s": _rate(steps, b(k)) / 1e6,
        "kernel.nodes_grown": per_call(w(f"{k}:nodes")),
        "kernel.nodes_per_step": _rate(w(f"{k}:nodes"), steps),
        "kernel.peak_nodes": float(peak_nodes),
        "kernel.censored_frac": _rate(w(f"{k}:censored"), calls.get(k, 0)),
        "kernel.wasted_step_frac": _rate(censored_steps, steps),
        "kernel.compiled": 1.0 if compiled else 0.0,
        "walk.self_s": per_call(walk_self),
        "experiments.self_s": per_call(sum(selfs[s] for s in exp_names)),
        "experiments.w_hat.envs_per_s": _rate(
            w("experiments.w_hat_batch:envs"), b("experiments.w_hat_batch")
        ),
        "experiments.parallelism": _rate(cpu.get(k, 0.0), b("experiments.trials")),
        "env.level_weights.envs_per_s": _rate(
            w("env.level_weights_batch:envs"), b("env.level_weights_batch")
        ),
        "env.discounted_sums.samples_per_s": _rate(
            w("env.discounted_sums_batch:samples"), b("env.discounted_sums_batch")
        ),
        "env.grow.calls": per_call(grow),
        "excursion.hypothesis_sums.samples_per_s": _rate(
            w("excursion.hypothesis_sums_batch:samples"), b("excursion.hypothesis_sums_batch")
        ),
        "excursion.sample_tree.nodes_per_s": _rate(w(f"{tree}:nodes"), b(tree)),
        "excursion.sample_tree.attempts": per_call(calls.get(tree, 0)),
        "excursion.sample_tree.budget_exceeded": per_call(w(f"{tree}:budget_exceeded")),
        "forest.sample.self_s": per_call(selfs.get("forest.sample_typed_forest", 0.0)),
        "forest.transform.nodes_per_s": _rate(
            w("forest.check_tree_identities:nodes"), b("forest.check_tree_identities")
        ),
        "limits.discounted_moments.self_s": per_call(
            selfs.get("limits.estimate_discounted_moments", 0.0)
        ),
        "limits.c_kappa.self_s": per_call(selfs.get("limits.estimate_c_kappa", 0.0)),
        "stats.bootstrap.resamples_per_s": _rate(
            w("stats.bootstrap_ci:resamples"), b("stats.bootstrap_ci")
        ),
        "limits.ml_laplace.us_per_call": _rate(b("limits.ml_laplace"), calls.get("limits.ml_laplace", 0))
        * 1e6,
        "trace.wall_s": per_call(b(ROOT)),
        "trace.overhead_s": overhead_s,
        "trace.spans": per_call(n_spans),
    }
