"""The package's public names, and the names the benchmark tracer wraps.

A deleted or renamed function must fail here, not silently drop a span from
the benchmark's per-layer metrics (`bench/tracing.py` patches its targets by
module and attribute name, and records a missing one only at run time). So
must a function that still exists but that the commands no longer call
through the name the tracer patches.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import gwalk

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# the Python modules only: a built walk-kernel library sits beside them as
# `_walk<EXT_SUFFIX>` and has no Python API to import
MODULES = ["gwalk"] + [
    f"gwalk.{p.stem}"
    for p in sorted(Path(gwalk.__file__).parent.glob("*.py"))
    if p.stem != "__init__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"{name}.__all__ lists missing {attr}"


def test_tracer_targets_exist():
    for mod, attr, _span in _tracing().TARGETS:
        assert hasattr(importlib.import_module(mod), attr), f"{mod}.{attr}"
    assert callable(getattr(importlib.import_module("gwalk.env").MarkedTree, "grow"))


def test_tracer_targets_are_reached(tmp_path, monkeypatch, compiled_run_walk):
    """The four commands of the benchmark's workloads, theorem1 and
    lemma-moments, at the tiny sizes of test_cli, open every span of the
    tracer's TARGETS at least once: lemma-moments is the command that still
    calls `kernel.run_walk`, the one-walk binding, as the other walking
    commands hand their trials to `kernel.run_walks`. `MarkedTree.grow` is a
    call counter, not a span, and is exempt.
    Every attribute the tracer patches is restored afterwards."""
    from test_cli import _run

    tracing = _tracing()
    env = importlib.import_module("gwalk.env")
    for mod, attr, _span in tracing.TARGETS:
        owner = importlib.import_module(mod)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    monkeypatch.setattr(env.MarkedTree, "grow", env.MarkedTree.grow)
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.missing == []
    for command in ("theorem1", "theorem2", "theorem3", "estimate-constants",
                    "forest-identities", "lemma-moments"):
        _run(tmp_path, command, 1, command)
    seen = {s["name"] for s in tracer.spans}
    assert [span for _, _, span in tracing.TARGETS if span not in seen] == []
