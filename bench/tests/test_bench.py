"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest -q bench/tests

Every workload completes and passes the output check, walk-range writes the
same bytes at threads=1 and threads=2, tracing changes no output byte, and
the output check catches a missing grid point and a non-finite value.
"""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "walk-steps": {"n_trials": 4, "m_grid": [200, 1000]},
    "walk-range": {"n_trials": 40, "n_grid": [2, 5], "budget": 300},
    "constants": {"n_samples": 2000, "c_kappa_samples": 20000},
    "forest": {"n_trees": 20, "n_sums": 5000},
}
SEED = 7


@pytest.fixture(scope="module")
def lib(tmp_path_factory):
    built, _ = run.build_package(ROOT, tmp_path_factory.mktemp("build"))
    return built


def tiny_config(tmp_path, workload, **top):
    cfg = run.load_config(workload)
    cfg[run.WORKLOADS[workload].command.replace("-", "_")].update(TINY[workload])
    cfg.update(top)
    path = tmp_path / f"{workload}-{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(cfg))
    return path


def sampler(lib, tmp_path, workload, cfg_path):
    work = tmp_path / f"work-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    return run.Sampler(lib, work, workload, cfg_path, time.monotonic() + 120)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_completes_and_tracing_changes_no_byte(lib, tmp_path, workload):
    s = sampler(lib, tmp_path, workload, tiny_config(tmp_path, workload))
    plain = s.run(SEED, traced=False)
    traced = s.run(SEED, traced=True)
    assert plain["problems"] == [] and plain["wall_s"] > 0
    # the sampler compares every sample's bytes with the first of its input,
    # and a traced sample's span self times with its cli.main span
    assert traced["problems"] == []
    assert traced["digest"] == plain["digest"]

    dump = traced["trace"]
    assert dump["missing"] == []
    assert not [sp for sp in dump["spans"] if "attrs_error" in sp]
    metrics = tracing.layer_metrics([dump], compiled=False, overhead_s=0.0)
    assert list(metrics) == [name for name, _ in tracing.LAYER_METRICS]


def test_walk_range_same_bytes_at_one_and_two_threads(lib, tmp_path):
    digests = []
    for threads in (1, 2):
        cfg = tiny_config(tmp_path, "walk-range", threads=threads)
        s = sampler(lib, tmp_path, "walk-range", cfg).run(SEED, traced=False)
        assert s["problems"] == []
        digests.append(s["digest"])
    assert digests[0] == digests[1]


def test_output_check_catches_missing_and_nonfinite(lib, tmp_path):
    cfg = tiny_config(tmp_path, "walk-range")
    out = tmp_path / "out"
    rec = run.run_worker(lib, tmp_path / "rec.json",
                         ["theorem3", "--config", str(cfg), "--seed", str(SEED), "--out", str(out)])
    assert "error" not in rec
    sec = TINY["walk-range"]
    assert run.check_outputs("theorem3", sec, out)["problems"] == []

    csv_path = out / "theorem3.csv"
    header, first, second = csv_path.read_text().splitlines()
    csv_path.write_text(f"{header}\n{first}\n")
    assert any("rows n" in p for p in run.check_outputs("theorem3", sec, out)["problems"])

    cells = second.split(",")
    cells[2] = "inf"
    csv_path.write_text(f"{header}\n{first}\n{','.join(cells)}\n")
    assert any("non-finite" in p for p in run.check_outputs("theorem3", sec, out)["problems"])

    (out / "theorem3_verdicts.json").unlink()
    assert run.check_outputs("theorem3", sec, out)["digest"] is None


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
