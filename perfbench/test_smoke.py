"""Smoke test of the benchmark: every workload on a 4x4 grid for a handful
of operations, plus the checks that make up its correctness gate.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import session  # noqa: E402

OPS = 12


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--grid", "4", "--ops", str(OPS),
         "--seconds", "5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=150,
    )


def printed(stdout: str, workload: str) -> dict[str, str]:
    """Metric name -> unit from the ``<workload> <name> <value> <unit>`` lines."""
    out = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] == workload and fields[1] != "FAILED":
            float(fields[2])
            out[fields[1]] = fields[3]
    return out


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics(workload, seed):
    p = bench("--workload", workload, "--seed", str(seed), "--trace", "0")
    assert p.returncode == 0, p.stdout + p.stderr
    assert f"seed={seed}" in p.stdout
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == OPS * run.SESSIONS
    want = run.load_units()["end_to_end"]
    assert printed(p.stdout, workload) == dict(want, failed_frac="frac")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics(workload):
    p = bench("--workload", workload, "--seed", "3", "--trace", "1")
    assert p.returncode == 0, p.stdout + p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    want = run.load_units()["per_layer"]
    shown = printed(p.stdout, workload)
    assert {k: shown[k] for k in want} == want
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if workload == "mixed-analytics":
        extra = {"bound.range_s", "bound.rank_s", "forest.sample_s", "forest.contains_s", "forest.minmax_s"}
        assert {k: shown.get(k) for k in extra} == dict.fromkeys(extra, "s")
    spans = json.loads((run.OUT / f"trace-{workload}-seed3.json").read_text())["spans"]
    ops = {s[5] for s in spans if s[1] == "bench"}
    assert ops == set(range(OPS))


def test_missing_sources_fail_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    p = bench("--workload", "warm-sweep", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_dead_session_counts_as_failed_operations():
    class Args:
        seed, seconds, trace, grid, ops = 1, 5, 0, 4, OPS

    r = run.run_workload("warm-sweep", Args, run.load_units(), perf_counter())
    assert r["failed"] == r["attempted"] >= 1
    assert r["metrics"] == {}
    assert any("time limit" in e for e in r["errors"])


def test_gate_catches_wrong_answers():
    inst = session.Instance(4, "simple", 1, 1000, session.NullTracer())
    fo, f, costs = inst.forest, inst.root, inst.costs
    b = inst.window[1]
    res = inst.bounder.backtrack_interval_memo(f, b)
    assert session.interval_error(res, b) is None
    assert session.exact_filter_error(fo, f, res.root, b, costs, {}) is None
    # On a grid this small the flat-memo filter finishes, and agrees with
    # the set-algebra check the gate uses in its place.
    assert session.Bounder(fo, costs).backtrack_memo(f, b).root == res.root

    members = list(fo.enumerate_sets(res.root, 10**6))
    short = fo.difference(res.root, fo.from_itemset(members[0]))
    assert session.exact_filter_error(fo, f, short, b, costs, {}) is not None
    dear = fo.union(res.root, fo.from_itemset(max(fo.enumerate_sets(f, 10**6),
                                                   key=lambda x: session.cost_of(costs, x))))
    assert session.exact_filter_error(fo, f, dear, b, costs, {}) is not None
    assert session.interval_error(res, res.reject_best) is not None

    ranks = session.Ranks()
    assert ranks.error(100, 5) is None and ranks.error(200, 9) is None
    assert ranks.error(150, 10) is not None
    assert ranks.error(100, 6) is not None
