"""Smoke tests of the benchmark itself: a short run of every workload.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_bench.py

Each run is short (``--seconds 1``) but still executes the operations that
make up the answer digest, so the digest checks hold at this size too.
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed=1, trace=0, cwd=ROOT, seconds=1):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    first_record, first = parse(bench(workload))
    again_record, _ = parse(bench(workload))
    traced_record, traced = parse(bench(workload, trace=1))

    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] and first["failed"] == 0 and first["attempted"] >= 1
    assert first_record["failed_share"] == 0
    for m in SPEC["end_to_end"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
        assert first["metrics"][m["name"]]["value"] > 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # setup_s is the median of the set-up probes, each a fresh process
    assert first["metrics"]["setup_s"]["value"] == statistics.median(
        first_record["setup_probes_s"])

    assert traced["correct"] and traced["failed"] == 0
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced_record["replay_matches"]
    if workload in ("phi-valuation", "closure-decide"):
        # these workloads include valuations that need lifts past p^16
        assert traced["metrics"]["primes.PValuation.block.escalations"]["value"] > 0

    # same seed, same answers, traced or not
    assert first_record["digest"] == again_record["digest"] == traced_record["digest"]
    for key in ("python", "nproc", "git_sha", "seed", "ops_by_kind", "op_tail"):
        assert key in first_record


def test_other_seed_changes_inputs():
    a, _ = parse(bench("phi-valuation", seed=1))
    b, res = parse(bench("phi-valuation", seed=2))
    assert res["failed"] == 0
    assert a["digest"] != b["digest"]


def test_refuses_without_package_source():
    bare = ROOT / "bench" / ".smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".smoke", "__pycache__"))
        proc = bench(WORKLOADS[0], cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
