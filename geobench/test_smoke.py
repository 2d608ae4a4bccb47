"""Tiny-scale smoke test of the benchmark itself.

    python3 -m pytest -q geobench/test_smoke.py

Runs every workload at the `tiny` scale, untraced and traced, and checks
that the result line follows BENCHMARK.json, that every output check
passes, that call counts repeat for the same seed and that the benchmark
refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

COUNTS = (
    "gazetteer.checksum_calls",
    "gazetteer.lookup_calls",
    "gazetteer.candidates_built",
    "geodesy.distance_calls",
    "gazetteer.nearest_calls",
)


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, 3, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_repeats_call_counts(workload):
    first = result_of(run_bench(workload, 4, 1))
    second = result_of(run_bench(workload, 4, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload == "ingest":
        assert first["metrics"]["gazetteer.checksum_calls"]["value"] == 2


def test_generator_is_seeded(tmp_path):
    a = gen.generate("compare", 5, str(tmp_path / "a"), "tiny")
    b = gen.generate("compare", 5, str(tmp_path / "b"), "tiny")
    c = gen.generate("compare", 6, str(tmp_path / "c"), "tiny")
    assert a == b and a != c
    for name in ("dump.tsv", "pred_a.tsv", "pred_b.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("ingest", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
