"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Run from the repository root.  Checks that every metric BENCHMARK.json names
is printed with its unit, that a wrong output is counted as a failure, and
that the benchmark refuses to run where the package is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("analytic", "build", "montecarlo", "cli")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, trace, *extra):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
                 "--size", "tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_spec_lists_the_workloads_and_tags_every_layer_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    with open(os.path.join(ROOT, "perfbench", "layers.json"), encoding="utf-8") as fh:
        tags = json.load(fh)
    assert list(tags) == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    _, res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: v["unit"] for name, v in res["metrics"].items()}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_every_per_layer_metric_is_printed_and_measured_somewhere():
    unmeasured = None
    for workload in WORKLOADS:
        info, res = result(workload, 1)
        assert res["correct"]
        assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
            name: v["unit"] for name, v in res["metrics"].items()}
        assert os.path.isfile(os.path.join(ROOT, info["spans_file"]))
        unmeasured = set(info["not_measured"]) if unmeasured is None else unmeasured & set(info["not_measured"])
    assert unmeasured == set()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_output_counts_as_failed(workload):
    _, res = result(workload, 0, "--corrupt")
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["pass_ratio"]["value"] == 1.0 - res["failed"] / res["attempted"] < 1.0


def test_refuses_to_run_without_the_package():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "analytic", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
