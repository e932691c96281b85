"""The benchmark's own tests: ``python3 -m pytest bench/test_bench.py``.

Tiny-size smoke runs of every workload, byte-identical outputs with and
without tracing, wrapper removal, the contract's result format, and refusal
to report anything when the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_run("--workload", "constructions", "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def _worker_report(workload: str, seed: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.WORKER), "--workload", workload, "--seed", str(seed),
         "--size", "tiny", *extra],
        cwd=ROOT, env=run._child_env(), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_byte_identical(workload):
    untraced = _worker_report(workload, 4)
    traced = _worker_report(workload, 4, "--trace")
    assert untraced["digest"] == traced["digest"]
    assert "layers" in traced and "layers" not in untraced


def test_the_seed_alone_sets_the_inputs():
    first = _worker_report("constructions", 7)["digest"]
    assert _worker_report("constructions", 7)["digest"] == first
    assert _worker_report("constructions", 8)["digest"] != first


def _package_functions() -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == tracer.PACKAGE
            for attr, value in vars(module).items() if callable(value)}


def test_wrappers_are_removed_after_a_traced_run():
    import entropy_banach.entropy as entropy

    ops = workloads.build("constructions", 5, "tiny")
    before = _package_functions()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert entropy.compose is not before[("entropy_banach.entropy", "compose")]
        for op in ops[:4]:
            op.run()
        assert tr.spans
    finally:
        tr.remove()
    after = _package_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_layer_metric_names_match_the_benchmark_file():
    names = set(tracer.layer_metrics([])) | {
        "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.outside_spans_s"}
    assert names == {m["name"] for m in SPEC["per_layer"]}
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in SPEC["per_layer"])


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = _run("--workload", "brackets", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
