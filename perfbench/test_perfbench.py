"""Smoke test of the benchmark itself, on shrunken inputs.

Run from the repository root: ``python -m pytest perfbench -q``. It checks
that every metric listed in ``BENCHMARK.json`` is printed with its unit,
that the traced run covers every layer and that the self times of its spans
add up to the traced wall time, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 5

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, process.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result = last_json(run(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_every_layer_and_its_wall_time(workload):
    result = last_json(run(workload, 1))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected

    summary = json.loads(
        (ROOT / ".perfbench_out" / f"result-{workload}-{SEED}-trace1-smoke.json").read_text()
    )
    assert abs(summary["coverage"] - 1.0) <= summary["coverage_tolerance"]
    with open(summary["trace_file"], encoding="utf-8") as handle:
        names = {json.loads(line)["name"] for line in handle}
    assert tracer.TRACED_NAMES <= names, tracer.TRACED_NAMES - names


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    process = run("serve", 0, cwd=tmp_path)
    assert process.returncode != 0
    assert not process.stdout.strip()
