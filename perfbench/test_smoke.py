"""Smoke test of the benchmark itself, every workload at toy size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "toy",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    return result


def _units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload, 0))
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_spans_nest(workload):
    proc = _run(workload, 1)
    result = _result(proc)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["failed_ops_ratio"]["value"] == 0
    assert result["metrics"]["evaluation.queries"]["value"] > 0

    path = next(line.split(" ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith("spans "))
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh][1:]
    spans = {int(r[3]): (int(r[4]), float(r[6]), float(r[7])) for r in rows}
    assert spans
    covered = dict.fromkeys(spans, 0.0)
    for parent, start, end in spans.values():
        assert start <= end
        if parent >= 0:
            _, p_start, p_end = spans[parent]
            assert p_start <= start and end <= p_end, "child span outside its parent"
            covered[parent] += end - start
    for sid, (_, start, end) in spans.items():
        assert (end - start) - covered[sid] >= -1e-9, "negative self time"


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
