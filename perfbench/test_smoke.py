"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced, checks that each
emits exactly the metrics ``BENCHMARK.json`` declares, with their
units, that every check passes, and that the traced pass (one worker)
produced the same report digest as the untraced one (two workers).
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, *, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
            "--size", "smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(done) -> tuple[dict, str]:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    digest = re.search(r"report digest ([0-9a-f]{64})", done.stdout).group(1)
    return result, digest


@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in SPEC["workloads"]]
)
def test_workload_emits_declared_metrics(workload):
    untraced, untraced_digest = parse(run_bench(workload, 0))
    traced, traced_digest = parse(run_bench(workload, 1))
    for result, declared in (
        (untraced, SPEC["end_to_end"]),
        (traced, SPEC["per_layer"]),
    ):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {
            name: metric["unit"] for name, metric in result["metrics"].items()
        }
        assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    assert traced_digest == untraced_digest


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in SPEC["paths"]:
        shutil.copytree(
            ROOT / directory, tmp_path / directory,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    done = run_bench("fleet-attest", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
