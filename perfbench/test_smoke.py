"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

It is not part of the repository's test suite (pytest's testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys

import pytest

import run  # first: it pins the thread pools and imports swpc from this checkout
import harness  # noqa: I001
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        # every end-to-end metric and every layer's time is actually measured
        if not trace or metric["unit"] == "s":
            assert metric["value"] > 0, name


def test_truncated_stream_counts_as_failure(capsys, monkeypatch):
    monkeypatch.setattr(harness, "deliver", lambda data: data[: len(data) // 2])
    result = bench(capsys, "shared-ggm", 0)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_a_second_run_reproduces_the_recorded_fingerprints(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "FINGERPRINTS", tmp_path / "fingerprints.json")
    args = ["--workload", "train-ggm", "--seed", "5", "--seconds", "0.2", "--trace", "0",
            "--size", "tiny"]
    assert run.main(args + ["--record-fingerprints"]) == 0
    assert "fingerprints recorded" in capsys.readouterr().out
    assert run.main(args) == 0
    assert "# fingerprints: identical to the reference" in capsys.readouterr().out


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "escape-gm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
