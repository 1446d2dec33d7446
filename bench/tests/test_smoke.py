"""Smoke test of the benchmark on a 6 + 6 cohort with one repetition.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".bench_out" / "results" / f"smoke-{workload}-seed{SEED}-trace{trace}.json")
        .read_text(encoding="utf-8")
    )
    return line, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    untraced, untraced_record = run_smoke(workload, 0)
    traced, traced_record = run_smoke(workload, 1)

    for line, metrics in ((untraced, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert line["attempted"] >= 1
        assert line["failed"] == 0  # failed_frac is 0
        assert set(line["metrics"]) == {m["name"] for m in metrics}
        for m in metrics:
            emitted = line["metrics"][m["name"]]
            assert emitted["unit"] == m["unit"]
            assert isinstance(emitted["value"], (int, float))

    # tracing does not change a single output byte
    assert untraced_record["output_digests"] == traced_record["output_digests"]
    assert all(untraced_record["output_digests"].values())


def test_fails_without_sources(tmp_path):
    """With only BENCHMARK.json and bench/, the benchmark exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
