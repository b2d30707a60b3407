"""The command line contract of perfbench/run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_last_line_is_the_result_object():
    out = _run(REPO, "--workload", "elect", "--seed", "5", "--seconds", "0.2",
               "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {
        "ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb",
        "warm_op_p50_ms",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(out.stdout.strip().splitlines()[-2])["perfbench"]
    assert detail["provenance"]["thread_pins"]["OMP_NUM_THREADS"] == "1"
    assert detail["provenance"]["compiled_tier"] == "unmeasured"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "elect", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
