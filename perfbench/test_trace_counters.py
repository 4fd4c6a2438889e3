"""Two traced runs with the same seed give identical per-layer counters.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def traced_counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["yu-oh-repro", "check-stream"])
def test_traced_counters_repeat_exactly(workload):
    first = traced_counters(workload, 7)
    assert first["assignments.count"] > 0
    assert traced_counters(workload, 7) == first
