"""Counting runs repeat exactly: two runs with the same seed give the same counts.

Run from the checkout root (about two minutes):

    python3 -m pytest -q perfbench/test_counting.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def counting_run(workload: str, seed: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--mode", "counting"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["analyze", "simulate", "codec"])
def test_counts_repeat_for_one_seed(workload):
    first = counting_run(workload, seed=7)
    second = counting_run(workload, seed=7)
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["layers"]["field.mul_calls"] > 0
    # allocation peaks are sizes, not counts; everything else must match exactly
    counts = {k: v for k, v in first["layers"].items() if k != "security.peak_alloc_mb"}
    again = {k: v for k, v in second["layers"].items() if k != "security.peak_alloc_mb"}
    assert counts == again
