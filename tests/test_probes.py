"""The benchmark's probes still find every name they wrap, and their wrappers
still run.

``perfbench/probes.py`` replaces package functions and methods by name; a
rename or deletion in the package makes ``install`` fail, which would break
``perfbench/run.py --trace 1`` and the counting run.  Some wrappers also read
private state (``geom._blocks``, ``M._colors``), so each probe, installed in a
fresh interpreter as the benchmark worker does, runs one CLI command and one
uncached ``block_points`` call before its metrics are read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUN = """
import contextlib, io, json, probes
from designmosaics import cli
from designmosaics.families import DennistonGeometry
probe = probes.{probe}()
probe.install()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["verify", "--family", "m2", "--t", "2", "--l", "1"])
DennistonGeometry(2, 1).block_points(0, 0)
print(json.dumps({{"rc": rc, "metrics": probe.metrics()}}))
"""


@pytest.mark.parametrize("probe", ["Tracer", "Counter"])
def test_probe_installs_in_a_fresh_interpreter(probe):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", RUN.format(probe=probe)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rc"] == 0
    metrics = out["metrics"]
    if probe == "Tracer":
        assert metrics["cli.self_s"] > 0 and metrics["families.block_fill_s"] > 0
    else:
        assert metrics["mosaics.color_matrix_builds"] == 1
        assert metrics["families.block_points_calls"] == 1
        assert metrics["families.block_cache_hit_ratio"] == 0.0
