"""The benchmark's probes still find every name they wrap.

``perfbench/probes.py`` replaces package functions and methods by name; a
rename or deletion in the package makes ``install`` fail, which would break
``perfbench/run.py --trace 1`` and the counting run.  Each probe installs in a
fresh interpreter, as the benchmark worker does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("probe", ["Tracer", "Counter"])
def test_probe_installs_in_a_fresh_interpreter(probe):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run([sys.executable, "-c", f"import probes; probes.{probe}().install()"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
