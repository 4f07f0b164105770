"""The committed measurement scripts run at their smallest setting.

A measurement recorded in a ``BENCH_*.json`` can only be repeated while the
script that took it still runs; a refactor that breaks one fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetframes

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["tools/verify_jobs.py", "--rounds", "1", "--trials", "2", "--json"],
    ["tools/law_sweep.py", "--json"],
], ids=["verify_jobs", "law_sweep"])
def test_tool_exits_0_with_a_json_report(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(jetframes.__file__).parents[1])}
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)
