"""The committed measurement scripts run at their smallest setting, and the
package source keeps its line-length limit.

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


MAX_LINE = 88


def test_no_source_line_is_longer_than_the_limit():
    paths = sorted((ROOT / "src" / "jetframes").glob("*.py"))
    assert paths
    long = [f"{path.name}:{number}" for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []
