"""The committed measurement scripts run at their smallest setting, and the
package source keeps its line-length limit.

A measurement recorded in a ``BENCH_*.json`` can only be repeated while the
script that took it still runs; a refactor that breaks one fails here.
"""

import functools
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
    ["tools/startup.py", "--runs", "1", "--json"],
], ids=["verify_jobs", "law_sweep", "startup"])
def test_tool_exits_0_with_a_json_report(argv):
    assert _report(tuple(argv))


@functools.cache
def _report(argv: tuple[str, ...]):
    env = {**os.environ, "PYTHONPATH": str(Path(jetframes.__file__).parents[1])}
    if argv[0] == "tools/startup.py":  # it finds ``src`` from its own path
        del env["PYTHONPATH"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_startup_reports_the_line_and_byte_counts():
    doc = _report(("tools/startup.py", "--runs", "1", "--json"))
    paths = sorted((ROOT / "src" / "jetframes").glob("*.py"))
    lines = {path.stem: len(path.read_text().splitlines()) for path in paths}
    assert {name: row["lines"] for name, row in doc["modules"].items()} == lines
    assert doc["package"] == {"lines": sum(lines.values()),
                              "bytes": sum(path.stat().st_size for path in paths)}


def test_startup_times_each_process_by_wall_and_cpu():
    doc = _report(("tools/startup.py", "--runs", "1", "--json"))
    for name, row in doc["processes"].items():
        assert row["wall_ms"] > 0 and row["cpu_ms"] > 0, name


def test_startup_lists_the_modules_beyond_a_bare_interpreter():
    doc = _report(("tools/startup.py", "--runs", "1", "--json"))
    for name, row in doc["processes"].items():
        extra = set(row["extra_modules"])
        assert {"argparse", "fractions", "json"} <= extra, name
        assert not {"dataclasses", "inspect", "ast", "dis"} & extra, name
        assert not {"os", "site"} & extra, name  # a bare interpreter loads them
        assert not {m for m in extra if m.startswith("jetframes")}, name


MAX_LINE = 88


def test_no_source_line_is_longer_than_the_limit():
    paths = sorted((ROOT / "src" / "jetframes").glob("*.py"))
    assert paths
    long = [f"{path.name}:{number}" for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []
