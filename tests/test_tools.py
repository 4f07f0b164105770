"""The committed measurement scripts run at their smallest setting, and the
package source keeps its line-length limit.

A measurement recorded in a ``BENCH_*.json`` can only be repeated while the
script that took it still runs; a refactor that breaks one fails here.
"""

import ast
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
    ["tools/law_sweep.py", "--n", "1", "--json"],
    ["tools/law_sweep.py", "--suite-calls", "--json"],
    ["tools/startup.py", "--runs", "1", "--json"],
], ids=["verify_jobs", "law_sweep", "law_sweep_suite_calls", "startup"])
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


def test_law_sweep_times_only_the_dimensions_asked_for():
    doc = _report(("tools/law_sweep.py", "--n", "1", "--json"))
    cells = [row for ops in doc["median_us"].values() for row in ops.values()]
    assert len(cells) == 20 and all(list(row) == ["1"] for row in cells)


def test_law_sweep_replays_the_suite_calls_in_place_of_the_sweep():
    doc = _report(("tools/law_sweep.py", "--suite-calls", "--json"))
    assert "median_us" not in doc
    row = doc["suite_calls"]
    q1, q3 = row["quartiles_ms"]
    assert row["calls"] > 0 and 0 < q1 <= row["median_ms"] <= q3


def test_law_sweep_compares_two_trees_cell_by_cell():
    # this tree against itself: every cell has both medians and their ratio
    src = str(Path(jetframes.__file__).parents[1])
    doc = _report(("tools/law_sweep.py", "--n", "1", "--compare", src,
                   "--rounds", "2", "--json"))
    assert doc["compare"] == src and doc["rounds"] == 2
    cells = [row["1"] for ops in doc["median_us"].values() for row in ops.values()]
    assert len(cells) == 20
    for cell in cells:
        assert cell["this"] > 0 and cell["other"] > 0
        assert cell["ratio"] == round(cell["this"] / cell["other"], 3)


def test_verify_jobs_reports_the_share_of_process_time_in_items():
    # the summed item time over (wall time x processes): items run inside
    # the processes' lifetimes, so the share is at most 1
    doc = _report(("tools/verify_jobs.py", "--rounds", "1", "--trials", "2",
                   "--json"))
    assert {name: row["processes"] for name, row in doc["runs"].items()} == {
        "one core": 1, "default": doc["usable_cpus"]}
    for name, row in doc["runs"].items():
        assert 0 < row["median_item_share"] <= 1, name


def test_startup_reports_the_line_and_byte_counts():
    doc = _report(("tools/startup.py", "--runs", "1", "--json"))
    paths = sorted((ROOT / "src" / "jetframes").glob("*.py"))
    lines = {path.stem: len(path.read_text().splitlines()) for path in paths}
    assert {name: row["lines"] for name, row in doc["modules"].items()} == lines
    code = {path.stem: _code_lines(path.read_text()) for path in paths}
    assert {name: row["code_lines"] for name, row in doc["modules"].items()} == code
    assert doc["package"] == {"lines": sum(lines.values()),
                              "code_lines": sum(code.values()),
                              "bytes": sum(path.stat().st_size for path in paths)}


def _code_lines(text: str) -> int:
    """The lines of ``text`` outside its docstrings (every statement that is
    a string alone), its comments and its blank lines."""
    lines = text.splitlines()
    skip = {number for number, line in enumerate(lines, 1)
            if line.lstrip()[:1] in ("", "#")}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            skip.update(range(node.lineno, node.end_lineno + 1))
    return len(lines) - len(skip)


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
