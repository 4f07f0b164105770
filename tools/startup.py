"""What a ``jetframes`` process spends on start-up, module by module.

Per package module: its lines, its code lines (those left without
docstrings, comments and blank lines) and its bytes (and the package's
totals of the three), the median ms of compiling it, the KB that compile
adds to a fresh interpreter's peak RSS, and the median ms of executing its
compiled body once the package is imported (so the modules it imports are
loaded, and what is timed is its own class statements, function definitions
and tables; ``__main__`` is not executed, since it runs the CLI).  Per
fresh process (one that imports ``jetframes.cli``, one ``gen hat2 --n 2``):
the median wall ms, the median CPU ms (user plus system time from
``wait4``), the ``wait4`` peak RSS, the package modules it loads, and the
other modules it loads beyond a bare ``python -c pass``, so a heavy import
that comes back shows.  Children run in the environment as given, with this
checkout's ``src`` first on ``PYTHONPATH`` (with
``PYTHONDONTWRITEBYTECODE`` set, every process compiles the package).  This
process compiles none of it, so its own peak, which Linux also counts in a
spawned child's, stays below the children's.

Run from anywhere::

    python3 tools/startup.py [--runs 5] [--json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

# Run in a fresh interpreter: the median compile ms of the file argv[1] over
# argv[3] compiles, the KB the first compile adds to the peak RSS, and the
# median ms of executing it as a fresh copy of module argv[2] over argv[3]
# runs (null for ``__main__``).
_COMPILE = """
import importlib.util, json, resource, statistics, sys, time
path, name, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
src = open(path).read()
before, ms = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, []
for _ in range(runs):
    start = time.perf_counter()
    code = compile(src, path, "exec")
    ms.append((time.perf_counter() - start) * 1e3)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
exec_ms = []
if not name.endswith("__main__"):
    import jetframes.cli, jetframes.suites
    spec = importlib.util.find_spec(name)
    for _ in range(runs):
        module = importlib.util.module_from_spec(spec)
        start = time.perf_counter()
        exec(code, module.__dict__)
        exec_ms.append((time.perf_counter() - start) * 1e3)
print(json.dumps([statistics.median(ms), rss,
                  statistics.median(exec_ms) if exec_ms else None]))
"""

PROCESSES = {"import jetframes.cli": ["-c", "import jetframes.cli"],
             "gen hat2 --n 2": ["-m", "jetframes", "gen", "hat2", "--n", "2"]}


_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING}


def _code_lines(path: Path) -> int:
    """The lines of ``path`` that hold a token of a statement, where a
    statement of strings alone (a docstring) holds none."""
    lines, statement = set(), []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _SKIP:
                statement.append(tok)
    return len(lines)


def _loaded(argv: list[str]) -> set[str]:
    """The modules a fresh ``python *argv`` imports, by ``-X importtime``."""
    trace = subprocess.run([sys.executable, "-X", "importtime", *argv], env=ENV,
                           check=True, capture_output=True, text=True).stderr
    return {line.split("|")[-1].strip() for line in trace.splitlines()}


def _process(argv: list[str], runs: int, bare: set[str]) -> dict:
    walls, cpus, peaks = [], [], []
    for _ in range(runs):
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], ENV,
                             file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull,
                                            os.O_WRONLY, 0)])
        _, status, usage = os.wait4(pid, 0)
        walls.append((time.perf_counter() - start) * 1e3)
        cpus.append((usage.ru_utime + usage.ru_stime) * 1e3)
        peaks.append(usage.ru_maxrss)
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {status}")
    loaded = _loaded(argv)
    ours = {m for m in loaded if m.split(".")[0] == "jetframes"}
    return {"wall_ms": round(statistics.median(walls), 1),
            "cpu_ms": round(statistics.median(cpus), 1),
            "peak_rss_kb": statistics.median(peaks),
            "modules": sorted(ours),
            "extra_modules": sorted(loaded - bare - ours)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    modules = {}
    for path in sorted((SRC / "jetframes").glob("*.py")):
        name = "jetframes" if path.stem == "__init__" else f"jetframes.{path.stem}"
        out = subprocess.run([sys.executable, "-c", _COMPILE, str(path), name,
                              str(args.runs)], env=ENV, check=True,
                             capture_output=True, text=True).stdout
        compile_ms, rss, exec_ms = json.loads(out)
        modules[path.stem] = {"lines": len(path.read_bytes().splitlines()),
                              "code_lines": _code_lines(path),
                              "bytes": path.stat().st_size,
                              "compile_ms": round(compile_ms, 2),
                              "compile_rss_kb": rss,
                              "exec_ms": None if exec_ms is None else round(exec_ms, 2)}
    bare = _loaded(["-c", "pass"])
    doc = {"python": sys.version.split()[0], "runs": args.runs,
           "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
           "modules": modules,
           "package": {key: sum(row[key] for row in modules.values())
                       for key in ("lines", "code_lines", "bytes")},
           "processes": {name: _process(argv, args.runs, bare)
                         for name, argv in PROCESSES.items()}}
    if args.json:
        print(json.dumps(doc, indent=1))
        return 0
    for name, row in {**modules, "package": doc["package"],
                      **doc["processes"]}.items():
        print(f"{name:<20}", *(f"{key} {value}" for key, value in row.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
