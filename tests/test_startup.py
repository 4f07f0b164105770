"""Start-up: only ``verify`` imports ``suites``, the largest module, no
command imports ``dataclasses`` or ``inspect``, and no value type has its
methods generated.

A process that compiles the package from source (``PYTHONDONTWRITEBYTECODE``)
pays compile time and memory for every module it imports, used or not.  It
also runs every class statement.  A value type built by
``matrices.value_type`` is a plain slots class that takes its methods from
``matrices.Value``; a frozen dataclass would write the source of six methods
and compile it with ``exec``, and importing ``dataclasses`` loads ``inspect``
with ``ast``, ``dis`` and ``tokenize``.  ``dataclasses`` builds the metadata
of a value type only when a caller asks for it.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import is_dataclass
from pathlib import Path

import pytest

import jetframes
from jetframes import cli, suites

# The dataclasses of every module of the package, the suite types included.
VALUE_TYPES = sorted(
    (cls for info in pkgutil.iter_modules(jetframes.__path__)
     if info.name != "__main__"
     for cls in vars(importlib.import_module(f"jetframes.{info.name}")).values()
     if isinstance(cls, type) and is_dataclass(cls)
     and cls.__module__ == f"jetframes.{info.name}"),
    key=lambda cls: cls.__qualname__)
METHODS = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
           "__delattr__")

# Runs each argv in the first argument as ``python -m jetframes`` in this one
# process and prints which modules of the second were loaded after each.  The
# entry ends its process with ``os._exit``; here that raises ``SystemExit``
# instead, so the next command runs.
MODULES = ("jetframes.suites", "dataclasses", "inspect")
_RUN = """
import json, os, runpy, sys
commands, names = map(json.loads, sys.argv[1:])
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
loaded = []
for argv in commands:
    sys.argv = ["jetframes", *argv]
    try:
        runpy.run_module("jetframes", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
    loaded.append([name in sys.modules for name in names])
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Per command, from ``gen`` to ``verify``: which of ``MODULES`` one
    process has loaded after running it and every command before it."""
    tmp_path = tmp_path_factory.mktemp("startup")
    env = {**os.environ, "PYTHONPATH": str(Path(jetframes.__file__).parents[1])}
    docs = {"x.json": ["hat2"], "q.json": ["nonhol"],
            "F.json": ["map2jet", "--origin"], "G.json": ["map2jet", "--origin"]}
    for seed, (name, argv) in enumerate(docs.items()):
        proc = subprocess.run([sys.executable, "-m", "jetframes", "gen", *argv,
                               "--n", "2", "--seed", str(seed)],
                              env=env, capture_output=True, text=True, check=True)
        (tmp_path / name).write_text(proc.stdout)
    commands = [["gen", "hat2", "--n", "2"],
                ["op", "inv", "--group", "hat2", "x.json"],
                ["project", "pi", "q.json"],
                ["classify", "q.json"],
                ["decompose", "x.json"],
                ["oracle", "compose", "F.json", "G.json"],
                ["verify", "rbsl1", "--n", "1", "--trials", "1"]]
    proc = subprocess.run([sys.executable, "-c", _RUN, json.dumps(commands),
                           json.dumps(MODULES)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(MODULES, zip(*json.loads(proc.stdout.splitlines()[-1]))))


def test_only_verify_imports_the_suites(loaded):
    assert loaded["jetframes.suites"] == (False,) * 6 + (True,)


@pytest.mark.parametrize("name", ["dataclasses", "inspect"])
def test_no_command_imports(loaded, name):
    assert loaded[name] == (False,) * 7


def test_the_package_serves_the_suite_names():
    from jetframes import ALL_SUITE_NAMES, SuiteReport, run_suite, run_suites

    assert (ALL_SUITE_NAMES, SuiteReport, run_suite, run_suites) == (
        suites.ALL_SUITE_NAMES, suites.SuiteReport, suites.run_suite,
        suites.run_suites)
    assert not hasattr(jetframes, "no_such_name")


def test_the_cli_spells_the_suite_names_in_registry_order():
    assert cli.SUITE_NAMES == suites.ALL_SUITE_NAMES


def test_the_value_types_are_found():
    assert len(VALUE_TYPES) == 21


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_no_value_type_method_is_generated(cls):
    # a method that dataclasses wrote and compiled with ``exec`` has the file
    # name "<string>"; one inherited from ``object`` has no code at all
    for name in METHODS:
        code = getattr(getattr(cls, name), "__code__", None)
        assert code is not None, f"{cls.__name__}.{name} is object's"
        assert code.co_filename != "<string>", f"{cls.__name__}.{name} is generated"
