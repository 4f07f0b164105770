"""The names the benchmark looks up in the package still exist.

``perfbench`` finds the functions and classes it traces and times by name;
a refactor that drops or renames one breaks ``perfbench/run.py --trace 1``
without failing any other test.  This reads the benchmark's tables without
installing its tracer.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from jetframes import _scaled
from jetframes.suites import SUITES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_MODULES = ("spans", "ops_large", "sweep", "timing")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``spans``, ``ops_large`` and ``sweep`` modules, imported
    as the benchmark imports them (its directory first on the path)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in _MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield SimpleNamespace(**{name: importlib.import_module(name)
                             for name in ("spans", "ops_large", "sweep")})
    for name in _MODULES:
        sys.modules.pop(name, None)


def test_kernel_and_conversion_names_exist(bench):
    spans = bench.spans
    missing = [name for name in (*spans.KERNEL_FNS, *spans.CONVERT_FNS)
               if not callable(getattr(_scaled, name, None))]
    assert missing == []


def test_traced_classes_exist_and_are_dataclasses(bench):
    spans = bench.spans
    for layer, names in spans._CLASSES.items():
        module = importlib.import_module(f"jetframes.{layer}")
        for name in names:
            cls = getattr(module, name, None)
            assert isinstance(cls, type), f"{layer}.{name}"
            assert dataclasses.is_dataclass(cls), f"{layer}.{name}"


def test_traced_functions_exist(bench):
    missing = []
    for layer, names in bench.spans._FUNCTIONS.items():
        module = importlib.import_module(f"jetframes.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []


def test_sweep_times_every_listed_call(bench):
    calls, _, _ = bench.sweep._calls(1, 1)
    assert set(bench.sweep.FUNCS) <= set(calls)


def test_suite_properties_are_dataclasses_with_name_and_fn():
    # the tracer replaces each property's ``fn`` in place
    for suite in SUITES.values():
        for prop in suite.properties:
            assert dataclasses.is_dataclass(prop), f"{suite.name}.{prop}"
            assert [f.name for f in dataclasses.fields(prop)] == ["name", "fn"]


def test_ops_large_operations_resolve(bench):
    missing = [f"{mod.__name__}.{name}" for mod, name in bench.ops_large.OPS
               if not callable(getattr(mod, name, None))]
    assert missing == []


def test_module_layers_name_real_modules(bench):
    # found, not imported: importing ``jetframes.__main__`` runs the CLI
    missing = [name for name in bench.spans.MODULE_LAYER
               if importlib.util.find_spec(name) is None]
    assert missing == []
