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

import pytest

from jetframes import _scaled

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's ``spans`` and ``ops_large`` modules, imported as the
    benchmark imports them (its directory first on the path)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "ops_large", "timing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("spans"), importlib.import_module("ops_large")
    for name in ("spans", "ops_large", "timing"):
        sys.modules.pop(name, None)


def test_kernel_and_conversion_names_exist(bench):
    spans, _ = bench
    missing = [name for name in (*spans.KERNEL_FNS, *spans.CONVERT_FNS)
               if not callable(getattr(_scaled, name, None))]
    assert missing == []


def test_traced_classes_exist_and_are_dataclasses(bench):
    spans, _ = bench
    for layer, names in spans._CLASSES.items():
        module = importlib.import_module(f"jetframes.{layer}")
        for name in names:
            cls = getattr(module, name, None)
            assert isinstance(cls, type), f"{layer}.{name}"
            assert dataclasses.is_dataclass(cls), f"{layer}.{name}"


def test_ops_large_operations_resolve(bench):
    _, ops_large = bench
    missing = [f"{mod.__name__}.{name}" for mod, name in ops_large.OPS
               if not callable(getattr(mod, name, None))]
    assert missing == []


def test_module_layers_name_real_modules(bench):
    spans, _ = bench
    # found, not imported: importing ``jetframes.__main__`` runs the CLI
    missing = [name for name in spans.MODULE_LAYER
               if importlib.util.find_spec(name) is None]
    assert missing == []
