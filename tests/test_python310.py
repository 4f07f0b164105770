"""The package declares ``requires-python = ">=3.10"``: a static check that
the code of ``src/`` and ``tools/`` keeps to Python 3.10, whatever
interpreter runs the tests.

Every file must parse with the 3.10 grammar, name none of a short list of
library names added after 3.10, and, where it imports ``re``, hold no
possessive repeat or atomic group, which ``re`` gained in 3.11.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tools").rglob("*.py"))

# names added after Python 3.10: whole modules, (module, attribute) pairs and
# builtins
NEW_MODULES = {"tomllib"}
NEW_ATTRIBUTES = {("contextlib", "chdir"), ("itertools", "batched"),
                  ("typing", "Self"), ("enum", "StrEnum")}
NEW_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}
NEWER_REGEX = re.compile(r"[*+?}]\+|\(\?>")


def _newer_names(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in NEW_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if node.module in NEW_MODULES:
                found.append(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names
                      if (node.module, a.name) in NEW_ATTRIBUTES]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in NEW_ATTRIBUTES:
                found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEW_BUILTINS:
            found.append(node.id)
    return found


def _imports_re(tree: ast.AST) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "re" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "re"
               for node in ast.walk(tree))


def _newer_regex(tree: ast.AST) -> list[str]:
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and NEWER_REGEX.search(node.value)]


def test_the_check_covers_the_package_and_the_tools():
    names = {path.name for path in FILES}
    assert {"_scaled.py", "rational.py", "cli.py", "law_sweep.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_file_keeps_to_python_3_10(path):
    tree = ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    assert _newer_names(tree) == []
    if _imports_re(tree):
        assert _newer_regex(tree) == []


def test_the_check_refuses_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))


@pytest.mark.parametrize("source", [
    "import tomllib\n",
    "from contextlib import chdir\n",
    "import itertools\nitertools.batched([], 2)\n",
    "from typing import Self\n",
    "import enum\nenum.StrEnum\n",
    "raise ExceptionGroup('x', [])\n",
])
def test_the_check_refuses_newer_names(source):
    assert _newer_names(ast.parse(source, feature_version=(3, 10)))


@pytest.mark.parametrize("pattern", ["a*+", "a++", "a?+", "a{2}+", "(?>a)"])
def test_the_check_refuses_newer_regex_syntax(pattern):
    tree = ast.parse(f"import re\nre.search({pattern!r}, '')\n")
    assert _imports_re(tree) and _newer_regex(tree) == [pattern]
