"""Import checks over the package, the study scripts and the tests.

No linter is among the test dependencies, so this reads each module's
syntax tree: every name an import binds must be read somewhere in the
module, or be listed in its `__all__`; and no module of the package
imports scipy, whose only use, pocketfft's extension, `_pocketfft` loads
without an import statement.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "velofilt").glob("*.py"))
MODULES = (PACKAGE
           + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """'name (line n)' for each imported name the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from json import dumps as d, loads\n"
              "__all__ = ['loads']\n"
              "x: d = os.path.sep\n")
    assert unused_imports(source) == ["math (line 2)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def scipy_imports(source: str) -> list[str]:
    """'module (line n)' for each import of scipy or a submodule of it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] == "scipy"]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_checker_finds_scipy_imports():
    source = ("import scipyx, os\n"
              "from . import _pocketfft\n"
              "def f():\n"
              "    import scipy.fft\n"
              "    from scipy import signal\n"
              "import numpy as np, scipy\n")
    assert scipy_imports(source) == ["scipy.fft (line 4)",
                                     "scipy (line 5)", "scipy (line 6)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_no_scipy(path):
    # `import scipy.fft` costs about 0.14 s and 20 MB of every process that
    # transforms; _pocketfft loads pocketfft's extension on its own
    assert scipy_imports(path.read_text()) == []
