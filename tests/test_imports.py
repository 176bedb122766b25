"""Import and dead-name checks over the package, the study scripts and
the tests.

No linter is among the test dependencies, so this reads each module's
syntax tree: every name an import binds must be read somewhere in the
module, or be listed in its `__all__`; no module of the package imports
scipy, whose only use, pocketfft's extension, `_pocketfft` loads without
an import statement; and every top-level function or class of the package,
and every method or property of such a class, is read by the package, a
study script or the benchmark's tracer, not by the tests alone; and each
defaulted parameter of such a function or method is passed by some call
in the package, the scripts or the tests.
"""

import ast
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "velofilt").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = PACKAGE + SCRIPTS + sorted((ROOT / "tests").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"


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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _reads(node) -> set[str]:
    """Names a subtree reads: Name ids, attribute names and the string
    entries of an `__all__` assignment."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif (isinstance(sub, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in sub.targets)):
            read |= {e.value for e in sub.value.elts
                     if isinstance(e, ast.Constant)}
    return read


def _attribute_reads(node) -> set[str]:
    """Attribute names a subtree reads (loads, not stores)."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)}


def dead_names(package: dict[str, str], readers: list[str],
               strings: list[str]) -> list[str]:
    """'module.name' for each top-level function or class of the package
    modules (name -> source), and 'module.Class.name' for each method or
    property of such a class (dunders excepted), that nothing reads
    outside its own definition: not the package, not the reader sources,
    and, for a top-level name, no string constant of the strings sources.
    A member is read only by an attribute read of its name."""
    read, attrs = set(), set()
    for source in readers:
        tree = ast.parse(source)
        read |= _reads(tree)
        attrs |= _attribute_reads(tree)
    for source in strings:
        read |= {node.value for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Constant)}
    defined = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            own = node.name if isinstance(node, DEFINITIONS) else None
            if own is not None:
                defined.append((f"{module}.{own}", own, read))
            read |= _reads(node) - {own}
            units = node.body if isinstance(node, ast.ClassDef) else [node]
            for unit in units:
                member = None
                if (isinstance(node, ast.ClassDef)
                        and isinstance(unit, FUNCTIONS)
                        and not unit.name.startswith("__")):
                    member = unit.name
                    defined.append((f"{module}.{own}.{member}", member,
                                    attrs))
                attrs |= _attribute_reads(unit) - {member}
    return [label for label, name, seen in defined if name not in seen]


def test_checker_finds_dead_names():
    package = {
        "a": ("__all__ = ['Exported']\n"
              "class Exported:\n"
              "    def __init__(self): self.n = 0\n"
              "    @property\n"
              "    def size(self): return self.n\n"
              "    def unread(self): return self.unread()\n"
              "def used(): return helper()\n"
              "def helper(): return 1\n"
              "def recursive(n): return recursive(n - 1) if n else 0\n"
              "def tested_only(): pass\n"),
        "b": ("import a\n"
              "def traced(): return a.used() + a.Exported().size\n"
              "unread = 1\n")}
    readers = ["from a import used\nused()\n"]
    strings = ["WRAPPED = [('b', 'traced'), ('a', 'unread')]\n"]
    # a Name or a string constant of a member's name is no read of it
    assert dead_names(package, readers, strings) == ["a.Exported.unread",
                                                     "a.recursive",
                                                     "a.tested_only"]


def test_every_package_name_has_a_production_reader():
    # code that only the tests call belongs in tests/
    package = {path.stem: path.read_text() for path in PACKAGE}
    assert dead_names(package, [p.read_text() for p in SCRIPTS],
                      [TRACER.read_text()]) == []


# _pocketfft's fft and ifft are partials of _c2c with the direction bound
# as its first argument
CALL_ALIASES = {"fft": ("_c2c", 1), "ifft": ("_c2c", 1)}


def unpassed_defaults(package: dict[str, str], callers: list[str]
                      ) -> list[str]:
    """'module.function(param)' for each defaulted parameter of a top-level
    function or method of the package modules (name -> source) that no
    call in the callers sources passes, by keyword or by position.

    A call is matched to every definition of the name it calls (a Name or
    an attribute's name), and a method's first parameter is taken as bound.
    A call with **kwargs passes every parameter, one with *args every
    positional one."""
    reach: dict[str, int] = {}
    keywords: dict[str, set] = {}
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            name, bound = CALL_ALIASES.get(name, (name, 0))
            n = bound + len(call.args)
            if any(isinstance(a, ast.Starred) for a in call.args):
                n = math.inf
            reach[name] = max(reach.get(name, 0), n)
            got = keywords.setdefault(name, set())
            got |= {k.arg for k in call.keywords}
    found = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCTIONS):
                units = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                units = [(f"{node.name}.{f.name}", f, 1) for f in node.body
                         if isinstance(f, FUNCTIONS)]
            else:
                continue
            for label, fn, first in units:
                args = fn.args
                positional = args.posonlyargs + args.args
                with_default = [
                    (i, a.arg) for i, a in enumerate(positional)
                    if i >= len(positional) - len(args.defaults)]
                with_default += [(math.inf, a.arg) for a, d in zip(
                    args.kwonlyargs, args.kw_defaults) if d is not None]
                seen = keywords.get(fn.name, set())
                found += [f"{module}.{label}({arg})"
                          for i, arg in with_default
                          if None not in seen and arg not in seen
                          and i - first >= reach.get(fn.name, 0)]
    return found


def test_checker_finds_unpassed_defaults():
    package = {
        "a": ("def f(x, y=1, z=2, *, w=3): pass\n"
              "def g(x, y=1): pass\n"
              "def h(x=0, y=1): pass\n"
              "def _c2c(forward, x, n=None): pass\n"
              "class C:\n"
              "    def m(self, u=0, v=1): pass\n")}
    callers = ["f(0, z=1)\n",
               "import a\na.g(*[1, 2])\n",
               "h(**{})\n",
               "fft(x, 4)\n",
               "C().m(5)\n"]
    assert unpassed_defaults(package, callers) == [
        "a.f(y)", "a.f(w)", "a.C.m(v)"]


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default no caller overrides is a constant, not a parameter
    package = {path.stem: path.read_text() for path in PACKAGE}
    assert unpassed_defaults(
        package, [path.read_text() for path in MODULES]) == []
