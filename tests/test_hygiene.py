"""Source hygiene: every name a module imports is read somewhere in it,
and every public definition of the package is reached by the product.

The package modules (``__init__.py`` re-exports by design, so it is left
out) and the test files are parsed with ``ast``; an imported name that no
``Name`` node of the file loads is an unused import.  ``__future__``
imports are directives, not names.  A public module-level function or
class, or a public method, of a package module is reached when its name
is a ``Name`` or an ``Attribute`` in some package module or in the
acceptance tests: code that only its own unit tests call is dead product
code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "degenlab").glob("*.py") if p.name != "__init__.py")
FILES = MODULES + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds `c`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_flags_a_leftover_enum_import():
    source = "from enum import Enum\nimport numpy as np\n\nx = np.zeros(3)\n"
    assert unused_imports(source) == [(1, "Enum")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def public_definitions(source):
    """(qualified name, name) of each public module-level function or class
    and of each public method of a module-level class."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def referenced_names(source):
    """Every identifier the module uses as a name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_scan_flags_an_unreached_method():
    source = ("class A:\n    def used(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n\n"
              "    def _private(self):\n        pass\n\n\ndef f():\n    return A().used()\n")
    reached = referenced_names(source)
    assert [q for q, name in public_definitions(source) if name not in reached] == ["A.unused", "f"]


def test_public_definitions_are_reached_by_the_product():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    reached = set().union(*map(referenced_names, sources + [
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")]))
    unreached = [q for source in sources for q, name in public_definitions(source)
                 if name not in reached]
    assert unreached == []


def defaulted_parameters(source):
    """(qualified name, name, parameter, position) of each defaulted
    parameter of a public module-level function or public method of a
    module-level class; position counts the positional arguments of a call
    (a method's self or cls is not one), None for keyword-only."""
    found = []
    for node in ast.parse(source).body:
        defs = [(node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{item.name}", item, 1) for item in node.body
                    if isinstance(item, ast.FunctionDef)]
        for qualified, fn, skip in defs:
            if fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found += [(qualified, fn.name, arg.arg, i - skip)
                      for i, arg in enumerate(positional[first:], first)]
            found += [(qualified, fn.name, arg.arg, None)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def passed_arguments(source):
    """name -> (keywords, positional count) of every call of the module,
    one entry per call.  A call is named by its attribute or by its name,
    with import aliases resolved; a starred argument passes every position,
    and ``**`` every keyword ("**")."""
    tree = ast.parse(source)
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = aliases.get(func.id, func.id)
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        count = float("inf") if starred else len(node.args)
        keywords = {kw.arg or "**" for kw in node.keywords}
        calls.setdefault(name, []).append((keywords, count))
    return calls


def unused_options(sources, callers=()):
    """qualified name(parameter) of each defaulted parameter of the sources'
    public definitions that no call of the sources or the callers passes."""
    calls = {}
    for source in [*sources, *callers]:
        for name, found in passed_arguments(source).items():
            calls.setdefault(name, []).extend(found)
    return [f"{qualified}({param})" for source in sources
            for qualified, name, param, pos in defaulted_parameters(source)
            if not any(param in kw or "**" in kw or (pos is not None and count > pos)
                       for kw, count in calls.get(name, []))]


def test_scan_flags_an_unused_option():
    source = ("from x import g as h\n\n\n"
              "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
              "def g(a=1):\n    pass\n\n\n"
              "def _p(a=1):\n    pass\n\n\n"
              "class A:\n    def m(self, a=1, b=2):\n        pass\n\n\n"
              "f(0, 1, d=5)\nh(2)\nA().m(1)\n")
    assert unused_options([source]) == ["f(c)", "f(e)", "A.m(b)"]


def test_every_option_is_passed_by_the_product():
    # a defaulted parameter that neither the package nor the acceptance
    # tests ever pass is an option nothing uses
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert unused_options(sources, [acceptance]) == []


def imported_modules(source):
    """Every module an import statement of the source names, with the
    submodules a ``from`` import may bind (``from a import b`` names a and a.b)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_only_the_eigensolve_imports_sparse_solvers():
    # the theta scheme factors its tridiagonal matrix with LAPACK; only the
    # shift-invert eigensolve needs splu and ARPACK
    importers = [p.name for p in MODULES
                 if "scipy.sparse.linalg" in imported_modules(p.read_text(encoding="utf-8"))]
    assert importers == ["spectral.py"]
