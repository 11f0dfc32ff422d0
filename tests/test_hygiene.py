"""Source hygiene: every name a module imports is read somewhere in it,
and every public definition of the package is reached by the product.

The package modules (``__init__.py`` re-exports by design, so it is left
out), the test files and the benchmark's files are parsed with ``ast``; an
imported name that no ``Name`` node of the file loads is an unused import.
``__future__`` imports are directives, not names.  A public module-level
function or class, or a public method, of a package module is reached when
its name is a ``Name`` or an ``Attribute`` in some package module: code
that only tests call, the acceptance tests included, belongs in the tests.
Likewise every field of a package dataclass is read as an attribute by
some package module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "degenlab").glob("*.py") if p.name != "__init__.py")
FILES = (MODULES + sorted((ROOT / "tests").glob("*.py"))
         + sorted((ROOT / "perfbench").glob("*.py")))


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


def unreached(sources):
    """Qualified name of each public definition of the sources that no
    source names."""
    reached = set().union(*map(referenced_names, sources))
    return [q for source in sources for q, name in public_definitions(source)
            if name not in reached]


def test_scan_flags_an_unreached_method():
    source = ("class A:\n    def used(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n\n"
              "    def _private(self):\n        pass\n\n\ndef f():\n    return A().used()\n")
    assert unreached([source]) == ["A.unused", "f"]


def test_scan_flags_a_definition_only_tests_reach():
    product = ("def run():\n    return helper()\n\n\ndef helper():\n    pass\n\n\n"
               "def check():\n    pass\n\n\nrun()\n")
    test = "from m import check\n\n\ndef test_check():\n    check()\n"
    assert "check" in referenced_names(test)
    assert unreached([product]) == ["check"]


def test_public_definitions_are_reached_by_the_product():
    # only the package counts: a definition that only tests reach is flagged
    assert unreached([p.read_text(encoding="utf-8") for p in MODULES]) == []


def is_dataclass(node):
    """Whether a class definition carries @dataclass or
    @dataclasses.dataclass, called or not."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(ast.unparse(t) in ("dataclass", "dataclasses.dataclass") for t in targets)


def record_fields(source):
    """(qualified name, name) of each annotated field of each module-level
    dataclass; ClassVar annotations are class constants, not fields."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and is_dataclass(node):
            found += [(f"{node.name}.{item.target.id}", item.target.id) for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and not ast.unparse(item.annotation).split("[")[0].endswith("ClassVar")]
    return found


def unread_fields(sources):
    """Qualified name of each dataclass field of the sources that no source
    reads as an attribute; a store (``obj.field = value``) is no read."""
    read = {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [q for source in sources for q, name in record_fields(source) if name not in read]


def test_scan_flags_an_unread_field():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "from typing import ClassVar\n\n\n"
              "@dataclass(frozen=True)\nclass A:\n    used: int\n    unused: float\n"
              "    k: ClassVar[int] = 1\n\n\n"
              "@dataclasses.dataclass\nclass B:\n    written: int\n\n\n"
              "class C:\n    plain: int\n\n\n"
              "def f(a, b):\n    b.written = a.used\n")
    assert unread_fields([source]) == ["A.unused", "B.written"]


def test_every_record_field_is_read_by_the_product():
    # a field that no package code reads is a value computed for nothing
    assert unread_fields([p.read_text(encoding="utf-8") for p in MODULES]) == []


def public_parameters(source):
    """(qualified name, name, parameter, position, default) of each
    parameter of a public module-level function or public method of a
    module-level class; position counts the positional arguments of a call
    (a method's self or cls is not one), None for keyword-only, and default
    is the default's ast node, None for a required parameter."""
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
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            found += [(qualified, fn.name, arg.arg, i - skip, default)
                      for i, (arg, default) in enumerate(zip(positional, defaults)) if i >= skip]
            found += [(qualified, fn.name, arg.arg, None, default)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
    return found


def passed_arguments(source):
    """name -> (positional arguments, keyword arguments by name) of every
    call of the module, as ast nodes, one entry per call.  A call is named
    by its attribute or by its name, with import aliases resolved; a
    ``**`` argument is the keyword "**"."""
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
        keywords = {kw.arg or "**": kw.value for kw in node.keywords}
        calls.setdefault(name, []).append((node.args, keywords))
    return calls


def all_calls(sources):
    """passed_arguments of the sources together."""
    calls = {}
    for source in sources:
        for name, found in passed_arguments(source).items():
            calls.setdefault(name, []).extend(found)
    return calls


def unpacks(call):
    """Whether a call passes a * or ** argument."""
    args, keywords = call
    return "**" in keywords or any(isinstance(a, ast.Starred) for a in args)


def unused_options(sources, callers=()):
    """qualified name(parameter) of each defaulted parameter of the sources'
    public definitions that no call of the sources or the callers passes;
    a * argument passes every position and a ** argument every keyword."""
    calls = all_calls([*sources, *callers])
    return [f"{qualified}({param})" for source in sources
            for qualified, name, param, pos, default in public_parameters(source)
            if default is not None
            and not any(unpacks(call) or param in call[1]
                        or (pos is not None and len(call[0]) > pos)
                        for call in calls.get(name, []))]


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


def is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def always_none(sources, callers=()):
    """qualified name(parameter) of each parameter of the sources' public
    definitions that every call of the sources or the callers passes as the
    literal None; a call that leaves the parameter out passes its default,
    and calls with a * or ** argument are left out."""
    calls = all_calls([*sources, *callers])
    flagged = []
    for source in sources:
        for qualified, name, param, pos, default in public_parameters(source):
            passed = [keywords[param] if param in keywords
                      else args[pos] if pos is not None and pos < len(args) else default
                      for args, keywords in calls.get(name, [])
                      if not unpacks((args, keywords))]
            if passed and all(map(is_none, passed)):
                flagged.append(f"{qualified}({param})")
    return flagged


def test_scan_flags_an_always_none_parameter():
    source = ("from x import g as h\n\n\n"
              "def f(a, b, c=None, *, d=None):\n    pass\n\n\n"
              "def g(a):\n    pass\n\n\n"
              "def _p(a):\n    pass\n\n\n"
              "class A:\n    def m(self, a, b=None):\n        pass\n\n\n"
              "f(1, None)\nf(2, b=None, c=None, d=3)\nf(*x)\nf(3, 4, **k)\n"
              "h(None)\n_p(None)\nA().m(None)\nA().m(None, b=1)\n")
    assert always_none([source]) == ["f(b)", "f(c)", "g(a)", "A.m(a)"]


def test_no_parameter_is_always_none():
    # a parameter that the package and the acceptance tests only ever pass
    # as None is a code path nothing uses
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert always_none(sources, [acceptance]) == []


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


def importers(package):
    """Stem of each package module that imports the package or one of its
    submodules."""
    return [p.stem for p in MODULES
            if any(m == package or m.startswith(package + ".")
                   for m in imported_modules(p.read_text(encoding="utf-8")))]


def test_only_the_eigensolve_imports_sparse_solvers():
    # the theta scheme factors its tridiagonal matrix with LAPACK; only the
    # shift-invert eigensolve needs splu and ARPACK
    assert importers("scipy.sparse.linalg") == ["spectral"]


def test_scipy_is_imported_only_by_the_operators_theta_step_and_eigensolve():
    # the delta sweep refines its 2:1 nested axes by midpoints and the flux
    # Gram's eigenpairs come from numpy; sparse matrices stay with the
    # assembled operators and the eigensolve
    assert importers("scipy") == ["discretize", "evolution", "spectral"]
    assert importers("scipy.sparse") == ["discretize", "spectral"]
