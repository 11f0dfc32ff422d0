"""Source hygiene: every name a module imports is read somewhere in it.

The package modules (``__init__.py`` re-exports by design, so it is left
out) and the test files are parsed with ``ast``; an imported name that no
``Name`` node of the file loads is an unused import.  ``__future__``
imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([p for p in (ROOT / "src" / "degenlab").glob("*.py") if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py")))


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
