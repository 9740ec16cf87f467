"""Every name a module of the package imports is used in that module.

Neither pyflakes nor ruff is assumed to be installed, so this parses each
``catsl2`` module with ``ast``.  A name counts as used if it occurs as a
``Name`` node anywhere in the module.  ``__init__`` is exempt (its imports
are the package's re-exports), and so is ``from __future__ import
annotations``.
"""

import ast
from pathlib import Path

import catsl2

PACKAGE = Path(catsl2.__file__).resolve().parent


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert _unused_imports(source) == [(1, "path"), (2, "sys")]


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert not any(unused.values()), {k: v for k, v in unused.items() if v}
