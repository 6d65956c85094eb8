"""Every name a ``ballmaps`` module imports is read somewhere in that module.

``__init__.py`` is skipped: it imports names to export them.  ``from
__future__`` imports switch compiler behaviour and bind nothing that is read.
The modules are parsed, not run.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ballmaps"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in loaded]


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau\nfrom __future__ import annotations\nprint(pi)\n"
    assert _unused_imports(source) == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    unused = _unused_imports((PACKAGE / module).read_text())
    assert not unused, f"ballmaps/{module} imports names it never reads: {unused}"
