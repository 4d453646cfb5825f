"""Every name a package module imports is used in that module.

A second route moved out of ``src/`` leaves no import behind: each module
of the package except ``__init__`` (whose imports are its re-exports) is
parsed, and every name bound by an import must be read somewhere in it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "snrecoupling"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text()) == []


def test_an_unused_import_is_reported():
    source = "from .repsym import character, represent\n\nprint(character)\n"
    assert unused_imports(source) == ["represent (line 1)"]
