"""Static checks of the package source, with the standard library only.

Each module of `src/tugame` must read every name it imports: an import
left behind by a deletion is found here, not by a reader."""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "tugame").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads as a `Name`. The
    `__future__` name `annotations` and the names listed in `__all__` are
    exempt."""
    tree = ast.parse(source)
    imported, read, exempt = set(), set(), {"annotations"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exempt.update(ast.literal_eval(node.value))
    return sorted(imported - read - exempt)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from json import dumps as write, loads\n"
        "from .game import TUGame\n"
        "__all__ = ['TUGame']\n"
        "def f(x: int) -> None:\n"
        "    import re\n"
        "    print(sys.argv, loads(x))\n"
    )
    assert unused_imports(source) == ["os", "re", "write"]
