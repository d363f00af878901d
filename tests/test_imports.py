"""Every name a package module imports is read in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "cosetcode"


def unused_imports(path: Path) -> list:
    """Names bound by import statements (not `__future__`) and never read."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_unused_imports():
    found = {path.name: unused_imports(path)
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
