"""Every name a package module imports is read in that module, and every
module-level private name a package module defines is read in the package."""

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


def private_names(tree: ast.Module) -> set:
    """Module-level names like `_x` (not dunders) that `tree` binds by def,
    class or assignment."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            bound.add(node.target.id)
    return {name for name in bound
            if name.startswith("_") and not name.startswith("__")}


def test_no_unread_private_names():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    found = {name: sorted(private_names(tree) - read)
             for name, tree in trees.items()}
    assert {name: names for name, names in found.items() if names} == {}
