"""Every name a package module imports is read in that module, every
module-level name a package module defines is read in the package, and
every class member is read by the package or the benchmark's programs."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "cosetcode"
BENCH = Path(__file__).parent.parent / "perfbench"


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


def module_names(tree: ast.Module) -> set:
    """Module-level names, dunders excepted, that `tree` binds by def, class
    or assignment."""
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
    return {name for name in bound if not name.startswith("__")}


def unread_names(trees: dict, private: bool) -> dict:
    """Per module, the private (or public) module-level names that no module
    reads: by a load, an attribute or an import.  The re-exports of
    `__init__.py` are not reads."""
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif (isinstance(node, ast.ImportFrom)
                  and module != "__init__.py"):
                read |= {a.name for a in node.names}
    found = {module: sorted(name for name in module_names(tree) - read
                            if name.startswith("_") == private)
             for module, tree in trees.items()}
    return {module: names for module, names in found.items() if names}


def package_trees() -> dict:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_unread_private_names():
    assert unread_names(package_trees(), private=True) == {}


def test_no_unread_public_names():
    assert unread_names(package_trees(), private=False) == {}


def class_members(tree: ast.Module) -> set:
    """(class, name) of each method, property, classmethod or staticmethod,
    dunders excepted, of a module-level class in `tree`."""
    return {(node.name, item.name)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("__")}


def read_attributes(trees) -> set:
    """Attribute names loaded, and string constants, in any of `trees`: the
    perfbench tracer names the members it wraps by string."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
    return read


def test_no_test_only_class_members():
    """Every class member of the package is read by the package or by the
    benchmark's programs, not by tests alone."""
    trees = package_trees()
    bench = [ast.parse(path.read_text())
             for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")]
    read = read_attributes(list(trees.values()) + bench)
    found = {module: sorted(f"{cls}.{name}"
                            for cls, name in class_members(tree)
                            if name not in read)
             for module, tree in trees.items()}
    assert {module: names for module, names in found.items() if names} == {}
