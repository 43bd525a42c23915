"""Properties of the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pencilorbits"


def test_no_assert_statements():
    # `python -O` strips asserts, so no check in the library may be one
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_no_cross_module_private_access():
    # a module's _names are its own: no other library module may read one,
    # neither as `mod._name` nor through `from .mod import _name`
    modules = {path.stem for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [a.name for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                names = [node.attr] if node.attr.startswith("_") else []
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names]
    assert not found, found


def test_no_unused_imports():
    # every name a library module imports is read somewhere in that module;
    # the package __init__ is exempt, as its imports are its re-exports
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]
    assert not found, found
