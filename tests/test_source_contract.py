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
