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


BENCH = SRC.parent.parent / "bench"
DEMOS = SRC.parent.parent / "demos"
# the paper's named objects: R_f's structure constants, zeta coordinates,
# spans of ideals, the transported construction class, irreducible forms
PAPER_OBJECTS = {"ring_multiply", "to_zeta_coords", "spans_equal", "transported_construction_class", "irreducible_form_count"}


def _module_reads(tree, modules) -> set:
    """(owner, module, name) for each name the tree reads from a library
    module: `from .module import name`, `module.name`, and, for module None
    (this module's own names), a plain `name`.  The owner is the top-level
    definition the read sits in (None at module level)."""
    reads = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                reads |= {(owner, module, a.name) for a in node.names if module in modules}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                reads.add((owner, node.value.id, node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((owner, None, node.id))
    return reads


def _init_imports() -> set:
    """(module, name) for each name the package __init__ imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {(node.module, a.name) for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}


def test_all_lists_the_imported_names():
    # __all__ is what __init__ imports, no more (not the submodules those
    # imports bind as a side effect) and no less
    import pencilorbits

    imported = {name for _, name in _init_imports()}
    assert sorted(pencilorbits.__all__) == sorted(imported)
    assert PAPER_OBJECTS <= imported, PAPER_OBJECTS - imported


def test_public_names_have_a_reader():
    # a public top-level function or class of a library module is declared
    # in __all__, or read by other library code or by the benchmark; a
    # helper that only tests read belongs in tests/conftest.py
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py") if path.stem != "__init__"}
    readers = _init_imports()
    for stem, tree in trees.items():
        for owner, module, name in _module_reads(tree, trees):
            if module or owner != name:  # a definition does not read itself
                readers.add((module or stem, name))
    readers |= {(module, name) for path in BENCH.glob("*.py") for _, module, name in _module_reads(ast.parse(path.read_text()), trees)}
    # the traced run names the functions it wraps by string, module by module
    tracing = ast.parse((BENCH / "tracing.py").read_text())
    traced = next(
        node.value
        for node in tracing.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "TRACED"
    )
    readers |= {(module, name) for module, names in ast.literal_eval(traced).items() for name in names}

    found = [
        f"{stem}.{node.name}"
        for stem, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (stem, node.name) not in readers
    ]
    # a public method (properties and classmethods too) is read as `.name`
    # somewhere in the library, the benchmark or the demos
    attributes_read = {
        node.attr
        for path in [*SRC.glob("*.py"), *BENCH.glob("*.py"), *DEMOS.glob("*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found += [
        f"{stem}.{cls.name}.{node.name}"
        for stem, tree in sorted(trees.items())
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in attributes_read
    ]
    assert not found, found
