"""No dead code: every private module-level function, class or constant of
the package is named somewhere in its source other than its own
definition, and every module-level import is read by its module or listed
in its ``__all__``."""

import ast
from pathlib import Path

import riskcounts

SRC = Path(riskcounts.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module):
    """The private names a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and _private(name.id):
                    yield name.id


def _references(tree: ast.Module):
    """Every name a module reads: loaded names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unreferenced(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level definition in ``sources``
    (module name -> source text) that no module references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name not in referenced
    )


def _imports(tree: ast.Module):
    """The names a module's top-level imports bind; star imports and
    ``from __future__`` bind none that need reading."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name


def _exported(tree: ast.Module):
    """The strings of a top-level ``__all__`` list or tuple literal."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    yield elt.value


def _unread_imports(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each name a top-level import of a module in
    ``sources`` binds that the module never reads nor exports."""
    unread = []
    for module, text in sources.items():
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read.update(_exported(tree))
        unread += [f"{module}.{name}" for name in _imports(tree) if name not in read]
    return sorted(unread)


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert _unreferenced(sources) == []


def test_the_guard_finds_a_definition_left_behind():
    source = (
        "_USED = 1\n_LEFT, _ALSO_USED = 2, 3\n"
        "def _helper():\n    return _USED\n"
        "def _orphan(x):\n    _local = x\n    return _local\n"
        "class _Kept:\n    pass\n"
        "__all__ = ['_orphan']\n"
    )
    other = "from m import _helper\nimport m\nm._Kept, m._ALSO_USED\n"
    assert _unreferenced({"m": source, "n": other}) == ["m._LEFT", "m._orphan"]


def test_every_import_is_read_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert _unread_imports(sources) == []


def test_the_guard_finds_an_import_left_behind():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nimport numpy as np\n"
        "from .a import *\nfrom .b import used, kept, left as gone\n"
        "__all__ = ['kept']\n"
        "def f(x: np.ndarray):\n    return used(os.path.sep)\n"
    )
    assert _unread_imports({"m": source}) == ["m.gone", "m.json"]
