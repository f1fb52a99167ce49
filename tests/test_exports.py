import ast
import importlib
from pathlib import Path

import pytest

import algebroid


@pytest.mark.parametrize("module", [
    "algebroid", "algebroid.exprjet", "algebroid.spec_model",
    "algebroid.calculus", "algebroid.freealg", "algebroid.foliation",
    "algebroid.cli",
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [name for name in names if not hasattr(mod, name)] == []


def _numpy_paths(tree):
    """Every dotted numpy path the module names: its imports from numpy, and
    each attribute chain on ``numpy`` or ``np``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names
                        if alias.name.split(".")[0] == "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "numpy"):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                chain.append(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in ("numpy", "np"):
                yield ".".join([node.value.id, *reversed(chain)])


def test_no_module_names_a_private_numpy_name():
    # a name with one leading underscore is numpy's own, and may move in any release
    private = [f"{path.name}: {dotted}"
               for path in sorted(Path(algebroid.__file__).parent.glob("*.py"))
               for dotted in _numpy_paths(ast.parse(path.read_text(encoding="utf-8")))
               if any(part.startswith("_") and not part.startswith("__")
                      for part in dotted.split("."))]
    assert private == []


def _private_imports(tree):
    """Each underscore name the module takes from another algebroid module:
    by ``from .m import _name``, or as ``m._name`` on a module it imported."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (
                node.module or "").split(".")[0] == "algebroid"):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield f"{node.module or '.'}.{alias.name}"
                if node.module in (None, "algebroid"):     # a module of the package
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "algebroid")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            yield f"{node.value.id}.{node.attr}"


def test_no_module_imports_another_modules_private_name():
    # a module's underscore names are its own; what another module needs is public
    private = [f"{path.name}: {name}"
               for path in sorted(Path(algebroid.__file__).parent.glob("*.py"))
               for name in _private_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert private == []
