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
