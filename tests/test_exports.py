import importlib

import pytest


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
