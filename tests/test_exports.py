"""Every name a module exports resolves."""
import importlib

import pytest

MODULES = ["ellcob", "ellcob.algebra", "ellcob.cli", "ellcob.cobordism", "ellcob.genera", "ellcob.manifolds"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)

