"""Every name a package exports in ``__all__`` has to exist, so that a
deleted member cannot linger in an export list."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["eisenlab.corering", "eisenlab.hecke", "eisenlab.massey"])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
