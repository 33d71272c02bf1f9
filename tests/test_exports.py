"""Every name a public module lists in ``__all__`` must exist."""

import importlib

import pytest


@pytest.mark.parametrize("module", [
    "glocal", "glocal.coupling", "glocal.cli", "glocal.model_problems",
    "glocal.condensation", "glocal.solvers", "glocal.async_engine",
    "glocal.spectral", "glocal.scenarios"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
