"""Every name a module exports resolves, so no export outlives its code."""
import importlib

import pytest


@pytest.mark.parametrize("module", ["ncfree", "ncfree.rmt", "ncfree.verify"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
