"""Shared fixtures."""
import os
from pathlib import Path

import pytest

import ncfree


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports this ncfree checkout."""
    src = str(Path(ncfree.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)
