"""The package's one memo policy: unbounded ``lru_cache`` tables, flushed together.

Every package-level memo (partition tables, Mobius values, block traces,
word traces, the centering engines) is a function decorated with
:func:`memo`.  Arguments must be hashable; the tables grow without a bound
for the life of the process, or until :func:`clear_all` empties every one
of them at once.  Tests that monkeypatch a formula call ``clear_all`` first,
otherwise stale entries would mask the patch.
"""
from __future__ import annotations

from functools import lru_cache

_MEMOS: list = []


def memo(fn):
    """Memoise ``fn`` without a size bound and register it with clear_all."""
    cached = lru_cache(maxsize=None)(fn)
    _MEMOS.append(cached)
    return cached


def clear_all() -> None:
    """Empty every memo table in the package."""
    for cached in _MEMOS:
        cached.cache_clear()
