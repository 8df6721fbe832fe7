"""The package's one memo policy: ``lru_cache`` tables, flushed together.

Every memo (partition tables, Mobius values, identity matrices, block
traces, word traces and their integer numerators, matrix-block cumulants,
compiled Monte Carlo word plans, the centering table ``freeprob._moment``,
the Monte Carlo trial draw) is a function decorated with :func:`memo`; no
module caches outside this registry, so ``cache_info()`` of the tables in
``_MEMOS`` sees them all.  Arguments must be hashable; the tables grow
without a bound for the life of the process, or until :func:`clear_all`
empties every one of them at once.  Tests that monkeypatch a formula call
``clear_all`` first, otherwise stale entries would mask the patch.

Word-keyed tables (``model._tau``, ``rmt._compile_plan``) validate a word
inside the memoised body, so only a miss pays for it, and a call that
raises stores nothing: an error is never memoised, and a bad word raises
on every call.  A word with an unhashable letter fails the lookup itself
with ``TypeError``; its caller catches that and validates the word, to
raise the same ``ConfigError`` as any other bad word.

One table is bounded: ``rmt._trial_draw`` keeps a single entry
(``maxsize=1``).  Its values are a trial's Gaussian block and Gram blocks,
megabytes each, and every new (config, trial) is a new key, so an
unbounded table would keep every trial of a sweep alive.
"""
from __future__ import annotations

from functools import lru_cache

_MEMOS: list = []


def memo(fn=None, *, maxsize: int | None = None):
    """Memoise ``fn`` and register it with clear_all.

    Used bare (``@memo``) the table has no size bound; ``@memo(maxsize=k)``
    keeps the k most recently used entries.
    """
    if fn is None:
        return lambda f: memo(f, maxsize=maxsize)
    cached = lru_cache(maxsize=maxsize)(fn)
    _MEMOS.append(cached)
    return cached


def clear_all() -> None:
    """Empty every memo table in the package."""
    for cached in _MEMOS:
        cached.cache_clear()
