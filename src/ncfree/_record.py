"""One frozen base for every value class of the package; it imports nothing.

A :class:`Record` refuses assignment and deletion, and compares, hashes,
prints and pickles by its fields.  The standard library's record decorator
loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, which costs a fresh
process more than most CLI ops compute.  The value classes are
``ncpart.NonCrossingPartition`` (which keeps its own repr),
``model.ModelParams``, ``model.ModelLetter``, ``model.PiTermBreakdown``,
``freeprob.FreeProduct``, ``freeprob.FreenessReport``, ``factors.Summand``,
``factors.FactorDescription``, ``rmt.SimulationConfig``,
``rmt.MomentEstimate`` and ``verify.CheckResult``.
"""
from __future__ import annotations


class Record:
    """Base of a frozen ``__slots__`` class whose fields are ``_fields``.

    A subclass lists its slots and its fields (usually the same names),
    validates its arguments in ``__init__`` and stores them with ``_set``.
    Equality holds between instances of one class with equal fields; the
    hash is that of the field tuple; the repr reads ``Name(field=value,
    ...)``; a copy or an unpickled instance is rebuilt through ``__init__``
    with the fields as positional arguments.
    """
    __slots__ = ()
    _fields: tuple = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
