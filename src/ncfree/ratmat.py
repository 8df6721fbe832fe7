"""Exact matrices over the rationals, stored as nested tuples.

Small helper layer: the moment model only ever needs products, sums, and
traces of n-by-n matrices with Fraction entries, and the matrices must be
hashable so they can key memo tables.  numpy cannot hold exact rationals and
sympy matrices are heavier than needed, hence this module.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

from ._caches import memo
from .errors import ConfigError, WordSyntaxError


def _row(row: Iterable) -> tuple[Fraction, ...]:
    # a string is an entry such as "1/2", never a row of digit entries
    if isinstance(row, str):
        raise TypeError(f"a row cannot be the string {row!r}")
    # a Fraction entry is kept as it is: it is immutable
    return tuple(x if type(x) is Fraction else Fraction(x) for x in row)


def matrix(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    """Build a square matrix of Fractions, or raise ConfigError."""
    try:
        out = tuple(_row(row) for row in rows)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"not a rational matrix: {exc}") from exc
    n = len(out)
    if n == 0 or any(len(row) != n for row in out):
        raise ConfigError(f"expected a square matrix, got rows of sizes "
                          f"{[len(r) for r in out]}")
    return out


@memo
def identity(n: int):
    return tuple(tuple(Fraction(1 if r == c else 0) for c in range(n))
                 for r in range(n))


def matrix_unit(n: int, i: int, j: int):
    """The (i, j) matrix unit of size n; indices are 1-based."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ConfigError(f"matrix unit indices ({i},{j}) out of range for n={n}")
    return tuple(tuple(Fraction(1 if (r, c) == (i - 1, j - 1) else 0)
                       for c in range(n)) for r in range(n))


def cyclic_permutation(n: int):
    """Permutation matrix of the n-cycle, sends basis vector e_k to e_{k+1}."""
    return tuple(tuple(Fraction(1 if r == (c + 1) % n else 0) for c in range(n))
                 for r in range(n))


def mat_mul(a, b):
    n = len(a)
    if len(b) != n:
        raise ConfigError(f"size mismatch: {len(a)} vs {len(b)}")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
                 for row in a)


def mat_add(a, b):
    if len(a) != len(b):
        raise ConfigError(f"size mismatch: {len(a)} vs {len(b)}")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def trace(m) -> Fraction:
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def normalized_trace(m) -> Fraction:
    """Trace divided by the size, so the identity has trace 1."""
    return trace(m) / len(m)


def product_trace(mats: Sequence) -> Fraction:
    """Normalized trace of an ordered product of matrices."""
    acc = mats[0]
    for m in mats[1:]:
        acc = mat_mul(acc, m)
    return normalized_trace(acc)


# an optionally signed integer, or p/q with an unsigned q; Fraction alone
# would also take exponents, and 1e100000000 would build a 10**8-digit
# integer.  Compiled on first use, so that importing costs nothing.
_RATIONAL = r"([+-]?[0-9]+)(?:/([0-9]+))?"


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a plain integer literal, with surrounding spaces."""
    match = re.fullmatch(_RATIONAL, text.strip())
    if match is None:
        raise WordSyntaxError(f"cannot parse rational {text!r}")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        # a zero denominator, or more digits than int() converts
        raise WordSyntaxError(f"cannot parse rational {text!r}") from exc
