"""Exact matrices over the rationals, stored as nested tuples.

Small helper layer: the moment model only ever needs products, sums, and
traces of n-by-n matrices with Fraction entries, and the matrices must be
hashable so they can key memo tables.  numpy cannot hold exact rationals and
sympy matrices are heavier than needed, hence this module.

Products run on integer numerators: each operand is scaled by the lcm of its
entry denominators, the plain ``int`` matrices are multiplied, and one
``Fraction`` is built per result entry (per trace in ``product_trace``)
instead of one per multiply-add.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul
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


def _scaled(rows) -> tuple[list[list[int]], int]:
    # integer rows and d with rows == ints / d, d the lcm of the denominators
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _int_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_mul(a, b):
    n = len(a)
    if len(b) != n:
        raise ConfigError(f"size mismatch: {len(a)} vs {len(b)}")
    (ia, da), (ib, db) = _scaled(a), _scaled(b)
    d = da * db
    return tuple(tuple(Fraction(x, d) for x in row) for row in _int_mul(ia, ib))


def mat_add(a, b):
    if len(a) != len(b):
        raise ConfigError(f"size mismatch: {len(a)} vs {len(b)}")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def product_trace(mats: Sequence) -> Fraction:
    """Normalized trace of an ordered product of matrices.

    The last factor enters only through the trace, tr(A B) = sum of
    A[i][j] B[j][i], so it costs n**2 steps rather than a full product.
    """
    n = len(mats[0])
    if any(len(m) != n for m in mats):
        raise ConfigError(f"size mismatch: {[len(m) for m in mats]}")
    if len(mats) == 1:
        (diagonal,), d = _scaled([[mats[0][i][i] for i in range(n)]])
        return Fraction(sum(diagonal), d * n)
    scaled = [_scaled(m) for m in mats]
    d = math.prod(dm for _, dm in scaled)
    (acc, _), *tail = scaled
    for im, _ in tail[:-1]:
        acc = _int_mul(acc, im)
    last = tail[-1][0]
    return Fraction(sum(sum(map(mul, row, col))
                        for row, col in zip(acc, zip(*last))), d * n)


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
