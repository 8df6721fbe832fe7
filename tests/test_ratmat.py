"""Exact rational matrix helpers."""
from fractions import Fraction

import pytest

from ncfree import ratmat
from ncfree.errors import ConfigError, WordSyntaxError


def test_matrix_coerces_and_freezes():
    m = ratmat.matrix([[1, "1/2"], [0.25, Fraction(3, 7)]])
    assert m == ((Fraction(1), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 7)))
    assert isinstance(m, tuple)
    hash(m)


def test_matrix_rejects_non_square():
    with pytest.raises(ConfigError):
        ratmat.matrix([[1, 2]])
    with pytest.raises(ConfigError):
        ratmat.matrix([[1, 2], [3]])
    with pytest.raises(ConfigError):
        ratmat.matrix([])


def test_matrix_rejects_what_is_not_rows_of_rationals():
    # an int is not a sequence of rows, inf has no exact value, and a string
    # is one entry, not a row of digits
    for bad in (5, [[float("inf"), 0], [0, 0]], [[1, "1/0"], [0, 0]],
                ["12", "34"], "1", ("1",)):
        with pytest.raises(ConfigError):
            ratmat.matrix(bad)


def test_identity_and_units():
    assert ratmat.identity(2) == ((1, 0), (0, 1))
    e12 = ratmat.matrix_unit(2, 1, 2)
    assert e12 == ((0, 1), (0, 0))
    with pytest.raises(ConfigError):
        ratmat.matrix_unit(2, 3, 1)
    with pytest.raises(ConfigError):
        ratmat.matrix_unit(2, 1, 0)


def test_matrix_unit_multiplication_rule():
    n = 3
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    prod = ratmat.mat_mul(ratmat.matrix_unit(n, i, j),
                                          ratmat.matrix_unit(n, k, l))
                    expected = (ratmat.matrix_unit(n, i, l) if j == k
                                else ratmat.matrix([[0] * n] * n))
                    assert prod == expected


def test_cyclic_permutation():
    c = ratmat.cyclic_permutation(3)
    # first column is the image of e_1, which should be e_2
    assert tuple(row[0] for row in c) == (0, 1, 0)
    acc = c
    for _ in range(2):
        acc = ratmat.mat_mul(acc, c)
    assert acc == ratmat.identity(3)
    assert ratmat.trace(c) == 0


def test_arithmetic_against_hand_values():
    a = ratmat.matrix([[1, 2], [3, 4]])
    b = ratmat.matrix([["1/2", 0], [1, -1]])
    assert ratmat.mat_mul(a, b) == ((Fraction(5, 2), -2), (Fraction(11, 2), -4))
    assert ratmat.mat_add(a, b) == ((Fraction(3, 2), 2), (4, 3))
    with pytest.raises(ConfigError):
        ratmat.mat_mul(a, ratmat.identity(3))
    with pytest.raises(ConfigError):
        ratmat.mat_add(a, ratmat.identity(3))


def test_traces():
    a = ratmat.matrix([[1, 2], [3, 4]])
    assert ratmat.trace(a) == 5
    assert ratmat.normalized_trace(a) == Fraction(5, 2)
    assert ratmat.normalized_trace(ratmat.identity(7)) == 1


def test_product_trace_is_cyclic():
    mats = [ratmat.matrix([[1, 2], [0, 1]]),
            ratmat.matrix([[0, "1/3"], [1, 1]]),
            ratmat.matrix_unit(2, 2, 1)]
    base = ratmat.product_trace(mats)
    for r in range(1, 3):
        rotated = mats[r:] + mats[:r]
        assert ratmat.product_trace(rotated) == base


def test_parse_rational():
    assert ratmat.parse_rational("3/4") == Fraction(3, 4)
    assert ratmat.parse_rational(" -2 ") == -2
    assert ratmat.parse_rational("0") == 0
    for bad in ["", "x", "1/0", "1//2", "1e100000000", "0.5"]:
        with pytest.raises(WordSyntaxError):
            ratmat.parse_rational(bad)
