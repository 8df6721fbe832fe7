"""Exact rational matrix helpers."""
import random
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
    assert ratmat.product_trace((c,)) == 0


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
    assert ratmat.product_trace((a,)) == Fraction(5, 2)
    assert ratmat.product_trace((ratmat.identity(7),)) == 1
    assert ratmat.product_trace((ratmat.matrix([["1/2", 9], [7, "1/3"]]),)) == \
        Fraction(5, 12)
    with pytest.raises(ConfigError):
        ratmat.product_trace((a, ratmat.identity(3)))


def naive_mul(a, b):
    # the textbook triple loop in Fractions, as the oracle of the integer path
    n = len(a)
    return tuple(tuple(sum((Fraction(a[i][k]) * Fraction(b[k][j])
                            for k in range(n)), Fraction(0))
                       for j in range(n)) for i in range(n))


def naive_product_trace(mats):
    acc = mats[0]
    for m in mats[1:]:
        acc = naive_mul(acc, m)
    return sum((Fraction(acc[i][i]) for i in range(len(acc))), Fraction(0)) / len(acc)


def random_matrix(rng, n):
    return ratmat.matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                           for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_products_match_the_naive_fraction_loop(n):
    rng = random.Random(n)
    zero = ratmat.matrix([[0] * n] * n)
    for _ in range(60):
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        assert ratmat.mat_mul(a, b) == naive_mul(a, b)
        chain = [random_matrix(rng, n) for _ in range(rng.randint(1, 5))]
        assert ratmat.product_trace(chain) == naive_product_trace(chain)
        assert ratmat.mat_mul(a, zero) == zero == ratmat.mat_mul(zero, b)
        chain[rng.randrange(len(chain))] = zero
        assert ratmat.product_trace(chain) == 0
    # int entries and Fraction entries of equal value give equal results
    ints = [tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            for _ in range(5)]
    fracs = [ratmat.matrix(m) for m in ints]
    assert ratmat.mat_mul(ints[0], ints[1]) == ratmat.mat_mul(fracs[0], fracs[1])
    assert ratmat.mat_mul(ints[0], ints[1]) == naive_mul(ints[0], ints[1])
    for k in range(1, 6):
        assert ratmat.product_trace(ints[:k]) == ratmat.product_trace(fracs[:k])
        assert ratmat.product_trace(ints[:k]) == naive_product_trace(fracs[:k])


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
