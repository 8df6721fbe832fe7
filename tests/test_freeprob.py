"""Free product moments, free Poisson family, and the freeness certificate.

Independent oracles: Narayana closed form for free Poisson moments, and the
classical alternating-word factorizations for short free product words.
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

from ncfree import freeprob, ratmat
from ncfree.errors import ArityError, ConfigError, SizeLimitError
from ncfree.freeprob import (
    FreePoissonOracle,
    FreeProduct,
    MatrixTraceOracle,
    TracialLetter,
    free_poisson_cumulant,
    free_poisson_moment,
    freeness_check,
    mixed_cumulant,
)


# ---------------------------------------------------------------------------
# free Poisson family


def narayana_moment(rate, jump, m):
    """Closed-form oracle: moments count non-crossing partitions by blocks."""
    rate, jump = Fraction(rate), Fraction(jump)
    total = sum(Fraction(math.comb(m, k - 1) * math.comb(m - 1, k - 1), k)
                * rate ** k for k in range(1, m + 1))
    return total * jump ** m


def test_free_poisson_cumulants_frozen():
    for q in range(1, 9):
        assert free_poisson_cumulant(Fraction(1, 2), 2, q) == 2 ** (q - 1)
    assert free_poisson_cumulant(Fraction(3, 7), Fraction(5, 3), 2) == \
        Fraction(3, 7) * Fraction(25, 9)
    with pytest.raises(ArityError):
        free_poisson_cumulant(1, 1, 0)


def test_free_poisson_moments_frozen():
    assert [free_poisson_moment(Fraction(1, 2), 2, m) for m in range(5)] == \
        [1, 1, 3, 11, 45]
    assert [free_poisson_moment(Fraction(1, 3), 3, m) for m in range(5)] == \
        [1, 1, 4, 19, 100]
    # rate 1, jump 1 counts all non-crossing partitions
    for m in range(1, 11):
        assert free_poisson_moment(1, 1, m) == math.comb(2 * m, m) // (m + 1)
    with pytest.raises(ArityError):
        free_poisson_moment(1, 1, -1)


def test_free_poisson_moments_match_narayana_closed_form():
    rng = random.Random(3)
    for _ in range(25):
        rate = Fraction(rng.randint(1, 40), rng.randint(1, 15))
        jump = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        m = rng.randint(1, 8)
        assert free_poisson_moment(rate, jump, m) == narayana_moment(rate, jump, m)


# ---------------------------------------------------------------------------
# oracles


def test_matrix_trace_oracle():
    o = MatrixTraceOracle(2)
    e12 = ratmat.matrix_unit(2, 1, 2)
    e21 = ratmat.matrix_unit(2, 2, 1)
    assert o.trace(()) == 1
    assert o.trace((o.unit,)) == 1
    assert o.trace((e12, e21)) == Fraction(1, 2)
    assert o.multiply(e12, e21) == ratmat.matrix_unit(2, 1, 1)
    with pytest.raises(ConfigError):
        o.trace((ratmat.identity(3),))
    with pytest.raises(ConfigError):
        MatrixTraceOracle(0)


def test_free_poisson_oracle():
    o = FreePoissonOracle(Fraction(1, 2), 2)
    assert o.unit == 0
    assert o.multiply(2, 3) == 5
    assert o.trace((2, 1)) == free_poisson_moment(Fraction(1, 2), 2, 3)
    with pytest.raises(ConfigError):
        o.trace((-1,))


def test_tracial_letter_is_hashable_and_frozen():
    a = TracialLetter(0, 1)
    assert a == TracialLetter(0, 1)
    assert hash(a) == hash(TracialLetter(0, 1))
    with pytest.raises(Exception):
        a.payload = 2


# ---------------------------------------------------------------------------
# free product moments


def make_pair(n=2):
    """Free Poisson generator coupled freely to n-by-n matrices."""
    return FreeProduct({0: FreePoissonOracle(Fraction(1, n), n),
                        1: MatrixTraceOracle(n)})


def test_single_algebra_words_reduce_to_the_oracle():
    fp = make_pair()
    for q in range(1, 6):
        word = (TracialLetter(0, 1),) * q
        assert fp.moment(word) == free_poisson_moment(Fraction(1, 2), 2, q)
    e12 = ratmat.matrix_unit(2, 1, 2)
    e21 = ratmat.matrix_unit(2, 2, 1)
    word = (TracialLetter(1, e12), TracialLetter(1, e21), TracialLetter(1, e12))
    assert fp.moment(word) == ratmat.product_trace((e12, e21, e12))


def test_unit_letters_are_dropped():
    fp = make_pair()
    a = TracialLetter(0, 1)
    x = TracialLetter(1, ratmat.matrix_unit(2, 1, 1))
    unit_m = TracialLetter(1, ratmat.identity(2))
    unit_p = TracialLetter(0, 0)
    assert fp.moment((a, unit_m, x, unit_p, a, x)) == fp.moment((a, x, a, x))
    assert fp.moment((unit_m, unit_p)) == 1
    assert fp.moment(()) == 1


def test_alternating_words_match_classical_factorizations():
    n = 2
    fp = make_pair(n)
    poisson = FreePoissonOracle(Fraction(1, n), n)
    mat = MatrixTraceOracle(n)
    mats = [ratmat.matrix_unit(2, 1, 1),
            ratmat.mat_add(ratmat.matrix_unit(2, 1, 2), ratmat.matrix_unit(2, 2, 1)),
            ratmat.matrix([[1, "1/2"], [0, -1]])]
    for k1, k2 in [(1, 1), (1, 2), (2, 3)]:
        a = TracialLetter(0, k1)
        b = TracialLetter(0, k2)
        t_a = poisson.trace((k1,))
        t_b = poisson.trace((k2,))
        t_ab = poisson.trace((k1, k2))
        for mx, my in itertools.product(mats, repeat=2):
            x = TracialLetter(1, mx)
            y = TracialLetter(1, my)
            t_x = mat.trace((mx,))
            t_y = mat.trace((my,))
            t_xy = mat.trace((mx, my))
            # tau(a x) = tau(a) tau(x)
            assert fp.moment((a, x)) == t_a * t_x
            # tau(a x b) = tau(ab) tau(x)
            assert fp.moment((a, x, b)) == t_ab * t_x
            # tau(a x b y) = tau(ab) tau(x) tau(y) + tau(a) tau(b) tau(xy)
            #                - tau(a) tau(b) tau(x) tau(y)
            expected = (t_ab * t_x * t_y + t_a * t_b * t_xy
                        - t_a * t_b * t_x * t_y)
            assert fp.moment((a, x, b, y)) == expected


def test_moment_is_tracial_on_mixed_words():
    fp = make_pair()
    letters = [TracialLetter(0, 1), TracialLetter(0, 2),
               TracialLetter(1, ratmat.matrix_unit(2, 1, 1)),
               TracialLetter(1, ratmat.matrix_unit(2, 1, 2)),
               TracialLetter(1, ratmat.cyclic_permutation(2))]
    rng = random.Random(5)
    for _ in range(30):
        q = rng.randint(2, 6)
        word = tuple(rng.choice(letters) for _ in range(q))
        base = fp.moment(word)
        for r in range(1, q):
            assert fp.moment(word[r:] + word[:r]) == base


def test_word_cap_and_config_errors():
    fp = make_pair()
    a = TracialLetter(0, 1)
    with pytest.raises(SizeLimitError):
        fp.moment((a,) * 11)
    with pytest.raises(ConfigError):
        fp.moment((TracialLetter(7, 1),))


# ---------------------------------------------------------------------------
# mixed cumulants and the certificate


def test_cumulants_of_a_single_generator_recover_the_family():
    fp = make_pair()
    a = TracialLetter(0, 1)
    for q in range(1, 7):
        got = mixed_cumulant((a,) * q, fp.moment)
        assert got == free_poisson_cumulant(Fraction(1, 2), 2, q)
    with pytest.raises(ArityError):
        mixed_cumulant((), fp.moment)


def test_mixed_cumulants_of_a_free_pair_vanish():
    fp = make_pair()
    a = TracialLetter(0, 1)
    x = TracialLetter(1, ratmat.matrix_unit(2, 1, 1))
    for word in [(a, x), (x, a), (a, a, x), (a, x, a), (a, x, x), (a, x, a, x)]:
        assert mixed_cumulant(word, fp.moment) == 0


def test_freeness_check_certifies_a_free_pair():
    fp = make_pair()
    a = TracialLetter(0, 1)
    x = TracialLetter(1, ratmat.matrix_unit(2, 1, 1))
    report = freeness_check([[a], [x]], 4, fp.moment)
    assert report.certified
    assert not report.violations
    assert not report.truncated
    # 2^q tuples minus the two single-set ones, q = 2..4
    assert report.tuples_checked == sum(2 ** q - 2 for q in range(2, 5))


def test_freeness_check_flags_a_dependent_pair():
    # e11 and e22 live in one matrix algebra; tagging them as separate sets
    # must produce a violation because they are not free
    e11 = ratmat.matrix_unit(2, 1, 1)
    e22 = ratmat.matrix_unit(2, 2, 2)
    report = freeness_check([[e11], [e22]], 2,
                            lambda w: ratmat.product_trace(w))
    assert not report.certified
    assert ((e11, e22), Fraction(-1, 4)) in report.violations


def test_freeness_check_reports_truncation(monkeypatch):
    monkeypatch.setattr(freeprob, "WORD_LIMIT", 3)
    fp = make_pair()
    a = TracialLetter(0, 1)
    x = TracialLetter(1, ratmat.matrix_unit(2, 1, 1))
    report = freeness_check([[a], [x]], 12, fp.moment)
    assert report.truncated
    assert not report.certified
    assert report.max_q == 12
    assert report.tuples_checked == sum(2 ** q - 2 for q in range(2, 4))


def test_freeness_check_refuses_a_vacuous_sweep():
    # below q = 2 no tuple mixes two sets, so a certificate would be empty
    fp = make_pair()
    a = TracialLetter(0, 1)
    x = TracialLetter(1, ratmat.matrix_unit(2, 1, 1))
    for max_q in (1, 0, -1):
        with pytest.raises(ArityError):
            freeness_check([[a], [x]], max_q, fp.moment)
