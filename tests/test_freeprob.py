"""Free product moments, free Poisson family, and the freeness certificate.

Independent oracles: Narayana closed form for free Poisson moments, and the
classical alternating-word factorizations for short free product words.
"""
import itertools
import math
import random
from fractions import Fraction

import pytest

import ncfree
from ncfree import _caches, freeprob, model, ratmat
from ncfree.errors import ArityError, ConfigError, SizeLimitError
from ncfree.freeprob import (
    FreeProduct,
    FreenessReport,
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
# free product moments on payload words: Z**k is the int k, a matrix letter
# is its n-by-n matrix


E11 = ratmat.matrix_unit(2, 1, 1)


def test_matrix_trace_oracle():
    # matrix-only words are normalized traces of their product
    fp = FreeProduct(2)
    e12 = ratmat.matrix_unit(2, 1, 2)
    e21 = ratmat.matrix_unit(2, 2, 1)
    assert fp.moment(()) == 1
    assert fp.moment((ratmat.identity(2),)) == 1
    assert fp.moment((e12, e21)) == Fraction(1, 2)
    # adjacent matrices merge into their product before any trace
    assert freeprob._normalize((e12, e21)) == (E11,)
    with pytest.raises(ConfigError):
        fp.moment((ratmat.identity(3),))
    with pytest.raises(ConfigError):
        fp.moment((1, ratmat.identity(3)))
    for bad_n in (0, -1, 2.0, True):
        with pytest.raises(ConfigError):
            FreeProduct(bad_n)


def test_free_poisson_oracle():
    # powers of Z are free Poisson moments with rate 1/n and jump n
    fp = FreeProduct(2)
    assert freeprob._normalize((2, 3)) == (5,)
    assert fp.moment((2, 1)) == free_poisson_moment(Fraction(1, 2), 2, 3)
    assert FreeProduct(3).moment((4,)) == free_poisson_moment(Fraction(1, 3), 3, 4)
    with pytest.raises(ConfigError):
        fp.moment((-1,))
    with pytest.raises(ConfigError):
        fp.moment((1, -2, E11))


def test_single_algebra_words_reduce_to_the_oracle():
    fp = FreeProduct(2)
    for q in range(1, 6):
        assert fp.moment((1,) * q) == free_poisson_moment(Fraction(1, 2), 2, q)
    e12 = ratmat.matrix_unit(2, 1, 2)
    e21 = ratmat.matrix_unit(2, 2, 1)
    assert fp.moment((e12, e21, e12)) == ratmat.product_trace((e12, e21, e12))


def test_unit_letters_are_dropped():
    fp = FreeProduct(2)
    unit_m = ratmat.identity(2)
    assert fp.moment((1, unit_m, E11, 0, 1, E11)) == fp.moment((1, E11, 1, E11))
    assert fp.moment((unit_m, 0)) == 1
    assert fp.moment(()) == 1
    # a merge that yields the unit exposes a new adjacency
    flip = ratmat.cyclic_permutation(2)
    assert freeprob._normalize((1, flip, flip, 2, E11)) == (3, E11)


def test_alternating_words_match_classical_factorizations():
    n = 2
    fp = FreeProduct(n)
    mats = [E11,
            ratmat.mat_add(ratmat.matrix_unit(2, 1, 2), ratmat.matrix_unit(2, 2, 1)),
            ratmat.matrix([[1, "1/2"], [0, -1]])]

    def power_trace(k):
        return free_poisson_moment(Fraction(1, n), n, k)

    for a, b in [(1, 1), (1, 2), (2, 3)]:
        t_a = power_trace(a)
        t_b = power_trace(b)
        t_ab = power_trace(a + b)
        for x, y in itertools.product(mats, repeat=2):
            t_x = ratmat.product_trace((x,))
            t_y = ratmat.product_trace((y,))
            t_xy = ratmat.product_trace((x, y))
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
    fp = FreeProduct(2)
    letters = [1, 2, E11, ratmat.matrix_unit(2, 1, 2),
               ratmat.cyclic_permutation(2)]
    rng = random.Random(5)
    for _ in range(30):
        q = rng.randint(2, 6)
        word = tuple(rng.choice(letters) for _ in range(q))
        base = fp.moment(word)
        for r in range(1, q):
            assert fp.moment(word[r:] + word[:r]) == base


def test_word_cap_and_config_errors():
    fp = FreeProduct(2)
    with pytest.raises(SizeLimitError):
        fp.moment((1,) * 11)
    # a letter is a power of Z or an n-by-n matrix, nothing else
    for bad in ("Z", 1.0, None, True, ((1, 0), (0, 1), (0, 0))):
        with pytest.raises(ConfigError):
            fp.moment((bad,))


BAD_MATRICES = [
    [["a", 0], [0, 0]],
    [[float("nan"), 0], [0, 0]],
    ((1, 0), (0,)),
    [1, 2],
    ["12", "34"],
]


@pytest.mark.parametrize("bad", BAD_MATRICES)
def test_bad_matrices_are_config_errors_on_every_layer(bad):
    with pytest.raises(ConfigError):
        ratmat.matrix(bad)
    with pytest.raises(ConfigError):
        model.matrix_letter(bad)
    with pytest.raises(ConfigError):
        FreeProduct(2).moment((1, bad))


def test_float_payloads_are_traced_exactly():
    # a float entry is coerced to its exact Fraction before any arithmetic
    m = ((0.1, 0), (0, 0))
    exact = ratmat.matrix(m)
    fp = FreeProduct(2)
    assert fp.moment((m, m, m)) == fp.moment((exact,) * 3) == Fraction(0.1) ** 3 / 2
    assert fp.moment((1, m, 1, m)) == fp.moment((1, exact, 1, exact))


# ---------------------------------------------------------------------------
# the memo registry


def test_held_free_product_sees_a_patched_formula(monkeypatch):
    fp = FreeProduct(2)
    assert fp.moment((1, 1)) == 3
    monkeypatch.setattr(freeprob, "free_poisson_moment",
                        lambda rate, jump, m: Fraction(0))
    ncfree.clear_caches()
    try:
        assert fp.moment((1, 1)) == 0
        assert FreeProduct(2).moment((1, 1)) == 0
    finally:
        monkeypatch.undo()
        ncfree.clear_caches()
    assert fp.moment((1, 1)) == 3


def test_clear_caches_empties_every_registered_table():
    def filled():
        return sum(t.cache_info().currsize for t in _caches._MEMOS)

    p2 = model.ModelParams(2)
    word = (model.Z, model.matrix_letter(E11), model.Z, model.Z)
    model.tau_word(word, p2)
    model.centering_moment(word, p2)
    before = filled()
    # a matrix-only word enumerates nothing, so only the centering table grows
    FreeProduct(2).moment((ratmat.matrix_unit(2, 1, 2), ratmat.matrix_unit(2, 2, 2)))
    assert filled() > before
    ncfree.clear_caches()
    assert [t for t in _caches._MEMOS if t.cache_info().currsize] == []


# ---------------------------------------------------------------------------
# mixed cumulants and the certificate


def test_cumulants_of_a_single_generator_recover_the_family():
    fp = FreeProduct(2)
    a = 1
    for q in range(1, 7):
        got = mixed_cumulant((a,) * q, fp.moment)
        assert got == free_poisson_cumulant(Fraction(1, 2), 2, q)
    with pytest.raises(ArityError):
        mixed_cumulant((), fp.moment)


def test_mixed_cumulants_of_a_free_pair_vanish():
    fp = FreeProduct(2)
    a, x = 1, E11
    for word in [(a, x), (x, a), (a, a, x), (a, x, a), (a, x, x), (a, x, a, x)]:
        assert mixed_cumulant(word, fp.moment) == 0


def test_freeness_check_certifies_a_free_pair():
    fp = FreeProduct(2)
    a, x = 1, E11
    report = freeness_check([[a], [x]], 4,
                            lambda w: mixed_cumulant(w, fp.moment))
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
                            lambda w: mixed_cumulant(w, ratmat.product_trace))
    assert not report.certified
    assert ((e11, e22), Fraction(-1, 4)) in report.violations


def test_certified_is_derived_from_the_stored_fields():
    violation = (((1, E11), Fraction(1)),)
    assert FreenessReport((), 4, 2, False).certified
    assert not FreenessReport(violation, 4, 2, False).certified
    assert not FreenessReport((), 4, 11, True).certified
    assert "certified" not in FreenessReport._fields


def test_freeness_check_reports_truncation(monkeypatch):
    monkeypatch.setattr(freeprob, "WORD_LIMIT", 3)
    fp = FreeProduct(2)
    a, x = 1, E11
    report = freeness_check([[a], [x]], 12,
                            lambda w: mixed_cumulant(w, fp.moment))
    assert report.truncated
    assert not report.certified
    assert report.max_q == 12
    assert report.tuples_checked == sum(2 ** q - 2 for q in range(2, 4))


def test_freeness_check_refuses_a_vacuous_sweep():
    # below q = 2 no tuple mixes two sets, so a certificate would be empty
    fp = FreeProduct(2)
    a, x = 1, E11
    for max_q in (1, 0, -1):
        with pytest.raises(ArityError):
            freeness_check([[a], [x]], max_q,
                           lambda w: mixed_cumulant(w, fp.moment))
