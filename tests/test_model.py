"""Coupled generator-matrix moment model.

Closed-form oracles for short words (one or two generator letters) are
derived by hand; longer words are cross-checked against the centering
recursion and the partition-sum consistency identities.
"""
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

import ncfree
from ncfree import cli, factors, model, ncpart, ratmat, rmt
from ncfree.errors import (
    ArityError,
    ConfigError,
    GroundMismatchError,
    InconsistencyError,
    SizeLimitError,
)
from ncfree.freeprob import (
    FreeProduct,
    free_poisson_cumulant,
    free_poisson_moment,
    freeness_check,
    mixed_cumulant,
)
from ncfree.model import (
    ModelLetter,
    ModelParams,
    PiTermBreakdown,
    Z,
    centering_moment,
    dim_box,
    floating_loops,
    matrix_letter,
    pi_term,
    tau_word,
    tilde_kappa,
    word_cumulant,
    z_cumulant,
    z_moment,
)
from ncfree.ncpart import NonCrossingPartition

P2 = ModelParams(2)
P3 = ModelParams(3)

E11 = matrix_letter([[1, 0], [0, 0]])
E12 = matrix_letter([[0, 1], [0, 0]])
E21 = matrix_letter([[0, 0], [1, 0]])
E22 = matrix_letter([[0, 0], [0, 1]])
FLIP = matrix_letter(ratmat.cyclic_permutation(2))
LETTERS2 = [Z, E11, E12, E21, E22, FLIP]


def rand_matrix_letter(rng, n):
    return matrix_letter([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                           for _ in range(n)] for _ in range(n)])


def normalized_trace(m):
    # the diagonal summed in the test, independent of ratmat's products
    return sum(m[i][i] for i in range(len(m))) / len(m)


# ---------------------------------------------------------------------------
# parameters and letters


def test_params_validation():
    for bad in [1, 0, -3, True, 2.5, "2"]:
        with pytest.raises(ConfigError):
            ModelParams(bad)


def test_letter_validation():
    assert Z.is_z
    assert not E11.is_z
    assert ModelLetter() == Z
    with pytest.raises(ConfigError):
        matrix_letter([[1, 2]])
    with pytest.raises(ConfigError):
        ModelLetter([[1, 2]])
    # rows of lists, tuples, ints and Fractions are normalised, so equal
    # letters hash alike, as memo keys need
    for rows in ([[1, 0], [0, 0]], ((1, 0), (0, 0)), [(1, 0), [0, 0]],
                 [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
                 [[Fraction(2, 2), 0], (0, Fraction(0, 5))]):
        direct = ModelLetter(rows)
        assert direct == E11
        assert hash(direct) == hash(E11)
    half = [[Fraction(1, 2), -3], [Fraction(2, 3), 0]]
    assert hash(ModelLetter(half)) == hash(ModelLetter(tuple(map(tuple, half))))
    assert hash(ModelLetter()) == hash(Z)


def test_letter_hash_is_stored_outside_the_fields():
    # the stored hash is no field, so ==, hash and repr see the matrix alone
    assert repr(Z) == "ModelLetter(matrix=None)"
    assert repr(E11) == f"ModelLetter(matrix={E11.matrix!r})"
    rebuilt = ModelLetter(E11.matrix)
    assert rebuilt is not E11
    assert rebuilt == E11
    assert hash(rebuilt) == hash(E11)


def test_letters_differing_by_minus_one_and_minus_two_hash_apart():
    # hash(-1) == hash(-2), so the 625 letters with entries in -2..2 fell
    # into 256 hash classes when the hash read the matrix alone
    pool = [ModelLetter([[a, b], [c, d]])
            for a, b, c, d in itertools.product(range(-2, 3), repeat=4)]
    assert len(set(pool)) == 625
    assert len({hash(letter) for letter in pool}) >= 620


def _value_objects():
    pi = NonCrossingPartition((1, 3), [(1,), (3,)])
    term = pi_term((Z, E11, Z), pi, P2)
    report = freeness_check([[Z], [E11]], 2, lambda w: word_cumulant(w, P2))
    summand = factors.Summand(Fraction(1, 2), factors.FREE_GROUP, 3)
    return {"params": P2, "letter": E11, "z": Z, "pi-term": term,
            "report": report, "summand": summand,
            "description": factors.FactorDescription([summand, summand]),
            "free-product": FreeProduct(2),
            "config": rmt.SimulationConfig(2, 200, trials=3, seed=1),
            "estimate": rmt.MomentEstimate(0.5, 0.01, 3)}


@pytest.mark.parametrize("kind", ["params", "letter", "z", "pi-term", "report",
                                  "summand", "description", "free-product",
                                  "config", "estimate"])
def test_value_classes_are_frozen_and_compare_by_fields(kind):
    value = _value_objects()[kind]
    again = _value_objects()[kind]
    assert value == again and hash(value) == hash(again)
    assert repr(value) == repr(again)
    assert repr(value).startswith(type(value).__name__ + "(")
    assert value != object() and value != (value,)
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert clone == value and hash(clone) == hash(value)


def test_equal_letters_share_a_word_trace_entry():
    # a word rebuilt from equal but distinct letter objects is a memo hit
    ncfree.clear_caches()
    word = (Z, E12, Z, E21)
    first = tau_word(word, P2)
    info = model._tau.cache_info()
    rebuilt = tuple(ModelLetter(l.matrix and [list(r) for r in l.matrix])
                    for l in word)
    assert all(a is not b for a, b in zip(word[1::2], rebuilt[1::2]))
    assert tau_word(rebuilt, P2) == first
    after = model._tau.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)


# letters with non-unit rational entries for the integer cumulant route
RATIONALS = [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3),
             Fraction(1), Fraction(0), Fraction(3, 4)]


def rational_letters(rng, n, count):
    return [matrix_letter([[rng.choice(RATIONALS) for _ in range(n)]
                           for _ in range(n)]) for _ in range(count)]


def test_word_cumulant_matches_the_generic_route():
    # 120 seeded words per n: pure and mixed, up to five letters
    rng = random.Random(1607)
    for params in (P2, P3):
        alphabet = [Z] + rational_letters(rng, params.n, 4)
        for _ in range(120):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
            generic = mixed_cumulant(word, lambda w: tau_word(w, params))
            assert word_cumulant(word, params) == generic, word


def test_word_cumulant_is_exact_on_known_values():
    half = matrix_letter([[Fraction(1, 2), 0], [0, Fraction(-3)]])
    # first cumulants are traces, the generator's are n**(q-1)
    assert word_cumulant((half,), P2) == Fraction(-5, 4)
    assert word_cumulant((Z, Z, Z), P3) == 9
    # mixed words vanish: Z is free from the matrices
    assert word_cumulant((Z, half, Z), P2) == 0
    assert isinstance(word_cumulant((Z, half), P2), Fraction)
    with pytest.raises(ArityError):
        word_cumulant((), P2)
    with pytest.raises(ConfigError):
        word_cumulant((Z, matrix_letter(ratmat.identity(3))), P2)


def test_word_cumulant_refuses_a_wrong_scale(monkeypatch):
    # e in place of n * e leaves tau(E11) = 1/2 with no integer numerator
    scale = model._numerator_scale
    monkeypatch.setattr(model, "_numerator_scale",
                        lambda word, n: scale(word, n) // n)
    ncfree.clear_caches()
    try:
        with pytest.raises(InconsistencyError, match="not an integer"):
            word_cumulant((Z, E11), P2)
    finally:
        ncfree.clear_caches()


def test_word_labels_parse_back_to_their_words():
    rng = random.Random(1608)
    seen = {}
    for params in (P2, P3):
        alphabet = [Z] + rational_letters(rng, params.n, 5)
        for _ in range(100):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            label = model._word_label(word)
            assert cli.parse_word(label) == word
            assert seen.setdefault(label, word) == word
    assert model._word_label((Z, E11, Z)) == "Z M[[1,0],[0,0]] Z"
    assert model._word_label((Z, E12)) != model._word_label((Z, E21))


def test_word_validation():
    # an error is never memoised, so each bad word raises on every call; an
    # unhashable letter fails the memo lookup and is validated after it
    for bad in [(Z, matrix_letter(ratmat.identity(3))), (Z, "x"), (Z, ["x"])]:
        for _ in range(2):
            with pytest.raises(ConfigError):
                tau_word(bad, P2)


def test_memo_hits_skip_validation(monkeypatch):
    # word-keyed memos validate a word on its miss only
    from ncfree import rmt

    checked = []

    def counting(split):
        def counted(word, params):
            checked.append(word)
            return split(word, params)
        return counted

    monkeypatch.setattr(model, "_split_word", counting(model._split_word))
    monkeypatch.setattr(rmt, "_split_word", counting(rmt._split_word))
    ncfree.clear_caches()
    word = (Z, E12, Z, E21)
    first = tau_word(word, P2)
    assert checked == [word]
    assert tau_word(list(word), P2) == first
    assert checked == [word]
    sampler = rmt.FreePairSampler(rmt.SimulationConfig(n=2, N=120, trials=1))
    batch = [[Z, E11], [E12, Z, E21]]
    estimates = sampler.estimate_words(batch)
    assert len(checked) == 3
    assert sampler.estimate_words(batch) == estimates
    assert len(checked) == 3


# ---------------------------------------------------------------------------
# graded dimensions and the generator's laws


def test_dim_box():
    for n in (2, 3, 5):
        p = ModelParams(n)
        assert [dim_box(k, p) for k in (1, 2, 3, 4)] == [1, n, n ** 2, n ** 3]
    with pytest.raises(ArityError):
        dim_box(0, P2)


def test_z_cumulant_closed_form_and_reference():
    for n in (2, 3, 5):
        p = ModelParams(n)
        for q in range(1, 11):
            assert z_cumulant(q, p) == n ** (q - 1)
            assert z_cumulant(q, p) == free_poisson_cumulant(Fraction(1, n), n, q)
    with pytest.raises(ArityError):
        z_cumulant(0, P2)


def test_z_moment_frozen_values():
    assert [z_moment(m, P2) for m in range(5)] == [1, 1, 3, 11, 45]
    assert [z_moment(m, P3) for m in range(5)] == [1, 1, 4, 19, 100]
    with pytest.raises(ArityError):
        z_moment(-1, P2)


def test_z_moment_matches_free_poisson_family():
    for n in (2, 3, 5):
        p = ModelParams(n)
        for m in range(0, 9):
            assert z_moment(m, p) == free_poisson_moment(Fraction(1, n), n, m)


def test_z_moment_has_no_size_limit():
    # at n=2 the moments are half the large Schroeder numbers S_m, whose
    # recurrence (m+1) S_m = 3(2m-1) S_{m-1} - (m-2) S_{m-2} is a route
    # independent of the closed form, well past the enumeration limit
    S = [1, 2]
    for m in range(2, 41):
        S.append((3 * (2 * m - 1) * S[m - 1] - (m - 2) * S[m - 2]) // (m + 1))
    assert [z_moment(m, P2) for m in range(1, 41)] == [s // 2 for s in S[1:]]


def test_z_moment_horner_sum_matches_the_narayana_terms():
    # the term-by-term sum with binomial Narayana numbers is the reference
    for n in (2, 3, 7):
        for m in range(1, 120):
            terms = (math.comb(m, k) * math.comb(m, k - 1) // m * n ** (m - k)
                     for k in range(1, m + 1))
            assert z_moment(m, ModelParams(n)) == sum(terms)


def test_sums_without_mobius_weights_build_no_mobius_table():
    ncfree.clear_caches()
    z_moment(8, P2)
    z_moment(8, P3)
    free_poisson_moment(Fraction(1, 2), 2, 8)
    ncpart.cumulants_to_moments(lambda w: Fraction(len(w)), tuple("abcdefgh"))
    assert ncpart._mobius_table.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# word traces


def test_tau_trivial_words():
    assert tau_word((), P2) == 1
    assert tau_word((E11,), P2) == Fraction(1, 2)
    mats = (E12, E21, E11)
    assert tau_word(mats, P2) == ratmat.product_trace(tuple(m.matrix for m in mats))


def test_tau_pure_generator_words_match_moments():
    for n in (2, 3):
        p = ModelParams(n)
        for m in range(1, 8):
            assert tau_word((Z,) * m, p) == z_moment(m, p)


def test_tau_one_generator_closed_forms():
    rng = random.Random(2)
    for n in (2, 3):
        p = ModelParams(n)
        for _ in range(10):
            x = rand_matrix_letter(rng, n)
            tx = normalized_trace(x.matrix)
            assert tau_word((Z, x), p) == tx
            assert tau_word((x, Z), p) == tx
            assert tau_word((Z, Z, x), p) == (n + 1) * tx


def test_tau_two_generator_closed_form():
    # tau(Z x Z y) = n tr(x) tr(y) + tr(xy)
    rng = random.Random(4)
    for n in (2, 3):
        p = ModelParams(n)
        for _ in range(10):
            x = rand_matrix_letter(rng, n)
            y = rand_matrix_letter(rng, n)
            expected = (n * normalized_trace(x.matrix)
                        * normalized_trace(y.matrix)
                        + ratmat.product_trace((x.matrix, y.matrix)))
            assert tau_word((Z, x, Z, y), p) == expected


def test_tau_is_tracial():
    rng = random.Random(9)
    for _ in range(40):
        q = rng.randint(2, 6)
        word = tuple(rng.choice(LETTERS2) for _ in range(q))
        base = tau_word(word, P2)
        for r in range(1, q):
            assert tau_word(word[r:] + word[:r], P2) == base


def test_tau_generator_cap():
    with pytest.raises(SizeLimitError):
        tau_word((Z,) * 17, P2)


# ---------------------------------------------------------------------------
# per-partition breakdown


def test_pi_term_examples_two_generators():
    word = (Z, E11, Z, FLIP)
    D = (1, 3)
    paired = pi_term(word, NonCrossingPartition(D, [(1, 3)]), P2)
    assert paired.cumulant_factor == 2
    assert paired.pi_tilde.blocks == ((2,), (4,))
    assert paired.loop_count == 0
    assert paired.value == 2 * Fraction(1, 2) * 0
    split = pi_term(word, NonCrossingPartition(D, [(1,), (3,)]), P2)
    assert split.cumulant_factor == 1
    assert split.pi_tilde.blocks == ((2, 4),)
    assert split.loop_count == 0
    assert split.value == ratmat.product_trace((E11.matrix, FLIP.matrix))


def test_pi_term_loop_counts():
    nested = pi_term((Z, Z, E11), NonCrossingPartition((1, 2), [(1, 2)]), P2)
    assert nested.loop_count == 2
    deep = pi_term((Z, Z, Z, E11), NonCrossingPartition((1, 2, 3), [(1, 2, 3)]), P2)
    assert deep.loop_count == 4


def test_pi_term_frozen_large_instance():
    word = [Z] * 18
    for j in (1, 3, 4, 6, 7, 9, 10, 12, 15, 16, 18):
        word[j - 1] = E11
    D = (2, 5, 8, 11, 13, 14, 17)
    pi = NonCrossingPartition(D, [(2, 8, 11), (5,), (13, 14, 17)])
    term = pi_term(tuple(word), pi, P2)
    assert term.loop_count == 2
    assert term.pi_tilde.blocks == ((1, 12, 18), (3, 4, 6, 7), (9, 10), (15, 16))
    assert term.cumulant_factor == 2 ** (7 - 3)
    assert floating_loops(D, term.pi_tilde.ground, pi) == 2


def test_pi_terms_sum_to_tau():
    rng = random.Random(13)
    for n, params in [(2, P2), (3, P3)]:
        for _ in range(12):
            q = rng.randint(1, 6)
            word = [rng.choice([Z, rand_matrix_letter(rng, n)]) for _ in range(q)]
            word[rng.randrange(q)] = Z
            word = tuple(word)
            D = tuple(i for i, l in enumerate(word, start=1) if l.is_z)
            total = sum(pi_term(word, pi, params).value
                        for pi in ncpart.enumerate_nc(D))
            assert total == tau_word(word, params)


def test_pi_term_errors():
    with pytest.raises(ArityError):
        pi_term((E11, E12), NonCrossingPartition((1,), [(1,)]), P2)
    with pytest.raises(GroundMismatchError):
        pi_term((Z, E11), NonCrossingPartition((2,), [(2,)]), P2)


def test_breakdown_validates_on_construction():
    # Z Z E E E with pi {1,2}: the complement {3,4,5} has one block, so a
    # pi_tilde of three singletons is too fine and counts -2 loops
    word = (Z, Z, E11, E11, E11)
    good = pi_term(word, NonCrossingPartition((1, 2), [(1, 2)]), P2)
    assert good.loop_count == 2
    fine = NonCrossingPartition.singletons((3, 4, 5))
    traces = tuple(((v,), Fraction(1, 2)) for v in (3, 4, 5))
    with pytest.raises(ConfigError):
        PiTermBreakdown(n=2, pi=good.pi, pi_tilde=fine, block_traces=traces)


def test_floating_loops_small_cases():
    assert floating_loops((1,), (2,), NonCrossingPartition((1,), [(1,)])) == 0
    assert floating_loops((1, 2), (3,), NonCrossingPartition((1, 2), [(1, 2)])) == 2


# ---------------------------------------------------------------------------
# split cumulants


def test_tilde_kappa_mixed_blocks_vanish():
    word = (Z, E11, Z, E11)
    whole = NonCrossingPartition.whole((1, 2, 3, 4))
    assert tilde_kappa(word, whole, P2) == 0
    mixed = NonCrossingPartition((1, 2, 3, 4), [(1, 2), (3, 4)])
    assert tilde_kappa(word, mixed, P2) == 0


def test_tilde_kappa_pure_blocks_factorize():
    word = (Z, E11, Z, FLIP)
    sigma = NonCrossingPartition((1, 2, 3, 4), [(1, 3), (2,), (4,)])
    expected = 2 * normalized_trace(E11.matrix) * \
        normalized_trace(FLIP.matrix)
    assert tilde_kappa(word, sigma, P2) == expected
    singles = NonCrossingPartition.singletons((1, 2, 3, 4))
    assert tilde_kappa(word, singles, P2) == 0  # tr(FLIP) = 0


def test_tilde_kappa_sums_to_tau():
    rng = random.Random(21)
    for _ in range(10):
        q = rng.randint(2, 5)
        word = tuple(rng.choice(LETTERS2) for _ in range(q))
        total = sum(tilde_kappa(word, sigma, P2)
                    for sigma in ncpart.enumerate_nc(range(1, q + 1)))
        assert total == tau_word(word, P2)


def test_tilde_kappa_ground_mismatch():
    with pytest.raises(GroundMismatchError):
        tilde_kappa((Z, E11), NonCrossingPartition((1,), [(1,)]), P2)


# ---------------------------------------------------------------------------
# centering route


def test_centering_moment_maps_letters_to_payloads():
    # Z becomes the power 1 and a matrix letter its matrix
    word = (Z, E11, Z, Z, FLIP)
    expected = FreeProduct(2).moment((1, E11.matrix, 1, 1, FLIP.matrix))
    assert centering_moment(word, P2) == expected
    with pytest.raises(ConfigError):
        centering_moment((Z, matrix_letter(ratmat.identity(3))), P2)


def test_centering_route_matches_factorization():
    assert centering_moment((Z, E11, Z, E11), P2) == 1
    rng = random.Random(31)
    for _ in range(25):
        q = rng.randint(1, 6)
        word = tuple(rng.choice(LETTERS2) for _ in range(q))
        assert centering_moment(word, P2) == tau_word(word, P2)


def test_centering_word_cap():
    with pytest.raises(SizeLimitError):
        centering_moment((Z,) * 11, P2)
    with pytest.raises(SizeLimitError):
        centering_moment((Z, E11, Z), P2, cap=2)
    assert centering_moment((Z, E11, Z), P2, cap=3) == tau_word((Z, E11, Z), P2)
