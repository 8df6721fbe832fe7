"""Partition layer against independent combinatorial oracles.

The oracles here share no code with the package: set partitions come from a
first-element recursion, crossings from the four-point definition, counts
from binomial closed forms, and the Mobius checks from interval sums.
"""
import copy
import functools
import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncfree import freeprob, model, ncpart
from ncfree.errors import (
    ArityError,
    GroundMismatchError,
    MalformedPartitionError,
    MobiusOrderError,
    SizeLimitError,
)
from ncfree.ncpart import NonCrossingPartition


# ---------------------------------------------------------------------------
# oracles


def set_partitions(elems):
    """All set partitions, by distributing the first element."""
    elems = list(elems)
    if not elems:
        yield []
        return
    head, rest = elems[0], elems[1:]
    for part in set_partitions(rest):
        yield [[head]] + part
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1:]


def canonical(blocks):
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def has_crossing(blocks):
    """Four-point crossing test, quadratic and independent of the stack scan."""
    blocks = [sorted(b) for b in blocks]
    for B1, B2 in itertools.combinations(blocks, 2):
        for a, c in itertools.combinations(B1, 2):
            for b, d in itertools.combinations(B2, 2):
                if a < b < c < d or b < a < d < c:
                    return True
    return False


def nc_bruteforce(q):
    return {canonical(p) for p in set_partitions(range(1, q + 1))
            if not has_crossing(p)}


def refines_bruteforce(rho, pi):
    return all(any(set(b) <= set(B) for B in pi.blocks) for b in rho.blocks)


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("q", range(1, 10))
def test_enumeration_matches_bruteforce(q):
    got = {p.blocks for p in ncpart.enumerate_nc(range(1, q + 1))}
    assert got == nc_bruteforce(q)


@pytest.mark.parametrize("k", range(0, ncpart.ENUMERATION_LIMIT + 1))
def test_walk_yields_each_canonical_partition_once(k):
    seen = set()
    for blocks in ncpart._partitions(k):
        assert all(b == tuple(sorted(b)) for b in blocks)
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
        assert sorted(x for b in blocks for x in b) == list(range(k))
        seen.add(blocks)
    assert len(seen) == ncpart.catalan(k)


def test_cached_partitions_share_their_block_tuples():
    # a block that many partitions hold in common is one tuple object, which
    # keeps the NC(12) table small; a copy per partition would read 1.0
    blocks = [b for p in ncpart._partitions(12) for b in p]
    assert len({id(b) for b in blocks}) <= len(blocks) / 3


def test_enumerated_partitions_share_their_block_tuples():
    # relabelling maps each distinct block once per call, so the 208012
    # partitions of NC(12) hold one tuple per block value, not a copy each
    first: dict = {}
    for p in ncpart.enumerate_nc(range(1, 13)):
        for b in p.blocks:
            assert first.setdefault(b, b) is b
    assert len(first) == 2 ** 12 - 1


@pytest.mark.parametrize("q", range(1, 10))
def test_counts_match_catalan_and_narayana(q):
    parts = ncpart.enumerate_nc(range(1, q + 1))
    assert len(parts) == math.comb(2 * q, q) // (q + 1)
    for k in range(1, q + 1):
        expected = math.comb(q, k - 1) * math.comb(q - 1, k - 1) // k
        assert sum(p.block_count == k for p in parts) == expected


def test_catalan_closed_form():
    for q in range(0, 20):
        assert ncpart.catalan(q) == math.comb(2 * q, q) // (q + 1)


def test_enumeration_general_ground_set():
    parts = ncpart.enumerate_nc((2, 5, 9))
    assert len(parts) == 5
    assert all(p.ground == (2, 5, 9) for p in parts)


_ABOVE = ncpart.ENUMERATION_LIMIT + 1


@pytest.mark.parametrize("call", [
    lambda: ncpart.enumerate_nc(range(1, _ABOVE + 1)),
    lambda: ncpart.pi_tilde_bruteforce(
        (1,), range(2, _ABOVE + 2), NonCrossingPartition.whole((1,))),
    lambda: ncpart.moments_to_cumulants(lambda w: 1, ("x",) * _ABOVE),
    lambda: ncpart.cumulants_to_moments(lambda w: 1, ("x",) * _ABOVE),
    lambda: ncpart.partitioned_forms_check(
        lambda w: 1, lambda w: 1,
        NonCrossingPartition.whole(range(1, _ABOVE + 1)), ("x",) * _ABOVE),
    lambda: freeprob.free_poisson_moment(1, 1, _ABOVE),
    lambda: model.tau_word((model.Z,) * _ABOVE, model.ModelParams(2)),
], ids=["enumerate_nc", "pi_tilde_bruteforce",
        "moments_to_cumulants", "cumulants_to_moments",
        "partitioned_forms_check", "free_poisson_moment", "tau_word"])
def test_every_sum_over_nc_refuses_a_ground_above_the_limit(call):
    # the one enumerator refuses, on the call and before any work
    with pytest.raises(SizeLimitError):
        call()


def test_enumeration_cap():
    with pytest.raises(SizeLimitError):
        ncpart.enumerate_nc(range(1, 18))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=7))
def test_noncrossing_check_matches_four_point_oracle(labels):
    blocks = {}
    for i, lab in enumerate(labels, start=1):
        blocks.setdefault(lab, []).append(i)
    blocks = list(blocks.values())
    assert ncpart.is_noncrossing(blocks) == (not has_crossing(blocks))


# ---------------------------------------------------------------------------
# construction and parsing


def test_constructor_rejects_crossing():
    with pytest.raises(MalformedPartitionError):
        NonCrossingPartition((1, 2, 3, 4), [(1, 3), (2, 4)])


def test_constructor_rejects_overlap_and_gaps():
    with pytest.raises(MalformedPartitionError):
        NonCrossingPartition((1, 2, 3), [(1, 2), (2, 3)])
    with pytest.raises(MalformedPartitionError):
        NonCrossingPartition((1, 2, 3), [(1, 2)])
    with pytest.raises(MalformedPartitionError):
        NonCrossingPartition((1, 2), [(1, 2), ()])


def test_from_string_roundtrip():
    p = NonCrossingPartition.from_string("{2,8,11}{5}")
    assert p.blocks == ((2, 8, 11), (5,))
    assert str(p) == "{2,8,11}{5}"
    assert NonCrossingPartition.from_string(str(p)) == p


def test_from_string_with_ground():
    p = NonCrossingPartition.from_string("{1,3}{2}", ground=(1, 2, 3))
    assert p.ground == (1, 2, 3)
    with pytest.raises(MalformedPartitionError):
        NonCrossingPartition.from_string("{1,3}{2}", ground=(1, 2, 3, 4))


@pytest.mark.parametrize("text", ["{1,2", "1,2", "{a,b}", "{1,2}{}", "{1}{1}"])
def test_from_string_rejects_malformed(text):
    with pytest.raises(MalformedPartitionError):
        NonCrossingPartition.from_string(text)


def test_empty_partition_is_the_unique_partition_of_nothing():
    assert NonCrossingPartition.from_string("").blocks == ()


def test_accessors():
    p = NonCrossingPartition((1, 2, 3, 4), [(1, 4), (2, 3)])
    assert len(p) == 2
    assert p.position_blocks() == ((0, 3), (1, 2))
    assert set(iter(p)) == {(1, 4), (2, 3)}


@pytest.mark.parametrize("p", [
    NonCrossingPartition((2, 5, 8), [(2, 8), (5,)]),
    NonCrossingPartition.whole(()),
    ncpart.enumerate_nc((1, 2, 3))[2],
], ids=["constructor", "empty", "raw"])
def test_partitions_are_frozen_and_survive_copy_and_pickle(p):
    before, members = (p.ground, p.blocks, hash(p)), {p}
    for name in ("ground", "blocks"):
        with pytest.raises(AttributeError):
            setattr(p, name, ((1, 2, 3),))
        with pytest.raises(AttributeError):
            delattr(p, name)
    with pytest.raises(AttributeError):
        p.extra = 1
    assert (p.ground, p.blocks, hash(p)) == before and p in members
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and hash(clone) == hash(p)
        assert repr(clone) == repr(p)


def test_singletons_and_whole():
    g = (1, 2, 5)
    assert NonCrossingPartition.singletons(g).blocks == ((1,), (2,), (5,))
    assert NonCrossingPartition.whole(g).blocks == ((1, 2, 5),)


@pytest.mark.parametrize("q", range(1, 6))
def test_refines_matches_bruteforce(q):
    parts = ncpart.enumerate_nc(range(1, q + 1))
    for a in parts:
        for b in parts:
            assert ncpart.refines(a, b) == refines_bruteforce(a, b)
            assert (a <= b) == refines_bruteforce(a, b)


# ---------------------------------------------------------------------------
# Mobius function


@functools.lru_cache(maxsize=None)
def mu_bottom_top_by_recursion(q):
    """mu(bottom, top) on NC(q) from the defining recursion.

    The sum of mu(rho, top) over all rho vanishes, and for rho above the
    bottom the interval [rho, top] is a product of smaller full lattices,
    one per block of the Kreweras complement of rho.
    """
    if q == 1:
        return 1
    total = 0
    for rho in ncpart.enumerate_nc(range(1, q + 1)):
        if len(rho) < q:
            total += math.prod(mu_bottom_top_by_recursion(len(b))
                               for b in ncpart.kreweras_complement(rho).blocks)
    return -total


def test_mobius_closed_form_bottom_to_top():
    for q in range(1, 21):
        g = tuple(range(1, q + 1))
        bottom = NonCrossingPartition.singletons(g)
        top = NonCrossingPartition.whole(g)
        signed_catalan = (-1) ** (q - 1) * math.comb(2 * (q - 1), q - 1) // q
        assert ncpart.mobius(bottom, top) == signed_catalan
        if q <= 10:
            assert mu_bottom_top_by_recursion(q) == signed_catalan


@pytest.mark.parametrize("q", range(1, 6))
def test_mobius_interval_sums_vanish(q):
    parts = ncpart.enumerate_nc(range(1, q + 1))
    for pi in parts:
        for sigma in parts:
            if not ncpart.refines(pi, sigma):
                continue
            total = sum(ncpart.mobius(rho, sigma) for rho in parts
                        if ncpart.refines(pi, rho) and ncpart.refines(rho, sigma))
            assert total == (1 if pi == sigma else 0)


def test_mobius_not_determined_by_block_sizes():
    # same block-size multiset, different interval above: the isomorphism
    # type of [pi, top] depends on the embedding, not only on the sizes
    g = (1, 2, 3, 4)
    top = NonCrossingPartition.whole(g)
    adjacent = NonCrossingPartition(g, [(1, 2), (3,), (4,)])
    nested = NonCrossingPartition(g, [(1, 3), (2,), (4,)])
    assert ncpart.mobius(adjacent, top) == 2
    assert ncpart.mobius(nested, top) == 1


def test_mobius_errors():
    g = (1, 2, 3)
    a = NonCrossingPartition(g, [(1, 2), (3,)])
    b = NonCrossingPartition(g, [(1,), (2, 3)])
    with pytest.raises(MobiusOrderError):
        ncpart.mobius(a, b)
    other = NonCrossingPartition.whole((1, 2, 3, 4))
    with pytest.raises(GroundMismatchError):
        ncpart.mobius(a, other)


def test_mobius_pairs_product_over_blocks():
    g = tuple(range(1, 7))
    pi = NonCrossingPartition.singletons(g)
    sigma = NonCrossingPartition(g, [(1, 2, 3), (4, 5, 6)])
    whole3 = ncpart.mobius(NonCrossingPartition.singletons((1, 2, 3)),
                           NonCrossingPartition.whole((1, 2, 3)))
    assert ncpart.mobius(pi, sigma) == whole3 ** 2


def test_mobius_has_no_block_limit():
    # the closed form enumerates nothing, so a block of sigma may be larger
    # than any NC(k) the enumerator admits
    g = tuple(range(1, 21))
    assert ncpart.mobius(NonCrossingPartition.singletons(g),
                         NonCrossingPartition.whole(g)) == -ncpart.catalan(19)
    # the value is the product over the blocks of sigma
    g = tuple(range(1, 2 * 9 + 1))
    sigma = NonCrossingPartition(g, [g[:9], g[9:]])
    assert ncpart.mobius(NonCrossingPartition.singletons(g), sigma) == \
        ncpart.catalan(8) ** 2


def test_mobius_on_many_small_blocks_is_fast():
    # the interval factors over sigma's blocks in one pass over pi's blocks
    g = tuple(range(1, 20001))
    singletons = NonCrossingPartition.singletons(g)
    pairs = NonCrossingPartition(g, [g[i:i + 2] for i in range(0, len(g), 2)])
    start = time.perf_counter()
    assert ncpart.mobius(singletons, singletons) == 1
    assert ncpart.mobius(singletons, pairs) == (-1) ** 10000
    assert time.perf_counter() - start < 2


# ---------------------------------------------------------------------------
# Kreweras complement


@pytest.mark.parametrize("q", range(1, 8))
def test_kreweras_size_identity(q):
    g = tuple(range(1, q + 1))
    for pi in ncpart.enumerate_nc(g):
        comp = ncpart.kreweras_complement(pi)
        assert comp.ground == g
        assert len(pi) + len(comp) == q + 1


def test_kreweras_extremes():
    g = (1, 2, 3, 4)
    assert ncpart.kreweras_complement(NonCrossingPartition.singletons(g)) == \
        NonCrossingPartition.whole(g)
    assert ncpart.kreweras_complement(NonCrossingPartition.whole(g)) == \
        NonCrossingPartition.singletons(g)


@pytest.mark.parametrize("q", range(1, 7))
def test_kreweras_matches_interleaved_bruteforce(q):
    # independent route: embed on odd positions of 1..2q and search on evens
    g = tuple(range(1, q + 1))
    odds = tuple(2 * x - 1 for x in g)
    evens = tuple(2 * x for x in g)
    for pi in ncpart.enumerate_nc(g):
        embedded = NonCrossingPartition(
            odds, [tuple(2 * x - 1 for x in b) for b in pi.blocks])
        brute = ncpart.pi_tilde_bruteforce(odds, evens, embedded)
        mapped = canonical(tuple(x // 2 for x in b) for b in brute.blocks)
        assert mapped == ncpart.kreweras_complement(pi).blocks


@pytest.mark.parametrize("q", range(1, 11))
def test_mu_to_top_matches_the_kreweras_blocks(q):
    # the cycles of pi**-1 gamma against the interleaved construction of the
    # public complement: mu(pi, top) is the product of signed Catalans
    g = tuple(range(1, q + 1))
    for pi in ncpart.enumerate_nc(g):
        expected = math.prod((-1) ** (t - 1) * math.comb(2 * (t - 1), t - 1) // t
                             for t in map(len, ncpart.kreweras_complement(pi).blocks))
        assert ncpart._mu_to_top(pi.position_blocks(), q) == expected


# ---------------------------------------------------------------------------
# complement on the unmarked positions


@pytest.mark.parametrize("q", range(1, 7))
def test_pi_tilde_routes_agree_exhaustively(q):
    for mask in range(1, 2 ** q):
        D = tuple(i for i in range(1, q + 1) if mask >> (i - 1) & 1)
        E = tuple(i for i in range(1, q + 1) if i not in D)
        for pi in ncpart.enumerate_nc(D):
            assert ncpart.pi_tilde(D, E, pi) == ncpart.pi_tilde_bruteforce(D, E, pi)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pi_tilde_routes_agree_random(data):
    q = data.draw(st.integers(1, 9))
    mask = data.draw(st.integers(1, 2 ** q - 1))
    D = tuple(i for i in range(1, q + 1) if mask >> (i - 1) & 1)
    E = tuple(i for i in range(1, q + 1) if i not in D)
    parts = ncpart.enumerate_nc(D)
    pi = parts[data.draw(st.integers(0, len(parts) - 1))]
    assert ncpart.pi_tilde(D, E, pi) == ncpart.pi_tilde_bruteforce(D, E, pi)


def test_pi_tilde_union_is_noncrossing_and_maximal():
    rng = random.Random(7)
    for _ in range(200):
        q = rng.randint(2, 9)
        D = tuple(sorted(rng.sample(range(1, q + 1), rng.randint(1, q))))
        E = tuple(i for i in range(1, q + 1) if i not in D)
        parts = ncpart.enumerate_nc(D)
        pi = parts[rng.randrange(len(parts))]
        comp = ncpart.pi_tilde(D, E, pi)
        assert ncpart.is_noncrossing(pi.blocks + comp.blocks)
        # every compatible partition of E refines the complement
        for sigma in ncpart.enumerate_nc(E):
            if ncpart.is_noncrossing(pi.blocks + sigma.blocks):
                assert ncpart.refines(sigma, comp)


def test_pi_tilde_frozen_large_instance():
    D = (2, 5, 8, 11, 13, 14, 17)
    E = tuple(i for i in range(1, 19) if i not in D)
    pi = NonCrossingPartition(D, [(2, 8, 11), (5,), (13, 14, 17)])
    expected = ((1, 12, 18), (3, 4, 6, 7), (9, 10), (15, 16))
    assert ncpart.pi_tilde(D, E, pi).blocks == expected
    assert ncpart.pi_tilde_bruteforce(D, E, pi).blocks == expected


def test_pi_tilde_validation():
    pi = NonCrossingPartition((1, 3), [(1, 3)])
    with pytest.raises(GroundMismatchError):
        ncpart.pi_tilde((1, 3), (2, 5), pi)  # not contiguous
    with pytest.raises(GroundMismatchError):
        ncpart.pi_tilde((1, 2), (3,), pi)  # pi lives on another ground


# ---------------------------------------------------------------------------
# transforms


def fractions_strategy():
    return st.fractions(min_value=-10, max_value=10, max_denominator=24)


@settings(max_examples=60, deadline=None)
@given(st.lists(fractions_strategy(), min_size=1, max_size=6))
def test_transform_roundtrip_single_variable(values):
    table = [Fraction(1)] + values

    def phi(word):
        return table[len(word)]

    derived = {}
    for q in range(1, len(values) + 1):
        derived[q] = ncpart.moments_to_cumulants(phi, ("x",) * q)

    def kappa(word):
        return derived[len(word)]

    for q in range(1, len(values) + 1):
        assert ncpart.cumulants_to_moments(kappa, ("x",) * q) == values[q - 1]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_transform_roundtrip_multiletter(seed):
    rng = random.Random(seed)
    memo = {}

    def kappa(word):
        word = tuple(word)
        if word not in memo:
            memo[word] = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        return memo[word]

    letters = tuple("abcde")
    moments = {}
    for q in range(1, 6):
        for sub in itertools.combinations(letters, q):
            moments[sub] = ncpart.cumulants_to_moments(kappa, sub)

    def phi(word):
        return moments[tuple(word)]

    for q in range(1, 6):
        assert ncpart.moments_to_cumulants(phi, letters[:q]) == kappa(letters[:q])


def test_partitioned_forms_on_random_functional():
    rng = random.Random(11)
    memo = {}

    def phi(word):
        word = tuple(word)
        if word not in memo:
            memo[word] = Fraction(rng.randint(-40, 40), rng.randint(1, 16))
        return memo[word]

    kappa_memo = {}

    def kappa(word):
        word = tuple(word)
        if word not in kappa_memo:
            kappa_memo[word] = ncpart.moments_to_cumulants(phi, word)
        return kappa_memo[word]

    letters = tuple("abcde")
    for q in range(1, 6):
        for tau in ncpart.enumerate_nc(range(1, q + 1)):
            assert ncpart.partitioned_forms_check(phi, kappa, tau, letters[:q])


def _counting(values):
    """A functional that records each tuple it is called on."""
    calls = []

    def phi(word):
        calls.append(word)
        return values(word)
    return phi, calls


def _per_partition_sum(phi, letters):
    # the plain Mobius inversion, one phi call per block occurrence
    g = tuple(range(1, len(letters) + 1))
    top = NonCrossingPartition.whole(g)
    total = 0
    for blocks in ncpart._partitions(len(g)):
        pi = NonCrossingPartition(g, [[i + 1 for i in b] for b in blocks])
        term = ncpart.mobius(pi, top)
        for b in blocks:
            term *= phi(tuple(letters[i] for i in b))
        total += term
    return total


@pytest.mark.parametrize("q", range(1, 9))
def test_moments_to_cumulants_calls_phi_once_per_distinct_block(q):
    # every nonempty subset of positions is a block of some non-crossing
    # partition, so the distinct blocks number 2**q - 1
    phi, calls = _counting(lambda w: 1)
    letters = tuple(range(q))
    ncpart.moments_to_cumulants(phi, letters)
    assert len(calls) == 2 ** q - 1
    assert len(set(calls)) == len(calls)


def test_moments_to_cumulants_matches_the_per_partition_sum():
    rng = random.Random(19)
    for trial in range(6):
        values = functools.cache(
            lambda w: Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        letters = tuple("abcdefgh") if trial % 2 else ("a",) * 8
        for q in range(1, 9):
            assert ncpart.moments_to_cumulants(values, letters[:q]) == \
                _per_partition_sum(values, letters[:q])


def test_a_refused_size_stores_nothing():
    # each NC(k) table checks the limit inside its memoised body
    ncpart.enumerate_nc(range(1, 4))
    ncpart.moments_to_cumulants(lambda w: 1, "xyz")
    tables = (ncpart._partitions, ncpart._mobius_table)
    before = [t.cache_info().currsize for t in tables]
    with pytest.raises(SizeLimitError):
        ncpart.enumerate_nc(range(1, _ABOVE + 1))
    with pytest.raises(SizeLimitError):
        ncpart.moments_to_cumulants(lambda w: 1, ("x",) * _ABOVE)
    assert [t.cache_info().currsize for t in tables] == before


def test_moments_to_cumulants_refuses_before_any_call():
    phi, calls = _counting(lambda w: 1)
    with pytest.raises(SizeLimitError):
        ncpart.moments_to_cumulants(phi, ("x",) * _ABOVE)
    assert calls == []


def test_multiplicative_extension_concrete():
    phi_values = {("a", "c"): Fraction(3, 2), ("b",): Fraction(-2)}
    pi = NonCrossingPartition((1, 2, 3), [(1, 3), (2,)])
    got = ncpart.multiplicative_extension(phi_values.__getitem__, pi, ("a", "b", "c"))
    assert got == Fraction(-3)


def test_transform_arity_errors():
    with pytest.raises(ArityError):
        ncpart.moments_to_cumulants(lambda w: 1, ())
    with pytest.raises(ArityError):
        ncpart.cumulants_to_moments(lambda w: 1, ())
    pi = NonCrossingPartition((1, 2), [(1, 2)])
    with pytest.raises(ArityError):
        ncpart.multiplicative_extension(lambda w: 1, pi, ("a",))
