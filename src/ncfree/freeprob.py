"""Free probability over exact scalars.

Provides the free product of the model's generator with M_n and its
centering algorithm, which reduces a mixed moment to single-algebra traces,
mixed cumulants by Mobius inversion, a freeness certifier, and the free
Poisson moment and cumulant family.

The centering route is kept deliberately independent of the partition
factorization implemented in :mod:`ncfree.model`; agreement of the two is one
of the package's main correctness checks.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Sequence

from . import ncpart, ratmat
from ._caches import memo
from ._record import Record
from .errors import ArityError, ConfigError, SizeLimitError

ExactScalar = ncpart.ExactScalar
MomentSource = Callable[[tuple], ExactScalar]

# the longest word the 2^q centering recursion accepts: an alternating
# length-10 word took 0.47 s (median of 7, 0.43-0.53 s) through free
# product-moment --n 2 in fresh processes on a two-core machine (Python 3.11)
WORD_LIMIT = 10


# ---------------------------------------------------------------------------
# free Poisson family


def free_poisson_cumulant(rate, jump, q: int) -> Fraction:
    """q-th free cumulant of the free Poisson law: rate times jump**q."""
    if q < 1:
        raise ArityError(f"cumulant order must be >= 1, got {q}")
    return Fraction(rate) * Fraction(jump) ** q


def free_poisson_moment(rate, jump, m: int) -> Fraction:
    """m-th moment of the free Poisson law, summed over NC(m).

    Each partition contributes rate**blocks times jump**m.  Computed by
    enumeration, so it stays a route independent of the Narayana closed
    form that ``model.z_moment`` uses; m above the enumeration limit fails.
    """
    if m < 0:
        raise ArityError(f"moment order must be >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    rate = Fraction(rate)
    jump = Fraction(jump)
    total = Fraction(0)
    for blocks in ncpart._partitions(m):
        total += rate ** len(blocks)
    return total * jump ** m


# ---------------------------------------------------------------------------
# free product moments by centering


class FreeProduct(Record):
    """Tracial free product of the generator Z with n-by-n matrices.

    Z is the free Poisson element with rate 1/n and jump n.  A word is a
    tuple of letter payloads: an int k >= 0 stands for Z**k, and an n-by-n
    matrix, coerced by ``ratmat.matrix``, stands for itself.  ``moment``
    evaluates the trace by the centering recursion: merge adjacent letters
    of one algebra, split every letter into its centered part plus a
    scalar, expand multilinearly, and use that an alternating product of
    centered letters has trace zero.  Powers of Z are traced by
    ``free_poisson_moment``, matrices by ``ratmat`` traces.  The cost
    doubles with each letter, so words longer than ``WORD_LIMIT`` are
    refused.  An instance holds only n; subword values live in the
    registered memo ``_moment``.

    >>> FreeProduct(2).moment((1, 1)) == 3
    True
    """
    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ConfigError(f"matrix size must be a positive integer, got {n!r}")
        self._set(n=n)

    def moment(self, word: Sequence) -> Fraction:
        if len(word) > WORD_LIMIT:
            raise SizeLimitError(
                f"word of length {len(word)} above the word limit of {WORD_LIMIT}")
        payloads = []
        for letter in word:
            if isinstance(letter, int) and not isinstance(letter, bool):
                if letter < 0:
                    raise ConfigError(f"negative power {letter} of the generator")
            else:
                letter = ratmat.matrix(letter)
                if len(letter) != self.n:
                    raise ConfigError(f"expected a power of Z or a {self.n}x{self.n} "
                                      f"matrix, got a {len(letter)}x{len(letter)} one")
            payloads.append(letter)
        return Fraction(_moment(self.n, _normalize(payloads)))


def _is_unit(letter) -> bool:
    return letter == (0 if isinstance(letter, int) else ratmat.identity(len(letter)))


def _normalize(word) -> tuple:
    # merge adjacent same-algebra letters and drop unit letters; a merge can
    # create a unit, which exposes a new adjacency to the next letter
    out: list = []
    for letter in word:
        while (not _is_unit(letter) and out
               and isinstance(out[-1], int) == isinstance(letter, int)):
            prev = out.pop()
            letter = (prev + letter if isinstance(letter, int)
                      else ratmat.mat_mul(prev, letter))
        if not _is_unit(letter):
            out.append(letter)
    return tuple(out)


@memo
def _moment(n: int, word: tuple) -> ExactScalar:
    # trace of a normalized payload word in the free product with M_n
    if not word:
        return 1
    if len(word) == 1:
        letter = word[0]
        if isinstance(letter, int):
            return free_poisson_moment(Fraction(1, n), n, letter)
        return ratmat.product_trace(word)
    q = len(word)
    traces = [_moment(n, (letter,)) for letter in word]
    # tau(word) = -sum over proper subsets S of (-1)^(q-|S|) *
    #             prod of traces outside S * tau(subword on S);
    # the full-set term vanishes by freeness of centered letters.
    total: ExactScalar = 0
    for mask in range(2 ** q - 1):
        coeff: ExactScalar = 1
        sub = []
        for i in range(q):
            if mask >> i & 1:
                sub.append(word[i])
            else:
                coeff *= -traces[i]
        if coeff != 0:
            total += coeff * _moment(n, _normalize(sub))
    return -total


# ---------------------------------------------------------------------------
# mixed cumulants and the freeness certificate


def mixed_cumulant(word: Sequence, moment_source: MomentSource) -> ExactScalar:
    """Free cumulant of a letter tuple given a joint moment functional.

    ``moment_source`` receives subtuples of ``word`` in increasing position
    order and must return exact scalars.  An empty word raises
    :class:`ArityError`.
    """
    return ncpart.moments_to_cumulants(moment_source, tuple(word))


class FreenessReport(Record):
    """Outcome of a freeness sweep.

    Violations are (word, value) pairs.  ``certified`` is computed from the
    stored fields: True only when every mixed cumulant in the requested
    range vanished and the range was not truncated at ``WORD_LIMIT``.
    """
    __slots__ = _fields = ("violations", "tuples_checked", "max_q", "truncated")

    def __init__(self, violations: tuple, tuples_checked: int, max_q: int,
                 truncated: bool):
        self._set(violations=violations, tuples_checked=tuples_checked,
                  max_q=max_q, truncated=truncated)

    @property
    def certified(self) -> bool:
        return not self.violations and not self.truncated


def freeness_check(generator_sets: Sequence[Sequence], max_q: int,
                   cumulant: Callable[[tuple], ExactScalar]) -> FreenessReport:
    """Certify vanishing of mixed cumulants across the generator sets.

    Sweeps every tuple of length 2..max_q over the union of the sets that
    draws letters from at least two different sets, and evaluates its free
    cumulant with ``cumulant``, for instance
    ``lambda w: mixed_cumulant(w, moment_source)``.  Letters should be
    distinct across sets.  If max_q exceeds ``WORD_LIMIT`` the sweep stops
    at that length and the report is marked truncated instead of raising.
    A max_q below 2 would check no tuple at all and raises
    :class:`ArityError`.
    """
    if max_q < 2:
        raise ArityError(f"a freeness sweep needs max_q >= 2, got {max_q}")
    tagged = [(tag, letter) for tag, group in enumerate(generator_sets)
              for letter in group]
    limit = min(max_q, WORD_LIMIT)
    truncated = max_q > WORD_LIMIT
    violations = []
    checked = 0
    for q in range(2, limit + 1):
        for combo in itertools.product(tagged, repeat=q):
            if len({tag for tag, _ in combo}) < 2:
                continue
            letters = tuple(letter for _, letter in combo)
            checked += 1
            value = cumulant(letters)
            if value != 0:
                violations.append((letters, value))
    return FreenessReport(
        violations=tuple(violations),
        tuples_checked=checked,
        max_q=max_q,
        truncated=truncated,
    )
