"""Free probability over exact scalars.

Provides the algebra oracle interface, the centering algorithm that reduces a
free product moment to single-algebra traces, mixed cumulants by Mobius
inversion, a freeness certifier, and the free Poisson moment and cumulant
family.

The centering route is kept deliberately independent of the partition
factorization implemented in :mod:`ncfree.model`; agreement of the two is one
of the package's main correctness checks.
"""
from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence

from . import ncpart, ratmat
from .errors import ArityError, ConfigError, SizeLimitError, UnsupportedProductError

ExactScalar = ncpart.ExactScalar
MomentSource = Callable[[tuple], ExactScalar]

# the longest word the 2^q centering recursion accepts
WORD_LIMIT = 10


# ---------------------------------------------------------------------------
# algebra oracles


class AlgebraOracle(ABC):
    """Tracial access to one algebra: traces of words, partial products, unit.

    Letters are opaque hashable payloads.  ``multiply`` may refuse a product
    by raising :class:`UnsupportedProductError`; the centering algorithm only
    ever multiplies adjacent letters of the same algebra.
    """

    @property
    @abstractmethod
    def unit(self) -> Hashable:
        """Payload acting as the multiplicative unit."""

    @abstractmethod
    def trace(self, word: tuple) -> ExactScalar:
        """Exact trace of an ordered word of this algebra's letters."""

    def multiply(self, a: Hashable, b: Hashable) -> Hashable:
        raise UnsupportedProductError(
            f"{type(self).__name__} cannot multiply {a!r} and {b!r}")


class MatrixTraceOracle(AlgebraOracle):
    """n-by-n rational matrices under the normalized trace."""

    def __init__(self, n: int):
        if n < 1:
            raise ConfigError(f"matrix size must be positive, got {n}")
        self.n = n
        self._unit = ratmat.identity(n)

    @property
    def unit(self):
        return self._unit

    def trace(self, word: tuple) -> Fraction:
        if not word:
            return Fraction(1)
        for m in word:
            if len(m) != self.n:
                raise ConfigError(f"expected {self.n}x{self.n} matrices")
        return ratmat.product_trace(word)

    def multiply(self, a, b):
        return ratmat.mat_mul(a, b)


class FreePoissonOracle(AlgebraOracle):
    """Powers of a single free Poisson element; payloads are exponents."""

    def __init__(self, rate, jump):
        self.rate = Fraction(rate)
        self.jump = Fraction(jump)

    @property
    def unit(self):
        return 0

    def trace(self, word: tuple) -> Fraction:
        total = sum(word)
        if any(k < 0 for k in word):
            raise ConfigError(f"negative exponent in {word}")
        return free_poisson_moment(self.rate, self.jump, total)

    def multiply(self, a, b):
        return a + b


@dataclass(frozen=True)
class TracialLetter:
    """A letter of a free product word: which algebra, plus its payload."""
    algebra: int
    payload: Hashable


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
    form that ``model.z_moment`` uses.
    """
    if m < 0:
        raise ArityError(f"moment order must be >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    ncpart._check_cap(m)
    rate = Fraction(rate)
    jump = Fraction(jump)
    total = Fraction(0)
    for blocks in ncpart._iter_partitions(m):
        total += rate ** len(blocks)
    return total * jump ** m


# ---------------------------------------------------------------------------
# free product moments by centering


class FreeProduct:
    """Tracial free product of labelled algebra oracles.

    ``moment`` evaluates the trace of a mixed word by the centering recursion:
    merge adjacent same-algebra letters, split every letter into its centered
    part plus a scalar, expand multilinearly, and use that an alternating
    product of centered letters has trace zero.  The cost doubles with each
    letter, so words longer than ``WORD_LIMIT`` are refused.  Subword values
    are memoized on the instance, so one FreeProduct should be reused across
    many words.
    """

    def __init__(self, oracles: Mapping[int, AlgebraOracle]):
        self.oracles = dict(oracles)
        self._memo: dict = {}

    def moment(self, word: Sequence[TracialLetter]) -> Fraction:
        if len(word) > WORD_LIMIT:
            raise SizeLimitError(
                f"word of length {len(word)} above the word limit of {WORD_LIMIT}")
        for letter in word:
            if letter.algebra not in self.oracles:
                raise ConfigError(f"no oracle for algebra {letter.algebra!r}")
        return Fraction(self._moment(self._normalize(word)))

    # -- internals

    def _normalize(self, word) -> tuple:
        # merge adjacent same-algebra letters and drop unit letters; repeats
        # until stable because a merge can create a unit or a new adjacency
        out: list[TracialLetter] = []
        for letter in word:
            cur = letter
            while True:
                if cur.payload == self.oracles[cur.algebra].unit:
                    cur = None
                    break
                if out and out[-1].algebra == cur.algebra:
                    prev = out.pop()
                    merged = self.oracles[cur.algebra].multiply(prev.payload, cur.payload)
                    cur = TracialLetter(cur.algebra, merged)
                    continue
                break
            if cur is not None:
                out.append(cur)
        return tuple(out)

    def _moment(self, word: tuple) -> ExactScalar:
        if not word:
            return 1
        key = tuple((l.algebra, l.payload) for l in word)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if len(word) == 1:
            letter = word[0]
            value = self.oracles[letter.algebra].trace((letter.payload,))
            self._memo[key] = value
            return value
        q = len(word)
        traces = [self.oracles[l.algebra].trace((l.payload,)) for l in word]
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
                total += coeff * self._moment(self._normalize(sub))
        value = -total
        self._memo[key] = value
        return value


# ---------------------------------------------------------------------------
# mixed cumulants and the freeness certificate


def mixed_cumulant(word: Sequence, moment_source: MomentSource) -> ExactScalar:
    """Free cumulant of a letter tuple given a joint moment functional.

    ``moment_source`` receives subtuples of ``word`` in increasing position
    order and must return exact scalars.
    """
    if len(word) == 0:
        raise ArityError("cumulant of an empty tuple is undefined")
    return ncpart.moments_to_cumulants(moment_source, tuple(word))


@dataclass(frozen=True)
class FreenessReport:
    """Outcome of a freeness sweep.

    ``certified`` is True only when every mixed cumulant in the requested
    range vanished and the range was not truncated at ``WORD_LIMIT``.
    Violations are (word, value) pairs.
    """
    certified: bool
    violations: tuple
    tuples_checked: int
    max_q: int
    truncated: bool


def freeness_check(generator_sets: Sequence[Sequence], max_q: int,
                   moment_source: MomentSource) -> FreenessReport:
    """Certify vanishing of mixed cumulants across the generator sets.

    Sweeps every tuple of length 2..max_q over the union of the sets that
    draws letters from at least two different sets, and evaluates its free
    cumulant against ``moment_source``.  Letters should be distinct across
    sets.  If max_q exceeds ``WORD_LIMIT`` the sweep stops at that length and
    the report is marked truncated instead of raising.  A max_q below 2
    would check no tuple at all and raises :class:`ArityError`.
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
            value = mixed_cumulant(letters, moment_source)
            if value != 0:
                violations.append((letters, value))
    return FreenessReport(
        certified=not violations and not truncated,
        violations=tuple(violations),
        tuples_checked=checked,
        max_q=max_q,
        truncated=truncated,
    )
