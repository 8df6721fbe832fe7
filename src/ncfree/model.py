"""Exact moment model: one free Poisson generator Z coupled to M_n.

The generator Z carries free cumulants n**(q-1), the free Poisson family with
rate 1/n and jump n.  Traces of mixed words in Z and n-by-n rational matrices
factorize over non-crossing partitions of the Z positions: each partition pi
contributes its cumulant weight n**(|D| - |pi|) times the product of
normalized traces of the matrix letters grouped by the complement partition
of the matrix positions.  ``pi_term`` exposes one summand of that formula
together with its loop bookkeeping; ``tau_word`` sums them.

``centering_moment`` evaluates the same trace through the free product
centering algorithm of :mod:`ncfree.freeprob`, on a word of letter payloads
(Z becomes the power 1, a matrix letter its matrix), and shares no code or
memo with the factorization; keeping both routes in agreement is
acceptance-critical.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import freeprob, ncpart, ratmat
from ._caches import memo
from ._record import Record
from .errors import (ArityError, ConfigError, GroundMismatchError,
                     InconsistencyError, SizeLimitError)
from .freeprob import FreeProduct, mixed_cumulant
from .ncpart import NonCrossingPartition


class ModelParams(Record):
    """Model size: the matrix algebra is n-by-n, n >= 2."""
    __slots__ = _fields = ("n",)

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ConfigError(f"n must be an integer >= 2, got {n!r}")
        self._set(n=n)


class ModelLetter(Record):
    """One letter of a model word: an n-by-n matrix, or Z when it is None.

    Letters compare by value.  Their hash is computed once, at construction,
    and kept in a slot that is not a field: words and letter tuples key the
    memo tables (``_tau``, ``_tau_numerator``, ``_product_trace``,
    ``_matrix_cumulant``, ``rmt._compile_plan``), and a field-derived hash
    would re-hash every ``Fraction`` entry of the matrix at each lookup.
    hash(-1) == hash(-2) for ints and Fractions, so the hash also mixes in
    which entries are -1; without that, letters that differ only by
    -1 <-> -2 entries would all collide.  No output order depends on it.
    """
    __slots__ = ("matrix", "_hash")
    _fields = ("matrix",)

    def __init__(self, matrix: tuple | None = None):
        if matrix is not None:
            # square rows of Fractions, so that letters hash and compare by value
            matrix = ratmat.matrix(matrix)
        # () stands in for Z: hash(None) differs between processes before 3.12
        minus_one = tuple(x == -1 for row in matrix or () for x in row)
        self._set(matrix=matrix, _hash=hash((matrix or (), minus_one)))

    def __eq__(self, other):
        # memo lookups compare letters whose hashes collide, so skip the
        # generic field tuples here
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_z(self) -> bool:
        return self.matrix is None


Z = ModelLetter()


def matrix_letter(rows) -> ModelLetter:
    """Wrap a square rational matrix as a word letter."""
    return ModelLetter(rows)


def _split_word(word: Sequence[ModelLetter], params: ModelParams
                ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # 1-based generator and matrix positions; validates matrix sizes
    D = []
    E = []
    for i, letter in enumerate(word, start=1):
        if not isinstance(letter, ModelLetter):
            raise ConfigError(f"expected ModelLetter, got {letter!r}")
        if letter.is_z:
            D.append(i)
        else:
            if len(letter.matrix) != params.n:
                raise ConfigError(
                    f"matrix letter of size {len(letter.matrix)} in an n={params.n} model")
            E.append(i)
    return tuple(D), tuple(E)


def _word_label(word: Sequence[ModelLetter]) -> str:
    # the CLI's word syntax, Z M[[1,0],[0,0]] Z, which ``cli.parse_word`` reads
    return " ".join(
        "Z" if l.is_z else
        "M[" + ",".join("[" + ",".join(map(str, row)) + "]"
                        for row in l.matrix) + "]"
        for l in word)


# ---------------------------------------------------------------------------
# dimensions and the generator's moment family


def dim_box(k: int, params: ModelParams) -> int:
    """Dimension of the k-th graded box of the model: n**(k-1)."""
    if k < 1:
        raise ArityError(f"grading index must be >= 1, got {k}")
    return params.n ** (k - 1)


def z_cumulant(q: int, params: ModelParams) -> Fraction:
    """q-th free cumulant of the generator: n**(q-1)."""
    if q < 1:
        raise ArityError(f"cumulant order must be >= 1, got {q}")
    return Fraction(params.n ** (q - 1))


def z_moment(m: int, params: ModelParams) -> Fraction:
    """m-th moment of the generator in closed form, sum_k N(m,k) n**(m-k).

    NC(m) has Narayana many, N(m,k) = C(m,k) C(m,k-1) / m, partitions with
    k blocks, and each weighs n**(m-k).  The sum runs by Horner's rule in n,
    with N(m,1) = 1 and N(m,k+1) = N(m,k) (m-k)(m-k+1) / (k(k+1)).  No size
    limit applies; ``freeprob.free_poisson_moment`` keeps the enumeration as
    the oracle.
    """
    if m < 0:
        raise ArityError(f"moment order must be >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    total, narayana = 0, 1
    for k in range(1, m + 1):
        total = total * params.n + narayana
        narayana = narayana * (m - k) * (m - k + 1) // (k * (k + 1))
    return Fraction(total)


# ---------------------------------------------------------------------------
# word traces by partition factorization

@memo
def _product_trace(letters: tuple) -> Fraction:
    # normalized trace of a tuple of matrix letters, keyed on the letters so
    # that a lookup reads each stored hash; looks ratmat.product_trace up at
    # call time, so wrapping it sees these calls
    return ratmat.product_trace(tuple(letter.matrix for letter in letters))


def _block_trace(word: Sequence[ModelLetter], positions: Sequence[int]) -> Fraction:
    """Normalized trace of the matrix letters at the given 1-based positions."""
    return _product_trace(tuple(word[j - 1] for j in positions))


def _cumulant_weight(n: int, d_size: int, block_count: int) -> int:
    # weight of one generator partition: n**(|D| - |pi|)
    return n ** (d_size - block_count)


def tau_word(word: Sequence[ModelLetter], params: ModelParams) -> Fraction:
    """Exact trace of a word in the generator and matrix letters.

    Sums, over non-crossing partitions pi of the generator positions, the
    cumulant weight n**(|D| - |pi|) times the product of normalized traces of
    the matrix letters grouped by the complement partition of the matrix
    positions.  Adjacent matrix letters are not merged beforehand; the
    grouping handles them.  The empty word has trace 1.  The enumerator of
    NC(|D|) refuses more than ``ncpart.ENUMERATION_LIMIT`` generator letters.

    The word is validated only when the memo misses; an unhashable letter
    fails the lookup itself, and is then validated to raise ConfigError.
    """
    word = tuple(word)
    try:
        return _tau(word, params.n)
    except TypeError:
        _split_word(word, params)
        raise


@memo
def _tau(word: tuple, n: int) -> Fraction:
    # the partition sum of tau_word; a miss validates the word, and an error
    # leaves no entry, so a bad word raises on every call
    D, E = _split_word(word, ModelParams(n))
    if not D:
        return _block_trace(word, E) if E else Fraction(1)
    total = Fraction(0)
    for pi_blocks in ncpart._relabel(ncpart._partitions(len(D)), D):
        term = Fraction(_cumulant_weight(n, len(D), len(pi_blocks)))
        for V in ncpart._rest_complement(pi_blocks, E):
            term *= _block_trace(word, V)
        total += term
    return total


def _loop_count(pi: NonCrossingPartition, comp: NonCrossingPartition) -> int:
    # closed internal loops of the summand of pi, whose ground is D, and its
    # complement partition comp: 2 * (|D| - |pi| - |pi_tilde| + 1)
    return 2 * (len(pi.ground) - len(pi) - len(comp) + 1)


class PiTermBreakdown(Record):
    """One summand of the word-trace factorization, with loop bookkeeping.

    Only pi, pi_tilde and the block traces are stored; ``cumulant_factor``,
    ``loop_count`` = 2 * (|D| - |pi| - |pi_tilde| + 1) and ``value`` are
    computed from them.  A pi_tilde too fine for pi has a negative loop
    count and is refused.
    """
    __slots__ = _fields = ("n", "pi", "pi_tilde", "block_traces")

    def __init__(self, n: int, pi: NonCrossingPartition,
                 pi_tilde: NonCrossingPartition, block_traces: tuple):
        self._set(n=n, pi=pi, pi_tilde=pi_tilde, block_traces=block_traces)
        if self.loop_count < 0:
            raise ConfigError(f"loop count must be >= 0, got {self.loop_count}")

    @property
    def cumulant_factor(self) -> int:
        return _cumulant_weight(self.n, len(self.pi.ground), len(self.pi))

    @property
    def loop_count(self) -> int:
        return _loop_count(self.pi, self.pi_tilde)

    @property
    def value(self) -> Fraction:
        value = Fraction(self.cumulant_factor)
        for _, t in self.block_traces:
            value *= t
        return value


def floating_loops(D: Iterable[int], E: Iterable[int],
                   pi: NonCrossingPartition) -> int:
    """Closed internal loops of one summand: 2 * (|D| - |pi| - |pi_tilde| + 1)."""
    return _loop_count(pi, ncpart.pi_tilde(D, E, pi))


def pi_term(word: Sequence[ModelLetter], pi: NonCrossingPartition,
            params: ModelParams) -> PiTermBreakdown:
    """Breakdown of the summand attached to one generator partition.

    ``pi`` must be a non-crossing partition of the word's generator
    positions; words without a generator letter are rejected.
    """
    word = tuple(word)
    D, E = _split_word(word, params)
    if not D:
        raise ArityError("pi_term needs at least one generator letter")
    if pi.ground != D:
        raise GroundMismatchError(
            f"partition ground {pi.ground} is not the generator set {D}")
    comp = ncpart.pi_tilde(D, E, pi)
    traces = tuple((V, _block_trace(word, V)) for V in comp.blocks)
    try:
        return PiTermBreakdown(n=params.n, pi=pi, pi_tilde=comp, block_traces=traces)
    except ConfigError as exc:
        # pi_tilde was built here from a valid pi, so the complement is at fault
        raise InconsistencyError(f"complement of {pi} refused: {exc}") from exc


# ---------------------------------------------------------------------------
# free cumulants of words on integer numerators


def _numerator_scale(word: Sequence[ModelLetter], n: int) -> int:
    # n * e, with e the lcm of the word's matrix-entry denominators
    return n * math.lcm(*(x.denominator for letter in word if not letter.is_z
                          for row in letter.matrix for x in row))


@memo
def _tau_numerator(word: tuple, n: int, scale: int) -> int:
    # scale**|word| * tau(word) on a validated word, which must be an integer
    value = _tau(word, n) * scale ** len(word)
    if value.denominator != 1:
        raise InconsistencyError(
            f"{scale}**{len(word)} * tau({_word_label(word)}) = {value} "
            f"is not an integer")
    return value.numerator


def word_cumulant(word: Sequence[ModelLetter], params: ModelParams) -> Fraction:
    """Free cumulant of the letters of a word under the trace ``tau_word``.

    Equals ``freeprob.mixed_cumulant(word, lambda w: tau_word(w, params))``,
    but the Mobius sum runs on integers.  With e the lcm of the word's
    matrix-entry denominators, every subword w has an integer numerator
    N(w) = (n e)**|w| tau(w): each block trace of the factorization has a
    denominator dividing n e**|V|, and the complement has at most |w|
    blocks.  Each term of the sum multiplies numerators over a partition of
    the q letters, so all terms share the denominator (n e)**q, divided out
    once at the end.  A numerator that is not an integer means the traces or the
    scale are wrong and raises :class:`InconsistencyError`.
    """
    word = tuple(word)
    _split_word(word, params)
    scale = _numerator_scale(word, params.n)
    total = ncpart.moments_to_cumulants(
        lambda sub: _tau_numerator(sub, params.n, scale), word)
    return Fraction(total, scale ** len(word))


# ---------------------------------------------------------------------------
# split cumulants of the coupled family


@memo
def _matrix_cumulant(letters: tuple) -> Fraction:
    # free cumulant of matrix letters under the normalized trace; looks
    # mixed_cumulant up at call time, so wrapping it sees these calls
    return Fraction(mixed_cumulant(letters, _product_trace))


def tilde_kappa(word: Sequence[ModelLetter], sigma: NonCrossingPartition,
                params: ModelParams) -> Fraction:
    """Cumulant of the coupled family at one partition of all positions.

    Nonzero only when every block of sigma stays inside the generator
    positions or inside the matrix positions.  Pure generator blocks
    contribute n**(size-1); pure matrix blocks contribute the free cumulant
    of their matrix letters under the normalized trace.  Summing over all of
    NC(q) recovers ``tau_word``.
    """
    word = tuple(word)
    D, E = _split_word(word, params)
    q = len(word)
    if sigma.ground != tuple(range(1, q + 1)):
        raise GroundMismatchError(
            f"partition ground {sigma.ground} is not 1..{q}")
    dset = set(D)
    eset = set(E)
    value = Fraction(1)
    for block in sigma.blocks:
        if all(x in dset for x in block):
            value *= z_cumulant(len(block), params)
        elif all(x in eset for x in block):
            value *= _matrix_cumulant(tuple(word[j - 1] for j in block))
        else:
            return Fraction(0)
    return value


# ---------------------------------------------------------------------------
# independent route through the free product centering algorithm

def centering_moment(word: Sequence[ModelLetter], params: ModelParams, *,
                     cap: int = freeprob.WORD_LIMIT) -> Fraction:
    """The word trace computed by the centering algorithm, not factorization.

    Independent route used to cross-check :func:`tau_word`; the generator is
    realized as a free Poisson element with rate 1/n and jump n, free from
    the matrix algebra.  Words longer than ``cap`` are refused; a cap above
    ``freeprob.WORD_LIMIT`` cannot lift that limit.
    """
    _split_word(word, params)
    if len(word) > cap:
        raise SizeLimitError(f"word of length {len(word)} above the cap of {cap}")
    return FreeProduct(params.n).moment(
        tuple(1 if letter.is_z else letter.matrix for letter in word))
