"""Non-crossing partition calculus over integer ground sets.

This is the combinatorial layer everything else builds on: enumeration of
non-crossing partitions, the refinement order, the Mobius function of the
lattice, multiplicative extension of functionals, the moment/cumulant
transforms, and the complement-on-the-rest construction ``pi_tilde`` that
pairs a partition of marked positions with the coarsest compatible partition
of the remaining positions.

All scalars are exact (``int`` or ``fractions.Fraction``); nothing here
touches floating point.  Ground sets are strictly increasing tuples of
positive integers, so partitions of {2,5,8} and of {1,2,3} are distinct
objects even though they are order isomorphic.

The Mobius function enumerates nothing.  An interval [pi, sigma] factors
over the blocks of sigma, and within one block it factors again into full
lattices NC(t) whose sizes t are the block sizes of the Kreweras complement
of the restricted partition, read off in O(t) as the cycle lengths of the
permutation pi**-1 gamma.  Each full lattice contributes the closed form
mu(bottom, top) = (-1)**(t-1) * Cat(t-1) (Kreweras 1972); the test suite
checks it against the defining recursion, and no block of sigma is too
large for it.

Every sum over NC(k) reads one of two memo tables, both built by one
open-block stack walk: ``_partitions(k)`` lists the partitions of positions
0..k-1, and ``_mobius_table(q)`` holds the distinct position blocks of
NC(q) and, per partition, mu(pi, 1) and the indices of its blocks.  Each
table refuses k above ``ENUMERATION_LIMIT`` (12) inside its memoised body,
so a hit pays nothing and a refused size stores nothing.
``moments_to_cumulants`` reads the Mobius table and evaluates its
functional once per distinct block: NC(5) has 126 block occurrences but 31
distinct blocks.  ``cumulants_to_moments`` and ``partitioned_forms_check``
keep the plain per-partition walk over ``_partitions``, so they stay
independent checks of that table.
"""
from __future__ import annotations

import bisect
import itertools
import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Union

from ._caches import memo
from ._record import Record
from .errors import (
    ArityError,
    GroundMismatchError,
    MalformedPartitionError,
    MobiusOrderError,
    SizeLimitError,
)

ExactScalar = Union[int, Fraction]
PartitionFunctional = Callable[[tuple], ExactScalar]

# the largest k of any sum over NC(k), and so of every NC(k) memo table.
# Fresh processes on a two-core machine (Python 3.11) at k = 12 and 13:
# cumulants from-moments 4.8 s and 17.9 s, cumulants to-moments 3.8 s and
# 16.3 s, nc enum 1.6 s (111 MB) and 5.8 s (248 MB); model tau --n 2 took
# 10.8 s for 12 Z among 12 matrix letters (14.4 s at n=3) and 22 s for 13 Z
ENUMERATION_LIMIT = 12

_BLOCK_RE = re.compile(r"\{([^{}]*)\}")
_PARTITION_RE = re.compile(r"(?:\s*\{[^{}]*\}\s*)*")


def catalan(q: int) -> int:
    """Number of non-crossing partitions of a set with q elements."""
    if q < 0:
        raise ArityError(f"catalan undefined for q={q}")
    return math.comb(2 * q, q) // (q + 1)


def as_ground(elements: Iterable[int]) -> tuple[int, ...]:
    """Freeze a ground set; must be strictly increasing positive integers."""
    g = tuple(elements)
    for x in g:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise MalformedPartitionError(
                f"ground elements must be positive integers, got {x!r}")
    if any(a >= b for a, b in zip(g, g[1:])):
        raise MalformedPartitionError(f"ground must be strictly increasing, got {g}")
    return g


def _check_cap(k: int) -> None:
    if k > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"ground of size {k} has {catalan(k)} non-crossing partitions, "
            f"above the enumeration limit of {ENUMERATION_LIMIT}")


# ---------------------------------------------------------------------------
# the partition type


class NonCrossingPartition(Record):
    """A non-crossing partition of a finite integer ground set.

    Blocks are stored canonically: each block ascending, blocks ordered by
    their minima.  Instances are frozen value objects that compare and hash
    by (ground, blocks).

    >>> p = NonCrossingPartition((1, 2, 3), [(1, 3), (2,)])
    >>> str(p)
    '{1,3}{2}'
    >>> p.block_count
    2
    """

    __slots__ = _fields = ("ground", "blocks")

    def __init__(self, ground: Iterable[int], blocks: Iterable[Iterable[int]]):
        g = as_ground(ground)
        canon = []
        for b in blocks:
            bt = tuple(sorted(b))
            if not bt:
                raise MalformedPartitionError("empty block")
            canon.append(bt)
        canon.sort(key=lambda b: b[0])
        covered = sorted(itertools.chain.from_iterable(canon))
        if covered != list(g):
            raise MalformedPartitionError(
                f"blocks {canon} do not partition ground {g}")
        if not _blocks_noncrossing(canon):
            raise MalformedPartitionError(f"blocks {canon} cross")
        self._set(ground=g, blocks=tuple(canon))

    @classmethod
    def _raw(cls, ground: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]):
        # internal fast path: caller guarantees canonical, valid input; two
        # stores, as _set's keyword loop took 0.13 s more for the 208,012
        # partitions of nc enum --q 12
        self = object.__new__(cls)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "blocks", blocks)
        return self

    @classmethod
    def singletons(cls, ground: Iterable[int]) -> "NonCrossingPartition":
        """The finest partition (lattice bottom)."""
        g = as_ground(ground)
        return cls._raw(g, tuple((x,) for x in g))

    @classmethod
    def whole(cls, ground: Iterable[int]) -> "NonCrossingPartition":
        """The one-block partition (lattice top)."""
        g = as_ground(ground)
        return cls._raw(g, (g,) if g else ())

    @classmethod
    def from_string(cls, text: str, ground: Iterable[int] | None = None):
        """Parse a literal like ``{2,8,11}{5}{13,14,17}``.

        Whitespace is ignored.  When ``ground`` is omitted it is taken to be
        the union of the blocks.
        """
        if _PARTITION_RE.fullmatch(text) is None:
            raise MalformedPartitionError(f"cannot parse partition literal {text!r}")
        blocks = []
        for body in _BLOCK_RE.findall(text):
            items = [s.strip() for s in body.split(",") if s.strip()]
            if not items:
                raise MalformedPartitionError(f"empty block in {text!r}")
            try:
                blocks.append(tuple(int(s) for s in items))
            except ValueError as exc:
                raise MalformedPartitionError(f"non-integer entry in {text!r}") from exc
        if ground is None:
            ground = sorted(itertools.chain.from_iterable(blocks))
        return cls(ground, blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def position_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks rewritten as 0-based positions within the ground tuple."""
        index = {x: i for i, x in enumerate(self.ground)}
        return tuple(tuple(index[x] for x in b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __le__(self, other) -> bool:
        return refines(self, other)

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)

    def __repr__(self) -> str:
        return f"NonCrossingPartition[{self}]"


# ---------------------------------------------------------------------------
# crossing test and refinement order


def _blocks_noncrossing(blocks: Sequence[tuple[int, ...]]) -> bool:
    # Scan elements in increasing order keeping a stack of open blocks.  A
    # block may only continue while it sits on top; anything else is a
    # crossing.  Blocks need not be passed in any particular order.
    owner = {}
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    last = {i: b[-1] for i, b in enumerate(blocks)}
    stack: list[int] = []
    open_: set[int] = set()
    for x in sorted(owner):
        i = owner[x]
        if i in open_:
            if stack[-1] != i:
                return False
        else:
            open_.add(i)
            stack.append(i)
        if x == last[i]:
            stack.pop()
            open_.discard(i)
    return True


def is_noncrossing(blocks: Iterable[Iterable[int]]) -> bool:
    """Do the given disjoint blocks form a non-crossing family?

    Raises :class:`MalformedPartitionError` when blocks overlap or are empty;
    crossing itself is reported through the return value.

    >>> is_noncrossing([(1, 3), (2, 4)])
    False
    >>> is_noncrossing([(1, 4), (2, 3)])
    True
    """
    canon = []
    seen: set[int] = set()
    for b in blocks:
        bt = tuple(sorted(b))
        if not bt:
            raise MalformedPartitionError("empty block")
        for x in bt:
            if x in seen:
                raise MalformedPartitionError(f"element {x} appears in two blocks")
            seen.add(x)
        canon.append(bt)
    return _blocks_noncrossing(canon)


def refines(rho: NonCrossingPartition, pi: NonCrossingPartition) -> bool:
    """True when every block of rho sits inside a block of pi."""
    if rho.ground != pi.ground:
        raise GroundMismatchError(
            f"cannot compare partitions of {rho.ground} and {pi.ground}")
    owner = {}
    for i, b in enumerate(pi.blocks):
        for x in b:
            owner[x] = i
    for b in rho.blocks:
        it = iter(b)
        first = owner[next(it)]
        if any(owner[x] != first for x in it):
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration


def _gen_partitions(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    # One walk over 0..k-1 with a stack of open blocks (Nica and Speicher,
    # Lecture 9): element i opens a block, or joins an open one and closes
    # those opened after it, which a later element would cross.  Blocks come
    # out ordered by minima; a grown block + (i,) is restored on backtrack,
    # so partitions that share a block share its tuple.
    blocks: list[tuple[int, ...]] = []

    def walk(i: int, open_: tuple[int, ...]):
        if i == k:
            yield tuple(blocks)
            return
        blocks.append((i,))
        yield from walk(i + 1, open_ + (len(blocks) - 1,))
        blocks.pop()
        for depth, b in enumerate(open_):
            grown = blocks[b]
            blocks[b] = grown + (i,)
            yield from walk(i + 1, open_[:depth + 1])
            blocks[b] = grown

    return walk(0, ())


@memo
def _partitions(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All non-crossing partitions of positions 0..k-1, deterministic order."""
    _check_cap(k)
    return tuple(_gen_partitions(k))


def _relabel(partitions: Iterable[tuple[tuple[int, ...], ...]],
             ground: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Each partition's position blocks rewritten as elements of the ground.

    A distinct position block is mapped once per call, so partitions that
    share a block share its relabelled tuple as well.
    """
    mapped: dict = {}
    for blocks in partitions:
        out = []
        for b in blocks:
            r = mapped.get(b)
            if r is None:
                r = mapped[b] = tuple([ground[i] for i in b])
            out.append(r)
        yield tuple(out)


def enumerate_nc(ground: Iterable[int]) -> list[NonCrossingPartition]:
    """All non-crossing partitions of the ground set, in a fixed order.

    The order is deterministic: each element in turn opens a new block, then
    joins each open block, earliest opened first; the singletons come first,
    the whole ground last.  Refuses ground sets larger than
    ``ENUMERATION_LIMIT`` (12) before it enumerates, since the count grows
    like Catalan numbers: NC(12) has 208,012 partitions.

    >>> len(enumerate_nc((1, 2, 3)))
    5
    """
    g = as_ground(ground)
    return [NonCrossingPartition._raw(g, b)
            for b in _relabel(_partitions(len(g)), g)]


# ---------------------------------------------------------------------------
# complement on the rest


def _rest_complement(pi_blocks: Sequence[tuple[int, ...]],
                     rest: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    # Direct construction.  Each block of pi with >= 2 elements draws arcs
    # between consecutive members; two rest elements can share a block of the
    # complement exactly when no arc separates them, i.e. when for every such
    # block they are either both outside its span or inside the same gap.
    # Grouping by that signature yields the coarsest compatible partition.
    arcs = [b for b in pi_blocks if len(b) > 1]
    groups: dict[tuple[int, ...], list[int]] = {}
    for e in rest:
        sig = tuple(
            -1 if (e < b[0] or e > b[-1]) else bisect.bisect_left(b, e) - 1
            for b in arcs)
        groups.setdefault(sig, []).append(e)
    return tuple(sorted((tuple(v) for v in groups.values()), key=lambda b: b[0]))


def _split_validate(D: Iterable[int], E: Iterable[int],
                    pi: NonCrossingPartition) -> tuple[tuple[int, ...], tuple[int, ...]]:
    d = as_ground(D)
    e = as_ground(E)
    merged = sorted(d + e)
    q = len(merged)
    if merged != list(range(1, q + 1)):
        raise GroundMismatchError(
            "marked and unmarked positions must split a contiguous range "
            f"1..q, got D={d} E={e}")
    if pi.ground != d:
        raise GroundMismatchError(f"partition ground {pi.ground} is not D={d}")
    return d, e


def pi_tilde(D: Iterable[int], E: Iterable[int],
             pi: NonCrossingPartition) -> NonCrossingPartition:
    """Coarsest partition of E whose union with pi is non-crossing on 1..q.

    D and E must be disjoint and together cover 1..q; pi must be a
    non-crossing partition of D.  Computed directly by the arc-signature
    construction; :func:`pi_tilde_bruteforce` is the independent search route
    and the test suite keeps the two in agreement.

    >>> pi = NonCrossingPartition((2,), [(2,)])
    >>> str(pi_tilde((2,), (1, 3), pi))
    '{1,3}'
    """
    d, e = _split_validate(D, E, pi)
    return NonCrossingPartition._raw(e, _rest_complement(pi.blocks, e))


def pi_tilde_bruteforce(D: Iterable[int], E: Iterable[int],
                        pi: NonCrossingPartition) -> NonCrossingPartition:
    """Oracle route for :func:`pi_tilde`: exhaustive maximal-element search.

    Scans all of NC(E), keeps the candidates whose union with pi stays
    non-crossing, and returns the unique coarsest one.  Raises
    :class:`MalformedPartitionError` if some candidate fails to refine the
    winner, which would contradict the uniqueness of the maximum.
    """
    d, e = _split_validate(D, E, pi)
    valid = []
    for rb in _relabel(_partitions(len(e)), e):
        if _blocks_noncrossing(pi.blocks + rb):
            valid.append(rb)
    best = min(valid, key=len)
    owner = {x: i for i, b in enumerate(best) for x in b}
    for rb in valid:
        for b in rb:
            if len({owner[x] for x in b}) != 1:
                raise MalformedPartitionError(
                    "no unique coarsest compatible partition; maximality failed")
    return NonCrossingPartition._raw(e, best)


def kreweras_complement(pi: NonCrossingPartition) -> NonCrossingPartition:
    """Kreweras complement, returned on the same ground set.

    Interleave a dual copy of the ground with the original and take the
    coarsest partition of the duals compatible with pi; relabel back.
    Satisfies len(pi) + len(complement) == len(ground) + 1.
    """
    # position i sits at 2i and its dual at 2i+1; take the complement on the
    # duals and halve back
    evens = tuple(tuple(2 * i for i in b) for b in pi.position_blocks())
    odds = tuple(range(1, 2 * len(pi.ground), 2))
    blocks = tuple(tuple(pi.ground[x // 2] for x in b)
                   for b in _rest_complement(evens, odds))
    return NonCrossingPartition._raw(pi.ground, blocks)


# ---------------------------------------------------------------------------
# Mobius function


def _mu_to_top(pos_blocks: Sequence[tuple[int, ...]], m: int) -> int:
    # [pi, top] is a product of full lattices NC(t), one per cycle of the
    # permutation pi**-1 gamma, i -> pi**-1(i + 1 mod m), where pi cycles
    # each block upward and gamma = (0 1 ... m-1); its cycles are the blocks
    # of the Kreweras complement (Biane 1997; Nica and Speicher, Lecture
    # 18), and mu(bottom, top) on NC(t) is (-1)**(t-1) Cat(t-1)
    down = [0] * m  # down[x] = pi**-1(x)
    for b in pos_blocks:
        down[b[0]] = b[-1]
        for x, y in zip(b, b[1:]):
            down[y] = x
    seen = [False] * m
    prod = 1
    for start in range(m):
        t = 0
        i = start
        while not seen[i]:
            seen[i] = True
            t += 1
            i = down[(i + 1) % m]
        if t > 1:  # t is 0 on a cycle already walked, and NC(1) has mu 1
            prod *= (-1) ** (t - 1) * catalan(t - 1)
    return prod


def _mobius_positions(pi_blocks: Sequence[tuple[int, ...]],
                      sigma_blocks: Sequence[tuple[int, ...]]) -> int:
    # interval [pi, sigma] factors over the blocks of sigma; each block of pi
    # lies in the block of sigma that holds its first element
    owner = {x: j for j, V in enumerate(sigma_blocks) for x in V}
    inner: list[list[tuple[int, ...]]] = [[] for _ in sigma_blocks]
    for b in pi_blocks:
        inner[owner[b[0]]].append(b)
    prod = 1
    for V, blocks in zip(sigma_blocks, inner):
        index = {x: i for i, x in enumerate(V)}
        prod *= _mu_to_top([tuple(index[x] for x in b) for b in blocks], len(V))
    return prod


def mobius(pi: NonCrossingPartition, sigma: NonCrossingPartition) -> int:
    """Mobius function of the non-crossing partition lattice at (pi, sigma).

    Requires pi to refine sigma; raises :class:`MobiusOrderError` otherwise.
    The interval factors over the blocks of sigma, and each block takes its
    value from the Kreweras complement in closed form, with no enumeration,
    in time linear in the block, so no block of sigma is too large.

    >>> g = (1, 2, 3)
    >>> mobius(NonCrossingPartition.singletons(g), NonCrossingPartition.whole(g))
    2
    """
    if pi.ground != sigma.ground:
        raise GroundMismatchError(
            f"mobius needs a common ground, got {pi.ground} and {sigma.ground}")
    if not refines(pi, sigma):
        raise MobiusOrderError(f"{pi} does not refine {sigma}")
    return _mobius_positions(pi.blocks, sigma.blocks)


@memo
def _mobius_table(q: int) -> tuple[tuple[tuple[int, ...], ...],
                                   tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """NC(q) indexed for Mobius sums: (blocks, mus, rows).

    ``blocks`` lists the distinct position blocks of NC(q) in the order the
    walk first meets them; for the i-th partition, ``mus[i]`` is
    mu(partition, whole) and ``rows[i]`` the indices of its blocks in
    ``blocks``.  Built from the walk itself, so the partition table of
    ``_partitions`` is neither needed nor kept.
    """
    _check_cap(q)
    index: dict[tuple[int, ...], int] = {}
    mus = []
    rows = []
    for part in _gen_partitions(q):
        mus.append(_mu_to_top(part, q))
        rows.append(tuple([index.setdefault(b, len(index)) for b in part]))
    return tuple(index), tuple(mus), tuple(rows)


# ---------------------------------------------------------------------------
# multiplicative extension and the moment/cumulant transforms


def multiplicative_extension(phi: PartitionFunctional, pi: NonCrossingPartition,
                             letters: Sequence) -> ExactScalar:
    """Product of phi over the blocks of pi, block entries in increasing order.

    ``letters[i]`` is attached to the i-th smallest ground element of pi.
    """
    if len(letters) != len(pi.ground):
        raise ArityError(
            f"{len(letters)} letters for a partition of {len(pi.ground)} elements")
    total: ExactScalar = 1
    for b in pi.position_blocks():
        total *= phi(tuple(letters[i] for i in b))
    return total


def moments_to_cumulants(phi: PartitionFunctional, letters: Sequence) -> ExactScalar:
    """Cumulant of the letter tuple from the moment functional phi.

    Mobius inversion against the top element: sum over all non-crossing
    partitions of mu(pi, whole) times the multiplicative extension of phi.
    phi must be a pure function of its tuple.  It is called once per
    distinct block of NC(q), 2**q - 1 times (every nonempty set of
    positions is a block of some non-crossing partition), in table order:
    the order in which the partition walk first meets the blocks.  Each
    value is reused wherever its block occurs.

    The Catalan numbers are the moments of the free Poisson law of rate 1,
    whose free cumulants are all 1:

    >>> moments = {1: 1, 2: 2, 3: 5, 4: 14}
    >>> [moments_to_cumulants(lambda w: moments[len(w)], "x" * q)
    ...  for q in range(1, 5)]
    [1, 1, 1, 1]
    """
    q = len(letters)
    if q == 0:
        raise ArityError("cumulant of an empty tuple is undefined")
    blocks, mus, rows = _mobius_table(q)
    values = [phi(tuple([letters[i] for i in b])) for b in blocks]
    at = values.__getitem__
    total: ExactScalar = 0
    for mu, row in zip(mus, rows):
        total += math.prod(map(at, row), start=mu)
    return total


def cumulants_to_moments(kappa: PartitionFunctional, letters: Sequence) -> ExactScalar:
    """Moment of the letter tuple from the cumulant functional kappa."""
    q = len(letters)
    if q == 0:
        raise ArityError("moment of an empty tuple is undefined")
    total: ExactScalar = 0
    for blocks in _partitions(q):
        term: ExactScalar = 1
        for b in blocks:
            term *= kappa(tuple(letters[i] for i in b))
        total += term
    return total


def partitioned_forms_check(phi: PartitionFunctional, kappa: PartitionFunctional,
                            tau: NonCrossingPartition, letters: Sequence) -> bool:
    """Check the two interval-restricted transform identities at tau.

    Verifies that the extension of phi at tau equals the sum of extensions of
    kappa over partitions refining tau, and that the extension of kappa at tau
    equals the Mobius-weighted sum of extensions of phi over the same range.
    At the top element these reduce to the plain transforms.
    """
    q = len(tau.ground)
    if len(letters) != q:
        raise ArityError(f"{len(letters)} letters for a partition of {q} elements")
    partitions = _partitions(q)
    tau_pos = tau.position_blocks()
    owner = {x: i for i, b in enumerate(tau_pos) for x in b}
    phi_tau = multiplicative_extension(phi, tau, letters)
    kappa_tau = multiplicative_extension(kappa, tau, letters)
    sum_kappa: ExactScalar = 0
    sum_phi: ExactScalar = 0
    for blocks in partitions:
        if any(len({owner[x] for x in b}) != 1 for b in blocks):
            continue
        kp: ExactScalar = 1
        fp: ExactScalar = 1
        for b in blocks:
            sub = tuple(letters[i] for i in b)
            kp *= kappa(sub)
            fp *= phi(sub)
        sum_kappa += kp
        sum_phi += _mobius_positions(blocks, tau_pos) * fp
    return phi_tau == sum_kappa and kappa_tau == sum_phi
