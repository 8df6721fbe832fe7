"""Monte Carlo cross-checks with random matrices.

The generator is realized as a Wishart matrix A = (jump/N) X X^T with X an
N-by-M standard Gaussian block, M = floor(rate * N); its spectrum tends to
the free Poisson law, an atom at zero of mass 1 - rate plus a
Marchenko-Pastur bulk.  Exact matrix letters b are embedded as b kron I_M,
with no random rotation: X has i.i.d. Gaussian entries, so U^T X has the law
of X for every orthogonal U, and (U^T A U, b kron I) has the joint law of
(A, b kron I) at every N.  The pair is asymptotically free because the law
of A is orthogonally invariant (Mingo and Speicher, *Free Probability and
Random Matrices*, ch. 4).

Since M = N/n, X splits into n square row blocks X_i with Gram blocks
G_ij = X_i^T X_j, and for a word cut before each generator letter,

    tr_N(Z c_1 Z c_2 ... Z c_k) = (jump/N)^k tr(W(c_1) ... W(c_k)) / N,
    W(c) = X^T (c kron I) X = sum_ij c_ij G_ij,

by cycling X^T to the front of the trace, with no N-by-N product at all.
A unit factor c = E_ij is the Gram block G_ij itself, a zero factor makes
the trace an exact 0, and any other W(c) is summed once per trial.  The
words of a batch share their head products W(c_1) ... W(c_{k-1}): each
distinct head is multiplied once per trial, and each word then costs one
O(M^2) trace.  Each word's factors c_1, ..., c_k are compiled once per
(word, n) in exact arithmetic and memoised under the package's memo policy:
the word is validated when the memo misses, and a bad word leaves no entry,
so it raises ``ConfigError`` on every call.  The spectrum of A likewise
comes from the M-by-M Gram X^T X = sum_i G_ii, which shares the nonzero
eigenvalues of X X^T.

Each trial draws X once.  :func:`_trial_draw` returns its row blocks and
diagonal Gram blocks G_ii, and the word traces and the spectrum of the same
(config, trial) share them: the words form only the off-diagonal blocks,
and the spectrum only sums the diagonal ones.  The draw is memoised with a
bound of one entry, so at most one trial's X and its n diagonal blocks
outlive a call (8 MB at n=2, N=1000);
:meth:`FreePairSampler.spectra_and_words` hands each draw to both at once.
Both consumers compute from the memoised arrays in the same way whether the
entry was cached or not, so no result depends on the cache or on call
order.  Per-trial randomness comes from independent streams seeded by
(seed, trial), which makes every estimate reproducible from its seed.

This is the only module in the package that touches floating point.  numpy
loads with it; scipy is needed only by :func:`mp_continuous_mass`, which
imports it on its first call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import ratmat
from ._caches import memo
from .errors import ConfigError, SizeLimitError
from .model import ModelLetter, ModelParams, _split_word

__all__ = [
    "SimulationConfig", "MomentEstimate", "FreePairSampler",
    "sample_free_poisson",
    "atom_mass_estimate", "mp_support", "mp_density", "mp_continuous_mass",
    "outside_support_fraction",
]

# how far past the Marchenko-Pastur bulk edges an eigenvalue may sit before
# it counts as outside the support
SUPPORT_SLACK = 0.3

# the largest matrix size N: one n=2 trial's spectrum in a fresh process on
# a two-core machine took 1.1 s and 85 MB resident at N=2000, 0.9 s and
# 225 MB at 4000, and 5.8 s and 781 MB at 8000; X alone grows like N**2
N_LIMIT = 8000


@dataclass(frozen=True)
class SimulationConfig:
    """Monte Carlo parameters for the n-by-n model at matrix size N."""
    n: int
    N: int
    trials: int = 20
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ConfigError(f"n must be an integer >= 2, got {self.n!r}")
        if not isinstance(self.N, int) or self.N < 100:
            raise ConfigError(f"N must be an integer >= 100, got {self.N!r}")
        if self.N > N_LIMIT:
            raise SizeLimitError(
                f"N={self.N} is above the Monte Carlo size limit of {N_LIMIT}")
        if self.N % self.n:
            raise ConfigError(f"N={self.N} must be divisible by n={self.n}")
        if (not isinstance(self.trials, int) or isinstance(self.trials, bool)
                or self.trials < 1):
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if (not isinstance(self.seed, int) or isinstance(self.seed, bool)
                or self.seed < 0):
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def rate(self) -> Fraction:
        return Fraction(1, self.n)

    @property
    def jump(self) -> int:
        return self.n

    @property
    def gaussian_columns(self) -> int:
        # floor(rate * N)
        return self.N // self.n

    @property
    def atom_threshold(self) -> float:
        return 1e-6 * self.n


@dataclass(frozen=True)
class MomentEstimate:
    """A word trace estimate; std_error_ok is False when trials == 1."""
    value: float
    std_error: float
    trials: int

    @property
    def std_error_ok(self) -> bool:
        return self.trials > 1


def _rng(config: SimulationConfig, trial: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, trial])


@memo(maxsize=1)
def _trial_draw(config: SimulationConfig, trial: int):
    """A trial's row blocks X_i of X and diagonal Gram blocks G_ii = X_i^T X_i.

    X is drawn once from the trial's stream and each G_ii is one syrk.  The
    arrays are read-only, since the memo hands the same ones to every
    caller; one entry is kept, as each holds megabytes.
    """
    X = _rng(config, trial).standard_normal((config.N, config.gaussian_columns))
    X.setflags(write=False)
    rows = tuple(np.split(X, config.n))
    diag = tuple(r.T @ r for r in rows)
    for g in diag:
        g.setflags(write=False)
    return rows, diag


# ---------------------------------------------------------------------------
# spectra of the generator alone


def sample_free_poisson(config: SimulationConfig) -> np.ndarray:
    """Eigenvalue samples of the Wishart generator, shape (trials, N).

    Rows are ascending.  The nonzero part is the M eigenvalues of the
    M-by-M Gram X^T X = sum_i G_ii, the sum of the trial's diagonal Gram
    blocks from :func:`_trial_draw`, scaled by jump/N; A = (jump/N) X X^T
    has rank M, so its other N - M eigenvalues are structural zeros,
    written as exact zeros rather than computed.  A trial whose draw the
    word traces just made reuses it; the sum is formed the same way either
    way, so the samples do not depend on the cache.
    """
    return np.stack([_spectrum(config, _trial_draw(config, t)[1])
                     for t in range(config.trials)])


def _spectrum(config: SimulationConfig, diag) -> np.ndarray:
    """One trial's ascending spectrum from its diagonal Gram blocks G_ii."""
    N = config.N
    gram_spectrum = np.linalg.eigvalsh(sum(diag[1:], diag[0]))
    return np.concatenate([np.zeros(N - config.gaussian_columns),
                           config.jump / N * gram_spectrum])


def atom_mass_estimate(eigenvalues: np.ndarray, config: SimulationConfig) -> float:
    """Fraction of eigenvalues below the atom threshold."""
    return float(np.mean(eigenvalues < config.atom_threshold))


def mp_support(rate, jump) -> tuple[float, float]:
    """Support of the continuous part: jump * (1 -+ sqrt(rate))**2."""
    rate = float(rate)
    jump = float(jump)
    s = math.sqrt(rate)
    return jump * (1 - s) ** 2, jump * (1 + s) ** 2


def mp_density(x: float, rate, jump) -> float:
    """Density of the Marchenko-Pastur bulk of the free Poisson law."""
    a, b = mp_support(rate, jump)
    if x <= a or x >= b:
        return 0.0
    return math.sqrt((b - x) * (x - a)) / (2 * math.pi * float(jump) * x)


def mp_continuous_mass(rate, jump) -> float:
    """Numerically integrated bulk mass; the atom then carries 1 minus this."""
    from scipy import integrate

    a, b = mp_support(rate, jump)
    mass, _ = integrate.quad(mp_density, a, b, args=(rate, jump), limit=200)
    return mass


def outside_support_fraction(eigenvalues: np.ndarray,
                             config: SimulationConfig) -> float:
    """Fraction of nonzero-part eigenvalues outside the widened bulk support."""
    a, b = mp_support(config.rate, config.jump)
    nz = eigenvalues[eigenvalues >= config.atom_threshold]
    if nz.size == 0:
        return 0.0
    return float(np.mean((nz < a - SUPPORT_SLACK) | (nz > b + SUPPORT_SLACK)))


# ---------------------------------------------------------------------------
# mixed words through the Gram blocks of X


@memo
def _compile_plan(word: tuple[ModelLetter, ...], n: int):
    """Compile a word into its exact value or the factors c_1, ..., c_k.

    The word is validated only when the memo misses, and an error leaves no
    entry, so a bad word raises ``ConfigError`` on every call.  An
    unhashable letter fails the lookup itself, before this body runs;
    :meth:`FreePairSampler._walk` then validates the word.

    Matrix-only words evaluate exactly to a float.  A word containing the
    generator is cyclically rotated (the trace is invariant) to start at its
    longest generator run, then read as Z c_1 Z c_2 ... Z c_k: c_i is the
    exact product of the matrix letters after the i-th Z, or the identity
    when there are none.  The factors come back as nested float tuples, so
    equal plans hash alike.
    """
    D, _ = _split_word(word, ModelParams(n))
    if not D:
        if not word:
            return 1.0
        return float(ratmat.product_trace(tuple(l.matrix for l in word)))
    q = len(word)

    def run_starting(i: int) -> int:
        k = 0
        while k < q and word[(i + k) % q].is_z:
            k += 1
        return k

    # an all-generator word has no run start and keeps its order
    best = max((i for i in range(q) if word[i].is_z and not word[i - 1].is_z),
               key=run_starting, default=0)
    factors = []
    for letter in word[best:] + word[:best]:
        if letter.is_z:
            factors.append(ratmat.identity(n))
        else:
            factors[-1] = ratmat.mat_mul(factors[-1], letter.matrix)
    return tuple(tuple(tuple(float(x) for x in row) for row in c) for c in factors)


def _gram_combination(c, gram: dict, built: dict):
    """W(c) = sum_ij c_ij G_ij, or None when c is zero.

    A unit factor E_ij is returned as the block G_ij itself (a transposed
    view when i > j); any other factor is summed into a new array once and
    kept in ``built`` for the rest of the trial.
    """
    if c not in built:
        terms = [(a, gram[i, j]) for i, row in enumerate(c)
                 for j, a in enumerate(row) if a]
        if not terms:
            w = None
        elif len(terms) == 1 and terms[0][0] == 1.0:
            w = terms[0][1]
        else:
            (a, g), *rest = terms
            w = a * g
            for a, g in rest:
                w += g if a == 1.0 else a * g
        built[c] = w
    return built[c]


def _shared_length(a: tuple, b: tuple) -> int:
    """Length of the longest common prefix of two factor sequences."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


class FreePairSampler:
    """Joint sampler for the Wishart generator and embedded matrix letters.

    Build once per configuration and batch words through
    :meth:`estimate_words`, or through :meth:`spectra_and_words` with the
    spectra.  A trial takes X's row blocks and the diagonal Gram blocks
    G_ii from :func:`_trial_draw` and forms only the off-diagonal G_ij; the
    spectrum of the same trial, eigvalsh of sum_i G_ii in
    :func:`sample_free_poisson`, reuses that draw.  The words
    of the batch share each W(c) and each head product
    W(c_1) ... W(c_{k-1}) within the trial, and nothing is shared between
    trials.  A trial holds at most (longest plan - 1) head products at
    once, plus the summed W(c) of its distinct non-unit factors.  Every
    product is formed left to right from the same arrays whatever the
    batch, so a word's estimate does not depend on the words batched with
    it or on their order.
    """

    def __init__(self, config: SimulationConfig):
        self.config = config

    def _trial_values(self, rows, diag, plans) -> list[float]:
        """Traces of the mixed plans in one trial, from its draw.

        The plans are visited sorted by head, so those sharing a head
        prefix are adjacent.  ``heads[d]`` holds W(c_1) ... W(c_{d+1}) of the
        current head (None once a factor is zero) and is dropped as soon
        as the next plan no longer shares it.
        """
        cfg = self.config
        n, N = cfg.n, cfg.N
        gram = {}
        for i in range(n):
            for j in range(i, n):
                g = diag[i] if i == j else rows[i].T @ rows[j]
                # G_ji is the transposed view of G_ij, the diagonal too: the
                # bits of a product depend on its operands' memory layout
                gram[i, j] = g
                gram[j, i] = g.T
        built: dict = {}
        scale = cfg.jump / N
        order = sorted(range(len(plans)),
                       key=lambda p: (plans[p][:-1], plans[p][-1]))
        values = [0.0] * len(plans)
        heads: list = []
        for pos, p in enumerate(order):
            head, last = plans[p][:-1], plans[p][-1]
            for c in head[len(heads):]:
                w = _gram_combination(c, gram, built)
                if heads:
                    w = None if heads[-1] is None or w is None else heads[-1] @ w
                heads.append(w)
            w = _gram_combination(last, gram, built)
            if w is None or (heads and heads[-1] is None):
                trace = 0.0
            elif heads:
                trace = np.einsum("ij,ji->", heads[-1], w)
            else:
                trace = np.trace(w)
            values[p] = scale ** len(plans[p]) * float(trace) / N
            following = plans[order[pos + 1]][:-1] if pos + 1 < len(order) else ()
            del heads[_shared_length(head, following):]
        return values

    def estimate_words(self, words: Sequence[Sequence[ModelLetter]]
                       ) -> list[MomentEstimate]:
        return self._walk(words, spectra=False)[1]

    def spectra_and_words(self, words: Sequence[Sequence[ModelLetter]]
                          ) -> tuple[np.ndarray, list[MomentEstimate]]:
        """``(sample_free_poisson(config), estimate_words(words))`` in one walk.

        Each trial reads its draw once and hands the same arrays to its
        spectrum and its word traces, so the pair equals the two separate
        calls bit for bit.
        """
        return self._walk(words, spectra=True)

    def _walk(self, words, spectra: bool):
        cfg = self.config
        T = cfg.trials
        words = [tuple(w) for w in words]
        try:
            plans = [_compile_plan(w, cfg.n) for w in words]
        except TypeError:
            # an unhashable letter fails the lookup before validation runs
            for w in words:
                _split_word(w, ModelParams(cfg.n))
            raise
        mixed = list(dict.fromkeys(p for p in plans if isinstance(p, tuple)))
        column = {p: j for j, p in enumerate(mixed)}

        # matrix-only words need no draw when no spectrum is asked for
        eigs, values = [], []
        if spectra or mixed:
            for trial in range(T):
                rows, diag = _trial_draw(cfg, trial)
                if spectra:
                    eigs.append(_spectrum(cfg, diag))
                values.append(self._trial_values(rows, diag, mixed) if mixed else [])
        values = np.array(values)
        out = []
        for p in plans:
            if not isinstance(p, tuple):
                out.append(MomentEstimate(p, 0.0, T))
                continue
            col = values[:, column[p]]
            se = float(np.std(col, ddof=1) / math.sqrt(T)) if T > 1 else 0.0
            out.append(MomentEstimate(float(col.mean()), se, T))
        return (np.stack(eigs) if spectra else None), out

    def estimate(self, word: Sequence[ModelLetter]) -> MomentEstimate:
        return self.estimate_words([word])[0]
