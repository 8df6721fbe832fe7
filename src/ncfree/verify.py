"""Self-contained acceptance checks, shared by the CLI and the test suite.

Each check returns a :class:`CheckResult`.  A value mismatch, or an
exception raised by the code under test, is a failed result whose detail
names it, so a failing run still reports every criterion: ``verify all``
then exits 1 and still prints its document.  ``quick`` trims ranges to
seconds for smoke runs; the full depth is what the acceptance tests
execute.  All checks except the Monte Carlo one are exact rational
computations; only the Monte Carlo check loads :mod:`ncfree.rmt`, numpy and
scipy, when it runs.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional

from . import factors, freeprob, model, ncpart, ratmat
from ._record import Record
from .model import ModelParams, Z, _word_label, matrix_letter

VERIFY_SEED = 20260824
# family-wise false-alarm rate of the Monte Carlo gate over its mixed words
MC_FAMILY_RATE = 1e-3

__all__ = [
    "CheckResult", "run_all", "EXACT_CHECKS", "RMT_CHECK",
    "check_catalan_narayana", "check_moment_cumulant_transforms",
    "check_complement_dual_route", "check_generator_free_poisson",
    "check_word_trace_routes", "check_mixed_cumulants_vanish",
    "check_loop_bookkeeping", "check_factor_parameters", "check_monte_carlo",
]


class CheckResult(Record):
    """One check's outcome; ``seconds`` is the check's wall time."""
    __slots__ = _fields = ("name", "ok", "detail", "seconds")

    def __init__(self, name: str, ok: bool, detail: str, seconds: float):
        self._set(name=name, ok=ok, detail=detail, seconds=seconds)


def _check(body: Callable[[list, bool], str]) -> Callable[..., CheckResult]:
    """Wrap ``body(problems, quick) -> summary`` as the check named after it
    (``check_loop_bookkeeping`` reports as ``loop-bookkeeping``).  An
    exception from the body is one more problem, listed first because it cut
    the check short, and never the end of the run."""
    name = body.__name__.removeprefix("check_").replace("_", "-")

    @functools.wraps(body)
    def check(quick: bool = False) -> CheckResult:
        t0 = time.perf_counter()
        problems: list[str] = []
        try:
            summary = body(problems, quick)
        except Exception as exc:
            problems.insert(0, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        if not problems:
            return CheckResult(name, True, summary, seconds)
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        return CheckResult(name, False, "; ".join(problems[:3]) + more, seconds)

    return check


def _random_functional(rng: random.Random):
    """Deterministic random rational value per distinct letter tuple."""
    return functools.cache(
        lambda w: Fraction(rng.randint(-60, 60), rng.randint(1, 24)))


def _letters(n: int, units) -> list[model.ModelLetter]:
    """Z, the matrix units E_ij at the given (i, j), the cyclic permutation."""
    return ([Z] + [matrix_letter(ratmat.matrix_unit(n, i, j)) for i, j in units]
            + [matrix_letter(ratmat.cyclic_permutation(n))])


_LETTERS_N2 = _letters(2, ((1, 1), (1, 2), (2, 1), (2, 2)))
_E11 = _LETTERS_N2[1]


# ---------------------------------------------------------------------------
# 1. enumeration counts


@_check
def check_catalan_narayana(problems: list[str], quick: bool) -> str:
    """Counts match Catalan, block-size buckets match Narayana, all valid."""
    hi = 7 if quick else 10
    total = 0
    for q in range(1, hi + 1):
        parts = ncpart.enumerate_nc(range(1, q + 1))
        total += len(parts)
        catalan = math.comb(2 * q, q) // (q + 1)
        if len(parts) != catalan:
            problems.append(f"q={q}: {len(parts)} partitions, expected {catalan}")
            continue
        if len(set(parts)) != len(parts):
            problems.append(f"q={q}: duplicate partitions in the enumeration")
        buckets = Counter(p.block_count for p in parts)
        for k in range(1, q + 1):
            narayana = math.comb(q, k - 1) * math.comb(q - 1, k - 1) // k
            if buckets.get(k, 0) != narayana:
                problems.append(
                    f"q={q}: {buckets.get(k, 0)} partitions with {k} blocks, "
                    f"expected {narayana}")
        bad = [p for p in parts if not ncpart.is_noncrossing(p.blocks)]
        if bad:
            problems.append(f"q={q}: invalid partition {bad[0]}")
    return f"q<={hi}: {total} partitions, counts+buckets+validity"


# ---------------------------------------------------------------------------
# 2. moment/cumulant transforms


@_check
def check_moment_cumulant_transforms(problems: list[str], quick: bool) -> str:
    """Round trips on random rational functionals plus the four
    interval-restricted transform identities."""
    rng = random.Random(VERIFY_SEED + 2)
    functionals = 12 if quick else 100
    max_q = 5 if quick else 8
    forms_q = 4 if quick else 6
    forms_functionals = 2 if quick else 3
    base = tuple("abcdefgh")
    roundtrips = 0
    for trial in range(functionals):
        letters_full = base if trial % 2 else ("a",) * 8
        given = _random_functional(rng)
        # the randoms are moments in two trials of four, else cumulants
        forth, back = ncpart.moments_to_cumulants, ncpart.cumulants_to_moments
        if trial % 4 >= 2:
            forth, back = back, forth
        derived = functools.cache(lambda w: forth(given, w))
        for q in range(1, max_q + 1):
            letters = letters_full[:q]
            roundtrips += 1
            if back(derived, letters) != given(letters):
                problems.append(f"round trip failed at trial {trial}, q={q}")
                break
    forms = 0
    for trial in range(forms_functionals):
        phi = _random_functional(rng)
        kappa = functools.cache(lambda w: ncpart.moments_to_cumulants(phi, w))
        for q in range(1, forms_q + 1):
            letters = base[:q]
            for tau in ncpart.enumerate_nc(range(1, q + 1)):
                forms += 1
                if not ncpart.partitioned_forms_check(phi, kappa, tau, letters):
                    problems.append(f"restricted identity failed at q={q}, tau={tau}")
    return (f"{functionals} functionals, {roundtrips} round trips, "
            f"{forms} restricted identities")


# ---------------------------------------------------------------------------
# 3. complement on the unmarked positions, two routes


# a split of 1..18 into marked D and unmarked E, with a partition pi of D
_FROZEN_D = (2, 5, 8, 11, 13, 14, 17)
_FROZEN_E = tuple(i for i in range(1, 19) if i not in _FROZEN_D)
_FROZEN_PI = ncpart.NonCrossingPartition(_FROZEN_D, [(2, 8, 11), (5,), (13, 14, 17)])
_FROZEN_COMP = ((1, 12, 18), (3, 4, 6, 7), (9, 10), (15, 16))


def _split_instances(hi: int):
    # every split of 1..q, q <= hi, into marked D and unmarked E, with every pi of D
    for q in range(1, hi + 1):
        for mask in range(1, 2 ** q):
            D = tuple(i for i in range(1, q + 1) if mask >> (i - 1) & 1)
            E = tuple(i for i in range(1, q + 1) if not mask >> (i - 1) & 1)
            for pi in ncpart.enumerate_nc(D):
                yield D, E, pi


def _kreweras_problems(pi, comp) -> list[str]:
    # K(p) is the one partition of the duals, each dual right after its
    # element, whose union with p is non-crossing and has |ground| + 1
    # blocks; tested by the stack scan and a count, not by re-running the
    # complement construction, for p = pi and for pi joined with comp
    whole = ncpart.NonCrossingPartition._raw(
        tuple(sorted(pi.ground + comp.ground)), tuple(sorted(pi.blocks + comp.blocks)))
    problems = []
    for p in (pi, whole):
        k = ncpart.kreweras_complement(p)
        covers = sorted(x for b in k.blocks for x in b) == list(p.ground)
        rank = {x: i for i, x in enumerate(p.ground)}
        union = ([tuple(2 * rank[x] for x in b) for b in p.blocks]
                 + [tuple(2 * rank[x] + 1 for x in b) for b in k.blocks])
        if not (covers and len(p) + len(k) == len(p.ground) + 1
                and ncpart.is_noncrossing(union)):
            problems.append(f"Kreweras complement of {p} is {k}")
    return problems


@_check
def check_complement_dual_route(problems: list[str], quick: bool) -> str:
    """Direct complement construction against the exhaustive-search oracle.

    Each instance also checks the public Kreweras complement by its
    defining properties, of pi and of pi joined with its complement."""
    hi = 5 if quick else 8
    samples = 300 if quick else 10_000
    sample_q = 9 if quick else 12
    checked = 0
    for D, E, pi in _split_instances(hi):
        checked += 1
        direct = ncpart.pi_tilde(D, E, pi)
        brute = ncpart.pi_tilde_bruteforce(D, E, pi)
        if direct != brute:
            problems.append(f"routes disagree at q={len(D) + len(E)}, D={D}, "
                            f"pi={pi}: {direct} vs {brute}")
        problems += _kreweras_problems(pi, brute)
    rng = random.Random(VERIFY_SEED + 3)
    for _ in range(samples):
        q = rng.randint(1, sample_q)
        D = tuple(i for i in range(1, q + 1) if rng.random() < 0.5)
        E = tuple(i for i in range(1, q + 1) if i not in D)
        if not D:
            continue
        blocks = rng.choice(ncpart._partitions(len(D)))
        (pi_blocks,) = ncpart._relabel((blocks,), D)
        pi = ncpart.NonCrossingPartition._raw(D, pi_blocks)
        checked += 1
        brute = ncpart.pi_tilde_bruteforce(D, E, pi)
        if ncpart.pi_tilde(D, E, pi) != brute:
            problems.append(f"routes disagree at sampled q={q}, D={D}, pi={pi}")
        problems += _kreweras_problems(pi, brute)
    for route in (ncpart.pi_tilde, ncpart.pi_tilde_bruteforce):
        comp = route(_FROZEN_D, _FROZEN_E, _FROZEN_PI)
        if comp.blocks != _FROZEN_COMP:
            problems.append(f"frozen q=18 instance: {route.__name__} gave {comp}")
    problems += _kreweras_problems(
        _FROZEN_PI, ncpart.NonCrossingPartition(_FROZEN_E, _FROZEN_COMP))
    return (f"{checked} instances (exhaustive q<={hi}, "
            f"sampled q<={sample_q}), frozen q=18 instance")


# ---------------------------------------------------------------------------
# 4. generator moment family


@_check
def check_generator_free_poisson(problems: list[str], quick: bool) -> str:
    """Generator cumulants and moments against the free Poisson family."""
    sizes = (2, 3) if quick else (2, 3, 5)
    max_order = 6 if quick else 8
    max_cumulant = 8 if quick else 12
    for n in sizes:
        params = ModelParams(n)
        for q in range(1, max_cumulant + 1):
            k = model.z_cumulant(q, params)
            if k != n ** (q - 1):
                problems.append(f"n={n}: cumulant {q} is {k}, expected n**(q-1)")
            if k != freeprob.free_poisson_cumulant(Fraction(1, n), n, q):
                problems.append(f"n={n}: cumulant {q} disagrees with the free "
                                f"Poisson family")
        # moments m = 1..4 of the generator, then the general family
        frozen = (1, n + 1, n * n + 3 * n + 1, n ** 3 + 6 * n * n + 6 * n + 1)
        if model.z_moment(0, params) != 1:
            problems.append(f"n={n}: empty moment is not 1")
        for m in range(1, max_order + 1):
            mom = model.z_moment(m, params)
            if mom != freeprob.free_poisson_moment(Fraction(1, n), n, m):
                problems.append(f"n={n}: moment {m} disagrees with the free "
                                f"Poisson family")
            if m <= len(frozen) and mom != frozen[m - 1]:
                problems.append(f"n={n}: moment {m} is {mom}, "
                                f"expected {frozen[m - 1]}")
        phi = functools.cache(lambda w: model.z_moment(len(w), params))
        for q in range(1, max_order + 1):
            got = ncpart.moments_to_cumulants(phi, ("z",) * q)
            if got != n ** (q - 1):
                problems.append(f"n={n}: transform route gives cumulant {got} "
                                f"at q={q}")
    return (f"n in {sizes}: cumulants q<={max_cumulant}, "
            f"moments m<={max_order}, transform route")


# ---------------------------------------------------------------------------
# 5. word traces, one table of routes


def _pi_term_sum(word, params: ModelParams) -> Fraction:
    # tau_word's summands, rebuilt one at a time through the public pi_term
    D = tuple(i for i, letter in enumerate(word, start=1) if letter.is_z)
    return sum(model.pi_term(word, pi, params).value for pi in ncpart.enumerate_nc(D))


def _tilde_kappa_sum(word, params: ModelParams) -> Fraction:
    # the cumulant side: split cumulants of the coupled family over NC(q)
    sigmas = ncpart.enumerate_nc(range(1, len(word) + 1))
    return sum(model.tilde_kappa(word, sigma, params) for sigma in sigmas)


# (name, route(word, params) -> Fraction, reach(word, params) -> bool), the
# first row the reference.  tilde_kappa's reach is set by cost on a 2-core
# machine, from empty memos: the 216 n=2 words of length 3 took 0.05 s, the
# 1,296 of length 4 0.46 s, and the 7,776 of length 5 8.3 s.
_TRACE_ROUTES = (
    ("tau_word", model.tau_word, lambda word, params: True),
    ("centering_moment", model.centering_moment,
     lambda word, params: len(word) <= freeprob.WORD_LIMIT),
    ("pi_term sum", _pi_term_sum, lambda word, params: Z in word),
    ("tilde_kappa sum", _tilde_kappa_sum, lambda word, params: len(word) <= 4),
)


@_check
def check_word_trace_routes(problems: list[str], quick: bool) -> str:
    """Each route of the table against the reference on one shared corpus."""
    max_len = 4 if quick else 6
    sampled = 100 if quick else 1000
    with_z = 15 if quick else 40
    p2, p3 = ModelParams(2), ModelParams(3)
    corpus = [(word, p2) for q in range(1, max_len + 1)
              for word in itertools.product(_LETTERS_N2, repeat=q)]
    # the sampled words also draw one letter with non-unit denominators, so
    # that the products' scaling to integer numerators runs; the full n=2
    # enumeration, which sets this check's time, keeps _LETTERS_N2
    letters3 = _letters(3, ((1, 1), (1, 2), (2, 1), (3, 3))) + [matrix_letter(
        [["1/2", "-1/3", 0], ["2/5", 1, "1/7"], [0, "-3/4", "1/6"]])]
    rng = random.Random(VERIFY_SEED + 5)
    for _ in range(sampled):
        word = tuple(rng.choice(letters3) for _ in range(rng.randint(1, max_len)))
        corpus.append((word, p3))
    letters2 = _LETTERS_N2 + [matrix_letter([["1/2", "-1/3"], ["2/5", 1]])]
    rng = random.Random(VERIFY_SEED + 7)
    for _ in range(with_z):
        word = [rng.choice(letters2) for _ in range(rng.randint(1, 8))]
        word[rng.randrange(len(word))] = Z
        corpus.append((tuple(word), p2))
    (_, reference, _), *others = _TRACE_ROUTES
    counts = Counter()
    for word, params in corpus:
        want = reference(word, params)
        for name, route, reaches in others:
            if reaches(word, params):
                counts[name] += 1
                if route(word, params) != want:
                    problems.append(f"{name} disagrees at n={params.n} on "
                                    f"{_word_label(word)}")
    return (f"{len(corpus)} words (all length<={max_len} at n=2, {sampled} "
            f"sampled at n=3, {with_z} with a Z at n=2), compared: "
            + ", ".join(f"{name} {counts[name]}" for name, _, _ in others))


# ---------------------------------------------------------------------------
# 6. mixed cumulants vanish


@_check
def check_mixed_cumulants_vanish(problems: list[str], quick: bool) -> str:
    """Every cumulant tuple mixing the generator with matrix letters is zero."""
    runs = [(2, _LETTERS_N2[1:-1], 4 if quick else 6),
            (3, _letters(3, ((1, 1), (1, 2), (2, 3), (3, 1)))[1:-1],
             3 if quick else 6)]
    checked = 0
    for n, mats, max_q in runs:
        params = ModelParams(n)
        report = freeprob.freeness_check(
            [[Z], mats], max_q, lambda w: model.word_cumulant(w, params))
        checked += report.tuples_checked
        m = len(mats)
        expected = sum((m + 1) ** q - 1 - m ** q for q in range(2, max_q + 1))
        if report.tuples_checked != expected:
            problems.append(f"n={n}: swept {report.tuples_checked} tuples, "
                            f"expected {expected}")
        if report.truncated:
            problems.append(f"n={n}: sweep truncated below max_q={max_q}")
        if not report.certified:
            word, value = report.violations[0]
            problems.append(f"n={n}: nonzero mixed cumulant {value} on "
                            f"{_word_label(word)}")
    return f"{checked} mixed tuples, n in (2, 3)"


# ---------------------------------------------------------------------------
# 7. loop bookkeeping


@_check
def check_loop_bookkeeping(problems: list[str], quick: bool) -> str:
    """Loop counts are nonnegative over every split; the frozen instance
    carries exactly two loops."""
    hi = 7 if quick else 10
    checked = 0
    for D, E, pi in _split_instances(hi):
        loops = model.floating_loops(D, E, pi)
        checked += 1
        if loops < 0:
            problems.append(f"bad loop count {loops} at q={len(D) + len(E)}, "
                            f"D={D}, pi={pi}")
    loops = model.floating_loops(_FROZEN_D, _FROZEN_E, _FROZEN_PI)
    if loops != 2:
        problems.append(f"frozen q=18 instance has {loops} loops, expected 2")
    word18 = tuple(Z if i in _FROZEN_D else _E11 for i in range(1, 19))
    breakdown = model.pi_term(word18, _FROZEN_PI, ModelParams(2))
    if breakdown.loop_count != 2 or breakdown.pi_tilde.blocks != _FROZEN_COMP:
        problems.append("frozen q=18 breakdown disagrees")
    return f"{checked} split instances q<={hi}, frozen instance"


# ---------------------------------------------------------------------------
# 8. factor parameter arithmetic


@_check
def check_factor_parameters(problems: list[str], quick: bool) -> str:
    """Closed-form parameter, pipeline agreement, and branch continuity."""
    hi = 100 if quick else 1000
    prev = None
    for n in range(2, hi + 1):
        got = factors.m3_parameter(ModelParams(n))
        want = 1 + Fraction(2 * (n - 1), n * n)
        if got != want:
            problems.append(f"n={n}: parameter {got}, expected {want}")
            break
        if got <= 1:
            problems.append(f"n={n}: parameter {got} not above 1")
        if prev is not None and got >= prev:
            problems.append(f"n={n}: parameter did not decrease")
        prev = got
    for n, frozen in ((2, Fraction(3, 2)), (3, Fraction(13, 9))):
        if factors.m3_parameter(ModelParams(n)) != frozen:
            problems.append(f"n={n} parameter is not {frozen}")
    if prev is not None and prev - 1 >= Fraction(2, hi):
        problems.append(f"n={hi} parameter {prev} too far from the limit 1")
    for d in range(2, 7):
        threshold = Fraction(1, d * d)
        for r in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7)):
            at = factors.dykema_free_product(r, threshold, d)
            below = factors.dykema_free_product(r, threshold / 2, d)
            if len(at.summands) != 1:
                problems.append(f"d={d}, r={r}: threshold case not a single factor")
            elif len(below.summands) != 2 or below.summands[0].parameter != d:
                problems.append(f"d={d}, r={r}: sub-threshold shape wrong")
            elif at.summands[0].parameter != below.summands[1].parameter:
                problems.append(f"d={d}, r={r}: branches disagree at the boundary")
    return f"n<={hi} closed form+pipeline+monotone, branch boundary d<=6"


# ---------------------------------------------------------------------------
# 9. Monte Carlo


@_check
def check_monte_carlo(problems: list[str], quick: bool) -> str:
    """Wishart spectra and mixed word estimates against the exact engine.

    The spectra and the words come from one walk over the trials, so each
    trial is drawn once.  A mixed word of q letters with exact limit tau
    passes when its estimate lies within
    t * SE + q**2 / 2 * max(1, |tau|) / N of tau.  t is the Student-t
    quantile on trials - 1 degrees of freedom at the two-sided rate
    MC_FAMILY_RATE / m (Bonferroni over the m mixed words), so over seeds a
    correct sampler with near-normal trial values fails at most at about
    that rate; the second term allows for the O(1/N) bias of a finite-N
    Wishart word trace.  The mean eigenvalue passes when it lies within
    t * SE of 1, with t the quantile at the two-sided rate MC_FAMILY_RATE
    on the same degrees of freedom.  At N=300 the spectra
    must match the squared singular values of X, the independent oracle of
    the Gram route, to 1e-12 of the largest eigenvalue.  A two-trial rerun
    of the spectra must reproduce the first two trials bit for bit, a joint
    walk over those two trials must equal the separate spectrum and word
    calls, and a one-trial spectrum taken right after its word batch, from
    the draw the words memoised, must equal the first trial.
    """
    import numpy as np
    from scipy import stats

    from . import rmt

    config = rmt.SimulationConfig(n=2, N=300 if quick else 2000,
                                  trials=8 if quick else 50, seed=VERIFY_SEED)
    params = ModelParams(config.n)
    x = matrix_letter(ratmat.mat_add(ratmat.matrix_unit(2, 1, 2),
                                     ratmat.matrix_unit(2, 2, 1)))
    alphabet = [Z, _E11, x]
    # length 4 is the shortest at which a word sees G_ji versus G_ij^T for
    # this symmetric alphabet, so both depths go that far
    words = [w for q in range(1, 5) for w in itertools.product(alphabet, repeat=q)]
    eigs, estimates = rmt.FreePairSampler(config).spectra_and_words(words)

    atom = rmt.atom_mass_estimate(eigs, config)
    target = 1 - 1 / config.n
    if abs(atom - target) > 0.02 * target:
        problems.append(f"atom mass {atom:.4f} not within 2% of {target}")
    quad_atom = 1 - rmt.mp_continuous_mass(config.rate, config.jump)
    if abs(quad_atom - target) > 1e-6:
        problems.append(f"integrated atom mass {quad_atom} is off")
    trial_means = eigs.mean(axis=1)
    mean = float(trial_means.mean())
    mean_se = float(trial_means.std(ddof=1)) / math.sqrt(config.trials)
    mean_t = float(stats.t.isf(MC_FAMILY_RATE / 2, config.trials - 1))
    if abs(mean - 1.0) > max(mean_t * mean_se, 1e-12):
        problems.append(f"mean eigenvalue {mean:.5f} not within "
                        f"{mean_t:.2f} SE of 1")
    spill = rmt.outside_support_fraction(eigs, config)
    if spill > 0.01:
        problems.append(f"{spill:.3%} of bulk eigenvalues outside the support")
    oracle = rmt.SimulationConfig(n=2, N=300, trials=2, seed=VERIFY_SEED)
    M = oracle.gaussian_columns
    for trial, row in enumerate(rmt.sample_free_poisson(oracle)):
        X = rmt._rng(oracle, trial).standard_normal((oracle.N, M))
        sv = np.linalg.svd(X, compute_uv=False)
        ref = np.concatenate([np.zeros(oracle.N - M),
                              oracle.jump / oracle.N * sv[::-1] ** 2])
        if np.max(np.abs(row - ref)) > 1e-12 * ref[-1]:
            problems.append(f"trial {trial} spectrum differs from the SVD of X")

    mixed_count = sum(Z in w for w in words)
    t_quantile = float(stats.t.isf(MC_FAMILY_RATE / (2 * mixed_count),
                                   config.trials - 1))
    worst = 0.0
    for word, est in zip(words, estimates):
        exact = float(model.tau_word(word, params))
        err = abs(est.value - exact)
        if Z in word:
            if est.std_error > 0:
                worst = max(worst, err / est.std_error)
            bias = len(word) ** 2 / 2 * max(1.0, abs(exact)) / config.N
            if err > t_quantile * est.std_error + bias:
                problems.append(
                    f"{_word_label(word)}: {est.value:.6f} vs {exact:.6f} "
                    f"(se {est.std_error:.2g})")
        elif err > 1e-9 or est.std_error != 0.0:
            problems.append(f"matrix word {_word_label(word)} not exact: "
                            f"{est.value} vs {exact}")

    rerun = rmt.SimulationConfig(n=config.n, N=config.N, trials=2,
                                 seed=config.seed)
    again = rmt.sample_free_poisson(rerun)
    if not (again == eigs[:2]).all():
        problems.append("eigenvalue samples are not bit-reproducible")
    small = words[: len(alphabet) * 2]
    first = rmt.FreePairSampler(rerun).estimate_words(small)
    joint_eigs, joint = rmt.FreePairSampler(rerun).spectra_and_words(small)
    if not ((joint_eigs == again).all() and joint == first):
        problems.append("the joint walk differs from the separate calls")
    # the spectrum right after the words reuses their memoised draw
    single = rmt.SimulationConfig(n=config.n, N=config.N, trials=1,
                                  seed=config.seed)
    rmt.FreePairSampler(single).estimate_words(small)
    if not (rmt.sample_free_poisson(single) == eigs[:1]).all():
        problems.append("eigenvalue samples change when the words' draw is reused")

    zz = estimates[words.index((Z, Z))]
    return (f"N={config.N}, trials={config.trials}: atom={atom:.4f}, "
            f"tau(ZZ)={zz.value:.5f}+-{zz.std_error:.2g}, {len(words)} words, "
            f"worst z-score {worst:.2f} (t gate {t_quantile:.2f} + bias)")


# ---------------------------------------------------------------------------
# runner


EXACT_CHECKS = (
    check_catalan_narayana,
    check_moment_cumulant_transforms,
    check_complement_dual_route,
    check_generator_free_poisson,
    check_word_trace_routes,
    check_mixed_cumulants_vanish,
    check_loop_bookkeeping,
    check_factor_parameters,
)

RMT_CHECK = check_monte_carlo


def run_all(quick: bool = False, include_rmt: bool = False,
            log: Optional[Callable[[str], None]] = None) -> list[CheckResult]:
    """Run the acceptance checks in order and return their results."""
    results = []
    for check in EXACT_CHECKS + ((RMT_CHECK,) if include_rmt else ()):
        result = check(quick)
        results.append(result)
        if log is not None:
            log(f"{'ok  ' if result.ok else 'FAIL'} {result.name}: {result.detail} "
                f"[{result.seconds:.1f}s]")
    return results
