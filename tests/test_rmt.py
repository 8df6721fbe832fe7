"""Random matrix sampler: determinism, structure, and the Gram-block path.

The heaviest correctness check here rebuilds each trial's Gaussian block X
and evaluates words by explicit embedding, multiplying the N-by-N Wishart
matrix and the letters b kron I, then compares against the optimized path
that cycles each word into Z c_1 ... Z c_k and evaluates it through the
Gram blocks of X, as the entrywise product of two half products shared
across the batch.  A word's estimate must not depend on its batch, a batch
must keep no more products alive than the sampler's stated bound, and
back-to-back batches must not hold on to memory.  The spectra, taken from the eigenvalues of the Gram
X^T X = sum_i G_ii, are checked against the squared singular values of X.
Words and spectra share each trial's memoised draw, and neither may depend
on whether the draw was cached.
"""
import gc
import itertools
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import integrate

from ncfree import clear_caches, ratmat
from ncfree.errors import ConfigError, SizeLimitError
from ncfree.model import Z, matrix_letter
from ncfree.rmt import (
    N_LIMIT,
    SPECTRUM_VALUE_LIMIT,
    FreePairSampler,
    SimulationConfig,
    _compile_plan,
    _halves,
    _rng,
    _trial_draw,
    atom_mass_estimate,
    mp_continuous_mass,
    mp_density,
    mp_support,
    outside_support_fraction,
    sample_free_poisson,
)

E11 = matrix_letter([[1, 0], [0, 0]])
SYM = matrix_letter([[0, 1], [1, 0]])
SKEW = matrix_letter([["1/2", 2], [-1, "1/3"]])
E11_3 = matrix_letter([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
MIX_3 = matrix_letter([[0, 1, "1/2"], [1, 0, 0], [2, 0, -1]])


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    good = SimulationConfig(n=2, N=200, trials=3, seed=1)
    assert good.rate == 0.5
    assert good.jump == 2
    assert good.gaussian_columns == 100
    assert good.atom_threshold == pytest.approx(2e-6)
    with pytest.raises(ConfigError):
        SimulationConfig(n=1, N=200)
    with pytest.raises(ConfigError):
        SimulationConfig(n=2, N=99)
    with pytest.raises(ConfigError):
        SimulationConfig(n=3, N=200)  # not divisible
    # a non-integer trial count would only fail inside the sampler
    for trials in (0, 2.5, "3", True):
        with pytest.raises(ConfigError):
            SimulationConfig(n=2, N=200, trials=trials)
    # numpy's generator refuses negative seeds; refuse them before it does,
    # and a bool is no seed, as it is no trial count
    for seed in (-1, 1.5, "3", True, False):
        with pytest.raises(ConfigError):
            SimulationConfig(n=2, N=200, seed=seed)


def test_matrix_sizes_above_the_limit_are_refused():
    # X alone would take terabytes at N = 10**6; the refusal draws nothing
    assert SimulationConfig(n=2, N=N_LIMIT).N == N_LIMIT
    t0 = time.perf_counter()
    for N in (N_LIMIT + 2, 1_000_000):
        with pytest.raises(SizeLimitError, match="size limit"):
            SimulationConfig(n=2, N=N, trials=1)
    assert time.perf_counter() - t0 < 1.0


def test_spectra_above_the_value_limit_are_refused_before_any_draw():
    # one past the limit of stacked eigenvalues; every call refuses at once
    cfg = SimulationConfig(n=2, N=100, trials=SPECTRUM_VALUE_LIMIT // 100 + 1)
    sampler = FreePairSampler(cfg)
    clear_caches()
    t0 = time.perf_counter()
    for call in (lambda: sample_free_poisson(cfg),
                 lambda: sampler.spectra_and_words([(Z,)])):
        with pytest.raises(SizeLimitError, match="spectrum limit"):
            call()
    assert time.perf_counter() - t0 < 1.0
    assert _trial_draw.cache_info().misses == 0


# ---------------------------------------------------------------------------
# import cost


def _loaded_after(code: str, env: dict) -> tuple[set, str]:
    """Top-level modules loaded in a fresh interpreter after code, and its output."""
    script = code + "\nimport sys\nprint(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    *printed, modules = out.splitlines()
    return {m.split(".")[0] for m in modules.split()}, "\n".join(printed)


@pytest.mark.parametrize("code, absent", [
    ("import ncfree.rmt", {"scipy"}),
    ("import ncfree, ncfree.cli, ncfree.verify", {"numpy", "scipy"}),
])
def test_imports_load_only_what_runs(package_env, code, absent):
    loaded, _ = _loaded_after(code, package_env)
    assert "ncfree" in loaded
    assert not loaded & absent


def test_bulk_mass_loads_scipy_on_first_call(package_env):
    loaded, printed = _loaded_after(
        "from fractions import Fraction\n"
        "import ncfree.rmt\n"
        "print(repr(ncfree.rmt.mp_continuous_mass(Fraction(1, 2), 2)))",
        package_env)
    assert "scipy" in loaded
    assert float(printed) == pytest.approx(0.5, abs=1e-7)


# ---------------------------------------------------------------------------
# spectra


def test_eigenvalue_samples_shape_and_structural_zeros():
    cfg = SimulationConfig(n=2, N=120, trials=4, seed=7)
    eigs = sample_free_poisson(cfg)
    assert eigs.shape == (4, 120)
    assert np.all(np.diff(eigs, axis=1) >= 0)
    # the rank deficiency forces exactly N - N/n exact zeros per trial
    assert np.all(np.sum(eigs == 0.0, axis=1) == 60)
    assert atom_mass_estimate(eigs, cfg) == pytest.approx(0.5)


def test_eigenvalue_samples_are_deterministic_and_stream_based():
    cfg = SimulationConfig(n=2, N=120, trials=5, seed=11)
    a = sample_free_poisson(cfg)
    b = sample_free_poisson(cfg)
    assert np.array_equal(a, b)
    # per-trial streams: fewer trials reproduce a prefix
    short = sample_free_poisson(SimulationConfig(n=2, N=120, trials=2, seed=11))
    assert np.array_equal(short, a[:2])


@pytest.mark.parametrize("n, N", [(2, 400), (3, 399)])
def test_spectrum_matches_the_svd_of_X(n, N):
    # the squared singular values of X are the independent oracle for the
    # eigenvalues of the Gram X^T X
    cfg = SimulationConfig(n=n, N=N, trials=2, seed=13)
    M = cfg.gaussian_columns
    for trial, row in enumerate(sample_free_poisson(cfg)):
        X = _rng(cfg, trial).standard_normal((N, M))
        sv = np.linalg.svd(X, compute_uv=False)
        expected = np.concatenate([np.zeros(N - M), cfg.jump / N * sv[::-1] ** 2])
        assert np.max(np.abs(row - expected)) <= 1e-12 * expected[-1]


def test_support_containment_at_large_N():
    for n, N in [(2, 2000), (3, 1998)]:
        cfg = SimulationConfig(n=n, N=N, trials=2, seed=3)
        eigs = sample_free_poisson(cfg)
        assert outside_support_fraction(eigs, cfg) == 0.0
        assert atom_mass_estimate(eigs, cfg) == pytest.approx(1 - 1 / n, abs=1e-12)


# ---------------------------------------------------------------------------
# limit law


def test_mp_support_closed_form():
    a, b = mp_support(0.25, 4)
    assert a == pytest.approx(4 * 0.25)
    assert b == pytest.approx(4 * 2.25)


def test_mp_density_shape():
    a, b = mp_support(0.5, 2)
    assert mp_density(a - 0.01, 0.5, 2) == 0.0
    assert mp_density(b + 0.01, 0.5, 2) == 0.0
    xs = np.linspace(a + 1e-6, b - 1e-6, 50)
    assert all(mp_density(x, 0.5, 2) > 0 for x in xs)


def test_mp_masses_and_moments():
    for n in (2, 3):
        rate, jump = 1 / n, n
        assert mp_continuous_mass(rate, jump) == pytest.approx(1 / n, abs=1e-7)
        a, b = mp_support(rate, jump)
        mean, _ = integrate.quad(lambda x: x * mp_density(x, rate, jump),
                                 a, b, limit=200)
        second, _ = integrate.quad(lambda x: x * x * mp_density(x, rate, jump),
                                   a, b, limit=200)
        assert mean == pytest.approx(1.0, abs=1e-7)
        assert second == pytest.approx(n + 1, abs=1e-6)


# ---------------------------------------------------------------------------
# word estimates


def naive_word_trace(word, cfg, trial):
    """Rebuild the trial's X and evaluate by the unrotated kron embedding."""
    N = cfg.N
    X = _rng(cfg, trial).standard_normal((N, cfg.gaussian_columns))
    A = (cfg.jump / N) * (X @ X.T)
    eye = np.eye(N // cfg.n)
    prod = np.eye(N)
    for letter in word:
        if letter.is_z:
            prod = prod @ A
        else:
            small = np.array([[float(x) for x in row] for row in letter.matrix])
            prod = prod @ np.kron(small, eye)
    return float(np.trace(prod)) / N


@pytest.mark.parametrize("word", [
    (Z,),
    (Z, E11),
    (E11, Z),
    (Z, Z, SYM),
    (Z, E11, Z, SYM),
    (Z, Z, Z, E11, SYM),
    (Z, E11, SYM, Z, SKEW),
    (Z, Z, E11, Z, SYM, Z),
    (Z, Z, Z),
    # E11 SYM E11 = 0: the run's factor W(0) is a zero block
    (Z, E11, SYM, E11),
    (Z, Z, E11, SYM, E11, Z, SKEW),
    (Z, E11_3, Z, MIX_3),
    (MIX_3, Z, Z, E11_3, MIX_3, Z),
    (Z, MIX_3, MIX_3, Z, Z, Z, E11_3),
])
def test_rotated_frame_matches_naive_embedding(word):
    # the word's cyclic rotation Z c_1 ... Z c_k through the Gram blocks;
    # an all-generator word runs at both sizes
    sizes = {len(letter.matrix) for letter in word if not letter.is_z} or {2, 3}
    for n in sorted(sizes):
        cfg = SimulationConfig(n=n, N=120, trials=1, seed=17)
        got = FreePairSampler(cfg).estimate(word).value
        expected = naive_word_trace(word, cfg, trial=0)
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def sampled_words(alphabet, lengths, count, seed):
    """Seeded sample of words over the alphabet, each with a generator letter."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = [rng.choice(alphabet) for _ in range(rng.choice(lengths))]
        word[rng.randrange(len(word))] = Z
        words.append(tuple(word))
    return words


@pytest.mark.parametrize("n, alphabet", [
    (2, [Z, E11, SKEW]),
    (3, [Z, E11_3, MIX_3]),
])
def test_word_batch_matches_naive_embedding(n, alphabet):
    # one batch, so words share W(c) and half products within each trial;
    # the sampled long words share heads of two to four factors, and half
    # prefixes of two and three
    cfg = SimulationConfig(n=n, N=120, trials=2, seed=19)
    words = [w for q in range(1, 5) for w in itertools.product(alphabet, repeat=q)
             if Z in w]
    words += sampled_words(alphabet, (5, 6), 200, seed=n)
    plans = {_compile_plan(w, n) for w in words}
    heads = Counter(p[:k] for p in plans for k in (2, 3, 4) if len(p) > k)
    assert {len(h) for h, count in heads.items() if count > 1} == {2, 3, 4}
    halves = Counter(h[:k] for p in plans for h in _halves(p) for k in (2, 3)
                     if len(h) >= k)
    assert {len(h) for h, count in halves.items() if count > 1} == {2, 3}
    got = FreePairSampler(cfg).estimate_words(words)
    for word, est in zip(words, got):
        expected = np.mean([naive_word_trace(word, cfg, t) for t in range(2)])
        assert est.value == pytest.approx(expected, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n, words", [
    (2, [(Z, E11, SKEW, Z, SYM, Z, SKEW),       # length 7, k = 3
         (Z, SKEW, Z, SYM, Z, E11, Z),          # length 7, k = 4
         (Z, E11, Z, SKEW, Z, SYM, Z, SKEW),    # length 8, k = 4
         (Z, SKEW, Z, Z, E11, Z, SYM, Z),       # length 8, k = 5
         (Z, Z, SKEW, Z, Z, Z, SYM, Z),         # length 8, k = 6
         (Z, Z, Z, SKEW, Z, Z, Z, Z)]),         # length 8, k = 7
    (3, [(Z, MIX_3, E11_3, Z, MIX_3, Z, MIX_3),
         (Z, MIX_3, Z, E11_3, Z, MIX_3, Z),
         (Z, E11_3, Z, MIX_3, Z, MIX_3, Z, MIX_3),
         (Z, MIX_3, Z, Z, E11_3, Z, MIX_3, Z),
         (Z, Z, MIX_3, Z, Z, Z, MIX_3, Z),
         (Z, Z, Z, MIX_3, Z, Z, Z, Z)]),
])
def test_long_words_of_both_parities_match_naive_embedding(n, words):
    # an odd k splits into halves of unequal length, an even k into equal
    # ones, whose right half may reuse the left's products
    assert {len(_compile_plan(w, n)) % 2 for w in words} == {0, 1}
    cfg = SimulationConfig(n=n, N=120, trials=2, seed=67)
    got = FreePairSampler(cfg).estimate_words(words)
    for word, est in zip(words, got):
        expected = np.mean([naive_word_trace(word, cfg, t) for t in range(2)])
        assert est.value == pytest.approx(expected, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("n, word", [
    (2, (Z, E11, Z, SKEW, Z, SYM, Z, SKEW)),
    (2, (Z, SKEW, SYM, Z, SKEW, Z, E11)),
    (3, (Z, MIX_3, Z, E11_3, Z, MIX_3, Z, MIX_3)),
    (3, (Z, MIX_3, MIX_3, Z, E11_3, Z, MIX_3)),
])
def test_cyclic_rotations_agree(n, word):
    # every generator run is one Z, so the rotations compile to as many
    # plans as the word has Z's, each split at its own midpoint; they are
    # traces of one matrix and differ only by rounding
    rotations = [word[i:] + word[:i] for i in range(len(word))]
    assert len({_compile_plan(r, n) for r in rotations}) == word.count(Z)
    cfg = SimulationConfig(n=n, N=120, trials=2, seed=61)
    values = [e.value for e in FreePairSampler(cfg).estimate_words(rotations)]
    for value in values:
        assert value == pytest.approx(values[0], rel=1e-12)


def _summed(c) -> bool:
    # W(c) is a new array unless c is zero or a single unit E_ij
    return [a for row in c for a in row if a] not in ([], [1.0])


def test_a_batch_keeps_at_most_the_stated_products_alive():
    # FreePairSampler's bound: (longest plan - 2) half products, the summed
    # W(c) of both halves, the off-diagonal Gram blocks and, where some
    # coefficient is not 1, one scaled term; a store of every half prefix of
    # this batch would hold far more
    n = 2
    cfg = SimulationConfig(n=n, N=400, trials=1, seed=71)
    words = sampled_words([Z, E11, SYM], (7, 8), 80, seed=73)
    plans = {_compile_plan(w, n) for w in words}
    halves = [h for p in plans for h in _halves(p)]
    summed = {c for h in halves for c in h if _summed(c)}
    scaled = any(a not in (0.0, 1.0) for c in summed for row in c for a in row)
    bound = max(map(len, plans)) - 2 + len(summed) + n * (n - 1) // 2 + scaled
    prefixes = {h[:d] for h in halves for d in range(2, len(h) + 1)}
    assert len(prefixes) > 3 * bound
    sampler = FreePairSampler(cfg)
    sampler.estimate_words(words)  # keep the draw, so only products count
    tracemalloc.start()
    try:
        sampler.estimate_words(words)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (bound + 0.5) * (cfg.N // n) ** 2 * 8


@pytest.mark.parametrize("n, alphabet", [
    (2, [Z, E11, SYM, SKEW]),
    (3, [Z, E11_3, MIX_3]),
])
def test_estimates_do_not_depend_on_the_batch(n, alphabet):
    # every head product is formed left to right from the same arrays, so
    # a word's estimate is the same to the last bit alone, in its batch and
    # in a shuffled batch
    cfg = SimulationConfig(n=n, N=120, trials=3, seed=43)
    sampler = FreePairSampler(cfg)
    words = sampled_words(alphabet, range(1, 7), 40, seed=10 + n)
    batch = sampler.estimate_words(words)
    perm = random.Random(n).sample(range(len(words)), len(words))
    shuffled = sampler.estimate_words([words[i] for i in perm])
    for k, i in enumerate(perm):
        assert shuffled[k] == batch[i]
    for word, est in zip(words, batch):
        assert sampler.estimate(word) == est


def test_estimates_past_eight_trials_do_not_depend_on_the_batch():
    # numpy sums eight or more values pairwise; each plan's trials are one
    # contiguous row, reduced in the same order alone and in a batch
    cfg = SimulationConfig(n=2, N=120, trials=9, seed=47)
    sampler = FreePairSampler(cfg)
    words = sampled_words([Z, E11, SYM, SKEW], range(1, 6), 12, seed=5)
    for word, est in zip(words, sampler.estimate_words(words)):
        assert sampler.estimate(word) == est


def test_back_to_back_batches_hold_no_memory():
    # with the cyclic collector off, a reference cycle through a trial's
    # arrays would keep every call's products alive; every call draws a new
    # trial, so a draw memo without its one-entry bound would keep them all
    words = [w for q in range(1, 5) for w in itertools.product([Z, E11, SYM], repeat=q)]

    def batch_and_spectrum(seed):
        cfg = SimulationConfig(n=2, N=400, trials=1, seed=seed)
        FreePairSampler(cfg).estimate_words(words)
        sample_free_poisson(cfg)

    batch_and_spectrum(37)  # compile the plans outside the measurement
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        batch_and_spectrum(38)
        _, single_peak = tracemalloc.get_traced_memory()
        for seed in range(39, 69):
            batch_and_spectrum(seed)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert current < 3 * single_peak
    assert _trial_draw.cache_info().currsize <= 1
    clear_caches()
    assert _trial_draw.cache_info().currsize == 0


@pytest.mark.parametrize("n, alphabet", [
    (2, [Z, E11, SYM, SKEW]),
    (3, [Z, E11_3, MIX_3]),
])
def test_the_draw_cache_cannot_change_a_result(n, alphabet):
    # a one-trial config hits the memoised draw in both directions; over
    # three trials the one-entry memo is mostly cold
    words = sampled_words(alphabet, range(1, 6), 30, seed=20 + n)
    for trials in (1, 3):
        cfg = SimulationConfig(n=n, N=120, trials=trials, seed=53)
        clear_caches()
        cold = sample_free_poisson(cfg)
        clear_caches()
        words_first = FreePairSampler(cfg).estimate_words(words)
        hits = _trial_draw.cache_info().hits
        after_words = sample_free_poisson(cfg)
        words_after = FreePairSampler(cfg).estimate_words(words)
        if trials == 1:
            assert _trial_draw.cache_info().hits == hits + 2
        assert np.array_equal(after_words, cold)
        assert words_after == words_first


def test_joint_walk_draws_once_and_equals_the_separate_calls():
    # the spectra and the word traces of one walk read each trial's draw
    # once and match the two separate calls bit for bit
    words = sampled_words([Z, E11, SYM, SKEW], range(1, 6), 30, seed=31) + [(E11, SYM)]
    cfg = SimulationConfig(n=2, N=120, trials=3, seed=59)
    clear_caches()
    eigs, estimates = FreePairSampler(cfg).spectra_and_words(words)
    assert _trial_draw.cache_info().misses == cfg.trials
    assert np.array_equal(eigs, sample_free_poisson(cfg))
    assert estimates == FreePairSampler(cfg).estimate_words(words)
    # a batch with no generator letter still draws for its spectra
    eigs, estimates = FreePairSampler(cfg).spectra_and_words([(E11, SYM)])
    assert np.array_equal(eigs, sample_free_poisson(cfg))
    assert estimates == FreePairSampler(cfg).estimate_words([(E11, SYM)])


def test_matrix_only_words_are_exact():
    cfg = SimulationConfig(n=2, N=120, trials=2, seed=1)
    sampler = FreePairSampler(cfg)
    est = sampler.estimate((E11, SYM, E11))
    assert est.value == float(ratmat.product_trace(
        (E11.matrix, SYM.matrix, E11.matrix)))
    assert est.std_error == 0.0
    empty = sampler.estimate(())
    assert empty.value == 1.0


def test_estimates_are_deterministic_and_dedupe_rotations():
    cfg = SimulationConfig(n=2, N=160, trials=3, seed=23)
    sampler = FreePairSampler(cfg)
    words = [(Z, E11, Z, SYM), (SYM, Z, E11, Z), (Z, SYM, Z, E11)]
    ests = sampler.estimate_words(words)
    # the second word rotates to the first's plan, so those agree exactly;
    # the third keeps its own rotation and only agrees up to float order
    assert ests[0].value == ests[1].value
    assert ests[2].value == pytest.approx(ests[0].value, rel=1e-10)
    again = sampler.estimate_words(words)
    assert [e.value for e in again] == [e.value for e in ests]


def test_estimate_flags_and_trial_overrides():
    single = FreePairSampler(SimulationConfig(n=2, N=120, trials=1, seed=2)
                             ).estimate((Z,))
    assert single.trials == 1
    assert not single.std_error_ok
    assert single.std_error == 0.0
    multi = FreePairSampler(SimulationConfig(n=2, N=120, trials=4, seed=2)
                            ).estimate((Z,))
    assert multi.trials == 4
    assert multi.std_error_ok
    assert multi.std_error > 0


def test_word_validation():
    cfg = SimulationConfig(n=2, N=120, trials=1)
    sampler = FreePairSampler(cfg)
    with pytest.raises(ConfigError):
        sampler.estimate((Z, matrix_letter(ratmat.identity(3))))
    with pytest.raises(ConfigError):
        sampler.estimate(("Z",))
    # a plan memo miss validates the word; an unhashable letter fails the
    # lookup itself and is then validated, so it is a ConfigError too, not
    # a TypeError from hashing
    with pytest.raises(ConfigError):
        sampler.estimate_words([[Z, "x"]])
    with pytest.raises(ConfigError):
        sampler.estimate_words([[Z, ["x"]]])


def test_compiled_plans_are_memoised_and_flushed():
    cfg = SimulationConfig(n=2, N=120, trials=2, seed=31)
    words = [(Z, E11, Z, SKEW), (SKEW, Z, Z), (Z,), (E11, SYM, E11)]
    clear_caches()
    first = FreePairSampler(cfg).estimate_words(words)
    hits = _compile_plan.cache_info().hits
    again = FreePairSampler(cfg).estimate_words(words)
    assert again == first
    assert _compile_plan.cache_info().hits > hits
    clear_caches()
    assert _compile_plan.cache_info().currsize == 0


def test_error_shrinks_along_a_size_ladder():
    errs = []
    for N in (200, 400, 800):
        cfg = SimulationConfig(n=2, N=N, trials=6, seed=29)
        est = FreePairSampler(cfg).estimate((Z, Z))
        errs.append(abs(est.value - 3.0))
    assert errs[2] < errs[0]


def test_std_error_shrinks_with_more_trials():
    wide = FreePairSampler(SimulationConfig(n=2, N=200, trials=8, seed=41)
                           ).estimate((Z, Z))
    narrow = FreePairSampler(SimulationConfig(n=2, N=200, trials=32, seed=41)
                             ).estimate((Z, Z))
    assert narrow.std_error < wide.std_error
