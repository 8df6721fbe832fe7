"""The benchmark's three workloads.

Each workload turns its seed into rounds of ops.  A round has the same shape
for every seed (op kinds, word lengths, generator-letter counts); the seed
only picks the letters, positions and parameters.  ``run`` executes one op
through the public ``ncfree`` API; ``check`` then compares every output with
an independent route, outside the timed loop.

Module-level oracle functions (``narayana_moment``, ``mixed_cumulant_value``,
``mc_exact``, ``cli_expected``) are the expected values the checks use; the
smoke test replaces one of them with a wrong value to show that a failure is
counted.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import ncfree
from ncfree import factors, freeprob, model, ncpart, ratmat

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    args: tuple
    round: int
    # the op's model words, for the workload-property report
    words: tuple = field(default=())
    # size class the per-class latency report groups by
    label: str = ""


class Failed:
    """Output of an op that raised."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.error == self.error

    def __repr__(self):
        return f"Failed({self.error})"


def _rng(*parts) -> random.Random:
    # str seeds hash through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def _gen_count(word) -> int:
    return sum(1 for letter in word if letter.is_z)


def _interleave(rng: random.Random, gens: int, mats: list) -> tuple:
    # gens generator letters and the matrix letters, no two matrix letters
    # cyclically adjacent, so every word of a size class has as many matrix
    # runs as matrix letters; the seed picks the gaps and the rotation
    cuts = sorted(rng.sample(range(1, gens), len(mats) - 1))
    gaps = [b - a for a, b in zip([0] + cuts, cuts + [gens])]
    word = []
    for gap, letter in zip(gaps, mats):
        word += [letter] + [model.Z] * gap
    shift = rng.randrange(len(word))
    return tuple(word[shift:] + word[:shift])


def _stratified(rng: random.Random, ops: list, key) -> list:
    """The ops in an order every prefix of which keeps each class's share.

    Each class is shuffled, then the classes are merged by each op's
    fractional position within its class, so a round cut off at the end of a
    run keeps the class shares of a whole one, and every seed gives the same
    sequence of classes: the same kinds of op meet a round's cold start.
    """
    classes: dict = {}
    for op in ops:
        classes.setdefault(key(op), []).append(op)
    placed = []
    for c, k in enumerate(sorted(classes)):
        members = classes[k]
        rng.shuffle(members)
        placed += [((i + 0.5) / len(members), c, op) for i, op in enumerate(members)]
    placed.sort(key=lambda t: t[:2])
    return [op for _, _, op in placed]


def _matrix_pool(n: int) -> list:
    units = [ratmat.matrix_unit(n, i, j)
             for i in range(1, n + 1) for j in range(1, n + 1)]
    cyc = ratmat.cyclic_permutation(n)
    inv = tuple(zip(*cyc))
    return [model.matrix_letter(m) for m in units + [cyc, inv]]


def narayana_moment(m: int, n: int) -> Fraction:
    """Generator moment in closed form: sum_k N(m,k) n**(m-k)."""
    if m == 0:
        return Fraction(1)
    return Fraction(sum(math.comb(m, k) * math.comb(m, k - 1) // m * n ** (m - k)
                        for k in range(1, m + 1)))


def word_text(word) -> str:
    """CLI syntax of a model word."""
    out = []
    for letter in word:
        if letter.is_z:
            out.append("Z")
        else:
            rows = ",".join("[" + ",".join(str(x) for x in row) + "]"
                            for row in letter.matrix)
            out.append(f"M[{rows}]")
    return " ".join(out)


class Workload:
    name = ""
    # timed runs of every op; its latency is the best of them
    passes = 3
    # fresh set-up processes per run; setup_s is their median.  Not a
    # multiple of `passes`: the probes then fall at other points of each
    # pass, and the best-of-passes latency drops the ops a probe disturbs
    setup_probes = 16

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.tiny = size == "tiny"

    def setup(self) -> None:
        """Everything before the first timed op; also run before a replay."""
        ncfree.clear_caches()

    def start_pass(self) -> None:
        """Untimed work before each pass over the ops: a cold start."""
        ncfree.clear_caches()

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def start_round(self, r: int) -> None:
        """Untimed work before the first op of round r."""

    def run(self, op: Op, tracer=None):
        raise NotImplementedError

    def check(self, ops: list[Op], outputs: list) -> list[bool]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        """Peak resident set of the process that runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# freeness-sweep: every mixed cumulant on a small alphabet


def mixed_tuple_count(m: int, max_q: int) -> int:
    """Tuples of length 2..max_q over {Z} and m letters using both kinds."""
    return sum((m + 1) ** q - 1 - m ** q for q in range(2, max_q + 1))


def mixed_cumulant_value(word, n: int) -> Fraction:
    """A mixed free cumulant of Z and matrix letters: 0, since the model
    makes Z free from the matrix algebra."""
    return Fraction(0)


class FreenessSweep(Workload):
    name = "freeness-sweep"
    # A round sweeps n=2 and n=3 with new letters, the two sweeps' ops merged
    # in one stratified seeded order (about 5 s of ops), so a round cut off
    # at the end of a run keeps the shares of both.  It starts from empty memo tables, as
    # an `ncfree free check` process does, so every round has the same cold
    # start and the memo tables stay as large as one sweep of each n makes
    # them; every round but the last runs to its end.
    ns = (2, 3)

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.letter_count = 2 if self.tiny else 4
        self.max_q = 3 if self.tiny else 5
        self.dual_per_length = 3 if self.tiny else 8
        # round -> number of ops generated
        self.round_sizes: dict[int, int] = {}

    def letters(self, rng, n):
        seen = set()
        out = []
        while len(out) < self.letter_count:
            m = ratmat.matrix([[rng.randint(-2, 2) for _ in range(n)]
                               for _ in range(n)])
            if m not in seen:
                seen.add(m)
                out.append(model.matrix_letter(m))
        return out

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        ops = []
        for n in self.ns:
            alphabet = [model.Z] + self.letters(rng, n)
            for q in range(1, self.max_q + 1):
                for j in range(self.dual_per_length):
                    # j % (q + 1) generator letters at seeded positions
                    spots = set(rng.sample(range(q), j % (q + 1)))
                    word = tuple(model.Z if i in spots else rng.choice(alphabet[1:])
                                 for i in range(q))
                    ops.append(Op("dual", (word, n), r, (word,), f"dual n{n}"))
            for q in range(2, self.max_q + 1):
                for word in itertools.product(alphabet, repeat=q):
                    gens = _gen_count(word)
                    if 0 < gens < q:
                        ops.append(Op("cumulant", (word, n), r, (word,),
                                      f"cumulant q{q} n{n}"))
        self.round_sizes[r] = len(ops)
        return _stratified(rng, ops, lambda op: (op.label, _gen_count(op.args[0])))

    def start_round(self, r):
        ncfree.clear_caches()

    def run(self, op, tracer=None):
        word, n = op.args
        params = model.ModelParams(n)
        if op.kind == "dual":
            return (model.tau_word(word, params),
                    model.centering_moment(word, params))
        return freeprob.mixed_cumulant(
            word, lambda w: model.tau_word(w, params))

    def check(self, ops, outputs):
        # every round that ran to its end swept each mixed tuple once per n
        expected = len(self.ns) * mixed_tuple_count(self.letter_count, self.max_q)
        ran = Counter(op.round for op in ops)
        swept: dict[int, set] = {}
        for op in ops:
            if op.kind == "cumulant":
                swept.setdefault(op.round, set()).add(op.args)
        short = {r for r, count in ran.items() if count == self.round_sizes[r]
                 and len(swept.get(r, ())) != expected}
        ok = []
        for op, out in zip(ops, outputs):
            word, n = op.args
            if op.round in short:
                ok.append(False)
            elif op.kind == "dual":
                ok.append(isinstance(out, tuple) and out[0] == out[1])
            else:
                ok.append(not isinstance(out, Failed)
                          and out == mixed_cumulant_value(word, n))
        return ok


# ---------------------------------------------------------------------------
# mc-trials: one Monte Carlo trial per op


def mc_exact(word, n: int) -> float:
    """Large-N limit of a word trace, from the exact engine."""
    return float(model.tau_word(word, model.ModelParams(n)))


class McTrials(Workload):
    name = "mc-trials"
    # BLAS-bound trials time steadily in one run each; a set-up (imports and
    # one warm-up trial) takes about a second, so fewer of them
    passes = 1
    setup_probes = 7
    n = 2
    # family-wise false-alarm rate of the pooled check over all mixed words
    alpha = 1e-6

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.N = 100 if self.tiny else 1000
        self.max_len = 2 if self.tiny else 4
        self.base = _rng(self.name, seed).randrange(2 ** 40)

    def setup(self):
        e11 = model.matrix_letter(ratmat.matrix_unit(self.n, 1, 1))
        x = model.matrix_letter(ratmat.mat_add(ratmat.matrix_unit(self.n, 1, 2),
                                               ratmat.matrix_unit(self.n, 2, 1)))
        alphabet = [model.Z, e11, x]
        self.words = [w for q in range(1, self.max_len + 1)
                      for w in itertools.product(alphabet, repeat=q)]
        self.run(Op("trial", (self.base - 1,), -1))

    def config(self, trial_seed):
        from ncfree import rmt
        return rmt.SimulationConfig(n=self.n, N=self.N, trials=1, seed=trial_seed)

    def round(self, r):
        return [Op("trial", (self.base + r,), r, tuple(self.words))]

    def run(self, op, tracer=None):
        from ncfree import rmt
        cfg = self.config(op.args[0])
        estimates = rmt.FreePairSampler(cfg).estimate_words(self.words)
        eigs = rmt.sample_free_poisson(cfg)
        return (tuple(e.value for e in estimates), float(eigs.mean()),
                rmt.atom_mass_estimate(eigs, cfg))

    def bias_allowance(self, word) -> float:
        # the finite-N bias of a real Wishart word trace is O(1/N): about
        # C(q,2) * |limit| / N for a word of q letters at N=1000 (60 trials);
        # allow q**2 / 2 * max(1, |limit|) / N
        return len(word) ** 2 / 2 * max(1.0, abs(mc_exact(word, self.n))) / self.N

    def check(self, ops, outputs):
        exact = [mc_exact(w, self.n) for w in self.words]
        mixed = {j for j, w in enumerate(self.words) if _gen_count(w)}
        z_index = self.words.index((model.Z,))
        ok = []
        rows = []
        for out in outputs:
            if isinstance(out, Failed):
                ok.append(False)
                continue
            values, eig_mean, atom = out
            good = all(math.isfinite(v) for v in values)
            good = good and all(values[j] == exact[j]
                                for j in range(len(values)) if j not in mixed)
            good = good and atom == 1 - 1 / self.n
            good = good and abs(eig_mean - values[z_index]) <= 1e-9
            ok.append(good)
            if good:
                rows.append(values)
        trials = len(rows)
        if trials < 2:
            return [False] * len(ok)
        z = NormalDist().inv_cdf(1 - self.alpha / (2 * len(mixed)))
        for j in mixed:
            col = [row[j] for row in rows]
            mean = sum(col) / trials
            sd = math.sqrt(sum((v - mean) ** 2 for v in col) / (trials - 1))
            tol = z * sd / math.sqrt(trials) + self.bias_allowance(self.words[j])
            if not abs(mean - exact[j]) <= tol:
                return [False] * len(ok)
        return ok


# ---------------------------------------------------------------------------
# cli-ops: one fresh ncfree process per op


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["NCFREE_THREADS"] = "1"
    return env


def cli_expected(argv: list[str]):
    """The result field a CLI op must print, computed in this process."""
    group, cmd = argv[0], argv[1]
    opts = dict(zip(argv[2::2], argv[3::2]))
    if (group, cmd) == ("nc", "enum"):
        parts = ncpart.enumerate_nc(range(1, int(opts["--q"]) + 1))
        return {"count": len(parts), "partitions": [str(p) for p in parts]}
    if (group, cmd) == ("nc", "pitilde"):
        q = int(opts["--q"])
        D = tuple(int(t) for t in opts["--d"].split(","))
        E = tuple(i for i in range(1, q + 1) if i not in D)
        pi = ncpart.NonCrossingPartition.from_string(opts["--pi"], ground=D)
        return str(ncpart.pi_tilde_bruteforce(D, E, pi))
    if (group, cmd) == ("cumulants", "from-moments"):
        table = [Fraction(1)] + [Fraction(t) for t in opts["--moments"].split(",")]
        return [str(ncpart.moments_to_cumulants(lambda w: table[len(w)], ("x",) * q))
                for q in range(1, len(table))]
    if (group, cmd) == ("model", "tau"):
        from ncfree.cli import parse_word
        word = parse_word(opts["--word"])
        return str(model.centering_moment(word, model.ModelParams(int(opts["--n"])),
                                          cap=len(word)))
    if (group, cmd) == ("model", "z-moment"):
        return str(narayana_moment(int(opts["--m"]), int(opts["--n"])))
    if (group, cmd) == ("free", "check"):
        n, max_q = int(opts["--n"]), int(opts["--max-q"])
        return {"certified": True, "max_q": max_q, "truncated": False,
                "tuples_checked": mixed_tuple_count(n * n, max_q),
                "violations": []}
    if (group, cmd) == ("factor", "dykema"):
        return factors.dykema_free_product(
            Fraction(opts["--r"]), Fraction(opts["--alpha"]), int(opts["--d"])).display()
    if (group, cmd) == ("factor", "m3"):
        n = int(opts["--n"])
        return factors.Summand(Fraction(1), factors.FREE_GROUP,
                               1 + Fraction(2 * (n - 1), n * n)).display()
    if (group, cmd) == ("rmt", "estimate"):
        from ncfree import rmt
        from ncfree.cli import parse_word
        cfg = rmt.SimulationConfig(n=int(opts["--n"]), N=int(opts["--N"]),
                                   trials=int(opts["--trials"]),
                                   seed=int(opts["--seed"]))
        est = rmt.FreePairSampler(cfg).estimate(parse_word(opts["--word"]))
        return {"value": est.value, "std_error": est.std_error,
                "trials": est.trials, "std_error_ok": est.std_error_ok}
    raise ValueError(f"no expected value for {argv}")


class CliOps(Workload):
    name = "cli-ops"
    # A round: each light op twice, z-moment (NC(8) with its Mobius table,
    # the heavy exact op) six times and rmt estimate (numpy and scipy
    # imports) once.  A third of the ops are heavy, so in a run of 40-70 ops
    # the tail percentile falls inside the z-moment class and the median
    # inside the light class, for any number of rounds the run holds,
    # instead of flipping between classes.
    light = ("nc enum", "nc pitilde", "cumulants from-moments", "model tau",
             "free check", "factor dykema", "factor m3")
    kinds = light + light + ("model z-moment",) * 6 + ("rmt estimate",)

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.env = cli_env(HERE.parent / "src")
        self.child_rss_kb = 0

    def peak_rss_kb(self):
        """Peak resident set over the ncfree.cli processes of the loop."""
        return self.child_rss_kb

    def argv(self, kind: str, rng: random.Random, r: int) -> tuple[list, tuple]:
        tiny = self.tiny
        n = 2 + r % 2
        if kind == "nc enum":
            return ["nc", "enum", "--q", str((3, 4)[r % 2] if tiny else 5 + r % 3)], ()
        if kind == "nc pitilde":
            q, d = (6, 3) if tiny else (12, 6)
            D = sorted(rng.sample(range(1, q + 1), d))
            pi = rng.choice(ncpart.enumerate_nc(D))
            return ["nc", "pitilde", "--q", str(q), "--d",
                    ",".join(map(str, D)), "--pi", str(pi)], ()
        if kind == "cumulants from-moments":
            moments = [Fraction(rng.randint(1, 9), rng.randint(1, 5))
                       for _ in range(3 if tiny else 6)]
            return ["cumulants", "from-moments", "--moments",
                    ",".join(map(str, moments))], ()
        if kind == "model tau":
            pool = _matrix_pool(n)
            word = _interleave(rng, 2 if tiny else 5,
                               [rng.choice(pool) for _ in range(2 if tiny else 3)])
            return ["model", "tau", "--n", str(n), "--word", word_text(word)], (word,)
        if kind == "model z-moment":
            m = 4 if tiny else 8
            return (["model", "z-moment", "--n", str(rng.choice((2, 3))),
                     "--m", str(m)], ((model.Z,) * m,))
        if kind == "free check":
            return ["free", "check", "--n", "2", "--max-q", "2" if tiny else "3"], ()
        if kind == "factor dykema":
            r_param = Fraction(rng.randint(2, 20), rng.randint(1, 4))
            alpha = Fraction(rng.randint(1, 15), 16)
            return ["factor", "dykema", "--r", str(max(r_param, Fraction(1))),
                    "--alpha", str(alpha), "--d", str(rng.randint(2, 4))], ()
        if kind == "factor m3":
            return ["factor", "m3", "--n", str(rng.randint(2, 9))], ()
        word = _interleave(rng, 2, [rng.choice(_matrix_pool(2))])
        return ["rmt", "estimate", "--n", "2", "--N", "100" if tiny else "400",
                "--trials", "1" if tiny else "5",
                "--seed", str(rng.randrange(2 ** 31)),
                "--word", word_text(word)], (word,)

    def round(self, r):
        rng = _rng(self.name, self.seed, r)
        ops = []
        for kind in self.kinds:
            argv, words = self.argv(kind, rng, r)
            ops.append(Op(kind, tuple(argv), r, words))
        return _stratified(rng, ops, lambda op: op.kind)

    def run(self, op, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "ncfree.cli", *op.args]
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True, env=self.env)
            with proc.stdout:
                stdout = proc.stdout.read()
            # wait4 gives this child's own peak resident set
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
            return (proc.returncode, stdout)
        cmd = [sys.executable, str(HERE / "cli_shim.py"), *op.args]
        spawn = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env)
        for line in proc.stderr.splitlines():
            if line.startswith("PERFBENCH_SPANS "):
                payload = json.loads(line[len("PERFBENCH_SPANS "):])
                tracer.record("cli.interp", spawn, payload["t_start"])
                tracer.merge(payload)
        return (proc.returncode, proc.stdout)

    def check(self, ops, outputs):
        ok = []
        for op, out in zip(ops, outputs):
            if isinstance(out, Failed):
                ok.append(False)
                continue
            code, stdout = out
            try:
                doc = json.loads(stdout)
            except ValueError:
                ok.append(False)
                continue
            good = (code == 0 and isinstance(doc, dict)
                    and set(doc) >= {"op", "params", "result", "provenance", "version"}
                    and doc["op"] == op.kind
                    and doc["version"] == ncfree.__version__
                    and doc["provenance"] == ("montecarlo" if op.kind.startswith("rmt")
                                              else "exact"))
            ok.append(good and doc["result"] == cli_expected(list(op.args)))
        return ok


WORKLOADS = {w.name: w for w in (FreenessSweep, McTrials, CliOps)}
