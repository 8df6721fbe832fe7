"""Monte Carlo error ladder: word estimates against exact traces as N grows.

Example:
    python scripts/convergence_ladder.py --n 2 --sizes 200,400,800,1600
"""
import argparse

from ncfree.model import ModelParams, Z, matrix_letter, tau_word
from ncfree.rmt import FreePairSampler, SimulationConfig


def ladder_words(n):
    e11 = matrix_letter([[1 if (r, c) == (0, 0) else 0 for c in range(n)]
                         for r in range(n)])
    sym = matrix_letter([[1 if r != c else 0 for c in range(n)]
                         for r in range(n)])
    return {
        "Z": (Z,),
        "ZZ": (Z, Z),
        "ZZZ": (Z, Z, Z),
        "Za": (Z, e11),
        "ZaZa": (Z, e11, Z, e11),
        "ZZab": (Z, Z, e11, sym),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--sizes", default="200,400,800,1600",
                    help="comma-separated matrix sizes N")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    params = ModelParams(args.n)
    words = ladder_words(args.n)
    exact = {name: float(tau_word(w, params)) for name, w in words.items()}

    header = f"{'N':>6} " + " ".join(f"{name:>12}" for name in words)
    print(f"n={args.n} trials={args.trials} seed={args.seed}; "
          f"entries are |estimate - exact| (exact below)")
    print(header)
    print(f"{'exact':>6} " + " ".join(f"{exact[name]:12.4f}" for name in words))
    for N in sizes:
        config = SimulationConfig(n=args.n, N=N, trials=args.trials,
                                  seed=args.seed)
        sampler = FreePairSampler(config)
        ests = sampler.estimate_words(list(words.values()))
        errs = [abs(e.value - exact[name])
                for name, e in zip(words, ests)]
        print(f"{N:>6} " + " ".join(f"{err:12.2e}" for err in errs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
