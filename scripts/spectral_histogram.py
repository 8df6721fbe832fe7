"""Text histogram of the Wishart generator spectrum vs the limit law.

Example:
    python scripts/spectral_histogram.py --n 2 --N 1200 --trials 10 --bins 40

To save the raw eigenvalues, use ``ncfree rmt sample --out FILE``, which
writes them as CSV under a header that records the configuration.
"""
import argparse

import numpy as np

from ncfree.rmt import (
    SimulationConfig,
    atom_mass_estimate,
    mp_density,
    mp_support,
    sample_free_poisson,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--N", type=int, default=1200)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bins", type=int, default=40)
    ap.add_argument("--width", type=int, default=60, help="bar width in chars")
    args = ap.parse_args()

    config = SimulationConfig(n=args.n, N=args.N, trials=args.trials,
                              seed=args.seed)
    eigs = sample_free_poisson(config)
    atom = atom_mass_estimate(eigs, config)
    a, b = mp_support(config.rate, config.jump)

    print(f"n={args.n} N={args.N} trials={args.trials} seed={args.seed}")
    print(f"atom mass: {atom:.4f} (limit {1 - 1 / args.n:.4f})")
    print(f"bulk support: [{a:.4f}, {b:.4f}]")
    print()

    bulk = eigs[eigs >= config.atom_threshold]
    counts, edges = np.histogram(bulk, bins=args.bins, range=(a, b))
    # normalize to a density over the bulk, conditioned on the nonzero part
    bin_w = edges[1] - edges[0]
    density = counts / (eigs.size * bin_w)
    top = max(density.max(), 1e-12)
    for i, d in enumerate(density):
        mid = 0.5 * (edges[i] + edges[i + 1])
        ref = mp_density(mid, config.rate, config.jump)
        bar = "#" * int(round(args.width * d / top))
        print(f"{mid:8.3f} {d:8.4f} (mp {ref:8.4f}) {bar}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
