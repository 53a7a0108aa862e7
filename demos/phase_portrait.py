"""Map the complex-parameter plane gamma = alpha + i beta into its phases.

Scans a square window, counts grid points per label, and spot-checks a few
landmark parameter values.  The map itself, point by point, is the CSV of a
`logchaos run` of a phase-scan config.
"""

import argparse
from collections import Counter

import numpy as np

from logchaos import phase


LANDMARKS = [
    (0.5, 0.0, "small real gamma"),
    (0.9, 0.3, "inside the L2 disk"),
    (1.1, 0.25, "lens between the disk and the diagonal"),
    (1.2, 0.5, "past the diagonal, glassy"),
    (0.5, 1.2, "dominant oscillation"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=1, choices=(1, 2))
    ap.add_argument("--extent", type=float, default=2.5)
    ap.add_argument("--n", type=int, default=301, help="points per axis")
    args = ap.parse_args()

    alphas = np.linspace(-args.extent, args.extent, args.n)
    betas = np.linspace(-args.extent, args.extent, args.n)
    labels = phase.scan(args.d, alphas, betas)

    counts = Counter(labels[i, j] for i in range(args.n)
                     for j in range(args.n))
    total = args.n * args.n
    print(f"phase census on [{-args.extent}, {args.extent}]^2, d={args.d}:")
    for name in phase.LABELS:
        share = counts.get(name, 0) / total
        print(f"  {name:22s} {counts.get(name, 0):8d}  ({share:.1%})")

    print("\nlandmarks:")
    for a, b, note in LANDMARKS:
        lab = phase.classify(args.d, a, b)
        extra = ""
        if lab == phase.SUBCRITICAL:
            lam = phase.pick_lambda(args.d, a, b)
            extra = f"  barrier slope lambda = {lam:.4f}"
        print(f"  gamma = {a} + {b}i -> {lab}{extra}  [{note}]")


if __name__ == "__main__":
    main()
