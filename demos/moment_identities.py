"""Monte Carlo checks of the two closed-form chaos moments.

E[M_eps(f)] = integral of f for any gamma, and in the L2 region
E[M_eps conj(M_eps)] has a quadrature oracle.  Both are printed with their
z-scores; anything past |z| = 4 deserves suspicion.  One caveat: the
gamma = 0.8 second-moment estimator has heavy tails (E|M|^4 diverges there),
so at a few thousand replicas its own SE is noisy and |z| can drift past 4
without anything being wrong.  Rerun with --replicas 10000 before worrying.
"""

import argparse

from logchaos import Bench, ChaosParams, Grid, KernelSpec, bump_function, mc_moments

GAMMAS = [0.5, 0.8, 0.5 + 0.5j, 1.1 + 0.25j]


def fmt(c):
    return f"{c.real:+.5f}{c.imag:+.5f}i"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replicas", type=int, default=3000)
    ap.add_argument("--eps", type=float, default=2.0 ** -5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = KernelSpec(d=1)
    grid = Grid.regular((0.0, 1.0), 128)
    f = bump_function(grid, center=0.5, radius=0.2)
    bench = Bench(spec, grid, 8, f=f)

    print(f"mean identity, eps = {args.eps}, R = {args.replicas}")
    print(f"{'gamma':>16s} {'estimate':>20s} {'oracle':>20s} {'|z|':>6s}")
    jobs = [(ChaosParams(f=f, gamma=g), "mean", args.eps, None) for g in GAMMAS]
    for g, m in zip(GAMMAS, mc_moments(bench, jobs, replicas=args.replicas,
                                       seed=args.seed)):
        print(f"{fmt(complex(g)):>16s} {fmt(m.estimate):>20s} "
              f"{fmt(m.oracle):>20s} {m.max_z:6.2f}")

    print(f"\nsecond moment against the quadrature oracle (L2 region only)")
    print(f"{'gamma':>16s} {'estimate':>20s} {'oracle':>20s} {'|z|':>6s}")
    l2 = [0.5, 0.8, 0.5 + 0.5j]
    jobs = [(ChaosParams(f=f, gamma=g), "product", args.eps, args.eps)
            for g in l2]
    for g, m in zip(l2, mc_moments(bench, jobs, replicas=args.replicas,
                                   seed=args.seed + 1)):
        print(f"{fmt(complex(g)):>16s} {fmt(m.estimate):>20s} "
              f"{fmt(m.oracle):>20s} {m.max_z:6.2f}")


if __name__ == "__main__":
    main()
