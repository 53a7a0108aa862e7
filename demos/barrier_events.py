"""Barrier events: how often the field ladder escapes a linear fence.

Part one estimates P[sup_x Y_k(x) > lambda k] for increasing k; on a log
scale these probabilities fall roughly linearly.  Part two estimates the
global truncation event P[A_{q,lambda}] for increasing starting level q.
Part three tilts the measure by alpha at two close points and fits the
decay exponent of the two-point event probability in the separation.
"""

import argparse
import math

from logchaos import (Bench, Grid, KernelSpec, bump_function, pick_lambda,
                      sup_field_prob, tilted_event_prob)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=1.6)
    ap.add_argument("--replicas", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = KernelSpec(d=1)
    grid = Grid.regular((0.0, 1.0), 512)
    f = bump_function(grid, center=0.5, radius=0.2)
    bench = Bench(spec, grid, 10, f=f)

    rep = sup_field_prob(bench, args.lam, ks=[4, 5, 6, 7, 8], qs=[2, 4, 6, 8],
                         replicas=args.replicas, seed=args.seed)
    print(f"exceedance of the fence lambda*k, lambda = {args.lam}:")
    for k, m in zip(rep.ks, rep.k_probs):
        print(f"  k = {k:2d}: P = {m.estimate.real:.4f} (se {m.se_re:.4f})")
    print(f"  log-linear slope {rep.slope:.3f} +- {rep.slope_se:.3f}, "
          f"decaying: {rep.decay_ok}")

    print(f"\nglobal event A_q (all levels k >= q stay under the fence):")
    for q, m in zip(rep.qs, rep.q_probs):
        print(f"  q = {q}: P = {m.estimate.real:.4f}")
    print(f"  monotone in q: {rep.q_increasing}, final {rep.q_final:.4f}")

    alpha = 1.1
    lam = pick_lambda(1, alpha, 0.0)
    seps = [math.exp(-k) for k in range(2, 6)]
    rep = tilted_event_prob(spec, seps, math.exp(-5), 2, lam, alpha, 8,
                            replicas=args.replicas,
                            seed=args.seed + 1)
    print(f"\ntilted two-point event, alpha = {alpha}, lambda = {lam:.4f}:")
    for s, m in zip(rep.separations, rep.estimates):
        print(f"  |x - y| = {s:.5f}: P~ = {m.estimate.real:.4f}")
    print(f"  fitted exponent {rep.slope:.3f} vs one-sided target "
          f"{rep.exponent_target:.3f} - 0.3; holds: {rep.one_sided_ok}")


if __name__ == "__main__":
    main()
