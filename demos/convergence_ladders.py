"""Three coupled-ladder diagnostics for the chaos limit.

Each ladder estimates a squared distance between consecutive mollification
levels (or between two mollifier profiles at the same level) and should
decrease toward zero.  The verdict applies the decreasing-within-noise
rule used by the experiment runner.
"""

import argparse

from logchaos import (Bench, ChaosParams, Grid, KernelSpec, Mollifier,
                      bump_function, cauchy_ladder, mollifier_independence,
                      pick_lambda, sobolev_ladder)


def failed_rules(report):
    """Which trend rule a ladder broke: rises beyond 2 SE, or the last
    cell not below half the first."""
    out = [f"rung {i + 1} rises {d:.3e} > 2 SE ({2.0 * se:.1e})"
           for i, (d, se) in enumerate(zip(report.diffs, report.diff_ses))
           if d > 2.0 * se]
    first, last = report.values[0], report.values[-1]
    if not last < 0.5 * first:
        out.append(f"last cell {last:.3e} not below half the first "
                   f"({0.5 * first:.3e})")
    return out


def show(title, report):
    print(f"\n{title}")
    for i, step in enumerate(report.steps):
        coarse, fine = (step if isinstance(step, tuple) else (step, step))
        line = (f"  rung {i}: eps {float(coarse):.5f} -> {float(fine):.5f}   "
                f"cell {report.values[i]:.3e} (se {report.ses[i]:.1e})")
        if i:
            line += (f"   diff {report.diffs[i - 1]:+.3e} "
                     f"(se {report.diff_ses[i - 1]:.1e})")
        print(line)
    if report.verdict:
        print("  verdict: decreasing within noise")
    else:
        print("  verdict: NOT decreasing: " + "; ".join(failed_rules(report)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid-n", type=int, default=512)
    ap.add_argument("--replicas", type=int, default=800)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rungs", type=int, default=4,
                    help="ladder length, eps = 2^-3 .. 2^-(2+rungs)")
    args = ap.parse_args()

    spec = KernelSpec(d=1)
    grid = Grid.regular((0.0, 1.0), args.grid_n)
    f = bump_function(grid, center=0.5, radius=0.1)
    ladder = [2.0 ** -(3 + k) for k in range(args.rungs)]
    n_max = 8
    bench = Bench(spec, grid, n_max, f=f)
    bench.add_channel("alt", Mollifier(d=1, profile="quartic"))

    rep = cauchy_ladder(bench, ChaosParams(f=f, gamma=0.8), ladder,
                        args.replicas, args.seed)
    show("Cauchy ladder, gamma = 0.8 (L2, untruncated)", rep)

    lam = pick_lambda(1, 1.1, 0.25)
    params = ChaosParams(f=f, gamma=1.1 + 0.25j, truncation=True, q=2,
                         lam=lam)
    rep = cauchy_ladder(bench, params, ladder, args.replicas, args.seed)
    show(f"Cauchy ladder, gamma = 1.1 + 0.25i (truncated, lambda = {lam:.3f})",
         rep)

    rep = mollifier_independence(bench, ChaosParams(f=f, gamma=0.8), ladder,
                                 args.replicas, args.seed)
    show("profile independence, bump vs quartic, gamma = 0.8", rep)

    rep = sobolev_ladder(bench, params, 0.75, ladder, args.replicas,
                         args.seed)
    show("H^{-0.75} coupled distance, gamma = 1.1 + 0.25i", rep)


if __name__ == "__main__":
    main()
