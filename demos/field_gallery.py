"""Draw one log-correlated field and watch its ladder build up.

Prints the empirical variance of the partial sums Y_n at the domain center
against the exact value Q_0 + n, then mollifies Y_{n_max} at two scales eps
with Bench.mollify, the library's one convolution path, and reports the
variance of X_eps against the kernel-table diagonal.  Optionally dumps one
realization's profiles to CSV for plotting elsewhere; a row outside the
drawn window leaves its cells empty.
"""

import argparse
import csv
import math

import numpy as np

from logchaos import Bench, Grid, KernelSpec, Mollifier
from logchaos.mollifier import interior_rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256, help="grid points")
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--replicas", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None, help="write one realization here")
    args = ap.parse_args()

    spec = KernelSpec(d=1)
    grid = Grid.regular((0.0, 1.0), args.n)
    mid = args.n // 2
    eps_list = [2.0 ** -4, 2.0 ** -5]
    mol = Mollifier(d=1)

    levels = (2, 5, args.n_max)
    keys = [("main", e) for e in eps_list]
    # f marks the D_eps rows of the wider eps, where mollify returns X_eps;
    # every level is drawn on the rows lo..hi the keys' convolutions read:
    # block slabs are the increments Z_k, and their cumsum the partial sums
    f = np.zeros(grid.n)
    f[interior_rows(grid, eps_list[0])] = 1.0
    bench = Bench(spec, grid, args.n_max, f=f, mol=mol)
    at = np.searchsorted(bench.supp, mid)
    draw = bench.draw(keys=keys)

    def at_center(start, z):
        y = np.cumsum(z, axis=0)
        xs = [x[at] for x in bench.mollify(y[-1], keys, draw)]
        return (*y[levels, mid - draw.lo], *xs)

    outs = bench.map_blocks(args.seed, args.replicas, at_center, draw=draw)
    ys = dict(zip(levels, outs[:len(levels)]))
    xs = dict(zip(eps_list, outs[len(levels):]))

    r = args.replicas
    print(f"partial sums at x = 0.5, R = {r}:")
    for k, vals in sorted(ys.items()):
        var = float(np.var(vals, ddof=1))
        se = var * math.sqrt(2.0 / (r - 1))
        exact = spec.q0 + k
        print(f"  Var(Y_{k})  = {var:7.4f}   exact {exact}   "
              f"({(var - exact) / se:+.2f} se)")

    print("mollified fields:")
    for e in eps_list:
        oracle = bench.supp_tables("main", e)[1][at]
        var = float(np.var(xs[e], ddof=1))
        se = var * math.sqrt(2.0 / (r - 1))
        print(f"  Var(X_eps), eps = 2^{int(math.log2(e))}: {var:7.4f}"
              f"   table {oracle:7.4f}   ({(var - oracle) / se:+.2f} se)")

    if args.csv:
        # replica 0: the first column of block 0
        (kept,) = bench.map_blocks(args.seed, 1,
                                   lambda start, z: (np.cumsum(z, axis=0),),
                                   draw=draw)
        (x_e,) = bench.mollify(kept[-1], keys[:1], draw)
        cols = np.full((4, grid.n), np.nan)
        cols[:3, draw.lo:draw.hi + 1] = kept[levels, :, 0]
        cols[3, bench.supp] = x_e[:, 0]
        with open(args.csv, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["x", "y2", "y5", "y_top", "x_eps"])
            for i in range(grid.n):
                wr.writerow([grid.points[i, 0],
                             *("" if np.isnan(v) else v for v in cols[:, i])])
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
