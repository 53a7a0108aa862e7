import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from logchaos import (Bench, Grid, KernelSpec, bump_function, exact_level,
                      gram, k_exact, k_mollified, k_partial, kappa, kernels,
                      kernel_estimate_check, pd_check, q_mollified, q_n)
from logchaos import mollifier
from logchaos.kernels import lattice_row
from logchaos.mollifier import (Mollifier, ResolutionError, interior_rows,
                                weight_matrix)

SPEC1 = KernelSpec(d=1)


class TestKappa:
    def test_endpoints(self):
        assert kappa(0.0) == 1.0, "kappa(0) must be 1"
        assert kappa(1.0) == 0.0
        assert kappa(3.7) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kappa(-0.2)

    @given(st.floats(0.0, 1.5), st.floats(0.0, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_lipschitz(self, r, s):
        assert abs(kappa(r) - kappa(s)) <= abs(r - s) + 1e-12


class TestIncrementKernel:
    def test_unit_diagonal(self):
        for n in (1, 3, 9):
            assert abs(q_n(SPEC1, n, 0.0) - 1.0) < 1e-13

    def test_support(self):
        # Q_n vanishes for r >= e^{-(t0+n)}
        assert q_n(SPEC1, 3, 0.1) == 0.0, "0.1 >= e^-3 so Q_3 must vanish"
        assert q_n(SPEC1, 2, math.exp(-2)) == 0.0
        assert q_n(SPEC1, 2, math.exp(-2) * 0.99) > 0.0

    def test_closed_form_d1(self):
        # int_1^2 (1 - e^{t-2}) dt = e^{-1} at r = e^{-2}
        val = q_n(SPEC1, 1, math.exp(-2))
        assert abs(val - math.exp(-1)) < 1e-9, f"got {val}"

    def test_quadrature_oracle(self):
        # independent adaptive quadrature of kappa(e^t r) over the t-interval
        for n, r in ((1, 0.05), (2, 0.03), (4, 0.01)):
            oracle, _ = quad(lambda t: kappa(math.exp(t) * r), n, n + 1)
            assert abs(q_n(SPEC1, n, r) - oracle) < 1e-9, f"n={n} r={r}"

    def test_range_and_lipschitz_bound(self):
        rs = np.linspace(0.0, 1.0, 400)
        for n in (1, 4):
            vals = q_n(SPEC1, n, rs)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
            lip = math.exp(n + 1)
            steps = np.abs(np.diff(vals)) / (rs[1] - rs[0])
            assert steps.max() <= lip + 1e-6, f"Q_{n} Lipschitz bound violated"

    def test_t0_shifts_support(self):
        spec = KernelSpec(d=1, t0=1.0)
        assert q_n(spec, 1, math.exp(-2)) == 0.0
        assert q_n(spec, 1, math.exp(-2.5)) > 0.0


class TestPartialAndExact:
    def test_partial_closed_form(self):
        # at r = e^{-3} only Q_0..Q_2 contribute: log(1/r) - 2 + e r
        val = k_partial(SPEC1, 10, math.exp(-3))
        assert abs(val - (1.0 + math.exp(-2))) < 1e-9, f"got {val}"

    def test_telescoping_at_zero(self):
        for n, m in ((5, 2), (9, 9), (12, 1)):
            lhs = k_partial(SPEC1, n, 0.0) - k_partial(SPEC1, m, 0.0)
            assert abs(lhs - (n - m)) < 1e-12

    def test_exact_closed_form_d1(self):
        rs = np.linspace(1e-4, math.exp(-1), 50)
        ref = np.log(1.0 / rs) - 2.0 + math.e * rs
        vals = k_exact(SPEC1, rs)
        err = np.abs(vals - ref).max()
        assert err < 1e-9, f"closed form violated, max err {err}"

    def test_exact_rejects_diagonal(self):
        with pytest.raises(ValueError):
            k_exact(SPEC1, 0.0)

    def test_exact_matches_deep_partial(self):
        r = math.exp(-2.0)
        lvl = exact_level(SPEC1, r)
        assert abs(k_exact(SPEC1, r) - k_partial(SPEC1, lvl, r)) < 1e-12
        assert abs(k_exact(SPEC1, r) - k_partial(SPEC1, lvl + 5, r)) < 1e-12

    def test_exact_level_formula(self):
        assert exact_level(SPEC1, math.exp(-3)) == 5
        assert exact_level(SPEC1, 0.9) == 3
        assert exact_level(KernelSpec(d=1, t0=2.0), math.exp(-3)) == 3

    def test_constant_mode(self):
        spec = KernelSpec(d=1, q0=1.5)
        assert abs(k_partial(spec, 4, 0.5) - (k_partial(SPEC1, 4, 0.5) + 1.5)) < 1e-12

    def test_q0_finite_nonnegative(self):
        # Q_0 is the one constant q0: it reaches K_n, and a negative or
        # non-finite value is refused before any field is drawn
        assert k_partial(KernelSpec(d=1, q0=5.0), 2, 0.0) == 7.0
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="q0"):
                KernelSpec(d=1, q0=bad)


def level_loop(spec, n, r):
    """K_n(r) level by level: Q_0 plus q_n(k) on the radii inside level k's
    support, for k = 1..n, the per-level sum the closed form replaces."""
    out = np.full(r.shape, spec.q0)
    for k in range(1, n + 1):
        live = r < math.exp(-(spec.t0 + k))
        out[live] += q_n(spec, k, r[live])
    return out


class TestLevelSum:
    """A run of consecutive levels telescopes into one closed form."""

    @staticmethod
    def radii(t0):
        # 0, a tiny radius, uniform draws on two scales, and
        # every support edge e^-(t0+k) with the floats one ulp either side
        edges = np.exp(-(t0 + np.arange(0, 23)))
        rng = np.random.default_rng(20)
        return np.concatenate([[0.0, 1e-300], rng.uniform(0.0, 1.0, 400),
                               rng.uniform(0.0, 1e-4, 400), edges,
                               np.nextafter(edges, 0.0),
                               np.nextafter(edges, 1.0)])

    # at t0 = 0.2 the integral's length (t0 + b + 1) - (t0 + a) rounds away
    # from b - a + 1, so r = 0 needs its own exact value
    @pytest.mark.parametrize("q0", [0.0, 1.0], ids=["zero", "constant"])
    @pytest.mark.parametrize("t0", [0.0, 0.5, 0.2])
    def test_partial_matches_level_loop(self, t0, q0):
        spec = KernelSpec(d=1, t0=t0, q0=q0)
        r = self.radii(t0)
        for n in range(1, 21):
            got = k_partial(spec, n, r)
            want = level_loop(spec, n, r)
            assert np.abs(got - want).max() <= 1e-14, f"n={n}"
            assert got.min() >= 0.0
            assert got[0] == spec.q0 + n, "K_n(0) = Q_0 + n exactly"

    @pytest.mark.parametrize("t0", [0.0, 0.5, 0.2])
    def test_lattice_row_is_partial_difference(self, t0):
        # a sampled group's row equals the difference of two partial-sum
        # tables, which is what makes sampled rows and kernel tables agree
        spec = KernelSpec(d=1, t0=t0, q0=1.0)
        h = 1.0 / 2048
        o = np.arange(-1200, 1201)
        for a, b in ((1, 1), (1, 8), (2, 8), (3, 5), (7, 7), (9, 14)):
            row = lattice_row(spec, range(a, b + 1), h, o)
            ref = (k_partial(spec, b, np.abs(o) * h)
                   - k_partial(spec, a - 1, np.abs(o) * h))
            assert np.abs(row - ref).max() <= 1e-14, f"levels {a}..{b}"
            assert row[o == 0][0] == b - a + 1

    def test_lattice_row_needs_one_run(self):
        for levels in ([1, 3], [2, 4, 5], [], [3, 2]):
            with pytest.raises(ValueError, match="consecutive run"):
                lattice_row(SPEC1, levels, 0.01, np.arange(5))
        with pytest.raises(ValueError, match="d=1 only"):
            KernelSpec(d=2)

    def test_q_n_is_one_level_run(self):
        r = self.radii(0.0)
        for n in (1, 4, 11):
            assert np.array_equal(q_n(SPEC1, n, r),
                                  kernels.level_sum(SPEC1, n, n, r))


class TestPdCheck:
    def test_kappa_fourier_d1(self):
        rep = pd_check(SPEC1, Grid.regular((0.0, 1.0), 256))
        assert rep.fourier_min >= -1e-8, f"fourier_min = {rep.fourier_min}"

    def test_gram_q3_64_points(self):
        grid = Grid.regular((0.0, 1.0), 64)
        g = gram(SPEC1, 3, grid)
        eig = np.linalg.eigvalsh(g)
        assert eig.min() >= -1e-8 * np.trace(g), f"min eig {eig.min()}"

    def test_constant_kernel_gram(self):
        spec = KernelSpec(d=1, q0=2.0)
        grid = Grid.regular((0.0, 1.0), 32)
        g = gram(spec, 0, grid)
        eig = np.linalg.eigvalsh(g)
        assert eig.min() >= -1e-10 * np.abs(eig).max(), "rank-one Gram went negative"


def dense_gram(spec, n, points):
    """The Gram by its definition: Q_n at every pairwise distance."""
    r = np.abs(points - points.T)
    out = np.zeros(r.shape)
    live = r < math.exp(-(spec.t0 + n))
    out[live] = q_n(spec, n, r[live])
    return out


class TestGram:
    def test_matches_dense_definition_n2048(self):
        grid = Grid.regular((0.0, 1.0), 2048)
        for n in range(1, 9):
            assert np.array_equal(gram(SPEC1, n, grid),
                                  dense_gram(SPEC1, n, grid.points)), f"level {n}"

    def test_matches_dense_definition_free_points(self):
        pts = np.array([[0.61], [0.3]])
        grid = Grid.from_points(pts, (0.0, 1.0))
        for n in range(1, 4):
            assert np.array_equal(gram(SPEC1, n, grid), dense_gram(SPEC1, n, pts))

    def test_free_points_are_d1(self):
        # a free point set holds d=1 points, given as (N,) or (N, 1); a
        # single row of several points is no longer read as a column
        row = Grid.from_points([0.61, 0.3, 0.45], (0.0, 1.0))
        assert row.points.tolist() == [[0.61], [0.3], [0.45]]
        for bad in (np.zeros((4, 2)), [[0.1, 0.2, 0.3]], np.zeros((2, 1, 1))):
            with pytest.raises(ValueError, match="d=1"):
                Grid.from_points(bad, (0.0, 1.0))


def interior_table(spec, grid, eps, eps_prime, mol, rule, n_levels, nodes=32):
    """(rows, rows_p, values): K_{eps,eps'} on the D_eps x D_eps' rows,
    gathered from the per-offset values of kernels.offset_table."""
    rows = interior_rows(grid, mol, eps)
    rows_p = interior_rows(grid, mol, eps_prime)
    lo, _, vals = kernels.offset_table(spec, grid, rows, rows_p, eps,
                                       eps_prime, mol, rule, n_levels, nodes)
    return rows, rows_p, vals[np.subtract.outer(rows, rows_p) - lo]


def pairwise_offset_table(spec, grid, rows, rows_p, eps, eps_prime, mol, rule,
                          n_levels, nodes=32):
    """The rows x rows_p table as keyed pair by pair: each (row, row') pair
    by its lattice offset, the offset's separation from its row-major first
    pair, and every other pair with that offset reading the same value."""
    code = (np.subtract.outer(rows, rows_p) + grid.n - 1).ravel()
    first = np.full(2 * grid.n - 1, code.size)
    np.minimum.at(first, code, np.arange(code.size))
    hit = first < code.size
    pick = first[hit]
    seps = (grid.points[rows[pick // len(rows_p)], 0]
            - grid.points[rows_p[pick % len(rows_p)], 0])
    vals = kernels._mollified_of_seps(spec, seps, eps, eps_prime, mol, rule,
                                      n_levels, grid.h, nodes)
    return vals[np.cumsum(hit)[code] - 1].reshape(len(rows), len(rows_p))


class TestOffsetTable:
    @staticmethod
    def offsets_and_oracle(spec, grid, rows, rows_p, eps, eps_prime, rule,
                           nodes):
        mol = Mollifier(d=1)
        n_levels = exact_level(spec, eps_prime)
        args = (spec, grid, rows, rows_p, eps, eps_prime, mol, rule, n_levels,
                nodes)
        lo, seps, vals = kernels.offset_table(*args)
        assert seps.shape == vals.shape
        return (vals[np.subtract.outer(rows, rows_p) - lo],
                pairwise_offset_table(*args))

    # the leading 1 is the dimension d, the only one the kernels implement
    @pytest.mark.parametrize("d,n,rule,eps,eps_prime,nodes", [
        (1, 512, "grid", 2 ** -4, 2 ** -4, 32),
        (1, 512, "midpoint", 2 ** -4, 2 ** -4, 32),
        (1, 512, "grid", 2 ** -3, 2 ** -7, 32),
        (1, 512, "midpoint", 2 ** -3, 2 ** -7, 32),
    ])
    def test_interior_tables_bitwise(self, d, n, rule, eps, eps_prime, nodes):
        # the tables take the lattice, equal to rounding to the fold at the
        # pairs' separations, which on a dyadic grid are exactly o h
        spec = KernelSpec(d=d)
        grid = Grid.regular((0.0, 1.0), n)
        mol = Mollifier(d=d)
        rows = mollifier.interior_rows(grid, mol, eps)
        rows_p = mollifier.interior_rows(grid, mol, eps_prime)
        table, oracle = self.offsets_and_oracle(spec, grid, rows, rows_p, eps,
                                                eps_prime, rule, nodes)
        assert np.abs(table - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_support_cross_table_bitwise(self):
        # the cross table is the support offset_table, one value per row
        # offset; gathered by offset it is the pairwise table to rounding
        grid = Grid.regular((0.0, 1.0), 128)
        bench = Bench(SPEC1, grid, 7, f=bump_function(grid, 0.5, 0.2))
        supp, mol = bench.supp, Mollifier(d=1)
        cross = bench.cross_table(2 ** -4, 2 ** -5)
        _, _, vals = kernels.offset_table(SPEC1, grid, supp, supp, 2 ** -4,
                                          2 ** -5, mol, "grid", 7)
        assert cross.shape == (2 * supp.size - 1,)
        assert np.array_equal(cross, vals)
        oracle = pairwise_offset_table(SPEC1, grid, supp, supp, 2 ** -4,
                                       2 ** -5, mol, "grid", 7)
        table = cross[np.subtract.outer(supp, supp) + supp.size - 1]
        assert np.abs(table - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_gapped_rows_to_rounding(self):
        # a row set with a gap keeps the offsets of its bounding run; a
        # separation may come from a pair the set lacks, equal to rounding
        grid = Grid.regular((0.0, 1.0), 300)
        rows = np.r_[80:120, 150:200]
        rows_p = np.r_[90:130, 170:185]
        table, oracle = self.offsets_and_oracle(SPEC1, grid, rows, rows_p,
                                                2 ** -4, 2 ** -5, "midpoint",
                                                32)
        assert np.abs(table - oracle).max() <= 1e-14 * np.abs(oracle).max()


LADDER = [2.0 ** -k for k in range(3, 8)]


def ladder_tables(spec):
    """(eps, eps', n_levels) of the default kernel-check ladder: the
    mollified pairs (eps, eps) and (eps, next rung) of 2^-3..2^-7, which
    are also the ladder-2048 cross-table pairs, then the partial tables at
    eps = 2^-4 with every n_levels 4..12."""
    pairs = [(e, e2, exact_level(spec, e2)) for i, e in enumerate(LADDER)
             for e2 in [e, *LADDER[i + 1:i + 2]]]
    return pairs + [(2 ** -4, 2 ** -4, n) for n in range(4, 13)]


class TestLatticeTable:
    @pytest.mark.parametrize("rule", ["grid", "midpoint"])
    @pytest.mark.parametrize("n", [512, 2048, 8192])
    def test_matches_exact_separations(self, n, rule):
        # every d=1 table of the default ladders against the per-offset fold
        # at the exact separations o h, on 40 spread offsets and those
        # within 3 of 0
        grid = Grid.regular((0.0, 1.0), n)
        mol = Mollifier(d=1)
        for eps, eps_prime, n_levels in ladder_tables(SPEC1):
            rows = interior_rows(grid, mol, eps)
            rows_p = interior_rows(grid, mol, eps_prime)
            lo, _, vals = kernels.offset_table(SPEC1, grid, rows, rows_p, eps,
                                               eps_prime, mol, rule, n_levels)
            offs = lo + np.arange(vals.size)
            pick = np.union1d(np.linspace(0, vals.size - 1, 40).astype(int),
                              np.flatnonzero(np.abs(offs) <= 3))
            want = kernels._mollified_of_seps(
                SPEC1, offs[pick] * grid.h, eps, eps_prime, mol, rule,
                n_levels, grid.h, 32)
            err = np.abs(vals[pick] - want).max()
            assert err <= 1e-14 * np.abs(want).max(), (eps, eps_prime,
                                                       n_levels, err)

    @pytest.mark.parametrize("n,tables", [(300, 7), (1000, 9)])
    def test_off_lattice_midpoint_folds(self, monkeypatch, n, tables):
        # at N=300 and N=1000 the midpoint clouds sit on multiples of h/q
        # only for q = 32..512, where gathering each offset's lags from the
        # long row costs more than the fold, so each table folds per offset
        # at its pairs' separations, as every table did up to v0.15.0, bit
        # for bit
        grid = Grid.regular((0.0, 1.0), n)
        mol = Mollifier(d=1)
        lattice = []
        inner = kernels._lattice_table

        def counted(*args):
            lattice.append(inner(*args))
            return lattice[-1]

        monkeypatch.setattr(kernels, "_lattice_table", counted)
        for eps, eps_prime, n_levels in ladder_tables(SPEC1)[:tables]:
            rows = interior_rows(grid, mol, eps)
            rows_p = interior_rows(grid, mol, eps_prime)
            _, seps, vals = kernels.offset_table(SPEC1, grid, rows, rows_p,
                                                 eps, eps_prime, mol,
                                                 "midpoint", n_levels)
            want = kernels._mollified_of_seps(SPEC1, seps, eps, eps_prime,
                                              mol, "midpoint", n_levels,
                                              grid.h, 32)
            assert np.array_equal(vals, want), (eps, eps_prime)
        assert len(lattice) == tables and all(v is None for v in lattice)

    def test_kernel_tables_512_radii(self, monkeypatch):
        # the 14 tables of kernel-check at N=512 (ladder 2^-3..2^-7,
        # n_ladder 4..12 step 2 at eps 2^-4) all take the lattice, q <= 8,
        # and evaluate 34,562 radii; the per-offset fold evaluated 818,322
        seen = []
        inner = kernels.k_partial

        def counted(spec, n, r):
            seen.append(np.size(r))
            return inner(spec, n, r)

        def forbidden(*args):
            raise AssertionError("a kernel-tables-512 table folded")

        monkeypatch.setattr(kernels, "k_partial", counted)
        monkeypatch.setattr(kernels, "_mollified_of_seps", forbidden)
        grid = Grid.regular((0.0, 1.0), 512)
        kernel_estimate_check(SPEC1, "mollified", grid, eps_ladder=LADDER)
        kernel_estimate_check(SPEC1, "partial", grid,
                              n_ladder=[4, 6, 8, 10, 12], eps_fixed=2 ** -4)
        assert len(seen) == 14 and sum(seen) == 34562

    def test_kernel_tables_512_bins_once_per_pair(self):
        # the 14 tables of kernel-check at N=512 share 9 (eps, eps') pairs,
        # and the lag bins are built once per pair (the lattice fit ran
        # once per table, 14 times, before the bins were cached)
        kernels._lattice_bins.cache_clear()
        grid = Grid.regular((0.0, 1.0), 512)
        kernel_estimate_check(SPEC1, "mollified", grid, eps_ladder=LADDER)
        kernel_estimate_check(SPEC1, "partial", grid,
                              n_ladder=[4, 6, 8, 10, 12], eps_fixed=2 ** -4)
        info = kernels._lattice_bins.cache_info()
        assert (info.misses, info.hits) == (9, 5)
        bins = [kernels._lattice_bins(Mollifier(d=1), eps, eps_prime,
                                      "midpoint", grid.h, 32)
                for eps, eps_prime, _ in ladder_tables(SPEC1)[:9]]
        assert kernels._lattice_bins.cache_info().misses == 9
        assert [b[0] for b in bins] == [1, 1, 1, 2, 2, 4, 4, 8, 8]
        assert not any(b[2].flags.writeable or b[3].flags.writeable
                       for b in bins)

    def test_grid_lattice_midpoint_tables_correlate(self, monkeypatch):
        # midpoint clouds on the grid itself (q = 1: eps, eps' in {2^-3,
        # 2^-4} at N=512) take one np.correlate of the kernel row with the
        # lag bins: no strided window of the row is gathered, so no
        # matrix-vector product runs.  Finer lattices (q = 2, 4, 8) gather,
        # and so do q = 1 bins that occupy under 1 lag in 8 (N=4096, eps =
        # 2^-3: 63 of 1985)
        grid = Grid.regular((0.0, 1.0), 512)
        mol = Mollifier(d=1)
        windows = []
        inner = kernels.as_strided

        def counted(*args, **kwargs):
            windows.append(args[1])
            return inner(*args, **kwargs)

        def forbidden(*args):
            raise AssertionError("a d=1 midpoint table folded")

        monkeypatch.setattr(kernels, "as_strided", counted)
        monkeypatch.setattr(kernels, "_mollified_of_seps", forbidden)
        qs = []
        for eps, eps_prime, n_levels in ladder_tables(SPEC1):
            qs.append(kernels._lattice_bins(mol, eps, eps_prime, "midpoint",
                                            grid.h, 32)[0])
            before = len(windows)
            kernels.offset_table(SPEC1, grid, interior_rows(grid, mol, eps),
                                 interior_rows(grid, mol, eps_prime), eps,
                                 eps_prime, mol, "midpoint", n_levels)
            assert len(windows) - before == (qs[-1] > 1), (eps, eps_prime)
        assert qs.count(1) == 12 and len(windows) == 6
        grid = Grid.regular((0.0, 1.0), 4096)
        rows = interior_rows(grid, mol, 2 ** -3)
        kernels.offset_table(SPEC1, grid, rows, rows, 2 ** -3, 2 ** -3, mol,
                             "midpoint", exact_level(SPEC1, 2 ** -3))
        assert len(windows) == 7


def flat_index_offsets(grid, rows, rows_p):
    """(lo, seps) of offset_table as computed up to v0.17.0: each offset's
    first pair through flat grid indices, its separation from grid.points."""
    a = np.unravel_index(rows, grid.shape)
    b = np.unravel_index(rows_p, grid.shape)
    runs = [np.arange(ak.min() - bk.max(), ak.max() - bk.min() + 1)
            for ak, bk in zip(a, b)]
    firsts = [np.maximum(ak.min(), bk.min() + o)
              for ak, bk, o in zip(a, b, runs)]
    ia = np.ravel_multi_index(np.ix_(*firsts), grid.shape)
    ib = np.ravel_multi_index(np.ix_(*(f - o for f, o in zip(firsts, runs))),
                              grid.shape)
    return runs[0][0], (grid.points[ia] - grid.points[ib])[:, 0]


class TestOffsetSeparations:
    @staticmethod
    def assert_same(grid, rows, rows_p, *table_args):
        lo, seps, vals = kernels.offset_table(SPEC1, grid, rows, rows_p,
                                              *table_args)
        want_lo, want_seps = flat_index_offsets(grid, rows, rows_p)
        assert lo == want_lo
        assert seps.shape == want_seps.shape == vals.shape
        assert seps.tobytes() == want_seps.tobytes()

    def test_d1_ladder_tables_bit_for_bit(self):
        # separations x[f] - x[f - o] equal the flat-index ones at every
        # default kernel-check table of N=512, and for scattered row sets
        grid = Grid.regular((0.0, 1.0), 512)
        mol = Mollifier(d=1)
        for eps, eps_prime, n_levels in ladder_tables(SPEC1):
            self.assert_same(grid, interior_rows(grid, mol, eps),
                             interior_rows(grid, mol, eps_prime), eps,
                             eps_prime, mol, "midpoint", n_levels)
        rows = interior_rows(grid, mol, 2 ** -3)
        for a, b in [(rows[::5], rows[3::7]),
                     (np.array([140, 300, 177]), np.array([350, 133]))]:
            self.assert_same(grid, a, b, 2 ** -3, 2 ** -3, mol, "midpoint",
                             0, 4)


class TestMollifiedTable:
    def test_constant_kernel_invariance(self):
        # mollifiers integrate to one, so a constant kernel passes through
        spec = KernelSpec(d=1, q0=0.7)
        grid = Grid.regular((0.0, 1.0), 256)
        mol = Mollifier(d=1)
        for rule in ("grid", "midpoint"):
            _, _, values = interior_table(spec, grid, 2 ** -4, 2 ** -4, mol,
                                          rule, 0)
            err = np.abs(values - 0.7).max()
            assert err < 1e-10, f"rule={rule} err={err}"

    def test_rules_agree(self):
        grid = Grid.regular((0.0, 1.0), 256)
        mol, n_levels = Mollifier(d=1), exact_level(SPEC1, 2 ** -4)
        a = interior_table(SPEC1, grid, 2 ** -4, 2 ** -4, mol, "grid",
                           n_levels)[2]
        b = interior_table(SPEC1, grid, 2 ** -4, 2 ** -4, mol, "midpoint",
                           n_levels)[2]
        # different quadratures of the same smooth integral
        assert np.abs(a - b).max() < 5e-2

    def test_unknown_rule_refused(self):
        grid = Grid.regular((0.0, 1.0), 256)
        with pytest.raises(ValueError, match="unknown quadrature rule"):
            kernels._cloud(Mollifier(d=1), 2 ** -4, "trapezoid", grid.h, 32)

    def test_eps_ordering_enforced(self):
        # the kernel-check ladder pairs each rung with the next one down
        grid = Grid.regular((0.0, 1.0), 256)
        with pytest.raises(ValueError, match="need 0 < eps'"):
            kernel_estimate_check(SPEC1, "mollified", grid,
                                  eps_ladder=[2 ** -5, 2 ** -4])

    def test_diagonal_offset_vs_refined_oracle(self):
        # K_{eps,eps}(x,x) = log(1/eps) + O(1); the O(1) offset is checked
        # against the same tensor rule at doubled node count
        spec = SPEC1
        mol = Mollifier(d=1)
        eps = 2 ** -5
        coarse = k_mollified(spec, eps, eps, 0.5, 0.5, mol, nodes=32)
        fine = k_mollified(spec, eps, eps, 0.5, 0.5, mol, nodes=128)
        off_c = float(coarse) - math.log(1.0 / eps)
        off_f = float(fine) - math.log(1.0 / eps)
        assert abs(off_c - off_f) < 5e-2, f"offset unstable: {off_c} vs {off_f}"
        assert abs(off_c) < 2.0, f"offset {off_c} not O(1)"

    def test_pointwise_convergence_off_diagonal(self):
        # |K_{eps,eps}(x,y) - K(|x-y|)| shrinks along eps = 2^-k, k = 3..8
        mol = Mollifier(d=1)
        x, y = 0.4, 0.6
        target = k_exact(SPEC1, 0.2)
        errs = []
        for k in range(3, 9):
            val = k_mollified(SPEC1, 2.0 ** -k, 2.0 ** -k, x, y, mol)
            errs.append(abs(float(val) - target))
        assert errs[-1] < errs[0], f"no convergence: {errs}"
        assert errs[-1] < 1e-3, f"final error too large: {errs[-1]}"

    @staticmethod
    def _dense_table(spec, grid, eps, eps_prime, mol, n_levels):
        """The grid rule by its definition: W_eps G W_eps'^T with the dense
        weight matrices and the summed dense level Gram."""
        rows, w = weight_matrix(grid, mol, eps)
        rows_p, w_p = weight_matrix(grid, mol, eps_prime)
        g = sum(gram(spec, k, grid) for k in range(n_levels + 1))
        return rows, rows_p, w @ g @ w_p.T

    def test_pointwise_mollified_matches_table(self):
        # the table and the pointwise function both walk the offset stencil
        # quadrature; the dense W G W^T is an independent oracle for both
        grid = Grid.regular((0.0, 1.0), 128)
        mol = Mollifier(d=1)
        n_levels = exact_level(SPEC1, 2 ** -4)
        t_rows, t_rows_p, values = interior_table(SPEC1, grid, 2 ** -4,
                                                  2 ** -4, mol, "grid",
                                                  n_levels)
        rows, rows_p, dense = self._dense_table(SPEC1, grid, 2 ** -4, 2 ** -4,
                                                mol, n_levels)
        assert np.array_equal(rows, t_rows)
        assert np.array_equal(rows_p, t_rows_p)
        for i, j in ((10, 30), (25, 25), (40, 5)):
            x = grid.points[t_rows[i], 0]
            y = grid.points[t_rows_p[j], 0]
            direct = k_mollified(SPEC1, 2 ** -4, 2 ** -4, x, y, mol,
                                 rule="grid", h=grid.h, n_levels=n_levels)
            assert abs(direct - dense[i, j]) < 1e-10, \
                f"({i},{j}): {direct} vs {dense[i, j]}"
            assert abs(values[i, j] - dense[i, j]) < 1e-10, \
                f"({i},{j}): {values[i, j]} vs {dense[i, j]}"

    def test_pointwise_grid_rule_on_lattice(self, monkeypatch):
        # the grid rule reads one lattice row of 2 x 511 - 1 lags at any
        # separation (N=2048, eps = 2^-3), where the fold would form 511^2
        # stencil pairs: at grid points, a lattice offset apart, bit for
        # bit the one-offset table, and between them within 1e-14 of the
        # fold
        grid = Grid.regular((0.0, 1.0), 2048)
        mol, eps = Mollifier(d=1), 2 ** -3
        x, y = grid.points[1000, 0], grid.points[997, 0]
        rows = np.array([1000])
        _, _, table = kernels.offset_table(SPEC1, grid, rows, rows - 3, eps,
                                           eps, mol, "grid", 8)
        fold = kernels._mollified_of_seps(SPEC1, np.array([3 * grid.h]),
                                          eps, eps, mol, "grid", 8, grid.h,
                                          32)
        seen = []
        inner = kernels.k_partial

        def counted(spec, n, r):
            seen.append(np.size(r))
            return inner(spec, n, r)

        monkeypatch.setattr(kernels, "k_partial", counted)
        got = k_mollified(SPEC1, eps, eps, x, y, mol, "grid", 8, grid.h)
        assert seen == [1021]
        assert got == table[0]
        assert abs(got - fold[0]) <= 1e-14 * abs(fold[0])
        sep = 3.3 * grid.h
        got = k_mollified(SPEC1, eps, eps, x, x - sep, mol, "grid", 8, grid.h)
        assert seen == [1021, 1021]
        fold = kernels._mollified_of_seps(SPEC1, np.array([sep]), eps, eps,
                                          mol, "grid", 8, grid.h, 32)
        assert abs(got - fold[0]) <= 1e-14 * abs(fold[0])

    @staticmethod
    def _unique_midpoint(spec, grid, eps, eps_prime, nodes):
        # the table as built before lattice-offset keys: np.unique over the
        # rounded separation vectors of every (row, row') pair
        rows, rows_p, values = interior_table(
            spec, grid, eps, eps_prime, Mollifier(d=1), "midpoint",
            exact_level(spec, eps_prime), nodes)
        flat = (grid.points[rows] - grid.points[rows_p].T).ravel()
        keys = np.round(flat / 1e-12).astype(np.int64)
        _, first, inv = np.unique(keys, return_index=True,
                                  return_inverse=True)
        vals = kernels._mollified_of_seps(
            spec, flat[first], eps, eps_prime, Mollifier(d=1),
            "midpoint", exact_level(spec, eps_prime), None, nodes)
        return values, vals[inv.ravel()].reshape(values.shape)

    # the leading 1 is the dimension d, the only one the kernels implement
    @pytest.mark.parametrize("d,n,eps,eps_prime,nodes", [
        (1, 256, 2 ** -4, 2 ** -4, 32),
        (1, 256, 2 ** -4, 2 ** -5, 32),
    ])
    def test_midpoint_offsets_match_unique(self, d, n, eps, eps_prime, nodes):
        # the tables take the lattice, equal to rounding to the unique fold
        # (the dyadic grid's pair separations are exactly o h)
        spec = KernelSpec(d=d)
        grid = Grid.regular((0.0, 1.0), n)
        values, oracle = self._unique_midpoint(spec, grid, eps, eps_prime,
                                               nodes)
        assert np.abs(values - oracle).max() <= 1e-14 * np.abs(oracle).max()

    @pytest.mark.parametrize("rule", ["grid", "midpoint"])
    def test_midpoint_one_eval_per_offset(self, monkeypatch, rule):
        # both rules: one lattice routine over every offset of the d=1
        # table, no per-offset fold, and no dense weight matrix or Gram
        seen = []
        inner = kernels._lattice_table

        def counted(spec, offsets, *args):
            seen.append(offsets.size)
            return inner(spec, offsets, *args)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.unique, the per-offset fold, "
                                 "weight_matrix or gram called")

        monkeypatch.setattr(kernels, "_lattice_table", counted)
        monkeypatch.setattr(kernels, "_mollified_of_seps", forbidden)
        monkeypatch.setattr(np, "unique", forbidden)
        for mod in (mollifier, kernels):
            monkeypatch.setattr(mod, "weight_matrix", forbidden, raising=False)
        monkeypatch.setattr(kernels, "gram", forbidden)
        grid = Grid.regular((0.0, 1.0), 256)
        rows, rows_p, _ = interior_table(SPEC1, grid, 2 ** -4, 2 ** -5,
                                         Mollifier(d=1), rule,
                                         exact_level(SPEC1, 2 ** -5))
        assert seen == [len(rows) + len(rows_p) - 1]

    @pytest.mark.parametrize("rule", ["grid", "midpoint"])
    def test_rows_need_a_resolving_regular_grid(self, rule):
        # interior_rows refuses both grids before any quadrature, under
        # either rule of kernel-check
        coarse = Grid.regular((0.0, 1.0), 16)
        free = Grid.from_points(np.linspace(0.1, 0.9, 9)[:, None], (0.0, 1.0))
        with pytest.raises(ValueError, match="regular grid"):
            interior_rows(free, Mollifier(d=1), 2 ** -3)
        with pytest.raises(ResolutionError):
            kernel_estimate_check(SPEC1, "mollified", coarse,
                                  eps_ladder=[2 ** -3], rule=rule)
        with pytest.raises(ValueError, match="regular grid"):
            kernel_estimate_check(SPEC1, "mollified", free,
                                  eps_ladder=[2 ** -3], rule=rule)

    @staticmethod
    def _all_pairs(spec, seps, eps, eps_prime, mol, rule, n_levels, h, nodes):
        # the quadrature as evaluated before the difference cloud: one radius
        # per (separation, u_a, v_b), contracted with both weight vectors
        u, wu = kernels._cloud(mol, eps, rule, h, nodes)
        v, wv = kernels._cloud(mol, eps_prime, rule, h, nodes)
        r = np.abs(seps[:, None, None] + u[None, :, None] - v[None, None, :])
        vals = k_partial(spec, n_levels, r.ravel()).reshape(r.shape)
        return np.einsum("i,j,mij->m", wu, wv, vals)

    # the leading 1 is the dimension d, the only one the kernels implement
    @pytest.mark.parametrize("d,eps,eps_prime,rule,nodes", [
        (1, 2 ** -4, 2 ** -4, "midpoint", 32),
        (1, 2 ** -4, 2 ** -5, "midpoint", 32),
        (1, 0.1, 0.07, "midpoint", 32),
        (1, 2 ** -4, 2 ** -5, "grid", 32),
    ])
    def test_difference_cloud_matches_all_pairs(self, d, eps, eps_prime,
                                                rule, nodes):
        spec = KernelSpec(d=d)
        mol = Mollifier(d=d)
        rng = np.random.default_rng(3)
        seps = np.r_[0.0, rng.uniform(-0.4, 0.4, 24)]
        h = 1.0 / 512 if rule == "grid" else None
        n_levels = exact_level(spec, eps_prime)
        got = kernels._mollified_of_seps(spec, seps, eps, eps_prime, mol, rule,
                                         n_levels, h, nodes)
        want = self._all_pairs(spec, seps, eps, eps_prime, mol, rule,
                               n_levels, h, nodes)
        assert np.abs(got - want).max() < 1e-13

    @pytest.mark.parametrize("eps_prime,distinct", [(2 ** -4, 63),
                                                    (2 ** -5, 94)])
    def test_midpoint_radii_per_distinct_difference(self, monkeypatch,
                                                    eps_prime, distinct):
        # at N=256 the 32-point clouds sit on odd multiples of h/2 (eps =
        # 2^-4) and h/4 (eps' = 2^-5), so q = 2 and 4; their differences
        # span 125 and 187 lags, of which 63 and 94 (of 1024 cloud pairs)
        # are occupied.  The lattice evaluates (offsets - 1) q + lags radii,
        # below the fold's offsets x distinct differences
        q, lags = {2 ** -4: (2, 125), 2 ** -5: (4, 187)}[eps_prime]
        seen = []
        inner = kernels.k_partial

        def counted(spec, n, r):
            seen.append(np.size(r))
            return inner(spec, n, r)

        monkeypatch.setattr(kernels, "k_partial", counted)
        grid = Grid.regular((0.0, 1.0), 256)
        rows, rows_p, _ = interior_table(SPEC1, grid, 2 ** -4, eps_prime,
                                         Mollifier(d=1), "midpoint",
                                         exact_level(SPEC1, eps_prime))
        offsets = len(rows) + len(rows_p) - 1
        assert seen == [(offsets - 1) * q + lags]
        assert (offsets - 1) * q + lags < offsets * distinct
        u, wu = kernels._cloud(Mollifier(d=1), 2 ** -4, "midpoint", None, 32)
        v, wv = kernels._cloud(Mollifier(d=1), eps_prime, "midpoint", None,
                               32)
        assert kernels._fold_clouds(u, wu, v, wv, eps_prime)[1].size == distinct

    @pytest.mark.parametrize("profile", ["bump", "quartic"])
    @pytest.mark.parametrize("eps,eps_prime,distinct", [
        (2 ** -3, 2 ** -3, 1021), (2 ** -3, 2 ** -4, 765),
        (2 ** -5, 2 ** -7, 157)])
    def test_grid_lags_match_fold(self, monkeypatch, profile, eps, eps_prime,
                                  distinct):
        # d=1 grid stencils at N=2048 (ladder-2048 eps pairs): the lattice
        # routine evaluates the kernel once per lag of the 601 offsets, 600
        # plus the distinct differences of the pair fold (the reference kept
        # in kernels._fold_clouds).  Both sum the same kernel values (the
        # dyadic radii |o + l| h are exact) in different orders, so each is
        # held to 1e-15 of the pair sums taken in extended precision
        h, mol = 1.0 / 2048, Mollifier(d=1, profile=profile)
        offsets = np.arange(-300, 301)
        seps = offsets[:, None] * h
        u, wu = kernels._cloud(mol, eps, "grid", h, 32)
        v, wv = kernels._cloud(mol, eps_prime, "grid", h, 32)
        diffs, ww = kernels._fold_clouds(u, wu, v, wv, eps_prime)
        assert diffs.shape == (distinct,)
        r = np.abs(seps + diffs)
        want = k_partial(SPEC1, 9, r.ravel()).reshape(r.shape) @ ww
        lags = np.rint(np.r_[seps[0, 0] + diffs[0],
                             seps[-1, 0] + diffs[-1]] / h).astype(int)
        krow = k_partial(SPEC1, 9, np.abs(np.arange(lags[0], lags[1] + 1)) * h)
        ext = np.longdouble
        exact = np.correlate(krow.astype(ext), np.correlate(
            wu.astype(ext), wv.astype(ext), "full"), "valid")
        scale = 1e-15 * np.abs(want).max()
        assert np.abs(want - exact).max() <= scale
        seen = []
        inner = kernels.k_partial

        def counted(spec, n, r):
            seen.append(np.size(r))
            return inner(spec, n, r)

        monkeypatch.setattr(kernels, "k_partial", counted)
        got = kernels._lattice_table(SPEC1, offsets, eps, eps_prime, mol,
                                     "grid", 9, h, 32)
        assert seen == [offsets.size - 1 + distinct]
        assert np.abs(got - exact).max() <= scale
