import math

import numpy as np
import pytest
from scipy.fft import next_fast_len

from logchaos import (Bench, Grid, KernelSpec, Mollifier, NumericError,
                      TiltShift, barrier_below, bump_function, gram,
                      increment_factors, kernels, sampled_rows,
                      tilt_shift_rows)
from logchaos.kernels import lattice_row
from logchaos.mollifier import discrete_stencil, interior_rows, weight_matrix
from logchaos.sampler import (BLOCK, block_z, circulant_root, free_cholesky,
                              next_fast_len as torus_len)

SPEC = KernelSpec(d=1)
GRID = Grid.regular((0.0, 1.0), 64)


def grid_table(eps, eps_prime, mol, n_levels):
    """(rows, rows_p, values): the grid-rule K_{eps,eps'} on the D_eps x
    D_eps' rows of GRID, gathered from the per-offset values of
    kernels.offset_table."""
    rows = interior_rows(GRID, mol, eps)
    rows_p = interior_rows(GRID, mol, eps_prime)
    lo, _, vals = kernels.offset_table(SPEC, GRID, rows, rows_p, eps,
                                       eps_prime, mol, "grid", n_levels)
    return rows, rows_p, vals[np.subtract.outer(rows, rows_p) - lo]


def stencil_field(y, eps, mol, grid=GRID):
    """(rows, X_eps): the discrete_stencil taps applied to a full-grid y of
    shape (N, ...) at the D_eps rows, with no dense W."""
    rows = interior_rows(grid, mol, eps)
    offs, taps = discrete_stencil(mol, eps, grid.h)
    return rows, sum(t * y[rows + o] for o, t in zip(offs[:, 0], taps))


def mollified_draws(n_max, seed, replicas, eps_list, mol):
    """X_eps at the D_eps rows for each eps, shape (rows, R), on the draws of
    a Bench without f at map_blocks' default levels (every row, one slab
    per level)."""
    def consume(start, z):
        y = z.sum(axis=0)
        return tuple(stencil_field(y, eps, mol)[1] for eps in eps_list)

    return Bench(SPEC, GRID, n_max, mol=mol).map_blocks(seed, replicas,
                                                        consume)


def draws(grid, n_max, seed, replicas, tilt=None):
    """The slabs of a Bench without f at map_blocks' default levels (every
    row, one slab per level), shape (n_max + 1, N, R)."""
    bench = Bench(SPEC, grid, n_max)
    bench.set_tilt(tilt)
    return bench.map_blocks(seed, replicas, lambda start, z: (z,))[0]


def draw_matrix(grid, n_max, seed, replicas, level=None, tilt=None):
    """Stack y(n_max) (or a single level) across replicas: shape (N, R)."""
    z = draws(grid, n_max, seed, replicas, tilt)
    return z.sum(axis=0) if level is None else z[level]


def stream_panels(seed, block, rows):
    """The stream layout block_z reads: default_rng([seed, block]) yields
    BLOCK * sum(rows) normals, split in order into one (m, BLOCK) panel per
    entry m of rows."""
    normals = np.random.default_rng([seed, block]).standard_normal(
        BLOCK * sum(rows))
    parts = np.split(normals, BLOCK * np.cumsum(rows[:-1]))
    return [p.reshape(m, BLOCK) for p, m in zip(parts, rows)]


class TestDeterminism:
    def test_same_seed_same_replica(self):
        a = draws(GRID, 5, seed=11, replicas=1)
        b = draws(GRID, 5, seed=11, replicas=1)
        assert np.array_equal(a, b)

    def test_replica_stream_isolated(self):
        # drawing replicas 0..39 and 0..37 must agree exactly on replica 37,
        # across the block-of-32 boundary
        all_draws = draws(GRID, 4, seed=3, replicas=40)
        solo = draws(GRID, 4, seed=3, replicas=38)
        assert all_draws.shape[-1] == 40 and solo.shape[-1] == 38
        assert np.array_equal(all_draws[..., 37], solo[..., 37])

    def test_partial_sum_telescoping(self):
        z = draws(GRID, 6, seed=1, replicas=1)[..., 0]
        y = np.cumsum(z, axis=0)
        acc = z[0] + z[1] + z[2] + z[3]
        assert np.allclose(y[3], acc, rtol=0, atol=1e-13)
        assert np.allclose(y[6] - y[2], z[3:7].sum(axis=0),
                           rtol=0, atol=1e-12)

    def test_normals_counter_based(self):
        # one stream per (seed, block): any start inside a block reads it,
        # and the next block reads the next stream
        factors = increment_factors(SPEC, GRID, 4)
        rows = [g.draws for g in factors]
        a = block_z(SPEC, GRID, factors, 5, 9 * BLOCK, 4)
        b = block_z(SPEC, GRID, factors, 5, 9 * BLOCK + 7, 4)
        assert np.array_equal(a, b)
        c = block_z(SPEC, GRID, factors, 5, 10 * BLOCK, 4)
        assert not np.array_equal(a[1], c[1])
        for block, z in ((9, a), (10, c)):
            xi = stream_panels(5, block, rows)[1]
            y = np.fft.fft(factors[1].root[:, None] * xi.view(complex),
                           axis=0)[:GRID.n]
            assert np.array_equal(z[1], np.concatenate([y.real, y.imag], 1))

    def test_block_z_reads_the_stream_bitwise(self):
        # block_z draws into a buffer its thread reuses; a small block after
        # a larger one reads exactly the normals of its stream
        big = Grid.regular((0.0, 1.0), 512)
        block_z(SPEC, big, increment_factors(SPEC, big, 8), 3, 0, 8)
        factors = increment_factors(SPEC, GRID, 4)
        z = block_z(SPEC, GRID, factors, 4, 2 * BLOCK, 4)
        panels = stream_panels(4, 2, [g.draws for g in factors])
        assert np.array_equal(z[0], np.broadcast_to(
            factors[0].root * panels[0], z[0].shape))
        for k, (g, xi) in enumerate(zip(factors[1:], panels[1:]), start=1):
            y = np.fft.fft(g.root[:, None] * xi.view(complex), axis=0)
            ref = np.concatenate([y.real, y.imag], axis=1)[:GRID.n]
            assert np.array_equal(z[k], ref), f"level {k}"


class TestCovariance:
    R = 4000

    def test_var_y_n(self):
        for n in (2, 5):
            y = draw_matrix(GRID, n, seed=2, replicas=self.R)
            var = y.var(axis=1, ddof=1)
            se = var * math.sqrt(2.0 / (self.R - 1))
            mid = GRID.n // 2
            assert abs(var[mid] - n) <= 4 * se[mid], \
                f"Var(Y_{n}) = {var[mid]} vs {n}"

    def test_distant_points_uncorrelated(self):
        # Q_n vanishes beyond e^{-1} for n >= 1, so Y_n decorrelates there
        y = draw_matrix(GRID, 3, seed=4, replicas=self.R)
        i, j = 8, 48
        r = abs(GRID.points[i, 0] - GRID.points[j, 0])
        assert r >= math.exp(-1)
        cov = np.cov(y[i], y[j])[0, 1]
        se = math.sqrt((y[i].var() * y[j].var() + cov ** 2) / self.R)
        assert abs(cov) <= 4 * se, f"Cov at r={r}: {cov}"

    def test_min_rule_across_levels(self):
        # Cov(Y_5(x), Y_9(x)) = 5 since they share levels 1..5
        z = draws(GRID, 9, seed=6, replicas=self.R)[:, GRID.n // 2]
        y5, y9 = z[:6].sum(axis=0), z.sum(axis=0)
        cov = np.cov(y5, y9)[0, 1]
        se = math.sqrt((y5.var() * y9.var() + cov ** 2) / self.R)
        assert abs(cov - 5.0) <= 4 * se, f"min-rule Cov = {cov}"

    def test_increment_cross_independence(self):
        rng = np.random.default_rng(8)
        z2 = draw_matrix(GRID, 4, seed=9, replicas=self.R, level=2)
        z4 = draw_matrix(GRID, 4, seed=9, replicas=self.R, level=4)
        for _ in range(5):
            i, j = rng.integers(0, GRID.n, 2)
            cov = np.cov(z2[i], z4[j])[0, 1]
            se = math.sqrt((z2[i].var() * z4[j].var() + cov ** 2) / self.R)
            assert abs(cov) <= 4 * se, f"levels 2,4 at ({i},{j}): {cov}"

    def test_martingale_regression(self):
        # E[Y_9 | Y_5] = Y_5: regression slope of Y_9 on Y_5 is 1
        z = draws(GRID, 9, seed=10, replicas=self.R)[:, GRID.n // 2]
        y5, y9 = z[:6].sum(axis=0), z.sum(axis=0)
        slope = np.cov(y5, y9)[0, 1] / y5.var(ddof=1)
        resid = y9 - slope * y5
        se = math.sqrt(resid.var(ddof=2) / (y5.var(ddof=1) * (self.R - 1)))
        assert abs(slope - 1.0) <= 4 * se, f"martingale slope {slope}"


class TestMollifiedFields:
    def test_coupling_is_linear(self):
        # the stencil taps at the D_eps rows equal W_eps @ Y_{n_max} for the
        # same draw
        mol = Mollifier(d=1)
        y = draw_matrix(GRID, 7, seed=12, replicas=1)[:, 0]
        for eps in (2 ** -4, 2 ** -3):
            rows, x = stencil_field(y, eps, mol)
            w_rows, w = weight_matrix(GRID, mol, eps)
            assert np.array_equal(rows, w_rows)
            assert np.allclose(x, w @ y, atol=1e-12)

    def test_variance_matches_grid_table(self):
        # grid-rule table is the exact covariance of the sampled field
        R = 4000
        mol = Mollifier(d=1)
        eps = 2 ** -3
        _, _, values = grid_table(eps, eps, mol, 6)
        diag = np.diag(values)
        (x,) = mollified_draws(6, 14, R, [eps], mol)
        var = x.var(axis=1, ddof=1)
        se = var * math.sqrt(2.0 / (R - 1))
        k = len(diag) // 2
        assert abs(var[k] - diag[k]) <= 4 * se[k], \
            f"Var(X_eps) = {var[k]} vs table {diag[k]}"

    def test_cross_eps_covariance(self):
        # joint consistency: Cov(X_eps, X_eps') equals the rectangular table
        R = 4000
        mol = Mollifier(d=1)
        e1, e2 = 2 ** -3, 2 ** -4
        rows, rows_p, values = grid_table(e1, e2, mol, 7)
        xa, xb = mollified_draws(7, 15, R, [e1, e2], mol)
        ia = len(rows) // 2
        ib = len(rows_p) // 3
        cov = np.cov(xa[ia], xb[ib])[0, 1]
        se = math.sqrt((xa[ia].var() * xb[ib].var() + cov ** 2) / R)
        assert abs(cov - values[ia, ib]) <= 4 * se


class TestTilt:
    def test_zero_alpha_identity(self):
        s = draws(GRID, 5, seed=20, replicas=1)
        t = TiltShift(x=0.5, y=0.6, eps=2 ** -3, eps_prime=2 ** -3, alpha=0.0)
        tilted = draws(GRID, 5, seed=20, replicas=1, tilt=t)
        assert np.array_equal(tilted, s)

    def test_tilted_mean(self):
        R = 4000
        n_max = 5
        mol = Mollifier(d=1)
        t = TiltShift(x=0.45, y=0.55, eps=2 ** -3, eps_prime=2 ** -3,
                      alpha=0.8)
        shifts = tilt_shift_rows(SPEC, GRID, t, n_max, mol)
        y = draw_matrix(GRID, n_max, seed=21, replicas=R, tilt=t)
        mid = GRID.n // 2
        target = shifts[: n_max + 1, mid].sum()
        mean = y[mid].mean()
        se = y[mid].std(ddof=1) / math.sqrt(R)
        assert abs(mean - target) <= 4 * se, f"tilted mean {mean} vs {target}"

    def test_tilt_preserves_variance(self):
        R = 4000
        t = TiltShift(x=0.45, y=0.55, eps=2 ** -3, eps_prime=2 ** -3,
                      alpha=0.8)
        flat = draw_matrix(GRID, 4, seed=22, replicas=R)
        tilted = draw_matrix(GRID, 4, seed=22, replicas=R, tilt=t)
        mid = GRID.n // 2
        v0 = flat[mid].var(ddof=1)
        v1 = tilted[mid].var(ddof=1)
        se = v0 * math.sqrt(2.0 / (R - 1))
        assert abs(v1 - v0) <= 4 * se, f"variance changed: {v0} -> {v1}"
        # same seed: the tilt is a deterministic shift of the same draw
        assert np.allclose(tilted - flat, (tilted - flat)[:, :1], atol=1e-12)


class TestBandedEngine:
    """The level engine for banded (compactly supported) level Grams: an
    exact circulant embedding per level on regular d=1 grids, a dense
    Cholesky factor on free point sets."""

    GRID512 = Grid.regular((0.0, 1.0), 512)

    def test_torus_len_matches_scipy(self):
        # the torus size: scipy's real-transform next_fast_len, bit for bit
        for n in range(1, 2 ** 15 + 1):
            assert torus_len(n) == next_fast_len(n, real=True), n
        for n in (2 ** 20 + 1, 10 ** 6 + 7, 3 ** 12 + 1):
            m = torus_len(n)
            assert type(m) is int and m == next_fast_len(n, real=True), n

    @pytest.mark.parametrize("n", [512, 2048])
    def test_embedding_row_matches_gram(self, n):
        grid = Grid.regular((0.0, 1.0), n)
        levels = increment_factors(SPEC, grid, 8)[1:]
        for k, level in enumerate(levels, start=1):
            assert level.embedded and level.net > 0.0, f"level {k}"
            m = level.root.size
            assert m >= n + 1
            row = np.fft.ifft(m * level.root ** 2).real
            ref = gram(SPEC, k, grid)[0]
            assert np.abs(row[:n] - ref).max() < 1e-12, f"level {k}"
            # the wrapped part of the torus row is the mirrored support
            assert np.abs(row[m - n + 1:][::-1] - ref[1:]).max() < 1e-12

    def test_regular_grid_builds_no_gram(self, monkeypatch):
        # level factors and grid-rule tables come from lattice rows alone
        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram was built")

        monkeypatch.setattr(kernels, "gram", no_gram)
        levels = increment_factors(SPEC, self.GRID512, 8)[1:]
        assert all(level.embedded for level in levels)
        grid_table(2 ** -3, 2 ** -3, Mollifier(d=1), 6)

    @pytest.mark.parametrize("tilted", [False, True])
    def test_block_z_matches_dense_product(self, tilted):
        n_max, seed, start = 8, 5, 64
        n = self.GRID512.n
        factors = increment_factors(SPEC, self.GRID512, n_max)
        shifts = None
        if tilted:
            t = TiltShift(x=0.45, y=0.55, eps=2 ** -3, eps_prime=2 ** -3,
                          alpha=0.8)
            shifts = tilt_shift_rows(SPEC, self.GRID512, t, n_max,
                                     Mollifier(d=1))
        z = block_z(SPEC, self.GRID512, factors, seed, start, n_max, shifts)
        panels = stream_panels(seed, start // BLOCK,
                               [lv.draws for lv in factors])
        half = BLOCK // 2
        for k, (level, xi) in enumerate(zip(factors[1:], panels[1:]),
                                        start=1):
            # explicit circulant product F diag(root) xi, real and imaginary
            # parts of the complex normals xi[:, 2j] + i xi[:, 2j + 1]
            f = np.fft.fft(np.eye(level.root.size), axis=0)[:n]
            y = (f * level.root[None, :]) @ (xi[:, 0::2] + 1j * xi[:, 1::2])
            ref = np.concatenate([y.real, y.imag], axis=1)
            if tilted:
                ref += shifts[k][:, None]
            assert np.abs(z[k] - ref).max() < 1e-12, f"level {k}"

    def test_halves_uncorrelated(self):
        # columns j and j + 16 of a block are the real and imaginary parts
        # of one complex draw; they must be independent
        R = 4000
        grid = Grid.regular((0.0, 1.0), 64)
        factors = increment_factors(SPEC, grid, 3)
        re, im = [], []
        for start in range(0, 2 * R, BLOCK):
            z = block_z(SPEC, grid, factors, 23, start, 3)
            re.append(z[1:].sum(axis=0)[grid.n // 2, :BLOCK // 2])
            im.append(z[1:].sum(axis=0)[grid.n // 2, BLOCK // 2:])
        a = np.concatenate(re)[:R]
        b = np.concatenate(im)[:R]
        cov = np.cov(a, b)[0, 1]
        se = math.sqrt((a.var() * b.var() + cov ** 2) / R)
        assert abs(cov) <= 4 * se, f"real/imaginary halves: {cov}"

    def test_negative_embedding_raises(self):
        # a row whose neighbour exceeds its centre is not positive definite
        row = np.zeros(16)
        row[0], row[1], row[-1] = 1.0, 0.9, 0.9
        with pytest.raises(NumericError, match="Q_3"):
            circulant_root(row, name="Q_3")

    def test_jitter_policy(self):
        # needs a diagonal shift above 2.5e-10: the first step, 1e-10 *
        # trace / N, fails and the x10 escalation succeeds
        near = np.array([[1.0, 1.0], [1.0, 1.0 - 5e-10]])
        base = 1e-10 * np.trace(near) / 2
        assert free_cholesky(near).net == base * 10.0
        with pytest.raises(NumericError, match="Q_3"):
            free_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), name="Q_3")
        zero = free_cholesky(np.zeros((3, 3)))
        assert zero.net == 0.0 and not zero.root.any()


class TestSampledWindow:
    """A draw for a test function f holds only the rows its keys read:
    supp(f) widened by floor(eps_max / h), eps_max the widest eps among the
    (channel, eps) keys the draw mollifies (0 for none), clipped to the
    grid."""

    # ladder-2048 geometry: supp(f) is rows 922..1125; eps_max = 2^-3
    # reaches floor(2^-3 * 2048) = 256 rows, 2^-4 reaches 128, and a draw
    # of no key (None) or eps_max = 0 none; eps_max = 1, which f does not
    # admit, is clipped to the grid and refused by the draw
    @pytest.mark.parametrize("eps_max,window", [
        (None, (922, 1125)), (2 ** -3, (666, 1381)), (2 ** -4, (794, 1253)),
        (0.0, (922, 1125)), (1.0, (0, 2047))])
    def test_bench_window_by_eps_max(self, eps_max, window):
        grid = Grid.regular((0.0, 1.0), 2048)
        f = bump_function(grid, center=0.5, radius=0.05)
        assert sampled_rows(grid, f, eps_max or 0.0) == window
        bench = Bench(SPEC, grid, 8, f=f)
        # the widest key sets the rows, wherever it stands
        keys = [("main", eps_max / 2), ("main", eps_max)] if eps_max else []
        if eps_max == 1.0:
            with pytest.raises(ValueError, match="leaks outside D_eps"):
                bench.draw(keys=keys)
            return
        (z,) = bench.map_blocks(0, 1, lambda start, z: (z,),
                                draw=bench.draw([8], keys))
        assert bench.safety_net["sampled_rows"] == list(window)
        assert z.shape[1] == window[1] - window[0] + 1
        assert bench.factors[0].rows == window[1] - window[0] + 1

    # (grid_n, f radius, window, torus points per level) at f center 0.5:
    # the ladder-2048 and moments-128 benchmark geometries
    CASES = [(2048, 0.05, (461, 1586),
              [1920, 1440, 1250, 1200, 1152, 1152, 1152, 1152]),
             (128, 0.2, (19, 108), [144, 108, 100, 96, 96, 96, 96, 96])]

    @pytest.mark.parametrize("n,radius,window,torus", CASES)
    def test_embedding_reproduces_lattice_row(self, n, radius, window, torus):
        # the rows of a draw at m / 2, the widest eps f admits (m the
        # distance from supp(f) to the boundary)
        grid = Grid.regular((0.0, 1.0), n)
        f = bump_function(grid, center=0.5, radius=radius)
        pts = grid.points[np.flatnonzero(f), 0]
        lo, hi = sampled_rows(grid, f, min(pts[0], 1.0 - pts[-1]) / 2.0)
        assert (lo, hi) == window
        w = hi - lo + 1
        levels = increment_factors(SPEC, grid, 8, w)[1:]
        assert [lv.root.size for lv in levels] == torus
        for k, level in enumerate(levels, start=1):
            assert level.rows == w and level.net > 0.0, f"level {k}"
            row = np.fft.ifft(level.root.size * level.root ** 2).real
            ref = lattice_row(SPEC, [k], grid.h, np.arange(w))
            assert np.abs(row[:w] - ref).max() <= 1e-12 * ref[0], f"level {k}"

    def test_full_grid_without_window(self):
        # no f or a free point set, of shape (N, 1) or (N,): all N rows
        f = bump_function(GRID, center=0.5, radius=0.1)
        assert sampled_rows(GRID) == (0, GRID.n - 1)
        assert sampled_rows(GRID, np.zeros(GRID.n)) == (0, GRID.n - 1)
        for pts in (GRID.points, GRID.points[:, 0]):
            free = Grid.from_points(pts, (0.0, 1.0))
            assert np.array_equal(free.points, GRID.points)
            assert sampled_rows(free, f) == (0, GRID.n - 1)

    def test_mollified_support_inside_window(self):
        # the bench convolves the support rows of f inside the sampled rows,
        # and its stencil apply equals the dense W @ y of the same draw
        mol = Mollifier(d=1)
        f = bump_function(GRID, center=0.5, radius=0.2)
        bench = Bench(SPEC, GRID, 7, f=f, mol=mol)
        keys = [("main", 2 ** -4), ("main", 2 ** -3)]
        lo, hi = sampled_rows(GRID, f, 2 ** -3)
        draw = bench.draw(keys=keys)
        (z,) = bench.map_blocks(12, 1, lambda start, zb: (zb,), draw=draw)
        assert draw.lo == lo and z.shape == (8, hi - lo + 1, 1)
        padded = np.zeros((GRID.n, 1))
        padded[lo:hi + 1] = z.sum(axis=0)
        supp = np.flatnonzero(f)
        for eps in (2 ** -4, 2 ** -3):
            rows, w = weight_matrix(GRID, mol, eps)
            assert np.all(np.isin(supp, rows))
            # the dense W's support rows leave nothing outside the window
            w_supp = w[np.searchsorted(rows, supp)]
            ref = w_supp @ padded
            w_supp[:, lo:hi + 1] = 0.0
            assert not w_supp.any()
            (x,) = bench.mollify(z.sum(axis=0), [("main", eps)], draw)
            assert np.abs(x - ref).max() < 1e-12


class TestLevelGroups:
    """A draw holds one slab per group of consecutive levels ending at a read
    level; each group embeds as one circulant of its summed lattice row."""

    # (grid_n, f radius, read levels) at f center 0.5, n_max 8: the
    # moments-128 geometry and the ladder-2048 window, on the rows their
    # widest eps (WIDEST) convolves
    CASES = [(128, 0.2, [8]), (128, 0.2, [2, 5, 8]), (128, 0.2, range(2, 9)),
             (2048, 0.05, range(2, 9)), (2048, 0.05, [8])]
    WIDEST = {128: 2.0 ** -4, 2048: 2.0 ** -3}

    @pytest.mark.parametrize("q0", [0.0, 1.0], ids=["zero", "constant"])
    @pytest.mark.parametrize("n,radius,levels", CASES)
    def test_group_embedding_exact(self, n, radius, levels, q0):
        spec = KernelSpec(d=1, q0=q0)
        grid = Grid.regular((0.0, 1.0), n)
        lo, hi = sampled_rows(grid, bump_function(grid, center=0.5,
                                                  radius=radius),
                              self.WIDEST[n])
        w = hi - lo + 1
        groups = increment_factors(spec, grid, 8, w, levels)
        assert [g.last for g in groups] == sorted({8, *levels})
        assert [g.first for g in groups] == [0] + [g.last + 1
                                                   for g in groups[:-1]]
        for g in groups:
            assert g.embedded and g.rows == w
            assert g.net > 0.0, f"group {g.first}..{g.last}"
            row = np.fft.ifft(g.root.size * g.root ** 2).real
            ref = lattice_row(spec, range(max(g.first, 1), g.last + 1),
                              grid.h, np.arange(w))
            if g.first == 0:
                ref = ref + spec.q0
            assert np.abs(row[:w] - ref).max() <= 1e-12 * ref[0], \
                f"group {g.first}..{g.last}"

    @staticmethod
    def per_level_blocks(spec, grid, lo, hi, n_max, seed, replicas,
                         shifts=None):
        """The per-level draw, inline: default_rng([seed, block]) yields the
        Q_0 normals, then one (M_k, BLOCK) panel per level k, each taken
        through one FFT of its circulant root (a Cholesky product on free
        points)."""
        w, half = hi - lo + 1, BLOCK // 2
        roots = []
        for k in range(1, n_max + 1):
            if grid.h is None:
                roots.append(np.linalg.cholesky(gram(spec, k, grid)))
                continue
            band = math.floor(math.exp(-(spec.t0 + k)) / grid.h)
            m = next_fast_len(w + band + 1, True)
            o = np.arange(m)
            lam = np.fft.fft(lattice_row(spec, [k], grid.h,
                                         np.minimum(o, m - o))).real
            roots.append(np.sqrt(np.maximum(lam, 0.0) / m))
        blocks = []
        for start in range(0, replicas, BLOCK):
            rng = np.random.default_rng([seed, start // BLOCK])
            z = np.empty((n_max + 1, w, BLOCK))
            z[0] = np.sqrt(spec.q0) * rng.standard_normal(BLOCK)
            for k, root in enumerate(roots, start=1):
                xi = rng.standard_normal((root.shape[0], BLOCK))
                if root.ndim == 2:
                    z[k] = root @ xi
                    continue
                y = np.fft.fft(root[:, None] * xi.view(complex), axis=0)[:w]
                z[k, :, :half] = y.real
                z[k, :, half:] = y.imag
            if shifts is not None:
                z += shifts[:, :, None]
            blocks.append(z)
        return np.concatenate(blocks, axis=-1)[..., :replicas]

    @pytest.mark.parametrize("q0", [0.0, 1.0], ids=["zero", "constant"])
    def test_default_levels_draw_per_level(self, q0):
        spec = KernelSpec(d=1, q0=q0)
        grid = Grid.regular((0.0, 1.0), 128)
        bench = Bench(spec, grid, 8, f=bump_function(grid, center=0.5,
                                                     radius=0.2))
        (z,) = bench.map_blocks(3, 64, lambda start, zb: (zb,))
        draw = bench.last_draw
        ref = self.per_level_blocks(spec, grid, draw.lo, draw.hi, 8, 3, 64)
        assert np.array_equal(z, ref)

    def test_default_levels_draw_per_level_tilted_free(self):
        pair = Grid.from_points(np.array([[0.45], [0.55]]), (0.0, 1.0))
        t = TiltShift(x=0.45, y=0.55, eps=2 ** -4, eps_prime=2 ** -4,
                      alpha=0.8)
        bench = Bench(SPEC, pair, 6)
        bench.set_tilt(t)
        (z,) = bench.map_blocks(5, 64, lambda start, zb: (zb,))
        shifts = tilt_shift_rows(SPEC, pair, t, 6, Mollifier(d=1))
        ref = self.per_level_blocks(SPEC, pair, 0, 1, 6, 5, 64, shifts)
        assert np.array_equal(z, ref)

    def test_grouped_barrier_reads_group_tops(self):
        # slabs summing levels a..b compare Y_b against b lam, the same
        # indicators the per-level block gives at the groups' last levels
        grid = Grid.regular((0.0, 1.0), 128)
        f = bump_function(grid, center=0.5, radius=0.2)
        bench = Bench(SPEC, grid, 8, f=f)
        (z,) = bench.map_blocks(4, 32, lambda start, zb: (zb,),
                                draw=bench.draw(keys=[("main", 2 ** -3)]))
        groups = [(0, 2), (3, 5), (6, 6), (7, 8)]
        slabs = np.stack([z[a:b + 1].sum(axis=0) for a, b in groups])
        rows = np.arange(10, 60)
        tops = [b for _, b in groups]
        grouped = barrier_below(slabs, rows, 0.9, tops)
        assert np.array_equal(grouped, barrier_below(z, rows, 0.9)[tops])

    def test_grouped_tilt_sums_shifts(self):
        # a group's mean row is the sum of its levels' tilt shifts
        pair = Grid.from_points(np.array([[0.45], [0.55]]), (0.0, 1.0))
        t = TiltShift(x=0.45, y=0.55, eps=2 ** -4, eps_prime=2 ** -4,
                      alpha=0.8)
        bench = Bench(SPEC, pair, 6)
        bench.set_tilt(t)
        rows = tilt_shift_rows(SPEC, pair, t, 6, Mollifier(d=1))
        ref = [rows[0:3].sum(axis=0), rows[3], rows[4:7].sum(axis=0)]
        shifts = bench._shifts(bench.draw([2, 3]))
        assert np.abs(shifts - np.stack(ref)).max() < 1e-14
