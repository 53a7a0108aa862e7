import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len

from logchaos import (Bench, Grid, KernelSpec, Mollifier, NumericError,
                      TiltShift, barrier_below, bump_function, gram,
                      increment_factors, kernels, sampled_rows,
                      tilt_shift_rows, tilted_event_prob, verify)
from logchaos.kernels import lattice_row
from logchaos.mollifier import discrete_stencil, interior_rows, weight_matrix
from logchaos.sampler import (BLOCK, block_z, circulant_root,
                              next_fast_len as torus_len)

SPEC = KernelSpec(d=1)
GRID = Grid.regular((0.0, 1.0), 64)


def grid_table(eps, eps_prime, mol, n_levels):
    """(rows, rows_p, values): the grid-rule K_{eps,eps'} on the D_eps x
    D_eps' rows of GRID, gathered from the per-offset values of
    kernels.offset_table."""
    rows = interior_rows(GRID, eps)
    rows_p = interior_rows(GRID, eps_prime)
    lo, _, vals = kernels.offset_table(SPEC, GRID, rows, rows_p, eps,
                                       eps_prime, mol, n_levels)
    return rows, rows_p, vals[np.subtract.outer(rows, rows_p) - lo]


def stencil_field(y, eps, mol, grid=GRID):
    """(rows, X_eps): the discrete_stencil taps applied to a full-grid y of
    shape (N, ...) at the D_eps rows, with no dense W."""
    rows = interior_rows(grid, eps)
    offs, taps = discrete_stencil(mol, eps, grid.h)
    return rows, sum(t * y[rows + o] for o, t in zip(offs, taps))


def mollified_draws(n_max, seed, replicas, eps_list, mol):
    """X_eps at the D_eps rows for each eps, shape (rows, R), on the draws of
    a Bench without f at map_blocks' default levels (every row, one slab
    per level)."""
    def consume(start, z):
        y = z.sum(axis=0)
        return tuple(stencil_field(y, eps, mol)[1] for eps in eps_list)

    return Bench(SPEC, GRID, n_max, mol=mol).map_blocks(seed, replicas,
                                                        consume)


def draws(grid, n_max, seed, replicas):
    """The slabs of a Bench without f at map_blocks' default levels (every
    row, one slab per level), shape (n_max + 1, N, R)."""
    (z,) = Bench(SPEC, grid, n_max).map_blocks(seed, replicas,
                                               lambda start, z: (z,))
    return z


def draw_matrix(grid, n_max, seed, replicas, level=None):
    """Stack y(n_max) (or a single level) across replicas: shape (N, R)."""
    z = draws(grid, n_max, seed, replicas)
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
        # a block reads exactly its own stream, whatever ran before it: a
        # small block after a larger one reads the normals of its stream
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
    """The tilt toward the two points of a pair grid s apart, as tilt-check
    draws it: the centred draw plus the summed per-level means."""

    @staticmethod
    def tilted_pair(s, alpha, n_max, seed, replicas):
        """(centred y(n_max), tilted y(n_max), summed means) on the two
        points of verify.pair_grid(s), tilted toward both at eps 2^-3, each
        of shape (2, R) but the means (2,)."""
        pair = verify.pair_grid(s)
        t = TiltShift(*pair.points[:, 0], eps=2 ** -3, alpha=alpha)
        flat = draw_matrix(pair, n_max, seed, replicas)
        means = tilt_shift_rows(SPEC, pair, t, n_max,
                                Mollifier(d=1)).sum(axis=0)
        return flat, flat + means[:, None], means

    def test_zero_alpha_identity(self):
        s, tilted, _ = self.tilted_pair(0.1, 0.0, 5, seed=20, replicas=1)
        assert np.array_equal(tilted, s)

    def test_tilted_mean(self):
        R = 4000
        _, y, target = self.tilted_pair(0.1, 0.8, 5, seed=21, replicas=R)
        for i in range(2):
            mean = y[i].mean()
            se = y[i].std(ddof=1) / math.sqrt(R)
            assert abs(mean - target[i]) <= 4 * se, \
                f"tilted mean {mean} vs {target[i]} at point {i}"

    def test_tilt_preserves_variance(self):
        R = 4000
        flat, tilted, _ = self.tilted_pair(0.1, 0.8, 4, seed=22, replicas=R)
        for i in range(2):
            v0 = flat[i].var(ddof=1)
            v1 = tilted[i].var(ddof=1)
            se = v0 * math.sqrt(2.0 / (R - 1))
            assert abs(v1 - v0) <= 4 * se, f"variance changed: {v0} -> {v1}"
        # same seed: the tilt is a deterministic shift of the same draw
        assert np.allclose(tilted - flat, (tilted - flat)[:, :1], atol=1e-12)


class TestBandedEngine:
    """The level engine for banded (compactly supported) level Grams: an
    exact circulant embedding per level, on the lattice of a regular d=1
    grid, or on a 2-point torus for a draw of two rows."""

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
            assert level.root.ndim == 1 and level.net > 0.0, f"level {k}"
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
        assert all(level.root.ndim == 1 for level in levels)
        grid_table(2 ** -3, 2 ** -3, Mollifier(d=1), 6)

    def test_block_z_matches_dense_product(self):
        n_max, seed, start = 8, 5, 64
        n = self.GRID512.n
        factors = increment_factors(SPEC, self.GRID512, n_max)
        z = block_z(SPEC, self.GRID512, factors, seed, start, n_max)
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

    @pytest.mark.parametrize("q0", [0.0, 1.0], ids=["zero", "constant"])
    @pytest.mark.parametrize("sep", [math.exp(-2), math.exp(-5), 0.3],
                             ids=["e-2", "e-5", "outside"])
    def test_pair_rows_match_gram(self, sep, q0):
        # a pair grid's group Gram [[L(0), L(h)], [L(h), L(0)]], h its
        # spacing, is the circulant of its 2-point torus: its factor
        # reproduces the dense Gram sums at the pair's points of the
        # tilt-check groups and of the per-level draw.  The points lie
        # delta = |(y - x) - h| off one spacing apart by rounding, and a
        # run a..b of levels has |d/dr sum Q_n| <= min(1/r, e^(t0+b+1))
        # (level_sum's closed form), so L(y - x) and L(h) differ by at
        # most delta times that at r = min(h, y - x)
        spec = KernelSpec(d=1, q0=q0)
        pair = verify.pair_grid(sep)
        x, y = pair.points[:, 0]
        delta, r = abs((y - x) - pair.h), min(pair.h, y - x)
        for levels in (None, range(2, 9)):
            for g in increment_factors(spec, pair, 8, levels=levels)[1:]:
                assert g.root.shape == (2,) and g.rows == 2
                ref = sum(gram(spec, k, pair)
                          for k in range(g.first, g.last + 1))
                row = np.fft.ifft(2 * g.root ** 2).real
                slope = min(1.0 / r, math.exp(spec.t0 + g.last + 1))
                assert (np.abs(row - ref[0]).max()
                        <= 1e-15 * ref[0, 0] + delta * slope), \
                    f"group {g.first}..{g.last}"
                assert g.net > 0.0

    def test_pair_builds_no_gram(self, monkeypatch):
        # every group factor is a circulant root: the pair reads lattice
        # rows, and LAPACK is never asked for a factor
        def refuse(*args, **kwargs):
            raise AssertionError("a dense factor was built")

        monkeypatch.setattr(kernels, "gram", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        pair = verify.pair_grid(0.1)
        groups = increment_factors(SPEC, pair, 8, levels=range(2, 9))
        assert [g.draws for g in groups] == [2] * 7

    @staticmethod
    def fft_calls(monkeypatch, *args):
        """(block_z(*args), the input shape of each np.fft.fft call it
        made)."""
        calls, fft = [], np.fft.fft

        def counted(*a, **k):
            calls.append(a[0].shape)
            return fft(*a, **k)

        with monkeypatch.context() as m:
            m.setattr(np.fft, "fft", counted)
            z = block_z(*args)
        return z, calls

    def test_block_z_matches_per_group_fft(self, monkeypatch):
        # the ladder-2048 draw: levels 7 and 8 share their 720-point torus
        # and one FFT call, every other group transforms alone; the bytes
        # equal one FFT per group of its own panel
        grid = Grid.regular((0.0, 1.0), 2048)
        bench = Bench(SPEC, grid, 8, f=bump_function(grid, center=0.5,
                                                     radius=0.05))
        draw = bench.draw(range(2, 9), [("main", 2 ** -3)])
        factors = bench._factors(draw)
        assert [g.draws for g in factors] == [1500, 864, 768, 750, 729,
                                              720, 720]
        seed, start = 7, 96
        z, calls = self.fft_calls(monkeypatch, SPEC, grid, factors, seed,
                                  start, 8)
        half = BLOCK // 2
        assert calls == [(1, 1500, half), (1, 864, half), (1, 768, half),
                         (1, 750, half), (1, 729, half), (2, 720, half)]
        panels = stream_panels(seed, start // BLOCK,
                               [g.draws for g in factors])
        for i, (g, xi) in enumerate(zip(factors, panels)):
            y = np.fft.fft(g.root[:, None] * xi.view(complex), axis=0)
            ref = np.concatenate([y.real, y.imag], axis=1)[:draw.rows]
            assert np.array_equal(z[i], ref), f"group {g.first}..{g.last}"

    def test_pair_draws_in_one_fft(self, monkeypatch):
        # tilt-check's draw: the pair's seven groups share M = 2, so a
        # block takes one FFT call, with the bytes of the per-level draw's
        # FFT of each panel alone
        pair = verify.pair_grid(0.1)
        bench = Bench(SPEC, pair, 8)
        factors = bench._factors(bench.draw(range(2, 9)))
        z, calls = self.fft_calls(monkeypatch, SPEC, pair, factors, 3, 32, 8)
        assert calls == [(7, 2, BLOCK // 2)] and z.shape == (7, 2, BLOCK)
        for g, xi, zi in zip(factors, stream_panels(3, 1, [2] * 7), z):
            y = np.fft.fft(g.root[:, None] * xi.view(complex), axis=0)
            assert np.array_equal(zi, np.concatenate([y.real, y.imag], 1))

    def test_block_holds_slabs_and_one_run(self):
        # the ladder-2048 draw, traced in a fresh thread after a warm-up
        # call: a block keeps only z when it returns, and its peak stays
        # below z plus the largest run's panel, that run's complex roots
        # and the broadcast scaling's ufunc buffer, with 16 KB to spare;
        # holding every normal of the block, or a second panel-sized FFT
        # output, exceeds it
        grid = Grid.regular((0.0, 1.0), 2048)
        bench = Bench(SPEC, grid, 8, f=bump_function(grid, center=0.5,
                                                     radius=0.05))
        factors = bench._factors(bench.draw(range(2, 9), [("main", 2 ** -3)]))
        args = (SPEC, grid, factors, 7, 0, 8)
        block_z(*args)
        out = {}

        def traced():
            tracemalloc.start()
            try:
                out["z"] = block_z(*args)
                out["held"], out["peak"] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=traced)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        nbytes = out["z"].nbytes
        assert abs(out["held"] - nbytes) <= 64 * 1024
        run = max(m * len(list(r))
                  for m, r in itertools.groupby(g.draws for g in factors))
        extra = 8 * BLOCK * run + 16 * run + 16 * np.getbufsize()
        assert out["peak"] < nbytes + extra + 16 * 1024


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
        # no f, or an f that is zero everywhere: all N rows
        assert sampled_rows(GRID) == (0, GRID.n - 1)
        assert sampled_rows(GRID, np.zeros(GRID.n)) == (0, GRID.n - 1)

    def test_two_row_window_is_a_two_point_torus(self):
        # f of radius 0.002 at N = 512 covers rows 255 and 256 alone: every
        # level samples their exact Gram [[L(0), L(h)], [L(h), L(0)]], its
        # own circulant on a 2-point torus, with the inline per-level bytes
        grid = Grid.regular((0.0, 1.0), 512)
        bench = Bench(SPEC, grid, 8, f=bump_function(grid, center=0.5,
                                                     radius=0.002))
        (z,) = bench.map_blocks(3, 64, lambda start, zb: (zb,))
        assert bench.safety_net["sampled_rows"] == [255, 256]
        assert bench.safety_net["torus_points"] == [1] + [2] * 8
        for g in bench.factors[1:]:
            row = np.fft.ifft(2 * g.root ** 2).real
            ref = gram(SPEC, g.first, grid)[255, 255:257]
            assert np.abs(row - ref).max() <= 1e-15 * ref[0], f"level {g.first}"
        assert np.array_equal(z, TestLevelGroups.per_level_blocks(
            SPEC, grid, 255, 256, 8, 3, 64))

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
            assert g.root.ndim == 1 and g.rows == w
            assert g.net > 0.0, f"group {g.first}..{g.last}"
            row = np.fft.ifft(g.root.size * g.root ** 2).real
            ref = lattice_row(spec, range(max(g.first, 1), g.last + 1),
                              grid.h, np.arange(w))
            if g.first == 0:
                ref = ref + spec.q0
            assert np.abs(row[:w] - ref).max() <= 1e-12 * ref[0], \
                f"group {g.first}..{g.last}"

    @staticmethod
    def per_level_blocks(spec, grid, lo, hi, n_max, seed, replicas):
        """The per-level draw, inline: default_rng([seed, block]) yields the
        Q_0 normals, then one (M_k, BLOCK) panel per level k, each taken
        through one FFT of its circulant root (on a 2-point torus for two
        rows)."""
        w, half, h = hi - lo + 1, BLOCK // 2, grid.h
        roots = []
        for k in range(1, n_max + 1):
            band = math.floor(math.exp(-(spec.t0 + k)) / h)
            m = 2 if w == 2 else next_fast_len(w + band + 1, True)
            o = np.arange(m)
            lam = np.fft.fft(lattice_row(spec, [k], h,
                                         np.minimum(o, m - o))).real
            roots.append(np.sqrt(np.maximum(lam, 0.0) / m))
        blocks = []
        for start in range(0, replicas, BLOCK):
            rng = np.random.default_rng([seed, start // BLOCK])
            z = np.empty((n_max + 1, w, BLOCK))
            z[0] = np.sqrt(spec.q0) * rng.standard_normal(BLOCK)
            for k, root in enumerate(roots, start=1):
                xi = rng.standard_normal((root.size, BLOCK))
                y = np.fft.fft(root[:, None] * xi.view(complex), axis=0)[:w]
                z[k, :, :half] = y.real
                z[k, :, half:] = y.imag
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

    @staticmethod
    def tilt_check_blocks(monkeypatch, q, seed):
        """(per-level tilt means, centred block, tilted block) of the first
        separation 0.1 of a tilted_event_prob run (eps 2^-4, alpha 0.8,
        n_max 6, 64 replicas): the draw its bench makes, and the block its
        event reads once the consume has added the group means."""
        seen, below = [], verify.barrier_below

        def record(z, *args):
            seen.append(z.copy())
            return below(z, *args)

        monkeypatch.setattr(verify, "barrier_below", record)
        seps = [0.1, math.exp(-3), math.exp(-4), math.exp(-5)]
        tilted_event_prob(SPEC, seps, 2 ** -4, q, 1.6, 0.8, 6, 64, seed)
        pair = verify.pair_grid(0.1)
        bench = Bench(SPEC, pair, 6)
        (centred,) = bench.map_blocks(seed, 64, lambda start, zb: (zb,),
                                      draw=bench.draw(range(q, 7)))
        rows = tilt_shift_rows(SPEC, pair, TiltShift(*pair.points[:, 0],
                                                     eps=2 ** -4, alpha=0.8),
                               6, Mollifier(d=1))
        return rows, centred, seen[0]

    def test_default_levels_draw_per_level_tilted_free(self, monkeypatch):
        # tilt-check's pair (free points up to v0.22.0, a 2-point grid
        # since): its per-level draw is the inline reference's; under
        # tilt-check's barrier at q = 1, each level after the first group
        # gets its own tilt mean
        pair = verify.pair_grid(0.1)
        (z,) = Bench(SPEC, pair, 6).map_blocks(5, 64, lambda start, zb: (zb,))
        assert np.array_equal(z, self.per_level_blocks(SPEC, pair, 0, 1, 6,
                                                       5, 64))
        rows, centred, tilted = self.tilt_check_blocks(monkeypatch, 1, 5)
        ref = np.stack([rows[0] + rows[1], *rows[2:]])
        assert np.array_equal(tilted, centred + ref[:, :, None])

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

    def test_grouped_tilt_sums_shifts(self, monkeypatch):
        # a group's mean row is the sum of its levels' tilt shifts: tilt-check
        # at q = 2 draws the groups 0..2, 3, 4, 5 and 6
        rows, centred, tilted = self.tilt_check_blocks(monkeypatch, 2, 5)
        ref = np.stack([rows[0:3].sum(axis=0), *rows[3:]])
        assert np.abs(tilted - centred - ref[:, :, None]).max() < 1e-14
