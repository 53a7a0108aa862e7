import cmath
import math
from functools import partial

import numpy as np
import pytest

from logchaos import (Bench, ChaosParams, Grid, KernelSpec, Mollifier,
                      ResolutionError, barrier_below, bump_function,
                      cauchy_ladder, chaos_density, mc_moment,
                      mollifier_independence, q0_for, sobolev_diag,
                      sobolev_ladder, wick_exp_flagged)
from logchaos.verify import _block_densities, _chaos_values

SPEC = KernelSpec(d=1)
GRID = Grid.regular((0.0, 1.0), 64)
EPS = 2 ** -3
MOL = Mollifier(d=1)
F = bump_function(GRID, radius=0.2)


def fields(seed, replicas, f=F, n_max=6):
    """(bench, X_eps on the supp(f) rows, shape (S, R)) from block draws
    of the rows the eps convolution reads."""
    bench = Bench(SPEC, GRID, n_max, f=f, mol=MOL)
    keys = [("main", EPS)]
    draw = bench.draw(keys=keys)

    def consume(start, z):
        return (bench.mollify(z.sum(axis=0), keys, draw)[0],)

    return bench, bench.map_blocks(seed, replicas, consume, draw=draw)[0]


def chaos_values(bench, gamma, seed, replicas, trunc=None):
    """Per-replica chaos values of the block engine on the estimators' own
    draw: Y_q..Y_n_max truncated, Y_n_max alone otherwise; with trunc=(q,
    lam), also the global barrier event per replica (1.0 where it holds),
    by barrier_below on the same draw."""
    vals = _chaos_values(bench, [gamma], [("main", EPS)], trunc, replicas,
                         seed, None)[0][0]
    if trunc is None:
        return vals, None
    draw = bench.last_draw
    rows = bench.supp - draw.lo
    (event,) = bench.map_blocks(seed, replicas, lambda start, z: (
        barrier_below(z, rows, trunc[1], draw.tops).all(axis=(0, 1))
        .astype(float),), draw=draw)
    return vals, event


def full_values(bench, gamma, seed, replicas, levels):
    """Per-replica untruncated chaos values on a draw of levels."""
    keys = [("main", EPS)]
    draw = bench.draw(levels, keys)
    densities = _block_densities(bench, draw, [gamma], keys, None)

    def consume(start, z):
        (((dens, _),),) = densities(z)[0]
        return (dens.sum(axis=0) * bench.grid.weight,)

    return bench.map_blocks(seed, replicas, consume, draw=draw)[0]


class TestWick:
    def test_trivial_values(self):
        assert wick_exp_flagged(0.5, 0.0, 0.0)[0] == 1.0
        assert abs(wick_exp_flagged(1.0, 1.0, 2.0)[0] - 1.0) < 1e-15

    def test_imaginary_modulus(self):
        # u = i beta: |wick| = exp(beta^2 v / 2) independent of z
        beta, v = 0.7, 1.3
        for z in (-2.0, 0.0, 3.5):
            val, _ = wick_exp_flagged(1j * beta, z, v)
            assert abs(abs(val) - math.exp(0.5 * beta * beta * v)) < 1e-12

    def test_complex_square(self):
        u = 0.8 + 0.3j
        z, v = 0.4, 1.1
        expect = cmath.exp(u * z - 0.5 * u * u * v)
        assert abs(wick_exp_flagged(u, z, v)[0] - expect) < 1e-14

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            wick_exp_flagged(1.0, 0.0, -0.5)

    def test_overflow_flagged_not_inf(self):
        vals, mask = wick_exp_flagged(2.0, np.array([0.0, 500.0]), 0.0)
        assert not mask[0] and mask[1]
        assert vals[1] == 0.0, "overflow must saturate to zero, not inf"
        assert np.all(np.isfinite(vals))

    def test_two_field_saturates_combined_exponent(self):
        # exp(i beta Y + beta^2 v / 2) alone overflows (exponent 710); the
        # combined exponent alpha X + 0.5 (beta^2 - alpha^2) v is 690, so the
        # stacked call must stay finite and unflagged
        alpha, beta, v = 1.0, 2.0, 355.0
        x = np.array([690.0 - 0.5 * (beta ** 2 - alpha ** 2) * v, 800.0])
        vals, mask = wick_exp_flagged((alpha, 1j * beta),
                                      np.stack([x, np.zeros(2)]), v)
        assert not mask[0] and mask[1]
        assert abs(vals[0] - math.exp(690.0)) <= 1e-12 * math.exp(690.0)
        assert vals[1] == 0.0 and np.all(np.isfinite(vals))


def wick_oracle(u, z, v):
    """The out-of-place Wick exponential the in-place pass replaced: one
    complex exponent, np.where copies around one complex exp."""
    v = np.asarray(v, dtype=float)
    if np.ndim(u) == 0:
        u, z = [u], [z]
    u = [complex(c) for c in u]
    expo = u[0] * np.asarray(z[0])
    for c, field in zip(u[1:], z[1:]):
        expo = expo + c * np.asarray(field)
    expo = np.asarray(expo - 0.5 * sum(c * c for c in u) * v, dtype=complex)
    mask = expo.real > 700.0
    vals = np.exp(np.where(mask, 0.0, expo))
    return np.where(mask, 0.0, vals), mask


def density_oracle(u, x, v, f, event=None):
    vals, mask = wick_oracle(u, x, np.asarray(v)[:, None])
    if event is not None:
        vals = vals * event
    return vals * np.asarray(f)[:, None], mask.any(axis=0)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWickOracle:
    """The in-place Wick pass against the out-of-place oracle: complex and
    two-field coefficients bitwise, real ones within the ulp of numpy's real
    exp, on a block with saturated entries."""

    S, B = 51, 128

    def block(self, seed=4):
        rng = np.random.default_rng(seed)
        x = 3.0 * rng.standard_normal((2, self.S, self.B))
        x[0, 5, 7] = 900.0  # saturates for every coefficient with Re u >= 1
        v = rng.uniform(0.0, 4.0, self.S)
        f = rng.uniform(0.1, 1.0, self.S)
        event = rng.random((self.S, self.B)) < 0.7
        return x, v, f, event

    @pytest.mark.parametrize("u", [0.5 + 0.5j, 1.1 + 0.25j, -0.3 + 0.7j,
                                   1j * 0.8, (1.0, 2.0j), (0.7, 0.3j)])
    def test_complex_bitwise(self, u):
        x, v, f, event = self.block()
        z = x if isinstance(u, tuple) else x[0]
        vals, mask = wick_exp_flagged(u, z, v[:, None])
        ref, ref_mask = wick_oracle(u, z, v[:, None])
        assert same_bytes(vals, ref) and same_bytes(mask, ref_mask)
        assert np.iscomplexobj(vals)
        dens, ovf = chaos_density(u, z, v, f)
        ref, ref_ovf = density_oracle(u, z, v, f)
        assert same_bytes(dens, ref) and same_bytes(ovf, ref_ovf)
        # with the barrier event, entries it zeroes may differ from the
        # oracle's two products in the sign of a zero imaginary part alone,
        # so the chaos values (row sums) are bitwise the oracle's
        dens, ovf = chaos_density(u, z, v, f, event)
        ref, ref_ovf = density_oracle(u, z, v, f, event)
        assert np.array_equal(dens, ref) and same_bytes(ovf, ref_ovf)
        assert same_bytes(dens.sum(axis=0), ref.sum(axis=0))

    @pytest.mark.parametrize("u", [0.8, 1.3 + 0j, -0.6, (1.1, 0j)])
    def test_real_within_one_ulp(self, u):
        x, v, f, event = self.block()
        z = x if isinstance(u, tuple) else x[0]
        vals, mask = wick_exp_flagged(u, z, v[:, None])
        ref, ref_mask = wick_oracle(u, z, v[:, None])
        assert vals.dtype == float and same_bytes(mask, ref_mask)
        assert np.all(ref.imag == 0.0)
        assert np.all(np.abs(vals - ref.real) <= np.spacing(np.abs(ref.real)))
        # the density is the Wick values times one real weight, so it moves
        # by that ulp carried through one rounded product
        dens, ovf = chaos_density(u, z, v, f, event)
        ref_dens, ref_ovf = density_oracle(u, z, v, f, event)
        assert dens.dtype == float and same_bytes(ovf, ref_ovf)
        assert same_bytes(dens, vals * (event * f[:, None]))
        assert np.all(np.abs(dens - ref_dens.real)
                      <= 2.0 * np.spacing(np.abs(ref_dens.real)))

    @pytest.mark.parametrize("u", [1.0, 1.0 + 0.5j, (1.0, 0.5j)])
    def test_saturation_boundary(self, u):
        # v = 0 makes the real exponent the field itself, on both paths
        # 800 would overflow exp: a saturated entry is zeroed before it
        edge = np.array([700.0, np.nextafter(700.0, np.inf), 800.0])
        z = np.stack([edge, np.zeros(3)]) if isinstance(u, tuple) else edge
        with np.errstate(over="raise"):
            vals, mask = wick_exp_flagged(u, z, 0.0)
        assert mask.tolist() == [False, True, True]
        assert np.all(vals[1:] == 0.0) and np.isfinite(vals[0])
        assert abs(vals[0]) == pytest.approx(math.exp(700.0), rel=1e-15)

    @pytest.mark.parametrize("u", [0.8, 0.5 + 0.5j, (1.0, 2.0j)])
    def test_negative_variance_raises(self, u):
        z = np.zeros((2, 3)) if isinstance(u, tuple) else np.zeros(3)
        with pytest.raises(ValueError, match="nonnegative"):
            wick_exp_flagged(u, z, np.array([1.0, -1e-300, 0.0]))


class TestChaosIntegral:
    """Chaos densities and their quadrature on block-engine draws."""

    def test_gamma_zero_is_quadrature(self):
        bench, x = fields(seed=1, replicas=1)
        _, kd = bench.supp_tables("main", EPS)
        dens, ovf = chaos_density(0.0, x, kd, F[bench.supp])
        # a real coefficient gives a float density, exp(0) f = f exactly, so
        # its quadrature sums the same floats in the same order as f's
        assert dens.dtype == float and np.array_equal(dens[:, 0], F[bench.supp])
        val = dens.sum() * GRID.weight
        quad = F[bench.supp].sum() * GRID.weight
        assert val == quad, f"{val} vs {quad}"
        assert val.imag == 0.0
        assert not ovf.any()

    def test_constant_field_factorizes(self):
        c, v = 0.9, 1.4
        gamma = 0.6
        rows = np.arange(20, 44)
        f = np.zeros(GRID.n)
        f[rows] = 1.0
        dens, _ = chaos_density(gamma, np.full((rows.size, 1), c),
                                np.full(rows.size, v), f[rows])
        expect = cmath.exp(gamma * c - 0.5 * gamma * gamma * v) * f.sum() * GRID.weight
        assert abs(dens.sum() * GRID.weight - expect) < 1e-12

    def test_linearity(self):
        f1 = bump_function(GRID, center=0.4, radius=0.12)
        f2 = bump_function(GRID, center=0.6, radius=0.12)
        bench, x = fields(seed=2, replicas=1, f=f1 + f2)
        _, kd = bench.supp_tables("main", EPS)
        a, b, c = (chaos_density(0.7, x, kd, f[bench.supp])[0].sum()
                   for f in (f1, f2, f1 + f2))
        assert abs(c - (a + b)) < 1e-12, "quadrature must be linear in f"

    def test_conjugation(self):
        bench, x = fields(seed=3, replicas=1)
        _, kd = bench.supp_tables("main", EPS)
        g = 0.5 + 0.4j
        val = chaos_density(g, x, kd, F[bench.supp])[0].sum()
        valc = chaos_density(g.conjugate(), x, kd, F[bench.supp])[0].sum()
        assert abs(valc - val.conjugate()) < 1e-12

    def test_support_leak_rejected(self):
        f = np.ones(GRID.n)  # touches the boundary, outside D_eps
        bench = Bench(SPEC, GRID, 6, f=f, mol=MOL)
        with pytest.raises(ValueError, match="leaks outside D_eps"):
            mc_moment(bench, ChaosParams(f=f, gamma=0.5), "mean", EPS,
                      replicas=2, seed=4)

    def test_missing_level_rejected(self):
        # a mollifier level the grid cannot resolve (h > eps/4) is refused
        # before sampling
        bench = Bench(SPEC, GRID, 6, f=F, mol=MOL)
        with pytest.raises(ResolutionError):
            mc_moment(bench, ChaosParams(f=F, gamma=0.5), "mean", 2 ** -5,
                      replicas=2, seed=5)

    def test_mean_identity_small_run(self):
        m = mc_moment(Bench(SPEC, GRID, 6, f=F, mol=MOL),
                      ChaosParams(f=F, gamma=0.5), "mean", EPS, replicas=2000,
                      seed=6)
        assert m.excluded == 0
        assert abs(m.z_re) <= 4, f"mean identity z = {m.z_re}"

    def test_two_field_mean_identity(self):
        # two-field chaos exp(alpha X + i beta Y): X and Y from two
        # independent seeds, stacked with coefficients (alpha, i beta)
        R = 2000
        alpha, beta = 0.8, 0.4
        bench, x = fields(seed=7, replicas=R)
        _, y = fields(seed=8, replicas=R)
        _, kd = bench.supp_tables("main", EPS)
        dens, ovf = chaos_density((alpha, 1j * beta), np.stack([x, y]), kd,
                                  F[bench.supp])
        vals = dens.sum(axis=0) * GRID.weight
        assert not ovf.any()
        target = F.sum() * GRID.weight
        se = vals.real.std(ddof=1) / math.sqrt(R)
        z = (vals.real.mean() - target) / se
        assert abs(z) <= 4, f"two-field mean identity z = {z}"


class TestTruncation:
    def test_boundary_inclusive(self):
        lam = 1.6
        n_max = 3
        z = np.zeros((n_max + 1, 4, 1))
        z[1:] = lam  # Y_k = k lam exactly
        assert barrier_below(z, np.arange(4), lam)[1:].all(), \
            "Y_k = k lam must count as inside (<= inclusive)"
        z[1] = lam + 1.0
        assert not barrier_below(z, np.arange(4), lam)[1:].all()

    def test_q_bounds(self, monkeypatch):
        # a barrier level outside 1..n_max is refused before sampling, never
        # drawn and read: the estimator, not the bench, picks the levels,
        # in each ladder that truncates, all of which read q from params
        # (ChaosParams itself refuses q < 1; mc_moment refuses truncated
        # params, test_verify test_truncation_read_from_params)
        from logchaos import verify

        def no_draws(*a, **k):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(verify, "block_z", no_draws)
        with pytest.raises(ValueError, match="q must be >= 1"):
            ChaosParams(f=F, gamma=0.5, truncation=True, q=0, lam=1.6)
        bench = Bench(SPEC, GRID, 6, f=F, mol=MOL)
        bench.add_channel("alt", Mollifier(d=1, profile="quartic"))
        params = ChaosParams(f=F, gamma=1.1 + 0.25j, truncation=True, q=7,
                             lam=1.6)
        ladder = [EPS, EPS / 2]
        for call in (partial(cauchy_ladder, bench, params, ladder),
                     partial(mollifier_independence, bench, params, ladder),
                     partial(sobolev_ladder, bench, params, 0.75, ladder)):
            with pytest.raises(ValueError, match="Y_7"):
                call(replicas=40, seed=9)

    def test_truncated_equals_full_on_good_replicas(self):
        # lam = 1.6 > sqrt(2) leaves 9 of the 64 replicas off the event, so
        # both branches are checked; gamma stays real, where truncation
        # can only shrink |M|
        # both branches read the truncated run's draw of Y_q..Y_6
        bench = Bench(SPEC, GRID, 6, f=F, mol=MOL)
        q = max(2, q0_for(F, GRID))
        tv, event = chaos_values(bench, 0.8, seed=10, replicas=64,
                                 trunc=(q, 1.6))
        fv = full_values(bench, 0.8, seed=10, replicas=64,
                         levels=range(q, 7))
        on = event == 1.0
        assert on.any(), "no replica satisfied the event; test is vacuous"
        assert (~on).any(), "every replica satisfied the event; test is vacuous"
        assert np.array_equal(tv[on], fv[on]), \
            "truncation must be the identity on the event"
        assert np.all(np.abs(tv[~on]) <= np.abs(fv[~on]) + 1e-12)

    def test_huge_lambda_is_identity(self):
        bench = Bench(SPEC, GRID, 6, f=F, mol=MOL)
        tv, _ = chaos_values(bench, 0.8, seed=11, replicas=1, trunc=(6, 50.0))
        fv, _ = chaos_values(bench, 0.8, seed=11, replicas=1)
        assert np.array_equal(tv, fv)


class TestSobolevDiag:
    def test_flat_density(self):
        # constant density on the torus: only the zero mode survives
        grid = Grid.regular((0.0, 1.0), 128)
        val = sobolev_diag(np.ones(grid.n), grid, u=0.75)
        expect = 1.0 * (2.0 * np.pi / 1.0)  # |int density|^2 * dxi
        assert abs(val - expect) < 1e-10, f"{val} vs {expect}"

    def test_u_monotonicity(self):
        grid = Grid.regular((0.0, 1.0), 128)
        rng = np.random.default_rng(13)
        dens = rng.standard_normal(grid.n)
        a = sobolev_diag(dens, grid, u=0.75)
        b = sobolev_diag(dens, grid, u=1.5)
        assert b < a, "larger u must damp high modes harder"

    def test_index_guard(self):
        grid = Grid.regular((0.0, 1.0), 64)
        with pytest.raises(ValueError):
            sobolev_diag(np.ones(grid.n), grid, u=0.5)

    def test_batched_matches_columns(self):
        # a (N, a, b) density is transformed along axis 0: each trailing
        # index equals its own column's call (to summation order)
        grid = Grid.regular((0.0, 1.0), 128)
        rng = np.random.default_rng(16)
        dens = (rng.standard_normal((grid.n, 3, 5))
                + 1j * rng.standard_normal((grid.n, 3, 5)))
        batched = sobolev_diag(dens, grid, u=0.75)
        assert batched.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                col = sobolev_diag(dens[:, i, j], grid, u=0.75)
                assert abs(batched[i, j] - col) <= 1e-12 * col

    def test_free_points_refused(self):
        free = Grid.from_points(np.linspace(0.1, 0.9, 16), (0.0, 1.0))
        with pytest.raises(ValueError, match="regular grid"):
            sobolev_diag(np.ones(free.n), free, u=1.5)

    def test_parseval_scaling(self):
        # norm with weight 1 at u -> equals L2 mass? spot-check with u large
        # and a pure zero-mode density of height c: value = c^2 L^2 dxi
        grid = Grid.regular((0.0, 1.0), 64)
        val = sobolev_diag(np.full(grid.n, 2.5), grid, u=3.0)
        assert abs(val - 2.5 ** 2 * 2.0 * np.pi) < 1e-9


class TestBump:
    def test_support_and_height(self):
        f = bump_function(GRID, center=0.5, radius=0.2, height=2.0)
        xs = GRID.points[:, 0]
        assert np.all(f[np.abs(xs - 0.5) >= 0.2] == 0.0)
        assert abs(f[np.abs(xs - 0.5).argmin()] - 2.0) < 1e-2

    def test_q0_for(self):
        f = bump_function(GRID, center=0.5, radius=0.2)
        q0 = q0_for(f, GRID)
        # support margin ~0.3, so D_{e^-q} needs e^{-q} < 0.15
        assert q0 >= 1
        assert math.exp(-q0) <= 0.3 / 2 + 1e-9

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            q0_for(np.zeros(GRID.n), GRID)
