import cmath
import math

import numpy as np
import pytest

from logchaos import (ChaosParams, Grid, KernelSpec, Mollifier,
                      bump_function, chaos_integral, mollified_table, q0_for,
                      sample_increments, sample_mollified, sobolev_diag,
                      truncation_indicator, wick_exp_flagged)
from logchaos.sampler import FieldSample

SPEC = KernelSpec(d=1)
GRID = Grid.regular((0.0, 1.0), 64)
EPS = 2 ** -3
MOL = Mollifier(d=1)


def sampled(seed, n_max=6, replicas=1):
    for s in sample_increments(SPEC, GRID, n_max, seed, replicas, mol=MOL):
        yield sample_mollified(s, [EPS], mol=MOL)


def k_diag(n_levels=6):
    tab = mollified_table(SPEC, GRID, EPS, mol=MOL, rule="grid",
                          n_levels=n_levels)
    return tab.diag()


def fabricated(values, rows, n_max=3, z=None):
    """Hand-built sample with prescribed mollified values (no sampling)."""
    zz = np.zeros((n_max + 1, GRID.n)) if z is None else z
    s = FieldSample(spec=SPEC, grid=GRID, seed=0, replica=0, n_max=n_max,
                    z=zz)
    s.mollified[EPS] = np.asarray(values, dtype=float)
    s.mollified_rows[EPS] = np.asarray(rows)
    return s


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


class TestChaosIntegral:
    def test_gamma_zero_is_quadrature(self):
        f = bump_function(GRID, radius=0.2)
        params = ChaosParams(f=f, gamma=0.0)
        s = next(sampled(seed=1))
        val = chaos_integral(s, params, EPS, k_diag())
        quad = f[s.mollified_rows[EPS]].astype(complex).sum() * GRID.weight
        assert val.value == quad, f"{val.value} vs {quad}"
        assert val.value.imag == 0.0
        assert not val.overflow

    def test_constant_field_factorizes(self):
        c, v = 0.9, 1.4
        gamma = 0.6
        rows = np.arange(20, 44)
        f = np.zeros(GRID.n)
        f[rows] = 1.0
        s = fabricated(np.full(rows.size, c), rows)
        params = ChaosParams(f=f, gamma=gamma)
        val = chaos_integral(s, params, EPS, np.full(rows.size, v))
        expect = cmath.exp(gamma * c - 0.5 * gamma * gamma * v) * f.sum() * GRID.weight
        assert abs(val.value - expect) < 1e-12

    def test_linearity(self):
        f1 = bump_function(GRID, center=0.4, radius=0.12)
        f2 = bump_function(GRID, center=0.6, radius=0.12)
        s = next(sampled(seed=2))
        kd = k_diag()
        a = chaos_integral(s, ChaosParams(f=f1, gamma=0.7), EPS, kd).value
        b = chaos_integral(s, ChaosParams(f=f2, gamma=0.7), EPS, kd).value
        c = chaos_integral(s, ChaosParams(f=f1 + f2, gamma=0.7), EPS, kd).value
        assert abs(c - (a + b)) < 1e-12, "quadrature must be linear in f"

    def test_conjugation(self):
        f = bump_function(GRID, radius=0.2)
        s = next(sampled(seed=3))
        kd = k_diag()
        g = 0.5 + 0.4j
        val = chaos_integral(s, ChaosParams(f=f, gamma=g), EPS, kd).value
        valc = chaos_integral(s, ChaosParams(f=f, gamma=g.conjugate()), EPS,
                              kd).value
        assert abs(valc - val.conjugate()) < 1e-12

    def test_support_leak_rejected(self):
        f = np.ones(GRID.n)  # touches the boundary, outside D_eps
        s = next(sampled(seed=4))
        with pytest.raises(ValueError):
            chaos_integral(s, ChaosParams(f=f, gamma=0.5), EPS, k_diag())

    def test_missing_level_rejected(self):
        f = bump_function(GRID, radius=0.2)
        s = next(sampled(seed=5))
        with pytest.raises(KeyError):
            chaos_integral(s, ChaosParams(f=f, gamma=0.5), 2 ** -4, k_diag())

    def test_mean_identity_small_run(self):
        R = 2000
        f = bump_function(GRID, radius=0.2)
        kd = k_diag()
        params = ChaosParams(f=f, gamma=0.5)
        vals = np.array([chaos_integral(s, params, EPS, kd).value
                         for s in sampled(seed=6, replicas=R)])
        target = f.sum() * GRID.weight
        se = vals.real.std(ddof=1) / math.sqrt(R)
        z = (vals.real.mean() - target) / se
        assert abs(z) <= 4, f"mean identity z = {z}"

    def test_two_field_mean_identity(self):
        R = 2000
        f = bump_function(GRID, radius=0.2)
        kd = k_diag()
        params = ChaosParams(f=f, mode="two-field", alpha=0.8, beta=0.4)
        first = sampled(seed=7, replicas=R)
        second = sampled(seed=8, replicas=R)
        vals = np.array([chaos_integral(s, params, EPS, kd, sample2=s2).value
                         for s, s2 in zip(first, second)])
        target = f.sum() * GRID.weight
        se = vals.real.std(ddof=1) / math.sqrt(R)
        z = (vals.real.mean() - target) / se
        assert abs(z) <= 4, f"two-field mean identity z = {z}"


class TestTruncation:
    def test_boundary_inclusive(self):
        lam = 1.6
        n_max = 3
        z = np.zeros((n_max + 1, GRID.n))
        z[1:] = lam  # Y_k = k lam exactly
        s = fabricated(np.zeros(4), np.arange(30, 34), n_max=n_max, z=z)
        ok, global_ok = truncation_indicator(s, 1, lam, np.arange(30, 34))
        assert global_ok, "Y_k = k lam must count as inside (<= inclusive)"
        z2 = z.copy()
        z2[1] = lam + 1.0
        s2 = fabricated(np.zeros(4), np.arange(30, 34), n_max=n_max, z=z2)
        ok2, global2 = truncation_indicator(s2, 1, lam, np.arange(30, 34))
        assert not global2

    def test_q_bounds(self):
        s = next(sampled(seed=9))
        with pytest.raises(ValueError):
            truncation_indicator(s, s.n_max + 1, 1.6, np.arange(4))
        with pytest.raises(ValueError):
            truncation_indicator(s, 0, 1.6, np.arange(4))

    def test_truncated_equals_full_on_good_replicas(self):
        f = bump_function(GRID, radius=0.2)
        kd = k_diag()
        q = max(2, q0_for(f, GRID))
        lam = 2.2
        params = ChaosParams(f=f, gamma=0.8, truncation=True, q=q, lam=lam)
        plain = ChaosParams(f=f, gamma=0.8)
        hits = 0
        for s in sampled(seed=10, replicas=64):
            supp = np.flatnonzero(f)
            _, event = truncation_indicator(s, q, lam, supp)
            tv = chaos_integral(s, params, EPS, kd).value
            fv = chaos_integral(s, plain, EPS, kd).value
            if event:
                hits += 1
                assert tv == fv, "truncation must be the identity on the event"
            else:
                assert abs(tv) <= abs(fv) + 1e-12
        assert hits > 0, "no replica satisfied the event; test is vacuous"

    def test_huge_lambda_is_identity(self):
        f = bump_function(GRID, radius=0.2)
        kd = k_diag()
        params = ChaosParams(f=f, gamma=0.8, truncation=True, q=6, lam=50.0)
        plain = ChaosParams(f=f, gamma=0.8)
        s = next(sampled(seed=11))
        assert chaos_integral(s, params, EPS, kd).value == \
            chaos_integral(s, plain, EPS, kd).value


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
