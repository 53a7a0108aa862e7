import math

import numpy as np
import pytest
from scipy.integrate import quad

from logchaos import Bench, Grid, KernelSpec, bump_function
from logchaos.mollifier import (Mollifier, ResolutionError, discrete_stencil,
                                interior_rows, quad_cloud, shrink_domain,
                                theta, theta_eps, weight_matrix)


class TestProfile:
    def test_normalization_constant_d1(self):
        # adaptive quadrature of the unnormalized bump gives 0.443994
        mol = Mollifier(d=1)
        mass, _ = quad(lambda x: math.exp(-1.0 / (1.0 - x * x)), -1.0, 1.0)
        assert abs(mass - 0.443994) < 1e-5
        assert abs(mol.c_d - 1.0 / mass) < 1e-6, f"c_1 = {mol.c_d}"
        assert abs(mol.c_d - 2.25228) < 1e-4

    def test_unit_mass(self):
        for profile in ("bump", "quartic"):
            mol = Mollifier(d=1, profile=profile)
            mass, _ = quad(lambda x: theta(mol, np.array([x]))[()], -1, 1)
            assert abs(mass - 1.0) < 1e-8, f"{profile}: mass {mass}"

    def test_normalization_matches_quad(self):
        # the 128-node Gauss-Legendre c_d against adaptive quadrature of the
        # profile, for both profiles
        for profile in ("bump", "quartic"):
            mol = Mollifier(d=1, profile=profile)
            mass, _ = quad(lambda x: float(mol.radial(abs(x))), -1, 1)
            assert abs(mol.c_d * mass - 1.0) < 1e-14, profile

    def test_d1_only(self):
        with pytest.raises(ValueError, match="d=1 only"):
            Mollifier(d=2)

    def test_support(self):
        mol = Mollifier(d=1)
        assert theta(mol, np.array([1.0])) == 0.0
        assert theta(mol, np.array([-1.3])) == 0.0
        eps = 0.25
        assert theta_eps(mol, eps, np.array([1.2 * eps])) == 0.0
        assert theta_eps(mol, eps, np.array([0.5 * eps])) > 0.0

    def test_theta_eps_scaling(self):
        mol = Mollifier(d=1)
        x = np.array([0.05])
        assert abs(theta_eps(mol, 0.25, x) - 4.0 * theta(mol, x / 0.25)) < 1e-12

    def test_eps_bounds(self):
        mol = Mollifier(d=1)
        with pytest.raises(ValueError):
            theta_eps(mol, 0.0, np.array([0.0]))
        with pytest.raises(ValueError):
            theta_eps(mol, 1.5, np.array([0.0]))

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            Mollifier(d=1, profile="hat")

    def test_profiles_differ(self):
        a = Mollifier(d=1, profile="bump")
        b = Mollifier(d=1, profile="quartic")
        rho = np.linspace(0.0, 0.99, 50)
        ga = a.c_d * a.radial(rho)
        gb = b.c_d * b.radial(rho)
        assert np.abs(ga - gb).max() > 0.05, "profiles are not distinct"


class TestShrinkDomain:
    def test_margin_arithmetic(self):
        dom = shrink_domain((0.0, 1.0), 0.1)
        assert (dom.lo, dom.hi) == (0.2, 0.8)
        assert not dom.empty

    def test_empty_flag(self):
        dom = shrink_domain((0.0, 1.0), 0.3)
        assert dom.empty, "2 eps >= half-width must flag empty"

    def test_nested(self):
        small = shrink_domain((0.0, 1.0), 0.05)
        large = shrink_domain((0.0, 1.0), 0.1)
        assert small.lo <= large.lo and small.hi >= large.hi


class TestStencil:
    def test_resolution_guard(self):
        mol = Mollifier(d=1)
        with pytest.raises(ResolutionError):
            discrete_stencil(mol, 2 ** -5, 2 ** -5)
        # h = eps/4 exactly is allowed
        offs, w = discrete_stencil(mol, 2 ** -5, 2 ** -7)
        assert w.sum() == 1.0

    def test_weights_normalized_nonnegative(self):
        mol = Mollifier(d=1)
        offs, w = discrete_stencil(mol, 0.25, 0.25 / 8)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-15
        # symmetric stencil on ascending steps, one offset per tap
        assert offs.shape == w.shape
        assert np.array_equal(offs, -offs[::-1])
        assert np.all(np.diff(offs) == 1)
        assert np.allclose(w, w[::-1])

    def test_quad_cloud_normalized(self):
        mol = Mollifier(d=1)
        offs, w = quad_cloud(mol, 0.1, nodes_per_axis=16)
        assert offs.shape == w.shape == (16,)
        assert abs(w.sum() - 1.0) < 1e-15
        assert np.all(np.abs(offs) < 0.1) and np.all(np.diff(offs) > 0)


def bench_mollify(grid, mol, eps, field):
    """(rows, X_eps there): Bench.mollify of field on the rows a draw at
    eps holds for a bump test function, the stencil apply of the sampled
    fields."""
    bench = Bench(KernelSpec(d=1), grid, 1, mol=mol,
                  f=bump_function(grid, center=0.5, radius=0.2))
    keys = [("main", eps)]
    draw = bench.draw(keys=keys)
    (x,) = bench.mollify(field[draw.lo:draw.hi + 1, None], keys, draw)
    return bench.supp, x[:, 0]


class TestConvolveGrid:
    def test_constant_exact(self):
        grid = Grid.regular((0.0, 1.0), 128)
        mol = Mollifier(d=1)
        rows, W = weight_matrix(grid, mol, 2 ** -4)
        out = W @ np.full(grid.n, 3.25)
        assert np.abs(out - 3.25).max() < 1e-12, "kernel must sum to one"
        _, x = bench_mollify(grid, mol, 2 ** -4, np.full(grid.n, 3.25))
        assert np.abs(x - 3.25).max() <= 64 * np.finfo(float).eps * 3.25

    def test_linear_exact(self):
        # symmetric stencil kills odd moments
        grid = Grid.regular((0.0, 1.0), 128)
        mol = Mollifier(d=1)
        xs = grid.points[:, 0]
        rows, W = weight_matrix(grid, mol, 2 ** -4)
        out = W @ xs
        assert np.abs(out - xs[rows]).max() < 1e-10
        rows, x = bench_mollify(grid, mol, 2 ** -4, xs)
        assert np.abs(x - xs[rows]).max() <= 64 * np.finfo(float).eps

    def test_smooth_field_vs_fine_stencil_oracle(self):
        # mollify sin(2 pi x) and compare with the same discrete operator
        # built on a 4x finer lattice (the continuum limit surrogate)
        mol = Mollifier(d=1)
        eps = 2 ** -4
        grid = Grid.regular((0.0, 1.0), 256)
        fine = Grid.regular((0.0, 1.0), 1024)
        rows, W = weight_matrix(grid, mol, eps)
        out = W @ np.sin(2 * np.pi * grid.points[:, 0])
        rows_f, W_f = weight_matrix(fine, mol, eps)
        out_f = W_f @ np.sin(2 * np.pi * fine.points[:, 0])
        # compare on the common points: coarse point i sits between fine
        # points; interpolate the fine output linearly
        xc = grid.points[rows, 0]
        xf = fine.points[rows_f, 0]
        interp = np.interp(xc, xf, out_f)
        err = np.abs(out - interp).max()
        assert err < 1e-4, f"coarse vs fine mollification differ by {err}"

    def test_linearity(self):
        grid = Grid.regular((0.0, 1.0), 128)
        mol = Mollifier(d=1)
        rng = np.random.default_rng(7)
        f1 = rng.standard_normal(grid.n)
        f2 = rng.standard_normal(grid.n)
        _, W = weight_matrix(grid, mol, 2 ** -4)
        a, b, c = W @ f1, W @ f2, W @ (f1 + 2.0 * f2)
        assert np.abs(c - (a + 2.0 * b)).max() < 1e-12

    def test_rows_are_interior(self):
        grid = Grid.regular((0.0, 1.0), 128)
        mol = Mollifier(d=1)
        eps = 2 ** -4
        rows, W = weight_matrix(grid, mol, eps)
        pts = grid.points[rows, 0]
        assert pts.min() > 2 * eps and pts.max() < 1 - 2 * eps
        assert np.abs(W.sum(axis=1) - 1.0).max() < 1e-14

    def test_profile_difference_shrinks(self):
        # two mollifiers applied to one fixed smooth field: sup difference
        # decays along the eps ladder
        grid = Grid.regular((0.0, 1.0), 1024)
        f = np.sin(2 * np.pi * grid.points[:, 0])
        a = Mollifier(d=1, profile="bump")
        b = Mollifier(d=1, profile="quartic")
        sups = []
        for k in (3, 4, 5, 6):
            eps = 2.0 ** -k
            _, W_a = weight_matrix(grid, a, eps)
            _, W_b = weight_matrix(grid, b, eps)
            va, vb = W_a @ f, W_b @ f
            sups.append(np.abs(va - vb).max())
        assert sups[-1] < sups[0], f"no decay: {sups}"
        assert sups[-1] < 0.01

    @staticmethod
    def _offset_loop(grid, mol, eps):
        # W as built before the band write: one fancy-index add per offset
        rows = interior_rows(grid, eps)
        offs, w = discrete_stencil(mol, eps, grid.h)
        multi = np.stack(np.unravel_index(rows, grid.shape), axis=-1)
        W = np.zeros((rows.size, grid.n))
        arange = np.arange(rows.size)
        for off, wt in zip(offs, w):
            cols = np.ravel_multi_index(tuple((multi + off).T), grid.shape)
            W[arange, cols] += wt
        return rows, W

    # the leading 1 is the dimension d, the only one mollifiers implement
    @pytest.mark.parametrize("d,n,eps,profile", [
        (1, 512, 2 ** -4, "bump"),
        (1, 2048, 2 ** -7, "bump"),
        (1, 2048, 0.1, "quartic"),
        (1, 64, 0.3, "bump"),
    ])
    def test_band_write_matches_offset_loop(self, d, n, eps, profile):
        grid = Grid.regular((0.0, 1.0), n)
        mol = Mollifier(d=d, profile=profile)
        rows, W = weight_matrix(grid, mol, eps)
        rows_o, W_o = self._offset_loop(grid, mol, eps)
        assert np.array_equal(rows, rows_o)
        assert np.array_equal(W, W_o)
