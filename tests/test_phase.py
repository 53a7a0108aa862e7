import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logchaos import (BOUNDARY, L2, LABELS, PHASE_II, PHASE_III, SUBCRITICAL,
                      PhaseError, classify, pick_lambda, scan)


class TestClassify:
    def test_reference_points(self):
        assert classify(2, 1.0, 0.5) == L2, "1.25 < 2"
        assert classify(1, 1.1, 0.25) == SUBCRITICAL
        assert classify(1, 0.5, 1.2) == PHASE_III
        assert classify(1, 1.2, 0.5) == PHASE_II
        assert classify(1, 0.0, 0.0) == L2

    def test_boundary_seams(self):
        # exact seam points get the boundary label, not a phase; note the
        # L2 circle inside the subcritical lens is NOT a seam (the non-L2
        # region is closed on that side, e.g. (1.0, 0) at d=1)
        assert classify(1, 1.0, 0.0) == SUBCRITICAL
        r = math.sqrt(0.5)
        assert classify(1, r, r) == BOUNDARY  # alpha wall meets diagonal
        assert classify(1, math.sqrt(2) - 0.3, 0.3) == BOUNDARY  # diagonal
        assert classify(1, 0.5, math.sqrt(0.75)) == BOUNDARY  # circle, III side

    def test_boundary_tolerance(self):
        # within 1e-12 of the alpha wall counts as boundary; 1e-6 away does not
        wall = math.sqrt(0.5)
        assert classify(1, wall + 1e-13, 1.2) == BOUNDARY
        assert classify(1, wall + 1e-6, 1.2) == PHASE_II
        assert classify(1, wall - 1e-6, 1.2) == PHASE_III
        assert classify(1, 0.9, 0.1) == L2

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            classify(3, 0.5, 0.5)

    def test_extreme_numpy_inputs_silent(self):
        # phase-scan hands classify numpy scalars; at +-1e308 a * a + b * b
        # overflows to inf, which must neither warn nor change the label
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (1e308, -1e308, 0.0):
                for b in (1e308, -1e308, 0.0):
                    lab = classify(1, np.float64(a), np.float64(b))
                    assert lab == classify(1, a, b)
            with pytest.raises(PhaseError):
                pick_lambda(1, np.float64(1e308), np.float64(-1e308))

    @given(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))
    @settings(max_examples=80, deadline=None)
    def test_sign_symmetry(self, a, b):
        lab = classify(1, a, b)
        assert classify(1, -a, b) == lab
        assert classify(1, a, -b) == lab
        assert classify(1, -a, -b) == lab


class TestPickLambda:
    def test_spec_points(self):
        lam = pick_lambda(1, 1.0, 0.2)
        assert abs(lam - 1.56569) < 1e-5, f"midpoint {lam}"
        lam0 = pick_lambda(1, 1.0, 0.0)
        assert abs(lam0 - 1.70711) < 1e-5

    def test_interval_arithmetic(self):
        # d=1, alpha=1.0, beta=0.2: upper endpoint 2 - sqrt(2*0.04)
        lo = math.sqrt(2.0)
        hi = 2.0 - math.sqrt(2.0 * (1.0 + 0.04 - 1.0))
        assert abs(pick_lambda(1, 1.0, 0.2) - 0.5 * (lo + hi)) < 1e-12

    def test_constraints_hold_strictly(self):
        d = 1
        lam = pick_lambda(d, 1.1, 0.25)
        assert math.sqrt(2 * d) < lam < 2 * 1.1
        assert d + (2 * 1.1 - lam) ** 2 / 2 > 1.1 ** 2 + 0.25 ** 2

    def test_wrong_phase_rejected(self):
        with pytest.raises(PhaseError):
            pick_lambda(1, 0.6, 0.1)  # L2 region
        with pytest.raises(PhaseError):
            pick_lambda(1, 1.2, 0.5)  # glassy

    def test_substitution_scan(self):
        # every subcritical point of a 100x100 scan admits a valid lambda
        alphas = np.linspace(-2.5, 2.5, 100)
        betas = np.linspace(-2.5, 2.5, 100)
        checked = 0
        for d in (1, 2):
            labels = scan(d, alphas, betas)
            for i, a in enumerate(alphas):
                for j, b in enumerate(betas):
                    if labels[i, j] != SUBCRITICAL:
                        continue
                    lam = pick_lambda(d, a, b)
                    aa = abs(a)
                    assert math.sqrt(2 * d) < lam < 2 * aa, (d, a, b, lam)
                    assert d + (2 * aa - lam) ** 2 / 2 > a * a + b * b, \
                        (d, a, b, lam)
                    checked += 1
        assert checked > 100, f"only {checked} subcritical points scanned"


class TestScan:
    def test_full_coverage_200(self):
        alphas = np.linspace(-2.5, 2.5, 200)
        betas = np.linspace(-2.5, 2.5, 200)
        labels = scan(1, alphas, betas)
        assert labels.shape == (200, 200)
        known = set(LABELS)
        bad = [(i, j) for i in range(200) for j in range(200)
               if labels[i, j] not in known]
        assert not bad, f"unlabeled points: {bad[:5]}"

    def test_partition_is_function_of_point(self):
        alphas = np.linspace(-2.0, 2.0, 21)
        betas = np.linspace(-2.0, 2.0, 21)
        labels = scan(1, alphas, betas)
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                assert labels[i, j] == classify(1, a, b)
