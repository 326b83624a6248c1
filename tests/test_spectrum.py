"""Level energies, branch mixing, Taylor scales and parameter validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_cyclotron import (
    B_CRITICAL_TESLA,
    TIME_UNIT_SECONDS,
    ModeIndex,
    ModelParams,
    branch_coefficients,
    derived_scales,
    fractional_revival_count,
    phi,
    phi_taylor2,
)
from dirac_cyclotron.spectrum import taylor_at


class TestPhi:
    def test_ground_level_is_rest_energy(self):
        p = ModelParams(lambda_over_a=0.3, qa=4.0)
        assert phi(0, p) == 1.0

    def test_known_value(self):
        # phi_50 = sqrt(1 + 2*50*0.25) = sqrt(26) for lambda/a = 1/2
        p = ModelParams(lambda_over_a=0.5, qa=10.0)
        assert phi(50, p) == pytest.approx(math.sqrt(26.0), abs=1e-15)

    def test_monotone_in_n(self):
        p = ModelParams(lambda_over_a=0.2, qa=5.0)
        vals = phi(np.arange(200), p)
        assert np.all(np.diff(vals) > 0)

    def test_scalar_and_array_forms_agree(self):
        p = ModelParams(lambda_over_a=0.2, qa=5.0)
        assert isinstance(phi(3, p), float)
        np.testing.assert_allclose(phi(np.array([3]), p)[0], phi(3, p))

    def test_negative_index_rejected(self):
        p = ModelParams(lambda_over_a=0.2, qa=5.0)
        with pytest.raises(ValueError):
            phi(-1, p)


class TestBranchCoefficients:
    @given(
        n=st.integers(min_value=0, max_value=500),
        la=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_identities(self, n, la):
        p = ModelParams(lambda_over_a=la, qa=3.0)
        d, b = branch_coefficients(n, p)
        assert d**2 + b**2 == pytest.approx(1.0, abs=1e-12)
        assert d**2 - b**2 == pytest.approx(1.0 / phi(n, p), abs=1e-12)

    def test_ground_level_is_pure(self):
        p = ModelParams(lambda_over_a=0.4, qa=3.0)
        d, b = branch_coefficients(0, p)
        assert d == 1.0 and b == 0.0


class TestTaylor:
    def test_derivatives_match_finite_differences(self):
        p = ModelParams(lambda_over_a=0.5, qa=10.0)
        n_c = 37.0
        p0, dp, ddp = taylor_at(n_c, p)
        h = 1e-3
        fd1 = (phi(n_c + h, p) - phi(n_c - h, p)) / (2 * h)
        fd2 = (phi(n_c + h, p) - 2 * phi(n_c, p) + phi(n_c - h, p)) / h**2
        assert p0 == pytest.approx(phi(n_c, p), rel=1e-14)
        assert dp == pytest.approx(fd1, rel=1e-8)
        assert ddp == pytest.approx(fd2, rel=1e-4)

    def test_default_center_is_real_n0(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        sc = derived_scales(p)
        assert sc.n0_real == 12.5
        assert (sc.phi0, sc.dphi, sc.ddphi) == taylor_at(12.5, p)

    def test_quadratic_truncation_exact_at_center(self):
        p = ModelParams(lambda_over_a=0.5, qa=10.0)
        assert phi_taylor2(p.n0_real, p) == pytest.approx(phi(p.n0_real, p), rel=1e-15)

    def test_truncation_error_grows_with_distance(self):
        # the cubic remainder makes the error asymmetric about n0, so check
        # each side of the center separately
        p = ModelParams(lambda_over_a=0.5, qa=10.0)
        above = np.arange(50, 71)
        below = np.arange(50, 29, -1)
        for side in (above, below):
            err = np.abs(phi_taylor2(side, p) - phi(side, p))
            assert np.all(np.diff(err) >= -1e-12)

    def test_integer_center_variant(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)  # n0_real = 12.5, n0 = 12
        assert phi_taylor2(12, p, n_center=12) == pytest.approx(phi(12, p), rel=1e-15)
        assert phi_taylor2(12, p) != pytest.approx(phi(12, p), rel=1e-9)

    def test_requires_qa_at_least_one(self):
        with pytest.raises(ValueError):
            derived_scales(ModelParams(lambda_over_a=0.1, qa=0.5))

    def test_params_require_qa_at_least_one(self):
        # ModelParams owns the rule, so no packet below qa = 1 is ever built
        with pytest.raises(ValueError, match="qa >= 1"):
            ModelParams(lambda_over_a=0.1, qa=0.5)
        ModelParams(lambda_over_a=0.1, qa=1.0)


class TestDerivedScales:
    def test_scale_relations(self):
        p = ModelParams(lambda_over_a=0.5, qa=10.0)
        sc = derived_scales(p)
        assert sc.T_cl == pytest.approx(2 * math.pi / sc.dphi)
        assert sc.T_R == pytest.approx(4 * math.pi / abs(sc.ddphi))
        # T_R / T_D = 2 pi qa for this spectrum
        assert sc.T_R / sc.T_D == pytest.approx(2 * math.pi * p.qa, rel=1e-12)
        assert sc.omega_c == pytest.approx(sc.dphi)
        assert sc.omega_zb == pytest.approx(2 * sc.phi0)

    def test_scale_ordering(self):
        sc = derived_scales(ModelParams(lambda_over_a=0.1, qa=5.0))
        assert sc.T_cl < sc.T_D < sc.T_R

    def test_field_strength_conversion(self):
        sc = derived_scales(ModelParams(lambda_over_a=0.1, qa=5.0))
        assert sc.B_tesla == pytest.approx(0.01 * B_CRITICAL_TESLA)

    def test_time_unit_magnitude(self):
        # lambda/c for the electron is ~1.3e-21 s
        assert 1e-21 < TIME_UNIT_SECONDS < 2e-21


class TestFractionalRevivalCount:
    @pytest.mark.parametrize(
        "m,n,expected", [(1, 2, 1), (1, 3, 3), (1, 4, 2), (3, 4, 2), (1, 5, 5), (1, 6, 3)]
    )
    def test_known_counts(self, m, n, expected):
        assert fractional_revival_count(m, n) == expected

    def test_reducible_fraction_rejected(self):
        with pytest.raises(ValueError):
            fractional_revival_count(2, 4)

    def test_bad_denominator_rejected(self):
        with pytest.raises(ValueError):
            fractional_revival_count(1, 0)


class TestModelParams:
    def test_n0_rounding(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        assert p.n0_real == 12.5
        assert p.n0 == 12
        p2 = ModelParams(lambda_over_a=0.5, qa=10.0)
        assert p2.n0_real == 50.0 and p2.n0 == 50

    def test_weight_norm(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0, alpha=3.0, beta=4.0)
        assert p.weight_norm == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lambda_over_a=0.0, qa=5.0),
            dict(lambda_over_a=0.1, qa=-1.0),
            dict(lambda_over_a=0.1, qa=5.0, alpha=0.0, beta=0.0),
            dict(lambda_over_a=0.1, qa=5.0, trunc_tol=0.0),
            dict(lambda_over_a=math.inf, qa=5.0),
            dict(lambda_over_a=0.1, qa=math.inf),
            dict(lambda_over_a=0.1, qa=5.0, alpha=math.nan),
            dict(lambda_over_a=0.1, qa=5.0, beta=-math.inf),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestModeIndex:
    def test_allowed_ranges(self):
        ModeIndex(1, +1, +1)
        ModeIndex(0, -1, +1)
        ModeIndex(0, +1, -1)
        ModeIndex(1, -1, -1)

    @pytest.mark.parametrize(
        "n,s,lam", [(0, +1, +1), (0, -1, -1), (-1, +1, -1), (2, 0, +1), (2, +1, 2)]
    )
    def test_invalid_labels_rejected(self, n, s, lam):
        with pytest.raises(ValueError):
            ModeIndex(n, s, lam)
