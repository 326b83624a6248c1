"""Closed-form fields vs the mode-sum engine, grids, revivals and cat states."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_cyclotron import (
    ModeSet,
    ModelParams,
    PolarGrid,
    build_mode_set,
    cat_decomposition,
    cat_overlap_closed_form,
    classical_density,
    classical_field,
    coherent_ground_state,
    default_grid,
    derived_scales,
    fractional_revival_count,
    fractional_revival_field,
    gauss_sum_coefficients,
    jc_field,
    levels,
    mode_sum_field,
    normalized_fidelity,
    polar_to_xy,
    positive_energy_field,
    q_kernel,
    spin_density,
)
from dirac_cyclotron.fields import envelope_prefactor
from dirac_cyclotron.spectrum import taylor_at


@pytest.fixture(scope="module")
def small_grid(set1):
    return PolarGrid(rho_max=set1.qa + 6.0, n_rho=40, n_theta=48)


class TestPolarGrid:
    def test_weights_integrate_area(self):
        g = PolarGrid(rho_max=3.0, n_rho=200, n_theta=64)
        area = g.integrate(np.ones((g.n_rho, g.n_theta)))
        assert area == pytest.approx(math.pi * 9.0, rel=1e-4)

    def test_gaussian_norm(self):
        # trapezoid in rho: second-order convergence towards the exact integral
        g = PolarGrid(rho_max=12.0, n_rho=2000, n_theta=32)
        rr, _ = g.mesh()
        val = g.integrate(np.exp(-(rr**2)) / math.pi)
        assert val == pytest.approx(1.0, abs=1e-5)

    def test_complex_integrand_returns_scalar(self):
        g = PolarGrid(rho_max=2.0, n_rho=30, n_theta=16)
        out = g.integrate(np.full((30, 16), 1.0 + 1.0j))
        assert isinstance(out, complex)

    @pytest.mark.parametrize(
        "rho_max, n_rho, n_theta, fragment",
        [
            (5.0, 1, 4, "n_rho must be >= 2"),
            (5.0, 4, 0, "n_theta must be >= 1"),
            (0.0, 4, 4, "rho_max must be positive and finite"),
            (-11.0, 120, 256, "rho_max must be positive and finite"),
            (math.nan, 4, 4, "rho_max must be positive and finite"),
            (math.inf, 4, 4, "rho_max must be positive and finite"),
        ],
        ids=["n_rho_1", "n_theta_0", "rho_max_0", "rho_max_negative", "rho_max_nan",
             "rho_max_inf"],
    )
    def test_degenerate_grid_rejected(self, rho_max, n_rho, n_theta, fragment):
        # unchecked, these divide by zero in weights, integrate to NaN or
        # integrate a mirrored grid
        with pytest.raises(ValueError, match=fragment):
            PolarGrid(rho_max=rho_max, n_rho=n_rho, n_theta=n_theta)

    def test_polar_to_xy_orbit_geometry(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0)
        # theta = pi points from the guiding centre back to the origin
        x, y = polar_to_xy(p.qa, math.pi, p)
        assert float(x) == pytest.approx(0.0, abs=1e-12)
        assert float(y) == pytest.approx(0.0, abs=1e-12)


class TestClosedFormVsModeSum:
    def test_positive_band_field(self, set1, small_grid):
        rr, tt = small_grid.mesh()
        ms = build_mode_set("positive_only", set1)
        for tau in (0.0, 37.0, 412.0):
            a = positive_energy_field(rr, tt, tau, set1)
            b = mode_sum_field(rr, tt, tau, ms, set1)
            assert float(np.max(np.abs(a - b))) < 1e-10

    def test_two_band_field(self, set2):
        g = PolarGrid(rho_max=set2.qa + 6.0, n_rho=40, n_theta=48)
        rr, tt = g.mesh()
        ms = build_mode_set("two_band", set2)
        for tau in (0.0, 3.3, 61.0):
            a = jc_field(rr, tt, tau, set2)
            b = mode_sum_field(rr, tt, tau, ms, set2)
            assert float(np.max(np.abs(a - b))) < 1e-10

    def test_unit_norm_on_grid(self, set1):
        g = default_grid(set1)
        rr, tt = g.mesh()
        for tau in (0.0, 100.0):
            psi = positive_energy_field(rr, tt, tau, set1)
            n = float(g.integrate(np.sum(np.abs(psi) ** 2, axis=0)))
            assert n == pytest.approx(1.0, abs=1e-6)

    def test_jc_component_reduces_to_coherent_state(self, set1, small_grid):
        rr, tt = small_grid.mesh()
        psi1, zero1, zero2, psi2 = jc_field(rr, tt, 0.0, set1)
        assert float(np.max(np.abs(psi1 - coherent_ground_state(rr, tt, set1)))) < 1e-5
        assert float(np.max(np.abs(psi2))) == 0.0
        assert not np.any(zero1) and not np.any(zero2)

    def test_envelope_prefactor_modulus(self, set1):
        # |M|^2 = exp(-(rho^2 + qa^2)/2) / (2 pi)
        rho, theta = 2.0, 1.1
        m = envelope_prefactor(rho, theta, set1)
        expected = math.exp(-(rho**2 + set1.qa**2) / 2.0) / (2.0 * math.pi)
        assert abs(m) ** 2 == pytest.approx(expected, rel=1e-12)


class TestClassicalField:
    def test_matches_exact_packet_at_early_times(self, set1, small_grid):
        rr, tt = small_grid.mesh()
        sc = derived_scales(set1)
        for tau in (0.0, 0.2 * sc.T_cl):
            a = positive_energy_field(rr, tt, tau, set1)
            b = classical_field(rr, tt, tau, set1)
            assert normalized_fidelity(a, b, small_grid) > 0.99

    def test_density_closed_form_matches_field(self, set1, small_grid):
        rr, tt = small_grid.mesh()
        sc = derived_scales(set1)
        psi = classical_field(rr, tt, 0.3 * sc.T_cl, set1)
        dens = np.sum(np.abs(psi) ** 2, axis=0)
        np.testing.assert_allclose(dens, classical_density(rr, tt, 0.3 * sc.T_cl, set1), atol=1e-13)

    def test_density_requires_equal_weights(self, set1):
        p = ModelParams(lambda_over_a=0.1, qa=5.0, alpha=1.0, beta=2.0)
        with pytest.raises(ValueError):
            classical_density(1.0, 0.0, 0.0, p)

    def test_rigid_rotation_of_density_centre(self, set1, small_grid):
        # after a quarter period the blob centre has moved from theta = pi
        # to theta = pi/2
        rr, tt = small_grid.mesh()
        _, dp, _ = taylor_at(set1.n0, set1)
        t_cl = 2.0 * math.pi / dp
        dens = classical_density(rr, tt, 0.25 * t_cl, set1)
        i, j = np.unravel_index(np.argmax(dens), dens.shape)
        assert rr[i, j] == pytest.approx(set1.qa, abs=0.3)
        assert tt[i, j] == pytest.approx(0.5 * math.pi, abs=0.2)


class TestGaussSums:
    @given(
        n=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_unitarity(self, n, m):
        if math.gcd(m, n) != 1:
            return
        period, p = gauss_sum_coefficients(m, n)
        assert 1 <= period <= 2 * n
        assert float(np.sum(np.abs(p) ** 2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (1, 4), (3, 4), (1, 5)])
    def test_subpacket_count(self, m, n):
        _, p = gauss_sum_coefficients(m, n)
        n_sub = int(np.sum(np.abs(p) > 1e-12))
        assert n_sub == fractional_revival_count(m, n)

    def test_half_revival_is_single_shifted_packet(self):
        period, p = gauss_sum_coefficients(1, 2)
        assert period == 2
        nonzero = np.flatnonzero(np.abs(p) > 1e-12)
        assert list(nonzero) == [1]  # pure half-cyclotron-period shift
        assert abs(p[1]) == pytest.approx(1.0, abs=1e-12)

    def test_reducible_fraction_rejected(self):
        with pytest.raises(ValueError):
            gauss_sum_coefficients(2, 4)

    def test_period_is_the_searched_period(self):
        # the closed form l = n/2 (4 | n) or n is the least l > 0 with
        # f_{k+l} = f_k for every k, i.e. n | 2ml and n | ml^2
        for n in range(1, 9):
            for m in range(-16, 17):
                if math.gcd(m, n) != 1:
                    continue
                searched = next(l for l in range(1, 2 * n + 1)
                                if (2 * m * l) % n == 0 and (m * l * l) % n == 0)
                period, p = gauss_sum_coefficients(m, n)
                assert (period, len(p)) == (searched, searched), (m, n)

    def test_denominator_above_eight_rejected(self):
        with pytest.raises(ValueError, match="n <= 8"):
            gauss_sum_coefficients(1, 9)

    @pytest.mark.parametrize("n", [0, -3])
    def test_denominator_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            gauss_sum_coefficients(1, n)


# Every irreducible m/n with 2 <= n <= 8.  ROADMAP item 7: sub-packet j keeps
# the global phase e^{-i phi_0 j T_cl/l} of its shifted time, a ramp the Gauss
# sum leaves out, so at SET1 (R/2 = 124) only n = 2, 4 and 8 are right today.
FRACTIONS = [
    pytest.param(m, n, marks=() if n in (2, 4, 8) else pytest.mark.xfail(
        strict=True, reason="ROADMAP item 7: sub-packet phase ramp"))
    for n in range(2, 9) for m in range(1, n) if math.gcd(m, n) == 1
]


class TestFractionalRevivalField:
    @pytest.mark.parametrize("m, n", FRACTIONS)
    def test_matches_the_mode_sum(self, set1, m, n):
        g = default_grid(set1, 60, 128)
        rr, tt = g.mesh()
        _, _, ddp = taylor_at(set1.n0, set1)
        tau = m * (4.0 * math.pi / abs(ddp)) / n
        modes = build_mode_set("positive_only", set1)
        want = mode_sum_field(rr, tt, tau, modes, set1, "taylor2_integer")
        got = fractional_revival_field(rr, tt, tau, m, n, set1)
        assert normalized_fidelity(got, want, g) ** 2 >= 0.999

    def test_half_revival_reduces_to_classical(self, set1, small_grid):
        rr, tt = small_grid.mesh()
        _, dp, ddp = taylor_at(set1.n0, set1)
        t_r = 4.0 * math.pi / abs(ddp)
        t_cl = 2.0 * math.pi / dp
        a = fractional_revival_field(rr, tt, 0.5 * t_r, 1, 2, set1)
        b = classical_field(rr, tt, 0.5 * t_r + 0.5 * t_cl, set1)
        assert float(np.max(np.abs(np.abs(a) - np.abs(b)))) < 1e-12

    def test_manual_superposition(self, set1, small_grid):
        rr, tt = small_grid.mesh()
        _, dp, ddp = taylor_at(set1.n0, set1)
        t_r = 4.0 * math.pi / abs(ddp)
        t_cl = 2.0 * math.pi / dp
        tau = 0.25 * t_r
        period, p = gauss_sum_coefficients(1, 4)
        manual = sum(
            p[j] * classical_field(rr, tt, tau + j * t_cl / period, set1)
            for j in range(period)
        )
        auto = fractional_revival_field(rr, tt, tau, 1, 4, set1)
        assert float(np.max(np.abs(auto - manual))) < 1e-12

    def test_unsupported_denominator_rejected(self, set1):
        with pytest.raises(ValueError):
            fractional_revival_field(1.0, 0.0, 0.0, 1, 9, set1)


class TestCatDecomposition:
    def test_components_parallel_at_start(self, set2):
        _, _, overlap = cat_decomposition(0.0, set2)
        assert overlap == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period_overlap_closed_form(self, set2):
        _, dp, _ = taylor_at(set2.n0, set2)
        t_cl = 2.0 * math.pi / dp
        _, _, overlap = cat_decomposition(0.25 * t_cl, set2)
        assert overlap == pytest.approx(cat_overlap_closed_form(set2), abs=1e-12)

    def test_spin_factors_stay_normalized(self, set2):
        for tau in (0.0, 10.0, 100.0):
            sp, sm, _ = cat_decomposition(tau, set2)
            assert float(np.vdot(sp, sp).real) == pytest.approx(1.0, abs=1e-12)
            assert float(np.vdot(sm, sm).real) == pytest.approx(1.0, abs=1e-12)

    def test_spin_factors_of_each_band_field(self, set2):
        # Each band of the two-band packet, evolved by the mode sum, carries the
        # spin factor of its counter-rotating component: the top eigenvector of
        # its spin density matrix M = int psi psi^dagger dA.  Mismatches read
        # below 5e-6 and the overlap within 2e-3 of the closed form up to T_cl/4,
        # the same on 40x64, 60x96 and 120x256 grids.
        grid = PolarGrid(rho_max=set2.qa + 6.0, n_rho=40, n_theta=64)
        rr, tt = grid.mesh()
        taus = np.array([0.0, 0.125, 0.25]) * derived_scales(set2).T_cl
        entries = build_mode_set("two_band", set2).entries
        top, weight = {}, {}
        for s in (+1, -1):
            band = ModeSet(tuple(e for e in entries if e[0].s == s))
            psi = mode_sum_field(rr, tt, taus, band, set2)
            m = grid.integrate(psi[:, :, None] * psi[:, None, :].conj())
            top[s] = np.linalg.eigh(m)[1][..., -1]
            weight[s] = np.trace(m, axis1=1, axis2=2).real
        table = levels(set2)
        ks = range(table.window.n_min, table.window.n_max + 1)
        for s, factor in ((+1, table.d), (-1, table.b)):
            expected = math.fsum(table.c[k] ** 2 * factor[k] ** 2 for k in ks)
            assert weight[s] == pytest.approx(expected, abs=1e-6)
        for i, tau in enumerate(taus.tolist()):
            chi_plus, chi_minus, overlap = cat_decomposition(tau, set2)
            assert abs(np.vdot(top[+1][i], chi_plus)) >= 1.0 - 1e-4
            assert abs(np.vdot(top[-1][i], chi_minus)) >= 1.0 - 1e-4
            assert abs(np.vdot(top[+1][i], top[-1][i])) == pytest.approx(overlap, abs=5e-3)


# Every map kernel the CLI calls, as it calls it; each returns a tuple of
# arrays over the grid.  "jc_spinor" is the two-band 4-spinor of jc_field.
MAP_KERNELS = {
    "spin_density": spin_density,
    "positive_energy_field": lambda r, t, tau, p: (positive_energy_field(r, t, tau, p),),
    "jc_spinor": lambda r, t, tau, p: (jc_field(r, t, tau, p),),
    "classical_field": lambda r, t, tau, p: (classical_field(r, t, tau, p),),
    "fractional_1_3": lambda r, t, tau, p: (fractional_revival_field(r, t, tau, 1, 3, p),),
    # period 7, the most sub-packets of any n <= 8
    "fractional_2_7": lambda r, t, tau, p: (fractional_revival_field(r, t, tau, 2, 7, p),),
    "mode_sum_taylor2": lambda r, t, tau, p: (
        mode_sum_field(r, t, tau, build_mode_set("positive_only", p), p, "taylor2"),
    ),
}


# the packets of the map byte checks: alpha = beta, alpha != beta, alpha = 0
MAP_PARAMS = {
    "set1": ModelParams(lambda_over_a=0.1, qa=5.0),
    "set2_alpha_ne_beta": ModelParams(lambda_over_a=0.5, qa=10.0, alpha=1.5, beta=0.5),
    "qa1_alpha0": ModelParams(lambda_over_a=0.3, qa=1.0, alpha=0.0, beta=1.0),
}


def map_digest(kernel: str, n_rho: int, n_theta: int) -> str:
    """sha256 of a map kernel's arrays on grid axes, over MAP_PARAMS and two taus."""
    digest = hashlib.sha256()
    for params in MAP_PARAMS.values():
        g = PolarGrid(rho_max=params.qa + 6.0, n_rho=n_rho, n_theta=n_theta)
        for tau in (0.0, 123.4):
            for a in MAP_KERNELS[kernel](*np.ix_(g.rho, g.theta), tau, params):
                digest.update(a.tobytes())
    return digest.hexdigest()


# map_digest of every map kernel, recorded before the kernels summed their
# series in row blocks.  Both grids are above numpy's 256 KiB temporary-
# elision threshold, which the 17x19 grids never reach: the default grid is
# two blocks (64 + 56 rows) and 131x257 three ragged ones (63 + 63 + 5).
MAP_SHA256 = {
    ("spin_density", 120, 256): "7ec2fd80888cdbcceee44371d6cd343d2ad6d2ae1952e8b011b644a656e3ea7f",
    ("spin_density", 131, 257): "0e8e8e62bb7b18bb105e6d16b6492fcc9fa2e6e930f81260e9ff73fcd3d1a0b5",
    ("positive_energy_field", 120, 256): "ddc8c0c21a516c1489690423280ed43b066f444bb2e86c6af756a912f3550cdc",
    ("positive_energy_field", 131, 257): "4090f12ea0dcae899330a36ec408aa010b0459e944df82f95f2349a7dd84fd46",
    ("jc_spinor", 120, 256): "732b7ac6d8b1a21ef3998c5dd8e3b92f15b93e974cbf9fbf57adee19455775b9",
    ("jc_spinor", 131, 257): "ef7d3797c16ec3a079d887040f084b9bd1aaecb31e1ba47892b9b7c24d28863a",
    ("classical_field", 120, 256): "a74c430ec359791e3664dea4d1e67cae6693d00fa7458e0ebe11cdd968f25176",
    ("classical_field", 131, 257): "9624a5b837497a543cdb07b714d6fd473898bed61b95db9a22d890d1d4bc73ba",
    ("fractional_1_3", 120, 256): "ffc45c9cafa72afad8ed58414e26f6a2354ec88aac8482c762ff9e87ad82316c",
    ("fractional_1_3", 131, 257): "abef6e5ab556be5081dfb59b506f8abd5d581a769cfd9608f891476e39f6de81",
    ("fractional_2_7", 120, 256): "34eb8ecbff3e2fc39844f412a86b2d9f3575db6e6cc486084b0d20a7da6a194d",
    ("fractional_2_7", 131, 257): "6b6899df051d1064193fb8746e9750d7656db979d78bba59418a68ad1b74988b",
    ("mode_sum_taylor2", 120, 256): "2002814262dd0fb492ab0a23cef1ae5d7350f406b6cf05575a5795192f9ab792",
    ("mode_sum_taylor2", 131, 257): "96d0602299a0bfad231294c631814b52814aa68688fd7f90070cfe61120fd32e",
}


class TestAxisInput:
    @pytest.mark.parametrize("params", list(MAP_PARAMS.values()), ids=list(MAP_PARAMS))
    @pytest.mark.parametrize("tau", [0.0, 123.4])
    @pytest.mark.parametrize("kernel", MAP_KERNELS)
    def test_axes_give_the_bits_of_the_mesh(self, kernel, params, tau):
        # odd sizes leave SIMD remainders on both axes; rho[0] = 0 is the
        # branch point of the level powers; 131x257 is three row blocks
        for n_rho, n_theta in ((17, 19), (131, 257)):
            g = PolarGrid(rho_max=params.qa + 6.0, n_rho=n_rho, n_theta=n_theta)
            got = MAP_KERNELS[kernel](*np.ix_(g.rho, g.theta), tau, params)
            want = MAP_KERNELS[kernel](*g.mesh(), tau, params)
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape
                assert a.shape[-2:] == (g.n_rho, g.n_theta)
                assert a.tobytes() == b.tobytes()
        # a node's bits do not depend on the grid around it: the 17x19 corner
        # of the 131x257 call is a call on those 17x19 nodes alone
        corner = MAP_KERNELS[kernel](*np.ix_(g.rho[:17], g.theta[:19]), tau, params)
        for a, b in zip(got, corner, strict=True):
            assert a[..., :17, :19].tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_rho, n_theta", [(120, 256), (131, 257)])
    @pytest.mark.parametrize("kernel", MAP_KERNELS)
    def test_bytes_above_the_elision_threshold(self, kernel, n_rho, n_theta):
        assert map_digest(kernel, n_rho, n_theta) == MAP_SHA256[kernel, n_rho, n_theta]


    # with each block's buffers alive until the next block's were made,
    # these calls peaked at 9.0, 6.3 and 4.7 MiB; positive_energy_field then
    # read 6.6 MiB with a stacked copy of its result, and fractional_1_3
    # 7.6 MiB with a classical_field stack per sub-packet and block
    @pytest.mark.parametrize("kernel, packet, bound_mib", [
        ("positive_energy_field", "set1", 5.75), ("spin_density", "set2", 5.5),
        ("jc_spinor", "set2", 4.5), ("fractional_1_3", "set1", 6.0)])
    def test_axes_call_peak(self, request, kernel, packet, bound_mib):
        params = request.getfixturevalue(packet)
        g = PolarGrid(rho_max=params.qa + 6.0, n_rho=120, n_theta=256)
        axes = np.ix_(g.rho, g.theta)
        MAP_KERNELS[kernel](*axes, 12.3, params)  # the level table is built once and cached
        tracemalloc.start()
        try:
            MAP_KERNELS[kernel](*axes, 12.3, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


# point_digest() as recorded once positive_energy_field's points took its
# grid's in-place prefactor product
POINT_SHA256 = "8ef5a7172833704145410f98cb5a2fe48fe01176b52da4651af4a4f49b38f7ab"


def point_digest() -> str:
    """sha256 of the level-power kernels called point by point (0-d inputs)
    and on one 1-D axis of the same points, over MAP_PARAMS and two taus.

    rho = 0 is the branch point of every level power: w = x = u = 0 there.
    """
    digest = hashlib.sha256()
    for params in MAP_PARAMS.values():
        rho = np.repeat([0.0, 0.5, params.qa, params.qa + 6.0], 3)
        theta = np.tile([0.0, 0.3, math.pi], 4)
        calls = [lambda r, t, k=k: (q_kernel(k, *polar_to_xy(r, t, params), params),)
                 for k in range(6)]
        for tau in (7.0, 123.4):
            calls += [
                lambda r, t, tau=tau: (positive_energy_field(r, t, tau, params),),
                lambda r, t, tau=tau: (jc_field(r, t, tau, params),),
                lambda r, t, tau=tau: spin_density(r, t, tau, params),
            ]
        for call in calls:
            points = [call(r, t) for r, t in zip(rho.tolist(), theta.tolist())]
            for a in (*(a for p in points for a in p), *call(rho, theta)):
                digest.update(np.asarray(a).tobytes())
    return digest.hexdigest()


class TestPointInput:
    @pytest.mark.filterwarnings("error")
    def test_points_and_axis_bytes_pinned(self):
        # set2_alpha_ne_beta's window starts at n_min = 10, so its 0-d calls
        # seed the level-power recurrences with 0-d powers w^j/j!, j >= 1
        assert point_digest() == POINT_SHA256
