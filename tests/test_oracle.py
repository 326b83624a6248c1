"""The mode-sum engine itself: spectra, quadrature operators, kernels."""

import math
import tracemalloc

import numpy as np
import pytest

from dirac_cyclotron import (
    ModeIndex,
    ModelParams,
    PolarGrid,
    b1_quadrature,
    branch_coefficients,
    build_mode_set,
    derived_scales,
    fidelity,
    mode_sum_field,
    normalized_fidelity,
    phi,
    phi_taylor2,
    q_kernel,
    sample_mode_sum,
)
from dirac_cyclotron import basis, oracle
from dirac_cyclotron.basis import MODE_SET_KINDS, ModeSet, q_kernel_stack
from dirac_cyclotron.fields import default_grid, polar_to_xy
from dirac_cyclotron.oracle import (
    SPECTRUM_VARIANTS,
    OracleField,
    hermite_functions,
    quadrature_expectation,
)


def _single_mode_set(idx: ModeIndex, params: ModelParams) -> ModeSet:
    return ModeSet(
        kind="positive_only",
        entries=((idx, 1.0 + 0.0j),),
    )


@pytest.fixture(scope="module")
def grid1(set1):
    return PolarGrid(rho_max=set1.qa + 6.0, n_rho=50, n_theta=64)


class TestSpectrumVariants:
    def test_variant_list(self):
        assert set(SPECTRUM_VARIANTS) == {"exact", "taylor2", "taylor2_integer"}

    def test_unknown_variant_rejected(self, set1, grid1):
        rr, tt = grid1.mesh()
        ms = build_mode_set("positive_only", set1)
        with pytest.raises(ValueError):
            mode_sum_field(rr, tt, 0.0, ms, set1, "cubic")

    def test_variants_agree_at_time_zero(self, set1, grid1):
        rr, tt = grid1.mesh()
        ms = build_mode_set("positive_only", set1)
        base = mode_sum_field(rr, tt, 0.0, ms, set1, "exact")
        for variant in ("taylor2", "taylor2_integer"):
            alt = mode_sum_field(rr, tt, 0.0, ms, set1, variant)
            assert float(np.max(np.abs(base - alt))) == 0.0

    def test_taylor2_error_grows_with_time(self, set2):
        g = PolarGrid(rho_max=set2.qa + 6.0, n_rho=40, n_theta=48)
        rr, tt = g.mesh()
        ms = build_mode_set("positive_only", set2)
        sc = derived_scales(set2)
        devs = []
        for tau in (0.01 * sc.T_R, 0.1 * sc.T_R, 0.25 * sc.T_R):
            a = mode_sum_field(rr, tt, tau, ms, set2, "exact")
            b = mode_sum_field(rr, tt, tau, ms, set2, "taylor2")
            devs.append(float(np.max(np.abs(a - b))))
        assert devs[0] < devs[1] < devs[2]


def _three_taus(params) -> list[float]:
    return [0.0, 123.4, 0.3 * derived_scales(params).T_R]


class TestTauAxis:
    """One call over a tau axis keeps every bit of the scalar calls."""

    @pytest.mark.parametrize("variant", ["exact", "taylor2"])
    @pytest.mark.parametrize("kind", MODE_SET_KINDS)
    @pytest.mark.parametrize("set_name", ["set1", "set2"])
    def test_axis_matches_scalar_calls(self, request, set_name, kind, variant):
        params = request.getfixturevalue(set_name)
        grid = PolarGrid(rho_max=params.qa + 6.0, n_rho=14, n_theta=18)
        rr, tt = grid.mesh()
        ms = build_mode_set(kind, params)
        taus = _three_taus(params)
        scalar = np.stack([mode_sum_field(rr, tt, t, ms, params, variant) for t in taus])
        axis = mode_sum_field(rr, tt, np.array(taus), ms, params, variant)
        assert axis.shape == (3, 4) + rr.shape and axis.dtype == scalar.dtype
        assert axis.tobytes() == scalar.tobytes()

    def test_sampled_fields_are_read_only(self, set1, grid1):
        ms = build_mode_set("positive_only", set1)
        taus = _three_taus(set1)
        fields = sample_mode_sum(grid1, taus, ms, set1)
        assert len(fields) == 3
        for f, t in zip(fields, taus):
            assert isinstance(f, OracleField) and f.grid is grid1
            assert not f.samples.flags.writeable
            assert f.samples.tobytes() == sample_mode_sum(grid1, t, ms, set1).samples.tobytes()
        single = sample_mode_sum(grid1, taus[1], ms, set1)
        assert isinstance(single, OracleField) and not single.samples.flags.writeable

    def test_two_dimensional_tau_rejected(self, set1, grid1):
        rr, tt = grid1.mesh()
        ms = build_mode_set("positive_only", set1)
        with pytest.raises(ValueError, match="1-D axis"):
            mode_sum_field(rr, tt, np.zeros((2, 2)), ms, set1)

    @pytest.mark.parametrize("tau", [math.nan, [0.0, math.inf], [1.0, -math.inf, math.nan]])
    def test_non_finite_tau_rejected_before_any_block(self, monkeypatch, set1, grid1, tau):
        def no_block(*args):
            raise AssertionError("a block was summed")

        monkeypatch.setattr(oracle, "block_sums", no_block)
        rr, tt = grid1.mesh()
        ms = build_mode_set("positive_only", set1)
        with pytest.raises(ValueError, match="tau must be finite"):
            mode_sum_field(rr, tt, tau, ms, set1)


def _entry_ordered_field(rho, theta, tau, mode_set, params, variant):
    """The mode sum as first written: four out-of-place compensated sums,
    one add per mode entry and component, in entry order."""
    rho, theta = np.broadcast_arrays(np.asarray(rho, float), np.asarray(theta, float))
    n_max = mode_set.n_max
    x, y = polar_to_xy(rho, theta, params)
    q = q_kernel_stack(n_max, x, y, params)
    energies = {
        "exact": lambda: np.asarray(phi(np.arange(n_max + 1), params)),
        "taylor2": lambda: np.asarray(phi_taylor2(np.arange(n_max + 1), params)),
    }[variant]()
    d_all, b_all = (c.tolist() for c in branch_coefficients(np.arange(n_max + 1), params))
    acc = [[np.zeros(rho.shape, dtype=complex)] * 2 for _ in range(4)]

    def add(i, x):
        s, c = acc[i]
        y = x - c
        t = s + y
        acc[i] = [t, (t - s) - y]

    for idx, amp in mode_set.entries:
        n, s, lam = idx.n, idx.s, idx.lambda_k
        d, b = d_all[n], b_all[n]
        ph = amp * np.exp(-1j * s * energies[n] * tau)
        q_lo = q[n - 1] if n >= 1 else None
        if lam == +1:
            if s == +1:
                if q_lo is not None:
                    add(0, d * ph * q_lo)
                add(3, -b * ph * q[n])
            else:
                if q_lo is not None:
                    add(0, b * ph * q_lo)
                add(3, d * ph * q[n])
        else:
            if s == +1:
                add(1, d * ph * q[n])
                if q_lo is not None:
                    add(2, -b * ph * q_lo)
            else:
                add(1, b * ph * q[n])
                if q_lo is not None:
                    add(2, d * ph * q_lo)
    return np.stack([a[0] for a in acc])


class TestComponentPasses:
    """The per-component pass keeps every bit of the entry-ordered sum."""

    @pytest.mark.parametrize("variant", ["exact", "taylor2"])
    @pytest.mark.parametrize("kind", MODE_SET_KINDS)
    @pytest.mark.parametrize("set_name", ["set1", "set2"])
    def test_matches_entry_ordered_reference(self, request, set_name, kind, variant):
        params = request.getfixturevalue(set_name)
        grid = PolarGrid(rho_max=params.qa + 6.0, n_rho=14, n_theta=18)
        rr, tt = grid.mesh()
        ms = build_mode_set(kind, params)
        for tau in (0.0, 123.4):
            ref = _entry_ordered_field(rr, tt, tau, ms, params, variant)
            field = mode_sum_field(rr, tt, tau, ms, params, variant)
            assert field.shape == ref.shape and field.dtype == ref.dtype
            assert field.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("variant", ["exact", "taylor2"])
    @pytest.mark.parametrize("kind", MODE_SET_KINDS)
    @pytest.mark.parametrize("set_name", ["set1", "set2"])
    def test_ragged_blocks_keep_every_bit(self, request, monkeypatch, set_name, kind, variant):
        params = request.getfixturevalue(set_name)
        grid = PolarGrid(rho_max=params.qa + 6.0, n_rho=14, n_theta=18)
        rr, tt = grid.mesh()
        ms = build_mode_set(kind, params)
        taus = _three_taus(params)
        # 252 points: blocks of 40 and a ragged 12 for one tau, of 13 and a ragged 5 for three
        monkeypatch.setattr(basis, "_BLOCK_POINTS", 40)
        refs = np.stack([_entry_ordered_field(rr, tt, t, ms, params, variant) for t in taus])
        for tau, ref in ((taus[1], refs[1]), (taus[1:2], refs[1:2]), (taus, refs)):
            field = mode_sum_field(rr, tt, tau, ms, params, variant)
            assert field.shape == ref.shape and field.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_tau, points", [(None, [40] * 6 + [12]), (1, [40] * 6 + [12]),
                                               (3, [13] * 19 + [5]), (5, [8] * 31 + [4])])
    def test_one_kernel_walk_per_block(self, monkeypatch, kernel_walks, set2, n_tau, points):
        rr, tt = PolarGrid(rho_max=16.0, n_rho=14, n_theta=18).mesh()
        ms = build_mode_set("two_band", set2)
        monkeypatch.setattr(basis, "_BLOCK_POINTS", 40)
        tau = 1.0 if n_tau is None else np.linspace(0.0, 1.0, n_tau)
        mode_sum_field(rr, tt, tau, ms, set2)
        # each block walks Q_0 .. Q_{n_max} once, for every tau and component
        assert kernel_walks == [[p, ms.n_max + 1] for p in points]

    @pytest.mark.parametrize(
        "params, n_rho, tau, slack_mib",
        [(ModelParams(lambda_over_a=0.5, qa=10.0), 120, np.linspace(0.0, 100.0, 5), 6),
         # window 608..1011: a stack of its orders would be 405 x 16384 x 16 B = 101 MiB
         (ModelParams(lambda_over_a=0.05, qa=40.0), 64, 0.0, 7)],
        ids=["set2", "qa40"],
    )
    def test_peak_stays_near_the_output(self, params, n_rho, tau, slack_mib):
        rr, tt = PolarGrid(rho_max=params.qa + 6.0, n_rho=n_rho, n_theta=256).mesh()
        ms = build_mode_set("two_band", params)
        output = np.size(tau) * 4 * rr.size * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            mode_sum_field(rr, tt, tau, ms, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= output + slack_mib * 2**20

    def test_unsorted_entries_rejected(self, set1):
        ms = build_mode_set("two_band", set1)
        unsorted = ModeSet(kind=ms.kind, entries=ms.entries[::-1])
        rr, tt = PolarGrid(rho_max=3.0, n_rho=4, n_theta=5).mesh()
        with pytest.raises(ValueError, match="ascending"):
            mode_sum_field(rr, tt, 0.0, unsorted, set1)

    def test_empty_tau_axis(self, set1):
        rr, tt = PolarGrid(rho_max=3.0, n_rho=4, n_theta=5).mesh()
        field = mode_sum_field(rr, tt, [], build_mode_set("two_band", set1), set1)
        assert field.shape == (0, 4, 4, 5) and field.dtype == complex

    def test_self_built_kernels_stay_below_one_grid_stack(self, set2):
        grid = default_grid(set2)
        rr, tt = grid.mesh()
        assert rr.size == 120 * 256
        ms = build_mode_set("two_band", set2)
        one_stack = (ms.n_max + 1) * rr.size * np.dtype(complex).itemsize
        t_r = derived_scales(set2).T_R
        # a scalar tau, then a 10-tau axis whose (10, 4, n_rho, n_theta) output adds to the peak
        for tau, output in ((0.3 * t_r, 0), (np.linspace(0.0, 0.5 * t_r, 10), 10 * 4 * rr.size * 16)):
            tracemalloc.start()
            try:
                mode_sum_field(rr, tt, tau, ms, set2, "taylor2")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < one_stack + output

    def test_component_without_terms_is_zero(self, set1):
        # the n = 0 mode (s = -1, lambda_k = +1) has no Q_{-1}: it feeds psi_4 only
        ms = _single_mode_set(ModeIndex(0, -1, +1), set1)
        rr, tt = PolarGrid(rho_max=3.0, n_rho=4, n_theta=5).mesh()
        field = mode_sum_field(rr, tt, 1.0, ms, set1)
        assert not np.any(field[:3])
        assert np.any(field[3])
        assert field.tobytes() == _entry_ordered_field(rr, tt, 1.0, ms, set1, "exact").tobytes()


class TestUnitarityAndFidelity:
    def test_norm_conserved(self, set1, grid1):
        ms = build_mode_set("positive_only", set1)
        sc = derived_scales(set1)
        for tau in (0.0, sc.T_D, 0.5 * sc.T_R):
            f = sample_mode_sum(grid1, tau, ms, set1)
            assert f.norm == pytest.approx(1.0, abs=1e-7)

    def test_norm_and_weights_built_once(self, set1, grid1):
        ms = build_mode_set("positive_only", set1)
        f = sample_mode_sum(grid1, 0.0, ms, set1)
        direct = float(np.einsum("kij,ij->", np.abs(f.samples) ** 2, grid1.weights))
        assert f.norm == pytest.approx(direct, rel=1e-14)
        assert f.norm is f.norm
        assert grid1.weights is grid1.weights
        assert not grid1.weights.flags.writeable
        assert not f.samples.flags.writeable

    def test_self_fidelity(self, set1, grid1):
        ms = build_mode_set("positive_only", set1)
        f = sample_mode_sum(grid1, 11.0, ms, set1)
        assert fidelity(f.samples, f.samples, grid1) == pytest.approx(f.norm, rel=1e-12)
        assert normalized_fidelity(f.samples, f.samples, grid1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("blank", ["field_a", "field_b"])
    def test_zero_norm_field_rejected(self, set1, grid1, blank):
        f = sample_mode_sum(grid1, 0.0, build_mode_set("positive_only", set1), set1).samples
        zero = np.zeros_like(f)
        fields = (zero, f) if blank == "field_a" else (f, zero)
        with pytest.raises(ValueError, match=f"{blank} has grid norm 0.0"):
            normalized_fidelity(*fields, grid1)

    def test_distinct_modes_orthogonal(self, set1, grid1):
        rr, tt = grid1.mesh()
        a = mode_sum_field(rr, tt, 0.0, _single_mode_set(ModeIndex(12, +1, +1), set1), set1)
        b = mode_sum_field(rr, tt, 0.0, _single_mode_set(ModeIndex(14, +1, +1), set1), set1)
        assert fidelity(a, b, grid1) < 1e-7


class TestQuadrature:
    def test_velocity_matches_component_overlap(self, set1, grid1):
        # <alpha_x + i alpha_y> = 2 integral (psi1* psi4 + psi3* psi2)
        ms = build_mode_set("positive_only", set1)
        f = sample_mode_sum(grid1, 17.0, ms, set1)
        psi = f.samples
        overlap = 2.0 * grid1.integrate(
            psi[0].conj() * psi[3] + psi[2].conj() * psi[1]
        )
        vx = quadrature_expectation("velocity_x", f, set1)
        vy = quadrature_expectation("velocity_y", f, set1)
        assert vx == pytest.approx(overlap.real, abs=1e-12)
        assert vy == pytest.approx(overlap.imag, abs=1e-12)

    def test_spin_z_diagonal(self, set1, grid1):
        ms = build_mode_set("positive_only", set1)
        f = sample_mode_sum(grid1, 0.0, ms, set1)
        psi = f.samples
        direct = grid1.integrate(
            np.abs(psi[0]) ** 2 - np.abs(psi[1]) ** 2 + np.abs(psi[2]) ** 2 - np.abs(psi[3]) ** 2
        )
        assert quadrature_expectation("sigma_z", f, set1) == pytest.approx(direct, abs=1e-14)

    def test_initial_position_at_origin(self, set1, grid1):
        # the packet starts on the orbit point closest to the origin
        ms = build_mode_set("positive_only", set1)
        f = sample_mode_sum(grid1, 0.0, ms, set1)
        assert abs(quadrature_expectation("position_x", f, set1)) < 0.05
        assert abs(quadrature_expectation("position_y", f, set1)) < 0.05

    def test_conjugate_built_once(self, set1, grid1):
        f = sample_mode_sum(grid1, 0.7, build_mode_set("positive_only", set1), set1)
        first = quadrature_expectation("velocity_x", f, set1)
        conj = f.conj_samples
        assert "conj_samples" in vars(f)  # the quadrature built it
        assert not conj.flags.writeable
        assert conj.tobytes() == f.samples.conj().tobytes()
        for kind in ("velocity_y", "sigma_x", "sigma_y", "sigma_z"):
            quadrature_expectation(kind, f, set1)
        assert f.conj_samples is conj
        dens = np.einsum("i...,ij,j...->...", f.samples.conj(), oracle._ALPHA_X, f.samples)
        assert first == float(np.real(grid1.integrate(dens)))

    def test_unknown_operator_rejected(self, set1, grid1):
        ms = build_mode_set("positive_only", set1)
        f = sample_mode_sum(grid1, 0.0, ms, set1)
        with pytest.raises(ValueError):
            quadrature_expectation("momentum_x", f, set1)

    def test_refuses_leaky_grid(self, set1):
        tiny = PolarGrid(rho_max=2.0, n_rho=10, n_theta=8)
        ms = build_mode_set("positive_only", set1)
        f = sample_mode_sum(tiny, 0.0, ms, set1)
        with pytest.raises(ValueError, match="norm"):
            quadrature_expectation("velocity_x", f, set1)

    @pytest.mark.parametrize("kind", ["position_x", "sigma_z"])
    def test_refuses_nan_field(self, set1, kind):
        grid = PolarGrid(rho_max=2.0, n_rho=10, n_theta=8)
        f = OracleField(grid=grid, samples=np.full((4, 10, 8), np.nan, dtype=complex))
        with pytest.raises(ValueError, match="field norm nan"):
            quadrature_expectation(kind, f, set1)


class TestHermiteFunctions:
    def test_orthonormality(self):
        x = np.linspace(-25, 25, 6001)
        h = hermite_functions(30, x)
        gram = np.trapezoid(h[:, None, :] * h[None, :, :], x, axis=-1)
        assert float(np.max(np.abs(gram - np.eye(31)))) < 1e-8

    def test_ground_state(self):
        x = np.array([0.0, 1.0])
        h = hermite_functions(0, x)
        np.testing.assert_allclose(h[0], math.pi**-0.25 * np.exp(-0.5 * x**2), rtol=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="k_max must be non-negative"):
            hermite_functions(-1, np.zeros(3))

    def test_parity(self):
        x = np.linspace(-3, 3, 7)
        h = hermite_functions(5, x)
        for k in range(6):
            np.testing.assert_allclose(h[k], (-1.0) ** k * h[k][::-1], atol=1e-13)


class TestKernelQuadrature:
    def test_matches_closed_form(self, set1):
        pts = [(0.0, set1.qa), (1.0, set1.qa + 1.0), (-2.0, set1.qa - 1.5), (0.7, 2.0)]
        for k in range(6):
            for x, y in pts:
                num = b1_quadrature(k, x, y, set1)
                ref = q_kernel(k, x, y, set1)
                assert abs(num - ref) < 1e-10

    def test_negative_order_rejected(self, set1):
        with pytest.raises(ValueError):
            b1_quadrature(-1, 0.0, 0.0, set1)

    @pytest.mark.parametrize("k, x, y", [(0, 0.0, 5.0), (3, 1.0, 6.0), (5, -2.0, 3.5), (2, 0.7, 2.0)])
    def test_cached_rule_keeps_every_bit(self, set2, k, x, y):
        # the quadrature with the Gauss-Hermite rule derived afresh per call
        nodes, weights = np.polynomial.hermite.hermgauss(200)
        total_w = weights * np.exp(nodes**2)
        p = set2.qa + nodes
        h = hermite_functions(k, y - p)[k]
        integrand = (
            np.exp(1j * p * x) * np.exp(-0.5 * nodes**2) * h
            / (math.sqrt(2.0 * math.pi) * math.pi**0.25)
        )
        fresh = complex(np.sum(total_w * integrand))
        assert b1_quadrature(k, x, y, set2) == fresh
        assert b1_quadrature(k, x, y, set2) == fresh


class TestTaylorVariantCoefficients:
    def test_taylor2_energies_are_exact_quadratics(self, set2):
        n = np.arange(30, 70)
        vals = np.asarray(phi_taylor2(n, set2))
        # second differences of a quadratic are constant
        d2 = np.diff(vals, 2)
        assert float(np.max(np.abs(d2 - d2[0]))) < 1e-12
        assert phi_taylor2(set2.n0_real, set2) == pytest.approx(
            float(phi(set2.n0_real, set2)), rel=1e-15
        )
