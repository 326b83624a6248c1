"""Closed-form observable traces and densities."""

import math

import numpy as np
import pytest

from dirac_cyclotron import (
    KahanAccumulator,
    ModelParams,
    build_mode_set,
    classical_field,
    collapse_envelope,
    default_grid,
    derived_scales,
    mean_spin_transverse,
    mean_spin_z_jc,
    mean_velocity_envelope,
    mean_velocity_jc,
    mean_velocity_nonrel,
    mean_velocity_positive,
    positive_energy_field,
    quadrature_expectation,
    quadrupole_tensor,
    sample_mode_sum,
    spin_density,
    spin_density_classical,
    spin_density_half_revival,
    spin_z_plateau_jc,
    truncation_window,
)
from dirac_cyclotron import basis, cli, fields, levels, observables, oracle, spectrum
from dirac_cyclotron.fields import PolarGrid
from dirac_cyclotron.spectrum import phi, taylor_at


def spin_density_three_loops(rho, theta, tau, params):
    """Reference: spin_density with one loop per sum, rebuilding each level term."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    rho, theta = np.broadcast_arrays(rho, theta)
    qa = params.qa
    win = truncation_window(params)
    p = np.asarray(phi(np.arange(win.n_max + 2), params))
    x = -0.5 * qa * rho  # real, <= 0
    e_pth = np.exp(1j * theta)

    def power_term(m: int) -> np.ndarray:
        # x^m / m! elementwise, via logs (x <= 0)
        if m == 0:
            return np.ones_like(x)
        mag = np.abs(x)
        with np.errstate(divide="ignore"):
            lg = np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), -np.inf)
        out = np.exp(m * lg - math.lgamma(m + 1))
        return np.where(mag > 0, ((-1.0) ** m) * out, 0.0)

    shape = rho.shape
    s_a1 = KahanAccumulator(np.zeros(shape, dtype=complex))
    s_a2 = KahanAccumulator(np.zeros(shape, dtype=complex))
    s_b1 = KahanAccumulator(np.zeros(shape, dtype=complex))
    s_b2 = KahanAccumulator(np.zeros(shape, dtype=complex))
    for m in range(win.n_min - 1, win.n_max):
        base = power_term(m) * e_pth**m
        s_a1.add(base * math.sqrt((p[m + 1] + 1.0) / p[m + 1]) * np.exp(1j * p[m + 1] * tau))
        s_a2.add(base * math.sqrt((p[m] + 1.0) / p[m]) * np.exp(1j * p[m] * tau))
    for m in range(max(0, win.n_min - 2), win.n_max - 1):
        s_b1.add(
            power_term(m)
            * e_pth**m
            * math.sqrt((p[m + 1] - 1.0) / ((m + 1) * p[m + 1]))
            * np.exp(1j * p[m + 1] * tau)
        )
    for n in range(win.n_min, win.n_max + 1):
        s_b2.add(
            power_term(n)
            * e_pth**n
            * math.sqrt(n * (p[n] - 1.0) / p[n])
            * np.exp(1j * p[n] * tau)
        )
    pref = (
        params.alpha
        * params.beta
        / params.weight_norm**2
        * np.exp(-0.5 * (qa**2 + rho**2))
        / (2.0 * math.pi)
    )
    s = pref * (
        np.conj(s_a2.total) * s_a1.total + np.conj(s_b2.total) * s_b1.total
    )
    return s.real, s.imag


# Reference: the four trace series as one loop over levels, each factor a numpy
# call per level; the blocked series must give these bytes.
def mean_velocity_positive_loop(tau, params):
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    table = levels(params)
    win, p, pair = table.window, table.phi, table.pair
    a2 = params.alpha**2
    b2 = params.beta**2
    acc = KahanAccumulator(np.zeros(tau.shape, dtype=complex))
    for n in range(win.n_min - 1, win.n_max - 1):
        w = pair[n] * math.sqrt((p[n + 1] - 1.0) / (2.0 * (n + 1) * p[n + 1]))
        term = np.zeros(tau.shape, dtype=complex)
        if a2 != 0.0:
            term = term + a2 * math.sqrt((p[n + 2] + 1.0) / p[n + 2]) * np.exp(1j * (p[n + 2] - p[n + 1]) * tau)
        if b2 != 0.0:
            term = term + b2 * math.sqrt((p[n] + 1.0) / p[n]) * np.exp(1j * (p[n + 1] - p[n]) * tau)
        acc.add(w * term)
    v = acc.total / (a2 + b2)
    return v.real, v.imag


def mean_spin_transverse_loop(tau, params):
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    table = levels(params)
    win, p, c2 = table.window, table.phi, table.c2
    acc = KahanAccumulator(np.zeros(tau.shape, dtype=complex))
    for m in range(win.n_min - 1, win.n_max):
        w = c2[m + 1] * math.sqrt((p[m] + 1.0) * (p[m + 1] + 1.0) / (p[m] * p[m + 1]))
        acc.add(w * np.exp(1j * (p[m + 1] - p[m]) * tau))
    for m in range(win.n_min, win.n_max - 1):
        w = c2[m + 1] * math.sqrt(m * (p[m] - 1.0) * (p[m + 1] - 1.0) / ((m + 1) * p[m] * p[m + 1]))
        acc.add(w * np.exp(1j * (p[m + 1] - p[m]) * tau))
    s = acc.total * params.alpha * params.beta / params.weight_norm**2
    return s.real, s.imag


def mean_velocity_jc_loop(tau, params):
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    table = levels(params)
    win, p, pair = table.window, table.phi, table.pair
    acc_x = KahanAccumulator(np.zeros(tau.shape))
    acc_y = KahanAccumulator(np.zeros(tau.shape))
    for n in range(win.n_min, win.n_max):
        diff = (p[n + 1] - p[n]) * tau
        summ = (p[n + 1] + p[n]) * tau
        acc_x.add(pair[n - 1] / (p[n] * p[n + 1]) * (np.cos(diff) - np.cos(summ)))
        acc_y.add(pair[n - 1] / p[n] * (np.sin(diff) - np.sin(summ)))
    return params.lambda_over_a * acc_x.total, params.lambda_over_a * acc_y.total


def mean_spin_z_jc_loop(tau, params):
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    la2 = params.lambda_over_a**2
    table = levels(params)
    win, p, c = table.window, table.phi, table.c
    acc = KahanAccumulator(np.zeros(tau.shape))
    for n in range(win.n_min, win.n_max + 1):
        acc.add(c[n] ** 2 * (1.0 + 2.0 * n * la2 * np.cos(2.0 * p[n] * tau)) / p[n] ** 2)
    return acc.total


class TestMeanVelocityPositive:
    def test_initial_direction(self, set1):
        vx, vy = mean_velocity_positive(0.0, set1)
        assert float(vy[0]) == pytest.approx(0.0, abs=1e-15)
        assert 0.3 < float(vx[0]) < 0.5  # relativistic reduction below qa*lambda/a

    def test_speed_below_light(self, set2):
        sc = derived_scales(set2)
        taus = np.linspace(0.0, sc.T_R, 2000)
        vx, vy = mean_velocity_positive(taus, set2)
        assert float(np.max(np.hypot(vx, vy))) < 1.0

    def test_single_subspace_still_rotates(self, set1):
        p = ModelParams(lambda_over_a=0.1, qa=5.0, alpha=1.0, beta=0.0)
        vx, vy = mean_velocity_positive(0.0, p)
        assert float(vx[0]) > 0.3

    def test_collapse_plateau(self, set1):
        sc = derived_scales(set1)
        taus = np.linspace(2 * sc.T_D, 3 * sc.T_D, 300)
        vx, vy = mean_velocity_positive(taus, set1)
        v0 = float(mean_velocity_positive(0.0, set1)[0][0])
        assert float(np.median(np.hypot(vx, vy))) / v0 < 0.05

    def test_envelope_tracks_oscillation_maxima(self, set1):
        sc = derived_scales(set1)
        taus = np.linspace(0.0, 3 * sc.T_D, 12000)
        vx, _ = mean_velocity_positive(taus, set1)
        vx = np.asarray(vx)
        v0 = float(vx[0])
        env = v0 * collapse_envelope(taus, set1)
        peaks = np.where((vx[1:-1] > vx[:-2]) & (vx[1:-1] > vx[2:]))[0] + 1
        rel = np.abs(vx[peaks] - env[peaks]) / v0
        assert len(peaks) > 10
        assert float(np.max(rel)) < 0.02


class TestNonrelLimit:
    def test_amplitude_and_period(self):
        p = ModelParams(lambda_over_a=0.01, qa=5.0)
        vx, vy = mean_velocity_nonrel(0.0, p)
        assert float(vx[0]) == pytest.approx(p.qa * p.lambda_over_a)
        assert float(vy[0]) == 0.0
        t_cl = 2.0 * math.pi / p.lambda_over_a**2
        vx1, vy1 = mean_velocity_nonrel(t_cl, p)
        assert float(vx1[0]) == pytest.approx(float(vx[0]), rel=1e-10)

    def test_envelope_reduces_to_constant_amplitude(self, set1):
        # at tau = 0 the resummed envelope starts at the nonrelativistic speed
        ex, ey = mean_velocity_envelope(0.0, set1)
        assert float(np.hypot(ex, ey)[0]) == pytest.approx(set1.qa * set1.lambda_over_a)

    def test_collapse_envelope_limits(self, set1):
        assert float(collapse_envelope(0.0, set1)[0]) == 1.0
        sc = derived_scales(set1)
        assert float(collapse_envelope(2 * sc.T_D, set1)[0]) < 0.05


class TestMeanSpinTransverse:
    def test_vanishes_for_single_subspace(self):
        p = ModelParams(lambda_over_a=0.1, qa=5.0, alpha=1.0, beta=0.0)
        sx, sy = mean_spin_transverse(np.array([0.0, 5.0]), p)
        np.testing.assert_allclose(sx, 0.0, atol=1e-15)
        np.testing.assert_allclose(sy, 0.0, atol=1e-15)

    def test_initial_polarization(self, set1):
        sx, sy = mean_spin_transverse(0.0, set1)
        assert float(sy[0]) == pytest.approx(0.0, abs=1e-15)
        assert 0.9 < float(sx[0]) <= 1.0

    def test_magnitude_bounded(self, set1):
        sc = derived_scales(set1)
        taus = np.linspace(0.0, sc.T_R, 1500)
        sx, sy = mean_spin_transverse(taus, set1)
        assert float(np.max(np.hypot(sx, sy))) <= 1.0 + 1e-12


class TestSpinDensity:
    def test_integrates_to_mean_spin(self, set1):
        g = default_grid(set1)
        rr, tt = g.mesh()
        for tau in (0.0, 123.0):
            sx, sy = spin_density(rr, tt, tau, set1)
            mx, my = mean_spin_transverse(tau, set1)
            assert g.integrate(sx) == pytest.approx(float(mx[0]), abs=1e-7)
            assert g.integrate(sy) == pytest.approx(float(my[0]), abs=1e-7)

    def test_classical_map_at_start(self, set1):
        g = default_grid(set1)
        rr, tt = g.mesh()
        sx, sy = spin_density(rr, tt, 0.0, set1)
        cx, cy = spin_density_classical(rr, tt, 0.0, set1)
        peak = float(np.max(np.hypot(sx, sy)))
        dev = max(float(np.max(np.abs(sx - cx))), float(np.max(np.abs(sy - cy))))
        assert dev / peak < 0.08

    def test_classical_map_error_shrinks_with_field(self):
        # the frozen-coefficient error of the rigid map scales as (lambda/a)^2
        p = ModelParams(lambda_over_a=0.02, qa=5.0)
        g = default_grid(p)
        rr, tt = g.mesh()
        sx, sy = spin_density(rr, tt, 0.0, p)
        cx, cy = spin_density_classical(rr, tt, 0.0, p)
        peak = float(np.max(np.hypot(sx, sy)))
        dev = max(float(np.max(np.abs(sx - cx))), float(np.max(np.abs(sy - cy))))
        assert dev / peak < 0.005

    @pytest.mark.parametrize("alpha, beta", [(1.5, 0.5), (1.0, 0.0), (0.5, -2.0)])
    def test_classical_maps_are_the_spin_of_the_classical_field(self, alpha, beta):
        # 2 (conj(psi_1) psi_2 + conj(psi_3) psi_4) of classical_field, which
        # carries the weights as 2 alpha beta / (alpha^2 + beta^2): 0 at beta = 0
        p = ModelParams(lambda_over_a=0.5, qa=10.0, alpha=alpha, beta=beta)
        rr, tt = default_grid(p, n_rho=40, n_theta=64).mesh()
        _, dp, _ = taylor_at(p.n0, p)
        tau = 0.37 * 2.0 * math.pi / dp

        def field_spin(t):
            psi = classical_field(rr, tt, t, p)
            return 2.0 * (np.conj(psi[0]) * psi[1] + np.conj(psi[2]) * psi[3]), psi

        s, psi = field_spin(tau)
        s_half = 0.5 * (s + field_spin(tau + math.pi / dp)[0])
        scale = float(np.max(np.sum(np.abs(psi) ** 2, axis=0)))
        for got, want in ((spin_density_classical(rr, tt, tau, p), s),
                          (spin_density_half_revival(rr, tt, tau, p), s_half)):
            assert float(np.max(np.abs(got[0] - want.real))) <= 1e-14 * scale
            assert float(np.max(np.abs(got[1] - want.imag))) <= 1e-14 * scale

    def test_classical_map_precession_direction(self, set1):
        # integrated spin direction of the rigid map tracks the exact one
        g = default_grid(set1)
        rr, tt = g.mesh()
        sc = derived_scales(set1)
        tau = 0.05 * sc.T_D
        sx, sy = spin_density(rr, tt, tau, set1)
        cx, cy = spin_density_classical(rr, tt, tau, set1)
        ang_exact = math.atan2(g.integrate(sy), g.integrate(sx))
        ang_classical = math.atan2(g.integrate(cy), g.integrate(cx))
        assert abs(ang_exact - ang_classical) < 0.05

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lambda_over_a=0.1, qa=5.0),
            ModelParams(lambda_over_a=0.5, qa=10.0),
            ModelParams(lambda_over_a=0.1, qa=1.0),
            ModelParams(lambda_over_a=0.5, qa=10.0, alpha=1.5, beta=0.5),
        ],
        ids=["set1", "set2", "qa1", "alpha_ne_beta"],
    )
    @pytest.mark.parametrize("frac", [0.0, 0.13, 0.75], ids=lambda f: f"{f}T_R")
    def test_bitwise_equal_to_three_loop_reference(self, params, frac):
        # the qa=1 and SET1 windows start at n_min = 1, so the m = 0 level and
        # the max(0, n_min - 2) start of the b1 sum both run
        g = default_grid(params, n_rho=40, n_theta=64)
        rr, tt = g.mesh()
        tau = frac * derived_scales(params).T_R
        got = np.stack(spin_density(rr, tt, tau, params))
        want = np.stack(spin_density_three_loops(rr, tt, tau, params))
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    def test_half_revival_map_splits_weight(self, set1):
        # two counter-posed blobs, each carrying half the single-blob peak
        g = PolarGrid(rho_max=set1.qa + 6.0, n_rho=60, n_theta=96)
        rr, tt = g.mesh()
        _, _, ddp = taylor_at(set1.n0, set1)
        t_r = 4.0 * math.pi / abs(ddp)
        hx, hy = spin_density_half_revival(rr, tt, 0.25 * t_r, set1)
        cx, cy = spin_density_classical(rr, tt, 0.0, set1)
        ratio = float(np.max(np.hypot(hx, hy))) / float(np.max(np.hypot(cx, cy)))
        assert ratio == pytest.approx(0.5, abs=0.05)


class TestTwoBandTraces:
    def test_velocity_starts_at_rest(self, set2):
        vx, vy = mean_velocity_jc(0.0, set2)
        assert float(vx[0]) == pytest.approx(0.0, abs=1e-15)
        assert float(vy[0]) == pytest.approx(0.0, abs=1e-15)

    def test_spin_z_completeness_at_start(self, set2):
        assert float(mean_spin_z_jc(0.0, set2)[0]) == pytest.approx(1.0, abs=1e-10)

    def test_spin_z_bounded(self, set2):
        sc = derived_scales(set2)
        taus = np.linspace(0.0, 2 * sc.T_cl, 4000)
        sz = np.asarray(mean_spin_z_jc(taus, set2))
        assert float(np.max(sz)) <= 1.0 + 1e-10
        assert float(np.min(sz)) >= -1.0 - 1e-10

    def test_plateau_value(self, set2):
        plateau = spin_z_plateau_jc(set2)
        assert 0.0 < plateau < 1.0
        assert plateau == pytest.approx(0.038432, abs=5e-5)

    def test_trace_oscillates_about_plateau(self, set2):
        sc = derived_scales(set2)
        taus = np.linspace(0.3 * sc.T_cl, 0.45 * sc.T_cl, 500)  # quiet stretch
        sz = np.asarray(mean_spin_z_jc(taus, set2))
        assert abs(float(np.mean(sz)) - spin_z_plateau_jc(set2)) < 0.01


TRACES = [mean_velocity_positive, mean_spin_transverse, mean_velocity_jc, mean_spin_z_jc]
LOOPS = {
    mean_velocity_positive: mean_velocity_positive_loop,
    mean_spin_transverse: mean_spin_transverse_loop,
    mean_velocity_jc: mean_velocity_jc_loop,
    mean_spin_z_jc: mean_spin_z_jc_loop,
}

# packets that reach every branch of the trace series: windows start at
# n_min = 1 (SET1, qa = 6) and n_min = 10 (SET2, qa = 10), and alpha = 0 or
# beta = 0 leaves out one bracket of mean_velocity_positive; at lambda/a = 0.75
# one c_k ** 2 (qa = 6) and one phi_n ** 2 (both) round apart from x * x
TRACE_PACKETS = {
    "set1": ModelParams(lambda_over_a=0.1, qa=5.0),
    "set2": ModelParams(lambda_over_a=0.5, qa=10.0),
    "qa6_alpha0": ModelParams(lambda_over_a=0.75, qa=6.0, alpha=0.0, beta=1.0),
    "qa10_beta0": ModelParams(lambda_over_a=0.75, qa=10.0, alpha=1.0, beta=0.0),
}


def components(out) -> tuple[np.ndarray, ...]:
    return out if isinstance(out, tuple) else (out,)


class TestWholeAxisTraces:
    """One call over a tau array gives the same bits as one call per tau."""

    @pytest.mark.parametrize("set_name", ["set1", "set2"])
    @pytest.mark.parametrize("trace", TRACES, ids=lambda f: f.__name__)
    def test_bitwise_equal_to_per_tau_calls(self, trace, set_name, request):
        # 5000 tau form one level per block; one tau forms the whole window in one
        params = request.getfixturevalue(set_name)
        taus = np.linspace(0.0, 1.5 * derived_scales(params).T_R, 5000)
        whole = np.asarray(trace(taus, params))
        per_tau = np.concatenate(
            [np.asarray(trace(t, params)) for t in taus.tolist()], axis=-1
        )
        assert whole.shape == per_tau.shape
        assert whole.tobytes() == per_tau.tobytes()

    @pytest.mark.parametrize("packet", TRACE_PACKETS)
    @pytest.mark.parametrize("trace", TRACES, ids=lambda f: f.__name__)
    def test_bytes_of_the_level_loop_for_every_block_size(self, trace, packet, monkeypatch):
        # at 512 tau, 1 and 7 elements give one level per block, 7 * 512 seven
        # levels and a shorter last block, 10**9 the whole window in one block
        params = TRACE_PACKETS[packet]
        taus = np.linspace(-0.2, 1.5, 512) * derived_scales(params).T_R
        want = np.asarray(LOOPS[trace](taus, params)).tobytes()
        for block in (observables._TRACE_BLOCK, 1, 7, 7 * 512, 10**9):
            monkeypatch.setattr(observables, "_TRACE_BLOCK", block)
            assert np.asarray(trace(taus, params)).tobytes() == want, block

    @pytest.mark.parametrize("packet", TRACE_PACKETS)
    @pytest.mark.parametrize("trace", TRACES, ids=lambda f: f.__name__)
    def test_2d_tau_gives_its_ravel_reshaped(self, trace, packet):
        params = TRACE_PACKETS[packet]
        taus = np.linspace(0.0, derived_scales(params).T_R, 600).reshape(20, 30)
        for tau in (taus, taus.T):
            flat = components(trace(tau.ravel(), params))
            for got, want in zip(components(trace(tau, params)), flat, strict=True):
                assert got.shape == tau.shape
                assert got.tobytes() == want.reshape(tau.shape).tobytes()


class TestWeightOwner:
    """The level table is the one place that evaluates a coherent weight."""

    def test_traces_evaluate_no_weight(self, set1, set2, monkeypatch):
        # every module's binding of a weight formula is counted, so a module
        # that imports one or keeps its own copy is seen too
        calls = []

        def counted(name, formula):
            def count(*args):
                calls.append(name)
                return formula(*args)

            return count

        for p in (set1, set2):
            levels(p)
        for module in (basis, cli, fields, observables, oracle, spectrum):
            for name in ("_log_weight_sq", "_pair_log_weight", "coherent_coefficient"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        taus = np.linspace(0.0, 200.0, 7)
        for p in (set1, set2):
            for trace in (mean_velocity_positive, mean_spin_transverse, mean_velocity_jc, mean_spin_z_jc):
                trace(taus, p)
        assert calls == []


class TestQuadrupole:
    def test_trace_identity_and_symmetry(self, set1):
        g = default_grid(set1)
        rr, tt = g.mesh()
        psi = positive_energy_field(rr, tt, 0.0, set1)
        d = quadrupole_tensor(psi, g, set1)
        dens = np.sum(np.abs(psi) ** 2, axis=0)
        second_moment = float(g.integrate(dens * rr**2))
        assert d[0, 0] + d[1, 1] == pytest.approx(second_moment, rel=1e-10)
        assert d[0, 1] == d[1, 0]
        assert abs(d[0, 1]) < 1e-10  # packet starts on a symmetry axis


def _sz_values(taus, mode_set, params) -> list[float]:
    """Grid-quadrature S_z of one tau-axis oracle call, per tau."""
    fields = sample_mode_sum(default_grid(params), taus, mode_set, params)
    return [quadrature_expectation("sigma_z", f, params) for f in fields]


class TestConservation:
    def test_spin_z_constant_for_positive_packet(self, set1):
        ms = build_mode_set("positive_only", set1)
        sc = derived_scales(set1)
        values = _sz_values([0.0, sc.T_cl, sc.T_D], ms, set1)
        assert max(abs(v - values[0]) for v in values) < 1e-8

    def test_tau_axis_values_equal_per_tau_calls(self, set1):
        ms = build_mode_set("positive_only", set1)
        sc = derived_scales(set1)
        grid = default_grid(set1)
        taus = [0.0, sc.T_D, 0.25 * sc.T_R]
        per_tau = [
            quadrature_expectation("sigma_z", sample_mode_sum(grid, t, ms, set1), set1)
            for t in taus
        ]
        assert _sz_values(taus, ms, set1) == per_tau

    def test_spin_z_varies_for_two_band_packet(self, set2):
        ms = build_mode_set("two_band", set2)
        sc = derived_scales(set2)
        values = _sz_values([0.0] + [0.1 * k * sc.T_cl for k in range(1, 4)], ms, set2)
        # trembling motion moves S_z by order unity
        assert max(abs(v - values[0]) for v in values) > 0.1
