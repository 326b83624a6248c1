"""End-to-end acceptance gate.

One test per shipped claim, each at its stated tolerance; a one-line verdict
per criterion is printed in the terminal summary (see conftest).  Reference
values were frozen from independent derivations and cross-checked against
the mode-sum engine.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dirac_cyclotron import (
    TIME_UNIT_SECONDS,
    build_mode_set,
    cat_decomposition,
    cat_overlap_closed_form,
    classical_field,
    derived_scales,
    mean_spin_z_jc,
    mean_velocity_jc,
    mean_velocity_nonrel,
    mean_velocity_positive,
    mode_sum_field,
    normalized_fidelity,
    sample_mode_sum,
    spin_z_plateau_jc,
)
from dirac_cyclotron.cli import SET1, SET2, validation_report
from dirac_cyclotron.fields import PolarGrid
from dirac_cyclotron.oracle import quadrature_expectation
from dirac_cyclotron.spectrum import ModelParams, taylor_at

from conftest import ACCEPTANCE_LINES


def _report(num: int, label: str, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {num:2d} [{verdict}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def full_validation():
    """Full-resolution oracle-vs-closed-form deviation table (criteria 5/6/11)."""
    t0 = time.monotonic()
    rows, ok = validation_report(quick=False)
    return rows, ok, time.monotonic() - t0


def _integer_scales(params):
    """Cyclotron/revival periods of the integer-centred quadratic spectrum."""
    _, dp, ddp = taylor_at(params.n0, params)
    return 2.0 * math.pi / dp, 4.0 * math.pi / abs(ddp)


def test_criterion_01_timescales_set1():
    t0 = time.monotonic()
    sc = derived_scales(SET1)
    t_r_seconds = sc.T_R * TIME_UNIT_SECONDS
    ratio = sc.T_R / sc.T_D
    elapsed = time.monotonic() - t0
    ok = (
        abs(t_r_seconds - 2.3e-16) / 2.3e-16 <= 0.05
        and abs(ratio - 30.0) / 30.0 <= 0.10
        and elapsed < 1.0
    )
    _report(
        1,
        "time scales qa=5 lambda/a=0.1",
        ok,
        f"T_R={t_r_seconds:.3e}s (ref 2.3e-16, tol 5%), T_R/T_D={ratio:.2f} "
        f"(ref 30, tol 10%), {elapsed:.2f}s",
    )


def test_criterion_02_timescales_set2():
    t0 = time.monotonic()
    sc = derived_scales(SET2)
    omega_zb_si = sc.omega_zb / TIME_UNIT_SECONDS
    elapsed = time.monotonic() - t0
    ok = (
        abs(sc.T_cl - 126.0) / 126.0 <= 0.03
        and abs(sc.T_R - 26660.0) / 26660.0 <= 0.01
        and abs(sc.omega_zb - 10.2) / 10.2 <= 0.02
        and abs(omega_zb_si - 7.85e21) / 7.85e21 <= 0.02
        and elapsed < 1.0
    )
    _report(
        2,
        "time scales qa=10 lambda/a=0.5",
        ok,
        f"T_cl={sc.T_cl:.2f} (ref 126, tol 3%), T_R={sc.T_R:.0f} (ref 26660, "
        f"tol 1%), omega_zb={sc.omega_zb:.3f} c/lambda = {omega_zb_si:.3e}/s "
        f"(refs 10.2, 7.85e21, tol 2%)",
    )


def test_criterion_03_field_strength():
    b = derived_scales(SET1).B_tesla
    ok = abs(b - 4.5e7) / 4.5e7 <= 0.05
    _report(3, "laboratory field strength", ok, f"B={b:.3e} T (ref 4.5e7, tol 5%)")


def test_criterion_04_cat_overlap():
    closed = cat_overlap_closed_form(SET2)
    t_cl_int, _ = _integer_scales(SET2)
    _, _, numeric = cat_decomposition(0.25 * t_cl_int, SET2)
    ok = (
        abs(closed - 0.98) / 0.98 <= 0.005
        and abs(numeric - 0.98) / 0.98 <= 0.005
        and abs(closed - numeric) <= 1e-12
    )
    _report(
        4,
        "cat spin-factor overlap n0=50",
        ok,
        f"closed={closed:.6f}, inner-product={numeric:.6f} (ref 0.98, tol 0.5%)",
    )


def test_criterion_05_oracle_equivalence(full_validation):
    rows, _, elapsed = full_validation
    field_rows = [r for r in rows if r[0].startswith("field_")]
    obs_rows = [
        r
        for r in rows
        if r[0].startswith(("velocity_", "spin_transverse", "spin_z_two_band"))
    ]
    worst_field = max(r[1] for r in field_rows)
    worst_obs = max(r[1] for r in obs_rows)
    ok = worst_field <= 1e-8 and worst_obs <= 1e-6 and elapsed < 120.0
    _report(
        5,
        "closed forms vs mode-sum oracle",
        ok,
        f"fields max|dev|={worst_field:.2e} (tol 1e-8), observables "
        f"max|dev|={worst_obs:.2e} (tol 1e-6), {elapsed:.1f}s (<120s)",
    )


def test_criterion_06_conservation(full_validation):
    rows, _, _ = full_validation
    table = {r[0]: r[1] for r in rows}
    sz0 = float(mean_spin_z_jc(0.0, SET2)[0])
    norm_drift = table["norm_drift"]
    sz_drift = table["spin_z_conservation_positive"]
    ok = norm_drift <= 1e-6 and sz_drift <= 1e-8 and abs(sz0 - 1.0) <= 1e-10
    _report(
        6,
        "conservation suite",
        ok,
        f"norm drift {norm_drift:.2e} (tol 1e-6), S_z drift {sz_drift:.2e} "
        f"(tol 1e-8), two-band S_z(0)-1 = {sz0 - 1.0:.2e} (tol 1e-10)",
    )


def test_criterion_07_nonrelativistic_limit():
    p = ModelParams(lambda_over_a=0.01, qa=5.0)
    t_cl = 2.0 * math.pi / p.lambda_over_a**2
    taus = np.linspace(0.0, t_cl, 800)
    vx, vy = mean_velocity_positive(taus, p)
    nx, ny = mean_velocity_nonrel(taus, p)
    # deviation in units of c (the series' own amplitude is depressed by
    # the relativistic factor, so an amplitude-relative bound would mix in
    # the secular O(n0 (lambda/a)^2) phase drift)
    dev = float(max(np.max(np.abs(vx - nx)), np.max(np.abs(vy - ny))))
    ok = dev <= 1e-3
    _report(
        7,
        "nonrelativistic limit lambda/a=0.01",
        ok,
        f"max|v_series - v_cyclotron| = {dev:.2e} c over one period (tol 1e-3)",
    )


def test_criterion_08_kinematic_consistency():
    rng = np.random.default_rng(20260825)
    worst = 0.0
    cases = [
        (SET1, "positive_only", mean_velocity_positive, 0.5),
        (SET2, "two_band", mean_velocity_jc, 0.005),
    ]
    for params, kind, velocity_fn, h in cases:
        grid = PolarGrid(rho_max=params.qa + 6.0, n_rho=120, n_theta=256)
        ms = build_mode_set(kind, params)
        sc = derived_scales(params)
        for tau in rng.uniform(0.1, 2.0 * sc.T_cl, 4):
            pos = []
            for t in (tau - h, tau + h):
                f = sample_mode_sum(grid, float(t), ms, params)
                pos.append(
                    (
                        quadrature_expectation("position_x", f, params),
                        quadrature_expectation("position_y", f, params),
                    )
                )
            # position is in a, velocity in c: v = (a/lambda) dx/dtau
            fd = [
                (pos[1][i] - pos[0][i]) / (2.0 * h) / params.lambda_over_a
                for i in (0, 1)
            ]
            vx, vy = velocity_fn(float(tau), params)
            for numeric, closed in zip(fd, (float(vx[0]), float(vy[0]))):
                if abs(closed) > 0.05:
                    worst = max(worst, abs(numeric - closed) / abs(closed))
    ok = worst <= 1e-3
    _report(
        8,
        "finite-difference kinematics",
        ok,
        f"max relative dev {worst:.2e} where |v| > 0.05c, both families (tol 1e-3)",
    )


def test_criterion_09_revival_structure():
    t0 = time.monotonic()
    params = SET1
    sc = derived_scales(params)
    t_cl_int, t_r_int = _integer_scales(params)
    grid = PolarGrid(rho_max=params.qa + 6.0, n_rho=50, n_theta=64)
    rr, tt = grid.mesh()
    ms = build_mode_set("positive_only", params)

    def f2(tau: float, shift: float) -> float:
        a = mode_sum_field(rr, tt, tau, ms, params, "taylor2_integer")
        b = classical_field(rr, tt, tau + shift, params)
        return normalized_fidelity(a, b, grid) ** 2

    # collapse-plateau baseline and peak scan around the first reconstruction
    plateau_taus = np.linspace(2.0 * sc.T_D, 0.4 * t_r_int, 25)
    plateau = float(np.median([f2(float(t), 0.5 * t_cl_int) for t in plateau_taus]))
    scan = np.linspace(0.5 * t_r_int - t_cl_int, 0.5 * t_r_int + t_cl_int, 41)
    vals = [f2(float(t), 0.5 * t_cl_int) for t in scan]
    i_peak = int(np.argmax(vals))
    peak_tau, peak = float(scan[i_peak]), float(vals[i_peak])
    offset = abs(peak_tau - 0.5 * t_r_int)
    unshifted = f2(peak_tau, 0.0)
    half_shift_ok = (
        offset <= t_cl_int and peak >= 5.0 * plateau and unshifted < 0.5 * peak
    )

    # fractional revival at T_R/4: exactly two angular lobes 180 deg apart
    psi = mode_sum_field(rr, tt, 0.25 * t_r_int, ms, params, "taylor2_integer")
    dens = np.sum(np.abs(psi) ** 2, axis=0)
    ang = (dens * grid.weights).sum(axis=0)
    lobes = np.where(
        (ang > np.roll(ang, 1)) & (ang > np.roll(ang, -1)) & (ang > 0.5 * ang.max())
    )[0]
    if len(lobes) == 2:
        sep = math.degrees(abs(grid.theta[lobes[1]] - grid.theta[lobes[0]]))
        sep = min(sep, 360.0 - sep)
    else:
        sep = float("nan")
    lobes_ok = len(lobes) == 2 and abs(sep - 180.0) <= 5.0

    # quadratic-spectrum vs exact-spectrum contrast on the strongly
    # relativistic packet
    grid2 = PolarGrid(rho_max=SET2.qa + 6.0, n_rho=50, n_theta=64)
    rr2, tt2 = grid2.mesh()
    ms2 = build_mode_set("positive_only", SET2)
    tau2 = 0.25 * derived_scales(SET2).T_R
    d_exact = np.sum(np.abs(mode_sum_field(rr2, tt2, tau2, ms2, SET2, "exact")) ** 2, axis=0)
    d_taylor = np.sum(np.abs(mode_sum_field(rr2, tt2, tau2, ms2, SET2, "taylor2")) ** 2, axis=0)
    l1 = float(grid2.integrate(np.abs(d_exact - d_taylor)))
    elapsed = time.monotonic() - t0

    ok = half_shift_ok and lobes_ok and l1 > 0.1 and elapsed < 300.0
    _report(
        9,
        "revival structure",
        ok,
        f"peak F^2={peak:.3f} at offset {offset / t_cl_int:.2f} T_cl from T_R/2 "
        f"(half-period-shifted; unshifted {unshifted:.3f}), plateau median "
        f"{plateau:.3f}, contrast {peak / plateau:.1f}x (>=5); {len(lobes)} lobes "
        f"sep {sep:.1f} deg (180+-5); taylor2-vs-exact L1={l1:.2f} (>0.1); "
        f"{elapsed:.1f}s (<300s)",
    )


def test_criterion_10_zitterbewegung():
    params = SET2
    sc = derived_scales(params)

    # dominant trembling frequency from a short Hann-windowed FFT
    n = 8192
    taus = np.linspace(0.0, 5.0, n, endpoint=False)
    vx = np.asarray(mean_velocity_jc(taus, params)[0])
    spec = np.abs(np.fft.rfft((vx - vx.mean()) * np.hanning(n)))
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n, d=taus[1] - taus[0])
    bin_width = float(freqs[1] - freqs[0])
    dominant = float(freqs[np.argmax(spec[1:]) + 1])
    freq_ok = abs(dominant - sc.omega_zb) <= bin_width

    # burst/quiet contrast of the high-passed velocity at half-period marks
    n = 16384
    taus = np.linspace(0.0, 4.0 * sc.T_cl, n, endpoint=False)
    vx = np.asarray(mean_velocity_jc(taus, params)[0])
    dt = taus[1] - taus[0]
    w = int(round(2.0 * math.pi / sc.omega_zb / dt))
    fast = vx - np.convolve(vx, np.ones(w) / w, mode="same")
    half = 0.05 * sc.T_cl

    def window_rms(center: float) -> float:
        mask = np.abs(taus - center) <= half
        return float(np.sqrt(np.mean(fast[mask] ** 2)))

    bursts = [window_rms(k * sc.T_cl / 2.0) for k in range(7)]
    quiets = [window_rms((k + 0.5) * sc.T_cl / 2.0) for k in range(7)]
    contrast = float(np.mean(bursts) / np.mean(quiets))
    contrast_ok = contrast >= 3.0

    # spacing of the S_z burst envelope maxima
    sz = np.asarray(mean_spin_z_jc(taus, params))
    dev = sz - spin_z_plateau_jc(params)
    w2 = int(round(0.05 * sc.T_cl / dt))
    env = np.sqrt(np.convolve(dev**2, np.ones(w2) / w2, mode="same"))
    idx = np.where(
        (env[1:-1] > env[:-2]) & (env[1:-1] > env[2:]) & (env[1:-1] > 0.5 * env.max())
    )[0] + 1
    peaks: list[int] = []
    for i in idx:
        if peaks and taus[i] - taus[peaks[-1]] < 0.25 * sc.T_cl:
            if env[i] > env[peaks[-1]]:
                peaks[-1] = i
        else:
            peaks.append(int(i))
    spacings = np.diff(taus[peaks]) / (sc.T_cl / 2.0)
    spacing_ok = len(spacings) >= 3 and bool(np.all(np.abs(spacings - 1.0) <= 0.05))

    ok = freq_ok and contrast_ok and spacing_ok
    _report(
        10,
        "trembling-motion phenomenology",
        ok,
        f"dominant {dominant:.3f} vs omega_zb {sc.omega_zb:.3f} (bin {bin_width:.3f}); "
        f"burst/quiet RMS contrast {contrast:.2f} (>=3); S_z envelope spacing "
        f"{np.mean(spacings):.4f} T_cl/2 (tol 5%)",
    )


def test_criterion_11_kernel_validation(full_validation):
    rows, _, _ = full_validation
    dev = {r[0]: r[1] for r in rows}["kernel_quadrature_vs_closed_form"]
    ok = dev <= 1e-8
    _report(
        11,
        "kernel quadrature vs closed form",
        ok,
        f"max|dev|={dev:.2e} for k<=5 at 9 points (tol 1e-8)",
    )


def test_criterion_12_determinism(tmp_path):
    payloads = []
    for threads in ("1", "8"):
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "dirac_cyclotron.cli",
                "validate",
                "--threads",
                threads,
                "--out",
                str(out),
                "--no-timestamp",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append((out / "validate.csv").read_bytes())
    ok = payloads[0] == payloads[1]
    _report(
        12,
        "determinism across worker counts",
        ok,
        f"validate payloads --threads 1 vs 8: "
        f"{'byte-identical' if ok else 'DIFFER'} ({len(payloads[0])} bytes)",
    )
