"""Closed-form time traces and densities of the packet observables.

Every function here evaluates an explicit analytic series (mean velocity,
transverse spin, spin densities, two-band velocity/spin traces, collapse
envelopes), truncated to the exact coherent-index window of the packet so
that a windowed mode-sum reproduces it to round-off.  Velocities are in c,
spin in hbar/2, times tau in lambda/c, lengths in the magnetic length a.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import KahanAccumulator, block_sums, float_kahan_sum, levels
from .fields import PolarGrid
from .spectrum import ModelParams, derived_scales, taylor_at


def mean_velocity_positive(tau, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(v_x, v_y) in c of the positive-band packet.

    Series over pairs of adjacent Landau levels; each term beats at the
    local level spacing phi_{n+1} - phi_n, which is what produces the
    classical rotation, the collapse and the revivals.
    """
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
            term = term + (
                a2
                * math.sqrt((p[n + 2] + 1.0) / p[n + 2])
                * np.exp(1j * (p[n + 2] - p[n + 1]) * tau)
            )
        if b2 != 0.0:
            term = term + (
                b2
                * math.sqrt((p[n] + 1.0) / p[n])
                * np.exp(1j * (p[n + 1] - p[n]) * tau)
            )
        acc.add(w * term)
    v = acc.total / (a2 + b2)
    return v.real, v.imag


def mean_velocity_nonrel(tau, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Non-relativistic cyclotron limit: qa (lambda/a) (cos w tau, sin w tau).

    Here w = (lambda/a)^2 is the cyclotron frequency in units c/lambda; the
    full series approaches this when n0 (lambda/a)^2 << 1.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    la = params.lambda_over_a
    amp = params.qa * la
    return amp * np.cos(la**2 * tau), amp * np.sin(la**2 * tau)


def collapse_envelope(tau, params: ModelParams) -> np.ndarray:
    """Gaussian-weight dephasing envelope |exp(-(qa sin(phi'' tau/2))^2) cos(phi'' tau/2)|."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    ddp = derived_scales(params).ddphi
    half = 0.5 * ddp * tau
    return np.exp(-((params.qa * np.sin(half)) ** 2)) * np.abs(np.cos(half))


def mean_velocity_envelope(tau, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Stationary-phase approximation of the velocity trace, (v_x, v_y).

    Exact Gaussian resummation of the adjacent-level series once the slowly
    varying branch factors are frozen at their central values; valid while
    phi_n stays close to 1.  Damps on T_D, revives on T_R.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    qa = params.qa
    scales = derived_scales(params)
    dp, ddp = scales.dphi, scales.ddphi
    half = 0.5 * ddp * tau
    amp = qa * params.lambda_over_a * np.exp(-((qa * np.sin(half)) ** 2)) * np.cos(half)
    phase = dp * tau - ddp * (0.5 * qa**2 - 1.0) * tau + 0.5 * qa**2 * np.sin(ddp * tau)
    return amp * np.cos(phase), amp * np.sin(phase)


def mean_spin_transverse(tau, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma_x, Sigma_y) in hbar/2 of the positive-band packet.

    Nonzero only when both invariant subspaces are populated (alpha beta != 0);
    the two bracketed contributions carry slightly different index windows
    because they couple different neighbouring-level pairs.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    table = levels(params)
    win, p, c2 = table.window, table.phi, table.c2
    acc = KahanAccumulator(np.zeros(tau.shape, dtype=complex))
    for m in range(win.n_min - 1, win.n_max):
        w = c2[m + 1] * math.sqrt((p[m] + 1.0) * (p[m + 1] + 1.0) / (p[m] * p[m + 1]))
        acc.add(w * np.exp(1j * (p[m + 1] - p[m]) * tau))
    for m in range(win.n_min, win.n_max - 1):
        w = c2[m + 1] * math.sqrt(
            m * (p[m] - 1.0) * (p[m + 1] - 1.0) / ((m + 1) * p[m] * p[m + 1])
        )
        acc.add(w * np.exp(1j * (p[m + 1] - p[m]) * tau))
    s = acc.total * params.alpha * params.beta / params.weight_norm**2
    return s.real, s.imag


def spin_density(rho, theta, tau: float, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Local transverse spin density (<Sigma_x>, <Sigma_y>) per a^2.

    The double sum over level pairs factorizes into products of four single
    sums in the variable x = -qa rho / 2, which is what makes dense maps
    affordable.  Index windows follow the coherent amplitudes each factor
    represents.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    qa = params.qa
    table = levels(params)
    win, p = table.window, table.phi
    x = -0.5 * qa * rho  # real, <= 0
    e_pth = np.exp(1j * theta)

    # x^m / m! elementwise via logs (x <= 0; log 0 = -inf); lg does not depend on m
    with np.errstate(divide="ignore"):
        lg = np.log(np.abs(x))

    # One ascending pass builds each level's base term once and feeds it to
    # every sum whose window holds m, so each sum still sees its own terms in
    # ascending order.  Per level m: (sum, weight, phase) of each such sum,
    # with exp(i phi_j tau) computed once per level j.
    phase = {j: np.exp(1j * p[j] * tau) for j in range(max(0, win.n_min - 2), win.n_max + 1)}
    series = []
    for m in range(max(0, win.n_min - 2), win.n_max + 1):
        terms = []
        if win.n_min - 1 <= m < win.n_max:
            terms.append((0, math.sqrt((p[m + 1] + 1.0) / p[m + 1]), phase[m + 1]))
            terms.append((1, math.sqrt((p[m] + 1.0) / p[m]), phase[m]))
        if m < win.n_max - 1:
            terms.append((2, math.sqrt((p[m + 1] - 1.0) / ((m + 1) * p[m + 1])), phase[m + 1]))
        if m >= win.n_min:
            terms.append((3, math.sqrt(m * (p[m] - 1.0) / p[m]), phase[m]))
        series.append((m, terms))

    def add_terms(term, sums, lg_b, e_b):
        base = np.empty_like(term)
        for m, terms in series:
            # m = 0 apart: 0 * log 0 is NaN
            pw = ((-1.0) ** m) * np.exp(m * lg_b - math.lgamma(m + 1)) if m else np.ones_like(lg_b)
            np.multiply(pw, e_b**m, out=base)
            for i, f, ph in terms:
                sums[i].add(np.multiply(np.multiply(base, f, out=term), ph, out=term))

    totals = np.empty((4,) + np.broadcast_shapes(rho.shape, theta.shape), dtype=complex)
    block_sums(totals, add_terms, lg, e_pth)
    s_a1, s_a2, s_b1, s_b2 = totals
    pref = (
        params.alpha
        * params.beta
        / params.weight_norm**2
        * np.exp(-0.5 * (qa**2 + rho**2))
        / (2.0 * math.pi)
    )
    s = pref * (s_a1 * np.conj(s_a2) + s_b1 * np.conj(s_b2))
    return s.real, s.imag


def spin_density_classical(rho, theta, tau: float, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Rigidly rotating approximation of the transverse spin density.

    A Gaussian blob on the cyclotron orbit whose spin direction precesses at
    the cyclotron frequency, with a small static relativistic correction.
    Derived for alpha = beta.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    qa = params.qa
    la = params.lambda_over_a
    _, dp, _ = taylor_at(params.n0, params)
    ang = dp * tau
    env = np.exp(
        -0.5 * (rho**2 + qa**2 + 2.0 * rho * qa * np.cos(theta + ang))
    ) / (2.0 * math.pi)
    sx = env * (math.cos(ang) - 0.25 * la**2 * qa * rho * np.cos(theta))
    sy = env * (math.sin(ang) + 0.25 * la**2 * qa * rho * np.sin(theta))
    return sx, sy


def spin_density_half_revival(rho, theta, tau: float, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Two-blob approximation valid near tau = T_R/4.

    The packet is then an equal mixture of two rigidly rotating copies half a
    cyclotron period apart, so the spin density is the average of the two
    classical densities.
    """
    _, dp, _ = taylor_at(params.n0, params)
    t_cl = 2.0 * math.pi / dp
    sx_a, sy_a = spin_density_classical(rho, theta, tau, params)
    sx_b, sy_b = spin_density_classical(rho, theta, tau + 0.5 * t_cl, params)
    return 0.5 * (sx_a + sx_b), 0.5 * (sy_a + sy_b)


def mean_velocity_jc(tau, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(v_x, v_y) in c for the two-band packet.

    Each term carries both the slow difference frequency phi_{n+1} - phi_n
    (cyclotron rotation, collapse, revivals) and the fast sum frequency
    phi_{n+1} + phi_n (trembling motion near 2 phi_{n0}).
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    la = params.lambda_over_a
    table = levels(params)
    win, p, pair = table.window, table.phi, table.pair
    acc_x = KahanAccumulator(np.zeros(tau.shape))
    acc_y = KahanAccumulator(np.zeros(tau.shape))
    for n in range(win.n_min, win.n_max):
        w = pair[n - 1]
        diff = (p[n + 1] - p[n]) * tau
        summ = (p[n + 1] + p[n]) * tau
        acc_x.add(w / (p[n] * p[n + 1]) * (np.cos(diff) - np.cos(summ)))
        acc_y.add(w / p[n] * (np.sin(diff) - np.sin(summ)))
    return la * acc_x.total, la * acc_y.total


def mean_spin_z_jc(tau, params: ModelParams) -> np.ndarray:
    """S_z (in hbar/2) of the two-band packet.

    Constant plateau plus bursts at twice the level energy; formally the
    Jaynes-Cummings ground-state population with revival time T_cl/2.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    la2 = params.lambda_over_a**2
    table = levels(params)
    win, p, c = table.window, table.phi, table.c
    acc = KahanAccumulator(np.zeros(tau.shape))
    for n in range(win.n_min, win.n_max + 1):
        acc.add(c[n] ** 2 * (1.0 + 2.0 * n * la2 * np.cos(2.0 * p[n] * tau)) / p[n] ** 2)
    return acc.total


def spin_z_plateau_jc(params: ModelParams) -> float:
    """Time average of the two-band S_z: sum |c_n|^2 / phi_n^2."""
    table = levels(params)
    win, p, c = table.window, table.phi.tolist(), table.c
    return float_kahan_sum(c[n] ** 2 / p[n] ** 2 for n in range(win.n_min, win.n_max + 1))


def quadrupole_tensor(samples: np.ndarray, grid: PolarGrid, params: ModelParams) -> np.ndarray:
    """In-plane traceless quadrupole D_ab = int |psi|^2 (3 x_a x_b - r^2 d_ab).

    Coordinates are measured from the orbit centre (so a rigidly rotating
    packet gives a pure doubled-frequency oscillation of the diagonal),
    r^2 = x^2 + y^2.  Returns the 2x2 (x, y) block; note D_xx + D_yy equals
    the second moment int |psi|^2 r^2.
    """
    rr, tt = grid.mesh()
    x, y = rr * np.sin(tt), rr * np.cos(tt)
    dens = np.sum(np.abs(samples) ** 2, axis=0)
    r2 = x**2 + y**2
    d_xx = float(grid.integrate(dens * (3.0 * x * x - r2)))
    d_yy = float(grid.integrate(dens * (3.0 * y * y - r2)))
    d_xy = float(grid.integrate(dens * 3.0 * x * y))
    return np.array([[d_xx, d_xy], [d_xy, d_yy]])
