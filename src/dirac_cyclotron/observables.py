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


# A trace series forms its level terms in (levels, tau) blocks of at most this
# many elements: 64 KiB complex, below glibc's 128 KiB mmap threshold (README).
_TRACE_BLOCK = 4096


def _level_sum(tau: np.ndarray, n_levels: int, block_terms, dtype=complex) -> np.ndarray:
    """Compensated sum, in tau's shape, of the rows of ``block_terms(blk, t)``:
    the (levels, tau) terms of the level slice ``blk`` on the flattened tau
    axis ``t``, added one level at a time in ascending order."""
    t = tau.ravel()
    acc = KahanAccumulator(np.zeros(t.shape, dtype=dtype))
    rows = max(1, _TRACE_BLOCK // max(1, t.size))
    for start in range(0, n_levels, rows):
        for row in block_terms(slice(start, start + rows), t):
            acc.add(row)
    return acc.total.reshape(tau.shape)


def mean_velocity_positive(tau, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(v_x, v_y) in c of the positive-band packet.

    Series over pairs of adjacent Landau levels; each term beats at the
    local level spacing phi_{n+1} - phi_n, which is what produces the
    classical rotation, the collapse and the revivals.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    table = levels(params)
    win, p = table.window, table.phi
    a2, b2 = params.alpha**2, params.beta**2
    n = np.arange(win.n_min - 1, win.n_max - 1)[:, None]  # one row per level
    w = np.array(table.pair)[n] * np.sqrt((p[n + 1] - 1.0) / (2.0 * (n + 1) * p[n + 1]))
    ca, fa = a2 * np.sqrt((p[n + 2] + 1.0) / p[n + 2]), 1j * (p[n + 2] - p[n + 1])
    cb, fb = b2 * np.sqrt((p[n] + 1.0) / p[n]), 1j * (p[n + 1] - p[n])

    def terms(blk, t):
        term = ca[blk] * np.exp(fa[blk] * t)
        term += cb[blk] * np.exp(fb[blk] * t)
        return np.multiply(w[blk], term, out=term)

    v = _level_sum(tau, len(n), terms) / (a2 + b2)
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
    win, p, c2 = table.window, table.phi, np.array(table.c2)
    m = np.arange(win.n_min - 1, win.n_max)
    w = c2[m + 1] * np.sqrt((p[m] + 1.0) * (p[m + 1] + 1.0) / (p[m] * p[m + 1]))
    k = m[1:-1]  # the second sum's levels, n_min .. n_max - 2, follow the first's
    wk = c2[k + 1] * np.sqrt(k * (p[k] - 1.0) * (p[k + 1] - 1.0) / ((k + 1) * p[k] * p[k + 1]))
    w, f = np.r_[w, wk][:, None], 1j * np.r_[p[m + 1] - p[m], p[k + 1] - p[k]][:, None]
    s = _level_sum(tau, len(w), lambda blk, t: w[blk] * np.exp(f[blk] * t))
    s = s * params.alpha * params.beta / params.weight_norm**2
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
    s = pref * (np.conj(s_a2) * s_a1 + np.conj(s_b2) * s_b1)
    return s.real, s.imag


def spin_density_classical(rho, theta, tau: float, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Rigidly rotating approximation of the transverse spin density.

    A Gaussian blob on the cyclotron orbit whose spin direction precesses at
    the cyclotron frequency, with a small static relativistic correction:
    2 (conj(psi_1) psi_2 + conj(psi_3) psi_4) of ``classical_field``, whose
    weights scale it by 2 alpha beta / (alpha^2 + beta^2).
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    qa, al, be = params.qa, params.alpha, params.beta
    la = params.lambda_over_a
    _, dp, _ = taylor_at(params.n0, params)
    ang = dp * tau
    env = np.exp(
        -0.5 * (rho**2 + qa**2 + 2.0 * rho * qa * np.cos(theta + ang))
    ) / (2.0 * math.pi) * (2.0 * al * be / (al * al + be * be))
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
    table = levels(params)
    win, p = table.window, table.phi
    n = np.arange(win.n_min, win.n_max)[:, None]  # one row per level
    w, fd, fs = np.array(table.pair)[n - 1], p[n + 1] - p[n], p[n + 1] + p[n]
    cx, cy = w / (p[n] * p[n + 1]), w / p[n]

    def terms(blk, t):
        # v_x + i v_y, each part set apart: a + 1j*b would turn a -0.0 of b into +0.0
        slow, fast = fd[blk] * t, fs[blk] * t
        term = np.empty(slow.shape, dtype=complex)
        term.real = cx[blk] * (np.cos(slow) - np.cos(fast))
        term.imag = cy[blk] * (np.sin(slow) - np.sin(fast))
        return term

    v = _level_sum(tau, len(n), terms)
    return params.lambda_over_a * v.real, params.lambda_over_a * v.imag


def mean_spin_z_jc(tau, params: ModelParams) -> np.ndarray:
    """S_z (in hbar/2) of the two-band packet.

    Constant plateau plus bursts at twice the level energy; formally the
    Jaynes-Cummings ground-state population with revival time T_cl/2.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    table = levels(params)
    n = np.arange(table.window.n_min, table.window.n_max + 1)
    # squares as x ** 2 takes them (libm pow), which can round apart from x * x
    c2, p2 = (np.array([[x**2] for x in v[n].tolist()]) for v in (np.array(table.c), table.phi))
    k, f = 2.0 * n[:, None] * params.lambda_over_a**2, 2.0 * table.phi[n, None]
    return _level_sum(
        tau, len(n), lambda blk, t: c2[blk] * (1.0 + k[blk] * np.cos(f[blk] * t)) / p2[blk], float
    )


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
