"""Closed-form spinor fields on polar grids for both packet families.

The polar frame is attached to the guiding centre of the orbit:
x/a = rho sin(theta), (y - qa^2)/a = rho cos(theta).  All fields are
returned as complex arrays of shape (4,) + the broadcast shape of rho and
theta (grid axes give the full grid, with the bits of a mesh), in units 1/a
(two-dimensional normalization), and all series run over the coherent-index
truncation window in ascending order with compensated accumulation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import block_sums, levels
from .spectrum import ModelParams, taylor_at


@dataclass(frozen=True)
class PolarGrid:
    """Product grid: trapezoidal nodes in rho, uniform periodic nodes in theta.

    The induced quadrature weight is rho * drho * dtheta; ``integrate``
    contracts the trailing (n_rho, n_theta) axes of its argument against it.
    """

    rho_max: float
    n_rho: int
    n_theta: int

    def __post_init__(self):
        if not 0.0 < self.rho_max < math.inf:
            raise ValueError("rho_max must be positive and finite")
        if self.n_rho < 2:
            raise ValueError("n_rho must be >= 2")
        if self.n_theta < 1:
            raise ValueError("n_theta must be >= 1")

    @property
    def rho(self) -> np.ndarray:
        return np.linspace(0.0, self.rho_max, self.n_rho)

    @property
    def theta(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * math.pi, self.n_theta, endpoint=False)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.rho, self.theta, indexing="ij")

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """The quadrature weights, built once per grid and read-only."""
        d_rho = self.rho_max / (self.n_rho - 1)
        w_rho = np.full(self.n_rho, d_rho)
        w_rho[0] = w_rho[-1] = 0.5 * d_rho
        d_theta = 2.0 * math.pi / self.n_theta
        out = np.outer(self.rho * w_rho, np.full(self.n_theta, d_theta))
        out.flags.writeable = False
        return out

    def integrate(self, values) -> np.ndarray | float | complex:
        out = np.einsum("...ij,ij->...", np.asarray(values), self.weights)
        return out if np.ndim(out) else out.item()


def default_grid(params: ModelParams, n_rho: int = 120, n_theta: int = 256) -> PolarGrid:
    """Grid sized so grid norms of the packet families hold to ~1e-6."""
    return PolarGrid(rho_max=params.qa + 6.0, n_rho=n_rho, n_theta=n_theta)


def polar_to_xy(rho, theta, params: ModelParams):
    """Laboratory coordinates (in a) of a guiding-centre polar point."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return rho * np.sin(theta), params.qa + rho * np.cos(theta)


def envelope_prefactor(rho, theta, params: ModelParams):
    """The common Gaussian-with-phase prefactor M(rho, theta), units 1/a."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    qa = params.qa
    expo = -(rho**2 + qa**2) / 4.0 + 0.5j * rho * np.sin(theta) * (
        rho * np.cos(theta) + 2.0 * qa
    )
    return np.exp(expo) / math.sqrt(2.0 * math.pi)


def coherent_ground_state(rho, theta, params: ModelParams):
    """The t=0 coherent orbital wave function psi_c (scalar, units 1/a)."""
    w = -0.5 * params.qa * np.asarray(rho, dtype=float) * np.exp(
        -1j * np.asarray(theta, dtype=float)
    )
    return envelope_prefactor(rho, theta, params) * np.exp(w)


def _scaled_power(w: np.ndarray, j: int) -> np.ndarray:
    """w^j / j! elementwise as an ndarray, via log magnitudes (j may be large)."""
    if j <= 0:
        return np.ones_like(w)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(w))
    return np.asarray(np.exp(j * log_mag - math.lgamma(j + 1)) * np.exp(1j * j * np.angle(w)))


def positive_energy_field(rho, theta, tau: float, params: ModelParams) -> np.ndarray:
    """Positive-band packet: closed-form series over the truncation window.

    Per coherent index k the lambda_k=+1 branch populates components 1 and 4
    (Landau index n = k) and the lambda_k=-1 branch components 2 and 3
    (Landau index n = k - 1); each carries the exact phase
    exp(-i n theta - i phi_n tau).
    """
    table = levels(params)
    win, p, d, b = table.window, table.phi, table.d, table.b
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    qa, al, be = params.qa, params.alpha, params.beta
    e_mth = np.exp(-1j * theta)
    w = -0.5 * qa * rho * e_mth  # gamma * e^{-i theta}

    # per level k: the weights and phase of Landau index k (components 1 and
    # 4), then of n = k - 1 (components 2 and 3); each phase is built once
    phase = {n: np.exp(-1j * p[n] * tau) for n in range(win.n_min - 1, win.n_max + 1)}
    series = [
        (k, al * d[k], -al * b[k], math.sqrt(2.0 * k), phase[k], be * d[k - 1],
         be * b[k - 1] * qa / math.sqrt(2.0 * (k - 1)) if k >= 2 else None, phase[k - 1])
        for k in range(win.n_min, win.n_max + 1)
    ]

    def add_terms(term, acc, w_b, rho_b, e_b):
        W = _scaled_power(w_b, win.n_min - 1)  # w^(k-1)/(k-1)! at k = n_min
        W_prev = _scaled_power(w_b, win.n_min - 2) if win.n_min >= 2 else np.empty_like(W)
        for k, a1, a4, root_2k, ph_k, b2, b3, ph_n in series:
            # lambda_k=+1 branch: Landau index n = k, components 1 and 4
            if al != 0.0:
                acc[0].add(np.multiply(np.multiply(a1, W, out=term), ph_k, out=term))
                np.multiply(a4 * rho_b / root_2k, W, out=term)
                acc[3].add(np.multiply(np.multiply(term, e_b, out=term), ph_k, out=term))
            # lambda_k=-1 branch: Landau index n = k - 1, components 2 and 3
            if be != 0.0:
                acc[1].add(np.multiply(np.multiply(b2, W, out=term), ph_n, out=term))
                if b3 is not None:
                    acc[2].add(np.multiply(np.multiply(b3, W_prev, out=term), ph_n, out=term))
            W_prev, W = W, np.divide(np.multiply(W, w_b, out=W_prev), k, out=W_prev)

    totals = np.empty((4,) + np.broadcast_shapes(rho.shape, theta.shape), dtype=complex)
    block_sums(totals, add_terms, w, rho, e_mth)
    pref = envelope_prefactor(rho, theta, params) / params.weight_norm
    return np.multiply(pref, totals, out=totals)


def classical_field(rho, theta, tau: float, params: ModelParams) -> np.ndarray:
    """Coherent weakly-relativistic packet (linearized spectrum around n0).

    Rigid rotation along the orbit: the density centre sits at
    theta_c = pi - 2*pi*tau/T_cl.  The linearization is centred on the
    *integer* n0, so that the residual phases are exact quadratics in the
    integer offset n - n0 and the revival/Gauss-sum identities hold exactly.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    pref = _classical_prefactor(envelope_prefactor(rho, theta, params), rho, theta, tau, params)
    psi = np.empty((4,) + pref.shape, dtype=complex)
    for i, factor in enumerate(_spin_factors(rho, theta, params)(tau)):
        np.multiply(factor, pref, out=psi[i, ...])  # an array, also for a point
    return psi


def _classical_prefactor(env, rho, theta, tau: float, params: ModelParams) -> np.ndarray:
    """The classical packet's rotation x ``env`` (the envelope prefactor) x global
    phase / weight_norm at ``tau``, formed in place: an array, also for a point."""
    phi0, dp, _ = taylor_at(params.n0, params)
    pref = np.asarray(np.exp(-0.5 * params.qa * rho * np.exp(-1j * (theta + dp * tau))))
    np.multiply(env, pref, out=pref)
    np.multiply(pref, np.exp(-1j * (phi0 + (1.0 - params.n0) * dp) * tau), out=pref)
    return np.divide(pref, params.weight_norm, out=pref)


def _spin_factors(rho, theta, params: ModelParams):
    """The classical packet's four spin factors as a function of tau: alpha,
    beta e^{i phi' tau}, beta qa lambda/2a and -alpha (lambda/2a) rho e^{-i theta},
    the last formed once here.  Component i is factor_i x prefactor."""
    _, dp, _ = taylor_at(params.n0, params)
    al, be, la = params.alpha, params.beta, params.lambda_over_a
    last = np.multiply(-al * 0.5 * la * rho, np.exp(-1j * theta))
    return lambda tau: (al, be * np.exp(1j * dp * tau), be * 0.5 * params.qa * la, last)


def classical_density(rho, theta, tau: float, params: ModelParams) -> np.ndarray:
    """|psi_cl|^2 in closed Gaussian form (requires alpha = beta)."""
    if params.alpha != params.beta:
        raise ValueError("closed-form classical density assumes alpha = beta")
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    qa, la = params.qa, params.lambda_over_a
    _, dp, _ = taylor_at(params.n0, params)
    gauss = np.exp(
        -0.5 * (rho**2 + qa**2 + 2.0 * rho * qa * np.cos(theta + dp * tau))
    )
    return (1.0 + la**2 / 8.0 * (rho**2 + qa**2)) / (2.0 * math.pi) * gauss


def gauss_sum_coefficients(m: int, n: int) -> tuple[int, np.ndarray]:
    """Fractional-revival weights at t = m T_R / n.

    m/n must be irreducible with 1 <= n <= 8 (ValueError otherwise).  The
    per-mode phase factor f_k = exp(2*pi*i*m*k^2/n) has the period
    l = n/2 if 4 divides n, else l = n; returns (l, p) with p_j defined by
    f_k = sum_j p_j exp(-2*pi*i*j*k/l), so the packet is
    sum_j p_j psi_cl(tau + j*T_cl/l).  Unitary: sum |p_j|^2 = 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got n = {n}")
    if n > 8:
        raise ValueError(f"fractional revivals supported for n <= 8, got n = {n}")
    if math.gcd(m, n) != 1:
        raise ValueError(f"{m}/{n} is not an irreducible fraction")
    period = n // 2 if n % 4 == 0 else n
    k = np.arange(period)
    f = np.exp(2j * math.pi * m * k**2 / n)
    j = np.arange(period)
    # inverse transform with the sign matching the +j*T_cl/l time shifts
    p = f @ np.exp(2j * math.pi * np.outer(k, j) / period) / period
    return period, p


def fractional_revival_field(
    rho, theta, tau: float, m: int, n: int, params: ModelParams
) -> np.ndarray:
    """Sub-packet superposition valid for tau near m*T_R/n.

    Equal to sum_j p_j psi_cl(tau + j T_cl / l) with the Gauss-sum weights
    from ``gauss_sum_coefficients``; n=2 collapses to the single shifted
    classical packet of the first reconstruction.
    """
    _, dp, _ = taylor_at(params.n0, params)
    t_cl = 2.0 * math.pi / dp
    period, p = gauss_sum_coefficients(m, n)
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)

    def add_terms(term, sums, rho_b, theta_b):
        env = envelope_prefactor(rho_b, theta_b, params)
        factors_at = _spin_factors(rho_b, theta_b, params)
        for j in range(period):
            t = tau + j * t_cl / period
            pref = _classical_prefactor(env, rho_b, theta_b, t, params)
            for acc, factor in zip(sums, factors_at(t), strict=True):
                acc.add(np.multiply(p[j], np.multiply(factor, pref, out=term), out=term))
            del pref  # so the next sub-packet's prefactor is formed without it

    out = np.empty((4,) + np.broadcast_shapes(rho.shape, theta.shape), dtype=complex)
    block_sums(out, add_terms, rho, theta)
    return out


def jc_field(rho, theta, tau: float, params: ModelParams) -> np.ndarray:
    """Two-band (Jaynes-Cummings subspace) packet as the 4-spinor (Psi1, 0, 0, Psi2).

    Written against the common prefactor M rather than psi_c * exp(-w) (the
    two forms are identical; this one avoids cancellation for large w).
    """
    table = levels(params)
    win, phis = table.window, table.phi
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    qa, la = params.qa, params.lambda_over_a
    e_mth = np.exp(-1j * theta)
    w = -0.5 * qa * rho * e_mth

    n_start = max(1, win.n_min)
    series = []  # per level n: the weights of its two sums at tau
    for n in range(n_start, win.n_max + 1):
        p = phis[n]
        c_t, s_t = math.cos(p * tau), math.sin(p * tau)
        series.append((n, c_t - 1j * s_t / p, s_t / p))

    def add_terms(term, sums, w_b):
        W = _scaled_power(w_b, n_start - 1)
        for n, z1, z2 in series:
            sums[0].add(np.multiply(W, z1, out=term))
            sums[1].add(np.multiply(W, z2, out=term))
            np.divide(np.multiply(W, w_b, out=W), n, out=W)

    psi = np.zeros((4,) + np.broadcast_shapes(rho.shape, theta.shape), dtype=complex)
    block_sums(psi[::3], add_terms, w)  # the two sums go to components 1 and 4
    pref = envelope_prefactor(rho, theta, params)
    psi[0] = pref * psi[0]
    psi[3] = pref * 1j * la * rho * e_mth * psi[3]
    return psi


def cat_decomposition(
    tau: float, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, float]:
    """Time-evolved spin factors of the two counter-rotating components.

    Returns (spin_plus, spin_minus, |overlap|), each spin factor a
    4-component vector.  At tau0 = T_cl/4 the overlap takes the closed form
    sqrt(2 n0 (lambda/a)^2 / (1 + 2 n0 (lambda/a)^2)).
    """
    table = levels(params)
    d0, b0 = table.d[params.n0], table.b[params.n0]
    _, dp, _ = taylor_at(params.n0, params)
    up = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    down = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    spin_plus = np.exp(-1j * dp * tau) * d0 * up + b0 * down
    spin_minus = np.exp(1j * dp * tau) * b0 * up - d0 * down
    overlap = abs(np.vdot(spin_plus, spin_minus))
    return spin_plus, spin_minus, float(overlap)


def cat_overlap_closed_form(params: ModelParams) -> float:
    """Overlap of the two spin factors at tau0 = T_cl/4, closed form."""
    x = 2.0 * params.n0 * params.lambda_over_a**2
    return math.sqrt(x / (1.0 + x))
