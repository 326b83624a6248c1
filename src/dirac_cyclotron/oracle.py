"""Independent mode-sum evolution and quadrature engine.

Everything here deliberately avoids the grouped closed forms of the fields
module: each eigenmode is assembled from its own (d_n, b_n) spinor structure
and its own kernel factor, then summed term by term with exact phases.  The
quadrature routines integrate arbitrary one-body observables on polar grids.
Agreement between this route and the closed forms is the package's central
correctness property.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import ModeSet, block_sums, q_kernel_walk
from .fields import PolarGrid, polar_to_xy
from .spectrum import ModelParams, branch_coefficients, phi, phi_taylor2

SPECTRUM_VARIANTS = ("exact", "taylor2", "taylor2_integer")


def _mode_energies(n_max: int, params: ModelParams, variant: str) -> np.ndarray:
    if variant == "exact":
        return np.asarray(phi(np.arange(n_max + 1), params))
    if variant == "taylor2":
        return np.asarray(phi_taylor2(np.arange(n_max + 1), params))
    if variant == "taylor2_integer":
        # integer-centred quadratic spectrum: the structural-revival variant
        return np.asarray(phi_taylor2(np.arange(n_max + 1), params, params.n0))
    raise ValueError(f"unknown spectrum variant {variant!r}")


def mode_sum_field(
    rho,
    theta,
    tau,
    mode_set: ModeSet,
    params: ModelParams,
    spectrum_variant: str = "exact",
) -> np.ndarray:
    """Brute-force field: sum amplitude * spinor(n) * exp(-i s phi_n tau).

    The spinor of mode (n, s, lambda_k) places d_n/b_n-weighted kernels
    Q_{n-1}, Q_n in the two components selected by lambda_k.  ``tau`` is a
    scalar, giving shape ``(4,) + rho.shape``, or a 1-D axis, giving
    ``(len(tau), 4) + rho.shape``.  The sum runs over the flattened points
    in ``block_sums`` blocks of ``_BLOCK_POINTS // len(tau)`` points.  Each
    block walks the kernel orders Q_0 .. Q_{n_max} once, in one buffer
    stepped in place, and at each order adds every term that uses it, for
    all taus at once, to its component's compensated sum; no kernel stack
    is stored.  Mode-set entries must be in ascending n (``ValueError``
    otherwise): then each component's kernel orders ascend in entry order,
    so every point's terms are added in entry order whatever its block and
    whatever the other taus, and neither the blocking nor the tau axis
    changes a bit.
    """
    rho, theta = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(theta, dtype=float))
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise ValueError(f"tau must be a scalar or a 1-D axis, not of shape {taus.shape}")
    if not np.all(np.isfinite(taus)):
        raise ValueError(f"tau must be finite, got {taus[~np.isfinite(taus)].tolist()}")
    ns = [idx.n for idx, _ in mode_set.entries]
    if ns != sorted(ns):
        raise ValueError("mode-set entries must be in ascending Landau index n")
    if taus.size == 0:
        return np.empty((0, 4) + rho.shape, dtype=complex)
    n_max = mode_set.n_max
    x, y = (c.ravel() for c in polar_to_xy(rho, theta, params))
    energies = _mode_energies(n_max, params, spectrum_variant)
    d_all, b_all = (c.tolist() for c in branch_coefficients(np.arange(n_max + 1), params))
    tau_list = taus.reshape(-1).tolist()

    # Each kernel order's terms (component, (1, n_tau) row of factor * phase),
    # in entry order.  Mode (n, s) weights its two kernels by (d_n, -b_n) for
    # s = +1 and by (b_n, d_n) for s = -1: lambda_k = +1 puts them on Q_{n-1}
    # in psi_1 and Q_n in psi_4, lambda_k = -1 on Q_n in psi_2 and Q_{n-1} in
    # psi_3.  Q_{n-1} is absent only at n = 0, where b_n = 0.
    by_order: list[list] = [[] for _ in range(n_max + 1)]
    for idx, amp in mode_set.entries:
        n = idx.n
        d, b = d_all[n], b_all[n]
        phases = [amp * np.exp(-1j * idx.s * energies[n] * t) for t in tau_list]
        first, second = (d, -b) if idx.s == +1 else (b, d)
        if idx.lambda_k == +1:
            (lo, f_lo), (hi, f_hi) = (0, first), (3, second)
        else:
            (lo, f_lo), (hi, f_hi) = (2, second), (1, first)
        if n >= 1:
            by_order[n - 1].append((lo, np.array([[f_lo * ph for ph in phases]])))
        by_order[n].append((hi, np.array([[f_hi * ph for ph in phases]])))

    def add_terms(term, sums, xb, yb):
        # the term buffer is (point, tau), tau-major like the output
        for q, order_terms in zip(q_kernel_walk(n_max, xb, yb, params), by_order):
            for component, f in order_terms:
                sums[component].add(np.multiply(f, q, out=term))

    out = np.empty((len(tau_list), 4, rho.size), dtype=complex)
    # the points go in as (P, 1) columns, so a block holds _BLOCK_POINTS // n_tau of them
    block_sums(out.transpose(1, 2, 0), add_terms, x[:, None], y[:, None])
    return out.reshape(taus.shape + (4,) + rho.shape)


@dataclass(frozen=True)
class OracleField:
    """A mode-sum field sampled on a polar grid at one time.

    The samples are taken as fixed once the field exists, so its grid norm
    and its complex conjugate are computed once.
    """

    grid: PolarGrid
    samples: np.ndarray  # shape (4, n_rho, n_theta)

    @functools.cached_property
    def norm(self) -> float:
        return float(self.grid.integrate(np.abs(self.samples) ** 2).sum())

    @functools.cached_property
    def conj_samples(self) -> np.ndarray:
        """``samples.conj()``, read-only."""
        conj = self.samples.conj()
        conj.flags.writeable = False
        return conj


def sample_mode_sum(
    grid: PolarGrid, tau, mode_set: ModeSet, params: ModelParams
) -> OracleField | list[OracleField]:
    """The mode sum on ``grid.mesh()``: one read-only ``OracleField`` for a
    scalar tau, a list of one per tau for a 1-D axis."""
    samples = mode_sum_field(*grid.mesh(), tau, mode_set, params)
    samples.flags.writeable = False
    if samples.ndim == 3:
        return OracleField(grid=grid, samples=samples)
    return [OracleField(grid=grid, samples=s) for s in samples]


# 4x4 matrices of the one-body operators, basis (psi_1 .. psi_4).
_SIGMA_X = np.kron(np.eye(2), np.array([[0, 1], [1, 0]])).astype(complex)
_SIGMA_Y = np.kron(np.eye(2), np.array([[0, -1j], [1j, 0]]))
_SIGMA_Z = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
_SWAP = np.array([[0, 1], [1, 0]])
_ALPHA_X = np.kron(_SWAP, np.array([[0, 1], [1, 0]])).astype(complex)
_ALPHA_Y = np.kron(_SWAP, np.array([[0, -1j], [1j, 0]]))


def quadrature_expectation(kind: str, field: OracleField, params: ModelParams) -> float:
    """Grid quadrature of psi^dagger O psi for a one-body operator O.

    Velocities come out in c (O = alpha_i), spins in hbar/2 (O = Sigma_i),
    positions in a.  Refuses if the grid has visibly leaked norm.
    """
    psi = field.samples
    norm = field.norm
    if not abs(norm - 1.0) <= 1e-3:  # a NaN norm fails this too
        raise ValueError(f"field norm {norm:.6f} deviates too far from 1 (grid too small?)")
    if kind in ("position_x", "position_y"):
        rr, tt = field.grid.mesh()
        x, y = polar_to_xy(rr, tt, params)
        weight = x if kind == "position_x" else y
        dens = np.sum(np.abs(psi) ** 2, axis=0)
        return float(field.grid.integrate(weight * dens))
    matrices = {
        "velocity_x": _ALPHA_X,
        "velocity_y": _ALPHA_Y,
        "sigma_x": _SIGMA_X,
        "sigma_y": _SIGMA_Y,
        "sigma_z": _SIGMA_Z,
    }
    try:
        op = matrices[kind]
    except KeyError:
        raise ValueError(f"unknown operator kind {kind!r}") from None
    dens = np.einsum("i...,ij,j...->...", field.conj_samples, op, psi)
    return float(np.real(field.grid.integrate(dens)))


def fidelity(field_a: np.ndarray, field_b: np.ndarray, grid: PolarGrid) -> float:
    """|integral psi_a^dagger psi_b dA| for two fields on the same grid."""
    overlap = grid.integrate(np.sum(field_a.conj() * field_b, axis=0))
    return float(abs(overlap))


def normalized_fidelity(field_a: np.ndarray, field_b: np.ndarray, grid: PolarGrid) -> float:
    """Fidelity with both fields normalized on the grid first."""
    na, nb = (math.sqrt(float(grid.integrate(np.sum(np.abs(f) ** 2, axis=0))))
              for f in (field_a, field_b))
    for name, norm in (("field_a", na), ("field_b", nb)):
        if not norm > 0.0:
            raise ValueError(f"{name} has grid norm {norm}, so it cannot be normalized")
    return fidelity(field_a, field_b, grid) / (na * nb)


def hermite_functions(k_max: int, xi) -> np.ndarray:
    """Orthonormal oscillator functions h_0..h_kmax(xi), stable recurrence.

    h_k(xi) = H_k(xi) exp(-xi^2/2) / sqrt(2^k k! sqrt(pi)); the normalized
    three-term recurrence keeps values O(1) for k in the hundreds.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be non-negative, got {k_max}")
    xi = np.asarray(xi, dtype=float)
    out = np.empty((k_max + 1,) + xi.shape)
    out[0] = math.pi**-0.25 * np.exp(-0.5 * xi**2)
    if k_max >= 1:
        out[1] = math.sqrt(2.0) * xi * out[0]
    for k in range(2, k_max + 1):
        out[k] = math.sqrt(2.0 / k) * xi * out[k - 1] - math.sqrt(
            (k - 1) / k
        ) * out[k - 2]
    return out


_GH_NODES = 200


@functools.lru_cache(maxsize=None)
def _gauss_hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    # built on first use rather than at import: it solves a 200x200 eigenproblem
    nodes, weights = np.polynomial.hermite.hermgauss(_GH_NODES)
    # total weights w_i * exp(t_i^2) stay O(node spacing)
    total_w = weights * np.exp(nodes**2)
    nodes.flags.writeable = False
    total_w.flags.writeable = False
    return nodes, total_w


def b1_quadrature(k: int, x: float, y: float, params: ModelParams) -> complex:
    """Numeric p-integral definition of the kernel Q_k (oracle for q_kernel).

    Gauss-Hermite quadrature with 200 nodes centred at the momentum-profile
    peak p = qa (p in hbar/a units); the oscillator factor is evaluated by
    the stable normalized recurrence.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    nodes, total_w = _gauss_hermite_rule()
    p = params.qa + nodes
    # integrand: (2 pi)^{-1/2} pi^{-1/4} e^{i p x} e^{-(p-qa)^2/2} h_k(y - p)
    h = hermite_functions(k, y - p)[k]
    integrand = (
        np.exp(1j * p * x) * np.exp(-0.5 * nodes**2) * h
        / (math.sqrt(2.0 * math.pi) * math.pi**0.25)
    )
    return complex(np.sum(total_w * integrand))
