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

from .basis import KahanAccumulator, ModeSet, q_kernel_stack
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


# Points per block of the mode sum.  A block's kernel stack and the four
# per-component buffers stay cache-sized; smaller blocks make more, shorter
# ufunc calls, which cost more than they save when two threads share the GIL.
_BLOCK_POINTS = 16384


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
    in blocks of at most ``_BLOCK_POINTS``: each block builds its own kernel
    stack of the orders the mode set uses, max(0, n_min - 1) .. n_max, which
    does not depend on tau, sums every tau from it in order and frees it
    before the next block, so the oracle never holds a full-grid stack nor
    the orders below the window.  Each point's terms are added in the same
    order whatever its block and whatever the other taus, and each stored
    kernel has the bits of the full stack's, so neither the blocking, the
    tau axis nor the lowest order changes a bit.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    rho, theta = np.broadcast_arrays(rho, theta)
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise ValueError(f"tau must be a scalar or a 1-D axis, not of shape {taus.shape}")
    n_max = mode_set.n_max
    k_min = max(0, mode_set.n_min - 1)  # the lowest kernel order any mode uses
    x, y = (c.ravel() for c in polar_to_xy(rho, theta, params))
    energies = _mode_energies(n_max, params, spectrum_variant)
    d_all, b_all = (c.tolist() for c in branch_coefficients(np.arange(n_max + 1), params))

    def terms(t: float) -> tuple[list, ...]:
        """Each component's terms (factor * phase, stack row) at time t, in entry order.

        Row k - k_min of a block's stack holds the kernel Q_k.

        Mode (n, s) weights its two kernels by (d_n, -b_n) for s = +1 and by
        (b_n, d_n) for s = -1: lambda_k = +1 puts them on Q_{n-1} in psi_1 and
        Q_n in psi_4, lambda_k = -1 on Q_n in psi_2 and Q_{n-1} in psi_3.
        Q_{n-1} is absent only at n = 0, where b_n = 0.
        """
        comps: tuple[list, ...] = ([], [], [], [])
        for idx, amp in mode_set.entries:
            n = idx.n
            d, b = d_all[n], b_all[n]
            ph = amp * np.exp(-1j * idx.s * energies[n] * t)
            first, second = (d, -b) if idx.s == +1 else (b, d)
            if idx.lambda_k == +1:
                (lo, f_lo), (hi, f_hi) = (0, first), (3, second)
            else:
                (lo, f_lo), (hi, f_hi) = (2, second), (1, first)
            if n >= 1:
                comps[lo].append((f_lo * ph, n - 1 - k_min))
            comps[hi].append((f_hi * ph, n - k_min))
        return comps

    per_tau = [terms(t) for t in taus.reshape(-1).tolist()]
    # per block and tau, one compensated pass per component, each term formed in one buffer
    out = np.empty((len(per_tau), 4, rho.size), dtype=complex)
    term = np.empty(min(rho.size, _BLOCK_POINTS), dtype=complex)
    for start in range(0, rho.size, _BLOCK_POINTS):
        stop = min(start + _BLOCK_POINTS, rho.size)
        q = q_kernel_stack(n_max, x[start:stop], y[start:stop], params, k_min)
        block_term = term[: stop - start]
        for field, field_terms in zip(out[:, :, start:stop], per_tau):
            for component, component_terms in zip(field, field_terms):
                acc = KahanAccumulator(component)
                for f, k in component_terms:
                    acc.add(np.multiply(f, q[k], out=block_term))
                component[...] = acc.total
        del q  # a block's stack is freed before the next one is built
    return out.reshape(taus.shape + (4,) + rho.shape)


@dataclass(frozen=True)
class OracleField:
    """A mode-sum field sampled on a polar grid at one time.

    The samples are taken as fixed once the field exists, so its grid norm
    is computed once.
    """

    grid: PolarGrid
    samples: np.ndarray  # shape (4, n_rho, n_theta)

    def norm(self) -> float:
        return self._norm

    @functools.cached_property
    def _norm(self) -> float:
        return float(self.grid.integrate(np.abs(self.samples) ** 2).sum())


def sample_mode_sum(
    grid: PolarGrid,
    tau,
    mode_set: ModeSet,
    params: ModelParams,
    spectrum_variant: str = "exact",
) -> OracleField | list[OracleField]:
    """The mode sum on ``grid.mesh()``: one read-only ``OracleField`` for a
    scalar tau, a list of one per tau for a 1-D axis."""
    samples = mode_sum_field(*grid.mesh(), tau, mode_set, params, spectrum_variant)
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
    norm = field.norm()
    if abs(norm - 1.0) > 1e-3:
        raise ValueError(f"field norm {norm:.6f} deviates too far from 1 (grid too small?)")
    if kind == "norm":
        return norm
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
    dens = np.einsum("i...,ij,j...->...", psi.conj(), op, psi)
    return float(np.real(field.grid.integrate(dens)))


def fidelity(field_a: np.ndarray, field_b: np.ndarray, grid: PolarGrid) -> float:
    """|integral psi_a^dagger psi_b dA| for two fields on the same grid."""
    overlap = grid.integrate(np.sum(field_a.conj() * field_b, axis=0))
    return float(abs(overlap))


def normalized_fidelity(field_a: np.ndarray, field_b: np.ndarray, grid: PolarGrid) -> float:
    """Fidelity with both fields normalized on the grid first."""
    na = math.sqrt(float(grid.integrate(np.sum(np.abs(field_a) ** 2, axis=0))))
    nb = math.sqrt(float(grid.integrate(np.sum(np.abs(field_b) ** 2, axis=0))))
    return fidelity(field_a, field_b, grid) / (na * nb)


def hermite_functions(k_max: int, xi) -> np.ndarray:
    """Orthonormal oscillator functions h_0..h_kmax(xi), stable recurrence.

    h_k(xi) = H_k(xi) exp(-xi^2/2) / sqrt(2^k k! sqrt(pi)); the normalized
    three-term recurrence keeps values O(1) for k in the hundreds.
    """
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
