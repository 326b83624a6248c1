"""Relativistic Landau spectrum, branch mixing and characteristic time scales.

Internal unit convention (used everywhere in this package):
    lengths     in the magnetic length a,
    time        in lambda/c (tau = c*t/lambda, lambda = Compton length),
    energies    in m*c^2,
    velocities  in c,
    spin        in hbar/2.
The two dimensionless knobs are ``lambda_over_a`` (how relativistic the
Landau ladder is) and ``qa`` (orbit radius; the packet is centred on the
level n0 = (qa)^2 / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Critical (Schwinger) field m^2 c^3 / (e hbar), used to convert lambda/a
# to a laboratory field strength.  CODATA-derived, fixed so outputs are
# bit-reproducible.
B_CRITICAL_TESLA = 4.414e9

# One unit of internal time, lambda/c = hbar/(m c^2), in seconds (CODATA
# electron values).
TIME_UNIT_SECONDS = 1.28808867e-21


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless configuration of packet and field.

    ``alpha``/``beta`` are the real superposition weights of the two
    invariant subspaces; they are stored unnormalized and consumed as
    alpha^2/(alpha^2+beta^2) etc.  ``trunc_tol`` bounds the coherent-weight
    tail mass dropped by series truncation.
    """

    lambda_over_a: float
    qa: float
    alpha: float = 1.0
    beta: float = 1.0
    trunc_tol: float = 1e-12

    def __post_init__(self):
        for name in ("lambda_over_a", "qa", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.lambda_over_a > 0:
            raise ValueError("lambda_over_a must be positive")
        if not self.qa >= 1:
            raise ValueError("taylor expansion assumes qa >= 1")
        if self.alpha == 0 and self.beta == 0:
            raise ValueError("alpha and beta cannot both vanish")
        if not 0 < self.trunc_tol < 1:
            raise ValueError("trunc_tol must lie in (0, 1)")

    @property
    def weight_norm(self) -> float:
        """sqrt(alpha^2 + beta^2)."""
        return math.hypot(self.alpha, self.beta)

    @property
    def n0_real(self) -> float:
        """Real-valued central level (qa)^2 / 2 (used in Taylor formulas)."""
        return 0.5 * self.qa**2

    @property
    def n0(self) -> int:
        """Integer central level, round((qa)^2 / 2) (used for labelling)."""
        return round(self.n0_real)


@dataclass(frozen=True)
class ModeIndex:
    """Eigenstate label: Landau index n, band sign s, subspace label lambda_k.

    The allowed n range depends on (s, lambda_k): within the lambda_k=+1
    subspace the positive band starts at n=1 and the negative at n=0; the
    ranges swap for lambda_k=-1.
    """

    n: int
    s: int
    lambda_k: int

    def __post_init__(self):
        if self.s not in (+1, -1) or self.lambda_k not in (+1, -1):
            raise ValueError("s and lambda_k must be +1 or -1")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        n_min = 1 if self.s == self.lambda_k else 0
        if self.n < n_min:
            raise ValueError(
                f"n={self.n} not allowed for s={self.s}, lambda_k={self.lambda_k}"
            )


@dataclass(frozen=True)
class DerivedScales:
    """Characteristic scales of the packet evolution.

    Times are in lambda/c, frequencies in c/lambda.  ``phi0``, ``dphi`` and
    ``ddphi`` are the dimensionless level energy and its first two
    derivatives with respect to (continuous) n at the real-valued n0.
    """

    n0: int
    n0_real: float
    phi0: float
    dphi: float
    ddphi: float
    T_cl: float
    T_D: float
    T_R: float
    omega_c: float
    omega_zb: float
    B_tesla: float


def phi(n, params: ModelParams):
    """Dimensionless level energy sqrt(1 + 2 n (lambda/a)^2); n may be an array.

    Accepts real n as well (the continuous interpolation used by the Taylor
    expansion around n0).
    """
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise ValueError("Landau index must be non-negative")
    out = np.sqrt(1.0 + 2.0 * n * params.lambda_over_a**2)
    return out if out.ndim else float(out)


def branch_coefficients(n, params: ModelParams):
    """Mixing coefficients (d_n, b_n) of the two spinor branches.

    d_n = sqrt((phi_n + 1)/(2 phi_n)), b_n = sqrt((phi_n - 1)/(2 phi_n));
    d_n^2 + b_n^2 = 1 and d_n^2 - b_n^2 = 1/phi_n.
    """
    p = phi(n, params)
    d = np.sqrt((p + 1.0) / (2.0 * p))
    b = np.sqrt((p - 1.0) / (2.0 * p))
    return d, b


def taylor_at(n_center: float, params: ModelParams) -> tuple[float, float, float]:
    """(phi, phi', phi'') of the continuous spectrum at an arbitrary center.

    phi' = (lambda/a)^2 / phi,  phi'' = -(lambda/a)^4 / phi^3.
    """
    la2 = params.lambda_over_a**2
    p = float(phi(n_center, params))
    return p, la2 / p, -(la2**2) / p**3


def phi_taylor2(n, params: ModelParams, n_center: float | None = None):
    """phi_n truncated to the quadratic Taylor expansion.

    Default center is the real-valued n0 (best quantitative fit); pass
    ``n_center=params.n0`` for the integer-centred expansion under which the
    revival and Gauss-sum identities are exact.
    """
    n = np.asarray(n, dtype=float)
    if n_center is None:
        n_center = params.n0_real
    p0, dp, ddp = taylor_at(n_center, params)
    out = p0 + dp * (n - n_center) + 0.5 * ddp * (n - n_center) ** 2
    return out if out.ndim else float(out)


def derived_scales(params: ModelParams) -> DerivedScales:
    """All characteristic time/frequency scales, evaluated at the real n0.

    The real center gives the best quantitative time scales; structural
    revival identities (which need integer index offsets) instead expand
    around the integer n0 via ``taylor_at(params.n0, ...)``.
    """
    n0r = params.n0_real
    try:
        p0, dp, ddp = taylor_at(n0r, params)
    except OverflowError:
        # Python float powers raise rather than return inf
        raise ValueError(
            f"lambda_over_a = {params.lambda_over_a!r} is too large: "
            "phi'' = -(lambda/a)^4 / phi^3 overflows"
        ) from None
    T_R = 4.0 * math.pi / abs(ddp) if ddp else math.inf
    if T_R == math.inf:
        raise ValueError(f"lambda_over_a = {params.lambda_over_a!r} is too small: T_R overflows")
    T_cl = 2.0 * math.pi / dp
    T_D = 2.0 / (params.qa * abs(ddp))
    return DerivedScales(
        n0=params.n0,
        n0_real=n0r,
        phi0=p0,
        dphi=dp,
        ddphi=ddp,
        T_cl=T_cl,
        T_D=T_D,
        T_R=T_R,
        omega_c=2.0 * math.pi / T_cl,
        omega_zb=2.0 * p0,
        B_tesla=params.lambda_over_a**2 * B_CRITICAL_TESLA,
    )


def fractional_revival_count(m: int, n: int) -> int:
    """Number of sub-packets at t = m T_R / n:  N = n (3 - (-1)^n) / 4.

    m/n must be an irreducible fraction; callers reduce it first.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if math.gcd(m, n) != 1:
        raise ValueError(f"{m}/{n} is not an irreducible fraction")
    return n * (3 - (-1) ** n) // 4
