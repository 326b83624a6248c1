"""Shared expansion machinery: coherent weights, the p-integrated kernel
Q_k, truncation control and mode-set construction.

A packet is represented as a ``ModeSet``: a list of (ModeIndex, amplitude)
pairs in the energy eigenbasis, truncated so that the dropped coherent-weight
tail mass is below ``trunc_tol``.  All factorial/power products are computed
through log-gamma or running ratios, never raw factorials, so Landau indices
of several hundred stay exact to double round-off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectrum import ModeIndex, ModelParams, branch_coefficients


class KahanAccumulator:
    """Compensated (Kahan) accumulator for scalars or numpy arrays.

    Terms are fed in a fixed order (ascending n throughout this package),
    which makes every series bit-reproducible regardless of how outer loops
    are scheduled.
    """

    def __init__(self, like):
        self._s = np.zeros_like(like)
        self._c = np.zeros_like(like)

    def add(self, x):
        y = x - self._c
        t = self._s + y
        self._c = (t - self._s) - y
        self._s = t

    @property
    def total(self):
        return self._s


def kahan_sum(terms, like=None):
    """Compensated sum of an iterable of scalars/arrays, in iteration order."""
    it = iter(terms)
    if like is None:
        first = next(it)
        acc = KahanAccumulator(np.asarray(first, dtype=np.result_type(first, 0.0)))
        acc.add(first)
    else:
        acc = KahanAccumulator(like)
    for t in it:
        acc.add(t)
    return acc.total


def coherent_coefficient(n: int, qa: float) -> float:
    """Coherent-state weight c_n (1-indexed).

    c_n = exp(-(qa)^2/4) (-qa)^(n-1) / sqrt(2^(n-1) (n-1)!), evaluated in
    log space with an explicit sign so that n of several hundred does not
    overflow.  The weights are Poisson-normalized: sum_n c_n^2 = 1.
    """
    if n < 1:
        raise ValueError("coherent coefficients are 1-indexed (n >= 1)")
    k = n - 1
    log_mag = -0.25 * qa**2 + k * math.log(qa) - 0.5 * (
        k * math.log(2.0) + math.lgamma(k + 1)
    )
    sign = -1.0 if k % 2 else 1.0
    return sign * math.exp(log_mag)


def coherent_coefficients(n_max: int, qa: float) -> np.ndarray:
    """Vector [c_1 .. c_n_max] (index i holds c_{i+1})."""
    k = np.arange(n_max, dtype=float)
    log_mag = (
        -0.25 * qa**2
        + k * math.log(qa)
        - 0.5 * (k * math.log(2.0) + np.array([math.lgamma(x + 1) for x in k]))
    )
    sign = np.where(np.arange(n_max) % 2, -1.0, 1.0)
    return sign * np.exp(log_mag)


def momentum_profile(p, params: ModelParams):
    """Gaussian momentum amplitude g(p), with p in units of hbar/a.

    Normalized so that the integral of g^2 over p (in physical units) is 1;
    in hbar/a units this reads integral g^2 dp = 1 with
    g(p) = pi^(-1/4) exp(-(p - qa)^2 / 2).
    """
    p = np.asarray(p, dtype=float)
    out = math.pi**-0.25 * np.exp(-0.5 * (p - params.qa) ** 2)
    return out if out.ndim else float(out)


def q_kernel(k: int, x, y, params: ModelParams):
    """Closed form of the p-integrated kernel Q_k at (x, y) (lengths in a).

    Q_k = ((y - qa - i x)^k / sqrt(2^(k+1) k! pi))
          * exp((2 i x (y + qa) - x^2 - (y - qa)^2) / 4),
    with the power/factorial part evaluated in log space.  For fixed (x, y)
    the kernel obeys the ratio recurrence
    Q_{k+1} = Q_k * (y - qa - i x) / sqrt(2 (k + 1)).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    qa = params.qa
    u = (y - qa) - 1j * x
    expo = (2j * x * (y + qa) - x**2 - (y - qa) ** 2) / 4.0
    log_norm = -0.5 * ((k + 1) * math.log(2.0) + math.lgamma(k + 1) + math.log(math.pi))
    # u^k in log-magnitude + phase form to keep large k stable; u=0 -> 0^k.
    r = np.abs(u)
    if k == 0:
        mag = np.exp(log_norm) * np.ones_like(r)
    else:
        mag = np.where(
            r > 0, np.exp(k * np.log(np.where(r > 0, r, 1.0)) + log_norm), 0.0
        )
    out = mag * np.exp(1j * k * np.angle(u)) * np.exp(expo)
    return out if out.ndim else complex(out)


def q_kernel_stack(k_max: int, x, y, params: ModelParams) -> np.ndarray:
    """Q_0 .. Q_{k_max} on a grid via the ratio recurrence (axis 0 is k)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    qa = params.qa
    u = (y - qa) - 1j * x
    q0 = np.exp((2j * x * (y + qa) - x**2 - (y - qa) ** 2) / 4.0) / math.sqrt(
        2.0 * math.pi
    )
    out = np.empty((k_max + 1,) + q0.shape, dtype=complex)
    out[0] = q0
    for k in range(1, k_max + 1):
        out[k] = out[k - 1] * u / math.sqrt(2.0 * k)
    return out


@dataclass(frozen=True)
class TruncationWindow:
    """Inclusive coherent-index range [n_min, n_max] with tail mass < tol."""

    n_min: int
    n_max: int

    def __contains__(self, n: int) -> bool:
        return self.n_min <= n <= self.n_max

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)


def _log_weight_sq(k: np.ndarray, qa: float) -> np.ndarray:
    # log c_{k}^2 = Poisson log-pmf at k-1 with mean (qa)^2/2
    lam = 0.5 * qa**2
    j = k - 1
    return -lam + j * math.log(lam) - np.array([math.lgamma(x + 1) for x in j])


def truncation_window(params: ModelParams) -> TruncationWindow:
    """Smallest window of coherent indices whose dropped tail mass < trunc_tol.

    Grown greedily outwards from the weight peak, always absorbing the
    boundary with the larger mass (the Poisson weights are right-skewed, so
    the window comes out asymmetric around n0 + 1).  The window depends only
    on (qa, trunc_tol, n_max_override) and is cached on those, so packets
    that differ only in alpha/beta or lambda_over_a share one instance.
    """
    return _window(params.qa, params.trunc_tol, params.n_max_override)


@functools.lru_cache(maxsize=256)
def _window(qa: float, trunc_tol: float, hard_max: int | None) -> TruncationWindow:
    lam = 0.5 * qa**2
    peak = max(1, int(math.floor(lam)) + 1)
    lo = hi = peak
    covered = math.exp(float(_log_weight_sq(np.array([peak]), qa)[0]))
    while 1.0 - covered >= trunc_tol:
        w_lo = (
            math.exp(float(_log_weight_sq(np.array([lo - 1]), qa)[0]))
            if lo > 1
            else -1.0
        )
        w_hi = math.exp(float(_log_weight_sq(np.array([hi + 1]), qa)[0]))
        grow_hi = w_hi >= w_lo
        if hard_max is not None and hi + 1 > hard_max:
            grow_hi = False
        if grow_hi:
            hi += 1
            covered += w_hi
        elif lo > 1:
            lo -= 1
            covered += w_lo
        else:
            raise RuntimeError(
                f"trunc_tol={trunc_tol:g} unattainable with "
                f"n_max_override={hard_max}"
            )
    return TruncationWindow(lo, hi)


@dataclass(frozen=True)
class ModeSet:
    """A packet in the energy representation.

    ``entries`` is a tuple of (ModeIndex, amplitude) sorted by ascending
    Landau index (fixed summation order for determinism).  ``kind`` records
    the construction: ``positive_only``, ``two_band``, ``cat_plus`` or
    ``cat_minus``.
    """

    kind: str
    entries: tuple[tuple[ModeIndex, complex], ...]
    window: TruncationWindow

    @property
    def n_max(self) -> int:
        return max(idx.n for idx, _ in self.entries)

    def norm_sq(self) -> float:
        return float(kahan_sum([abs(a) ** 2 for _, a in self.entries]))


MODE_SET_KINDS = ("positive_only", "two_band", "cat_plus", "cat_minus")


def build_mode_set(kind: str, params: ModelParams) -> ModeSet:
    """Expand one of the packet families over the truncation window.

    positive_only: the two positive-band branches weighted alpha/beta.
    two_band:      equal-energy superposition of both bands in the
                   lambda_k=+1 subspace, weights c_n d_n and c_n b_n.
    cat_plus/cat_minus: the two counter-rotating components of the two_band
                   packet, obtained by projecting onto the (nearly spin-pure)
                   +/- spinor factors at the central level n0.
    """
    if kind not in MODE_SET_KINDS:
        raise ValueError(f"unknown mode-set kind {kind!r}")
    win = truncation_window(params)
    qa = params.qa
    c = {k: coherent_coefficient(k, qa) for k in range(win.n_min, win.n_max + 1)}
    entries: list[tuple[ModeIndex, complex]] = []

    if kind == "positive_only":
        norm = params.weight_norm
        for k in win.indices:
            k = int(k)
            # lambda_k = -1 branch: mode n = k - 1, weight beta c_k
            if params.beta != 0.0:
                entries.append(
                    (ModeIndex(k - 1, +1, -1), params.beta * c[k] / norm)
                )
            # lambda_k = +1 branch: mode n = k, weight alpha c_k
            if params.alpha != 0.0 and k >= 1:
                entries.append((ModeIndex(k, +1, +1), params.alpha * c[k] / norm))
    elif kind == "two_band":
        for k in win.indices:
            k = int(k)
            d, b = branch_coefficients(k, params)
            entries.append((ModeIndex(k, +1, +1), c[k] * float(d)))
            entries.append((ModeIndex(k, -1, +1), c[k] * float(b)))
    else:
        d0, b0 = branch_coefficients(params.n0, params)
        d0, b0 = float(d0), float(b0)
        for k in win.indices:
            n = int(k)
            d, b = branch_coefficients(n, params)
            d, b = float(d), float(b)
            cn = c[n]
            cn1 = c.get(n + 1, coherent_coefficient(n + 1, qa))
            if kind == "cat_plus":
                a_pos = cn * d0 * d - cn1 * b0 * b
                a_neg = cn * d0 * b + cn1 * b0 * d
            else:
                a_pos = cn * b0 * d + cn1 * d0 * b
                a_neg = cn * b0 * b - cn1 * d0 * d
            entries.append((ModeIndex(n, +1, +1), a_pos))
            entries.append((ModeIndex(n, -1, +1), a_neg))

    entries.sort(key=lambda e: (e[0].n, -e[0].s, -e[0].lambda_k))
    return ModeSet(kind=kind, entries=tuple(entries), window=win)
