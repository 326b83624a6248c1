"""Shared expansion machinery: coherent weights, the p-integrated kernel
Q_k, truncation control, the per-packet level table and mode-set
construction.

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

from .spectrum import ModeIndex, ModelParams, branch_coefficients, phi


class KahanAccumulator:
    """Compensated (Kahan) accumulator for scalars or numpy arrays.

    Terms are fed in a fixed order (ascending n throughout this package),
    which makes every series bit-reproducible regardless of how outer loops
    are scheduled.

    The sum is updated in place: the same four IEEE operations in the same
    order, written into its own sum, compensation and one scratch array, so
    each term must fit the sum's shape and dtype.  ``total`` is then a live
    buffer that the next ``add`` overwrites; a 0-d sum gives a numpy scalar.
    The internal ``_scratch`` argument hands in a caller's buffer of the
    sum's shape and dtype as that scratch: each ``add`` then overwrites it,
    so several sums can share it when every term is written into it afresh.
    """

    def __init__(self, like, *, _scratch=None):
        self._s = np.zeros_like(like)
        self._c = np.zeros_like(like)
        self._y = np.empty_like(self._s) if _scratch is None else _scratch

    def add(self, x):
        y, s, c = self._y, self._s, self._c
        np.subtract(x, c, out=y)
        np.add(s, y, out=c)  # t = s + y; the old c is spent
        np.subtract(c, s, out=s)
        np.subtract(s, y, out=s)  # (t - s) - y
        self._s, self._c = c, s

    @property
    def total(self):
        return self._s[()]


# The one block budget of every blocked grid series: the oracle's mode sum
# and the closed-form map kernels.  A block's series keeps at most 11 buffers
# of this many complex points (2.75 MiB), against 5.2 MiB of whole 120x256
# grids.  The oracle counts (tau, point) elements, so its blocks hold
# _BLOCK_POINTS // len(tau) points.  Smaller blocks make more, shorter ufunc
# calls: on a SET2 two-band 5-tau oracle sum (2-vCPU VM, 2 MiB L2 per core),
# 8192 and 12288 were 25-35% slower, and 24576 to 65536 no faster.  The map
# kernels ran within about 10% of each other from 8192 to 32768 points.
_BLOCK_POINTS = 16384


def row_blocks(shape: tuple[int, ...], *arrays, points: int | None = None):
    """Split the leading axis of ``shape`` into runs of rows, in order.

    Yields ``(index, views)`` per block: ``index`` selects the block of an
    array of ``shape`` (``...`` for a 0-d shape, one block), and ``views``
    holds each of ``arrays`` (which broadcast to ``shape``) as the block
    reads it: its rows where it spans the leading axis, else whole, so a
    ``(n, 1)`` x ``(1, m)`` input stays broadcast.  A block holds at most
    ``points`` (default ``_BLOCK_POINTS``) points, or one row where a row
    alone holds more.
    """
    if not shape:
        yield ..., [a[...] for a in arrays]
        return
    row = max(1, math.prod(shape[1:]))
    rows = max(1, (_BLOCK_POINTS if points is None else points) // row)
    for start in range(0, shape[0], rows):
        block = slice(start, start + rows)
        yield block, [a[block] if a.ndim == len(shape) and a.shape[0] != 1 else a for a in arrays]


def float_kahan_sum(terms) -> float:
    """Compensated sum of Python floats, in iteration order.

    The four operations of ``KahanAccumulator.add`` in the same order, on
    plain floats, so the result keeps every bit of a 0-d accumulator's
    without a numpy call per term.
    """
    s = c = 0.0
    for x in terms:
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


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
    # u^k in log-magnitude + phase form to keep large k stable; u = 0 gives
    # 0^k via log 0 = -inf, with k = 0 apart as 0 * log 0 is NaN
    r = np.abs(u)
    with np.errstate(divide="ignore"):
        mag = np.exp(k * np.log(r) + log_norm) if k else np.exp(log_norm) * np.ones_like(r)
    out = mag * np.exp(1j * k * np.angle(u)) * np.exp(expo)
    return out if out.ndim else complex(out)


def q_kernel_walk(k_max: int, x, y, params: ModelParams):
    """Yield Q_0 .. Q_{k_max} at (x, y) via the ratio recurrence, as one buffer
    stepped in place (``* u``, then ``/ sqrt(2k)``): a caller reads or copies
    Q_k before it asks for the next order."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    qa = params.qa
    u = (y - qa) - 1j * x
    expo = (2j * x * (y + qa) - x**2 - (y - qa) ** 2) / 4.0
    q = np.asarray(np.exp(expo) / math.sqrt(2.0 * math.pi))
    yield q
    for k in range(1, k_max + 1):
        np.multiply(q, u, out=q)
        np.divide(q, math.sqrt(2.0 * k), out=q)
        yield q


def q_kernel_stack(k_max: int, x, y, params: ModelParams) -> np.ndarray:
    """Q_0 .. Q_{k_max} on a grid via the ratio recurrence (axis 0 is k)."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.fromiter(
        q_kernel_walk(k_max, x, y, params), np.dtype((complex, shape)), count=k_max + 1
    )


@dataclass(frozen=True)
class TruncationWindow:
    """Inclusive coherent-index range [n_min, n_max] with tail mass < tol."""

    n_min: int
    n_max: int


def _log_weight_sq(k: int, qa: float) -> float:
    # log c_{k}^2 = Poisson log-pmf at k-1 with mean (qa)^2/2
    lam = 0.5 * qa**2
    j = k - 1
    return -lam + j * math.log(lam) - math.lgamma(j + 1)


def truncation_window(params: ModelParams) -> TruncationWindow:
    """Smallest window of coherent indices whose dropped tail mass < trunc_tol.

    Grown greedily outwards from the weight peak, always absorbing the
    boundary with the larger mass (the Poisson weights are right-skewed, so
    the window comes out asymmetric around n0 + 1).  The window depends only
    on (qa, trunc_tol) and is cached on those, so packets that differ only
    in alpha/beta or lambda_over_a share one instance.  A qa above
    ``QA_MAX`` raises ``ValueError``.
    """
    return _window(params.qa, params.trunc_tol)


# Largest supported qa (n0 = 5000).  Above it the log weights lose their
# digits to cancellation (terms of size ~lam*log(lam)) and the window search
# slows, then fails or returns a single level.
QA_MAX = 100.0


@functools.lru_cache(maxsize=256)
def _window(qa: float, trunc_tol: float) -> TruncationWindow:
    if qa > QA_MAX:
        raise ValueError(f"qa = {qa!r} is above the supported maximum qa = {QA_MAX!r} (n0 = 5000)")
    lam = 0.5 * qa**2
    peak = max(1, int(math.floor(lam)) + 1)
    lo = hi = peak
    covered = math.exp(_log_weight_sq(peak, qa))
    while 1.0 - covered >= trunc_tol:
        w_lo = math.exp(_log_weight_sq(lo - 1, qa)) if lo > 1 else -1.0
        w_hi = math.exp(_log_weight_sq(hi + 1, qa))
        if w_hi == 0.0 and w_lo <= 0.0:
            raise ValueError(
                f"trunc_tol = {trunc_tol!r} is unattainable at qa = {qa!r}: the "
                "coherent weights underflow before the dropped mass falls below it"
            )
        if w_hi >= w_lo:
            hi += 1
            covered += w_hi
        else:
            lo -= 1
            covered += w_lo
    return TruncationWindow(lo, hi)


@dataclass(frozen=True, eq=False)
class LevelTable:
    """Per-level data of one packet: the window and every level it touches.

    ``phi``, ``d`` and ``b`` are read-only vectors of phi_n and the branch
    factors (d_n, b_n) over n = 0 .. n_max + 1; the level above the window
    serves the series that couple neighbouring levels.  ``c[k]`` is the
    coherent weight c_k for k = 1 .. n_max + 1 (``c[0]`` is 0.0, as the
    weights are 1-indexed), each from the scalar ``coherent_coefficient``.
    """

    window: TruncationWindow
    phi: np.ndarray
    d: np.ndarray
    b: np.ndarray
    c: tuple[float, ...]


def levels(params: ModelParams) -> LevelTable:
    """The level table of a packet, cached on (lambda_over_a, qa, trunc_tol).

    Packets that differ only in alpha/beta share one table.
    """
    return _levels(params.lambda_over_a, params.qa, params.trunc_tol)


@functools.lru_cache(maxsize=256)
def _levels(lambda_over_a: float, qa: float, trunc_tol: float) -> LevelTable:
    params = ModelParams(lambda_over_a=lambda_over_a, qa=qa, trunc_tol=trunc_tol)
    win = truncation_window(params)
    n = np.arange(win.n_max + 2)
    p = phi(n, params)
    d, b = branch_coefficients(n, params)
    for a in (p, d, b):
        a.flags.writeable = False
    c = (0.0,) + tuple(coherent_coefficient(k, qa) for k in range(1, win.n_max + 2))
    return LevelTable(win, p, d, b, c)


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

    @property
    def n_min(self) -> int:
        return min(idx.n for idx, _ in self.entries)

    @property
    def n_max(self) -> int:
        return max(idx.n for idx, _ in self.entries)

    def norm_sq(self) -> float:
        return float_kahan_sum(abs(a) ** 2 for _, a in self.entries)


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
    table = levels(params)
    win, c = table.window, table.c
    d, b = table.d.tolist(), table.b.tolist()  # plain floats: amplitudes stay floats
    ks = range(win.n_min, win.n_max + 1)
    entries: list[tuple[ModeIndex, complex]] = []

    if kind == "positive_only":
        norm = params.weight_norm
        for k in ks:
            # lambda_k = -1 branch: mode n = k - 1, weight beta c_k
            if params.beta != 0.0:
                entries.append((ModeIndex(k - 1, +1, -1), params.beta * c[k] / norm))
            # lambda_k = +1 branch: mode n = k, weight alpha c_k
            if params.alpha != 0.0:
                entries.append((ModeIndex(k, +1, +1), params.alpha * c[k] / norm))
    elif kind == "two_band":
        for k in ks:
            entries.append((ModeIndex(k, +1, +1), c[k] * d[k]))
            entries.append((ModeIndex(k, -1, +1), c[k] * b[k]))
    else:
        d0, b0 = d[params.n0], b[params.n0]
        for n in ks:
            if kind == "cat_plus":
                a_pos = c[n] * d0 * d[n] - c[n + 1] * b0 * b[n]
                a_neg = c[n] * d0 * b[n] + c[n + 1] * b0 * d[n]
            else:
                a_pos = c[n] * b0 * d[n] + c[n + 1] * d0 * b[n]
                a_neg = c[n] * b0 * b[n] - c[n + 1] * d0 * d[n]
            entries.append((ModeIndex(n, +1, +1), a_pos))
            entries.append((ModeIndex(n, -1, +1), a_neg))

    entries.sort(key=lambda e: (e[0].n, -e[0].s, -e[0].lambda_k))
    return ModeSet(kind=kind, entries=tuple(entries))
