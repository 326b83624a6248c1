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
import itertools
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
    The internal ``_scratch`` argument, used by ``block_sums``, hands in a
    buffer of the sum's shape and dtype as that scratch: each ``add`` then
    overwrites it, so several sums share it when every term is written into
    it afresh.
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


def block_sums(totals: np.ndarray, add_terms, *arrays) -> None:
    """Sum one series per row of ``totals`` over blocks of its points.

    The leading axis of ``totals.shape[1:]`` is cut into runs of rows, in
    order, of at most ``_BLOCK_POINTS`` points, or one row where a row alone
    holds more (a 0-d shape is one block).  Per block, one term buffer of
    the block's shape is the scratch of one ``KahanAccumulator`` per row of
    ``totals``, and ``add_terms(term, sums, *views)`` adds the block's terms,
    each written into ``term`` afresh.  ``views`` holds each of ``arrays``
    (which broadcast to the points' shape) as the block reads it: its rows
    where it spans the leading axis, else whole, so a ``(n, 1)`` x ``(1, m)``
    input stays broadcast.  The block's totals are then stored in
    ``totals``, and its buffers are freed before the next block's are made.
    """
    shape = totals.shape[1:]
    rows = max(1, _BLOCK_POINTS // max(1, math.prod(shape[1:])))
    blocks = [slice(start, start + rows) for start in range(0, shape[0], rows)] if shape else [...]
    for block in blocks:
        _sum_block(totals, block, add_terms,
                   [a[block] if a.ndim == len(shape) and a.shape[:1] != (1,) else a for a in arrays])


def _sum_block(totals: np.ndarray, block, add_terms, views) -> None:
    # a call rather than a loop body, so the block's buffers go when it returns
    term = np.empty_like(totals[0, block])
    sums = [KahanAccumulator(term, _scratch=term) for _ in range(len(totals))]
    add_terms(term, sums, *views)
    for i, acc in enumerate(sums):
        totals[i, block] = acc.total


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


def _kernel_frame(x, y, params: ModelParams):
    """u = (y - qa) - i x and the Gaussian exponent of the kernels Q_k at (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    qa = params.qa
    return (y - qa) - 1j * x, (2j * x * (y + qa) - x**2 - (y - qa) ** 2) / 4.0


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
    u, expo = _kernel_frame(x, y, params)
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
    u, expo = _kernel_frame(x, y, params)
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


def _pair_log_weight(n: int, qa: float) -> float:
    """log(sqrt(2(n+1)) c_{n+1} c_{n+2}) = log(qa^(2n+1) e^(-qa^2/2) / (2^n n!))."""
    return -0.5 * qa**2 + (2 * n + 1) * math.log(qa) - n * math.log(2.0) - math.lgamma(n + 1)


def truncation_window(params: ModelParams) -> TruncationWindow:
    """Smallest window of coherent indices whose dropped tail mass < trunc_tol.

    Grown greedily outwards from the weight peak, always absorbing the
    boundary with the larger mass (the Poisson weights are right-skewed, so
    the window comes out asymmetric around n0 + 1), until the dropped mass,
    summed from the dropped weights, falls below trunc_tol.  Every weight
    that does not underflow can be absorbed, after which none is dropped, so
    every trunc_tol in (0, 1) is reached.  The window depends only on (qa,
    trunc_tol) and is cached on those, so packets that differ only in
    alpha/beta or lambda_over_a share one instance.  A qa above ``QA_MAX``
    raises ``ValueError``.
    """
    return _window(params.qa, params.trunc_tol)


# Largest supported qa (n0 = 5000).  Above it the log weights lose their
# digits to cancellation (terms of size ~lam*log(lam)) and the window search
# slows, then returns a single level.
QA_MAX = 100.0


@functools.cache  # unbounded: a window is two ints, and a cached level table keeps its instance
def _window(qa: float, trunc_tol: float) -> TruncationWindow:
    if qa > QA_MAX:
        raise ValueError(f"qa = {qa!r} is above the supported maximum qa = {QA_MAX!r} (n0 = 5000)")
    peak = max(1, int(math.floor(0.5 * qa**2)) + 1)

    def outwards(ks):
        """The weights over ks until they underflow (they fall off away from
        the peak), then -1.0, so that a spent side is never absorbed; and the
        mass from each weight outwards, added smallest first so that it keeps
        the digits of the small weights, then 0.0."""
        w = list(itertools.takewhile(lambda x: x > 0.0, (math.exp(_log_weight_sq(k, qa)) for k in ks)))
        return w + [-1.0], [*itertools.accumulate(reversed(w), initial=0.0)][::-1]

    below, below_tail = outwards(range(peak - 1, 0, -1))
    above, above_tail = outwards(itertools.count(peak + 1))
    i = j = 0  # levels absorbed below and above the peak
    while below_tail[i] + above_tail[j] >= trunc_tol:
        if above[j] >= below[i]:
            j += 1
        else:
            i += 1
    return TruncationWindow(peak - i, peak + j)


@dataclass(frozen=True, eq=False)
class LevelTable:
    """Per-level data of one packet: the window and every level it touches.

    ``phi``, ``d`` and ``b`` are read-only vectors of phi_n and the branch
    factors (d_n, b_n) over n = 0 .. n_max + 1; the level above the window
    serves the series that couple neighbouring levels.  The coherent weights
    are evaluated here and nowhere else, once per table, as tuples of Python
    floats: ``c[k]`` is c_k (k = 1 .. n_max + 1, ``coherent_coefficient``),
    ``c2[k]`` is c_k^2 (k = 1 .. n_max, exp of the Poisson log-pmf that the
    window search sums) and ``pair[n]`` is sqrt(2(n+1)) c_{n+1} c_{n+2}
    (n = 0 .. n_max - 1); ``c[0]`` and ``c2[0]`` are 0.0, as the weights are
    1-indexed.  Three log-space formulas give them, so they differ in the
    last bits until one formula serves all three.
    """

    window: TruncationWindow
    phi: np.ndarray
    d: np.ndarray
    b: np.ndarray
    c: tuple[float, ...]
    c2: tuple[float, ...]
    pair: tuple[float, ...]


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
    c2 = (0.0,) + tuple(math.exp(_log_weight_sq(k, qa)) for k in range(1, win.n_max + 1))
    pair = tuple(math.exp(_pair_log_weight(n, qa)) for n in range(win.n_max))
    return LevelTable(win, p, d, b, c, c2, pair)


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
    def n_max(self) -> int:
        return max(idx.n for idx, _ in self.entries)


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
