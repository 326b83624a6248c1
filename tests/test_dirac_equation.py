"""Both routes against the equation they solve: the Dirac equation in a uniform field.

In package units (lengths in a, tau in lambda/c),
    i d(psi)/d(tau) = [beta + (lambda/a)(alpha_x(-i d_x + A_x) + alpha_y(-i d_y + A_y))] psi
in the Landau gauge A = (-y, 0) (so B = d_x A_y - d_y A_x = +1) and the Dirac
representation, with x = rho sin(theta), y = qa + rho cos(theta).  The mode
sum and the closed forms share phi, branch_coefficients and the spinor
layout, so `validate`'s comparison of one with the other cannot catch an
error in any of them; this residual can.

Derivatives are 4th-order central differences, h = 1e-3 in tau and an N x N
grid over [-8, 8]^2 around (0, qa); the residual
max|i d_tau psi - H psi| / max|d_tau psi| is read on the inner 3/4 of the
grid, away from the one-sided edges.
"""

import numpy as np
import pytest

from dirac_cyclotron import (
    ModelParams,
    build_mode_set,
    jc_field,
    mode_sum_field,
    positive_energy_field,
)
from dirac_cyclotron.oracle import _ALPHA_X, _ALPHA_Y

_BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
_H_TAU = 1e-3
_HALF_WIDTH = 8.0


def _d4(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order central difference along ``axis``, two points short at each end."""
    n = f.shape[axis]

    def at(shift):  # f[i + shift] for i = 2 .. n - 3
        return np.take(f, range(2 + shift, n - 2 + shift), axis=axis)

    return (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * h)


def dirac_residual(field, tau: float, params: ModelParams, n: int, a_sign: float = -1.0) -> float:
    """max|i d_tau psi - H psi| / max|d_tau psi| of ``field(rho, theta, taus, params)``
    (shape (len(taus), 4, n, n)) in the gauge A = (a_sign * y, 0)."""
    axis = np.linspace(-_HALF_WIDTH, _HALF_WIDTH, n)
    step = axis[1] - axis[0]
    x, dy = np.meshgrid(axis, axis, indexing="ij")  # grid axis 0 is x, axis 1 is y - qa
    psis = field(np.hypot(x, dy), np.arctan2(x, dy), tau + _H_TAU * np.arange(-2, 3), params)
    inner = (slice(None), slice(2, -2), slice(2, -2))
    psi = psis[2][inner]
    d_tau = ((-psis[4] + 8.0 * psis[3] - 8.0 * psis[1] + psis[0]) / (12.0 * _H_TAU))[inner]
    kin_x = -1j * _d4(psis[2], step, 1)[:, :, 2:-2] + a_sign * (params.qa + dy[2:-2, 2:-2]) * psi
    kin_y = -1j * _d4(psis[2], step, 2)[:, 2:-2, :]
    h_psi = np.einsum("ij,j...->i...", _BETA, psi) + params.lambda_over_a * (
        np.einsum("ij,j...->i...", _ALPHA_X, kin_x) + np.einsum("ij,j...->i...", _ALPHA_Y, kin_y))
    m = n - 4
    read = (slice(None), slice(m // 8, m - m // 8), slice(m // 8, m - m // 8))
    return float(np.max(np.abs(1j * d_tau - h_psi)[read]) / np.max(np.abs(d_tau[read])))


def _mode_sum(kind):
    return lambda rho, theta, taus, p: mode_sum_field(rho, theta, taus, build_mode_set(kind, p), p)


def _per_tau(closed):
    return lambda rho, theta, taus, p: np.stack([closed(rho, theta, t, p) for t in taus.tolist()])


# (field, (alpha, beta), tau): every mode-set kind and both closed forms,
# spread over two weightings and two times
CASES = {
    "positive_only": (_mode_sum("positive_only"), (1.0, 1.0), 7.3),
    "two_band": (_mode_sum("two_band"), (1.3, 0.7), 7.3),
    "cat_plus": (_mode_sum("cat_plus"), (1.0, 1.0), 41.9),
    "cat_minus": (_mode_sum("cat_minus"), (1.3, 0.7), 41.9),
    "positive_energy_field": (_per_tau(positive_energy_field), (1.3, 0.7), 41.9),
    "jc_field": (_per_tau(jc_field), (1.0, 1.0), 7.3),
}


def _params(alpha: float, beta: float) -> ModelParams:
    return ModelParams(lambda_over_a=0.3, qa=3.0, alpha=alpha, beta=beta)


@pytest.mark.parametrize("name", CASES)
def test_field_solves_the_dirac_equation(name):
    field, weights, tau = CASES[name]
    coarse, fine = (dirac_residual(field, tau, _params(*weights), n) for n in (161, 321))
    assert fine < 1e-4
    # halving the spacing cuts the stencil's dx^4 error 16x
    assert coarse / fine >= 12.0


def test_wrong_gauge_fails():
    field, weights, tau = CASES["positive_only"]
    assert dirac_residual(field, tau, _params(*weights), 161, a_sign=+1.0) > 0.1
