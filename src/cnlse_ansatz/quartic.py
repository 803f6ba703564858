"""Quartic curves (y')^2 = R(y) and their Weierstrass solutions.

Curves are stored in the 1-4-6-4-1 weighting

    R(y) = alpha y^4 + 4 beta y^3 + 6 gamma y^2 + 4 delta y + epsilon,

because in that normalization the elliptic invariants are the classical
binary quartic covariants and take a short closed form.  The generic
solution of the curve through a non-critical initial point y0 is expressed
with the Weierstrass function of those invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import POLE_EPSILON, EllipticInvariants, wp_pair
from .errors import NegativeRadicand, NonFiniteSamples


@dataclass(frozen=True)
class QuarticCurve:
    """Coefficients of R(y) = alpha y^4 + 4 beta y^3 + 6 gamma y^2 + 4 delta y + epsilon."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float

    def __post_init__(self) -> None:
        vals = (self.alpha, self.beta, self.gamma, self.delta, self.epsilon)
        if not all(np.isfinite(v) for v in vals):
            raise NonFiniteSamples("curve coefficients must be finite")


def eval_with_derivatives(R: QuarticCurve, y):
    """R(y) and its first four derivatives, for scalar or array y.

    Plain nested (Horner) evaluation; the fourth derivative is 24 alpha
    identically and is returned with the shape of y.
    """
    y = np.asarray(y, dtype=float) if np.ndim(y) else float(y)
    a, b, g, d, e = R.alpha, R.beta, R.gamma, R.delta, R.epsilon
    r0 = (((a * y + 4.0 * b) * y + 6.0 * g) * y + 4.0 * d) * y + e
    r1 = ((4.0 * a * y + 12.0 * b) * y + 12.0 * g) * y + 4.0 * d
    r2 = (12.0 * a * y + 24.0 * b) * y + 12.0 * g
    r3 = 24.0 * a * y + 24.0 * b
    r4 = 24.0 * a + 0.0 * y
    return r0, r1, r2, r3, r4


def invariants_from_coefficients(R: QuarticCurve) -> EllipticInvariants:
    """Classical invariants g2 = ae - 4bd + 3c^2 and
    g3 = ace + 2bcd - ad^2 - b^2 e - c^3 of the weighted coefficients."""
    a, b, g, d, e = R.alpha, R.beta, R.gamma, R.delta, R.epsilon
    g2 = a * e - 4.0 * b * d + 3.0 * g * g
    g3 = a * g * e + 2.0 * b * g * d - a * d * d - b * b * e - g ** 3
    return EllipticInvariants(g2, g3)


def _closed_form_parts(R: QuarticCurve, y0: float, xi):
    """Set-up shared by the closed form and its denominator: R and its
    derivatives at y0, xi as a checked 1-d array, the mask of its elements
    beyond the elliptic pole guard, and there wp - b, wp' and the
    denominator 2 (wp - b)^2 - R(y0) R''''(y0)/48 (None where none is)."""
    r = eval_with_derivatives(R, y0)
    if np.real(r[0]) < 0.0:
        raise NegativeRadicand(f"R(y0) = {r[0]:g} < 0: no real slope at y0")
    xi_arr = np.asarray(xi)
    xf = np.atleast_1d(xi_arr).astype(np.result_type(xi_arr, r[0], float))
    if not np.all(np.isfinite(xf)):
        raise NonFiniteSamples("xi must be finite")
    away = np.abs(xf) >= POLE_EPSILON
    if not np.any(away):
        return r, xf, away, None, None, None
    W, W1 = wp_pair(xf[away], invariants_from_coefficients(R))
    Wb = W - r[2] / 24.0
    return r, xf, away, Wb, W1, 2.0 * Wb * Wb - r[0] * r[4] / 48.0


def weierstrass_solution(R: QuarticCurve, y0: float, sigma, xi):
    """Solution y(xi) of (y')^2 = R(y) with y(0) = y0 and y'(0) = sigma sqrt(R(y0)).

    The closed form is

        y = y0 + [R'(y0)/2 (wp - b) - sigma sqrt(R(y0)) wp' + R(y0) R'''(y0)/24]
                 / [2 (wp - b)^2 - R(y0) R''''(y0)/48],      b = R''(y0)/24,

    with wp = wp(xi) for the invariants of R.  The sign convention: +sigma
    multiplies the initial slope, which pins the numerator sign of wp'
    (wp' ~ -2 xi^-3 near zero) to -sigma.

    Accepts scalar or array xi, real or complex, and a curve with real or
    complex coefficients; the output is real exactly when both are.  Its
    one derivative rule is the complex step: at xi + ih, or on a curve
    built from one, Im y / h is the derivative, exact to round-off.  An
    array batch shares one argument-halving depth (see ``wp_pair``), so a
    finite difference stencil gets a smooth evaluation error.  |xi| below
    the elliptic pole guard returns the analytic pole limit, the Taylor
    polynomial y0 + sigma sqrt(R(y0)) xi + R'(y0) xi^2 / 4 (exactly y0 at
    xi = 0).  Solution poles, where the denominator vanishes, map to
    non-finite outputs rather than exceptions; callers that must reject
    them check finiteness.
    """
    s, y0 = float(sigma), float(y0)
    if s not in (1.0, -1.0):
        raise ValueError("sigma must be +1 or -1")
    (r0, r1, _, r3, _), xf, away, Wb, W1, den = _closed_form_parts(R, y0, xi)
    sq = np.sqrt(r0)
    xn = np.where(away, 0.0, xf)
    y = y0 + s * sq * xn + 0.25 * r1 * xn * xn
    # r0 = r1 = 0 is a double root at y0: the exact equilibrium, where the
    # closed form would produce 0/0 wherever wp crosses b
    if den is not None and not (r0 == 0.0 and r1 == 0.0):
        # real in, real out: the wp arithmetic is complex throughout
        part = np.real if y.dtype.kind == "f" else np.asarray
        num = 0.5 * r1 * Wb - s * sq * W1 + r0 * r3 / 24.0
        with np.errstate(divide="ignore", invalid="ignore"):
            y[away] = y0 + part(num / den)
    return y[0].item() if np.ndim(xi) == 0 else y


def solution_denominator(R: QuarticCurve, y0: float, xi):
    """Denominator of the closed-form solution at xi, +inf inside the pole
    guard.  Real zeros of this function in xi are the solution poles of
    weierstrass_solution; scans use sign changes of it to detect a pole
    crossing between grid nodes."""
    _, xf, away, _, _, den = _closed_form_parts(R, float(y0), xi)
    out = np.full(xf.shape, np.inf)
    if den is not None:
        out[away] = den.real
    return float(out[0]) if np.ndim(xi) == 0 else out
