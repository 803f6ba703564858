"""Quartic curves (y')^2 = R(y) and their Weierstrass solutions.

Curves are stored in the 1-4-6-4-1 weighting

    R(y) = alpha y^4 + 4 beta y^3 + 6 gamma y^2 + 4 delta y + epsilon,

because in that normalization the elliptic invariants are the classical
binary quartic covariants and take a short closed form.  The generic
solution of the curve through a non-critical initial point y0 is expressed
with the Weierstrass function of those invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elliptic import POLE_EPSILON, EllipticInvariants, wp_pair
from .errors import NegativeRadicand, NonFiniteSamples


@dataclass(frozen=True)
class QuarticCurve:
    """Coefficients of R(y) = alpha y^4 + 4 beta y^3 + 6 gamma y^2 + 4 delta y + epsilon
    (arrays of one shape: a stack of curves, which needs every coefficient at
    that shape, since a mix of scalars and arrays is refused); a profile
    curve carries its lattice."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    lattice: EllipticInvariants | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not np.isfinite((self.alpha, self.beta, self.gamma, self.delta, self.epsilon)).all():
            raise NonFiniteSamples("curve coefficients must be finite")

    @cached_property
    def invariants(self) -> EllipticInvariants:
        """The curve's lattice, else its invariants
        (``invariants_from_coefficients``), computed on first use and held by
        this curve object; an error is raised again on every use."""
        return invariants_from_coefficients(self) if self.lattice is None else self.lattice


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
    g3 = ace + 2bcd - ad^2 - b^2 e - c^3 of the weighted coefficients.
    Raises NonFiniteSamples, naming the invariant, when one overflows."""
    a, b, g, d, e = R.alpha, R.beta, R.gamma, R.delta, R.epsilon
    g2 = a * e - 4.0 * b * d + 3.0 * g * g
    try:
        g3 = a * g * e + 2.0 * b * g * d - a * d * d - b * b * e - g ** 3
    except OverflowError:  # a float power raises where a product reads inf
        g3 = math.inf
    for name, value in (("g2", g2), ("g3", g3)):
        if not np.isfinite(value):
            raise NonFiniteSamples(f"invariant {name} of the quartic {R} overflows a float")
    return EllipticInvariants(g2, g3)


def _scalars(R: QuarticCurve, y0: float):
    """R^(k)(y0), k = 0..4; raises NegativeRadicand where R(y0) < 0."""
    r = eval_with_derivatives(R, y0)
    if np.real(r[0]) < 0.0:
        raise NegativeRadicand(f"R(y0) = {r[0]:g} < 0: no real slope at y0")
    return r


def _times(a, b):
    """a b, a complex product by parts as Python's complex scalars round it:
    numpy's fuses a multiply and an add."""
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)
    return a * b


def _over(a, d: float):
    """a / d for a float d, a complex a by parts as Python's complex scalars
    divide: numpy's multiplies by a reciprocal."""
    return a.real / d + 1j * (a.imag / d) if np.iscomplexobj(a) else a / d


def _closed_form_parts(inv: EllipticInvariants, xi):
    """The wp part of the closed form: xi as a checked array of at least
    one dimension, the mask of its elements beyond the elliptic pole guard,
    and wp and wp' of the lattice inv on it (None where no element is
    beyond the guard).  The rational part reads it with the scalars ``_scalars``."""
    xi_arr = np.asarray(xi)
    xf = np.atleast_1d(xi_arr).astype(np.result_type(xi_arr, float))
    if not np.isfinite(xf).all():
        raise NonFiniteSamples("xi must be finite")
    away = np.abs(xf) >= POLE_EPSILON
    if not away.any():
        return xf, away, None, None
    # an element inside the guard is evaluated at POLE_EPSILON instead: it
    # needs no more halvings than any element beyond the guard, so it cannot
    # deepen its row of the batch, and the rows keep their shape
    W, W1 = wp_pair(np.where(away, xf, POLE_EPSILON), inv)
    return xf, away, W, W1


def _rational_part(r, y0: float, signs: tuple, xf, away, W, W1) -> list:
    """The rational part of the closed form: y at xf per sign of signs from
    the five scalars r = R^(k)(y0) and the wp part ``_closed_form_parts``.
    Complex scalars, of a curve built from a complex step, carry it to y.
    Scalars of k curves as (k, 1) columns give each curve's own bits."""
    r0, r1, r2, r3, r4 = r
    sq, xn = np.sqrt(r0), np.where(away, 0.0, xf)
    ys = [y0 + s * sq * xn + 0.25 * r1 * xn * xn for s in map(float, signs)]
    if W is None:
        return ys
    # r0 = r1 = 0 is a double root at y0: the exact equilibrium, where the
    # closed form would produce 0/0 wherever wp crosses b; its rows keep y0
    use = away & ~np.logical_and(r0 == 0.0, r1 == 0.0)
    Wb = W - _over(r2, 24.0)  # b = r2 / 24
    den = 2.0 * Wb * Wb - r0 * r4 / 48.0
    for s, y in zip(map(float, signs), ys):
        # real in, real out: the wp arithmetic is complex throughout
        part = np.real if y.dtype.kind == "f" else np.asarray
        num = 0.5 * r1 * Wb - s * sq * W1 + r0 * r3 / 24.0
        with np.errstate(divide="ignore", invalid="ignore"):
            y[use] = y0 + part(num / den)[use]
    return ys


def weierstrass_solution(R: QuarticCurve, y0: float, sigma, xi):
    """Solution y(xi) of (y')^2 = R(y) with y(0) = y0 and y'(0) = sigma sqrt(R(y0)).

    The closed form is

        y = y0 + [R'(y0)/2 (wp - b) - sigma sqrt(R(y0)) wp' + R(y0) R'''(y0)/24]
                 / [2 (wp - b)^2 - R(y0) R''''(y0)/48],      b = R''(y0)/24,

    with wp = wp(xi) for the invariants of R (the wp part) and the rest
    rational in the scalars R^(k)(y0).  +sigma multiplies the initial slope, which pins the
    numerator sign of wp' (wp' ~ -2 xi^-3 near zero) to -sigma.  For a tuple
    of signs, such as (1, -1), a tuple of one solution per sign comes from
    one wp evaluation, each bit-equal to its single-sign call.

    xi is scalar or array, real or complex, and R's coefficients real (a
    complex curve raises ValueError); the output is real exactly when xi
    is.  The one derivative rule is the complex step: at xi + ih, Im y / h
    is the derivative, exact to round-off.  An array shares one
    argument-halving depth along its last axis (see ``wp_pair``), so a
    finite difference stencil gets a smooth evaluation error.  |xi| below
    the elliptic pole guard returns the pole limit, the Taylor polynomial
    y0 + sigma sqrt(R(y0)) xi + R'(y0) xi^2 / 4 (exactly y0 at xi = 0).
    Solution poles, where the denominator vanishes, map to non-finite
    outputs rather than exceptions.
    """
    signs, y0 = sigma if isinstance(sigma, tuple) else (sigma,), float(y0)
    if not {1.0, -1.0}.issuperset(signs):
        raise ValueError("sigma must be +1 or -1")
    ys = _rational_part(_scalars(R, y0), y0, signs, *_closed_form_parts(R.invariants, xi))
    out = [y[0].item() if np.ndim(xi) == 0 else y for y in ys]
    return tuple(out) if isinstance(sigma, tuple) else out[0]


def solution_denominator(R: QuarticCurve, y0: float, xi):
    """Denominator of the closed-form solution at xi, +inf inside the pole
    guard.  Real zeros of this function in xi are the solution poles of
    weierstrass_solution; scans use sign changes of it to detect a pole
    crossing between grid nodes."""
    out = _denominator(_scalars(R, float(y0)), *_closed_form_parts(R.invariants, xi)[1:3])
    return float(out[0]) if np.ndim(xi) == 0 else out


def _denominator(r, away, W):
    """The closed form's denominator from real scalars r and the wp part."""
    out = np.full(away.shape, np.inf)
    if W is not None:
        Wb = W - r[2] / 24.0
        out[away] = (2.0 * Wb * Wb - r[0] * r[4] / 48.0).real[away]
    return out
