"""The identities behind the fixed profile lattice and the twin form of the
closed-form solution: symbolic behind sympy, and the constant profile
invariants measured on the reference set."""

import numpy as np
import pytest

from cnlse_ansatz import REFERENCE_PARAMS, invariants_from_coefficients, q_curve, with_branch


def _profile_invariants(q, c1, c2, c3):
    # the profile curve's invariants once z_t^2 = R1(z): no z, no sign
    return c1 * c1 / 12 - q * c2, -(c1 ** 3 + 36 * q * c1 * c2 - 27 * q * c3) / 216


def _invariants(a, b, g, d, e):
    return a * e - 4 * b * d + 3 * g * g, a * g * e + 2 * b * g * d - a * d * d - b * b * e - g ** 3


def test_profile_invariants_are_constants_of_motion():
    sp = pytest.importorskip("sympy")
    q, c1, c2, c3, z, zt = sp.symbols("q c1 c2 c3 z z_t")
    # the coefficients of ansatz._q_curve_from_state, and R1 of z_curve
    curve = (-q / 2, 0, (c1 - 3 * q * z) / 6, zt / (4 * sp.sqrt(z)),
             2 * c2 + sp.Rational(3, 2) * q * z ** 2 - c1 * z)
    r1 = -16 * q ** 2 * z ** 4 + 16 * q * c1 * z ** 3 - 4 * (c1 ** 2 + 4 * q * c2) * z ** 2 + 4 * c3 * z
    want = _profile_invariants(q, c1, c2, c3)
    for got, value in zip(_invariants(*curve), want):
        assert sp.simplify((got - value).subs(zt ** 2, r1)) == 0


def test_twin_identity():
    # N_s N_-s = D M with M = -2 [R(y0) (wp + 2b) - R'(y0)^2 / 16], under
    # wp'^2 = 4 wp^3 - g2 wp - g3 of the curve's invariants
    sp = pytest.importorskip("sympy")
    coefficients = sp.symbols("alpha beta gamma delta epsilon")
    y0, wp, dwp = sp.symbols("y0 wp dwp")
    a, b, g, d, e = coefficients
    R = a * y0 ** 4 + 4 * b * y0 ** 3 + 6 * g * y0 ** 2 + 4 * d * y0 + e
    r = [sp.diff(R, y0, k) for k in range(5)]
    g2, g3 = _invariants(*coefficients)
    shift = r[2] / 24

    def numerator(sigma):
        return r[1] / 2 * (wp - shift) - sigma * sp.sqrt(r[0]) * dwp + r[0] * r[3] / 24

    den = 2 * (wp - shift) ** 2 - r[0] * r[4] / 48
    m = -2 * (r[0] * (wp + 2 * shift) - r[1] ** 2 / 16)
    difference = sp.expand(numerator(1) * numerator(-1) - den * m)
    assert sp.expand(difference.subs(dwp ** 2, 4 * wp ** 3 - g2 * wp - g3)) == 0


def test_closed_form_series_at_the_origin():
    # with wp = xi^-2 + g2 xi^2 / 20 + g3 xi^4 / 28 + O(xi^6), the closed
    # form is y0 + sigma sqrt(R(y0)) xi + R'(y0) xi^2 / 4 + O(xi^3): the
    # pole guard's Taylor branch, exactly y0 at xi = 0, so Q(0, t) = Q0 and
    # P(0, t) = -sqrt(z) (c1 - q (3 z + Q0^2))
    sp = pytest.importorskip("sympy")
    xi, y0, root, sigma, g2, g3 = sp.symbols("xi y0 root sigma g2 g3")
    r0, (r1, r2, r3, r4) = root ** 2, sp.symbols("r1:5")  # root = sqrt(R(y0))
    wp = xi ** -2 + g2 * xi ** 2 / 20 + g3 * xi ** 4 / 28
    shift = r2 / 24
    y = y0 + (r1 / 2 * (wp - shift) - sigma * root * sp.diff(wp, xi) + r0 * r3 / 24) / (
        2 * (wp - shift) ** 2 - r0 * r4 / 48)
    series = sp.series(y, xi, 0, 3).removeO()
    assert sp.expand(series - (y0 + sigma * root * xi + r1 * xi ** 2 / 4)) == 0


def test_profile_invariants_hold_along_both_orbits():
    # every state's curve invariants, from its float coefficients, lie
    # within 1e-14 guarded of the constants (measured at most 9.7e-16)
    p = REFERENCE_PARAMS
    want = _profile_invariants(p.q, p.c1, p.c2, p.c3)
    ts = [*np.random.default_rng(5).uniform(-30.0, 30.0, 200), 5115.1, 1e6]
    worst = 0.0
    for sz in (1, -1):
        for t in ts:
            inv = invariants_from_coefficients(q_curve(with_branch(p, sz, 1), t))
            for got, value in zip((inv.g2, inv.g3), want):
                worst = max(worst, abs(got - value) / max(1.0, abs(got), abs(value)))
    assert worst <= 1e-14
