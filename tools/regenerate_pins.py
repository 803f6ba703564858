"""Recompute every pinned value in tests/_pins.py at 50-digit precision.

The pins were frozen from this computation; rerunning the script recomputes
them independently of the float64 package code (same closed forms, mpmath
arithmetic, order-60 series at a tight halving radius) and reports the
deviation of each stored literal.  Output is one line per pin with the
freshly computed value, so an intentional change can be pasted over.

Usage: python3 tools/regenerate_pins.py
"""

import sys
from functools import lru_cache
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import _pins  # noqa: E402

mp.mp.dps = 50

# reference parameter set, decimal-exact
Q = mp.mpf("-1")
C1 = mp.mpf("-2")
C2 = mp.mpf("0.4")
C3 = mp.mpf("0.13")
Z0 = mp.mpf("1")
Q0 = mp.mpf("1")
PHI0 = mp.mpf("0")

BRANCHES = {"pp": (1, 1), "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)}

ORDER = 60
THRESHOLD = mp.mpf("0.05")

_laurent_cache: dict = {}


def _laurent(g2, g3):
    key = (mp.nstr(g2, 40), mp.nstr(g3, 40))
    c = _laurent_cache.get(key)
    if c is None:
        c = [mp.mpf(0)] * (ORDER + 1)
        c[2] = g2 / 20
        c[3] = g3 / 28
        for k in range(4, ORDER + 1):
            acc = mp.fsum(c[m] * c[k - m] for m in range(2, k - 1))
            c[k] = 3 * acc / ((2 * k + 1) * (k - 3))
        _laurent_cache[key] = c
    return c


def wp_pair(u, g2, g3):
    """(wp(u), wp'(u)): Laurent series inside |v| <= 0.05, duplication back."""
    u = mp.mpc(u)
    n = 0
    while abs(u) / 2**n > THRESHOLD:
        n += 1
    v = u / 2**n
    c = _laurent(g2, g3)
    w = v * v
    s_even = mp.mpf(0)
    s_odd = mp.mpf(0)
    for k in range(ORDER, 1, -1):
        s_even = s_even * w + c[k]
        s_odd = s_odd * w + (2 * k - 2) * c[k]
    W = 1 / w + s_even * w
    W1 = -2 / (w * v) + s_odd * v
    for _ in range(n):
        W2 = 6 * W * W - g2 / 2
        W, W1 = (
            -2 * W + W2 * W2 / (4 * W1 * W1),
            -W1 + 3 * W * (W2 / W1) - W2**3 / (4 * W1**3),
        )
    return W, W1


def derivs(coef, y):
    a, b, g, d, e = coef
    r0 = (((a * y + 4 * b) * y + 6 * g) * y + 4 * d) * y + e
    r1 = ((4 * a * y + 12 * b) * y + 12 * g) * y + 4 * d
    r2 = (12 * a * y + 24 * b) * y + 12 * g
    r3 = 24 * a * y + 24 * b
    r4 = 24 * a
    return r0, r1, r2, r3, r4


def invariants(coef):
    a, b, g, d, e = coef
    return a * e - 4 * b * d + 3 * g * g, a * g * e + 2 * b * g * d - a * d * d - b * b * e - g**3


def solve(coef, y0, sigma, xi, derivative=False):
    """y(xi) with y(0) = y0, y'(0) = sigma sqrt(R(y0)); optionally dy/dxi."""
    r0, r1, r2, r3, r4 = derivs(coef, y0)
    sq = mp.sqrt(r0)
    b = r2 / 24
    g2, g3 = invariants(coef)
    if xi == 0:
        return (y0, sigma * sq) if derivative else y0
    W, W1 = wp_pair(xi, g2, g3)
    Wb = W - b
    num = r1 / 2 * Wb - sigma * sq * W1 + r0 * r3 / 24
    den = 2 * Wb * Wb - r0 * r4 / 48
    y = y0 + mp.re(num / den)
    if not derivative:
        return y
    W2 = 6 * W * W - g2 / 2
    nump = r1 / 2 * W1 - sigma * sq * W2
    denp = 4 * Wb * W1
    dy = mp.re((nump * den - num * denp) / (den * den))
    return y, dy


def z_coeffs():
    k = C1**2 + 4 * Q * C2
    return (-16 * Q**2, 4 * Q * C1, -mp.mpf(2) / 3 * k, C3, mp.mpf(0))


def orbit(sigma_z, t):
    return solve(z_coeffs(), Z0, sigma_z, t, derivative=True)


def q_coeffs(z, zt):
    return (
        -Q / 2,
        mp.mpf(0),
        (C1 - 3 * Q * z) / 6,
        zt / (4 * mp.sqrt(z)),
        2 * C2 + mp.mpf(3) / 2 * Q * z * z - C1 * z,
    )


def profile(x, t, sigma_z, sigma_q):
    z, zt = orbit(sigma_z, t)
    return solve(q_coeffs(z, zt), Q0, sigma_q, x)


@lru_cache(maxsize=None)
def real_period():
    """Real period 2w = pi / AGM(sqrt(e1 - e3), sqrt(e1 - e2)) of the z-curve
    lattice (three real roots), DLMF 19.8(i) and 23.6."""
    g2, g3 = invariants(z_coeffs())
    e1, e2, e3 = sorted((mp.re(r) for r in mp.polyroots([4, 0, -g2, -g3])), reverse=True)
    return mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))


@lru_cache(maxsize=None)
def period_integral():
    """Integral of z over one real period; the same for both branches,
    since z on one branch is z on the other run backwards."""
    return mp.quad(lambda s: orbit(1, s)[0], [0, real_period()])


def quad_phase(sigma_z, t):
    """phi(t) with one quadrature over [0, t]."""
    integral = mp.quad(lambda s: orbit(sigma_z, s)[0], [0, t])
    return PHI0 + C1 * t - 2 * Q * integral


def phase(sigma_z, t):
    """phi(t) with the integral reduced by whole periods, |t| = k 2w + r:
    k period integrals plus one quadrature over [0, r].  No quadrature
    spans more than a period, where one mp.quad over [0, 1e4] would have
    to resolve 4,000 oscillations of z."""
    period = real_period()
    k = mp.floor(abs(t) / period)
    sign = mp.sign(t)
    rest = mp.quad(lambda s: orbit(sigma_z, sign * s)[0], [0, abs(t) - k * period])
    return PHI0 + C1 * t - 2 * Q * sign * (k * period_integral() + rest)


# Q_t is a central difference with a fixed step h, so its truncation error
# is O(h^2) = 1e-40.  At t = 0.05 * 2^k the two stencil nodes take different
# halving depths in wp_pair, and their round-off (about 1e-44) no longer
# cancels: over h = 1e-20 that is negligible, while mp.diff's much smaller
# default step turned it into errors of 1e2 to 1e5 there.
DIFF_STEP = mp.mpf("1e-20")


def inconsistency(x, t, sigma_z, sigma_q):
    z, _ = orbit(sigma_z, t)
    q_val = profile(x, t, sigma_z, sigma_q)
    q_t = mp.diff(lambda s: profile(x, s, sigma_z, sigma_q), t, h=DIFF_STEP)
    return q_t - mp.sqrt(z) * (C1 - Q * (3 * z + q_val**2))


def envelope(x, t, sigma_z, sigma_q):
    z, _ = orbit(sigma_z, t)
    return (profile(x, t, sigma_z, sigma_q) + 1j * mp.sqrt(z)) * mp.exp(1j * phase(sigma_z, t))


def pole_location(sigma_z, t, seed):
    """First positive zero of the profile-curve solution denominator."""
    z, zt = orbit(sigma_z, t)
    coef = q_coeffs(z, zt)
    r0, _, r2, _, r4 = derivs(coef, Q0)
    b = r2 / 24
    g2, g3 = invariants(coef)

    def den(x):
        W, _ = wp_pair(x, g2, g3)
        return mp.re(2 * (W - b) ** 2 - r0 * r4 / 48)

    lo, hi = mp.mpf(seed) - mp.mpf("0.01"), mp.mpf(seed) + mp.mpf("0.01")
    while mp.sign(den(lo)) == mp.sign(den(hi)):
        lo -= mp.mpf("0.01")
        hi += mp.mpf("0.01")
    return mp.findroot(den, (lo, hi), solver="anderson")


# --------------------------------------------------------------------------

_worst = mp.mpf(0)


def report(name, got, pinned, tol=mp.mpf("1e-15")):
    global _worst
    dev = abs(mp.mpc(got) - mp.mpc(pinned)) / max(1, abs(mp.mpc(pinned)))
    _worst = max(_worst, dev / tol * mp.mpf("1e-15"))
    flag = "" if dev <= tol else "   <-- DIFFERS FROM PIN"
    if mp.im(mp.mpc(got)) == 0:
        literal = mp.nstr(mp.re(got), 20)
    else:
        literal = repr(complex(got))
    print(f"{name:<28} {literal:<42} dev {mp.nstr(dev, 3)}{flag}")


def main():
    ours = dict(q=Q, c1=C1, c2=C2, c3=C3, z0=Z0, Q0=Q0)
    for key, pin in sorted(_pins.REFERENCE_FIELDS.items()):
        report(f"REFERENCE_FIELDS[{key}]", ours[key], pin)

    g2z, g3z = invariants(z_coeffs())
    report("WP_INVARIANTS[0]", g2z, _pins.WP_INVARIANTS[0])
    report("WP_INVARIANTS[1]", g3z, _pins.WP_INVARIANTS[1])

    w03, w103 = wp_pair(mp.mpf("0.3"), g2z, g3z)
    report("WP_03", mp.re(w03), _pins.WP_03)
    report("WP_PRIME_03", mp.re(w103), _pins.WP_PRIME_03)
    report("WP_10", mp.re(wp_pair(1, g2z, g3z)[0]), _pins.WP_10)

    roots = mp.polyroots([4, 0, -g2z, -g3z])
    roots = sorted((mp.re(r) for r in roots), reverse=True)
    for r, pin in zip(roots, _pins.CUBIC_ROOTS):
        report("CUBIC_ROOTS", r, pin)

    for r, pin in zip(derivs(z_coeffs(), Z0), _pins.R1_AT_1):
        report("R1_AT_1", r, pin)
    report("SQRT_R1_AT_1", mp.sqrt(derivs(z_coeffs(), Z0)[0]), _pins.SQRT_R1_AT_1)

    a, b, g, d, e = z_coeffs()
    plain = [a, 4 * b, 6 * g, 4 * d, e]
    r1_roots = sorted(mp.re(r) for r in mp.polyroots(plain))
    for r, pin in zip(r1_roots, _pins.R1_ROOTS):
        report("R1_ROOTS", r, pin)

    report("Z_CURVE_INVARIANTS[0]", g2z, _pins.Z_CURVE_INVARIANTS[0])
    report("Z_CURVE_INVARIANTS[1]", g3z, _pins.Z_CURVE_INVARIANTS[1])

    report("Q_CURVE_G2", C1**2 / 12 - Q * C2, _pins.Q_CURVE_G2)
    zt0 = mp.sqrt(derivs(z_coeffs(), Z0)[0])
    g3q = -(C1 - 3 * Q * Z0) / 216 * (
        C1**2 - 24 * Q * C1 * Z0 + 36 * Q**2 * Z0**2 + 36 * Q * C2
    ) + Q * zt0**2 / (32 * Z0)
    report("Q_CURVE_G3_AT_T0", g3q, _pins.Q_CURVE_G3_AT_T0)

    # the times are the exact binary values of the float keys, as the
    # package receives them (5115.1 is not a dyadic rational)
    for (sigma, t), (z_pin, zt_pin) in sorted(_pins.Z_ORBIT.items()):
        z, zt = orbit(sigma, mp.mpf(t))
        report(f"Z_ORBIT[{sigma},{t}].z", z, z_pin)
        report(f"Z_ORBIT[{sigma},{t}].zt", zt, zt_pin)

    report("Z_REAL_PERIOD", real_period(), _pins.Z_REAL_PERIOD)
    report("Z_PERIOD_INTEGRAL", period_integral(), _pins.Z_PERIOD_INTEGRAL)
    for (sigma, t), pin in sorted(_pins.PHI.items()):
        report(f"PHI[{sigma},{t}]", phase(sigma, mp.mpf(t)), pin)

    co0 = q_coeffs(*orbit(1, mp.mpf(0)))
    for v, pin in zip(co0, _pins.Q_CURVE_T0):
        report("Q_CURVE_T0", v, pin)
    for sigma in (1, -1):
        co1 = q_coeffs(*orbit(sigma, mp.mpf(1)))
        for v, pin in zip(co1[2:], _pins.Q_CURVE_T1[sigma]):
            report(f"Q_CURVE_T1[{sigma}]", v, pin)

    for name, (sz, sq) in BRANCHES.items():
        report(f"Q_AT_1_1[{name}]", profile(1, 1, sz, sq), _pins.Q_AT_1_1[name])
        report(f"Q_AT_1_0[{name}]", profile(1, 0, sz, sq), _pins.Q_AT_1_0[name])

    for name, (sz, sq) in BRANCHES.items():
        report(f"P_AT_1_1[{name}]", inconsistency(1, 1, sz, sq), _pins.P_AT_1_1[name])
        report(f"P_AT_1_05[{name}]",
               inconsistency(1, mp.mpf("0.5"), sz, sq), _pins.P_AT_1_05[name])
        report(f"P_AT_1_0[{name}]", inconsistency(1, 0, sz, sq), _pins.P_AT_1_0[name])

    for (name, t), pin in sorted(_pins.P_NEAR_LATTICE.items()):
        report(f"P_NEAR_LATTICE[{name},{t}]",
               inconsistency(1, mp.mpf(t), *BRANCHES[name]), pin)

    for name, (sz, sq) in BRANCHES.items():
        report(f"A_AT_1_1[{name}]", envelope(1, 1, sz, sq), _pins.A_AT_1_1[name])
    report("A_AT_1_05_MM", envelope(1, mp.mpf("0.5"), -1, -1), _pins.A_AT_1_05_MM)

    # pole positions are pinned to 4 decimals only
    for sigma, table in sorted(_pins.POLE_X.items()):
        for t, x_pin in sorted(table.items()):
            x = pole_location(sigma, mp.mpf(str(t)), x_pin)
            report(f"POLE_X[{sigma}][{t}]", x, x_pin, tol=mp.mpf("6e-5"))

    print(f"\nworst deviation (scaled to each tolerance): {mp.nstr(_worst, 3)}")
    return 0 if _worst <= mp.mpf("1e-15") else 1


if __name__ == "__main__":
    sys.exit(main())
