"""Print the exact witness that the ansatz fails the cubic NLS at x = 0.

The construction pins Q(0, t) = Q0 at every t, so Q_t(0, t) = 0 and the
inconsistency functional there is

    P(0, t) = -sqrt(z(t)) (c1 - q (3 z(t) + Q0^2)),

with z(0) = z0 on every branch.  From the decimal parameter strings this
prints P(0, 0) in exact rational arithmetic, as sqrt(z0) times a fraction,
collapsed to one fraction where z0 is the square of a rational.  No
elliptic function enters and nothing is rounded.  The reference set gives
-2, and a nonzero P(0, 0) is a point where the envelope fails the equation.

Usage: python3 tools/certify.py [--q Q] [--c1 C1] [--c2 C2] [--c3 C3] [--z0 Z0] [--q0 Q0]

The flags are those of the command line, with the reference values as
defaults.  A parameter set the command line refuses is refused with its
message and exit code 1: a value that is not finite, q = 0, z0 <= 0, a
z-curve coefficient or an invariant of the profile lattice that overflows
a float, a Q0 at which a scalar R2^(k)(Q0) of the profile curve at t = 0
does, or a constant term of its closed form (R2 R2''''/48 and R2 R2'''/24
at Q0), all read and computed as the command line reads and computes
them, as floats, or R1(z0) < 0, in exact arithmetic on the z-curve.  Where c1 = q (3 z0 + Q0^2), P(0, 0) is exactly
0: no witness is printed, and the exit code is 2.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

# what the command line refuses to overflow at t = 0, in its words
PROFILE_CONSTANTS = ("scalar R2(Q0)", "scalar R2'(Q0)", "scalar R2''(Q0)", "scalar R2'''(Q0)",
                     "scalar R2''''(Q0)", "term R2(Q0) R2''''(Q0)/48", "term R2(Q0) R2'''(Q0)/24")

# the reference parameter set, as decimal strings
REFERENCE = {"q": "-1", "c1": "-2", "c2": "0.4", "c3": "0.13", "z0": "1", "q0": "1"}


def rational_sqrt(v: Fraction) -> Fraction | None:
    """The square root of v >= 0 if it is rational, else None."""
    n, d = math.isqrt(v.numerator), math.isqrt(v.denominator)
    return Fraction(n, d) if (n * n, d * d) == (v.numerator, v.denominator) else None


def decimal(text: str) -> str:
    """text, if it reads as a number (as a float, as the command line reads
    it): an argparse type."""
    float(text)
    return text


def r1(q, c1, c2, c3, z) -> Fraction:
    """R1(z) = -16 q^2 z^4 + 16 q c1 z^3 - 4 (c1^2 + 4 q c2) z^2 + 4 c3 z, the
    z-curve's quartic, exactly."""
    q, c1, c2, c3, z = map(Fraction, (q, c1, c2, c3, z))
    return (((-16 * q * q * z + 16 * q * c1) * z - 4 * (c1 * c1 + 4 * q * c2)) * z + 4 * c3) * z


def horner(coeffs, y: float) -> tuple:
    """R(y) and its first four derivatives for the weighted coefficients
    (alpha, beta, gamma, delta, epsilon), in the command line's float steps."""
    a, b, g, d, e = coeffs
    return ((((a * y + 4.0 * b) * y + 6.0 * g) * y + 4.0 * d) * y + e,
            ((4.0 * a * y + 12.0 * b) * y + 12.0 * g) * y + 4.0 * d,
            (12.0 * a * y + 24.0 * b) * y + 12.0 * g, 24.0 * a * y + 24.0 * b, 24.0 * a + 0.0 * y)


def refusal(q, c1, c2, c3, z0, q0) -> str | None:
    """The command line's message refusing the parameter set of decimal
    strings, or None."""
    if not all(math.isfinite(float(v)) for v in (q, c1, c2, c3, z0, q0)):
        return "parameters must be finite"
    if float(q) == 0.0:
        return "q must be nonzero"
    if not float(z0) > 0.0:
        return "z0 must be positive"
    fq, fc1, fc2, fc3, fz0, fq0 = map(float, (q, c1, c2, c3, z0, q0))
    try:
        q2, c12 = fq ** 2, fc1 ** 2
    except OverflowError:  # a float power raises where a product reads inf
        q2, c12 = fq * fq, fc1 * fc1
    z_curve = (-16.0 * q2, 4.0 * fq * fc1, -(2.0 / 3.0) * (c12 + 4.0 * fq * fc2), fc3, 0.0)
    for name, value in zip(("alpha", "beta", "gamma"), z_curve):
        if not math.isfinite(value):
            return (f"z-curve coefficient {name} overflows a float at "
                    f"q = {fq:g}, c1 = {fc1:g}, c2 = {fc2:g}, c3 = {fc3:g}")
    r10 = r1(q, c1, c2, c3, z0)
    if r10 < 0:
        shown = f"{float(r10):g}" if r10 > -2 ** 1024 else "-inf"  # no float holds it
        return f"R1(z0) = {shown} < 0: z(t) has no real initial slope"
    r10 = horner(z_curve, fz0)[0]
    if math.isfinite(r10):  # else z_t(0) overflows, as the z-curve's invariants say
        # the profile lattice, the same for every profile curve
        g = (fc1 * fc1 / 12.0 - fq * fc2,
             -(fc1 * fc1 * fc1 + 36.0 * fq * fc1 * fc2 - 27.0 * fq * fc3) / 216.0)
        if not all(map(math.isfinite, g)):
            return (f"profile lattice g2, g3 = {g[0]:g}, {g[1]:g} overflows a float "
                    f"at q = {fq:g}, c1 = {fc1:g}, c2 = {fc2:g}, c3 = {fc3:g}")
        # the profile curve at t = 0 on the orbit sigma_z = +1, and its scalars at Q0
        profile = (-0.5 * fq, 0.0, (fc1 - 3.0 * fq * fz0) / 6.0,
                   math.sqrt(r10) / (4.0 * math.sqrt(fz0)),
                   2.0 * fc2 + 1.5 * fq * fz0 * fz0 - fc1 * fz0)
        r = horner(profile, fq0)
        for name, value in zip(PROFILE_CONSTANTS, (*r, r[0] * r[4] / 48.0, r[0] * r[3] / 24.0)):
            if not math.isfinite(value):
                return f"profile {name} overflows a float at Q0 = {fq0:g}"
    return None


def witness(q: str, c1: str, z0: str, q0: str) -> tuple:
    """(s, f) with P(0, 0) = sqrt(s) f exactly: s = z0 and
    f = -(c1 - q (3 z0 + Q0^2)), or s = 1 and f times sqrt(z0) where that
    root is rational."""
    q, c1, z0, q0 = map(Fraction, (q, c1, z0, q0))
    if not z0 > 0:
        raise ValueError("z0 must be positive")
    f = -(c1 - q * (3 * z0 + q0 * q0))
    root = rational_sqrt(z0)
    return (z0, f) if root is None else (Fraction(1), root * f)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name, default in REFERENCE.items():
        parser.add_argument(f"--{name}", type=decimal, default=default)
    ns = parser.parse_args(argv)
    error = refusal(ns.q, ns.c1, ns.c2, ns.c3, ns.z0, ns.q0)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    s, f = witness(ns.q, ns.c1, ns.z0, ns.q0)
    if f == 0:
        print("no witness at order 0: c1 = q (3 z0 + Q0^2) makes P(0, 0) vanish; "
              "the first nonzero order in t is ROADMAP item 7")
        return 2
    print(f"P(0, 0) = {f}" if s == 1 else f"P(0, 0) = sqrt({s}) * ({f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
