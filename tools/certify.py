"""Print the exact witness that the ansatz fails the cubic NLS at x = 0.

The construction pins Q(0, t) = Q0 at every t, so Q_t(0, t) = 0 and the
inconsistency functional there is

    P(0, t) = -sqrt(z(t)) (c1 - q (3 z(t) + Q0^2)),

with z(0) = z0 on every branch.  From the decimal parameter strings this
prints P(0, 0) in exact rational arithmetic, as sqrt(z0) times a fraction,
collapsed to one fraction where z0 is the square of a rational.  No
elliptic function enters and nothing is rounded.  The reference set gives
-2, and a nonzero P(0, 0) is a point where the envelope fails the equation.

Usage: python3 tools/certify.py [--q Q] [--c1 C1] [--z0 Z0] [--q0 Q0]

The flags are those of the command line; c2 and c3 do not enter P(0, 0).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

# the reference parameter set, as decimal strings
REFERENCE = {"q": "-1", "c1": "-2", "z0": "1", "q0": "1"}


def rational_sqrt(v: Fraction) -> Fraction | None:
    """The square root of v >= 0 if it is rational, else None."""
    n, d = math.isqrt(v.numerator), math.isqrt(v.denominator)
    return Fraction(n, d) if (n * n, d * d) == (v.numerator, v.denominator) else None


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
        parser.add_argument(f"--{name}", default=default)
    ns = parser.parse_args(argv)
    s, f = witness(ns.q, ns.c1, ns.z0, ns.q0)
    print(f"P(0, 0) = {f}" if s == 1 else f"P(0, 0) = sqrt({s}) * ({f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
