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

The flags are those of the command line, parsed by its parser and with the
reference values as defaults.  A parameter set is refused, with exit code
1, where ``AnsatzParams`` refuses the floats that the command line reads,
with its message, and also where R1(z0) < 0 in exact arithmetic on the
z-curve; a bad flag is refused as the command line refuses it.  Where
c1 = q (3 z0 + Q0^2), P(0, 0) is exactly 0: no witness is printed, and the
exit code is 2.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from cnlse_ansatz import REFERENCE_PARAMS, AnsatzParams  # noqa: E402
from cnlse_ansatz.cli import _FIELD_OF_FLAG, CliError, _Parser  # noqa: E402

# the reference parameter set, as decimal strings
REFERENCE = {flag: repr(getattr(REFERENCE_PARAMS, _FIELD_OF_FLAG[flag]))
             for flag in ("q", "c1", "c2", "c3", "z0", "q0")}


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


def refusal(q, c1, c2, c3, z0, q0) -> str | None:
    """The message refusing the parameter set of decimal strings: that of
    the error ``AnsatzParams`` raises on their floats, as the command line
    reads them, else that of R1(z0) < 0 in exact arithmetic; or None."""
    try:
        AnsatzParams(*map(float, (q, c1, c2, c3, z0, q0)))
    except (ValueError, ArithmeticError) as exc:  # as the command line catches them
        return str(exc)
    r10 = r1(q, c1, c2, c3, z0)
    if r10 < 0:
        shown = f"{float(r10):g}" if r10 > -2 ** 1024 else "-inf"  # no float holds it
        return f"R1(z0) = {shown} < 0: z(t) has no real initial slope"
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
    parser = _Parser(description=__doc__.splitlines()[0])
    for name, default in REFERENCE.items():
        parser.add_argument(f"--{name}", type=decimal, default=default)
    try:
        ns = parser.parse_args(argv)
        error = refusal(ns.q, ns.c1, ns.c2, ns.c3, ns.z0, ns.q0)
    except CliError as exc:  # a bad flag, as the command line words it
        error = str(exc)
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
