"""Weierstrass elliptic function evaluation from invariants.

The pair (wp, wp') is evaluated everywhere in the complex plane from the
Laurent expansion about the origin combined with repeated argument halving
and the algebraic duplication rule.  No lattice or theta machinery is used;
everything is driven by the invariant pair (g2, g3), which is what the
quartic reduction naturally produces.

Accuracy model: the expansion is summed for |v| <= threshold where the
truncation error of the default order is far below double round-off for
moderate invariants.  Large invariants shrink the convergence disk, so the
threshold is tightened by the homogeneity scale

    wp(u; g2, g3) = s^2 wp(s u; g2 / s^4, g3 / s^6),

which keeps the summed series inside the same effective radius as the
moderate-invariant case instead of silently losing digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteSamples, PoleProximity

# Public alias: complex scalars flow through every elliptic computation even
# when the physically meaningful inputs and outputs are real.
ComplexValue = complex

SERIES_ORDER = 24        # highest Laurent index kept in the expansion
HALVING_THRESHOLD = 0.5  # sum the series only below this reduced radius
POLE_EPSILON = 1e-10     # arguments closer to 0 than this count as "at the pole"


@dataclass(frozen=True)
class EllipticInvariants:
    """Invariant pair (g2, g3) that fixes a Weierstrass function; real, or
    complex when a complex-step derivative flows through them."""

    g2: complex
    g3: complex

    def __post_init__(self) -> None:
        if not (np.isfinite(self.g2) and np.isfinite(self.g3)):
            raise NonFiniteSamples("invariants must be finite")

    @property
    def discriminant(self) -> float:
        """g2^3 - 27 g3^2, vanishing exactly on degenerate lattices."""
        return self.g2 ** 3 - 27.0 * self.g3 ** 2


@lru_cache(maxsize=512)
def _laurent_coefficients(g2: complex, g3: complex, order: int) -> np.ndarray:
    """Coefficients c[k] of wp(u) = u^-2 + sum_{k>=2} c[k] u^(2k-2).

    The recursion is the classical one obtained by inserting the expansion
    into the defining differential equation; only c2 and c3 carry the
    invariants, every later coefficient is a polynomial in those two.
    """
    c = np.zeros(order + 1, dtype=np.result_type(g2, g3, float))
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, order + 1):
        # sum over m = 2 .. k-2 of c[m] * c[k-m]
        acc = np.dot(c[2:k - 1], c[k - 2:1:-1])
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    return c


def _halving_scale(g2: float, g3: float) -> float:
    # Invariants beyond ~5 in magnitude need a smaller summation radius; the
    # exponents 1/4 and 1/6 are the homogeneity weights of g2 and g3.
    return max(1.0, (abs(g2) / 5.0) ** 0.25, (abs(g3) / 5.0) ** (1.0 / 6.0))


def wp_pair(
    u,
    inv: EllipticInvariants,
    *,
    order: int = SERIES_ORDER,
    threshold: float = HALVING_THRESHOLD,
    eps_pole: float = POLE_EPSILON,
):
    """Evaluate (wp(u), wp'(u)) for scalar or array ``u``.

    Each element is halved until it fits inside the summation radius, the
    series for wp and wp' is summed there, and the duplication rule walks
    the value back up.  Each element of a batch is halved up to the batch
    maximum but at most once more than it needs, so a finite difference
    stencil gets one depth and its error does not step where the halving
    count changes (a difference quotient would amplify the step), while a
    wide batch is not over-halved into amplified round-off.

    The invariants may be complex as well as real: the series and the
    duplication walk are analytic in (u, g2, g3), so a complex-step
    perturbation of any of them carries its derivative to the output.  The
    halving depth reads only magnitudes, which such a step leaves unchanged.

    Raises PoleProximity when any element sits within ``eps_pole`` of the
    double pole at the origin.
    """
    if order < 4:
        raise ValueError("series order below 4 cannot carry both invariants")
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    u_arr = np.asarray(u, dtype=complex)
    scalar = u_arr.ndim == 0
    uf = np.atleast_1d(u_arr)
    if not np.all(np.isfinite(uf)):
        raise NonFiniteSamples("wp arguments must be finite")
    au = np.abs(uf)
    if np.any(au < eps_pole):
        raise PoleProximity(
            f"wp argument within {eps_pole:g} of the double pole at u = 0"
        )

    thr = threshold / _halving_scale(inv.g2, inv.g3)
    n = np.zeros(uf.shape, dtype=int)
    big = au > thr
    if np.any(big):
        n[big] = np.ceil(np.log2(au[big] / thr)).astype(int)
    if n.size:
        n = np.minimum(n.max(), n + 1)
    # Round-off noise from each duplication pass is amplified by the next,
    # reaching ~1e-11 after three passes at large invariants.  Extended
    # precision keeps the walk back up exact to well below double round-off
    # (a silent no-op where long double is plain double).
    v = (uf / np.exp2(n)).astype(np.clongdouble)

    c = _laurent_coefficients(inv.g2, inv.g3, order).astype(np.clongdouble)
    w = v * v
    s_even = np.zeros_like(v)
    s_odd = np.zeros_like(v)
    for k in range(order, 1, -1):
        s_even = s_even * w + c[k]
        s_odd = s_odd * w + (2 * k - 2) * c[k]
    W = 1.0 / w + s_even * w
    W1 = -2.0 / (w * v) + s_odd * v

    half_g2 = np.clongdouble(0.5) * np.clongdouble(inv.g2)
    depth = int(n.max()) if n.size else 0
    for step in range(depth):
        act = n > step
        if not np.any(act):
            break
        Wa = W[act]
        W1a = W1[act]
        W2a = 6.0 * Wa * Wa - half_g2
        W[act] = -2.0 * Wa + W2a * W2a / (4.0 * W1a * W1a)
        W1[act] = -W1a + 3.0 * Wa * (W2a / W1a) - W2a ** 3 / (4.0 * W1a ** 3)

    W = W.astype(complex)
    W1 = W1.astype(complex)
    if scalar:
        return complex(W[0]), complex(W1[0])
    return W, W1


def wp(u, inv: EllipticInvariants, **kwargs) -> ComplexValue:
    """Weierstrass wp(u) for the given invariants."""
    return wp_pair(u, inv, **kwargs)[0]


def wp_prime(u, inv: EllipticInvariants, **kwargs) -> ComplexValue:
    """Derivative wp'(u) for the given invariants."""
    return wp_pair(u, inv, **kwargs)[1]


def cubic_roots(inv: EllipticInvariants):
    """Roots (e1, e2, e3) of 4 y^3 - g2 y - g3, sorted by descending real
    part with descending imaginary part as tie break."""
    r = np.roots([4.0, 0.0, -inv.g2, -inv.g3])
    r = r[np.lexsort((-r.imag, -r.real))]
    return complex(r[0]), complex(r[1]), complex(r[2])
