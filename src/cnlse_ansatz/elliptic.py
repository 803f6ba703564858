"""Weierstrass elliptic function evaluation from invariants.

The pair (wp, wp') is evaluated everywhere in the complex plane from the
Laurent expansion about the origin combined with repeated argument halving
and the algebraic duplication rule.  No lattice or theta machinery is used;
everything is driven by the real invariant pair (g2, g3), which is what
the quartic reduction naturally produces.

Accuracy model: the expansion, kept to index SERIES_ORDER, is summed for
|v| <= HALVING_THRESHOLD, where its truncation error is far below double
round-off for moderate invariants.  Large invariants shrink the convergence
disk, so the threshold is tightened by the homogeneity scale

    wp(u; g2, g3) = s^2 wp(s u; g2 / s^4, g3 / s^6),

which keeps the summed series inside the same effective radius as the
moderate-invariant case instead of silently losing digits.

An argument far from the origin is first folded by whole real periods 2w
(``real_period``) into |Re u| <= w, so the halving depth, and the
round-off with it, stays bounded in |u| (see ``wp_pair``).  A degenerate
lattice (g2^3 = 27 g3^2) has no such period to fold by, and its pair is
read from its closed form instead (A&S 18.12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteSamples, PoleProximity

SERIES_ORDER = 24        # highest Laurent index kept in the expansion
HALVING_THRESHOLD = 0.5  # sum the series only below this reduced radius
POLE_EPSILON = 1e-10     # arguments closer to 0 than this count as "at the pole"
LAURENT_BLOCK = 256      # arguments per power matrix of the series sum

_LONG_EPS = np.finfo(np.longdouble).eps
_LONG_PI = 4.0 * np.arctan(np.longdouble(1.0))


@dataclass(frozen=True)
class EllipticInvariants:
    """Real invariant pair (g2, g3), held as Python floats, that fixes a
    Weierstrass function; a complex-typed value raises ValueError."""

    g2: float
    g3: float

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.g2) or np.iscomplexobj(self.g3):
            raise ValueError("invariants must be real")
        object.__setattr__(self, "g2", float(self.g2))
        object.__setattr__(self, "g3", float(self.g3))
        if not (math.isfinite(self.g2) and math.isfinite(self.g3)):
            raise NonFiniteSamples("invariants must be finite")

    @property
    def discriminant(self) -> float:
        """g2^3 - 27 g3^2, vanishing exactly on degenerate lattices.  Raises
        NonFiniteSamples when it overflows."""
        try:
            disc = self.g2 ** 3 - 27.0 * self.g3 ** 2
        except OverflowError:  # a float power raises where a product reads inf
            disc = math.inf
        if not np.isfinite(disc):
            raise NonFiniteSamples(
                f"discriminant g2^3 - 27 g3^2 of g2 = {self.g2:g}, g3 = {self.g3:g} "
                "overflows a float"
            )
        return disc


@lru_cache(maxsize=512)
def _laurent_matrix(g2: float, g3: float) -> np.ndarray:
    """Rows c[k] and (2k - 2) c[k], k = SERIES_ORDER .. 2, in extended
    precision, of wp(u) = u^-2 + sum c[k] u^(2k-2), by the recursion that
    the differential equation gives: times w^(k-2), w = v^2, they sum
    (wp - v^-2) / w and (wp' + 2 v^-3) / v, smallest term first."""
    c = np.zeros(SERIES_ORDER + 1)
    c[2] = g2 / 20.0
    c[3] = g3 / 28.0
    for k in range(4, SERIES_ORDER + 1):
        # sum over m = 2 .. k-2 of c[m] * c[k-m]
        acc = np.dot(c[2:k - 1], c[k - 2:1:-1])
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    c = c[:1:-1].astype(np.clongdouble)
    return np.stack((c, (2 * np.arange(SERIES_ORDER, 1, -1) - 2) * c))


@lru_cache(maxsize=512)
def _real_period(g2: float, g3: float) -> float | None:
    inv = EllipticInvariants(g2, g3)
    disc = inv.discriminant
    if disc == 0.0:
        return None
    # Newton-polished roots and the AGM in extended precision keep 2w
    # within an ulp where double roots lose up to 1e-14 (a silent
    # no-op where long double is plain double)
    G2, G3 = np.longdouble(g2), np.longdouble(g3)

    def root(e):
        e = np.longdouble(e.real)
        for _ in range(2):
            e -= (4.0 * e ** 3 - G2 * e - G3) / (12.0 * e * e - G2)
        return e

    roots = cubic_roots(inv)
    if disc > 0.0:  # three real roots, DLMF 19.8(i) and 23.6
        e1, e2, e3 = map(root, roots)
        a, b = e1 - e3, e1 - e2
    else:           # one real root e2, A&S 18.9
        e2 = root(min(roots, key=lambda r: abs(r.imag)))
        a = np.sqrt(3.0 * e2 * e2 - 0.25 * G2)
        b = 0.5 * a + 0.75 * e2
    if not (a > 0.0 and b > 0.0):  # roots merged in round-off: degenerate
        return None
    a, b = np.sqrt(a), np.sqrt(b)
    while a - b > 4.0 * _LONG_EPS * a:
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return float(_LONG_PI / a)


def _degenerate_pair(uf, g2: float, g3: float):
    """(wp, wp') at ``uf`` where g2^3 = 27 g3^2 exactly (compared in
    integers, which neither overflow nor underflow), else None.  There,
    with double root e = -3 g3 / (2 g2), they are 1/u^2 and -2/u^3 at e = 0,
    else e + 3e csch^2 z and -6e s coth z csch^2 z at z = s u, s = sqrt(3e)
    complex, one form for both signs of e (A&S 18.12).  Where |Re z| > 20,
    z is first moved by a real c to |Re z| = 20, since there
    csch^2 z = exp(-2|c|) csch^2(z + c) and coth z = coth(z + c) to far below
    round-off, and sinh z would overflow.  In extended precision, which
    keeps z exact to well below double round-off far out."""
    (a, b), (c, d) = g2.as_integer_ratio(), g3.as_integer_ratio()
    if a ** 3 * d ** 2 != 27 * c ** 2 * b ** 3:
        return None
    u = uf.astype(np.clongdouble)
    if g2 == 0.0:
        return (1.0 / u ** 2).astype(complex), (-2.0 / u ** 3).astype(complex)
    e = -1.5 * np.longdouble(g3) / np.longdouble(g2)
    s = np.sqrt(np.clongdouble(3.0 * e))
    z = s * u
    c = np.clip(z.real, -20.0, 20.0) - z.real
    sinh = np.sinh(z + c)
    csch2 = np.exp(-2.0 * np.abs(c)) / sinh ** 2
    coth = np.cosh(z + c) / sinh
    return (e + 3.0 * e * csch2).astype(complex), (-6.0 * e * s * coth * csch2).astype(complex)


def real_period(inv: EllipticInvariants) -> float | None:
    """Real period 2w of the lattice of real invariants, the smallest
    P > 0 with wp(u + P) = wp(u): pi / AGM(sqrt(e1 - e3), sqrt(e1 - e2))
    for a discriminant above zero, and the A&S 18.9 form through the
    real root for one below.  None for a degenerate lattice (discriminant
    zero, one period infinite)."""
    return _real_period(inv.g2, inv.g3)


def _halving_scale(g2: float, g3: float) -> float:
    # Invariants beyond ~5 in magnitude need a smaller summation radius; the
    # exponents 1/4 and 1/6 are the homogeneity weights of g2 and g3.
    return max(1.0, (abs(g2) / 5.0) ** 0.25, (abs(g3) / 5.0) ** (1.0 / 6.0))


def wp_pair(u, inv: EllipticInvariants):
    """Evaluate (wp(u), wp'(u)) for scalar or array ``u``.

    An element that would need three or more halvings (|u| > 4 times the
    scaled threshold) first has Re u replaced by Re u - k 2w with
    k = round(Re u / 2w), 2w the real period of the lattice (a degenerate
    one is not folded); Im u is kept, so a complex step in u survives the
    fold.  An argument on a lattice point other than 0 folds onto +-2w
    rather than onto the pole.  Each element is then halved into the
    summation radius, the series for wp and wp' is summed there, and the
    duplication rule walks back up.  Each element of a batch is halved up
    to the batch maximum but at most once more than it needs, so a finite
    difference stencil gets one depth (a difference quotient would amplify
    a step in the error) while a wide batch is not over-halved into
    amplified round-off.  A ``u`` of two or more dimensions is a stack of
    such batches, one per row (its last axis), so a column of independent
    times keeps the bits each has alone.

    On a degenerate lattice (g2^3 = 27 g3^2 exactly) every element is read
    from the closed form instead (see ``_degenerate_pair``).

    Raises PoleProximity when any element sits within POLE_EPSILON of the
    double pole at the origin, before the fold or after it (where the float
    spacing at Re u is wider than 2w).
    """
    u_arr = np.asarray(u)
    uf = u_arr.astype(complex, copy=False).ravel()
    if not np.isfinite(uf).all():
        raise NonFiniteSamples("wp arguments must be finite")
    au = np.abs(uf)
    if (au < POLE_EPSILON).any():
        raise PoleProximity(
            f"wp argument within {POLE_EPSILON:g} of the double pole at u = 0"
        )

    row = u_arr.shape[-1] if u_arr.ndim > 1 else uf.size
    W, W1 = _evaluate(uf, au, inv, row)
    if u_arr.ndim == 0:
        return complex(W[0]), complex(W1[0])
    return W.reshape(u_arr.shape), W1.reshape(u_arr.shape)


def _evaluate(uf, au, inv: EllipticInvariants, row: int = 0):
    """(wp, wp') at the checked 1-d complex arguments ``uf`` (moduli ``au``),
    whose consecutive runs of ``row`` arguments (all of them for 0) each
    share one halving depth."""
    pair = _degenerate_pair(uf, inv.g2, inv.g3)
    if pair is not None:
        return pair
    thr = HALVING_THRESHOLD / _halving_scale(inv.g2, inv.g3)
    far = au > 4.0 * thr  # would need three or more halvings
    period = real_period(inv) if far.any() else None
    if period is not None:
        k = np.round(uf.real[far] / period)
        # an argument on a lattice point other than 0 folds one period
        # short, onto the point at +-2w, rather than onto the pole
        k -= np.sign(k) * (np.abs(uf[far] - k * period) < POLE_EPSILON)
        uf = uf.copy()
        uf[far] -= k * period
        au = np.abs(uf)
        if (au < POLE_EPSILON).any():  # float spacing at Re u wider than 2w
            raise PoleProximity(f"wp argument folds by whole periods 2w = {period:g} "
                                f"to within {POLE_EPSILON:g} of the double pole at u = 0")
    n = np.zeros(uf.shape, dtype=int)
    big = au > thr
    if big.any():
        n[big] = np.ceil(np.log2(au[big] / thr)).astype(int)
    if n.size:
        n = n.reshape(-1, row or n.size)
        n = np.minimum(n.max(axis=1, keepdims=True), n + 1).ravel()
    # Round-off noise from each duplication pass is amplified by the next,
    # reaching ~1e-11 after three passes at large invariants.  Extended
    # precision keeps the walk back up exact to well below double round-off
    # (a silent no-op where long double is plain double).
    v = (uf / np.exp2(n)).astype(np.clongdouble)

    # both series as one product of the coefficient matrix with the powers
    # w^(SERIES_ORDER - 2) .. w^0, a block at a time: a wide batch's powers
    # stay small
    mat = _laurent_matrix(inv.g2, inv.g3)
    w = v * v
    sums = np.empty((2, v.size), dtype=np.clongdouble)
    for lo in range(0, v.size, LAURENT_BLOCK):
        block = w[lo:lo + LAURENT_BLOCK]
        powers = np.ones((SERIES_ORDER - 1, block.size), dtype=np.clongdouble)
        np.multiply.accumulate(np.broadcast_to(block, powers[1:].shape), out=powers[1:])
        sums[:, lo:lo + LAURENT_BLOCK] = mat @ powers[::-1]
    W = 1.0 / w + sums[0] * w
    W1 = -2.0 / (w * v) + sums[1] * v

    half_g2 = np.clongdouble(0.5) * np.clongdouble(inv.g2)
    depth, shallowest = (int(n.max()), int(n.min())) if n.size else (0, 0)
    for step in range(depth):
        # every element takes `shallowest` halvings: no mask and no copy
        act = slice(None) if step < shallowest else n > step
        Wa, W1a = W[act], W1[act]
        W2a = 6.0 * Wa * Wa - half_g2
        Wa, W1a = (-2.0 * Wa + W2a * W2a / (4.0 * W1a * W1a),
                   -W1a + 3.0 * Wa * (W2a / W1a) - W2a ** 3 / (4.0 * W1a ** 3))
        if step < shallowest:
            W, W1 = Wa, W1a
        else:
            W[act], W1[act] = Wa, W1a

    return W.astype(complex), W1.astype(complex)


def cubic_roots(inv: EllipticInvariants):
    """Roots (e1, e2, e3) of 4 y^3 - g2 y - g3, sorted by descending real
    part with descending imaginary part as tie break."""
    r = np.roots([4.0, 0.0, -inv.g2, -inv.g3])
    r = r[np.lexsort((-r.imag, -r.real))]
    return complex(r[0]), complex(r[1]), complex(r[2])
