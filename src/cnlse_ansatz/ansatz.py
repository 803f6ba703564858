"""Constructed objects of the trial reduction.

From a parameter record this module builds the squared imaginary part z(t),
the profile Q(x, t), the phase phi(t), and the complex envelope

    A(x, t) = (Q(x, t) + i sqrt(z(t))) e^{i phi(t)}.

z solves a fixed quartic ODE in t; for each time the profile Q solves a
second quartic ODE in x whose coefficients depend on z(t) and its rate.
The dispersion coefficient is fixed to 1 throughout this construction.
The envelope as a sampler (x, t) -> A is ``partial(field_A, params)``.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, replace

import numpy as np

from .errors import NegativeRadicand, NonFiniteSamples, PoleProximity, RealityViolation
from .elliptic import EllipticInvariants, real_period
from .quartic import QuarticCurve, _over, _scalars, _times, eval_with_derivatives
from .quartic import weierstrass_solution

PROFILE_CONSTANTS = ("scalar R2(Q0)", "scalar R2'(Q0)", "scalar R2''(Q0)", "scalar R2'''(Q0)",
                     "scalar R2''''(Q0)", "term R2(Q0) R2''''(Q0)/48", "term R2(Q0) R2'''(Q0)/24")

# Branch label -> (sigma_z, sigma_Q).  The slope sign pair is part of the
# parameter record; these labels are the short names used by reports.
BRANCHES = {"pp": (1, 1), "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)}


def profile_lattice(params: AnsatzParams) -> EllipticInvariants:
    """The invariants of every profile curve of params, on both orbits at
    every t: g2 = c1^2/12 - q c2, g3 = -(c1^3 + 36 q c1 c2 - 27 q c3)/216."""
    q, c1, c2, c3 = params.q, params.c1, params.c2, params.c3
    g = (c1 * c1 / 12.0 - q * c2, -(c1 * c1 * c1 + 36.0 * q * c1 * c2 - 27.0 * q * c3) / 216.0)
    if not np.isfinite(g).all():
        raise NonFiniteSamples(f"profile lattice g2, g3 = {g[0]:g}, {g[1]:g} overflows a float "
                               f"at q = {q:g}, c1 = {c1:g}, c2 = {c2:g}, c3 = {c3:g}")
    return EllipticInvariants(*g)


def _q_curve_from_state(params: AnsatzParams, z, zt,
                        lattice: EllipticInvariants | None = None) -> QuarticCurve:
    """The profile curve at the state (z, z_t), carrying ``lattice``, which
    is ``profile_lattice(params)``: a caller making many curves passes it.
    z and z_t are scalars or arrays (a stack), real or complex (P's complex
    step), each element with the bits of its scalar call."""
    if np.any(np.real(z) <= 0.0):  # a stack's caller fails such states first, one by one
        raise RealityViolation(f"z = {z:g} <= 0: profile curve needs sqrt(z)")
    q, zero = params.q, 0.0 * np.real(z)  # every coefficient of a stack has z's shape
    return QuarticCurve(
        alpha=zero - 0.5 * q,
        beta=zero,
        gamma=_over(params.c1 - 3.0 * q * z, 6.0),
        delta=zt / (4.0 * np.sqrt(z)),
        epsilon=2.0 * params.c2 + _times(1.5 * q * z, z) - params.c1 * z,
        lattice=profile_lattice(params) if lattice is None else lattice,
    )


@dataclass(frozen=True)
class AnsatzParams:
    """Parameters of the construction.

    q is the nonlinearity coefficient; c1, c2, c3 are the integration
    constants of the reduced system; z0 = z(0) > 0 and Q0 = Q(0, t) are the
    initial levels; sigma_z and sigma_Q select the initial slope signs of
    the two quartic solutions.  A set whose z-curve has no real slope at
    z0, or whose profile scalars R2^(k)(Q0) or closed form's constant terms
    at t = 0 overflow a float, is refused.
    """

    q: float
    c1: float
    c2: float
    c3: float
    z0: float
    Q0: float
    phi0: float = 0.0
    sigma_z: int = 1
    sigma_Q: int = 1

    def __post_init__(self) -> None:
        vals = (self.q, self.c1, self.c2, self.c3, self.z0, self.Q0, self.phi0)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("parameters must be finite")
        if self.q == 0.0:
            raise ValueError("q must be nonzero")
        if self.z0 <= 0.0:
            raise ValueError("z0 must be positive")
        if self.sigma_z not in (1, -1) or self.sigma_Q not in (1, -1):
            raise ValueError("sigma_z and sigma_Q must be +1 or -1")
        object.__setattr__(self, "sigma_z", int(self.sigma_z))
        object.__setattr__(self, "sigma_Q", int(self.sigma_Q))
        c, z0 = z_curve(self), self.z0
        r10 = eval_with_derivatives(c, z0)[0]
        if r10 < 0.0:
            raise NegativeRadicand(
                f"R1(z0) = {r10:g} < 0: z(t) has no real initial slope"
            )
        # epsilon = 0, so R1(z0) = z0 f, which reads 0 where the product underflows
        f = ((c.alpha * z0 + 4.0 * c.beta) * z0 + 6.0 * c.gamma) * z0 + 4.0 * c.delta
        if f < 0.0:
            raise NegativeRadicand(f"R1(z0) = z0 f underflows to 0, f = {f:g} < 0: "
                                   "z(t) has no real initial slope")
        if math.isfinite(r10):  # an infinite z_t(0): the z-curve's invariants overflow
            # at t = 0, where z = z0: the profile scalars and the closed form's products
            curve = _q_curve_from_state(self, self.z0, self.sigma_z * math.sqrt(r10))
            with np.errstate(over="ignore", invalid="ignore"):
                r = eval_with_derivatives(curve, self.Q0)
                values = (*r, r[0] * r[4] / 48.0, r[0] * r[3] / 24.0)
            for name, value in zip(PROFILE_CONSTANTS, values):
                if not np.isfinite(value):
                    raise NonFiniteSamples(f"profile {name} overflows a float at Q0 = {self.Q0:g}")


def with_branch(params: AnsatzParams, sigma_z: int, sigma_Q: int) -> AnsatzParams:
    """Copy of params with the slope signs replaced."""
    return replace(params, sigma_z=sigma_z, sigma_Q=sigma_Q)


def z_curve(params: AnsatzParams) -> QuarticCurve:
    """Quartic curve solved by z(t):
    (alpha, beta, gamma, delta, epsilon) = (-16 q^2, 4 q c1, -(2/3)(c1^2 + 4 q c2), c3, 0).
    A coefficient that overflows a float raises NonFiniteSamples."""
    q, c1, c2, c3 = params.q, params.c1, params.c2, params.c3
    try:
        q2, c12 = q ** 2, c1 ** 2
    except OverflowError:  # a float power raises where a product reads inf
        q2, c12 = q * q, c1 * c1
    coeffs = {"alpha": -16.0 * q2, "beta": 4.0 * q * c1,
              "gamma": -(2.0 / 3.0) * (c12 + 4.0 * q * c2), "delta": c3, "epsilon": 0.0}
    for name, value in coeffs.items():
        if not math.isfinite(value):
            raise NonFiniteSamples(f"z-curve coefficient {name} overflows a float at "
                                   f"q = {q:g}, c1 = {c1:g}, c2 = {c2:g}, c3 = {c3:g}")
    return QuarticCurve(**coeffs)


# The default experiment: the parameter set every command falls back to.
REFERENCE_PARAMS = AnsatzParams(q=-1.0, c1=-2.0, c2=0.4, c3=0.13, z0=1.0, Q0=1.0)

# Phase quadrature: Gauss-Legendre nodes per panel and the panel width.
PHASE_NODES = 16
PHASE_PANEL = 0.25
# np.polynomial.legendre.leggauss(PHASE_NODES) bit for bit, mirrored from its x > 0 pairs
_GL_HALF = np.array([
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
])
_GL_X, _GL_W = np.concatenate((_GL_HALF[::-1] * (-1.0, 1.0), _GL_HALF)).T.copy()

# Complex step h of every derivative of a closed form, Im y(xi + ih) / h: with
# no difference to cancel, h sits far below round-off and O(h^2) vanishes.
P_STEP = 1e-30


def _require_real_z(z, t) -> None:
    za = np.atleast_1d(np.asarray(z, dtype=float))
    ta = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=float)), za.shape)
    if not np.isfinite(za).all():
        # Unreachable for valid parameters: the z-curve denominator
        # 2(wp-b)^2 + 8 q^2 R1(z0) is positive whenever R1(z0) > 0.
        bad = ta[~np.isfinite(za)][0]
        raise PoleProximity(f"z(t) hit a solution pole near t = {bad:g}")
    neg = za < 0.0
    if np.any(neg):
        i = int(np.argmax(neg))
        raise RealityViolation(
            f"z({ta[i]:g}) = {za[i]:g} < 0: sqrt(z) is not real there"
        )


def _z_stepped(params: AnsatzParams, t, signs: tuple) -> list:
    """z(t + ih), h = P_STEP, at scalar or array t per orbit sign of signs,
    from one closed-form call in which each time is a batch row of its own,
    so keeps the halving depth it has alone."""
    u = np.asarray(t, dtype=float)[..., None] + 1j * P_STEP
    return [y[..., 0] for y in weierstrass_solution(z_curve(params), params.z0, signs, u)]


def z_with_rate(params: AnsatzParams, t):
    """(z(t), z_t(t)) for scalar or array t.

    One complex-step evaluation of the closed form at t + ih, h = P_STEP,
    the call ``_orbit_states`` makes: z is its real part and the rate
    Im z(t + ih) / h, exact to round-off.  Each time keeps the halving depth
    it has alone, so an array reads the bits of scalar calls.  The rate
    carries the sign of sigma_z sqrt(R1(z)) continued through turning points
    without any crossing bookkeeping."""
    y, = _z_stepped(params, t, (params.sigma_z,))
    _require_real_z(y.real, t)
    z, zt = y.real, y.imag / P_STEP
    return (z, zt) if np.ndim(t) else (float(z), float(zt))


def _or_error(fn, *args):
    """fn(*args), or the error it raises where z is not real or a radicand
    is negative, kept in place of the value: a failure on one orbit, or at
    one time, is its own."""
    try:
        return fn(*args)
    except (PoleProximity, RealityViolation, NegativeRadicand) as exc:
        return exc.with_traceback(None)


def _checked(value):
    """value, raised if it is an error that ``_or_error`` kept."""
    if isinstance(value, Exception):
        raise value.with_traceback(None)
    return value


def _panel_values(curve: QuarticCurve, z0: float, lo: np.ndarray, hi: np.ndarray) -> dict:
    """Gauss-Legendre integrals of z over the panels [lo, hi], given as
    (panels, 1) columns, per orbit, sigma_z = +1 and -1, of the curve through
    z0, nan on a panel where z is not real, with those panels' errors, from
    one closed-form call in which each panel is a row of one halving depth."""
    half = 0.5 * (hi - lo)
    nodes = lo + half * (1.0 + _GL_X)
    zs = weierstrass_solution(curve, z0, (1, -1), nodes)

    def integrals(z):
        real = ((z >= 0.0) & (z < math.inf)).all(axis=1)
        errors = [_or_error(_require_real_z, z[i], nodes[i]) for i in np.flatnonzero(~real)]
        return np.where(real, np.sum(half * _GL_W * z, axis=1), np.nan), errors

    return {sigma: integrals(z) for sigma, z in zip((1, -1), zs)}


def _z_integrals(curve: QuarticCurve, z0: float, ts: np.ndarray) -> dict:
    """Integral of z over [0, t] for each t of ts per orbit of the curve
    through z0, or its error: the running sum of the whole panels from 0 in
    the direction of t, plus t's partial panel (of width 0 on a panel edge;
    see ``phi_of_t``).  Every panel is a row of one ``_panel_values`` call,
    so a panel's bits do not depend on which times came with it."""
    sign = np.copysign(1.0, ts)
    whole = np.floor(np.abs(ts) / PHASE_PANEL)
    n = [int(whole[sign == s].max(initial=0)) for s in (1.0, -1.0)]
    edges = [s * PHASE_PANEL * np.arange(m + 1) for s, m in zip((1.0, -1.0), n)]
    lo = np.concatenate([e[:-1] for e in edges] + [sign * whole * PHASE_PANEL])
    hi = np.concatenate([e[1:] for e in edges] + [ts])
    table = _panel_values(curve, z0, lo[:, None], hi[:, None])

    def integrals(sigma):
        values, errors = table[sigma]
        _checked(next(iter(errors), None))  # the first row that failed
        ahead, behind, partial = np.split(values, np.cumsum(n))
        sums = np.concatenate([np.cumsum(np.append(0.0, v)) for v in (ahead, behind)])
        return sums[whole.astype(int) + (sign < 0) * (n[0] + 1)] + partial

    return {sigma: _or_error(integrals, sigma) for sigma in (1, -1)}


def _split_periods(period: float | None, t):
    """(k, r) with |t| = k 2w + |r|, r of the sign of t and 2w a lattice's
    real period (``real_period``), for each element of the float or array t:
    k = floor(|t| / 2w), a float, and the remainder.  Below one period, and
    for a lattice without a real period (None), (0, t).  A non-finite t
    raises NonFiniteSamples, naming the first."""
    t = np.asarray(t, dtype=float)
    bad = t[~np.isfinite(t)]
    if bad.size:
        raise NonFiniteSamples(f"{bad[0]} is not finite: no whole periods to split off")
    k = np.zeros_like(t) if period is None else np.floor(np.abs(t) / period)
    return k, (t if period is None else np.copysign(np.abs(t) - k * period, t))


def phi_of_t(params: AnsatzParams, t):
    """Phase phi(t) = phi0 + c1 t - 2 q * integral of z over [0, t], for
    scalar or array t.

    The integral is a composite Gauss-Legendre rule with panel edges at the
    multiples of PHASE_PANEL, so its error, at round-off, is continuous in
    t.  z has the real period 2w of its lattice (none: k = 0), so with
    |t| = k 2w + r, 0 <= r < 2w, it is k I + (integral over [0, +-r]), I
    the integral over one period, read by the same ``_z_integrals`` call
    as the remainders, +-2w appended to them.  Both sum the same whole
    panels, so phi is continuous as r reaches 2w, as the envelope's FD time
    stencil needs, and each t's partial panel is a batch row of its own,
    with the halving depth it has alone: its phase has the same bits in any
    array."""
    ta = np.asarray(t, dtype=float)
    ts, curve, sigma = ta.ravel(), z_curve(params), params.sigma_z
    period = real_period(curve.invariants)
    k, rests = _split_periods(period, ts)
    far = k > 0
    sides, side = np.unique(np.copysign(1.0, ts[far]), return_inverse=True)
    ends = [s * period for s in sides]
    integral = _checked(_z_integrals(curve, params.z0, np.concatenate((rests, ends)))[sigma])
    integral, periods = integral[:ts.size], integral[ts.size:]
    integral[far] += k[far] * periods[side]
    phi = params.phi0 + params.c1 * ts - 2.0 * params.q * integral
    return float(phi[0]) if ta.ndim == 0 else phi.reshape(ta.shape)


def _state_scalars(params: AnsatzParams, z: float, zt: float, t: float, lattice):
    """R^(k)(Q0) at one time's state, raising where z is not real or R(Q0) < 0."""
    _require_real_z(z, t)
    return _scalars(_q_curve_from_state(params, z, zt, lattice), params.Q0)


def _orbit_states(params: AnsatzParams, ts: np.ndarray) -> dict:
    """The states at the 1-d times ts on both orbits, sigma_z = +1 and -1,
    from one complex-step closed-form call (``_z_stepped``), as arrays per
    orbit: z, z_t, sqrt z, the profile curves as one stack and their scalars
    R^(k)(Q0) as (5, n) rows, with per time None or the error that the scalar
    code raises at a failed time alone, where z is not real or R(Q0) < 0.
    A failed time holds the state z = 1, z_t = 0, and nan sqrt z and scalars."""
    ys, lattice = _z_stepped(params, ts, (1, -1)), profile_lattice(params)

    def orbit(y):
        z, zt = y.real, y.imag / P_STEP
        ok = (z > 0.0) & (z < math.inf)
        zs, zts = np.where(ok, z, 1.0), np.where(ok, zt, 0.0)
        curve = _q_curve_from_state(params, zs, zts, lattice)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, as Python's floats read it
            r = np.array(eval_with_derivatives(curve, params.Q0))
        ok &= ~(r[0] < 0.0)
        errors = [None] * len(ts)
        for i in np.flatnonzero(~ok):
            errors[i] = _or_error(_state_scalars, params, z[i], zt[i], ts[i], lattice)
        return types.SimpleNamespace(z=zs, zt=zts, sqrt_z=np.where(ok, np.sqrt(zs), np.nan),
                                     curve=curve, scalars=np.where(ok, r, np.nan), errors=errors)

    return {sigma: orbit(y) for sigma, y in zip((1, -1), ys)}


def q_curve(params: AnsatzParams, t: float) -> QuarticCurve:
    """Quartic curve solved by Q(., t):
    (-q/2, 0, (c1 - 3 q z)/6, z_t/(4 sqrt(z)), 2 c2 + (3/2) q z^2 - c1 z)."""
    return _q_curve_from_state(params, *z_with_rate(params, t))


def Q_of_xt(params: AnsatzParams, x, t: float):
    """Profile Q(x, t) for scalar or array x; Q(0, t) = Q0 exactly."""
    return weierstrass_solution(q_curve(params, t), params.Q0, params.sigma_Q, x)


def field_A(params: AnsatzParams, x, t: float):
    """Complex envelope A(x, t) = (Q + i sqrt(z)) e^{i phi} at scalar t."""
    phase = complex(np.exp(1j * phi_of_t(params, t)))
    z, zt = z_with_rate(params, t)
    Q = weierstrass_solution(_q_curve_from_state(params, z, zt), params.Q0, params.sigma_Q, x)
    return (Q + 1j * math.sqrt(z)) * phase
