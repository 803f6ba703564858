"""Constructed objects of the trial reduction.

From a parameter record this module builds the squared imaginary part z(t),
the profile Q(x, t), the phase phi(t), and the complex envelope

    A(x, t) = (Q(x, t) + i sqrt(z(t))) e^{i phi(t)}.

z solves a fixed quartic ODE in t; for each time the profile Q solves a
second quartic ODE in x whose coefficients depend on z(t) and its rate.
The dispersion coefficient is fixed to 1 throughout this construction.
The envelope as a sampler (x, t) -> A, the form the residual stencils and
the spectral cross-check take, is ``partial(field_A, params)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import NegativeRadicand, PoleProximity, RealityViolation
from .elliptic import real_period
from .quartic import (
    QuarticCurve,
    eval_with_derivatives,
    invariants_from_coefficients,
    weierstrass_solution,
)

# Branch label -> (sigma_z, sigma_Q).  The slope sign pair is part of the
# parameter record; these labels are the short names used by reports.
BRANCHES = {"pp": (1, 1), "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)}


@dataclass(frozen=True)
class AnsatzParams:
    """Parameters of the construction.

    q is the nonlinearity coefficient; c1, c2, c3 are the integration
    constants of the reduced system; z0 = z(0) > 0 and Q0 = Q(0, t) are the
    initial levels; sigma_z and sigma_Q select the initial slope signs of
    the two quartic solutions.
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
        r10 = eval_with_derivatives(z_curve(self), self.z0)[0]
        if r10 < 0.0:
            raise NegativeRadicand(
                f"R1(z0) = {r10:g} < 0: z(t) has no real initial slope"
            )


def with_branch(params: AnsatzParams, sigma_z: int, sigma_Q: int) -> AnsatzParams:
    """Copy of params with the slope signs replaced."""
    return replace(params, sigma_z=sigma_z, sigma_Q=sigma_Q)


def z_curve(params: AnsatzParams) -> QuarticCurve:
    """Quartic curve solved by z(t):
    (alpha, beta, gamma, delta, epsilon) = (-16 q^2, 4 q c1, -(2/3)(c1^2 + 4 q c2), c3, 0)."""
    k = params.c1 ** 2 + 4.0 * params.q * params.c2
    return QuarticCurve(
        alpha=-16.0 * params.q ** 2,
        beta=4.0 * params.q * params.c1,
        gamma=-(2.0 / 3.0) * k,
        delta=params.c3,
        epsilon=0.0,
    )


# The default experiment: the parameter set every command falls back to.
REFERENCE_PARAMS = AnsatzParams(q=-1.0, c1=-2.0, c2=0.4, c3=0.13, z0=1.0, Q0=1.0)

# Phase quadrature: Gauss-Legendre nodes per panel, and the panel width.
PHASE_NODES = 16
PHASE_PANEL = 0.25
_GL_X, _GL_W = np.polynomial.legendre.leggauss(PHASE_NODES)

# Complex step h of every derivative of a closed form, Im y(xi + ih) / h: with
# no difference to cancel, h sits far below round-off and O(h^2) vanishes.
P_STEP = 1e-30


def _require_real_z(z, t) -> None:
    za = np.atleast_1d(np.asarray(z, dtype=float))
    ta = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=float)), za.shape)
    if not np.all(np.isfinite(za)):
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


def z_with_rate(params: AnsatzParams, t):
    """(z(t), z_t(t)) for scalar or array t.

    One complex-step evaluation of the closed form at t + ih, h = P_STEP:
    z is its real part and the rate Im z(t + ih) / h, exact to round-off.
    The rate carries the sign of sigma_z sqrt(R1(z)) continued through
    turning points without any crossing bookkeeping.
    """
    y = weierstrass_solution(
        z_curve(params), params.z0, params.sigma_z, np.asarray(t, dtype=float) + 1j * P_STEP
    )
    _require_real_z(y.real, t)
    return y.real, y.imag / P_STEP


def _q_curve_from_state(params: AnsatzParams, z: float, zt: float) -> QuarticCurve:
    if np.real(z) <= 0.0:
        raise RealityViolation(f"z = {z:g} <= 0: profile curve needs sqrt(z)")
    rz = np.sqrt(z)
    return QuarticCurve(
        alpha=-0.5 * params.q,
        beta=0.0,
        gamma=(params.c1 - 3.0 * params.q * z) / 6.0,
        delta=zt / (4.0 * rz),
        epsilon=2.0 * params.c2 + 1.5 * params.q * z * z - params.c1 * z,
    )


def _z_integral(params: AnsatzParams, t: float) -> float:
    """Integral of z over [0, t] by a composite Gauss-Legendre rule with all
    nodes in one orbit batch.  Panel edges sit at the fixed multiples of
    PHASE_PANEL (the last panel partial), so the error, at round-off here,
    is continuous in t."""
    edges = math.copysign(1.0, t) * np.append(np.arange(0.0, abs(t), PHASE_PANEL), abs(t))
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + half * (1.0 + _GL_X)).ravel()
    z = weierstrass_solution(z_curve(params), params.z0, params.sigma_z, nodes)
    _require_real_z(z, nodes)
    return float(np.sum(half * _GL_W * z.reshape(half.shape[0], PHASE_NODES)))


def _z_period(params: AnsatzParams):
    """Real period 2w of the z-curve lattice, or None where it has none."""
    return real_period(invariants_from_coefficients(z_curve(params)))


def _split_periods(params: AnsatzParams, t: float):
    """(k, r) with |t| = k 2w + |r| and r of the sign of t: the whole real
    periods of the orbit in t, k = floor(|t| / 2w), and the remainder.
    Below one period, and for a lattice without a real period, (0, t)."""
    period = _z_period(params)
    k = 0 if period is None else math.floor(abs(t) / period)
    return k, (math.copysign(abs(t) - k * period, t) if k else t)


@lru_cache(maxsize=64)
def _period_integral(params: AnsatzParams, sign: float) -> float:
    """Integral of z over one real period, [0, sign 2w]."""
    return _z_integral(params, sign * _z_period(params))


def phi_of_t(params: AnsatzParams, t: float) -> float:
    """Phase phi(t) = phi0 + c1 t - 2 q * integral of z over [0, t].

    z is periodic with the real period 2w of its lattice, so with
    |t| = k 2w + r, 0 <= r < 2w, the integral is k I + (integral over
    [0, +-r]), where I, the integral over one period in the direction of
    t, is computed once per parameter set.  Both integrals use the same
    fixed panels (see ``_z_integral``), so phi is continuous as r reaches
    2w, as the FD time stencil of the envelope needs, and the work is at
    most one period's panels whatever |t|.  Below one period, and for a
    lattice without a real period, it is the plain integral over [0, t]."""
    t = float(t)
    k, rest = _split_periods(params, t)
    integral = _z_integral(params, rest)
    if k:
        integral += k * _period_integral(params, math.copysign(1.0, t))
    return params.phi0 + params.c1 * t - 2.0 * params.q * integral


@dataclass(frozen=True)
class TimeState:
    """State of the construction at one time t.  The phase factor is built
    on first use: its quadrature, up to one period's panels, is the largest
    cost of the state and only the envelope reads it."""

    params: AnsatzParams
    t: float
    z: float
    zt: float
    curve: QuarticCurve  # the quartic solved by Q(., t)
    sqrt_z: float

    @cached_property
    def phase(self) -> complex:
        """e^{i phi(t)}."""
        return complex(np.exp(1j * phi_of_t(self.params, self.t)))


@lru_cache(maxsize=1024)
def time_state(params: AnsatzParams, t: float) -> TimeState:
    """The per-time state at scalar t, memoised for the stencils and scans that
    revisit the same times; params and state are frozen, so sharing is safe.
    A scan point holds 5 times live per branch (its centre and the 4 times
    of the envelope's time stencil), so any bound of 20 or more serves a scan,
    which visits a time's x row once for all four branches."""
    t = float(t)
    z, zt = map(float, z_with_rate(params, t))
    return TimeState(params, t, z, zt, _q_curve_from_state(params, z, zt), math.sqrt(z))


def q_curve(params: AnsatzParams, t: float) -> QuarticCurve:
    """Quartic curve solved by Q(., t):
    (-q/2, 0, (c1 - 3 q z)/6, z_t/(4 sqrt(z)), 2 c2 + (3/2) q z^2 - c1 z)."""
    return time_state(params, t).curve


def Q_of_xt(params: AnsatzParams, x, t: float):
    """Profile Q(x, t) for scalar or array x; Q(0, t) = Q0 exactly."""
    return weierstrass_solution(q_curve(params, t), params.Q0, params.sigma_Q, x)


def field_A(params: AnsatzParams, x, t: float):
    """Complex envelope A(x, t) = (Q + i sqrt(z)) e^{i phi} at scalar t."""
    st = time_state(params, t)
    Q = weierstrass_solution(st.curve, params.Q0, params.sigma_Q, x)
    return (Q + 1j * st.sqrt_z) * st.phase
