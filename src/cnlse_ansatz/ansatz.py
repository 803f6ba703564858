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
from dataclasses import dataclass, field, replace
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

# Phase quadrature: Gauss-Legendre nodes per panel, the panel width, and
# the panels per chunk of the phase's table of whole panels.
PHASE_NODES = 16
PHASE_PANEL = 0.25
PHASE_CHUNK = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(PHASE_NODES)

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


def _panel_values(params: AnsatzParams, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Weighted Gauss-Legendre node values of z on the panels [lo, hi], for
    lo and hi of shape (rows, panels), all in one orbit batch whose rows
    each share one halving depth: their sum is the integral."""
    half = 0.5 * (hi - lo)[..., None]
    nodes = lo[..., None] + half * (1.0 + _GL_X)
    rows = nodes.reshape(len(lo), lo.shape[1] * PHASE_NODES)
    z = weierstrass_solution(z_curve(params), params.z0, params.sigma_z, rows).reshape(nodes.shape)
    _require_real_z(z, nodes)
    return half * _GL_W * z


@lru_cache(maxsize=256)
def _panel_chunk(params: AnsatzParams, sign: float, m: int) -> np.ndarray:
    """Node values of the whole panels m PHASE_CHUNK .. (m + 1) PHASE_CHUNK
    - 1 in the direction sign, in one batch.  The chunks are the table the
    phase reads, so its bits do not depend on which times came first."""
    edges = sign * PHASE_PANEL * np.arange(m * PHASE_CHUNK, (m + 1) * PHASE_CHUNK + 1)
    return _panel_values(params, edges[None, :-1], edges[None, 1:]).ravel()


def _z_integrals(params: AnsatzParams, ts: np.ndarray) -> np.ndarray:
    """Integral of z over [0, t] for each t of ts by a composite
    Gauss-Legendre rule with panel edges at the multiples of PHASE_PANEL, so
    its error, at round-off here, is continuous in t: the table's whole
    panels and one partial panel per t.  The partial panels are one batch,
    a row each, so each keeps the halving depth it has alone."""
    sign = np.copysign(1.0, ts)
    whole = np.floor(np.abs(ts) / PHASE_PANEL).astype(int)
    edge = sign * whole * PHASE_PANEL
    partial = ts != edge
    rest = iter(_panel_values(params, edge[partial, None], ts[partial, None]))
    out = np.empty(ts.shape)
    for i, (s, j) in enumerate(zip(sign, whole)):
        chunks = [_panel_chunk(params, s, m) for m in range(-(-j // PHASE_CHUNK))]
        values = np.concatenate(chunks + [np.empty(0)])[:j * PHASE_NODES]
        if partial[i]:
            values = np.concatenate((values, next(rest).ravel()))
        out[i] = np.sum(values)
    return out


def _split_periods(curve: QuarticCurve, t: float):
    """(k, r) with |t| = k 2w + |r|, r of the sign of t and 2w the real period
    of the curve's lattice: k = floor(|t| / 2w) and the remainder.  Below
    one period, and for a lattice without a real period, (0, t)."""
    period = real_period(invariants_from_coefficients(curve))
    k = 0 if period is None else math.floor(abs(t) / period)
    return k, (math.copysign(abs(t) - k * period, t) if k else t)


@lru_cache(maxsize=64)
def _period_integral(params: AnsatzParams, sign: float) -> float:
    """Integral of z over one real period, [0, sign 2w]."""
    period = real_period(invariants_from_coefficients(z_curve(params)))
    return float(_z_integrals(params, np.array([sign * period]))[0])


def phi_of_t(params: AnsatzParams, t):
    """Phase phi(t) = phi0 + c1 t - 2 q * integral of z over [0, t], for
    scalar or array t.

    z is periodic with the real period 2w of its lattice, so with
    |t| = k 2w + r, 0 <= r < 2w, the integral is k I + (integral over
    [0, +-r]), where I, the integral over one period in the direction of
    t, is computed once per parameter set.  Both integrals read the same
    table of whole panels (see ``_z_integrals``), so phi is continuous as
    r reaches 2w, as the FD time stencil of the envelope needs, and a new
    t costs one partial panel.  The partial panels of all the times are one
    orbit batch, in which each time keeps the halving depth it has alone,
    so a time's phase has the same bits in any array.  Below one period,
    and for a lattice without a real period, it is the plain integral over
    [0, t]."""
    ta = np.asarray(t, dtype=float)
    ts = ta.ravel()
    curve = z_curve(params)
    splits = [_split_periods(curve, float(s)) for s in ts]
    integral = _z_integrals(params, np.array([r for _, r in splits]))
    for i, (k, _) in enumerate(splits):
        if k:
            integral[i] += k * _period_integral(params, math.copysign(1.0, ts[i]))
    phi = params.phi0 + params.c1 * ts - 2.0 * params.q * integral
    return float(phi[0]) if ta.ndim == 0 else phi.reshape(ta.shape)


class _PhaseBatch:
    """The phase factors of the times of one state batch, from one
    ``phi_of_t`` call on first use: a state that only P, r1 or r2 read
    never pays for its phase."""

    def __init__(self, params: AnsatzParams, ts: tuple):
        self.params = params
        self.ts = ts

    @cached_property
    def factors(self) -> list:
        return [complex(f) for f in np.exp(1j * phi_of_t(self.params, np.array(self.ts)))]


@dataclass(frozen=True)
class TimeState:
    """State of the construction at one time t.  The phase factor is built
    on first use, for every time of the batch that built the state at once:
    only the envelope reads it."""

    t: float
    z: float
    zt: float
    curve: QuarticCurve  # the quartic solved by Q(., t)
    sqrt_z: float
    phases: _PhaseBatch = field(repr=False, compare=False)
    index: int = field(repr=False, compare=False)

    @property
    def phase(self) -> complex:
        """e^{i phi(t)}."""
        return self.phases.factors[self.index]


@lru_cache(maxsize=64)
def _orbit_params(params: AnsatzParams) -> AnsatzParams:
    # the orbit, the phase and the profile curve do not read sigma_Q, so the
    # two sigma_Q branches of a sigma_z share their per-time states
    return with_branch(params, params.sigma_z, 1)


# Per-time states by (params with sigma_Q = +1, t), filled a batch at a time.
# A scan row holds 5 times per sigma_z (its centre and the 4 times of the
# envelope's time stencil); when a batch would pass STATES_MAX the memo is
# emptied, since a scan does not return to a time row it has finished.
STATES_MAX = 1024
_STATES: dict = {}


def time_states(params: AnsatzParams, ts) -> list:
    """The per-time states at the times ts (scalar or array), as a list.

    The times without a memoised state are one batch: their orbit states
    (z, z_t) come from one ``z_with_rate`` call, in which each time keeps
    the halving depth it has alone, and their phases from one ``phi_of_t``
    call on first use.  So a state has the same bits whichever batch built
    it, and ``time_state`` is the batch of one.  params and states are
    frozen, so sharing them is safe."""
    params = _orbit_params(params)
    ts = [float(t) for t in np.ravel(ts)]
    found = {t: _STATES.get((params, t)) for t in ts}
    new = tuple(t for t, st in found.items() if st is None)
    if new:
        z, zt = z_with_rate(params, np.array(new)[:, None])
        phases = _PhaseBatch(params, new)
        if len(_STATES) + len(new) > STATES_MAX:
            _STATES.clear()
        for i, t in enumerate(new):
            zi, zti = float(z[i, 0]), float(zt[i, 0])
            found[t] = _STATES[params, t] = TimeState(
                t, zi, zti, _q_curve_from_state(params, zi, zti), math.sqrt(zi), phases, i
            )
    return [found[t] for t in ts]


def time_state(params: AnsatzParams, t: float) -> TimeState:
    """The per-time state at scalar t: the batch of one of ``time_states``,
    memoised with it for the stencils and scans that revisit the same times."""
    return time_states(params, t)[0]


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
