"""Residual operators.

Three layers of checking live here:

* algebraic residuals r1, r2 confirming that the constructed z and Q solve
  their quartic ODEs (these must vanish to round-off by construction),
* the inconsistency functional P, the left side of the remaining first
  order equation the construction does not enforce,
* a full finite-difference residual of the dispersive equation itself,
  validated against an exact soliton before it is trusted on the ansatz.

The Q_t of P is a complex-step derivative, exact to round-off, along the
orbit ODE.  Every other derivative comes from one central Richardson
stencil, at the origin too, so r1, r2 and the PDE residual stay checks
independent of the closed forms; a stencil is one batch, so the elliptic
argument reduction uses one depth across it.

``row_reports`` gathers P, r1, r2 and the PDE residual at every x of a
time row on one orbit, for a tuple of profile slope signs: the command
line's one report path, from which ``scan``, ``residuals``, ``pde`` and
``paper-check`` read every number.  The four quantities read the time row
(``_TimeRow``) that the caller builds once per t and passes to every point
and branch at t; it holds what depends on (t, orbit) only, and its PDE
stencil samples the envelope up to a constant phase, so reads no phase.
The profile lattice does not move with t, and each row of a wp argument
has its own halving depth: per row and orbit, one wp call serves P and the
PDE's time nodes at every x, and one the x stencils, each with its own bits.
Every number of a row is then a (sign, x) array, and its notes come from
masks; no x is evaluated alone.  Both calls read x reduced by the real
period wp folds by, so no argument folds onto the pole; an error either
raises anyway is every x's.  The arrays keep the bits of Python's scalar
arithmetic, which numpy moves in four places: a complex product is taken
by parts (numpy fuses a multiply and an add), the time differences divide
real and imaginary parts as floats (numpy's complex / float multiplies by
a reciprocal), |A| is hypot (numpy's complex abs rounds otherwise) and a
square is ``np.float_power``, the C pow of Python's ``**`` (``np.square``
rounds the product).  ``reports_at`` is the one-x case, and ``report_at``
the one-sign case on a row of its own, as each of ``residual_P``,
``residual_R1`` and ``residual_R2`` builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ansatz import (
    P_STEP,
    AnsatzParams,
    _checked,
    _or_error,
    _orbit_states,
    _panel_values,
    _q_curve_from_state,
    _split_periods,
    time_state,
    z_curve,
)
from .elliptic import EllipticInvariants
from .errors import (
    DegenerateResiduals,
    NegativeRadicand,
    PoleProximity,
    RealityViolation,
    StencilOutOfDomain,
)
from .quartic import _closed_form_parts, _rational_part, _scalars, eval_with_derivatives
from .quartic import invariants_from_coefficients, weierstrass_solution

# Internal steps for the by-construction residuals r1 and r2.  These are
# larger than DiffConfig defaults on purpose: the quantity differentiated is
# known analytically smooth, and at 1e-8 residual targets the limiting error
# is function-evaluation round-off divided by h, not truncation.
R1_TIME_STEP = 5e-4
R2_SPACE_STEP = 1e-3

# |Q| beyond this marks a grid point as sitting next to a profile pole.
POLE_ADJACENT_Q = 15.0


@dataclass(frozen=True)
class DiffConfig:
    """Finite difference controls of the PDE residual: steps and Richardson depth."""

    h_t: float = 1e-5
    h_x: float = 1e-4
    richardson_levels: int = 2

    def __post_init__(self) -> None:
        if not (self.h_t > 0.0 and self.h_x > 0.0):
            raise ValueError("difference steps must be positive")
        if not 1 <= int(self.richardson_levels) <= 4:
            raise ValueError("richardson_levels must be between 1 and 4")


@dataclass(frozen=True)
class ResidualReport:
    """One evaluation point: residuals, branch signs, and flags."""

    x: float
    t: float
    sigma_z: int
    sigma_q: int
    P: float
    r1: float
    r2: float
    pde_abs: float
    notes: str = ""

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def _extrapolate(estimates) -> float:
    """Collapse a list of difference estimates at steps h, h/2, ... by
    Richardson extrapolation of the even error series h^2, h^4, ..."""
    est = list(estimates)
    m = 1
    while len(est) > 1:
        w = 4.0 ** m
        est = [(w * est[i + 1] - est[i]) / (w - 1.0) for i in range(len(est) - 1)]
        m += 1
    return est[0]


def _stencil_offsets(h: float, levels: int = 2) -> np.ndarray:
    """Nodes of the central stencil: 0, then -h/2^m and +h/2^m for m < levels."""
    return np.array([0.0] + [s * h / 2.0 ** m for m in range(levels) for s in (-1.0, 1.0)])


def _central_differences(vals, h: float):
    """Richardson-extrapolated central first and second differences from the
    values on ``_stencil_offsets(h, levels)`` along the last axis of the
    array vals, in that order."""
    first, second = [], []
    for m in range((vals.shape[-1] - 1) // 2):
        hm = h / 2.0 ** m
        left, right = vals[..., 1 + 2 * m], vals[..., 2 + 2 * m]
        first.append((right - left) / (2.0 * hm))
        second.append((left - 2.0 * vals[..., 0] + right) / hm ** 2)
    return _extrapolate(first), _extrapolate(second)


class _TimeRow:
    """The time row at t that the four slope branches of a parameter set
    share, whichever signs params carries: both orbits' states at the PDE's
    time nodes r + offsets, r = t reduced by whole periods 2w of z (r = t
    below 2w), from one orbit call, and on first use r1 at r and the nodes'
    gauges and profile scalars.  z is periodic, so every residual at t reads
    the state at r.  A caller builds one row per t for every point at t."""

    def __init__(self, params: AnsatzParams, t: float):
        cfg = DiffConfig()
        self.params, self.t = params, float(t)
        self.curve = z_curve(params)
        self.r = _split_periods(self.curve, self.t)[1]
        self.ts = self.r + _stencil_offsets(cfg.h_t, cfg.richardson_levels)
        self.states = _orbit_states(self.params, self.ts)

    @cached_property
    def gauges(self) -> dict:
        """e^{i(phi(s) - phi(r))} per orbit at the four nodes s other than r,
        or its error; phi(s) - phi(r) = c1 (s - r) - 2 q * (z over [r, s])."""
        p, s = self.params, self.ts[1:]
        panels = _panel_values(self.curve, p.z0, np.full((s.size, 1), self.r), s[:, None])

        def factors(v):
            return np.exp(1j * (p.c1 * (s - self.r) - 2.0 * p.q * np.sum(v, axis=(1, 2))))

        return {sigma: v if isinstance(v, Exception) else factors(v)
                for sigma, v in panels.items()}

    @cached_property
    def r1(self) -> dict:
        defects = _ode_defect(self.curve, self.params.z0, (1, -1), self.r, R1_TIME_STEP)
        return dict(zip((1, -1), defects))

    @cached_property
    def profile(self) -> dict:
        """Per orbit, the scalars R^(k)(Q0) of the profile curve at r with
        those of it stepped along the orbit, z + ih z_t and z_t + ih z_tt
        (h = P_STEP), which carry P's Q_t; and the other time nodes' as (4, 1)
        columns.  Each, or the error computing it raised, in its place."""
        def centre(st):
            st, h, p = _checked(st), 1j * P_STEP, self.params
            ztt = 0.5 * eval_with_derivatives(self.curve, st.z)[1]
            curve = _q_curve_from_state(p, st.z + h * st.zt, st.zt + h * ztt)
            return _scalars(st.curve, p.Q0), eval_with_derivatives(curve, p.Q0)

        def nodes(states):
            r = [_scalars(_checked(st).curve, self.params.Q0) for st in states]
            return tuple(c[:, None] for c in np.array(r).T)

        return {sigma: (_or_error(centre, states[0]), _or_error(nodes, states[1:]))
                for sigma, states in self.states.items()}

    def pde(self, params: AnsatzParams, xq, node_qs) -> tuple:
        """The default-step |PDE residual| (p = 1) at r and each x per slope
        sign, of B(x, s) = (Q + i sqrt(z)) e^{i(phi(s) - phi(r))} on the
        orbit params.sigma_z, which is A(x, t + s - r) e^{-i phi(t)}, from Q
        on the x stencils (``xq``, (signs, nx, 5)) and at the four other time
        nodes (``node_qs``, (signs, 4, nx)), with the mask of the stencils
        that are finite; an error of the gauges or of the nodes' scalars
        (``node_qs``) fails every stencil."""
        states, gauges = self.states[params.sigma_z], self.gauges[params.sigma_z]
        if isinstance(gauges, Exception) or isinstance(node_qs, Exception):
            return np.full(xq.shape[:-1], np.nan), np.zeros(xq.shape[:-1], dtype=bool)
        g, sz = gauges[:, None], np.array([st.sqrt_z for st in states[1:]])[:, None]
        # (Q + i sqrt z) g by parts, as Python's complex product rounds it:
        # numpy's fuses a multiply and an add and moves the last bit
        nodes = (node_qs * g.real - sz * g.imag) + 1j * (node_qs * g.imag + sz * g.real)
        xv = xq + 1j * states[0].sqrt_z
        tv = np.concatenate((xv[..., :1], np.swapaxes(nodes, -1, -2)), axis=-1)
        res, ok = _stencil_residuals(xv, tv, DiffConfig(), 1.0, params.q)
        return np.where(ok, np.hypot(res.real, res.imag), np.nan), ok


def _row_points(row: _TimeRow, params: AnsatzParams, xs, sigmas: tuple) -> tuple:
    """xs reduced by whole real periods of the profile lattice, which does
    not move with t; per profile slope sign of sigmas, on the orbit
    params.sigma_z at the time row's r, P (``residual_P``) and Q at them as
    (signs, nx) arrays; and Q at the PDE's four other time nodes as (signs,
    4, nx), or the error of those nodes' scalars.  The wp part of every x
    is one (nx, 1) call: each x is a row of its own halving depth, so it
    has the bits it has alone."""
    p = params
    st = _checked(row.states[p.sigma_z][0])
    xr = np.array([_split_periods(st.curve, x)[1] for x in xs])
    (r, stepped), nodes = _checked(row.profile[p.sigma_z][0]), row.profile[p.sigma_z][1]
    at = _closed_form_parts(st.curve, xr[:, None])
    q, qt = (np.array(_rational_part(c, p.Q0, sigmas, *at))[..., 0] for c in (r, stepped))
    with np.errstate(invalid="ignore", over="ignore"):  # at a pole; the caller notes it
        # the C pow of Python's q ** 2: np.square rounds the product, which
        # differs for about one q in a thousand
        P = qt.imag / P_STEP - st.sqrt_z * (p.c1 - p.q * (3.0 * st.z + np.float_power(q, 2)))
    if not isinstance(nodes, Exception):  # a (4, 1) node column against a (1, nx) row
        nodes = np.array(_rational_part(nodes, p.Q0, sigmas, *(a if a is None else a.T for a in at)))
    return xr, P, q, nodes


def _row_stencils(row: _TimeRow, params: AnsatzParams, xr, sigmas: tuple) -> tuple:
    """Per profile slope sign of sigmas and reduced x of xr, r2
    (``residual_R2``) at the time row's r as a (signs, nx) array and Q on
    the PDE's x stencil as (signs, nx, 5), from one wp call: r2's stencil
    and the PDE's of every x are the rows of an (nx, 2, 5) argument, each
    with the bits it has alone.  See ``_row_points``."""
    cfg, st = DiffConfig(), _checked(row.states[params.sigma_z][0])
    r = _checked(row.profile[params.sigma_z][0])[0]
    stencils = xr[:, None, None] + np.array(
        [_stencil_offsets(R2_SPACE_STEP), _stencil_offsets(cfg.h_x, cfg.richardson_levels)])
    ys = np.array(_rational_part(r, params.Q0, sigmas, *_closed_form_parts(st.curve, stencils)))
    with np.errstate(invalid="ignore", over="ignore"):  # at a pole; the caller notes it
        return _defect(st.curve, ys[..., 0, :], R2_SPACE_STEP), ys[..., 1, :]


def residual_P(params: AnsatzParams, x: float, t: float) -> float:
    """Inconsistency functional

        P(x, t) = Q_t(x, t) - sqrt(z) (c1 - q (3 z + Q^2)).

    Q_t is the complex-step derivative Im Q(x, t + ih) / h, h = P_STEP.  Q
    reads t only through the orbit state, so the step is taken there,
    z + ih z_t and z_t + ih R1'(z)/2 (z_tt from (z_t)^2 = R1(z)), and flows
    through the profile curve's scalars R^(k)(Q0).  Q_t is exact to
    round-off at every t and x, next to the orbit's lattice points, t = 0
    and x = 0 included (Q(0, .) = Q0 gives Q_t = 0 exactly).  z has the real
    period 2w, so the state is read at the time row's r, t reduced by whole
    periods, as r1 and the PDE stencil read it; the profile lattice does not
    move with t, so x is first reduced by its whole real periods, as
    ``residual_R2`` reduces it.  The one-x case of ``_row_points``."""
    return _row_points(_TimeRow(params, t), params, (float(x),), (params.sigma_Q,))[1].item()


def _defect(curve, y, h: float):
    """Relative defect |(dy/dxi)^2 - R(y)| / max(1, |R(y)|) of the values y
    of a solution of the curve on the central stencil of step h, along the
    last axis."""
    slope, _ = _central_differences(y, h)
    r = eval_with_derivatives(curve, y[..., 0])[0]
    return np.abs(slope * slope - r) / np.maximum(1.0, np.abs(r))


def _ode_defect(curve, y0: float, signs: tuple, xi: float, h: float) -> tuple:
    """``_defect`` of the closed form at xi per sign of signs, with dy/dxi
    and y from one batch on the central stencil."""
    ys = weierstrass_solution(curve, y0, signs, float(xi) + _stencil_offsets(h))
    return tuple(_defect(curve, np.array(ys), h).tolist())


def residual_R1(params: AnsatzParams, t: float) -> float:
    """Relative defect |(dz/dt)^2 - R1(z)| / max(1, |R1(z)|) with a finite
    difference dz/dt.  Zero to discretization error by construction.  t is
    first reduced by whole real periods 2w of z (|t| < 2w is not), to the
    time row's r: a stencil of the fixed step R1_TIME_STEP around a large t
    would read the spacing of floats near t."""
    return _TimeRow(params, t).r1[params.sigma_z]


def residual_R2(params: AnsatzParams, x: float, t: float) -> float:
    """Relative defect |(dQ/dx)^2 - R2(Q)| / max(1, |R2(Q)|) at the time
    row's r, with x reduced by whole real periods of the profile lattice as
    ``residual_R1`` reduces t."""
    row = _TimeRow(params, t)
    st = _checked(row.states[params.sigma_z][0])
    xr = _split_periods(st.curve, float(x))[1]
    return _row_stencils(row, params, np.array([xr]), (params.sigma_Q,))[0].item()


def closed_form_invariants_z(params: AnsatzParams) -> EllipticInvariants:
    """Invariants of the z-curve by the printed closed forms
    g2 = (4/3) K^2 - 16 q c1 c3 and
    g3 = (8/27)(54 q^2 c3^2 - 18 q c1 c3 K + K^3), K = c1^2 + 4 q c2."""
    q, c1, c2, c3 = params.q, params.c1, params.c2, params.c3
    k = c1 * c1 + 4.0 * q * c2
    g2 = (4.0 / 3.0) * k * k - 16.0 * q * c1 * c3
    g3 = (8.0 / 27.0) * (54.0 * q * q * c3 * c3 - 18.0 * q * c1 * c3 * k + k ** 3)
    return EllipticInvariants(g2, g3)


def closed_form_invariants_q(params: AnsatzParams, z: float, zt: float) -> EllipticInvariants:
    """Invariants of the profile curve by the printed closed forms,
    including the q z_t^2 / (32 z) term of g3."""
    q, c1, c2 = params.q, params.c1, params.c2
    g2 = c1 * c1 / 12.0 - q * c2
    g3 = -(c1 - 3.0 * q * z) / 216.0 * (
        c1 * c1 - 24.0 * q * c1 * z + 36.0 * q * q * z * z + 36.0 * q * c2
    ) + q * zt * zt / (32.0 * z)
    return EllipticInvariants(g2, g3)


def _rel_dev(a: float, b: float) -> float:
    # guarded relative metric: exact for equal values, safe at zero
    return abs(a - b) / max(1.0, abs(a), abs(b))


def invariant_crosscheck(params: AnsatzParams, t: float):
    """Max relative deviation between classical invariants of the
    coefficient lists and the closed forms, for the z-curve pair and the
    profile-curve pair at time t."""
    st = time_state(params, t)
    cz = invariants_from_coefficients(z_curve(params))
    ez = closed_form_invariants_z(params)
    dev_z = max(_rel_dev(cz.g2, ez.g2), _rel_dev(cz.g3, ez.g3))
    cq = invariants_from_coefficients(st.curve)
    eq = closed_form_invariants_q(params, st.z, st.zt)
    dev_q = max(_rel_dev(cq.g2, eq.g2), _rel_dev(cq.g3, eq.g3))
    return dev_z, dev_q


class SolitonSampler:
    """Exact envelope a sech(a x) e^{i a^2 t}, a solution for p=1, q=2."""

    def __init__(self, a: float):
        if not a > 0.0:
            raise ValueError("soliton parameter a must be positive")
        self.a = float(a)

    def __call__(self, x, t):
        xa = np.asarray(x, dtype=float)
        out = self.a / np.cosh(self.a * xa) * np.exp(1j * self.a ** 2 * float(t))
        return complex(out) if xa.ndim == 0 else out


def soliton_field(a: float) -> SolitonSampler:
    """Sampler of the exact soliton; the truth oracle for cnlse_residual."""
    return SolitonSampler(a)


def _stencil_residuals(xv, tv, cfg: DiffConfig, p: float, q: float) -> tuple:
    """Finite-difference residuals i A_t + p A_xx + q A |A|^2 along the last
    axis, from the values on the x stencil x + _stencil_offsets(cfg.h_x)
    (xv) and on the time stencil t + _stencil_offsets(cfg.h_t) (tv), with
    the mask of the stencils whose values are all finite: elsewhere the
    residual means nothing.  Each step rounds as Python's complex scalars
    do: the time differences divide the real and imaginary parts as floats
    (numpy's complex / float multiplies by a reciprocal), |A| is hypot
    (numpy's complex abs rounds otherwise) and |A|^2 the C pow of Python's
    float power."""
    xv, tv = np.asarray(xv, dtype=complex), np.asarray(tv, dtype=complex)
    ok = np.isfinite(xv).all(axis=-1) & np.isfinite(tv).all(axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        _, axx = _central_differences(xv, cfg.h_x)
        (at_re, at_im), _ = _central_differences(np.stack((tv.real, tv.imag)), cfg.h_t)
        a0 = tv[..., 0]
        m = np.float_power(np.hypot(a0.real, a0.imag), 2)
        re = -at_im + p * axx.real + q * a0.real * m
        im = at_re + p * axx.imag + q * a0.imag * m
    return re + 1j * im, ok


def cnlse_residual(field, x: float, t: float, cfg: DiffConfig | None = None,
                   p: float = 1.0, q: float = 1.0) -> complex:
    """Finite-difference residual i A_t + p A_xx + q A |A|^2 of a sampler.

    The x stencil of every Richardson level is evaluated in one batched
    call; the t stencil needs one sampler call per node.  Raises
    StencilOutOfDomain when any stencil value is missing or non-finite.
    """
    cfg = cfg if cfg is not None else DiffConfig()
    x, t, lv = float(x), float(t), int(cfg.richardson_levels)
    try:
        xv = np.asarray(field(x + _stencil_offsets(cfg.h_x, lv), t), dtype=complex)
        tv = [xv[0]] + [complex(field(x, t + dt)) for dt in _stencil_offsets(cfg.h_t, lv)[1:]]
    except (PoleProximity, RealityViolation, NegativeRadicand) as exc:
        raise StencilOutOfDomain(f"field not evaluable on the stencil at ({x:g}, {t:g})") from exc
    res, ok = _stencil_residuals(xv, tv, cfg, p, q)
    if not ok:
        raise StencilOutOfDomain(f"non-finite field values on the stencil at ({x:g}, {t:g})")
    return res[()]


def convergence_order(residuals) -> float:
    """Mean log2 ratio of successive residual magnitudes taken at steps
    h, h/2, h/4, ...; the observed order of the difference scheme."""
    vals = [abs(complex(r)) for r in residuals]
    if len(vals) < 2:
        raise ValueError("need residuals at two or more steps")
    if any(v < 1e-14 for v in vals):
        raise DegenerateResiduals(
            "residuals at round-off floor; an order estimate would be noise"
        )
    ratios = [math.log2(vals[i] / vals[i + 1]) for i in range(len(vals) - 1)]
    return float(np.mean(ratios))


def row_reports(row: _TimeRow, params: AnsatzParams, xs, sigmas: tuple) -> list:
    """Full residual records at each x of xs and the time of the row, which
    the caller builds for params at that time, on the orbit params.sigma_z:
    per x, one per profile slope sign of sigmas (params.sigma_Q is not
    read), never raising on pole contact: failures are recorded in the
    notes field and the numbers set to nan.  P, r1, r2, the pole note and
    the PDE residual (``_TimeRow.pde``) all read the orbit state at the
    row's r and x reduced by whole profile periods, each as a (signs, nx)
    array: P, its pole note and the PDE's time nodes from one wp call for
    every x (``_row_points``), r2's and the PDE's x stencils from one more
    (``_row_stencils``).  An error of the row's state or scalars, or of a
    shared call, is every x's and every sign's; a failed gauge or time
    node (StencilOutOfDomain) every x's; a pole, a pole-adjacent value and
    a non-finite stencil are each x's and sign's own, through a mask."""
    xs, sz = [float(x) for x in xs], params.sigma_z
    shape = (len(sigmas), len(xs))
    try:
        xr, P, Q, node_qs = _row_points(row, params, xs, sigmas)
        r2, xq = _row_stencils(row, params, xr, sigmas)
        r1 = row.r1[sz]
    except (PoleProximity, RealityViolation, NegativeRadicand) as exc:
        P = r2 = pde = np.full(shape, np.nan)
        r1, notes = math.nan, [(type(exc).__name__, np.ones(shape, dtype=bool))]
    else:
        pde, ok = row.pde(params, xq, node_qs)
        finite_q = np.isfinite(Q)
        notes = [("pole", ~finite_q),
                 ("pole_adjacent", finite_q & (np.abs(Q) > POLE_ADJACENT_Q)),
                 ("StencilOutOfDomain", ~ok)]
    finite = np.isfinite(P) & np.isfinite(r1) & np.isfinite(r2) & np.isfinite(pde)

    def report(i, j, x):
        note = ";".join(name for name, mask in notes if mask[i, j])
        return ResidualReport(x=x, t=row.t, sigma_z=sz, sigma_q=sigmas[i], P=P[i, j].item(),
                              r1=r1, r2=r2[i, j].item(), pde_abs=pde[i, j].item(),
                              notes=note or ("" if finite[i, j] else "nonfinite"))

    return [[report(i, j, x) for i in range(len(sigmas))] for j, x in enumerate(xs)]


def reports_at(row: _TimeRow, params: AnsatzParams, x: float, sigmas: tuple) -> list:
    """The reports at one x, per sign of sigmas: the one-x case of
    ``row_reports``."""
    return row_reports(row, params, (x,), sigmas)[0]


def report_at(params: AnsatzParams, x: float, t: float) -> ResidualReport:
    """Full residual record at one point: the one-x, one-sign case of
    ``row_reports``, for the branch of params, on a row of its own."""
    return reports_at(_TimeRow(params, t), params, x, (params.sigma_Q,))[0]
