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

``row_reports`` gathers P, r1, r2 and the PDE residual at every (t, x) of
a scan on one orbit, for a tuple of profile slope signs, as one column per
report field: the command line's one report path, from which ``scan``,
``residuals``, ``pde`` and ``paper-check`` read every number, with no
object per point.  They read a stack of time rows
(``_TimeRow``) that the caller builds once for its times and passes to
every orbit; it holds what depends on (t, orbit) only, and its PDE
stencil samples the envelope up to a constant phase, so reads no phase.
The profile lattice is a constant of the parameters, so one wp table at
the xs serves every row and orbit, read with each row's scalars as
columns: every number is a (sign, t, x) array, and its notes come from
masks.  The arrays keep the bits of Python's scalar arithmetic, which
numpy moves in four places: a complex product is taken by parts (numpy
fuses a multiply and an add), a complex divided by a float divides its
parts (numpy multiplies by a reciprocal), |A| is hypot (numpy's complex
abs rounds otherwise) and a square is ``np.float_power``, the C pow of
Python's ``**`` (``np.square`` rounds the product).  ``reports_at`` is
the one-t, one-x case, as a ``ResidualReport`` per sign, and ``report_at``
its one-sign case, whose P and r2 are ``residual_P`` and ``residual_R2``.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .ansatz import (
    P_STEP,
    AnsatzParams,
    _checked,
    _orbit_states,
    _panel_values,
    _q_curve_from_state,
    _split_periods,
    z_curve,
    z_with_rate,
)
from .elliptic import EllipticInvariants, real_period
from .errors import (
    DegenerateResiduals,
    NegativeRadicand,
    PoleProximity,
    RealityViolation,
    StencilOutOfDomain,
)
from .quartic import QuarticCurve, _closed_form_parts, _rational_part
from .quartic import eval_with_derivatives, invariants_from_coefficients, weierstrass_solution

# Internal steps for the by-construction residuals r1 and r2.  These are
# larger than DiffConfig defaults on purpose: the quantity differentiated is
# known analytically smooth, and at 1e-8 residual targets the limiting error
# is function-evaluation round-off divided by h, not truncation.
R1_TIME_STEP = 5e-4
R2_SPACE_STEP = 1e-3

# |Q| beyond this marks a grid point as sitting next to a profile pole.
POLE_ADJACENT_Q = 15.0

# A point's notes by code, the sum of 1 (pole: Q not finite), 2
# (pole_adjacent: |Q| > POLE_ADJACENT_Q) and 4 (StencilOutOfDomain: a PDE
# stencil value not finite): the names of its bits, joined in that order;
# code 8 is a point with none of them and a number that is not finite.
_NOTES = tuple(";".join(name for bit, name in enumerate(
    ("pole", "pole_adjacent", "StencilOutOfDomain")) if code >> bit & 1) for code in range(8)) + (
    "nonfinite",)


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
    """The rows at the times t (an array, or one time) that the four slope
    branches of params share, stacked over t: both orbits' states, as arrays
    (``_orbit_states``), at each row's PDE time nodes r + offsets (``ts``),
    r = t reduced by whole periods 2w of z (one ``_split_periods`` call), and
    on first use r1, the gauges and the profile scalars, each from one call
    in which each row is a batch row that keeps its own bits and an error of
    one row's state, gauges or scalars is that row's."""

    def __init__(self, params: AnsatzParams, t):
        cfg = DiffConfig()
        self.params, self.t = params, np.atleast_1d(np.asarray(t, dtype=float))
        self.curve, self.tables = z_curve(params), {}
        self.r = _split_periods(real_period(self.curve.invariants), self.t)[1]
        self.ts = self.r[:, None] + _stencil_offsets(cfg.h_t, cfg.richardson_levels)
        self.states = _orbit_states(self.params, self.ts.ravel())

    def table(self, xs) -> tuple:
        """xs reduced by whole real periods of the profile lattice, and its wp
        part, made once for every row and orbit, at each as the rows of an
        (nx, 3, 5) argument: r2's x stencil, the point itself five times (so
        with the bits it has alone), and the PDE's x stencil."""
        key = tuple(map(float, xs))
        if key not in self.tables:
            cfg, lattice = DiffConfig(), self.states[1].curve.lattice
            xr = _split_periods(real_period(lattice), key)[1]
            offsets = np.array([_stencil_offsets(R2_SPACE_STEP), np.zeros(5),
                                _stencil_offsets(cfg.h_x, cfg.richardson_levels)])
            self.tables[key] = xr, _closed_form_parts(lattice, xr[:, None, None] + offsets)
        return self.tables[key]

    @cached_property
    def gauges(self) -> dict:
        """e^{i(phi(s) - phi(r))} per orbit at every row's four nodes s other
        than r, as (nt, 4, 1), nan at a node whose panel failed;
        phi(s) - phi(r) = c1 (s - r) - 2 q * (z over [r, s])."""
        p, s = self.params, self.ts[:, 1:, None]
        r = np.broadcast_to(self.r[:, None, None], s.shape)
        panels = _panel_values(self.curve, p.z0, r.reshape(-1, 1), s.reshape(-1, 1))
        return {sigma: np.exp(1j * (p.c1 * (s - r) - 2.0 * p.q * v.reshape(s.shape)))
                for sigma, (v, _) in panels.items()}

    @cached_property
    def r1(self) -> dict:
        """r1 per orbit at every r, from one batch of a stencil per row."""
        h, z0 = R1_TIME_STEP, self.params.z0
        ys = weierstrass_solution(self.curve, z0, (1, -1), self.r[:, None] + _stencil_offsets(h))
        return dict(zip((1, -1), _defect(self.curve, np.array(ys), h)))

    @cached_property
    def profile(self) -> dict:
        """Per orbit, read from its states' arrays: each row's error at r or
        None; R^(k)(Q0) and sqrt z at every node as (6, nt, 5, 1) columns, nan
        where that state failed; and at r as (nt, 1) columns those of the
        curves stepped to z + ih z_t, z_t + ih z_tt (h = P_STEP) for P's Q_t
        (one stack; a failed row's P reads its nan sqrt z), z and r's curves."""
        p, h, n = self.params, 1j * P_STEP, self.ts.shape[1]
        out = {}
        for sigma, st in self.states.items():
            c, z, zt = st.curve, st.z[::n], st.zt[::n]
            ztt = 0.5 * eval_with_derivatives(self.curve, z)[1]
            stepped = _q_curve_from_state(p, z + h * zt, zt + h * ztt, c.lattice)
            with np.errstate(over="ignore", invalid="ignore"):  # inf, as Python's floats read it
                r = np.array(eval_with_derivatives(stepped, p.Q0))
            out[sigma] = types.SimpleNamespace(
                errors=st.errors[::n], stepped=r[..., None], z=z[:, None],
                nodes=np.vstack((st.scalars, st.sqrt_z)).reshape(6, -1, n, 1),
                curve=QuarticCurve(*(a[::n, None] for a in (
                    c.alpha, c.beta, c.gamma, c.delta, c.epsilon))))
        return out


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
    ``residual_R2`` reduces it.  The P of ``_point``."""
    return _point(params, x, t).P


def _point(params: AnsatzParams, x: float, t: float) -> ResidualReport:
    """``report_at``, raising the error of a state or scalars that fail at t."""
    row = _TimeRow(params, t)
    _checked(row.profile[params.sigma_z].errors[0])
    return reports_at(row, params, x, (params.sigma_Q,))[0]


def _defect(curve, y, h: float):
    """Relative defect |(dy/dxi)^2 - R(y)| / max(1, |R(y)|) of the values y
    of a solution of the curve (or of a stack of curves, as columns) on the
    central stencil of step h, along the last axis."""
    slope, _ = _central_differences(y, h)
    r = eval_with_derivatives(curve, y[..., 0])[0]
    return np.abs(slope * slope - r) / np.maximum(1.0, np.abs(r))


def residual_R1(params: AnsatzParams, t: float) -> float:
    """Relative defect |(dz/dt)^2 - R1(z)| / max(1, |R1(z)|) with a finite
    difference dz/dt.  Zero to discretization error by construction.  t is
    first reduced by whole real periods 2w of z (|t| < 2w is not), to the
    time row's r: a stencil of the fixed step R1_TIME_STEP around a large t
    would read the spacing of floats near t."""
    return _TimeRow(params, t).r1[params.sigma_z].item()


def residual_R2(params: AnsatzParams, x: float, t: float) -> float:
    """Relative defect |(dQ/dx)^2 - R2(Q)| / max(1, |R2(Q)|) at the time
    row's r, with x reduced by whole real periods of the profile lattice as
    ``residual_R1`` reduces t: the r2 of ``_point``."""
    return _point(params, x, t).r2


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
    z, zt = z_with_rate(params, t)
    cz = invariants_from_coefficients(z_curve(params))
    ez = closed_form_invariants_z(params)
    dev_z = max(_rel_dev(cz.g2, ez.g2), _rel_dev(cz.g3, ez.g3))
    cq = invariants_from_coefficients(_q_curve_from_state(params, z, zt))
    eq = closed_form_invariants_q(params, z, zt)
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


def row_reports(row: _TimeRow, params: AnsatzParams, xs, sigmas: tuple) -> dict:
    """Full residual records at every time of the row's stack, built for
    params, x of xs and profile slope sign of sigmas (params.sigma_Q is not
    read) on the orbit params.sigma_z, as columns: the fields of
    ``ResidualReport`` in order, each a (signs, nt, nx) array, the notes an
    object array.  Never raises on pole contact: failures are noted and
    their numbers set to nan.  Each row's scalars, as (nt, 1) columns, read
    the stack's one wp table (``_TimeRow.table``); the default-step PDE
    residual (p = 1) reads the gauges, so no phase.  An error of a row's
    state or scalars is that row's, of a shared call every row's; a failed
    gauge or time node (StencilOutOfDomain) its row's; a pole, a
    pole-adjacent value, a non-finite stencil and a number that is not
    finite for no other noted reason (``nonfinite``) each point's and sign's."""
    xs, sz, nt, q0 = [float(x) for x in xs], params.sigma_z, len(row.t), params.Q0
    try:
        prof, (_, parts), g = row.profile[sz], row.table(xs), row.gauges[sz]
        rs, sq = prof.nodes[:5, :, 0], prof.nodes[5]  # (nt, 1) scalars at r, sqrt z
        point = [a[:, 1, :1].T for a in parts]  # (1, nx): the point's wp part
        Q, Qt = (np.array(_rational_part(c, q0, sigmas, *point)) for c in (rs, prof.stepped))
        qs = np.array(_rational_part(prof.nodes[:5, :, 1:], q0, sigmas, *point))
        ys = np.array(_rational_part(rs[..., None, None], q0, sigmas, *parts))
        with np.errstate(invalid="ignore", over="ignore"):  # at a pole, noted below
            # the C pow of Python's Q ** 2: np.square rounds the product,
            # which differs for about one Q in a thousand
            P = Qt.imag / P_STEP - sq[:, 0] * (params.c1 - params.q * (
                3.0 * prof.z + np.float_power(Q, 2)))
            r2 = _defect(prof.curve, ys[..., 0, :], R2_SPACE_STEP)
            # the PDE residual of B = (Q + i sqrt z) e^{i(phi(s) - phi(r))}, the gauge
            # product by parts as Python's complex product rounds it (numpy's fuses)
            qs = (qs * g.real - sq[:, 1:] * g.imag) + 1j * (qs * g.imag + sq[:, 1:] * g.real)
        xv = ys[..., 2, :] + 1j * sq[:, :1]
        tv = np.concatenate((xv[..., :1], np.swapaxes(qs, -1, -2)), axis=-1)
        res, ok = _stencil_residuals(xv, tv, DiffConfig(), 1.0, params.q)
        pde = np.where(ok, np.hypot(res.real, res.imag), np.nan)
    except (PoleProximity, RealityViolation, NegativeRadicand) as exc:
        P = r2 = pde = np.full((len(sigmas), nt, len(xs)), np.nan)
        errors, r1, codes = [exc] * nt, np.full(nt, np.nan), 0
    else:
        errors, finite_q = prof.errors, np.isfinite(Q)
        r1 = np.where([error is None for error in errors], row.r1[sz], np.nan)
        codes = ~finite_q + 2 * (finite_q & (np.abs(Q) > POLE_ADJACENT_Q)) + 4 * ~ok
    finite = np.isfinite(P) & np.isfinite(r1)[:, None] & np.isfinite(r2) & np.isfinite(pde)
    notes = np.array(_NOTES, dtype=object)[codes + 8 * ((codes == 0) & ~finite)]
    for k, error in enumerate(errors):
        if error is not None:
            notes[:, k] = type(error).__name__
    return dict(zip((f.name for f in fields(ResidualReport)), np.broadcast_arrays(
        np.array(xs), row.t[:, None], sz, np.array(sigmas)[:, None, None], P, r1[:, None], r2,
        pde, notes)))


def reports_at(row: _TimeRow, params: AnsatzParams, x: float, sigmas: tuple) -> list:
    """The one-t, one-x case of ``row_reports``: per sign of sigmas, the
    reports its columns hold at the stack's first time."""
    columns = row_reports(row, params, (x,), sigmas).values()
    return [ResidualReport(*rec) for rec in zip(*(c[:, 0, 0].tolist() for c in columns))]


def report_at(params: AnsatzParams, x: float, t: float) -> ResidualReport:
    """Full residual record at one point on a row of its own: the one-sign
    case of ``reports_at``, for the branch of params."""
    return reports_at(_TimeRow(params, t), params, x, (params.sigma_Q,))[0]
