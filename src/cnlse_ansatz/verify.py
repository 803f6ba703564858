"""Residual operators.

Three layers of checking live here:

* algebraic residuals r1, r2 confirming that the constructed z and Q solve
  their quartic ODEs (these must vanish to round-off by construction),
* the inconsistency functional P, the left side of the remaining first
  order equation the construction does not enforce,
* a full finite-difference residual of the dispersive equation itself,
  validated against an exact soliton before it is trusted on the ansatz.

The Q_t of P is a complex-step derivative, exact to round-off, taken from
the memoised per-time state (z, z_t) along the orbit ODE.  Every other
derivative comes from one central Richardson stencil, used at the origin
too, so that r1, r2 and the PDE residual stay checks independent of the
closed forms; stencil values are evaluated in single batches so the
elliptic argument reduction uses one depth across each stencil.

``report_at`` gathers P, r1, r2 and the PDE residual at one point with
fixed settings: the default ``DiffConfig`` steps and the envelope
``partial(field_A, params)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ansatz import (
    P_STEP,
    AnsatzParams,
    Q_of_xt,
    _q_curve_from_state,
    _split_periods,
    field_A,
    q_curve,
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
from .quartic import eval_with_derivatives, invariants_from_coefficients, weierstrass_solution

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
        return {
            "x": self.x,
            "t": self.t,
            "sigma_z": self.sigma_z,
            "sigma_q": self.sigma_q,
            "P": self.P,
            "r1": self.r1,
            "r2": self.r2,
            "pde_abs": self.pde_abs,
            "notes": self.notes,
        }


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
    values on ``_stencil_offsets(h, levels)``, in that order."""
    first, second = [], []
    for m in range((len(vals) - 1) // 2):
        hm = h / 2.0 ** m
        left, right = vals[1 + 2 * m], vals[2 + 2 * m]
        first.append((right - left) / (2.0 * hm))
        second.append((left - 2.0 * vals[0] + right) / hm ** 2)
    return _extrapolate(first), _extrapolate(second)


def residual_P(params: AnsatzParams, x: float, t: float) -> float:
    """Inconsistency functional

        P(x, t) = Q_t(x, t) - sqrt(z) (c1 - q (3 z + Q^2)).

    Q_t is the complex-step derivative Im Q(x, t + ih) / h, h = P_STEP.  Q
    reads t only through the memoised orbit state, so the step is taken
    there, z + ih z_t and z_t + ih R1'(z)/2 (z_tt from (z_t)^2 = R1(z)),
    and flows through the profile curve and its closed form.  Q_t is exact
    to round-off at every t and x, next to the orbit's lattice points,
    t = 0 and x = 0 included (Q(0, .) = Q0 gives Q_t = 0 exactly).
    """
    x = float(x)
    t = float(t)
    st = time_state(params, t)
    q_center = weierstrass_solution(st.curve, params.Q0, params.sigma_Q, x)
    ztt = 0.5 * eval_with_derivatives(z_curve(params), st.z)[1]
    h = 1j * P_STEP
    curve = _q_curve_from_state(params, st.z + h * st.zt, st.zt + h * ztt)
    q = weierstrass_solution(curve, params.Q0, params.sigma_Q, x)
    return q.imag / P_STEP - st.sqrt_z * (params.c1 - params.q * (3.0 * st.z + q_center ** 2))


def _ode_defect(curve, y0: float, sigma: int, xi: float, h: float) -> float:
    """Relative defect |(dy/dxi)^2 - R(y)| / max(1, |R(y)|) of the closed form
    at xi, with dy/dxi and y from one batch on the central stencil."""
    y = weierstrass_solution(curve, y0, sigma, float(xi) + _stencil_offsets(h))
    slope, _ = _central_differences(y, h)
    r = float(eval_with_derivatives(curve, y[0])[0])
    return abs(slope * slope - r) / max(1.0, abs(r))


def residual_R1(params: AnsatzParams, t: float) -> float:
    """Relative defect |(dz/dt)^2 - R1(z)| / max(1, |R1(z)|) with a finite
    difference dz/dt.  Zero to discretization error by construction.

    z is periodic with the real period 2w of its lattice, so t is first
    reduced by whole periods, as ``phi_of_t`` reduces it: a stencil of the
    fixed step R1_TIME_STEP around a large t would read the spacing of
    floats near t.  |t| < 2w, and a lattice without a real period, are
    not reduced."""
    t = _split_periods(params, float(t))[1]
    return _ode_defect(z_curve(params), params.z0, params.sigma_z, t, R1_TIME_STEP)


def residual_R2(params: AnsatzParams, x: float, t: float) -> float:
    """Relative defect |(dQ/dx)^2 - R2(Q)| / max(1, |R2(Q)|) at fixed t."""
    return _ode_defect(q_curve(params, float(t)), params.Q0, params.sigma_Q, x, R2_SPACE_STEP)


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


def cnlse_residual(field, x: float, t: float, cfg: DiffConfig | None = None,
                   p: float = 1.0, q: float = 1.0) -> complex:
    """Finite-difference residual i A_t + p A_xx + q A |A|^2 of a sampler.

    The x stencil of every Richardson level is evaluated in one batched
    call; the t stencil needs one sampler call per node.  Raises
    StencilOutOfDomain when any stencil value is missing or non-finite.
    """
    cfg = cfg if cfg is not None else DiffConfig()
    x = float(x)
    t = float(t)
    lv = int(cfg.richardson_levels)
    try:
        xv = np.asarray(field(x + _stencil_offsets(cfg.h_x, lv), t), dtype=complex)
        # Python complex, as the sampler returns them: numpy would divide the
        # differences through a reciprocal and move the last bit
        tv = [complex(xv[0])] + [
            complex(field(x, t + dt)) for dt in _stencil_offsets(cfg.h_t, lv)[1:]
        ]
    except (PoleProximity, RealityViolation, NegativeRadicand) as exc:
        raise StencilOutOfDomain(
            f"field not evaluable on the stencil at ({x:g}, {t:g})"
        ) from exc
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(tv))):
        raise StencilOutOfDomain(
            f"non-finite field values on the stencil at ({x:g}, {t:g})"
        )
    _, axx = _central_differences(xv, cfg.h_x)
    at, _ = _central_differences(tv, cfg.h_t)
    a0 = tv[0]
    return 1j * at + p * axx + q * a0 * (abs(a0) ** 2)


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


def _pole_note(q_val) -> str:
    """Flag of a profile value: "pole" if not finite, "pole_adjacent" if
    |Q| > POLE_ADJACENT_Q, else ""."""
    if not np.isfinite(q_val):
        return "pole"
    return "pole_adjacent" if abs(q_val) > POLE_ADJACENT_Q else ""


def report_at(params: AnsatzParams, x: float, t: float) -> ResidualReport:
    """Full residual record at one point, never raising on pole contact:
    failures are recorded in the notes field and the numbers set to nan.
    The PDE residual is the default-step ``cnlse_residual`` of the envelope
    ``partial(field_A, params)`` with p = 1 and the record's q."""
    x = float(x)
    t = float(t)
    notes: list = []
    p_val = r1 = r2 = pde = float("nan")
    try:
        note = _pole_note(Q_of_xt(params, x, t))
        if note:
            notes.append(note)
        p_val = residual_P(params, x, t)
        r1 = residual_R1(params, t)
        r2 = residual_R2(params, x, t)
        pde = abs(cnlse_residual(partial(field_A, params), x, t, q=params.q))
    except (PoleProximity, RealityViolation, NegativeRadicand, StencilOutOfDomain) as exc:
        notes.append(type(exc).__name__)
    if not all(np.isfinite(v) for v in (p_val, r1, r2, pde)) and not notes:
        notes.append("nonfinite")
    return ResidualReport(
        x=x, t=t, sigma_z=params.sigma_z, sigma_q=params.sigma_Q,
        P=p_val, r1=r1, r2=r2, pde_abs=pde, notes=";".join(notes),
    )
