"""Weierstrass-elliptic verification toolkit for a cubic NLS travelling ansatz.

The package reconstructs the closed-form solution pair (z, Q) of two coupled
quartic oscillator equations, measures how badly the pair fails the extra
consistency condition P = Q_t - sqrt(z) (c1 - q (3 z + Q^2)), and cross-checks
the resulting field against a split-step spectral integrator.
"""

from .ansatz import (
    BRANCHES,
    REFERENCE_PARAMS,
    AnsatzParams,
    Q_of_xt,
    field_A,
    phi_of_t,
    q_curve,
    with_branch,
    z_curve,
    z_with_rate,
)
from .elliptic import (
    HALVING_THRESHOLD,
    POLE_EPSILON,
    SERIES_ORDER,
    EllipticInvariants,
    cubic_roots,
    real_period,
    wp_pair,
)
from .errors import (
    AliasingWarning,
    DegenerateResiduals,
    NegativeRadicand,
    NonFiniteSamples,
    PoleProximity,
    RealityViolation,
    StencilOutOfDomain,
    WindowContainsPole,
)
from .quartic import (
    QuarticCurve,
    eval_with_derivatives,
    invariants_from_coefficients,
    solution_denominator,
    weierstrass_solution,
)
from .reference import (
    DivergencePoint,
    DivergenceSeries,
    SpectralGrid,
    ansatz_divergence,
    divergence_from,
    mass,
    raised_cosine_taper,
    split_step_evolve,
)
from .verify import (
    DiffConfig,
    ResidualReport,
    closed_form_invariants_q,
    closed_form_invariants_z,
    cnlse_residual,
    convergence_order,
    invariant_crosscheck,
    report_at,
    residual_P,
    residual_R1,
    residual_R2,
    soliton_field,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingWarning",
    "AnsatzParams",
    "BRANCHES",
    "DegenerateResiduals",
    "DiffConfig",
    "DivergencePoint",
    "DivergenceSeries",
    "EllipticInvariants",
    "HALVING_THRESHOLD",
    "NegativeRadicand",
    "NonFiniteSamples",
    "POLE_EPSILON",
    "PoleProximity",
    "Q_of_xt",
    "QuarticCurve",
    "REFERENCE_PARAMS",
    "RealityViolation",
    "ResidualReport",
    "SERIES_ORDER",
    "SpectralGrid",
    "StencilOutOfDomain",
    "WindowContainsPole",
    "ansatz_divergence",
    "closed_form_invariants_q",
    "closed_form_invariants_z",
    "cnlse_residual",
    "convergence_order",
    "cubic_roots",
    "divergence_from",
    "eval_with_derivatives",
    "field_A",
    "invariant_crosscheck",
    "invariants_from_coefficients",
    "mass",
    "phi_of_t",
    "q_curve",
    "raised_cosine_taper",
    "real_period",
    "report_at",
    "residual_P",
    "residual_R1",
    "residual_R2",
    "soliton_field",
    "solution_denominator",
    "split_step_evolve",
    "weierstrass_solution",
    "with_branch",
    "wp_pair",
    "z_curve",
    "z_with_rate",
]
