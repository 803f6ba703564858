import dataclasses
import types
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnlse_ansatz import (
    BRANCHES,
    DegenerateResiduals,
    DiffConfig,
    PoleProximity,
    REFERENCE_PARAMS,
    ResidualReport,
    StencilOutOfDomain,
    closed_form_invariants_q,
    closed_form_invariants_z,
    cnlse_residual,
    convergence_order,
    field_A,
    invariant_crosscheck,
    invariants_from_coefficients,
    q_curve,
    real_period,
    report_at,
    residual_P,
    residual_R1,
    residual_R2,
    soliton_field,
    with_branch,
    z_curve,
)
from cnlse_ansatz.ansatz import _q_curve_from_state

from _pins import (
    P_AT_1_0,
    P_AT_1_05,
    P_AT_1_1,
    P_NEAR_LATTICE,
    Q_CURVE_G2,
    Q_CURVE_G3_AT_T0,
    Z_CURVE_INVARIANTS,
)

# Real period 2w of the z-curve lattice at the reference parameters.
PERIOD = real_period(invariants_from_coefficients(z_curve(REFERENCE_PARAMS)))


class TestDiffConfig:
    def test_defaults(self):
        cfg = DiffConfig()
        assert cfg.h_t == 1e-5
        assert cfg.h_x == 1e-4
        assert cfg.richardson_levels == 2

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            DiffConfig(h_t=0.0)
        with pytest.raises(ValueError):
            DiffConfig(h_x=-1e-4)

    def test_levels_bounds(self):
        DiffConfig(richardson_levels=1)
        DiffConfig(richardson_levels=4)
        with pytest.raises(ValueError):
            DiffConfig(richardson_levels=0)
        with pytest.raises(ValueError):
            DiffConfig(richardson_levels=5)


class TestInconsistency:
    def test_origin_is_exactly_minus_two(self):
        # Q(0, .) = Q0 is constant, so the complex step returns Q_t = 0
        # exactly; the rest is a short exact-float chain
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            assert residual_P(p, 0.0, 0.0) == -2.0, name

    def test_reference_point_pins(self):
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            for t, pins in ((1.0, P_AT_1_1), (0.5, P_AT_1_05), (0.0, P_AT_1_0)):
                got = residual_P(p, 1.0, t)
                assert abs(got - pins[name]) <= 1e-12 * abs(pins[name]), (name, t)

    def test_mismatch_is_order_tenth(self):
        # the headline number: the leftover equation misses by ~0.11, far
        # above every discretization error in this suite
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        val = residual_P(p, 1.0, 1.0)
        assert abs(val - 0.113) < 2e-3
        assert abs(val) > 0.05

    def test_near_lattice_pins(self):
        # next to the orbit's lattice points 0, 2w and 4w, where wp ~ 1/xi^2
        # and a derivative of the closed form's quotient cancels like 1/|xi|
        for (name, t), pin in P_NEAR_LATTICE.items():
            got = residual_P(with_branch(REFERENCE_PARAMS, *BRANCHES[name]), 1.0, t)
            assert abs(got - pin) <= 1e-12 * max(1.0, abs(pin)), (name, t)

    @settings(max_examples=40, deadline=None)
    @given(
        branch=st.sampled_from(sorted(BRANCHES)),
        x=st.floats(0.2, 1.2),
        t=st.floats(0.0, 2.5),
    )
    def test_periodic_in_time(self, branch, x, t):
        # the profile curve reads t only through (z, z_t), which repeat
        # after one real period of the z-curve lattice
        p = with_branch(REFERENCE_PARAMS, *BRANCHES[branch])
        try:
            want = residual_P(p, x, t)
        except PoleProximity:
            assume(False)
        assume(abs(want) < 1e3)  # off the profile's solution poles
        got = residual_P(p, x, t + PERIOD)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_pin_2048_periods_out(self):
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        got = residual_P(p, 1.0, 1.0 + 2048 * PERIOD)
        assert abs(got - P_AT_1_1["mm"]) <= 1e-10

    def test_sign_pattern_at_reference_point(self):
        signs = {}
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            signs[name] = np.sign(residual_P(p, 1.0, 1.0))
        assert signs == {"pp": -1.0, "pm": -1.0, "mp": 1.0, "mm": 1.0}


class TestAlgebraicResiduals:
    def test_interior_point_all_branches(self):
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            assert residual_R1(p, 1.0) < 1e-10, name
            assert residual_R2(p, 1.0, 1.0) < 1e-10, name

    def test_boundary_stencils(self):
        # the closed forms are smooth through xi = 0, so the symmetric
        # stencil holds round-off at t = 0 and x = 0 too
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            assert residual_R1(p, 0.0) < 2e-12, name
            assert residual_R2(p, 0.0, 0.3) < 2e-12, name
            assert residual_R2(p, 0.0, 0.0) < 2e-12, name

    def test_long_time_all_branches(self):
        # 2048 periods out
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            assert residual_R1(p, 5115.1) <= 1e-8, name
            for x in (0.4, 1.0):
                assert residual_R2(p, x, 5115.1) <= 1e-8, (name, x)

    @pytest.mark.parametrize("t", [1e4, 2e4])
    def test_r1_reduces_whole_periods(self, t):
        # without the reduction the fixed step would read the spacing of
        # floats near t: 4.8e-9 to 1.25e-8 here, above r_alg at 2e4
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            assert residual_R1(p, t) <= 1e-10, name

    @pytest.mark.parametrize("k", [2, 100, 2047])
    def test_r1_across_a_fold_edge(self, k):
        # t = (k + 1/2) 2w reduces by k whole periods to half a period,
        # whatever k; r1 must not notice
        edge = (k + 0.5) * PERIOD
        for sigma in (1, -1):
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            for offset in (-2e-5, -1e-6, 0.0, 1e-6, 2e-5):
                assert residual_R1(p, edge + offset) <= 1e-10, (sigma, offset)

    def test_r2_is_one_profile_batch(self, monkeypatch):
        # the centre value comes from the stencil batch, not a second call
        from cnlse_ansatz import quartic

        p = with_branch(REFERENCE_PARAMS, -1, -1)
        q_curve(p, 0.3)  # the per-time state is memoised outside the count
        calls = []
        real_wp_pair = quartic.wp_pair

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real_wp_pair(*args, **kwargs)

        monkeypatch.setattr(quartic, "wp_pair", counted)
        assert residual_R2(p, 0.7, 0.3) < 1e-10
        assert len(calls) == 1

    def test_small_grid(self):
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        for t in (0.05, 0.3, 0.7):
            assert residual_R1(p, t) < 1e-8
            for x in (0.4, 1.2):
                assert residual_R2(p, x, t) < 1e-8


class TestInvariantCrosscheck:
    def test_z_curve_closed_form_matches_pins(self):
        inv = closed_form_invariants_z(REFERENCE_PARAMS)
        assert abs(inv.g2 - Z_CURVE_INVARIANTS[0]) < 1e-12
        assert abs(inv.g3 - Z_CURVE_INVARIANTS[1]) < 1e-12
        direct = invariants_from_coefficients(z_curve(REFERENCE_PARAMS))
        assert abs(direct.g2 - inv.g2) < 1e-12
        assert abs(direct.g3 - inv.g3) < 1e-12

    def test_q_curve_closed_form_at_t0(self):
        z, zt = 1.0, 2.630589287593181
        inv = closed_form_invariants_q(REFERENCE_PARAMS, z, zt)
        assert abs(inv.g2 - Q_CURVE_G2) < 1e-12
        assert abs(inv.g3 - Q_CURVE_G3_AT_T0) < 1e-12

    def test_crosscheck_along_orbit(self):
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            for t in (0.0, 0.37, 1.0):
                dev_z, dev_q = invariant_crosscheck(p, t)
                assert dev_z < 1e-12, (name, t)
                assert dev_q < 1e-12, (name, t)

    def test_crosscheck_random_parameters(self):
        # the identity is algebraic in (q, c1, c2, c3, z, zt); probe the
        # raw coefficient builders without the orbit validation
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            ns = types.SimpleNamespace(
                q=q,
                c1=rng.uniform(-3.0, 3.0),
                c2=rng.uniform(-3.0, 3.0),
                c3=rng.uniform(-3.0, 3.0),
            )
            cz = invariants_from_coefficients(z_curve(ns))
            ez = closed_form_invariants_z(ns)
            assert abs(cz.g2 - ez.g2) < 1e-12 * max(1.0, abs(ez.g2))
            assert abs(cz.g3 - ez.g3) < 1e-12 * max(1.0, abs(ez.g3))
            z = rng.uniform(0.1, 3.0)
            zt = rng.uniform(-5.0, 5.0)
            cq = invariants_from_coefficients(_q_curve_from_state(ns, z, zt))
            eq = closed_form_invariants_q(ns, z, zt)
            assert abs(cq.g2 - eq.g2) < 1e-12 * max(1.0, abs(eq.g2))
            assert abs(cq.g3 - eq.g3) < 1e-12 * max(1.0, abs(eq.g3))


class TestSoliton:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            soliton_field(0.0)
        with pytest.raises(ValueError):
            soliton_field(-1.0)

    def test_shapes(self):
        s = soliton_field(1.0)
        assert isinstance(s(0.5, 0.3), complex)
        out = s(np.linspace(-1, 1, 5), 0.3)
        assert out.shape == (5,)

    def test_profile_values(self):
        s = soliton_field(2.0)
        val = s(0.0, 0.0)
        assert abs(val - 2.0) < 1e-15
        assert abs(abs(s(0.3, 0.9)) - 2.0 / np.cosh(0.6)) < 1e-14

    def test_residual_small_on_exact_solution(self):
        cfg = DiffConfig(h_t=1e-3, h_x=1e-3, richardson_levels=1)
        r = cnlse_residual(soliton_field(1.0), 0.5, 0.3, cfg, p=1.0, q=2.0)
        assert abs(r) < 1e-5

    def test_second_order_convergence(self):
        s = soliton_field(1.0)
        res = [
            cnlse_residual(
                s, 0.5, 0.3, DiffConfig(h_t=h, h_x=h, richardson_levels=1),
                p=1.0, q=2.0,
            )
            for h in (4e-3, 2e-3, 1e-3)
        ]
        order = convergence_order(res)
        assert abs(order - 2.0) < 0.1


class TestConvergenceOrder:
    def test_exact_second_order_sequence(self):
        assert convergence_order([1.0, 0.25, 0.0625]) == pytest.approx(2.0)

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            convergence_order([1.0])

    def test_floor_is_degenerate(self):
        with pytest.raises(DegenerateResiduals):
            convergence_order([1e-3, 1e-16])


class TestCnlseResidual:
    def test_nonfinite_stencil_rejected(self):
        def bad(x, t):
            xa = np.asarray(x, dtype=float)
            return np.full(xa.shape, np.nan, dtype=complex) if xa.ndim else complex("nan")

        with pytest.raises(StencilOutOfDomain):
            cnlse_residual(bad, 0.0, 0.0)

    def test_domain_errors_are_wrapped(self):
        def raising(x, t):
            raise PoleProximity("off the chart")

        with pytest.raises(StencilOutOfDomain):
            cnlse_residual(raising, 0.0, 0.0)

    def test_ansatz_residual_tracks_inconsistency(self):
        # the constructed envelope does not solve the dispersive equation;
        # the finite-difference residual is O(0.1), not round-off
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        r = cnlse_residual(partial(field_A, p), 0.5, 0.4, q=p.q)
        assert np.isfinite(r)
        assert 1e-3 < abs(r) < 10.0


class TestReportAt:
    def test_clean_point(self):
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        rep = report_at(p, 0.5, 0.4)
        assert rep.notes == ""
        assert (rep.sigma_z, rep.sigma_q) == (-1, -1)
        for v in (rep.P, rep.r1, rep.r2, rep.pde_abs):
            assert np.isfinite(v)
        assert rep.r1 < 1e-8 and rep.r2 < 1e-8

    def test_pole_adjacent_flag(self):
        # |Q| > 15 just short of the profile pole of the pp branch
        p = with_branch(REFERENCE_PARAMS, 1, 1)
        rep = report_at(p, 0.978, 0.311)
        assert "pole_adjacent" in rep.notes

    def test_failure_is_noted_not_raised(self, monkeypatch):
        from cnlse_ansatz import verify

        def bad(params, x, t):
            xa = np.asarray(x, dtype=float)
            return np.full(xa.shape, np.nan, dtype=complex)

        monkeypatch.setattr(verify, "field_A", bad)
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        rep = report_at(p, 0.5, 0.4)
        assert "StencilOutOfDomain" in rep.notes
        assert np.isnan(rep.pde_abs)

    def test_long_time_identity(self):
        # Re e^{-i phi} (i A_t + A_xx + q A |A|^2) cancels through the
        # profile ODE, so pde_abs = |P|; the FD time stencil sees the phase
        # quadrature, whose error must stay continuous in t even at t = 1000,
        # a panel edge
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = report_at(p, 1.0, 1000.0)
        assert rep.notes == ""
        assert abs(rep.pde_abs - abs(rep.P)) <= 1e-6 * max(1.0, abs(rep.P))

    def test_long_time_needs_no_phase(self, monkeypatch):
        # P, r1, r2 and the profile curve never read the phase, so at
        # t = 1e4 they run no phase quadrature
        from cnlse_ansatz import ansatz

        def no_phase(*args):
            raise AssertionError("phase computed")

        monkeypatch.setattr(ansatz, "phi_of_t", no_phase)
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        assert residual_R1(p, 1e4) <= 1e-8
        assert np.all(np.isfinite(dataclasses.astuple(q_curve(p, 1e4))))
        assert np.isfinite(residual_P(p, 1.0, 1e4))
        assert residual_R2(p, 1.0, 1e4) <= 1e-8

    def test_serialization_order(self):
        rep = ResidualReport(
            x=1.0, t=2.0, sigma_z=1, sigma_q=-1,
            P=0.1, r1=1e-12, r2=2e-12, pde_abs=0.3, notes="n",
        )
        d = rep.to_json_dict()
        assert tuple(d) == ("x", "t", "sigma_z", "sigma_q",
                            "P", "r1", "r2", "pde_abs", "notes")
