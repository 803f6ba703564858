import dataclasses
import itertools
import os
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
    NonFiniteSamples,
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
    phi_of_t,
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
from cnlse_ansatz import EllipticInvariants, quartic, verify
from cnlse_ansatz.ansatz import _q_curve_from_state, profile_lattice

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
# Real period 2w_Q of the profile lattice, which does not move with t.
PROFILE_PERIOD = real_period(invariants_from_coefficients(q_curve(REFERENCE_PARAMS, 0.0)))


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
        # exactly and P(0, t) = -sqrt(z) (c1 - q (3 z + Q0^2)) to the bit, at
        # every t: past one period 2w and before 0 too.  At t = 0, z = z0 = 1
        # makes it a short exact-float chain, -2
        ts = [0.0, 5115.1, -1000.3, *np.random.default_rng(77).uniform(-30.0, 30.0, 44)]
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            assert residual_P(p, 0.0, 0.0) == -2.0, name
            for t in ts:
                orbit = verify._TimeRow(p, t).states[sz]
                want = -orbit.sqrt_z[0] * (p.c1 - p.q * (3.0 * orbit.z[0] + p.Q0 ** 2))
                assert residual_P(p, 0.0, t) == want, (name, t)

    def test_one_wp_evaluation_on_the_profile_lattice(self, monkeypatch):
        # Q and Q_t read one wp evaluation on the real profile lattice: the
        # step goes through the five scalars R^(k)(Q0) only, so every
        # invariant pair built on the way holds floats
        p = with_branch(REFERENCE_PARAMS, 1, -1)
        seen, built = [], []
        wp_pair, init = quartic.wp_pair, EllipticInvariants.__post_init__

        def spy(u, inv):
            seen.append(inv)
            return wp_pair(u, inv)

        def post_init(inv):
            init(inv)
            built.append(inv)

        monkeypatch.setattr(quartic, "wp_pair", spy)
        monkeypatch.setattr(EllipticInvariants, "__post_init__", post_init)
        residual_P(p, 1.3, 0.7)
        assert sum(inv == profile_lattice(p) for inv in seen) == 1
        assert built and all(type(inv.g2) is float and type(inv.g3) is float for inv in built)

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

    @pytest.mark.parametrize("k", [10, 1000, 18208])
    def test_periodic_in_space(self, k):
        # the profile lattice does not move with t, so x is reduced by its
        # whole real periods before P is evaluated: k periods out, up to
        # x = 1e5, P reads what it reads at x = 1
        for name, signs in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, *signs)
            period = real_period(profile_lattice(p))
            want = residual_P(p, 1.0, 1.0)
            assert abs(residual_P(p, 1.0 + k * period, 1.0) - want) <= 1e-12, name

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

    @pytest.mark.parametrize("x, tol", [(1e4, 1e-10), (1e5, 1e-10), (1e6, 1e-9)])
    def test_r2_reduces_whole_periods(self, x, tol):
        # the profile lattice has the real period 2w_Q = 5.492 at every t;
        # without the reduction the fixed step reads the spacing of floats
        # near x: 4e-10 at 1e4, 2.2e-8 at 1e5 and 1.4e-7 to 2.2e-7 at 1e6.
        # 1e6 reduces to x = 1.886, 0.25 short of the pp pole (Q = 5.6 and
        # -6.8 on pp and mp), where r2 itself reads 1.2e-10 and 2.6e-10
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            for at in (x, -x):
                assert residual_R2(p, at, 1.0) <= tol, (name, at)

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

        # on the profile lattice; residual_R2 builds its own time row, whose
        # orbit batch is a second call, on the z lattice
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        profile = verify._TimeRow(p, 0.3).states[-1].curve.invariants
        calls = []
        real_wp_pair = quartic.wp_pair

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real_wp_pair(*args, **kwargs)

        monkeypatch.setattr(quartic, "wp_pair", counted)
        assert residual_R2(p, 0.7, 0.3) < 1e-10
        assert sum(inv == profile for inv in calls) == 1

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

    def test_late_window_evaluates_each_time_row_once(self, monkeypatch):
        # a late-shaped window, 4 x 4 points on mm, beyond one period 2w:
        # one stack of its 4 time rows makes one orbit batch (the 5 stencil
        # times of each t reduced by whole periods, which P, r2 and the pole
        # note read too), one gauge batch (a panel per time node), and one
        # r1 batch (a stencil per row)
        from cnlse_ansatz import verify
        from cnlse_ansatz.cli import main

        counts = {"orbit": [], "gauge": [], "r1": 0}
        orbit_states, panel_values, defect_of = (
            verify._orbit_states, verify._panel_values, verify._defect)

        def orbit(params, ts):
            counts["orbit"].append(np.size(ts))
            return orbit_states(params, ts)

        def gauge(curve, z0, lo, hi):
            counts["gauge"].append(np.size(hi))
            return panel_values(curve, z0, lo, hi)

        def defect(curve, y, h):
            counts["r1"] += h == verify.R1_TIME_STEP
            return defect_of(curve, y, h)

        monkeypatch.setattr(verify, "_orbit_states", orbit)
        monkeypatch.setattr(verify, "_panel_values", gauge)
        monkeypatch.setattr(verify, "_defect", defect)
        assert main(["scan", "--branch", "mm", "--grid", "0.4:1.0:4,8.0:12.0:4",
                     "--out", os.devnull]) == 0
        assert counts == {"orbit": [5 * 4], "gauge": [4 * 4], "r1": 1}

    @staticmethod
    def _time_node_failure(monkeypatch, paired):
        # a time node the sigma_z = -1 orbit cannot evaluate fails that
        # node's state; the point still gets P, r1 and r2 and a
        # StencilOutOfDomain note, on both of that orbit's slopes when they
        # are evaluated together, and the other orbit's pair is clean
        from cnlse_ansatz import RealityViolation, verify

        node = 0.4 + DiffConfig().h_t
        orbit_states = verify._orbit_states

        def orbit(params, ts):
            states = orbit_states(params, ts)
            i = list(ts).index(node)
            states[-1].errors[i] = RealityViolation("node out of the domain")
            states[-1].sqrt_z[i] = states[-1].scalars[:, i] = np.nan  # as a failed state reads
            return states

        monkeypatch.setattr(verify, "_orbit_states", orbit)
        pars = [with_branch(REFERENCE_PARAMS, -1, s) for s in ((1, -1) if paired else (-1,))]
        reps = (verify.reports_at(verify._TimeRow(pars[0], 0.4), pars[0], 0.5, (1, -1)) if paired
                else [report_at(pars[0], 0.5, 0.4)])
        for p, rep in zip(pars, reps):
            assert rep.notes == "StencilOutOfDomain"
            assert np.isnan(rep.pde_abs)
            assert (rep.P, rep.r1, rep.r2) == (
                residual_P(p, 0.5, 0.4), residual_R1(p, 0.4), residual_R2(p, 0.5, 0.4))
            assert rep.r1 < 1e-8 and rep.r2 < 1e-8
        if paired:
            p = with_branch(REFERENCE_PARAMS, 1, 1)
            other = verify.reports_at(verify._TimeRow(p, 0.4), p, 0.5, (1, -1))
            assert [rep.notes for rep in other] == ["", ""]

    def test_time_node_failure_keeps_the_point(self, monkeypatch):
        self._time_node_failure(monkeypatch, paired=False)

    def test_time_node_failure_keeps_the_pair(self, monkeypatch):
        self._time_node_failure(monkeypatch, paired=True)

    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("where, note", [
        ("_orbit_states", "RealityViolation"),
        ("_panel_values", "StencilOutOfDomain"),
    ])
    def test_an_orbit_failure_is_that_orbits_alone(self, monkeypatch, where, note, paired):
        # the sigma_z = +1 orbit fails at t, or in the gauge batch of its
        # time nodes: its branches note it, while the sigma_z = -1 branches,
        # which share the row, report what they report without the
        # failure; the same when each orbit's two slopes are evaluated
        # together
        from cnlse_ansatz import RealityViolation, verify

        real = getattr(verify, where)

        def failing(*args):
            values = real(*args)
            error = RealityViolation("orbit out of the domain")
            if where == "_panel_values":  # every row of the orbit's panels
                values[1] = (np.full_like(values[1][0], np.nan), [error])
            else:  # the orbit's state at t, as a failed state reads
                values[1].errors[0] = error
                values[1].sqrt_z[0] = values[1].scalars[:, 0] = np.nan
            return values

        def reports():
            if paired:
                row = verify._TimeRow(REFERENCE_PARAMS, 0.4)
                return {b: rep for sz, names in ((1, ("pp", "pm")), (-1, ("mp", "mm")))
                        for b, rep in zip(names, verify.reports_at(
                            row, with_branch(REFERENCE_PARAMS, sz, 1), 0.5, (1, -1)))}
            return {b: report_at(with_branch(REFERENCE_PARAMS, *BRANCHES[b]), 0.5, 0.4)
                    for b in ("pp", "pm", "mp", "mm")}

        want = reports()
        monkeypatch.setattr(verify, where, failing)
        got = reports()
        assert got["pp"].notes == got["pm"].notes == note
        assert (got["mp"], got["mm"]) == (want["mp"], want["mm"])
        assert want["mm"].notes == ""

    def test_failure_is_noted_not_raised(self, monkeypatch):
        from cnlse_ansatz import verify

        # the x stencil's values come out non-finite
        real = verify._stencil_residuals

        def bad(xvs, *args):
            return real([np.full(np.shape(xv), np.nan, dtype=complex) for xv in xvs], *args)

        monkeypatch.setattr(verify, "_stencil_residuals", bad)
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        rep = report_at(p, 0.5, 0.4)
        assert "StencilOutOfDomain" in rep.notes
        assert np.isnan(rep.pde_abs)

    def test_long_time_identity(self):
        # Re e^{-i phi} (i A_t + A_xx + q A |A|^2) cancels through the
        # profile ODE, so pde_abs = |P|; at t = 1000 the FD time stencil
        # samples the gauge B at t reduced by whole periods (measured 5.1e-11)
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = report_at(p, 1.0, 1000.0)
        assert rep.notes == ""
        assert abs(rep.pde_abs - abs(rep.P)) <= 1e-9 * max(1.0, abs(rep.P))

    @staticmethod
    def _gaps(x, t):
        # |pde_abs - |P|| / max(1, |P|) at (x, t) on every branch without a note
        row = verify._TimeRow(REFERENCE_PARAMS, t)
        reps = [rep for sz in (1, -1)
                for rep in verify.reports_at(row, with_branch(REFERENCE_PARAMS, sz, 1), x, (1, -1))]
        return [abs(rep.pde_abs - abs(rep.P)) / max(1.0, abs(rep.P))
                for rep in reps if not rep.notes]

    def test_default_scan_reads_the_identity(self):
        # the gauge B differs from A by a constant phase, and no node of its
        # stencil carries a rounded e^{i phi(s)}: on the default scan's 395
        # clean points the gap is at most 1.1e-9 (1.9e-7 sampling A)
        xs, ts = np.linspace(0.2, 1.2, 10), np.linspace(0.2, 1.2, 10)
        gaps = [g for t in ts for x in xs for g in self._gaps(x, t)]
        assert len(gaps) == 395
        assert max(gaps) <= 1.5e-9

    @pytest.mark.parametrize("t, tol", [
        (1e3, 3e-9), (5115.1, 3e-9), (1e4, 3e-9), (1e17, 3e-9), (-1e17, 3e-9), (1e6, 3e-8),
        (1e9, 3e-9), (1e12, 3e-9),
    ])
    def test_long_times_read_the_identity(self, t, tol):
        # P and the stencil both read t reduced by whole periods, where the
        # spacing of floats is that of t < 2w: measured at most 7.3e-10, and
        # 7.5e-9 on mm at t = 1e6, where r = 1.832 lies next to a band at
        # x = 1 in which the closed form loses digits that the FD stencil
        # amplifies (P is 3.8e-12 off the oracle there, pde_abs 7.5e-9)
        gaps = self._gaps(1.0, t)
        assert len(gaps) >= 3
        assert max(gaps) <= tol

    def test_long_time_needs_no_phase(self, monkeypatch):
        # P, r1, r2 and the profile curve never read the phase, so at
        # t = 1e4 they run no phase quadrature
        from cnlse_ansatz import ansatz

        def no_phase(*args):
            raise AssertionError("phase computed")

        monkeypatch.setattr(ansatz, "phi_of_t", no_phase)
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        assert residual_R1(p, 1e4) <= 1e-8
        assert np.all(np.isfinite(dataclasses.astuple(q_curve(p, 1e4))[:5]))
        assert np.isfinite(residual_P(p, 1.0, 1e4))
        assert residual_R2(p, 1.0, 1e4) <= 1e-8

    @pytest.mark.parametrize("x", [1e5, 1e7, 1e300])
    def test_far_out_pde_reads_the_reduced_point(self, x):
        # the PDE stencil reduces x by whole profile periods, as P and r2
        # do, so far out it still reads |P|, not the spacing of floats at x
        for branch in ("pp", "pm", "mp", "mm"):
            rep = report_at(with_branch(REFERENCE_PARAMS, *BRANCHES[branch]), x, 1.0)
            assert rep.notes == ""
            assert abs(rep.pde_abs - abs(rep.P)) / max(1.0, abs(rep.P)) <= 2e-7

    def test_serialization_order(self):
        rep = ResidualReport(
            x=1.0, t=2.0, sigma_z=1, sigma_q=-1,
            P=0.1, r1=1e-12, r2=2e-12, pde_abs=0.3, notes="n",
        )
        # the JSON writer reads a report's fields in place, in this order
        assert tuple(vars(rep)) == ("x", "t", "sigma_z", "sigma_q",
                                    "P", "r1", "r2", "pde_abs", "notes")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_time_or_x_raises_nonfinite_samples(self, bad):
        # no whole periods split off a non-finite t or x: the package's
        # own error, as z_with_rate and Q_of_xt raise it, at t and at x
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        calls = [lambda: report_at(p, 1.0, bad), lambda: residual_P(p, 1.0, bad),
                 lambda: residual_R1(p, bad), lambda: residual_R2(p, 1.0, bad),
                 lambda: phi_of_t(p, bad), lambda: phi_of_t(p, np.array([0.5, bad])),
                 lambda: report_at(p, bad, 0.4), lambda: residual_P(p, bad, 0.4),
                 lambda: residual_R2(p, bad, 0.4)]
        for call in calls:
            with pytest.raises(NonFiniteSamples):
                call()


def _fields(rep):
    # repr is exact for floats and reads nan as nan, so nan equals nan
    return [repr(v) for v in dataclasses.astuple(rep)]


def _time_row(columns, k=0):
    # time row k of row_reports' columns as reports: per x, one per sign
    fields = [c[:, k].tolist() for c in columns.values()]
    return [[ResidualReport(*(f[i][j] for f in fields)) for i in range(len(fields[0]))]
            for j in range(len(fields[0][0]))]


class TestReportsAt:
    @pytest.mark.parametrize("grid", [
        "0.2:1.2:10,0.2:1.2:10",
        "2.13:2.15:5,0.9:1.1:3",
        "-0.5:0.5:5,-0.5:0.5:5",
        "0.978:0.978:1,0.311:0.311:1",
    ])
    def test_pair_equals_one_sign_reports(self, grid):
        # both profile slopes from one call per stencil are the one-sign
        # reports, field for field, notes included
        from cnlse_ansatz.cli import _parse_grid
        from cnlse_ansatz.verify import reports_at

        xs, ts = _parse_grid(grid)
        for t in ts:
            for x in xs:
                for sz in (1, -1):
                    pars = [with_branch(REFERENCE_PARAMS, sz, s) for s in (1, -1)]
                    pair = reports_at(verify._TimeRow(pars[0], t), pars[0], x, (1, -1))
                    alone = [report_at(p, x, t) for p in pars]
                    assert list(map(_fields, pair)) == list(map(_fields, alone))

    def test_a_pole_note_is_each_slopes_own(self):
        # at (2.14, 1) pp is next to a profile pole and its partner pm is not
        from cnlse_ansatz.verify import reports_at

        p = with_branch(REFERENCE_PARAMS, 1, 1)
        pp, pm = reports_at(verify._TimeRow(p, 1.0), p, 2.14, (1, -1))
        assert (pp.notes, pm.notes) == ("pole_adjacent", "")
        assert np.isfinite(pm.pde_abs) and abs(pm.P) < 1.0

    def test_time_nodes_read_the_profile_lattice_at_r(self, monkeypatch):
        # the PDE's time nodes read Q at x from the wp part of P, on the
        # profile lattice at r, with their own scalars R^(k)(Q0): that
        # lattice does not move with t, so each node's Q is its own closed
        # form's to 1e-13 guarded
        from cnlse_ansatz.verify import reports_at

        seen, real = [], verify._stencil_residuals
        monkeypatch.setattr(verify, "_stencil_residuals",
                            lambda xvs, tvs, *args: seen.append(tvs) or real(xvs, tvs, *args))
        worst, clean = 0.0, 0
        for x, t in np.random.default_rng(22).uniform(0.05, 3.0, (15, 2)):
            for sz in (1, -1):
                p = with_branch(REFERENCE_PARAMS, sz, 1)
                row = verify._TimeRow(p, t)
                if any(rep.notes for rep in reports_at(row, p, x, (1, -1))):
                    continue
                xr = row.table((x,))[0][0]
                orbit = row.states[sz]
                for i, s in enumerate(row.ts[0, 1:], 1):
                    curve = _q_curve_from_state(p, orbit.z[i], orbit.zt[i])
                    gauge = row.gauges[sz][0, i - 1, 0]
                    for sq, a in zip((1, -1), seen[-1][:, 0, 0, i]):
                        want = quartic.weierstrass_solution(curve, p.Q0, sq, xr)
                        q = (a / gauge - 1j * orbit.sqrt_z[i]).real
                        worst = max(worst, abs(q - want) / max(1.0, abs(want)))
                clean += 1
        assert clean >= 20
        assert worst <= 1e-13


class TestRowReports:
    # the floats on either side of the pp profile pole at t = 1, where the
    # closed form's denominator changes sign
    POLE = (2.138636624931717, 2.1386366249317175)
    # x far out and next to 0, and on and next to whole profile periods,
    # where an r2 stencil node lands on a period
    EDGES = [1e17, -1e17, 1e-11, -1e-11,
             *(k * PROFILE_PERIOD + d for k in (1, -1, 1000) for d in (0.0, -5e-4, 5e-4))]

    @staticmethod
    def one_x(params, xs, t, sigmas=(1, -1)):
        # each x on a time row of its own
        return [verify.reports_at(verify._TimeRow(params, t), params, x, sigmas) for x in xs]

    @staticmethod
    def fields(reports):
        return [list(map(_fields, reps)) for reps in reports]

    @pytest.mark.parametrize("xs, t", [
        ([0.0], 0.7),
        ([-0.4, 0.0, 0.4], 0.0),
        # both sides of the profile period 2w = 5.4921, and of -2w
        (list(np.linspace(5.4915, 5.4925, 9)) + [-5.4921, 5.4921 + 1e-12], 0.9),
        ([0.2, 1.0, 3.0, 11.0, 1e5], 1.0),
        ([2.13, *POLE, 2.14, 2.15, 2.2, 2.3], 1.0),
        ([1e17, -1e17, 1e-11, -1e-11], 1.0),
        ([k * PROFILE_PERIOD for k in (1, -1, 1000)], 0.9),
    ])
    def test_a_row_is_its_one_x_calls(self, xs, t):
        # a row's reports are its one-x calls, field for field, the floats
        # to the bit and the notes equal
        for sz in (1, -1):
            p = with_branch(REFERENCE_PARAMS, sz, 1)
            row = _time_row(verify.row_reports(verify._TimeRow(p, t), p, xs, (1, -1)))
            assert self.fields(row) == self.fields(self.one_x(p, xs, t))

    def test_a_row_holds_a_pole_adjacent_and_clean_points(self):
        p = with_branch(REFERENCE_PARAMS, 1, 1)
        xs = [2.13, *self.POLE, 2.3]
        reps = _time_row(verify.row_reports(verify._TimeRow(p, 1.0), p, xs, (1, -1)))
        assert [[rep.notes for rep in r] for r in reps] == (
            [["pole_adjacent", ""]] * 3 + [["", ""]])
        assert abs(reps[1][0].P) > 1e27 and abs(reps[2][0].P) > 1e27

    @pytest.mark.parametrize("t", [0.5333333333333333, 0.7555555555555555, 1.2])
    def test_an_orbit_that_fails_on_the_row(self, t):
        # at c2 = 0.8 the profile curve has no real slope at Q0 on one
        # orbit at these times (on both at t = 1.2): that orbit's every x
        # reads NegativeRadicand, the other's its own reports
        p0 = dataclasses.replace(REFERENCE_PARAMS, c2=0.8)
        xs = list(np.linspace(0.2, 1.2, 7))
        failed = set()
        for sz in (1, -1):
            p = with_branch(p0, sz, 1)
            row = _time_row(verify.row_reports(verify._TimeRow(p, t), p, xs, (1, -1)))
            assert self.fields(row) == self.fields(self.one_x(p, xs, t))
            if {rep.notes for reps in row for rep in reps} == {"NegativeRadicand"}:
                failed.add(sz)
        assert failed == ({1, -1} if t == 1.2 else {1} if t < 0.6 else {-1})

    def test_a_failing_wp_call_is_its_xs_own(self, monkeypatch):
        # a wp evaluation that raises at one x fails the stack's one shared
        # profile call, (nx, 3, 5) for P's point and the x stencils, which no
        # x retries alone: the row does not raise, and every x and sign
        # carries the error with nan numbers
        p, xs, t = with_branch(REFERENCE_PARAMS, -1, 1), [0.3, 0.7, 1.1], 0.4
        real = verify._closed_form_parts

        def parts(curve, xi):
            if np.any(np.asarray(xi) == 0.7):
                raise PoleProximity("wp argument on a lattice point")
            return real(curve, xi)

        monkeypatch.setattr(verify, "_closed_form_parts", parts)
        got = _time_row(verify.row_reports(verify._TimeRow(p, t), p, xs, (1, -1)))
        assert [[rep.notes for rep in reps] for reps in got] == [["PoleProximity"] * 2] * 3
        assert all(np.isnan(v) for reps in got for rep in reps
                   for v in (rep.P, rep.r1, rep.r2, rep.pde_abs))

    def test_no_shared_call_raises_at_the_edges(self, monkeypatch):
        # why no x is retried alone: the shared calls read x reduced by the
        # real period wp folds by, and an element inside the pole guard moved
        # out to it, so no wp argument folds onto the pole, on any branch
        raised, real = [], verify._closed_form_parts

        def spy(curve, xi):
            try:
                return real(curve, xi)
            except Exception as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(verify, "_closed_form_parts", spy)
        for t in (0.0, 0.4, 1.0, 1e6):
            for sz in (1, -1):
                p = with_branch(REFERENCE_PARAMS, sz, 1)
                reps = _time_row(verify.row_reports(
                    verify._TimeRow(p, t), p, self.EDGES, (1, -1)))
                assert not any("PoleProximity" in rep.notes for r in reps for rep in r)
        assert raised == []

    @pytest.mark.parametrize("pole, adjacent, stencil",
                             list(itertools.product((False, True), repeat=3)))
    def test_a_note_code_reads_its_names_in_order(self, pole, adjacent, stencil):
        # a point's note is the table entry of its mask bits: the names of
        # the masks it is in, joined in the order pole, pole_adjacent,
        # StencilOutOfDomain, as one join per point wrote them
        masks = [("pole", pole), ("pole_adjacent", adjacent), ("StencilOutOfDomain", stencil)]
        code = pole + 2 * adjacent + 4 * stencil
        assert verify._NOTES[code] == ";".join(name for name, mask in masks if mask)
        # and code 8, past the masks: a number not finite for none of their reasons
        assert verify._NOTES[8:] == ("nonfinite",)

    def test_a_row_has_no_per_x_differencing(self, monkeypatch):
        # a row's differences are taken on arrays: as many difference calls
        # per row and orbit at 40 points as at 3
        calls, real = [], verify._central_differences
        monkeypatch.setattr(verify, "_central_differences",
                            lambda vals, h: calls.append(h) or real(vals, h))

        def count(nx):
            calls.clear()
            p = with_branch(REFERENCE_PARAMS, -1, 1)
            verify.row_reports(verify._TimeRow(p, 0.4), p, np.linspace(0.2, 1.2, nx), (1, -1))
            return len(calls)

        assert count(3) == count(40)


class TestTimeStack:
    SCAN = ["scan", "--branch", "all", "--format", "json", "--out", os.devnull]

    @pytest.mark.parametrize("rows", [1, 11])
    def test_a_scan_reads_one_profile_table(self, monkeypatch, rows):
        # the benchmark scan's grid: the orbit states, the gauges and r1 of
        # every row come from one z-lattice call each, and the profile
        # lattice's one table serves every row, orbit and x, so the count of
        # wp calls does not grow with the rows
        from cnlse_ansatz.cli import main

        calls, real = [], quartic.wp_pair
        monkeypatch.setattr(quartic, "wp_pair", lambda u, inv: calls.append(inv) or real(u, inv))
        assert main(["scan", "--grid", f"0.2:1.2:11,0.2:1.2:{rows}", *self.SCAN[1:]]) == 0
        assert len(calls) == 4 <= 6
        assert sum(inv == profile_lattice(REFERENCE_PARAMS) for inv in calls) == 1

    @pytest.mark.parametrize("rows", [1, 11])
    def test_a_scan_builds_the_profile_lattice_per_batch(self, monkeypatch, rows):
        # the orbit states of a stack take one lattice for all their curves,
        # which the stepped curves of P's Q_t and the table read too, so the
        # lattices built do not grow with the rows: the parameters' three
        # records (the run's and each orbit's) and the states
        from cnlse_ansatz import ansatz
        from cnlse_ansatz.cli import main

        calls, real = [], ansatz.profile_lattice
        spy = lambda params: calls.append(params) or real(params)  # noqa: E731
        for module in (ansatz, verify):  # verify, if it builds one of its own
            monkeypatch.setattr(module, "profile_lattice", spy, raising=False)
        assert main(["scan", "--grid", f"0.2:1.2:11,0.2:1.2:{rows}", *self.SCAN[1:]]) == 0
        assert len(calls) == 4

    def test_a_stack_is_its_one_row_calls(self):
        # at c2 = 0.8 the +1 orbit fails on the early rows of this grid and
        # the -1 orbit on the late ones (NegativeRadicand): the stacked
        # reports are each row's own call, field for field, notes included
        p0 = dataclasses.replace(REFERENCE_PARAMS, c2=0.8)
        xs, ts = np.linspace(0.2, 1.2, 4), np.linspace(0.2, 3.0, 8)
        for sz in (1, -1):
            p = with_branch(p0, sz, 1)
            columns = verify.row_reports(verify._TimeRow(p, ts), p, xs, (1, -1))
            stack = [_time_row(columns, k) for k in range(len(ts))]
            alone = [_time_row(verify.row_reports(verify._TimeRow(p, t), p, xs, (1, -1)))
                     for t in ts]
            assert [[list(map(_fields, r)) for r in reps] for reps in stack] == (
                [[list(map(_fields, r)) for r in reps] for reps in alone])
            notes = [{rep.notes for r in reps for rep in r} for reps in stack]
            assert {"NegativeRadicand"} in notes and any("NegativeRadicand" not in n for n in notes)
