import math
import os
import subprocess
import sys
import types
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnlse_ansatz import (
    AnsatzParams,
    BRANCHES,
    NegativeRadicand,
    NonFiniteSamples,
    Q_of_xt,
    PoleProximity,
    RealityViolation,
    REFERENCE_PARAMS,
    eval_with_derivatives,
    field_A,
    invariants_from_coefficients,
    phi_of_t,
    q_curve,
    real_period,
    weierstrass_solution,
    with_branch,
    z_curve,
    z_with_rate,
)
from cnlse_ansatz import ansatz
from cnlse_ansatz.ansatz import (
    PHASE_NODES,
    PHASE_PANEL,
    _GL_W as GL_W,
    _GL_X as GL_X,
    _orbit_states,
    _q_curve_from_state,
    _require_real_z,
    _split_periods,
    _z_integrals,
)
from cnlse_ansatz.verify import DiffConfig, _stencil_offsets

from _pins import (
    A_AT_1_05_MM,
    A_AT_1_1,
    PHI,
    Q_AT_1_0,
    Q_AT_1_1,
    Q_CURVE_T0,
    Q_CURVE_T1,
    R1_ROOTS,
    Z_ORBIT,
    Z_PERIOD_INTEGRAL,
    Z_REAL_PERIOD,
)

# Rate quartic -32 z (z - 1)^2 (2z + 1): a double root at z0 = 1, so z(t)
# never leaves its starting level.  Exact in float arithmetic.
EQUILIBRIUM_PARAMS = AnsatzParams(q=-2.0, c1=-3.0, c2=1.125, c3=-8.0, z0=1.0, Q0=1.0)

# Real period 2w of the z-curve lattice at the reference parameters.
PERIOD = real_period(invariants_from_coefficients(z_curve(REFERENCE_PARAMS)))


def far_tol(tol, t):
    """A pin tolerance widened for a distant time: the float invariants'
    period is off the exact one by about an ulp, which t / 2w periods
    accumulate into a drift of about 1e-16 |t| times the rate."""
    return max(tol, 1e-15 * abs(t))


class TestParams:
    def test_reference_values(self):
        p = REFERENCE_PARAMS
        assert (p.q, p.c1, p.c2, p.c3) == (-1.0, -2.0, 0.4, 0.13)
        assert (p.z0, p.Q0, p.phi0) == (1.0, 1.0, 0.0)
        assert (p.sigma_z, p.sigma_Q) == (1, 1)

    def test_q_must_be_nonzero(self):
        with pytest.raises(ValueError):
            AnsatzParams(q=0.0, c1=1.0, c2=0.0, c3=0.0, z0=1.0, Q0=1.0)

    def test_z0_must_be_positive(self):
        with pytest.raises(ValueError):
            AnsatzParams(q=-1.0, c1=-2.0, c2=0.4, c3=0.13, z0=-1.0, Q0=1.0)

    def test_z0_outside_orbit_rejected(self):
        # R1(2) < 0 for the reference c's: no real starting slope
        with pytest.raises(NegativeRadicand):
            AnsatzParams(q=-1.0, c1=-2.0, c2=0.4, c3=0.13, z0=2.0, Q0=1.0)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            AnsatzParams(q=-1.0, c1=-2.0, c2=0.4, c3=0.13, z0=1.0, Q0=1.0, sigma_z=0)

    def test_with_branch(self):
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            assert (p.sigma_z, p.sigma_Q) == (sz, sq)
            assert p.q == REFERENCE_PARAMS.q

    def test_branch_table(self):
        assert BRANCHES == {
            "pp": (1, 1), "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)
        }


class TestZCurve:
    def test_reference_coefficients(self):
        c = z_curve(REFERENCE_PARAMS)
        assert (c.alpha, c.beta, c.delta, c.epsilon) == (-16.0, 8.0, 0.13, 0.0)
        assert c.gamma == pytest.approx(-1.6, abs=1e-15)

    def test_trivial_coefficients(self):
        # z_curve only reads (q, c1, c2, c3); probe coefficient wiring with
        # bare records, skipping the orbit validation of the full parameter set
        p = types.SimpleNamespace(q=1.0, c1=0.0, c2=0.0, c3=0.0)
        c = z_curve(p)
        assert (c.alpha, c.beta, c.gamma, c.delta, c.epsilon) == (-16, 0, 0, 0, 0)
        p = types.SimpleNamespace(q=-1.0, c1=0.0, c2=0.0, c3=1.0)
        c = z_curve(p)
        assert (c.alpha, c.beta, c.gamma, c.delta, c.epsilon) == (-16, 0, 0, 1, 0)


class TestOrbit:
    def test_z_at_zero_exact(self):
        assert z_with_rate(REFERENCE_PARAMS, 0.0)[0] == 1.0

    def test_orbit_pins(self):
        for (sigma, t), (z_want, zt_want) in Z_ORBIT.items():
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            z, zt = z_with_rate(p, t)
            assert abs(z - z_want) < far_tol(1e-12, t), (sigma, t)
            assert abs(zt - zt_want) < far_tol(1e-11, t), (sigma, t)

    def test_rate_continues_through_turning_point(self):
        # sigma_z=-1 reaches the lower turning point near t ~ 0.96 and the
        # rate changes sign smoothly (no |sqrt| kink)
        p = with_branch(REFERENCE_PARAMS, -1, 1)
        rates = [z_with_rate(p, t)[1] for t in np.linspace(0.85, 1.1, 61)]
        assert min(rates) < 0.0 < max(rates)
        steps = np.diff(rates)
        assert np.max(np.abs(steps)) < 0.05  # smooth, no jump

    def test_equilibrium_orbit(self):
        # double root of the rate quartic at z0 = 1: with q = -2, c1 = -3,
        # c2 = 9/8, c3 = -8 the quartic is -32 z (z - 1)^2 (2z + 1), zero
        # with zero slope at 1 in exact float arithmetic, so z stays put
        for t in (0.0, 0.3, 1.0, 2.5):
            assert z_with_rate(EQUILIBRIUM_PARAMS, t)[0] == 1.0
            assert z_with_rate(EQUILIBRIUM_PARAMS, t)[1] == 0.0

    def test_orbit_stays_in_lobe(self):
        for sigma in (1, -1):
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            ts = np.linspace(0.0, 3.0, 301)
            zs = np.array([z_with_rate(p, float(t))[0] for t in ts])
            assert np.all(zs > 0.28)
            assert np.all(zs < 1.65)

    @settings(max_examples=60, deadline=None)
    @given(sigma=st.sampled_from((1, -1)), t=st.floats(-30.0, 30.0))
    def test_orbit_is_periodic(self, sigma, t):
        p = with_branch(REFERENCE_PARAMS, sigma, 1)
        z, zt = z_with_rate(p, t)
        z_next, zt_next = z_with_rate(p, t + PERIOD)
        assert abs(z_next - z) < 1e-12
        assert abs(zt_next - zt) < 1e-11

    def test_orbit_stays_in_lobe_past_t_5115(self):
        # 2048 periods out, where an unfolded argument needs 14 halvings
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        zs = [z_with_rate(p, float(t))[0] for t in np.linspace(5114.9, 5115.2, 301)]
        assert R1_ROOTS[2] - 1e-9 < min(zs) and max(zs) < R1_ROOTS[3] + 1e-9

    def test_wide_batch_matches_scalar(self):
        # each time of a batch is a row of its own and keeps the halving
        # depth it has alone, so far-apart times read the scalar calls' bits
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        for ts in (np.array([0.1, 0.3, 99.0]), np.linspace(0.0, 14.0, 200)):
            z, zt = z_with_rate(p, ts)
            for t, zb, ztb in zip(ts, z, zt):
                assert (zb, ztb) == z_with_rate(p, float(t)), t

    def test_reality_guard(self):
        # unreachable end to end with the shipped evaluator (the orbit is
        # bounded below by z = 0); exercised directly
        with pytest.raises(RealityViolation):
            _require_real_z(np.array([0.5, -1e-6]), np.array([0.0, 1.0]))


class TestQCurve:
    def test_t0_coefficients(self):
        a, b, g, d_abs, e = Q_CURVE_T0
        for sigma in (1, -1):
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            c = q_curve(p, 0.0)
            assert abs(c.alpha - a) < 1e-14
            assert c.beta == b
            assert abs(c.gamma - g) < 1e-14
            assert abs(c.delta - sigma * d_abs) < 1e-12
            assert abs(c.epsilon - e) < 1e-14

    def test_t1_coefficients(self):
        for sigma in (1, -1):
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            c = q_curve(p, 1.0)
            g, d, e = Q_CURVE_T1[sigma]
            assert abs(c.gamma - g) < 1e-12
            assert abs(c.delta - d) < 1e-12
            assert abs(c.epsilon - e) < 1e-12

    def test_delta_zero_at_equilibrium(self):
        assert q_curve(EQUILIBRIUM_PARAMS, 0.7).delta == 0.0

    def test_guard_rejects_nonpositive_z(self):
        with pytest.raises(RealityViolation):
            _q_curve_from_state(REFERENCE_PARAMS, -0.5, 0.0)
        with pytest.raises(RealityViolation):
            _q_curve_from_state(REFERENCE_PARAMS, 0.0, 0.0)


class TestProfile:
    def test_anchor_exact(self):
        for t in (0.0, 0.37, 1.0):
            assert Q_of_xt(REFERENCE_PARAMS, 0.0, t) == REFERENCE_PARAMS.Q0

    def test_profile_pins(self):
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            got = Q_of_xt(p, 1.0, 1.0)
            assert abs(got - Q_AT_1_1[name]) < 1e-10, name
            got0 = Q_of_xt(p, 1.0, 0.0)
            assert abs(got0 - Q_AT_1_0[name]) < 1e-10 * abs(Q_AT_1_0[name]), name

    def test_negative_radicand_for_flipped_q(self):
        # positive q makes the Q-curve open downward at Q0 for these c's
        p = AnsatzParams(q=2.0, c1=-2.0, c2=-0.4, c3=0.13, z0=0.05, Q0=9.0)
        with pytest.raises(NegativeRadicand):
            Q_of_xt(p, 0.5, 0.0)


class TestPhase:
    def test_phi_at_zero(self):
        assert phi_of_t(REFERENCE_PARAMS, 0.0) == REFERENCE_PARAMS.phi0

    def test_phi_pins(self):
        for (sigma, t), want in PHI.items():
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            assert abs(phi_of_t(p, t) - want) < far_tol(1e-13, t), (sigma, t)

    def test_phi_offset(self):
        p = with_branch(REFERENCE_PARAMS, 1, 1)
        shifted = AnsatzParams(
            q=p.q, c1=p.c1, c2=p.c2, c3=p.c3, z0=p.z0, Q0=p.Q0, phi0=0.25
        )
        assert abs(phi_of_t(shifted, 0.5) - (PHI[(1, 0.5)] + 0.25)) < 1e-13

    def test_negative_time_reverses_branch(self):
        # z(-t) on one branch is z(t) on the other, so the phase integral
        # over [0, -t] is minus the pinned one of the opposite branch
        for (sigma, t), want in PHI.items():
            p = with_branch(REFERENCE_PARAMS, -sigma, 1)
            assert abs(phi_of_t(p, -t) + want) < far_tol(1e-13, t), (sigma, t)

    def test_period_pin(self):
        assert PERIOD == pytest.approx(Z_REAL_PERIOD, rel=2e-16)

    def test_period_integral_pin(self):
        # one period's integral, in either direction and on either branch
        for sigma in (1, -1):
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            for sign in (1.0, -1.0):
                whole = _z_integrals(z_curve(p), p.z0, np.array([sign * PERIOD]))[sigma][0]
                assert sign * whole == pytest.approx(Z_PERIOD_INTEGRAL, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 3, 400])
    def test_continuous_at_whole_periods(self, k):
        # below k 2w the phase sums k - 1 periods and a remainder close to
        # 2w, from k 2w on it sums k periods: the two must join
        for sigma in (1, -1):
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            for t in (k * PERIOD, -k * PERIOD):
                below = np.nextafter(t, 0.0)
                rate = p.c1 - 2.0 * p.q * z_with_rate(p, t)[0]
                jump = phi_of_t(p, t) - phi_of_t(p, below) - rate * (t - below)
                assert abs(jump) <= 4.0 * np.spacing(abs(phi_of_t(p, t))), (sigma, t)

    @pytest.mark.parametrize("t", [
        0.25, 0.5, 2.25, 2.5, 4.0, 4.25, 12.5,
        PERIOD, 3 * PERIOD, 3 * PERIOD + 0.5, 3 * PERIOD + 2.25,
    ])
    def test_continuous_at_panel_edges(self, t):
        # at a multiple of PHASE_PANEL the whole panels gain one and the
        # partial panel starts again, at width 0; at fl(2w) the period count
        # gains one (4.0 and beyond lie past one period, so they are reduced
        # by it first)
        for sigma in (1, -1):
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            for edge in (t, -t):
                below = np.nextafter(edge, 0.0)
                rate = p.c1 - 2.0 * p.q * z_with_rate(p, edge)[0]
                jump = phi_of_t(p, edge) - phi_of_t(p, below) - rate * (edge - below)
                assert abs(jump) <= 4.0 * np.spacing(abs(phi_of_t(p, edge))), (sigma, edge)

    def test_matches_the_plain_composite_rule(self):
        # one batch over every panel of [0, t], as the phase was summed
        # before the period reduction and the table of whole panels
        rng = np.random.default_rng(2024)
        for t in rng.uniform(-20.0, 20.0, 200):
            p = with_branch(REFERENCE_PARAMS, int(rng.choice([1, -1])), 1)
            edges = math.copysign(1.0, t) * np.append(np.arange(0.0, abs(t), PHASE_PANEL), abs(t))
            half = 0.5 * np.diff(edges)[:, None]
            nodes = edges[:-1, None] + half * (1.0 + GL_X)
            z = weierstrass_solution(z_curve(p), p.z0, p.sigma_z, nodes.ravel())
            want = p.phi0 + p.c1 * t - 2.0 * p.q * np.sum(half * GL_W * z.reshape(nodes.shape))
            got = phi_of_t(p, t)
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (p.sigma_z, t)

    def test_table_bits_do_not_depend_on_the_order_of_times(self, monkeypatch):
        # every panel is one row of a batch and the whole panels are summed
        # from 0 outward, so a time asked for after far ones, or with them,
        # reads the bits it reads first; t = +-40 reduces below one period,
        # so the check runs again without a real period, where it sums 160
        # whole panels each way; times on a panel edge end on a partial
        # panel of width 0
        p = with_branch(REFERENCE_PARAMS, -1, 1)

        def check(ts):
            first = [phi_of_t(p, t) for t in ts]
            phi_of_t(p, 40.0), phi_of_t(p, -40.0)
            assert [phi_of_t(p, t) for t in reversed(ts)] == first[::-1]
            assert phi_of_t(p, np.array(ts + (40.0, -40.0)))[:len(ts)].tolist() == first

        check((0.3, 1.7, 2.4, -0.9, -2.2, 0.25, -2.0, 0.0))
        monkeypatch.setattr(ansatz, "real_period", lambda inv: None)
        check((0.3, 1.7, 2.4, -0.9, -2.2, 5.3, -7.9, 0.25, -2.0, 0.0, 6.0, -7.75))

    def test_gauss_legendre_table_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(PHASE_NODES)
        assert np.array_equal(GL_X, nodes)
        assert np.array_equal(GL_W, weights)

    def test_cli_import_leaves_numpy_polynomial_out(self):
        # the table is literal, so the command line never loads numpy.polynomial
        src = str(Path(ansatz.__file__).resolve().parents[1])
        code = "import sys, cnlse_ansatz.cli; print('numpy.polynomial' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_without_a_real_period_the_table_spans_t(self, monkeypatch):
        # a lattice without a real period reads the plain integral over
        # [0, t] from the same running sum of whole panels, past one period
        p = with_branch(REFERENCE_PARAMS, 1, 1)
        ts = (9.3, -9.3, 17.1, -17.1)
        reduced = [phi_of_t(p, t) for t in ts]
        monkeypatch.setattr(ansatz, "real_period", lambda inv: None)
        for t, want in zip(ts, reduced):
            got = phi_of_t(p, t)
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), t

    def test_one_panel_batch_per_call(self, monkeypatch):
        # every panel a time needs, whole or partial, is a row of one
        # closed-form call: t = 0.3 reads [0, 0.25] and [0.25, 0.3], and
        # t = 7.3 = 2 (2w) + 2.305 the 9 whole panels that 2.305 and 2w
        # share, and the partial panel of each
        p, calls = with_branch(REFERENCE_PARAMS, 1, 1), []
        panel_values = ansatz._panel_values

        def counted(curve, z0, lo, hi):
            calls.append(hi.shape)
            return panel_values(curve, z0, lo, hi)

        monkeypatch.setattr(ansatz, "_panel_values", counted)
        phi_of_t(p, 0.3)
        assert calls == [(2, 1)]
        calls.clear()
        phi_of_t(p, 7.3)
        assert calls == [(9 + 2, 1)]

    def test_split_periods_on_an_array_is_the_scalar_rule(self):
        # the array split reads, element by element, the bits of the
        # scalar rule: k = floor(|t| / 2w) and r = copysign(|t| - k 2w, t),
        # also where k is beyond an int64 and at the float neighbours of
        # whole periods, and without a real period k = 0 and r = t
        def scalar(period, t):
            k = 0 if period is None else math.floor(abs(t) / period)
            return k, (math.copysign(abs(t) - k * period, t) if k else t)

        near = [np.nextafter(k * PERIOD, d) for k in (1, 3, 400) for d in (0.0, math.inf)]
        ts = [0.0, -0.0, 0.3, -2.2, 1e300, -1e17, 5115.1]
        ts += [s * t for t in [k * PERIOD for k in (1, 3, 400)] + near for s in (1.0, -1.0)]
        for period in (PERIOD, None):
            k, r = _split_periods(period, np.array(ts))
            want = [scalar(period, t) for t in ts]
            assert [float(v).hex() for v in k] == [float(kw).hex() for kw, _ in want]
            assert [v.hex() for v in r.tolist()] == [rw.hex() for _, rw in want]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_split_periods_names_the_first_non_finite_time(self, bad):
        for period in (PERIOD, None):
            with pytest.raises(NonFiniteSamples) as info:
                _split_periods(period, np.array([0.5, bad, -bad, 1e3]))
            assert str(info.value) == f"{bad} is not finite: no whole periods to split off"

    def test_equilibrium_closed_form(self):
        # constant z: phi = phi0 + (c1 - 2 q z0) t, here phi0 + t
        p = EQUILIBRIUM_PARAMS
        t = 0.8
        want = p.phi0 + (p.c1 - 2.0 * p.q * p.z0) * t
        assert abs(phi_of_t(p, t) - want) < 1e-13


class TestField:
    def test_field_pins(self):
        for name, (sz, sq) in BRANCHES.items():
            p = with_branch(REFERENCE_PARAMS, sz, sq)
            got = field_A(p, 1.0, 1.0)
            assert abs(got - A_AT_1_1[name]) < 1e-10, name
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        assert abs(field_A(p, 1.0, 0.5) - A_AT_1_05_MM) < 1e-10

    def test_modulus_squared(self):
        # |A|^2 = Q^2 + z by construction
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        x, t = 0.6, 0.9
        a = field_A(p, x, t)
        q_val = Q_of_xt(p, x, t)
        z = z_with_rate(p, t)[0]
        assert abs(abs(a) ** 2 - (q_val ** 2 + z)) < 1e-12

    def test_sampler_matches_field(self):
        # the sampler form (x, t) -> A that the stencils and the cross-check take
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        sampler = partial(field_A, p)
        xs = np.linspace(-1.0, 1.0, 11)
        batch = sampler(xs, 0.8)
        for x, got in zip(xs, batch):
            assert abs(got - field_A(p, float(x), 0.8)) < 1e-14

    def test_sampler_caches_per_time(self):
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        sampler = partial(field_A, p)
        a = sampler(0.5, 0.8)
        b = sampler(0.5, 0.8)
        assert a == b
        assert isinstance(a, complex)

    def test_state_matches_its_parts(self):
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        z, zt = z_with_rate(p, 0.8)
        assert q_curve(p, 0.8) == _q_curve_from_state(p, z, zt)
        phase = np.exp(1j * phi_of_t(p, 0.8))
        assert field_A(p, 0.5, 0.8) == (Q_of_xt(p, 0.5, 0.8) + 1j * math.sqrt(z)) * phase

    def test_field_at_origin(self):
        # A(0, 0) = (Q0 + i sqrt(z0)) e^{i phi0}
        p = REFERENCE_PARAMS
        want = (p.Q0 + 1j * math.sqrt(p.z0)) * np.exp(1j * p.phi0)
        assert abs(field_A(p, 0.0, 0.0) - want) < 1e-14


def _stencil_times():
    """Centres of the envelope's time stencil where a batch could go wrong:
    40 seeded times in [6, 14], times within 1e-5 of a panel edge, times
    across the orbit's period fl(2w) and its double, and t = 1, where the
    stencil straddles a change of the halving depth."""
    period = real_period(invariants_from_coefficients(z_curve(REFERENCE_PARAMS)))
    seeded = np.random.default_rng(20261018).uniform(6.0, 14.0, 40)
    edges = [k * PHASE_PANEL + d for k in (25, 40, 53) for d in (-1e-5, -4e-6, 0.0, 7e-6)]
    periods = [m * period + d for m in (1, 2) for d in (-8e-6, -2e-6, 0.0, 3e-6, 1e-5)]
    return [*seeded, *edges, *periods, 0.0, 1.0]


class TestStateBatch:
    @staticmethod
    def fields(orbit, i):
        # time i of an orbit's arrays: z, z_t, sqrt z, the curve, R^(k)(Q0)
        c = orbit.curve
        return (orbit.z[i], orbit.zt[i], orbit.sqrt_z[i],
                *(a[i] for a in (c.alpha, c.beta, c.gamma, c.delta, c.epsilon)),
                *orbit.scalars[:, i])

    @staticmethod
    def alone(p, t):
        # the same fields from the scalar path at t
        z, zt = z_with_rate(p, t)
        c = q_curve(p, t)
        return (z, zt, math.sqrt(z), c.alpha, c.beta, c.gamma, c.delta, c.epsilon,
                *eval_with_derivatives(c, p.Q0))

    @staticmethod
    def bits(values):
        return np.array(values, dtype=float).view(np.int64).tolist()

    @pytest.mark.parametrize("sigma", (1, -1))
    def test_stencil_batch_equals_one_time_at_a_time(self, sigma):
        # each time of a batch keeps the halving depth it has alone, in its
        # orbit state and in its phase's partial panel, so a state and a
        # phase factor have the same bits whichever batch built them, and
        # the batch of both orbits gives each the bits of its own
        p = with_branch(REFERENCE_PARAMS, sigma, -1)
        cfg = DiffConfig()
        offsets = _stencil_offsets(cfg.h_t, cfg.richardson_levels)
        for centre in _stencil_times():
            ts = centre + offsets
            orbit = _orbit_states(p, ts)[sigma]
            batch = [self.fields(orbit, i) for i in range(len(ts))]
            batch += [complex(f) for f in np.exp(1j * phi_of_t(p, ts))]
            alone, factors = [], []
            for t in ts:
                alone.append(self.alone(p, t))
                factors.append(complex(np.exp(1j * phi_of_t(p, t))))
            assert orbit.errors == [None] * len(ts)
            assert batch == alone + factors, centre

    def test_a_stack_is_its_scalar_path_field_for_field(self):
        # one stack of every stencil time, on both orbits, holds per time
        # the bits of z_with_rate, q_curve's coefficients and their
        # scalars R^(k)(Q0), signed zeros included
        ts = np.array(_stencil_times())
        states = _orbit_states(REFERENCE_PARAMS, ts)
        for sigma in (1, -1):
            p = with_branch(REFERENCE_PARAMS, sigma, 1)
            assert states[sigma].errors == [None] * len(ts)
            for i, t in enumerate(ts):
                assert self.bits(self.fields(states[sigma], i)) == self.bits(self.alone(p, t)), t

    def test_a_failure_is_its_own_orbit_and_time(self, monkeypatch):
        # z < 0 at one time of one orbit fails that state alone
        self.check_one_failure(monkeypatch, -1.0, RealityViolation,
                               "z({t:g}) = -1 < 0: sqrt(z) is not real there")

    @pytest.mark.parametrize("value, error, message", [
        (0.0, RealityViolation, "z = 0 <= 0: profile curve needs sqrt(z)"),
        (complex(math.inf, 0.0), PoleProximity, "z(t) hit a solution pole near t = {t:g}"),
        # z = 1, z_t = -5 on the reference set: R(Q0) = 2.8 + z_t
        (complex(1.0, -5.0 * ansatz.P_STEP), NegativeRadicand,
         "R(y0) = -2.2 < 0: no real slope at y0"),
    ])
    def test_each_failure_kind_is_its_own_orbit_and_time(self, monkeypatch, value, error,
                                                         message):
        # z = 0, a pole of z, or R(Q0) < 0 likewise fails one state alone
        self.check_one_failure(monkeypatch, value, error, message)

    def check_one_failure(self, monkeypatch, value, error, message):
        # a state that fails at one time of one orbit fails that time alone,
        # with the scalar code's error, and nan sqrt z and scalars; the
        # neighbouring times and the other orbit keep their bits
        real = ansatz.weierstrass_solution

        def orbit(curve, y0, sigma, xi):
            ys = real(curve, y0, sigma, xi)
            if isinstance(sigma, tuple):
                ys[1][2] = value
            return ys

        ts = 0.4 + _stencil_offsets(1e-5, 2)
        want = _orbit_states(REFERENCE_PARAMS, ts)
        monkeypatch.setattr(ansatz, "weierstrass_solution", orbit)
        states = _orbit_states(REFERENCE_PARAMS, ts)
        monkeypatch.undo()
        got = states[-1].errors[2]
        assert type(got) is error and str(got) == message.format(t=ts[2])
        assert states[-1].errors[:2] + states[-1].errors[3:] == [None] * 4
        assert np.isnan(states[-1].sqrt_z[2]) and np.isnan(states[-1].scalars[:, 2]).all()
        for sigma in (1, -1):
            for i in range(len(ts)):
                if (sigma, i) != (-1, 2):
                    assert (self.bits(self.fields(states[sigma], i))
                            == self.bits(self.fields(want[sigma], i))), (sigma, i)
