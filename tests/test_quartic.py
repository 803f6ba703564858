import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnlse_ansatz import (
    POLE_EPSILON,
    REFERENCE_PARAMS,
    NegativeRadicand,
    NonFiniteSamples,
    QuarticCurve,
    eval_with_derivatives,
    invariants_from_coefficients,
    solution_denominator,
    weierstrass_solution,
    with_branch,
    z_curve,
    z_with_rate,
)

from _pins import (
    R1_AT_1,
    R1_ROOTS,
    REFERENCE_FIELDS,
    SQRT_R1_AT_1,
    Z_CURVE_INVARIANTS,
    Z_ORBIT,
)

# the reference profile quartic: coefficients of the z-equation in the
# 1-4-6-4-1 weighting for q=-1, c1=-2, c2=0.4, c3=0.13
Z_CURVE = QuarticCurve(-16.0, 8.0, -1.6, 0.13, 0.0)

coef = st.floats(-4.0, 4.0)


class TestEvaluation:
    def test_derivative_ladder_against_polyval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = rng.uniform(-4, 4, 5)
            curve = QuarticCurve(*c)
            y = float(rng.uniform(-3, 3))
            plain = np.array([c[0], 4 * c[1], 6 * c[2], 4 * c[3], c[4]])
            r0, r1, r2, r3, r4 = eval_with_derivatives(curve, y)
            for k, got in enumerate((r0, r1, r2, r3, r4)):
                want = np.polyval(np.polyder(plain, k), y)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_reference_derivatives(self):
        got = eval_with_derivatives(Z_CURVE, 1.0)
        for g, w in zip(got, R1_AT_1):
            assert abs(g - w) < 1e-12 * max(1.0, abs(w))

    def test_reference_roots(self):
        c = Z_CURVE
        poly = [c.alpha, 4 * c.beta, 6 * c.gamma, 4 * c.delta, c.epsilon]
        roots = np.sort(np.roots(poly).real)
        assert np.allclose(roots, R1_ROOTS, atol=1e-12)

    def test_vectorized(self):
        y = np.linspace(-2, 2, 9)
        r0 = eval_with_derivatives(Z_CURVE, y)[0]
        assert r0.shape == y.shape

    def test_nonfinite_coefficients(self):
        with pytest.raises(NonFiniteSamples):
            QuarticCurve(np.nan, 0, 0, 0, 0)


class TestInvariants:
    def test_single_square_term(self):
        # R = 6 y^2: only gamma = 1 -> (3 gamma^2, -gamma^3)
        inv = invariants_from_coefficients(QuarticCurve(0, 0, 1, 0, 0))
        assert (inv.g2, inv.g3) == (3.0, -1.0)

    def test_pure_quartic(self):
        inv = invariants_from_coefficients(QuarticCurve(1, 0, 0, 0, 0))
        assert (inv.g2, inv.g3) == (0.0, 0.0)

    def test_reference_curve(self):
        inv = invariants_from_coefficients(Z_CURVE)
        assert abs(inv.g2 - Z_CURVE_INVARIANTS[0]) < 1e-12
        assert abs(inv.g3 - Z_CURVE_INVARIANTS[1]) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(a=coef, b=coef, g=coef, d=coef, e=coef, s=st.floats(0.2, 2.0))
    def test_scaling_weights(self, a, b, g, d, e, s):
        # under y -> y (no change) and R -> s R, g2 scales by s^2, g3 by s^3
        base = invariants_from_coefficients(QuarticCurve(a, b, g, d, e))
        scaled = invariants_from_coefficients(
            QuarticCurve(s * a, s * b, s * g, s * d, s * e)
        )
        assert abs(scaled.g2 - s ** 2 * base.g2) <= 1e-9 * max(1.0, abs(base.g2))
        assert abs(scaled.g3 - s ** 3 * base.g3) <= 1e-9 * max(1.0, abs(base.g3))


class TestSolution:
    def test_pole_limit_exact(self):
        curve = QuarticCurve(1.0, 0.3, -0.5, 0.2, 1.5)
        assert weierstrass_solution(curve, 0.7, 1, 0.0) == 0.7

    def test_orbit_pins(self):
        # the t=1 orbit values on both slope branches, oracle-pinned
        for sigma in (1, -1):
            z, zt = Z_ORBIT[(sigma, 1.0)]
            got, rate = z_with_rate(with_branch(REFERENCE_PARAMS, sigma, 1), 1.0)
            assert abs(got - z) < 1e-12
            assert abs(rate - zt) < 1e-11

    def test_initial_slope_sign(self):
        h = 1e-7
        up = weierstrass_solution(Z_CURVE, 1.0, 1, h)
        down = weierstrass_solution(Z_CURVE, 1.0, -1, h)
        assert up > 1.0 > down
        assert abs((up - 1.0) / h - SQRT_R1_AT_1) < 1e-5

    def test_branch_symmetry(self):
        # swapping sigma equals reflecting xi -> -xi
        xi = np.linspace(0.1, 1.4, 27)
        plus = weierstrass_solution(Z_CURVE, 1.0, 1, xi)
        minus = weierstrass_solution(Z_CURVE, 1.0, -1, -xi)
        assert np.max(np.abs(plus - minus)) < 1e-10

    def test_equilibrium_constant(self):
        # R = -(y-1)^2 (y^2+1): double root at 1 -> constant solution
        curve = QuarticCurve(-1.0, 0.5, -1.0 / 3.0, 0.5, -1.0)
        xi = np.linspace(0.0, 1.5, 31)
        for sigma in (1, -1):
            y = weierstrass_solution(curve, 1.0, sigma, xi)
            assert np.max(np.abs(y - 1.0)) < 1e-10

    def test_negative_radicand(self):
        with pytest.raises(NegativeRadicand):
            weierstrass_solution(Z_CURVE, 2.0, 1, 0.5)  # R1(2) < 0

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            weierstrass_solution(Z_CURVE, 1.0, 2, 0.5)

    def test_nonfinite_xi(self):
        with pytest.raises(NonFiniteSamples):
            weierstrass_solution(Z_CURVE, 1.0, 1, np.inf)

    def test_scalar_and_array_forms(self):
        xi = np.array([0.3, 0.6])
        arr = weierstrass_solution(Z_CURVE, 1.0, 1, xi)
        assert arr.shape == (2,)
        assert arr[0] == weierstrass_solution(Z_CURVE, 1.0, 1, 0.3)

    def test_analytic_derivative_matches_fd(self):
        # the complex-step rate of the orbit against a central difference
        h = 1e-6
        for xi in (0.3, 0.8, 1.2):
            _, rate = z_with_rate(REFERENCE_PARAMS, xi)
            fd = (
                weierstrass_solution(Z_CURVE, 1.0, 1, xi + h)
                - weierstrass_solution(Z_CURVE, 1.0, 1, xi - h)
            ) / (2 * h)
            assert abs(rate - fd) < 1e-7 * max(1.0, abs(rate))


class TestOdeProperty:
    def test_random_curves(self):
        # (dy/dxi)^2 = R(y) via central difference, h = 1e-5 with one
        # Richardson refinement, sampled away from solution poles
        rng = np.random.default_rng(90210)
        h = 1e-5
        worst = 0.0
        count = 0
        while count < 300:
            c = rng.uniform(-4.0, 4.0, 5)
            curve = QuarticCurve(*map(float, c))
            y0 = float(rng.uniform(-2.0, 2.0))
            if eval_with_derivatives(curve, y0)[0] <= 0.1:
                continue
            count += 1
            sigma = int(rng.choice([-1, 1]))
            xi = float(rng.uniform(0.05, 1.5))
            stencil = xi + h * np.array([-1.0, 1.0, -0.5, 0.5, 0.0])
            den = np.abs(solution_denominator(curve, y0, stencil))
            if float(np.min(den)) < 0.05:
                continue
            vals = weierstrass_solution(curve, y0, sigma, stencil)
            if not np.all(np.isfinite(vals)) or float(np.max(np.abs(vals))) > 50.0:
                continue
            est1 = (vals[1] - vals[0]) / (2 * h)
            est2 = (vals[3] - vals[2]) / h
            slope = (4.0 * est2 - est1) / 3.0
            r = float(eval_with_derivatives(curve, float(vals[4]))[0])
            worst = max(worst, abs(slope * slope - r) / max(1.0, abs(r)))
        assert worst < 1e-6

    def test_analytic_derivative_satisfies_ode(self):
        rng = np.random.default_rng(4096)
        worst = 0.0
        count = 0
        while count < 300:
            c = rng.uniform(-4.0, 4.0, 5)
            curve = QuarticCurve(*map(float, c))
            y0 = float(rng.uniform(-2.0, 2.0))
            if eval_with_derivatives(curve, y0)[0] <= 0.1:
                continue
            count += 1
            xi = float(rng.uniform(0.05, 1.5))
            if abs(float(solution_denominator(curve, y0, xi))) < 0.05:
                continue
            # the complex-step slope
            yc = weierstrass_solution(curve, y0, 1, complex(xi, 1e-30))
            y, dy = yc.real, yc.imag / 1e-30
            if not np.isfinite(y) or abs(y) > 50.0:
                continue
            r = float(eval_with_derivatives(curve, y)[0])
            worst = max(worst, abs(dy * dy - r) / max(1.0, abs(r)))
        assert worst < 1e-8


class TestDenominator:
    def test_matches_direct_formula(self):
        from cnlse_ansatz import wp_pair

        xi = 0.8
        r0, _, r2, _, r4 = eval_with_derivatives(Z_CURVE, 1.0)
        inv = invariants_from_coefficients(Z_CURVE)
        w = wp_pair(xi, inv)[0].real
        want = 2.0 * (w - r2 / 24.0) ** 2 - r0 * r4 / 48.0
        got = float(solution_denominator(Z_CURVE, 1.0, xi))
        assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_positive_for_reference_orbit(self):
        # alpha < 0 and R1(z0) > 0 make the denominator positive definite:
        # the orbit never poles
        xi = np.linspace(0.05, 3.0, 200)
        den = solution_denominator(Z_CURVE, 1.0, xi)
        assert np.all(den > 0.0)

    def test_infinite_at_origin(self):
        assert np.isposinf(float(solution_denominator(Z_CURVE, 1.0, 0.0)))

    def test_nonfinite_xi(self):
        # rejected as weierstrass_solution rejects it: a nan is not inside
        # the pole guard, where the denominator reads +inf
        for xi in (np.nan, np.array([0.5, np.inf])):
            with pytest.raises(NonFiniteSamples):
                solution_denominator(Z_CURVE, 1.0, xi)


class TestComplexStep:
    # xi + ih with h far below round-off: Im y / h is dy/dxi to round-off,
    # since no difference of nearby values is taken
    H = 1e-30
    CURVE = z_curve(REFERENCE_PARAMS)
    Y0 = REFERENCE_PARAMS.z0

    def rate(self, sigma, xi):
        return weierstrass_solution(self.CURVE, self.Y0, sigma, xi + 1j * self.H).imag / self.H

    def test_matches_analytic_rate(self):
        # the slope solves the ODE, starts with the sign of sigma, and meets
        # the oracle-pinned orbit rates
        for sigma in (1, -1):
            for t in (0.0, 5e-11, -5e-11, 0.3, -0.7, 1.0):
                y = weierstrass_solution(self.CURVE, self.Y0, sigma, complex(t, self.H))
                assert isinstance(y, complex)
                rate = y.imag / self.H
                r = eval_with_derivatives(self.CURVE, y.real)[0]
                assert abs(rate * rate - r) <= 1e-13 * max(1.0, abs(r)), (sigma, t)
            assert np.sign(self.rate(sigma, 5e-11)) == sigma
            for t in (0.25, 0.5, 1.0):
                assert abs(self.rate(sigma, t) - Z_ORBIT[(sigma, t)][1]) < 1e-11, (sigma, t)

    def test_matches_analytic_rate_on_an_array(self):
        # a batch, with its shared halving depth, against scalar steps
        ts = np.linspace(-1.0, 1.2, 23)
        for sigma in (1, -1):
            y = weierstrass_solution(self.CURVE, self.Y0, sigma, ts + 1j * self.H)
            assert y.dtype == np.complex128
            rates = np.array([self.rate(sigma, t) for t in ts])
            assert np.all(np.abs(y.imag / self.H - rates) <= 1e-13 * np.abs(rates))

    def test_real_in_real_out(self):
        assert type(weierstrass_solution(self.CURVE, self.Y0, 1, 0.3)) is float
        assert type(weierstrass_solution(self.CURVE, self.Y0, -1, 1e-11)) is float
        ys = weierstrass_solution(self.CURVE, self.Y0, 1, np.array([0.0, 1e-11, 0.3]))
        assert ys.dtype == np.float64

    def test_taylor_limit_inside_pole_guard(self):
        r0, r1 = eval_with_derivatives(self.CURVE, self.Y0)[:2]
        for sigma in (1, -1):
            for xi in (3e-11, -7e-11):
                y = weierstrass_solution(self.CURVE, self.Y0, sigma, xi)
                assert 0.0 < abs(xi) < POLE_EPSILON
                assert abs(y - (self.Y0 + sigma * np.sqrt(r0) * xi + r1 * xi * xi / 4.0)) <= 1e-15
                dy = self.rate(sigma, xi)
                assert abs(dy - (sigma * np.sqrt(r0) + r1 * xi / 2.0)) <= 1e-15
            assert weierstrass_solution(self.CURVE, self.Y0, sigma, 0.0) == self.Y0
