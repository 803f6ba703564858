import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnlse_ansatz import (
    EllipticInvariants,
    NonFiniteSamples,
    PoleProximity,
    cubic_roots,
    elliptic,
    real_period,
    wp_pair,
)

from _pins import CUBIC_ROOTS, WP_03, WP_10, WP_INVARIANTS, WP_PRIME_03, Z_REAL_PERIOD

INV = EllipticInvariants(*WP_INVARIANTS)


class TestPins:
    def test_value_at_0p3(self):
        assert abs(wp_pair(0.3, INV)[0] - WP_03) < 1e-12 * abs(WP_03)

    def test_slope_at_0p3(self):
        assert abs(wp_pair(0.3, INV)[1] - WP_PRIME_03) < 1e-12 * abs(WP_PRIME_03)

    def test_value_after_halving(self):
        # |u| = 1.0 forces at least one duplication step
        assert abs(wp_pair(1.0, INV)[0] - WP_10) < 1e-12

    def test_pair_matches_parts(self):
        # a scalar pair is the middle entry of a batch of equal halving depth
        w, w1 = wp_pair(0.7, INV)
        wb, w1b = wp_pair(np.array([0.6, 0.7, 0.8]), INV)
        assert abs(w - wb[1]) <= 1e-15 * abs(w)
        assert abs(w1 - w1b[1]) <= 1e-15 * abs(w1)


class TestDifferentialIdentity:
    def test_reference_invariants(self):
        rng = np.random.default_rng(101)
        u = rng.uniform(0.05, 3.0, 500) * np.exp(1j * rng.uniform(0, 2 * np.pi, 500))
        w, w1 = wp_pair(u, INV)
        lhs = w1 ** 2 - (4 * w ** 3 - INV.g2 * w - INV.g3)
        assert np.max(np.abs(lhs) / np.maximum(1.0, np.abs(w) ** 3)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        g2=st.floats(-5, 5),
        g3=st.floats(-5, 5),
        r=st.floats(0.05, 3.0),
        ang=st.floats(0.0, 6.28),
    )
    def test_random_invariants(self, g2, g3, r, ang):
        inv = EllipticInvariants(g2, g3)
        u = complex(r * np.cos(ang), r * np.sin(ang))
        w, w1 = wp_pair(u, inv)
        lhs = w1 ** 2 - (4 * w ** 3 - inv.g2 * w - inv.g3)
        assert abs(lhs) <= 1e-10 * max(1.0, abs(w) ** 3)

    def test_large_invariants(self):
        # far outside the moderate range: the scaled threshold keeps the
        # series inside its shrunken convergence disk
        inv = EllipticInvariants(290.0, -310.0)
        rng = np.random.default_rng(33)
        u = rng.uniform(0.05, 2.0, 200)
        w, w1 = wp_pair(u, inv)
        lhs = w1 ** 2 - (4 * w ** 3 - inv.g2 * w - inv.g3)
        assert np.max(np.abs(lhs) / np.maximum(1.0, np.abs(w) ** 3)) < 1e-10


class TestSymmetries:
    def test_even_function(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(0.1, 2.5, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        wp_plus, wp1_plus = wp_pair(u, INV)
        wp_minus, wp1_minus = wp_pair(-u, INV)
        assert np.max(np.abs(wp_plus - wp_minus)) < 1e-12
        assert np.max(np.abs(wp1_plus + wp1_minus)) < 1e-12

    def test_uniform_depth_matches_per_element(self):
        # same values to round-off; a batch only aligns halving counts
        u = np.linspace(0.2, 2.4, 40)
        w_a, w1_a = np.array([wp_pair(float(v), INV) for v in u]).T
        w_b, w1_b = wp_pair(u, INV)
        assert np.max(np.abs(w_a - w_b)) < 1e-10 * np.max(np.abs(w_a))
        assert np.max(np.abs(w1_a - w1_b)) < 1e-10 * np.max(np.abs(w1_a))


def _lattice(positive, e, gap_a, gap_b):
    """Real invariants from the roots of 4y^3 - g2 y - g3: three real roots
    for a positive discriminant, else a real root e and a conjugate pair,
    with every root at least 0.2 from the others."""
    if positive:
        e1, e2, e3 = e + gap_a, e, e - gap_b
        shift = (e1 + e2 + e3) / 3.0
        e1, e2, e3 = e1 - shift, e2 - shift, e3 - shift
        return EllipticInvariants(-4.0 * (e1 * e2 + e1 * e3 + e2 * e3), 4.0 * e1 * e2 * e3)
    re, im = -0.5 * e, gap_a
    pair = re * re + im * im
    return EllipticInvariants(-4.0 * (2.0 * re * e + pair), 4.0 * e * pair)


class TestRealPeriod:
    def test_reference_period(self):
        assert real_period(INV) == pytest.approx(Z_REAL_PERIOD, rel=2e-16)

    @pytest.mark.parametrize("inv", [
        EllipticInvariants(3.0, 1.0),     # discriminant exactly 0
        EllipticInvariants(0.0, 0.0),
    ])
    def test_degenerate_and_complex_have_none(self, inv):
        assert real_period(inv) is None

    @settings(max_examples=80, deadline=None)
    @given(
        positive=st.booleans(),
        e=st.floats(-1.5, 1.5),
        gap_a=st.floats(0.2, 3.0),
        gap_b=st.floats(0.2, 3.0),
        re=st.floats(0.1, 0.9),
        im=st.floats(-0.3, 0.3),
        k=st.integers(-60, 60).filter(bool),
    )
    def test_whole_periods_fold_away(self, positive, e, gap_a, gap_b, re, im, k):
        # wp(u + 2kw) = wp(u): the shifted argument folds back, the plain one
        # sits below the fold trigger; the bound is the rounding of u + 2kw
        inv = _lattice(positive, e, gap_a, gap_b)
        assert (inv.discriminant > 0.0) == positive
        period = real_period(inv)
        u = complex(re, im)
        w, w1 = wp_pair(u, inv)
        v, v1 = wp_pair(u + k * period, inv)
        shift = abs(k * period)
        assert abs(v - w) <= 1e-14 * (abs(w) + abs(w1) * shift)
        assert abs(v1 - w1) <= 1e-14 * (abs(w1) + abs(6.0 * w * w - 0.5 * inv.g2) * shift)

    def test_half_period_is_not_a_period(self):
        for positive in (True, False):
            inv = _lattice(positive, 0.3, 1.1, 0.7)
            u = np.array([0.3, 0.5])
            half = wp_pair(u + 0.5 * real_period(inv), inv)[0]
            assert np.min(np.abs(half - wp_pair(u, inv)[0])) > 0.1

    def test_below_the_trigger_nothing_folds(self, monkeypatch):
        # |u| <= 4 * threshold needs at most two halvings: such a batch never
        # asks for the period and keeps its bits exactly
        u = np.array([0.3, 1.2, 1.99, 1.5 + 0.8j, -1.9])
        want = _bits(wp_pair(u, INV))
        monkeypatch.setattr(elliptic, "real_period", _no_call)
        assert _bits(wp_pair(u, INV)) == want

    def test_lattice_point_folds_off_the_pole(self):
        # 2w itself folds onto +-2w, not onto the pole at 0
        period = real_period(INV)
        for k in (1, 2, -3, 2048):
            w, w1 = wp_pair(k * period, INV)
            assert np.isfinite(w) and abs(w) > 1e12

    def test_fold_onto_the_pole_raises(self):
        # at u = 1e17 the float spacing (16) is wider than 2w = 3.708: every
        # fold, one period short included, rounds onto the pole at 0
        inv = EllipticInvariants(1.0, 0.0)
        assert real_period(inv) < np.spacing(1e17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleProximity):
                wp_pair(1e17, inv)


# degenerate lattices, g2^3 = 27 g3^2: e = 0; e > 0 (the sinh form, no real
# period); e < 0 (the sin form, a real period that real_period leaves None)
DEGENERATE = [(0.0, 0.0), (12.0, -8.0), (3.0, -1.0), (12.0, 8.0), (3.0, 1.0)]
FAR_OUT = np.array([0.3, -0.7, 10.0, 100.0, 1000.0, -1000.0, 0.7 + 0.2j, 10.0 + 0.5j,
                    100.0 - 3.0j, 1000.0 + 1e-3j, 3.0j, -37.5 + 12.0j])


class TestDegenerateLattice:
    @pytest.mark.parametrize("g2, g3", DEGENERATE)
    def test_closed_forms(self, g2, g3):
        # A&S 18.12 at 40 digits: 1/u^2 at e = 0, else e + 3e / sinh^2(sqrt(3e) u)
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            e = mp.mpf(-1.5) * g3 / g2 if g2 else mp.mpf(0)
            s = mp.sqrt(mp.mpc(3 * e))
            for u in FAR_OUT:
                w, w1 = wp_pair(u, EllipticInvariants(g2, g3))
                u = mp.mpc(u)
                if e == 0:
                    want, want1 = 1 / u ** 2, -2 / u ** 3
                else:
                    want = e + 3 * e / mp.sinh(s * u) ** 2
                    want1 = -6 * e * s * mp.cosh(s * u) / mp.sinh(s * u) ** 3
                assert abs(w - complex(want)) <= 1e-14 * abs(complex(want)), u
                assert abs(w1 - complex(want1)) <= 1e-14 * abs(complex(want1)), u

    @pytest.mark.parametrize("g2, g3", DEGENERATE)
    def test_ode_holds_without_a_warning(self, g2, g3):
        # sinh(sqrt(3) 1000) overflows a double; no warning is printed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, w1 = wp_pair(FAR_OUT, EllipticInvariants(g2, g3))
        lhs = w1 ** 2 - (4 * w ** 3 - g2 * w - g3)
        assert np.max(np.abs(lhs) / np.maximum(1.0, np.abs(w) ** 3)) < 1e-13

    def test_huge_invariants_evaluate(self):
        # g2^3 overflows a float, so the discriminant cannot be formed
        inv = EllipticInvariants(3.0 * 2.0 ** 400, 2.0 ** 600)
        with pytest.raises(NonFiniteSamples):
            inv.discriminant
        assert np.isfinite(wp_pair(1e-9, inv)[0])

    def test_only_an_exact_zero_takes_the_closed_form(self):
        u = np.array([0.3, 50.0])
        assert elliptic._degenerate_pair(u, 3.0, 1.0) is not None
        assert elliptic._degenerate_pair(u, np.nextafter(3.0, 4.0), 1.0) is None


class TestCubicRoots:
    def test_reference_roots(self):
        roots = cubic_roots(INV)
        for got, want in zip(roots, CUBIC_ROOTS):
            assert abs(got - want) < 1e-12

    def test_ordering(self):
        roots = cubic_roots(INV)
        reals = [r.real for r in roots]
        assert reals == sorted(reals, reverse=True)

    @settings(max_examples=60, deadline=None)
    @given(g2=st.floats(-5, 5), g3=st.floats(-5, 5))
    def test_roots_satisfy_cubic(self, g2, g3):
        inv = EllipticInvariants(g2, g3)
        for r in cubic_roots(inv):
            assert abs(4 * r ** 3 - g2 * r - g3) < 1e-8
        e1, e2, e3 = cubic_roots(inv)
        assert abs(e1 + e2 + e3) < 1e-10  # no quadratic term

    def test_roots_are_wp_prime_zeros_data(self):
        # at a root value e, wp' vanishes where wp = e: check via the identity
        e1, _, _ = cubic_roots(INV)
        assert abs((4 * e1 ** 3 - INV.g2 * e1 - INV.g3)) < 1e-12


class TestValidation:
    def test_pole_guard(self):
        with pytest.raises(PoleProximity):
            wp_pair(1e-12, INV)

    def test_pole_guard_in_array(self):
        with pytest.raises(PoleProximity):
            wp_pair(np.array([0.5, 1e-11]), INV)

    def test_nonfinite_argument(self):
        with pytest.raises(NonFiniteSamples):
            wp_pair(np.nan, INV)

    def test_nonfinite_invariants(self):
        with pytest.raises(NonFiniteSamples):
            EllipticInvariants(np.inf, 0.0)

    @pytest.mark.parametrize("g2, g3", [
        (3.52 + 0j, 1.0),
        (3.52, np.complex128(1.0384)),
        (np.array(3.52 + 1e-30j), 1.0),
    ])
    def test_complex_invariants_are_refused(self, g2, g3):
        # even of zero imaginary part: a complex step goes through u only
        with pytest.raises(ValueError, match="real"):
            EllipticInvariants(g2, g3)
        with pytest.raises(ValueError, match="real"):
            wp_pair(0.5, EllipticInvariants(g2, g3))

    def test_invariants_are_python_floats(self):
        inv = EllipticInvariants(np.float64(3.52), 1)
        assert type(inv.g2) is float and type(inv.g3) is float
        assert inv == EllipticInvariants(3.52, 1.0)

    def test_discriminant(self):
        assert abs(INV.discriminant - (3.52 ** 3 - 27 * 1.0384 ** 2)) < 1e-12
        # degenerate invariants are allowed, and read from the closed form
        degen = EllipticInvariants(3.0, 1.0)
        assert abs(degen.discriminant) < 1e-12
        w, w1 = wp_pair(0.4, degen)
        assert abs(w1 ** 2 - (4 * w ** 3 - 3.0 * w - 1.0)) < 1e-12 * max(1, abs(w) ** 3)

    @pytest.mark.parametrize("g2, g3", [(1e300, 1.0), (1.0, 1e200), (1e150, 1.0)])
    def test_discriminant_overflow_is_named(self, g2, g3):
        with pytest.raises(NonFiniteSamples, match="discriminant g2.*overflows"):
            EllipticInvariants(g2, g3).discriminant

    def test_rows_keep_their_own_depth(self):
        # 1 +- 1e-5 straddles a change of the halving depth for INV: as rows
        # of a 2-d batch, each argument gets the bits it gets alone, and a
        # row of several shares its depth as a 1-d batch does
        u = np.array([1.0 - 1e-5, 1.0, 1.0 + 1e-5, 0.3])
        w, w1 = wp_pair(u[:, None], INV)
        assert w.shape == w1.shape == (4, 1)
        for i, ui in enumerate(u):
            assert (w[i, 0], w1[i, 0]) == wp_pair(ui, INV)
        stacked = wp_pair(np.stack((u, u[::-1])), INV)
        for part, flat in zip(stacked, wp_pair(u, INV)):
            assert np.array_equal(part[0], flat)
            assert np.array_equal(part[1], flat[::-1])

    def test_scalar_types(self):
        w, w1 = wp_pair(0.3, INV)
        assert isinstance(w, complex) and isinstance(w1, complex)

    def test_array_shape(self):
        u = np.linspace(0.2, 1.4, 7)
        w, w1 = wp_pair(u, INV)
        assert w.shape == u.shape and w1.shape == u.shape


def _horner_sum(u, inv):
    """Reference for the series sum of ``elliptic._evaluate``: both series
    by Horner's rule over the same extended-precision coefficients, as the
    sum was written before the matrix product."""
    c = dict(enumerate(elliptic._laurent_matrix(inv.g2, inv.g3)[0][::-1], 2))
    v = u.astype(np.clongdouble)
    w = v * v
    s_even = np.zeros_like(v)
    s_odd = np.zeros_like(v)
    for k in range(elliptic.SERIES_ORDER, 1, -1):
        s_even = s_even * w + c[k]
        s_odd = s_odd * w + (2 * k - 2) * c[k]
    return (1.0 / w + s_even * w).astype(complex), (-2.0 / (w * v) + s_odd * v).astype(complex)


def _series_only(u, inv):
    """(wp, wp') of ``_evaluate`` at arguments it sums without halving."""
    return elliptic._evaluate(u, np.abs(u), inv)


def _inside_radius(inv, size, seed):
    """``size`` arguments spread over the disk where ``_evaluate`` sums the
    series for ``inv`` without halving."""
    rng = np.random.default_rng(seed)
    radius = elliptic.HALVING_THRESHOLD / elliptic._halving_scale(inv.g2, inv.g3)
    r = radius * np.sqrt(rng.uniform(1e-6, 1.0, size))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))


class TestLaurentSum:
    @pytest.mark.parametrize("size", [1, 255, 256, 257, 4097])
    @pytest.mark.parametrize("inv", [
        INV,
        EllipticInvariants(30.0, -7.0),
        EllipticInvariants(-1.5, 0.7),    # discriminant below zero
        EllipticInvariants(0.0, 1.0),     # the equianharmonic lattice
    ])
    def test_matches_horner(self, size, inv):
        u = _inside_radius(inv, size, size)
        for got, want in zip(_series_only(u, inv), _horner_sum(u, inv)):
            assert got.shape == (size,)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14

    def test_blocks_leave_each_element_as_alone(self):
        # the block edges split a wide batch, but each element's sum is its
        # own column of the product: the bits of a batch of one
        u = _inside_radius(INV, 2 * elliptic.LAURENT_BLOCK + 1, 7)
        W, W1 = _series_only(u, INV)
        for i in (0, elliptic.LAURENT_BLOCK - 1, elliptic.LAURENT_BLOCK, u.size - 1):
            w, w1 = _series_only(u[i:i + 1], INV)
            assert (w[0], w1[0]) == (W[i], W1[i]), i

    def test_laurent_matrix_layout(self):
        # the matrix holds c[k] from c[SERIES_ORDER] down to c[2] = g2 / 20,
        # and below them (2k - 2) c[k]
        mat = elliptic._laurent_matrix(3.52, 1.0384)
        assert mat.shape == (2, elliptic.SERIES_ORDER - 1)
        assert mat[0, -1] == np.clongdouble(3.52 / 20.0)
        assert mat[0, -2] == np.clongdouble(1.0384 / 28.0)
        assert mat[1, -1] == 2 * mat[0, -1]


def _bits(pair):
    return tuple(np.asarray(part).tobytes() for part in pair)


def _no_call(*args):
    raise AssertionError("the period was consulted")
