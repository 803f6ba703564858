import warnings

import numpy as np
import pytest

from cnlse_ansatz import (
    AliasingWarning,
    NonFiniteSamples,
    REFERENCE_PARAMS,
    SpectralGrid,
    WindowContainsPole,
    ansatz_divergence,
    divergence_from,
    mass,
    q_curve,
    raised_cosine_taper,
    solution_denominator,
    soliton_field,
    split_step_evolve,
    with_branch,
)

# wide window, step below the resolution guideline: no aliasing warnings
WIDE = SpectralGrid(x_min=-20.0, x_max=20.0, n=256, dt=1e-3)


class TestSpectralGrid:
    def test_geometry(self):
        g = SpectralGrid(x_min=-1.0, x_max=1.0, n=64, dt=1e-3)
        assert g.dx == 2.0 / 64
        assert g.x[0] == -1.0
        assert g.x.shape == (64,)
        # endpoint excluded: periodic wrap
        assert g.x[-1] == pytest.approx(1.0 - g.dx)

    def test_wavenumbers(self):
        g = SpectralGrid(x_min=-np.pi, x_max=np.pi, n=128, dt=1e-3)
        k = g.wavenumbers
        assert k[0] == 0.0
        assert k[1] == pytest.approx(1.0)
        assert np.max(np.abs(k)) == pytest.approx(64.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid(x_min=0.0, x_max=1.0, n=100, dt=1e-3)
        with pytest.raises(ValueError):
            SpectralGrid(x_min=0.0, x_max=1.0, n=32, dt=1e-3)
        with pytest.raises(ValueError):
            SpectralGrid(x_min=1.0, x_max=1.0, n=64, dt=1e-3)
        with pytest.raises(ValueError):
            SpectralGrid(x_min=0.0, x_max=1.0, n=64, dt=0.0)


class TestEvolution:
    def test_plane_wave_is_exact(self, no_aliasing_warning):
        # single Fourier mode: both substeps act as pure phases, so the
        # scheme reproduces a exp(i(kx - (p k^2 - q a^2) t)) to round-off
        # (the aliasing guideline does not apply: nothing occupies the
        # high modes it protects)
        g = SpectralGrid(x_min=-np.pi, x_max=np.pi, n=128, dt=1e-3)
        p, q, amp, k = 1.0, 2.0, 0.7, 3.0
        a0 = amp * np.exp(1j * k * g.x)
        steps = 200
        out = split_step_evolve(a0, p, q, g, steps)
        t = steps * g.dt
        omega = p * k * k - q * amp * amp
        want = amp * np.exp(1j * (k * g.x - omega * t))
        assert np.max(np.abs(out - want)) < 1e-12

    def test_mass_conservation(self):
        rng = np.random.default_rng(11)
        a0 = (rng.normal(size=WIDE.n) + 1j * rng.normal(size=WIDE.n))
        a0 *= raised_cosine_taper(WIDE.n, 0.2)
        m0 = mass(a0, WIDE.dx)
        out = split_step_evolve(a0, 1.0, -1.0, WIDE, 1000)
        m1 = mass(out, WIDE.dx)
        assert abs(m1 - m0) / m0 < 1e-10

    def test_time_reversal(self):
        # A(x, t) -> conj A(x, -t) maps solutions to solutions, so evolving
        # the conjugate forward undoes the forward steps
        s = soliton_field(1.0)
        a0 = np.asarray(s(WIDE.x, 0.0), dtype=complex)
        fwd = split_step_evolve(a0, 1.0, 2.0, WIDE, 500)
        back = np.conj(split_step_evolve(np.conj(fwd), 1.0, 2.0, WIDE, 500))
        assert np.max(np.abs(back - a0)) < 1e-8

    # backward in time, i A_t + p A_xx + q A |A|^2 = 0 reads the same with
    # (p, q) negated: the textbook loop steps by -dt, the integrator runs
    # forward on (-p, -q)
    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 7, 500])
    def test_matches_unfused_strang(self, steps, backward):
        # textbook Strang loop, two half-steps per step: the fused
        # integrator must land on the same state
        p, q = 1.0, 2.0
        sign = -1.0 if backward else 1.0
        dt = sign * WIDE.dt
        half = np.exp(-0.5j * p * WIDE.wavenumbers ** 2 * dt)
        a0 = np.asarray(soliton_field(1.0)(WIDE.x, 0.0), dtype=complex)
        want = a0
        for _ in range(steps):
            want = np.fft.ifft(half * np.fft.fft(want))
            want = want * np.exp(1j * q * dt * np.abs(want) ** 2)
            want = np.fft.ifft(half * np.fft.fft(want))
        kept = a0.copy()
        out = split_step_evolve(a0, sign * p, sign * q, WIDE, steps)
        assert np.max(np.abs(out - want)) <= 1e-12
        assert np.array_equal(a0, kept)

    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("steps", [1, 2, 7, 500])
    @pytest.mark.parametrize("q", [2.0, -1.0])
    def test_kernel_keeps_the_exponential_kick_bits(self, q, steps, backward):
        # the fused loop with a freshly allocated exp(i q dt |a|^2) kick:
        # the buffered cos/sin kernel must give the same bits, backward too
        # (a sign flip is exact, so -p dt and p (-dt) are the same bits)
        p = 1.0
        sign = -1.0 if backward else 1.0
        dt = sign * WIDE.dt
        k = WIDE.wavenumbers
        half = np.exp(-0.5j * p * k * k * dt)
        full = np.exp(-1j * p * k * k * dt)
        a0 = np.asarray(soliton_field(1.0)(WIDE.x, 0.0), dtype=complex)
        spec = np.fft.fft(a0) * half
        for i in range(steps):
            a = np.fft.ifft(spec)
            a *= np.exp(1j * q * dt * (a.real ** 2 + a.imag ** 2))
            spec = np.fft.fft(a)
            spec *= full if i + 1 < steps else half
        want = np.fft.ifft(spec)
        out = split_step_evolve(a0, sign * p, sign * q, WIDE, steps)
        again = split_step_evolve(a0, sign * p, sign * q, WIDE, steps)
        assert np.array_equal(out, want)
        assert np.array_equal(again, want)
        assert not np.shares_memory(out, a0)
        assert not np.shares_memory(out, again)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_no_steps_returns_a_copy(self, steps):
        a0 = np.asarray(soliton_field(1.0)(WIDE.x, 0.0), dtype=complex)
        out = split_step_evolve(a0, 1.0, 2.0, WIDE, steps)
        assert out is not a0
        assert np.array_equal(out, a0)

    @pytest.mark.parametrize("steps", [0, 1, 2, 7])
    def test_one_fft_pair_per_step(self, steps, monkeypatch):
        # fused half-steps: n steps take n + 1 forward/inverse pairs
        calls = []

        def counted(fn):
            def wrapper(*args, **kw):
                calls.append(fn)
                return fn(*args, **kw)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        a0 = np.asarray(soliton_field(1.0)(WIDE.x, 0.0), dtype=complex)
        split_step_evolve(a0, 1.0, 2.0, WIDE, steps)
        assert len(calls) == (2 * steps + 2 if steps else 0)

    def test_shape_and_finiteness_checks(self):
        with pytest.raises(ValueError):
            split_step_evolve(np.ones(8, dtype=complex), 1.0, 1.0, WIDE, 1)
        bad = np.ones(WIDE.n, dtype=complex)
        bad[3] = np.nan
        with pytest.raises(NonFiniteSamples):
            split_step_evolve(bad, 1.0, 1.0, WIDE, 1)

    def test_aliasing_warning_threshold(self):
        # k_max ~ 20.1 on the wide grid, so the guideline bound is ~1.2e-3:
        # dt = 5e-3 warns, dt = 1e-3 stays silent
        a0 = np.ones(WIDE.n, dtype=complex)
        with pytest.warns(AliasingWarning):
            split_step_evolve(a0, 1.0, 0.0,
                              SpectralGrid(-20.0, 20.0, 256, 5e-3), 1)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            split_step_evolve(a0, 1.0, 0.0, WIDE, 1)
        assert not [w for w in rec if issubclass(w.category, AliasingWarning)]


class TestTaper:
    def test_validation(self):
        with pytest.raises(ValueError):
            raised_cosine_taper(64, -0.1)
        with pytest.raises(ValueError):
            raised_cosine_taper(64, 0.6)

    def test_shape(self):
        w = raised_cosine_taper(100, 0.1)
        assert w.shape == (100,)
        assert w[0] == 0.0
        assert np.all(w[10:90] == 1.0)
        assert np.allclose(w, w[::-1])
        assert np.all((0.0 <= w) & (w <= 1.0))

    def test_zero_fraction(self):
        assert np.all(raised_cosine_taper(64, 0.0) == 1.0)


class TestDivergenceFromExactSolution:
    def test_soliton_stays_put(self):
        s = soliton_field(1.0)
        series = divergence_from(s, WIDE, 1.0, 2.0, 0.2)
        assert series.points[0].l2 == 0.0
        assert series.points[0].linf == 0.0
        assert series.points[-1].linf < 1e-5

    def test_metadata(self):
        s = soliton_field(1.0)
        series = divergence_from(s, WIDE, 1.0, 2.0, 0.1, sample_times=[0.1])
        md = series.metadata
        assert md["n"] == 256 and md["dt"] == 1e-3
        assert md["p"] == 1.0 and md["q"] == 2.0
        d = series.to_json_dict()
        assert set(d) == {"metadata", "points"}
        assert "monotone" in d["metadata"]

    def test_times_realized_on_step_grid(self):
        s = soliton_field(1.0)
        series = divergence_from(s, WIDE, 1.0, 2.0, 0.1,
                                 sample_times=[0.0333, 0.1])
        ts = [pt.t for pt in series.points]
        assert ts[0] == 0.0
        for t in ts[1:]:
            assert abs(t / WIDE.dt - round(t / WIDE.dt)) < 1e-9

    @pytest.mark.parametrize("times", [[0.1, 0.1], [0.1, 0.1004], [0.0004]])
    def test_sample_time_under_a_step_rejected(self, times):
        # a target that realizes no step would repeat the row before it
        s = soliton_field(1.0)
        with pytest.raises(ValueError, match="rounds to no step"):
            divergence_from(s, WIDE, 1.0, 2.0, 0.1, sample_times=times)

    def test_negative_t_end_rejected(self):
        s = soliton_field(1.0)
        with pytest.raises(ValueError):
            divergence_from(s, WIDE, 1.0, 2.0, -0.5)

    def test_nonfinite_initial_data(self):
        def bad(x, t):
            xa = np.asarray(x, dtype=float)
            return np.full(xa.shape, np.nan, dtype=complex)

        with pytest.raises(NonFiniteSamples):
            divergence_from(bad, WIDE, 1.0, 2.0, 0.1)


class TestAnsatzDivergence:
    def test_constructed_envelope_diverges(self, no_aliasing_warning):
        # the construction is not a solution and the true evolution walks
        # away from it at O(1) speed; the trend is monotone
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        grid = SpectralGrid(x_min=-1.25, x_max=1.25, n=256, dt=1e-3)
        series = ansatz_divergence(p, grid, t_end=0.5)
        assert series.points[0].linf == 0.0
        assert series.points[-1].linf > 0.1
        assert series.monotone
        # regression pin: the integrator's own output before the Strang
        # half-steps were fused (not an independent oracle)
        assert series.points[-1].linf == pytest.approx(2.375521127436536,
                                                       rel=1e-10)

    def test_window_with_pole_is_rejected(self):
        # the pp profile has a pole near x = 0.94 at t = 0
        p = with_branch(REFERENCE_PARAMS, 1, 1)
        grid = SpectralGrid(x_min=-1.25, x_max=1.25, n=256, dt=1e-3)
        with pytest.raises(WindowContainsPole):
            ansatz_divergence(p, grid, t_end=0.5)

    def test_mirror_point_is_not_a_pole(self, no_aliasing_warning):
        # the denominator changes sign at the mirror point x = -0.942 of the
        # pp pole at +0.940, where the numerator vanishes with it
        p = with_branch(REFERENCE_PARAMS, 1, 1)
        grid = SpectralGrid(x_min=-1.25, x_max=0.6, n=256, dt=1e-3)
        den = solution_denominator(q_curve(p, 0.0), p.Q0, np.linspace(-1.25, 0.6, 1025))
        assert np.any(np.sign(den[:-1]) != np.sign(den[1:]))
        series = ansatz_divergence(p, grid, t_end=0.1)
        assert len(series.points) == 6

    def test_infinite_end_time_rejected_before_the_pole_screen(self):
        p = with_branch(REFERENCE_PARAMS, -1, -1)
        grid = SpectralGrid(x_min=-1.25, x_max=1.25, n=256, dt=1e-3)
        with pytest.raises(ValueError, match="t_end must be finite"):
            ansatz_divergence(p, grid, t_end=float("inf"))
