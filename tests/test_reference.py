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
from cnlse_ansatz import reference
from cnlse_ansatz.reference import _divergence_run, _evolve_runs, _Run, _strang_stack

# wide window, step below the resolution guideline: no aliasing warnings
WIDE = SpectralGrid(x_min=-20.0, x_max=20.0, n=256, dt=1e-3)


def _count_transforms(monkeypatch) -> list:
    """A list that gains one entry per transform the step loop makes; a
    call of np.fft.fft or np.fft.ifft, which the loop goes around, fails."""
    calls = []
    for name in ("_fft", "_ifft"):
        fn = getattr(reference, name)
        monkeypatch.setattr(reference, name, lambda *a, _fn=fn, **kw: calls.append(1) or _fn(*a, **kw))
        monkeypatch.setattr(np.fft, name[1:], lambda *a, **kw: pytest.fail("np.fft called"))
    return calls


class TestTransforms:
    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_gufuncs_are_numpy_fft_bit_for_bit(self, n, rows):
        # the step loop calls numpy's private pocketfft gufuncs: a numpy that
        # changes them must fail here, not shift the loop's bits
        rng = np.random.default_rng(n + rows)
        a = rng.normal(size=(rows, n)) + 1j * rng.normal(size=(rows, n))
        for gufunc, scale, want in ((reference._fft, 1.0, np.fft.fft(a)),
                                    (reference._ifft, 1.0 / n, np.fft.ifft(a))):
            out = np.empty_like(a)
            assert gufunc(a, scale, out=out) is out
            assert np.array_equal(out, want)
            assert np.array_equal(gufunc(a[0], scale, out=np.empty(n, dtype=complex)), want[0])


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

    def test_a_window_whose_largest_wavenumber_overflows_when_squared(self):
        with pytest.raises(ValueError, match=r"^window \[-1e-200, 1e-200\] with n = 64 is "
                           r"too narrow: .* overflows a float when squared$"):
            SpectralGrid(x_min=-1e-200, x_max=1e-200, n=64, dt=1e-3)
        # the same width at n = 1024 is refused; at n = 64, k_max is 1.005e154
        # and its square, as the aliasing screen takes it, is a float
        with pytest.raises(ValueError, match="n = 1024 is too narrow"):
            SpectralGrid(x_min=-1e-152, x_max=1e-152, n=1024, dt=1e-3)
        g = SpectralGrid(x_min=-1e-152, x_max=1e-152, n=64, dt=1e-3)
        assert np.isfinite(float(np.max(np.abs(g.wavenumbers))) ** 2)


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
        calls = _count_transforms(monkeypatch)
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


def _chained(samples, p, q, grid, segments):
    """The states of separate split_step_evolve calls, one per segment."""
    states, a = [], samples
    for steps in segments:
        a = split_step_evolve(a, p, q, grid, steps)
        states.append(a)
    return states


class TestStack:
    # rows of one n on different grids (dx and dt), with different p, q and
    # schedules; "short" ends before the others, "late" after them
    ROWS = {
        "wide": (SpectralGrid(-20.0, 20.0, 256, 1e-3), 1.0, 2.0, (3, 5, 1, 9)),
        "short": (SpectralGrid(-8.0, 8.0, 256, 7e-4), -0.5, 1.0, (4,)),
        "late": (SpectralGrid(-30.0, 30.0, 256, 2e-3), 1.5, -1.0, (7, 2, 11, 1, 4)),
    }

    @staticmethod
    def _samples(grid, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n)
        return a * raised_cosine_taper(grid.n, 0.2)

    def _runs(self, names):
        return [_Run(self._samples(g, seed), p, q, g, segs, list)
                for seed, (g, p, q, segs) in enumerate(self.ROWS[n] for n in names)]

    @pytest.mark.parametrize("names", [
        ("wide", "short", "late"), ("short", "late"), ("late", "wide"), ("wide",),
    ])
    def test_rows_are_bit_equal_to_separate_runs(self, names, no_aliasing_warning):
        runs = self._runs(names)
        for run, states in zip(runs, _strang_stack(runs)):
            want = _chained(run.samples, run.p, run.q, run.grid, run.segments)
            assert len(states) == len(want)
            for got, expected in zip(states, want):
                assert np.array_equal(got, expected)

    def test_a_run_without_segments_has_no_states(self):
        runs = self._runs(("wide", "short"))
        empty = _Run(runs[0].samples, 1.0, 2.0, runs[0].grid, (), list)
        states = _strang_stack([empty, *runs])
        assert states[0] == []
        assert [len(s) for s in states[1:]] == [4, 1]

    def test_two_transforms_per_step_of_the_longest_row(self, monkeypatch):
        # the rows share each step's pair; a segment end costs its own row an
        # inverse transform, and a forward one if another segment follows
        calls = _count_transforms(monkeypatch)
        runs = self._runs(("wide", "short", "late"))
        _strang_stack(runs)
        longest = max(sum(run.segments) for run in runs)
        ends = sum(len(run.segments) for run in runs)
        assert len(calls) == 1 + 2 * longest + 2 * ends - len(runs)

    def test_rows_of_unequal_n_run_apart(self):
        wide, _ = self._runs(("wide", "short"))
        coarse = SpectralGrid(-20.0, 20.0, 128, 1e-3)
        small = _Run(self._samples(coarse, 9), 1.0, 2.0, coarse, (6, 2), list)
        got = _evolve_runs([wide, small])
        assert np.array_equal(got[0][-1], _chained(wide.samples, 1.0, 2.0, wide.grid, wide.segments)[-1])
        assert np.array_equal(got[1][-1], _chained(small.samples, 1.0, 2.0, coarse, (6, 2))[-1])

    def test_a_non_finite_segment_input_raises(self):
        # q = inf blows the "short" grid's row up in its first segment, so its
        # second segment starts from non-finite samples, as a second
        # split_step_evolve call would
        wide, short = self._runs(("wide", "short"))
        bad = _Run(short.samples, 1.0, np.inf, short.grid, (2, 2), list)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert not np.all(np.isfinite(split_step_evolve(bad.samples, 1.0, np.inf, bad.grid, 2)))
            with pytest.raises(NonFiniteSamples, match="initial samples"):
                _strang_stack([wide, bad])

    def test_only_making_a_run_warns_of_aliasing(self):
        # the stack never warns: a divergence run warns when it is made,
        # and a row made without the check (the soliton control) never does
        s = soliton_field(1.0)
        coarse = SpectralGrid(-20.0, 20.0, 256, 5e-3)
        with pytest.warns(AliasingWarning):
            aliasing = _divergence_run(s, coarse, 1.0, 2.0, 0.05, None)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            quiet = _divergence_run(s, WIDE, 1.0, 2.0, 0.05, None)
            control = _Run(np.asarray(s(coarse.x, 0.0)), 1.0, 2.0, coarse, (10,), list)
            series = _evolve_runs([control, aliasing, quiet])
        assert rec == []
        with pytest.warns(AliasingWarning):
            alone = divergence_from(s, coarse, 1.0, 2.0, 0.05)
        assert series[1] == alone
        assert series[2] == divergence_from(s, WIDE, 1.0, 2.0, 0.05)

    def test_no_sample_time_no_warning(self):
        # t_end = 0 takes no step, so no step can alias
        coarse = SpectralGrid(-20.0, 20.0, 256, 5e-3)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            series = divergence_from(soliton_field(1.0), coarse, 1.0, 2.0, 0.0)
        assert rec == [] and len(series.points) == 1


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
