"""Independent spectral cross-check.

A Strang split-step integrator advances i A_t + p A_xx + q A |A|^2 = 0 on a
periodic grid: exact linear flows applied as Fourier multipliers between
exact nonlinear kicks, with the half-steps of adjacent steps fused, so n
steps are L/2 (N L)^(n-1) N L/2 and every segment of a run ends on a full
Strang state.  One step loop advances a stack of runs of equal n as the
rows of one array, each row on its own grid, with its own p, q and segment
schedule, and with the bits it would have alone.  The transforms are
numpy's pocketfft gufuncs along the last axis, called without np.fft's
argument handling (the inverse's scale 1 / n is the one np.fft.ifft
passes), so the fixed cost per call is small and paid once for all rows.
The step loop allocates nothing: both transforms write into the stack's
state and spectrum arrays, and the kick is built in reused buffers.
It knows nothing about elliptic functions, which is the point: initial data
taken from the constructed envelope is propagated as a true solution of the
dispersive equation and compared against the construction at later times.

The constructed envelope is not periodic, so a raised-cosine taper brings
the initial data to zero over the outer TAPER_FRACTION of the window at each
end, and deviations are measured only on the central INNER_FRACTION, away
from boundary artifacts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable

import numpy as np
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft  # (n),(scale)->(n)

from .ansatz import AnsatzParams, _checked, _orbit_states, field_A, profile_lattice
from .errors import AliasingWarning, NonFiniteSamples, WindowContainsPole
from .quartic import _closed_form_parts, _denominator, _rational_part
from .verify import POLE_ADJACENT_Q

TAPER_FRACTION = 0.10  # share of the window at each end that the taper rolls off
INNER_FRACTION = 0.60  # central share of the window where deviations are measured


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic window [x_min, x_max) with n nodes and time step dt."""

    x_min: float
    x_max: float
    n: int
    dt: float

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        n = int(self.n)
        if n < 64 or n & (n - 1):
            raise ValueError("n must be a power of two, at least 64")
        object.__setattr__(self, "n", n)
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        # the largest |wavenumber| as ``wavenumbers`` computes it; the
        # multipliers and the aliasing screen take its square
        k_max = 2.0 * math.pi * (n // 2 * (1.0 / (n * self.dx)))
        if not math.isfinite(k_max * k_max):
            raise ValueError(
                f"window [{self.x_min:g}, {self.x_max:g}] with n = {n} is too narrow: "
                f"its largest wavenumber, {k_max:.3g}, overflows a float when squared")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


def mass(samples, dx: float) -> float:
    """Discrete mass sum |A|^2 dx, the conserved quantity of the scheme."""
    return float(np.sum(np.abs(np.asarray(samples)) ** 2) * dx)


@dataclass(frozen=True)
class _Run:
    """One row of the step loop: finite samples on the grid, the
    equation's p and q, the step counts of its segments (each at least 1),
    and ``finish``, which turns the states at the segment ends into the
    run's result."""

    samples: np.ndarray
    p: float
    q: float
    grid: SpectralGrid
    segments: tuple
    finish: Callable


def _warn_if_aliasing(p: float, grid: SpectralGrid) -> None:
    """AliasingWarning, attributed to the caller's caller, when the step
    exceeds the resolution guideline dt <= 0.5 / (|p| k_max^2)."""
    k_max = float(np.max(np.abs(grid.wavenumbers)))
    if p != 0.0 and grid.dt > 0.5 / (abs(p) * k_max ** 2):
        warnings.warn(
            AliasingWarning(
                f"dt = {grid.dt:g} exceeds 0.5/(|p| k_max^2) = "
                f"{0.5 / (abs(p) * k_max ** 2):g}; high modes underresolved"
            ),
            stacklevel=3,
        )


def _multipliers(run: _Run) -> tuple:
    """The linear half-step and full-step multipliers of a run."""
    k, p, dt = run.grid.wavenumbers, run.p, run.grid.dt
    return np.exp(-0.5j * p * k * k * dt), np.exp(-1j * p * k * k * dt)


def _strang_stack(runs) -> list:
    """The states at the segment ends of each run: the runs, all of one n,
    advance as the rows of one stack, each row by a step of its own dt per
    pass, with its own multipliers and its own kick angle q dt |a|^2.

    At the end of a segment that row alone closes with the half-step and is
    inverse-transformed; if another segment follows, the state is checked
    finite and transformed again with a half-step.  So each row repeats a
    chain of separate ``split_step_evolve`` calls bit for bit.  A row leaves
    the stack after its last segment.
    """
    states = [[] for _ in runs]
    ends = [list(accumulate(run.segments)) for run in runs]
    live = [i for i, run in enumerate(runs) if run.segments]
    if not live:
        return states
    a = np.array([runs[i].samples for i in live], dtype=complex)
    half, full = (np.array(m) for m in zip(*(_multipliers(runs[i]) for i in live)))
    qdt = np.array([[runs[i].q * runs[i].grid.dt] for i in live])
    squares = np.empty((len(live), 2 * a.shape[1]))  # re^2, im^2 interleaved, as in a.view(float)
    theta = np.empty(a.shape)                         # kick angle q dt |a|^2
    kick = np.empty(a.shape, dtype=complex)
    spec = _fft(a, 1.0, out=np.empty_like(a))
    spec *= half
    done = 0  # steps every live row has taken
    while live:
        stop = min(ends[i][len(states[i])] for i in live)
        closing = [ends[i][len(states[i])] == stop for i in live]
        # a segment closes with the half-step, ending on a Strang state
        last = np.where(np.array(closing)[:, None], half, full)
        flat, re2, im2 = a.view(float), squares[:, 0::2], squares[:, 1::2]
        cos, sin, scale = kick.real, kick.imag, 1.0 / a.shape[1]
        for step in range(done + 1, stop + 1):
            _ifft(spec, scale, out=a)
            np.square(flat, out=squares)
            np.add(re2, im2, out=theta)
            theta *= qdt
            np.cos(theta, out=cos)
            np.sin(theta, out=sin)
            a *= kick
            _fft(a, 1.0, out=spec)
            spec *= full if step < stop else last
        done = stop
        for j, i in enumerate(live):
            if not closing[j]:
                continue
            states[i].append(_ifft(spec[j], scale, out=np.empty_like(spec[j])))
            if len(states[i]) < len(ends[i]):
                if not np.all(np.isfinite(states[i][-1])):
                    raise NonFiniteSamples("initial samples contain non-finite values")
                _fft(states[i][-1], 1.0, out=spec[j])
                spec[j] *= half[j]
        keep = [j for j, i in enumerate(live) if len(states[i]) < len(ends[i])]
        if len(keep) < len(live):
            live = [live[j] for j in keep]
            a, spec, half, full, qdt = (v[keep] for v in (a, spec, half, full, qdt))
            squares, theta, kick = (v[:len(keep)] for v in (squares, theta, kick))
    return states


def _evolve_runs(runs) -> list:
    """The result of each run, the runs of equal n advanced as one stack."""
    states = [None] * len(runs)
    for n in dict.fromkeys(run.grid.n for run in runs):
        group = [i for i, run in enumerate(runs) if run.grid.n == n]
        for i, run_states in zip(group, _strang_stack([runs[i] for i in group])):
            states[i] = run_states
    return [run.finish(s) for run, s in zip(runs, states)]


def split_step_evolve(samples, p: float, q: float, grid: SpectralGrid,
                      steps: int) -> np.ndarray:
    """Advance the samples by ``steps`` time steps of size grid.dt.

    Strang splitting: linear half-step L/2 (multiplier exp(-i p k^2 dt/2)
    in Fourier space), exact nonlinear kick N = A exp(i q |A|^2 dt), linear
    half-step.  Adjacent half-steps of consecutive steps are fused into one
    full multiplier exp(-i p k^2 dt), so ``steps`` = n >= 1 applies
    L/2 (N L)^(n-1) N L/2 with n + 1 FFT pairs and returns the same full
    Strang state as n unfused steps; n <= 0 returns a copy of the input.
    Both substeps conserve discrete mass exactly, so the only drift is
    round-off.  Backward evolution needs no option of its own: running
    backward in time is running forward with (p, q) negated, and by the
    symmetry A(x, t) -> conj A(x, -t) of the equation,
    conj(split_step_evolve(conj(b), p, q, grid, n)) undoes the n steps that
    led to b.

    This is the one-row, one-segment case of the stacked step loop.  The
    kick is built as cos(theta) + i sin(theta) with theta = q dt |a|^2,
    which is bit for bit exp(1j q dt |a|^2): the exponent is purely
    imaginary, and its imaginary part is exactly theta.

    Warns with AliasingWarning when the step exceeds the resolution
    guideline dt <= 0.5 / (|p| k_max^2); the warning is non-fatal.
    """
    a = np.array(samples, dtype=complex)
    if a.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteSamples("initial samples contain non-finite values")
    _warn_if_aliasing(p, grid)
    steps = int(steps)
    if steps < 1:
        return a
    return _evolve_runs([_Run(a, p, q, grid, (steps,), lambda states: states[0])])[0]


def raised_cosine_taper(n: int, fraction: float = 0.10) -> np.ndarray:
    """Window equal to 1 in the interior and rolling smoothly to 0 over the
    outer ``fraction`` of samples at each end."""
    if not 0.0 <= fraction <= 0.5:
        raise ValueError("taper fraction must lie in [0, 0.5]")
    w = np.ones(n)
    m = int(round(n * fraction))
    if m:
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
        w[:m] = ramp
        w[-m:] = ramp[::-1]
    return w


@dataclass(frozen=True)
class DivergencePoint:
    t: float
    l2: float
    linf: float


@dataclass(frozen=True)
class DivergenceSeries:
    """Deviation of the evolved field from the sampled field over time."""

    points: tuple
    monotone: bool
    metadata: dict


def _sample_targets(t_end: float, sample_times) -> list:
    """The positive sample times in increasing order, after checking that
    t_end is finite and nonnegative and that every sample time is finite;
    ``None`` means five even steps up to t_end."""
    t_end = float(t_end)
    if not np.isfinite(t_end) or t_end < 0.0:
        raise ValueError("t_end must be finite and nonnegative")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 6)[1:]
    times = [float(s) for s in sample_times]
    if not np.all(np.isfinite(times)):
        raise ValueError("sample times must be finite")
    return sorted(s for s in times if s > 0.0)


def _divergence_run(field, grid: SpectralGrid, p: float, q: float,
                    t_end: float, sample_times) -> _Run:
    """The run of ``divergence_from``, its result the series, after every
    check that needs no step: the sample times, the initial data and the
    rounding of each sample time.  Warns, attributed to the caller, with
    AliasingWarning if the run takes a step above the guideline."""
    targets = _sample_targets(t_end, sample_times)
    x = grid.x
    w = raised_cosine_taper(grid.n, TAPER_FRACTION)
    a0 = np.asarray(field(x, 0.0), dtype=complex)
    if not np.all(np.isfinite(a0)):
        raise NonFiniteSamples("field has non-finite values on the grid at t = 0")
    a = a0 * w

    segments, times = [], [0.0]
    for target in targets:
        steps = int(round((target - times[-1]) / grid.dt))
        if steps < 1:
            raise ValueError(
                f"sample time {target:g} rounds to no step of dt = "
                f"{grid.dt:g} past t = {times[-1]:g}"
            )
        segments.append(steps)
        times.append(times[-1] + steps * grid.dt)
    if segments:
        _warn_if_aliasing(p, grid)

    lo = int(round(grid.n * (1.0 - INNER_FRACTION) / 2.0))
    sel = slice(lo, grid.n - lo)

    def deviation(state: np.ndarray, t: float) -> DivergencePoint:
        ref = np.asarray(field(x, t), dtype=complex)
        d = (state - ref)[sel]
        l2 = float(np.sqrt(np.sum(np.abs(d) ** 2) * grid.dx))
        linf = float(np.max(np.abs(d)))
        return DivergencePoint(t=t, l2=l2, linf=linf)

    def series(states: list) -> DivergenceSeries:
        points = [deviation(s, t) for s, t in zip([a, *states], times)]
        linfs = [pt.linf for pt in points]
        monotone = all(linfs[i + 1] >= linfs[i] for i in range(len(linfs) - 1))
        meta = {
            "x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n, "dt": grid.dt,
            "p": p, "q": q,
            "taper_fraction": TAPER_FRACTION, "inner_fraction": INNER_FRACTION,
        }
        return DivergenceSeries(points=tuple(points), monotone=monotone, metadata=meta)

    return _Run(a, p, q, grid, tuple(segments), series)


def divergence_from(field, grid: SpectralGrid, p: float, q: float,
                    t_end: float, sample_times=None) -> DivergenceSeries:
    """Evolve initial data field(x, 0), tapered over TAPER_FRACTION, and
    measure (L2, Linf) deviation from field(x, t) at the sample times,
    restricted to the central INNER_FRACTION of the window.

    Sample times are realized as whole numbers of steps; the recorded t is
    the realized one.  A sample time that rounds to no step past the time
    realized before it (t = 0 for the first) would repeat a row, so it
    raises ValueError before any step is taken.  The t = 0 entry is exact
    zero by construction since the taper is identically 1 on the inner
    region.
    """
    return _evolve_runs([_divergence_run(field, grid, p, q, t_end, sample_times)])[0]


def _ansatz_run(params: AnsatzParams, grid: SpectralGrid, t_end: float,
                sample_times) -> _Run:
    """The run of ``ansatz_divergence``, after its pole screen on one wp part."""
    targets = _sample_targets(t_end, sample_times)
    xs = np.linspace(grid.x_min, grid.x_max, 4 * grid.n + 1)
    parts, times = _closed_form_parts(profile_lattice(params), xs), [0.0] + targets
    orbit = _orbit_states(params, np.array(times))[params.sigma_z]
    for t, r, error in zip(times, orbit.scalars.T, orbit.errors):
        _checked(error)
        den = _denominator(r, *parts[1:3])
        i = np.flatnonzero(np.sign(den[:-1]) != np.sign(den[1:]))
        q = _rational_part(r, params.Q0, (params.sigma_Q,), *parts)[0][np.stack((i, i + 1))]
        if ((np.sign(q[0]) != np.sign(q[1])) & ~(np.abs(q) <= POLE_ADJACENT_Q).all(axis=0)).any():
            raise WindowContainsPole(
                f"profile pole inside [{grid.x_min:g}, {grid.x_max:g}] at t = {t:g}"
            )
    return _divergence_run(partial(field_A, params), grid, 1.0, params.q, t_end, targets)


def ansatz_divergence(params: AnsatzParams, grid: SpectralGrid,
                      t_end: float = 0.5, sample_times=None) -> DivergenceSeries:
    """Deviation of the true evolution from the constructed envelope, under
    the equation the construction solves: dispersion p = 1, nonlinearity
    params.q.

    The window is screened first, on a 4x refined grid at every sample
    time: a sign change (or zero) of the closed-form denominator across
    which Q changes sign and exceeds POLE_ADJACENT_Q, or is not finite, is
    a profile pole, and the comparison is rejected with WindowContainsPole.
    At a pole's mirror point the numerator vanishes too and Q stays small.
    """
    return _evolve_runs([_ansatz_run(params, grid, t_end, sample_times)])[0]
