"""Command line frontend.

Modes: paper-check (the four-branch falsification table), scan (residual
grid sweep), residuals and pde (single-point reports), evolve (spectral
cross-check series), selftest (invariant suite), elliptic (direct function
evaluation).  Parameters come from flags, falling back to a JSON config
file, falling back to the built-in reference set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
import types
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ansatz import (
    BRANCHES,
    REFERENCE_PARAMS,
    AnsatzParams,
    Q_of_xt,
    _q_curve_from_state,
    field_A,
    with_branch,
    z_curve,
)
from .elliptic import EllipticInvariants, cubic_roots, wp_pair
from .errors import (
    AliasingWarning,
    PoleProximity,
    RealityViolation,
    StencilOutOfDomain,
)
from .quartic import (
    QuarticCurve,
    eval_with_derivatives,
    invariants_from_coefficients,
    solution_denominator,
    weierstrass_solution,
)
from .reference import SpectralGrid, ansatz_divergence, mass, split_step_evolve
from .verify import (
    DiffConfig,
    ResidualReport,
    _central_differences,
    _pole_note,
    _rel_dev,
    _stencil_offsets,
    closed_form_invariants_q,
    closed_form_invariants_z,
    cnlse_residual,
    convergence_order,
    report_at,
    residual_P,
    residual_R1,
    residual_R2,
    soliton_field,
)

# Tolerances of the built-in verdicts; each can be overridden with
# --tol NAME=VALUE, and a bare --tol VALUE rebinds all of them at once.
DEFAULT_TOLERANCES = {
    "r_alg": 1e-8,        # by-construction residuals r1, r2
    "p_floor": 0.05,      # "significantly nonzero" threshold for |P|
    "p_match": 2e-3,      # agreement with the quoted value 0.113
    "wp_ode": 1e-10,
    "invariants": 1e-12,
    "equilibrium": 1e-10,
    "quartic_ode": 1e-6,
    "soliton_order": 0.1,
    "soliton_mag": 1e-5,
    "mass_drift": 1e-10,
}

P_MATCH_TARGET = 0.113
BRANCH_ORDER = ("pp", "pm", "mp", "mm")
CLI_COLUMNS = ("sigma_z", "sigma_q", "x", "t", "P", "r1", "r2", "pde_abs", "flags")
_CSV_FIELD = {"flags": "notes"}  # CSV column -> record key, where they differ
SCAN_DEFAULT_GRID = "0.2:1.2:10,0.2:1.2:10"
EVOLVE_DEFAULT_WINDOW = "-1.25:1.25:256"
_DEFAULT_GRID = {"scan": SCAN_DEFAULT_GRID, "evolve": EVOLVE_DEFAULT_WINDOW}

_PARAM_FLAGS = ("q", "c1", "c2", "c3", "z0", "q0", "phi0")
_FIELD_OF_FLAG = {"q": "q", "c1": "c1", "c2": "c2", "c3": "c3",
                  "z0": "z0", "q0": "Q0", "phi0": "phi0"}


class CliError(Exception):
    """Anything that should end the run with exit code 1 and a message."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the exit-code contract
    # reserves 2 for a different meaning, so route errors through CliError.
    def error(self, message):
        raise CliError(message)


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: mode, parameters, evaluation point, output."""

    mode: str
    params: AnsatzParams
    branches: tuple
    x: float
    t: float
    grid: str | None
    fmt: str
    out: str | None
    tolerances: dict
    skips: tuple
    dt: float
    t_end: float


def _fmt12(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cnlse-ansatz", description=__doc__)
    sub = parser.add_subparsers(dest="mode")

    def add_common(sp):
        for flag in _PARAM_FLAGS:
            sp.add_argument(f"--{flag}", type=float, default=None)
        sp.add_argument("--x", type=float, default=None)
        sp.add_argument("--t", type=float, default=None)
        sp.add_argument("--branch", choices=list(BRANCH_ORDER) + ["all"], default=None)
        sp.add_argument("--grid", default=None,
                        help="X0:X1:NX,T0:T1:NT (scan) or window X0:X1:N (evolve)")
        sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol", action="append", default=None,
                        help="NAME=VALUE, or a bare VALUE for all checks")
        sp.add_argument("--config", default=None, help="JSON file mirroring flag names")
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--t-end", dest="t_end", type=float, default=None)
        sp.add_argument("--skip", action="append", default=None,
                        help="selftest: skip a module suite (repeatable)")

    for mode in ("paper-check", "scan", "residuals", "pde", "evolve", "selftest"):
        add_common(sub.add_parser(mode))

    ell = sub.add_parser("elliptic")
    ell.add_argument("--g2", type=float, required=True)
    ell.add_argument("--g3", type=float, required=True)
    ell.add_argument("--u", type=complex, required=True)
    ell.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    ell.add_argument("--out", default=None)
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return data


_CONFIG_KEYS = set(_PARAM_FLAGS) | {
    "x", "t", "branch", "grid", "format", "out", "dt", "t_end", "t-end",
    "tol", "skip",
}
# config values read as numbers; the other keys that flags mirror read strings
_NUMBER_KEYS = set(_PARAM_FLAGS) | {"x", "t", "dt", "t_end"}


def _positive_float(text, what: str) -> float:
    try:
        v = float(text)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{what} must be a number, got {text!r}") from exc
    if not v > 0.0:
        raise CliError(f"{what} must be positive")
    if v == math.inf:
        raise CliError(f"{what} must be finite, got {text!r}")
    return v


def _resolve_run(ns) -> RunConfig:
    config = _load_config(ns.config) if ns.config else {}
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(flag, fallback):
        attr = {"format": "fmt"}.get(flag, flag.replace("-", "_"))
        v = getattr(ns, attr, None)
        if v is not None:
            return v
        key = flag if flag in config else {"t_end": "t-end"}.get(flag)
        if key not in config:
            return fallback
        v = config[key]
        kind = "number" if flag in _NUMBER_KEYS else "string"
        if isinstance(v, bool) or not isinstance(v, (int, float) if kind == "number" else str):
            raise CliError(f"config key {key!r} must be a {kind}, got {v!r}")
        if kind == "number":
            try:
                return float(v)
            except OverflowError:
                raise CliError(f"config key {key!r} is too large for a float") from None
        return v

    def named(flag):
        return f"--{flag}" if getattr(ns, flag) is not None else f"config key {flag!r}"

    def finite(flag, fallback):
        v = pick(flag, fallback)
        if not math.isfinite(v):
            raise CliError(f"{named(flag)} must be finite, got {v!r}")
        return v

    fields = {}
    for flag in _PARAM_FLAGS:
        name = _FIELD_OF_FLAG[flag]
        fields[name] = pick(flag, getattr(REFERENCE_PARAMS, name))
    params = AnsatzParams(**fields)

    branch = pick("branch", "all")
    if branch == "all":
        branches = tuple((b, BRANCHES[b]) for b in BRANCH_ORDER)
    elif branch in BRANCHES:
        branches = ((branch, BRANCHES[branch]),)
    else:
        raise CliError(f"unknown branch {branch!r}")

    tolerances = dict(DEFAULT_TOLERANCES)
    tol_items = ns.tol if ns.tol is not None else config.get("tol")
    if tol_items is not None and not isinstance(tol_items, list):
        tol_items = [tol_items]
    for item in tol_items or []:
        text = str(item)
        if "=" in text:
            name, _, value = text.partition("=")
            name = name.strip()
            if name not in tolerances:
                raise CliError(f"unknown tolerance name {name!r}")
            tolerances[name] = _positive_float(value, f"tolerance {name}")
        else:
            v = _positive_float(text, "tolerance")
            tolerances = {k: v for k in tolerances}

    fmt = pick("format", "csv")
    if fmt not in ("csv", "json"):
        raise CliError(f"unknown format {fmt!r}")

    skips = ns.skip if ns.skip is not None else config.get("skip") or []
    if not isinstance(skips, list):
        skips = [skips]

    return RunConfig(
        mode=ns.mode,
        params=params,
        branches=branches,
        x=finite("x", 1.0),
        t=finite("t", 1.0),
        grid=pick("grid", _DEFAULT_GRID.get(ns.mode)),
        fmt=fmt,
        out=pick("out", None),
        tolerances=tolerances,
        skips=tuple(str(s) for s in skips),
        dt=_positive_float(pick("dt", 1e-3), named("dt")),
        t_end=pick("t_end", 0.5),
    )


def _parse_axis(chunk: str, name: str) -> np.ndarray:
    """The points of one ``LO:HI:N`` axis: LO finite, and when N > 1, HI
    finite and above LO."""
    bits = chunk.split(":")
    if len(bits) != 3:
        raise CliError(f"{name} axis must be LO:HI:N, got {chunk!r}")
    try:
        lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
    except ValueError as exc:
        raise CliError(f"bad {name} axis {chunk!r}") from exc
    if n <= 0:
        raise CliError(f"empty grid: {name} axis has {n} points")
    if not math.isfinite(lo):
        raise CliError(f"{name} axis LO must be finite, got {chunk!r}")
    if n == 1:
        # HI plays no part in a one-point axis, even when it is not finite
        return np.array([lo])
    if not math.isfinite(hi):
        raise CliError(f"{name} axis HI must be finite, got {chunk!r}")
    if hi <= lo:
        raise CliError(f"{name} axis needs HI > LO")
    return np.linspace(lo, hi, n)


def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"grid must look like X0:X1:NX,T0:T1:NT, got {text!r}")
    return _parse_axis(parts[0], "x"), _parse_axis(parts[1], "t")


@contextlib.contextmanager
def _output(path):
    """Yield stdout, or the file at ``path`` opened for writing and closed
    on the way out."""
    if path is None:
        yield sys.stdout
        return
    try:
        stream = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    with stream:
        yield stream


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _params_dict(params: AnsatzParams) -> dict:
    return {
        "q": params.q, "c1": params.c1, "c2": params.c2, "c3": params.c3,
        "z0": params.z0, "Q0": params.Q0, "phi0": params.phi0,
    }


def _write_table(rc: RunConfig, meta: dict, columns, key: str, records) -> None:
    """Write ``records`` (dicts) with the run metadata.

    CSV: ``# generated_at``, ``# mode`` and one ``# key=value`` line per
    metadata entry, then ``columns`` as header and rows at 12 significant
    digits (the ``flags`` column reads a record's ``notes``).  JSON:
    ``{"metadata": {generated_at, mode, ..., params}, key: records}``.
    """
    meta = {"generated_at": _timestamp(), "mode": rc.mode, **meta}
    with _output(rc.out) as stream:
        if rc.fmt == "csv":
            for name, value in meta.items():
                stream.write(f"# {name}={value}\n")
            writer = csv.writer(stream)
            writer.writerow(columns)
            for rec in records:
                writer.writerow([_fmt12(rec[_CSV_FIELD.get(c, c)]) for c in columns])
        else:
            meta["params"] = _params_dict(rc.params)
            json.dump({"metadata": meta, key: records}, stream, indent=2)
            stream.write("\n")


def _write_reports(rc: RunConfig, reports, meta: dict) -> None:
    _write_table(rc, meta, CLI_COLUMNS, "reports",
                 [rep.to_json_dict() for rep in reports])


def cmd_paper_check(rc: RunConfig) -> int:
    tol = rc.tolerances
    rows = []
    for name, (sz, sq) in rc.branches:
        par = with_branch(rc.params, sz, sq)
        rows.append((
            name, sz, sq,
            float(residual_P(par, rc.x, rc.t)),
            float(residual_R1(par, rc.t)),
            float(residual_R2(par, rc.x, rc.t)),
            _pole_note(Q_of_xt(par, rc.x, rc.t)),
        ))
    with _output(rc.out) as stream, contextlib.redirect_stdout(stream):
        print(f"point: x = {_fmt12(rc.x)}, t = {_fmt12(rc.t)}")
        print("branch  sigma_z  sigma_q  P                 r1            r2")
        for name, sz, sq, p_val, r1, r2, note in rows:
            print(f"{name:<6}  {sz:+d}       {sq:+d}       "
                  f"{p_val:<16.10g}  {r1:<12.4g}  {r2:<12.4g}" + (note and f"  {note}"))
        # next to a profile pole r2 differences a near-vertical profile, so
        # it is marked as report_at marks it and left out of the verdict
        solves = all(r1 <= tol["r_alg"] and (note or r2 <= tol["r_alg"])
                     for _, _, _, _, r1, r2, note in rows)
        nonzero = all(abs(p_val) >= tol["p_floor"] for _, _, _, p_val, _, _, _ in rows)
        matches = [name for name, _, _, p_val, _, _, _ in rows
                   if abs(p_val - P_MATCH_TARGET) <= tol["p_match"]]
        print(f"constructed pair solves both quartic ODEs (r1, r2 <= {tol['r_alg']:g}): "
              f"{'yes' if solves else 'NO'}")
        print(f"|P| >= {tol['p_floor']:g} on every branch: {'yes' if nonzero else 'NO'}")
        if matches:
            print(f"branch matching P = {P_MATCH_TARGET} +- {tol['p_match']:g}: "
                  f"{', '.join(matches)}")
        else:
            print(f"no branch matches P = {P_MATCH_TARGET} +- {tol['p_match']:g}")
    if not (solves and nonzero):
        return 1
    return 0 if matches else 2


def cmd_scan(rc: RunConfig) -> int:
    xs, ts = _parse_grid(rc.grid)
    pars = [with_branch(rc.params, sz, sq) for _, (sz, sq) in rc.branches]
    # t, then x, then the branch: each time's memoised state serves its x
    # row, and the branches evaluated back to back share the z-curve's and
    # the two profile-curve families' wp arguments through wp_pair's memo.
    # The reports are written branch, then x, then t.
    by_t = [[[report_at(par, x, t) for par in pars] for x in xs] for t in ts]
    reports = [by_t[j][i][b] for b in range(len(pars))
               for i in range(len(xs)) for j in range(len(ts))]
    _write_reports(rc, reports, {
        "grid": rc.grid, "branch": ",".join(name for name, _ in rc.branches),
    })
    return 0


def cmd_residuals(rc: RunConfig) -> int:
    reports = [
        report_at(with_branch(rc.params, sz, sq), rc.x, rc.t)
        for _, (sz, sq) in rc.branches
    ]
    _write_reports(rc, reports, {"x": _fmt12(rc.x), "t": _fmt12(rc.t)})
    return 0


def cmd_pde(rc: RunConfig) -> int:
    reports = []
    for _, (sz, sq) in rc.branches:
        par = with_branch(rc.params, sz, sq)
        notes = ""
        value = float("nan")
        try:
            value = abs(cnlse_residual(partial(field_A, par), rc.x, rc.t, q=par.q))
        except StencilOutOfDomain as exc:
            notes = type(exc).__name__
        reports.append(ResidualReport(
            x=rc.x, t=rc.t, sigma_z=sz, sigma_q=sq,
            P=float("nan"), r1=float("nan"), r2=float("nan"),
            pde_abs=float(value), notes=notes,
        ))
    _write_reports(rc, reports, {"x": _fmt12(rc.x), "t": _fmt12(rc.t)})
    return 0


def _soliton_control(dt: float) -> float:
    grid = SpectralGrid(-40.0, 40.0, 1024, dt)
    sol = soliton_field(1.0)
    steps = max(1, int(round(1.0 / dt)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        evolved = split_step_evolve(np.asarray(sol(grid.x, 0.0)), 1.0, 2.0, grid, steps)
    exact = np.asarray(sol(grid.x, steps * dt))
    return float(np.max(np.abs(evolved - exact)))


def cmd_evolve(rc: RunConfig) -> int:
    if len(rc.branches) != 1:
        raise CliError("evolve runs one branch at a time; pass --branch pp|pm|mp|mm")
    (name, (sz, sq)), = rc.branches
    par = with_branch(rc.params, sz, sq)

    window, _, t_axis = rc.grid.partition(",")
    xs = _parse_axis(window, "window")
    grid = SpectralGrid(float(xs[0]), float(xs[-1]), xs.size, rc.dt)
    sample_times = _parse_axis(t_axis, "time") if t_axis else None

    control = _soliton_control(rc.dt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AliasingWarning)
        series = ansatz_divergence(par, grid, rc.t_end, sample_times)
    aliasing = any(issubclass(w.category, AliasingWarning) for w in caught)

    doc = series.to_json_dict()
    _write_table(rc, {
        "branch": name, "soliton_control_linf": control,
        "aliasing_warned": aliasing, **doc["metadata"],
    }, ("t", "l2", "linf"), "points", doc["points"])
    return 0


def cmd_elliptic(ns) -> int:
    inv = EllipticInvariants(ns.g2, ns.g3)
    value, slope = wp_pair(ns.u, inv)
    roots = cubic_roots(inv)
    payload = {
        "g2": inv.g2, "g3": inv.g3, "discriminant": inv.discriminant,
        "u_re": ns.u.real, "u_im": ns.u.imag,
        "wp_re": value.real, "wp_im": value.imag,
        "wp_prime_re": slope.real, "wp_prime_im": slope.imag,
    }
    for i, r in enumerate(roots, start=1):
        payload[f"e{i}_re"] = r.real
        payload[f"e{i}_im"] = r.imag
    with _output(ns.out) as stream:
        if ns.fmt == "json":
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            for key, val in payload.items():
                stream.write(f"{key},{_fmt12(float(val))}\n")
    return 0


# ---------------------------------------------------------------------------
# selftest suite


def _check_wp_ode(tol: float):
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(200):
        g2, g3 = rng.uniform(-5.0, 5.0, size=2)
        inv = EllipticInvariants(float(g2), float(g3))
        r = rng.uniform(0.05, 3.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        u = complex(r * np.cos(ang), r * np.sin(ang))
        w, w1 = wp_pair(u, inv)
        lhs = w1 * w1 - (4.0 * w ** 3 - inv.g2 * w - inv.g3)
        worst = max(worst, abs(lhs) / max(1.0, abs(w) ** 3))
    return worst <= tol, worst


def _check_invariants(tol: float):
    rng = np.random.default_rng(8011)
    worst = 0.0
    for _ in range(1000):
        draw = types.SimpleNamespace(
            q=float(rng.uniform(0.25, 2.0) * rng.choice([-1.0, 1.0])),
            c1=float(rng.uniform(-2.0, 2.0)),
            c2=float(rng.uniform(-2.0, 2.0)),
            c3=float(rng.uniform(-2.0, 2.0)),
        )
        zc = z_curve(draw)
        cz = invariants_from_coefficients(zc)
        ez = closed_form_invariants_z(draw)
        worst = max(worst, _rel_dev(cz.g2, ez.g2), _rel_dev(cz.g3, ez.g3))
        z = float(rng.uniform(0.05, 2.5))
        r1z = float(eval_with_derivatives(zc, z)[0])
        if r1z < 0.0:
            continue
        zt = float(rng.choice([-1.0, 1.0])) * float(np.sqrt(r1z))
        cq = invariants_from_coefficients(_q_curve_from_state(draw, z, zt))
        eq = closed_form_invariants_q(draw, z, zt)
        worst = max(worst, _rel_dev(cq.g2, eq.g2), _rel_dev(cq.g3, eq.g3))
    return worst <= tol, worst


def _check_equilibrium(tol: float):
    # double root at y0 = 1: R = -(y-1)^2 (y^2+1)
    curve = QuarticCurve(-1.0, 0.5, -1.0 / 3.0, 0.5, -1.0)
    xi = np.linspace(0.0, 1.5, 31)
    worst = 0.0
    for sigma in (1, -1):
        y = weierstrass_solution(curve, 1.0, sigma, xi)
        worst = max(worst, float(np.max(np.abs(y - 1.0))))
    return worst <= tol, worst


def _check_quartic_ode(tol: float):
    rng = np.random.default_rng(424242)
    h = 1e-5
    worst = 0.0
    tried = 0
    while tried < 25:
        coef = rng.uniform(-4.0, 4.0, size=5)
        curve = QuarticCurve(*(float(c) for c in coef))
        y0 = float(rng.uniform(-2.0, 2.0))
        if eval_with_derivatives(curve, y0)[0] <= 0.1:
            continue
        tried += 1
        for _ in range(6):
            xi = float(rng.uniform(0.05, 1.5))
            stencil = xi + _stencil_offsets(h)
            # sample away from solution poles: a difference quotient cannot
            # track the near-vertical stretches next to them
            den = np.abs(solution_denominator(curve, y0, stencil))
            if float(np.min(den)) < 0.05:
                continue
            vals = weierstrass_solution(curve, y0, 1, stencil)
            if not np.all(np.isfinite(vals)) or float(np.max(np.abs(vals))) > 50.0:
                continue
            slope, _ = _central_differences(vals, h)
            r = float(eval_with_derivatives(curve, float(vals[0]))[0])
            worst = max(worst, abs(slope * slope - r) / max(1.0, abs(r)))
    return worst <= tol, worst


def _check_soliton_order(tol: float):
    sol = soliton_field(1.0)
    mags = []
    for h in (4e-3, 2e-3, 1e-3):
        cfg = DiffConfig(h_t=h, h_x=h, richardson_levels=1)
        mags.append(abs(cnlse_residual(sol, 0.5, 0.3, cfg, 1.0, 2.0)))
    order = convergence_order(mags)
    return abs(order - 2.0) <= tol, order


def _check_soliton_mag(tol: float):
    sol = soliton_field(1.0)
    cfg = DiffConfig(h_t=1e-3, h_x=1e-3, richardson_levels=1)
    magnitude = abs(cnlse_residual(sol, 0.5, 0.3, cfg, 1.0, 2.0))
    return magnitude <= tol, magnitude


def _check_mass_drift(tol: float):
    grid = SpectralGrid(-40.0, 40.0, 1024, 1e-3)
    sol = soliton_field(1.0)
    a = np.asarray(sol(grid.x, 0.0))
    m0 = mass(a, grid.dx)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        a = split_step_evolve(a, 1.0, 2.0, grid, 1000)
    drift = abs(mass(a, grid.dx) - m0) / m0
    return drift <= tol, drift


_SELFTEST_SUITES = {
    "elliptic": (("wp_ode", _check_wp_ode),),
    "quartic": (("quartic_ode", _check_quartic_ode),
                ("equilibrium", _check_equilibrium)),
    "verify": (("invariants", _check_invariants),
               ("soliton_order", _check_soliton_order),
               ("soliton_mag", _check_soliton_mag)),
    "reference": (("mass_drift", _check_mass_drift),),
}


def cmd_selftest(rc: RunConfig) -> int:
    for skip in rc.skips:
        if skip not in _SELFTEST_SUITES:
            raise CliError(
                f"unknown suite {skip!r}; choices: {', '.join(_SELFTEST_SUITES)}"
            )
    failures = 0
    with _output(rc.out) as stream, contextlib.redirect_stdout(stream):
        print("check          measured      tolerance   status")
        for suite, checks in _SELFTEST_SUITES.items():
            if suite in rc.skips:
                for name, _ in checks:
                    print(f"{name:<14} {'-':<13} {'-':<11} SKIP")
                continue
            for name, fn in checks:
                tol = rc.tolerances[name]
                ok, measured = fn(tol)
                failures += 0 if ok else 1
                print(f"{name:<14} {measured:<13.4g} {tol:<11.4g} "
                      f"{'PASS' if ok else 'FAIL'}")
        print(f"overall: {'PASS' if failures == 0 else f'FAIL ({failures} checks)'}")
    return 0 if failures == 0 else 1


_DISPATCH = {
    "paper-check": cmd_paper_check,
    "scan": cmd_scan,
    "residuals": cmd_residuals,
    "pde": cmd_pde,
    "evolve": cmd_evolve,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.mode is None:
            raise CliError("a mode is required: paper-check, scan, residuals, "
                           "pde, evolve, selftest, elliptic")
        if ns.mode == "elliptic":
            return cmd_elliptic(ns)
        return _DISPATCH[ns.mode](_resolve_run(ns))
    # the package's other failure classes all derive from ValueError
    except (CliError, PoleProximity, RealityViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
