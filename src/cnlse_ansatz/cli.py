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
import itertools
import json
import math
import re
import sys
import time
import types
import warnings
from dataclasses import asdict

import numpy as np

from .ansatz import (
    BRANCHES,
    REFERENCE_PARAMS,
    AnsatzParams,
    _checked,
    _q_curve_from_state,
    with_branch,
    z_curve,
)
from .elliptic import EllipticInvariants, cubic_roots, wp_pair
from .errors import AliasingWarning
from .quartic import (
    QuarticCurve,
    eval_with_derivatives,
    invariants_from_coefficients,
    solution_denominator,
    weierstrass_solution,
)
from .reference import (
    SpectralGrid,
    _ansatz_run,
    _evolve_runs,
    _Run,
    _sample_targets,
    mass,
    split_step_evolve,
)
from .verify import (
    DiffConfig,
    _defect,
    _TimeRow,
    _rel_dev,
    _stencil_offsets,
    closed_form_invariants_q,
    closed_form_invariants_z,
    cnlse_residual,
    convergence_order,
    row_reports,
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
# Steps an evolve run may take: at n = 1024 a step costs about 56 us, so 10 minutes
EVOLVE_MAX_STEPS = 10 ** 7

_FIELD_OF_FLAG = {"q": "q", "c1": "c1", "c2": "c2", "c3": "c3",
                  "z0": "z0", "q0": "Q0", "phi0": "phi0"}
# Every flag of the run modes, in --help order, with its argparse settings.
# Each but config is also a config key (t_end stands for t-end too), which
# takes a JSON number for a float flag, a string for a single-valued one,
# and anything for a repeatable one.
_RUN_FLAGS = {
    **{flag: {"type": float} for flag in (*_FIELD_OF_FLAG, "x", "t")},
    "branch": {"choices": [*BRANCH_ORDER, "all"]},
    "grid": {"help": "X0:X1:NX,T0:T1:NT (scan) or window X0:X1:N (evolve)"},
    "format": {"choices": ["csv", "json"]},
    "out": {},
    "tol": {"action": "append", "help": "NAME=VALUE, or a bare VALUE for all checks"},
    "config": {"help": "JSON file mirroring flag names"},
    "dt": {"type": float},
    "t-end": {"type": float},
    "skip": {"action": "append", "help": "selftest: skip a module suite (repeatable)"},
}


class CliError(Exception):
    """Anything that should end the run with exit code 1 and a message."""


# A token that is a value, as -1000 and -.5 are, not a flag: -1e3, -2.5E-1
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits with code 2 on bad flags; the exit-code contract
    # reserves 2 for a different meaning, so route errors through CliError.
    def error(self, message):
        raise CliError(message)

    # Python 3.11 drops the "--" of --NAME=-- and stores []: refuse it as
    # --NAME -- is refused, a flag without its value
    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _fmt12(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _add_run_flags(sp) -> None:
    for flag, settings in _RUN_FLAGS.items():
        sp.add_argument(f"--{flag}", **settings)


def _add_elliptic_flags(sp) -> None:
    sp.add_argument("--g2", type=float, required=True)
    sp.add_argument("--g3", type=float, required=True)
    sp.add_argument("--u", type=complex, required=True)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None)


def _build_parser(argv) -> _Parser:
    """The parser of ``argv`` that ``_read_run_flags`` does not read: help,
    ``elliptic`` and every argv it refuses.  Every mode is a sub-command,
    but only the one invoked, the first mode name in ``argv``, gets its
    flags, since argparse reads no other.  The top-level parser has no
    option that takes a value, so that name is the one argparse dispatches
    to."""
    parser = _Parser(prog="cnlse-ansatz", description=__doc__)
    sub = parser.add_subparsers(dest="mode")
    invoked = next((arg for arg in argv if arg in MODES), None)
    for mode in MODES:
        sp = sub.add_parser(mode)
        if mode == invoked:
            (_add_elliptic_flags if mode == "elliptic" else _add_run_flags)(sp)
    return parser


def _read_run_flags(argv) -> argparse.Namespace | None:
    """The namespace ``_build_parser(argv).parse_args(argv)`` returns, read
    off ``_RUN_FLAGS`` without building a parser, for a run mode followed by
    ``--NAME=VALUE`` and ``--NAME VALUE`` tokens only: NAME a run flag in
    full, VALUE of its type and choices, and a VALUE token not read as a
    flag (it starts with "-" only as a negative number does).  None for
    any other argv, which argparse reads, help and refusals included."""
    if not argv or argv[0] not in _DISPATCH:
        return None
    values = {flag.replace("-", "_"): None for flag in _RUN_FLAGS}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        settings = _RUN_FLAGS.get(name[2:]) if name.startswith("--") else None
        if not eq:
            text = next(tokens, None)
            if text is None or text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
                return None
        if settings is None or text == "--":  # argparse drops a "--" value
            return None
        try:
            value = settings.get("type", str)(text)
        except ValueError:
            return None
        if value not in settings.get("choices", (value,)):
            return None
        dest = name[2:].replace("-", "_")
        values[dest] = [*(values[dest] or ()), value] if "action" in settings else value
    return argparse.Namespace(mode=argv[0], **values)


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


def _finite(v: float, what: str) -> float:
    if not math.isfinite(v):
        raise CliError(f"{what} must be finite, got {v!r}")
    return v


def _resolve_run(ns) -> argparse.Namespace:
    """``ns`` with each run flag but config set to the value of the flag,
    else of its config key, else the built-in one, and with ``params``,
    ``branches``, ``tolerances`` and ``skips`` added.  Flags resolve, and a
    bad value is refused, in this order: the parameters, branch, tol,
    format, skip, x, t, grid, out, dt, t-end."""
    config = _load_config(ns.config) if ns.config else {}
    unknown = set(config) - (set(_RUN_FLAGS) - {"config"} | {"t_end"})
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def pick(flag, fallback, check=None):
        """The value of --flag, else of its config key (t_end before t-end),
        else fallback; passed through check(value, source) and set on ns."""
        dest = flag.replace("-", "_")
        v, source = getattr(ns, dest), f"--{flag}"
        key = next((k for k in (dest, flag) if k in config), None)
        if v is None and key is None:
            v = fallback
        elif v is None:
            v, source = config[key], f"config key {key!r}"
            settings = _RUN_FLAGS[flag]
            if "action" not in settings:  # a repeatable flag's key takes anything
                number = settings.get("type") is float
                if isinstance(v, bool) or not isinstance(v, (int, float) if number else str):
                    raise CliError(f"{source} must be a {'number' if number else 'string'}, "
                                   f"got {v!r}")
                if number:
                    try:
                        v = float(v)
                    except OverflowError:
                        raise CliError(f"{source} is too large for a float") from None
            if v not in settings.get("choices", (v,)):
                raise CliError(f"unknown {flag} {v!r}")
        if check is not None:
            v = check(v, source)
        setattr(ns, dest, v)
        return v

    ns.params = AnsatzParams(**{field: pick(flag, getattr(REFERENCE_PARAMS, field))
                                for flag, field in _FIELD_OF_FLAG.items()})

    branch = pick("branch", "all")
    ns.branches = tuple((b, BRANCHES[b]) for b in (BRANCH_ORDER if branch == "all" else [branch]))

    ns.tolerances = dict(DEFAULT_TOLERANCES)
    tol = pick("tol", None)
    for item in tol if isinstance(tol, list) else [] if tol is None else [tol]:
        text = str(item)
        if "=" in text:
            name, _, value = text.partition("=")
            name = name.strip()
            if name not in ns.tolerances:
                raise CliError(f"unknown tolerance name {name!r}")
            ns.tolerances[name] = _positive_float(value, f"tolerance {name}")
        else:
            v = _positive_float(text, "tolerance")
            ns.tolerances = dict.fromkeys(ns.tolerances, v)

    pick("format", "csv")
    skips = pick("skip", None) or []
    ns.skips = tuple(str(s) for s in (skips if isinstance(skips, list) else [skips]))

    pick("x", 1.0, _finite)
    pick("t", 1.0, _finite)
    pick("grid", _DEFAULT_GRID.get(ns.mode))
    pick("out", None)
    pick("dt", 1e-3, _positive_float)
    pick("t-end", 0.5)
    return ns


def _parse_axis(chunk: str, name: str) -> np.ndarray:
    """The points of one ``LO:HI:N`` axis, printable text (the CSV header
    repeats it on one line): at most EVOLVE_MAX_STEPS points, LO finite,
    and when N > 1, HI finite and above LO, and HI - LO finite."""
    if not chunk.isprintable():  # float() and int() take a line break or tab around a number
        raise CliError(f"{name} axis must be printable text, got {chunk!r}")
    bits = chunk.split(":")
    if len(bits) != 3:
        raise CliError(f"{name} axis must be LO:HI:N, got {chunk!r}")
    try:
        lo, hi, n = float(bits[0]), float(bits[1]), int(bits[2])
    except ValueError as exc:
        raise CliError(f"bad {name} axis {chunk!r}") from exc
    if n <= 0:
        raise CliError(f"empty grid: {name} axis has {n} points")
    if n > EVOLVE_MAX_STEPS:  # refused before an allocation that cannot succeed
        raise CliError(f"{name} axis has {n} points; an axis takes at most {EVOLVE_MAX_STEPS:.0e}")
    if not math.isfinite(lo):
        raise CliError(f"{name} axis LO must be finite, got {chunk!r}")
    if n == 1:
        # HI plays no part in a one-point axis, even when it is not finite
        return np.array([lo])
    if not math.isfinite(hi):
        raise CliError(f"{name} axis HI must be finite, got {chunk!r}")
    if not math.isfinite(hi - lo):
        raise CliError(f"{name} axis HI - LO overflows a float, got {chunk!r}")
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
    return {k: v for k, v in asdict(params).items() if k not in ("sigma_z", "sigma_Q")}


def _write_table(rc: argparse.Namespace, meta: dict, columns, key: str, fields: dict) -> None:
    """Write the table ``fields`` (one list per field name, all of one
    length, a row per index) with the run metadata.

    CSV: ``# generated_at``, ``# mode`` and one ``# key=value`` line per
    metadata entry, then ``columns`` as header and rows at 12 significant
    digits (the ``flags`` column reads the ``notes`` field), streamed.
    JSON: ``{"metadata": {generated_at, mode, ..., params}, key: records}``,
    a record per row keyed by the field names in order, as
    ``json.dumps(..., indent=2)`` writes it, in one write.  The metadata is
    that call itself; each record is one template over a row of tokens, a
    column's tokens one call of json's C encoder split on its item
    separator, or one call per value where that split does not give one
    token per value (a string holding the separator, or no values).
    """
    meta = {"generated_at": _timestamp(), "mode": rc.mode, **meta}
    with _output(rc.out) as stream:
        if rc.format == "csv":
            for name, value in meta.items():
                stream.write(f"# {name}={value}\n")
            writer = csv.writer(stream)
            writer.writerow(columns)
            writer.writerows(zip(*(map(_fmt12, fields[_CSV_FIELD.get(c, c)]) for c in columns)))
        else:
            meta["params"] = _params_dict(rc.params)
            head = json.dumps({"metadata": meta, key: []}, indent=2)  # ends '[]\n}'
            template = "%s\n    {" + ",".join(
                f"\n      {json.dumps(name)}: %s" for name in fields) + "\n    }"
            tokens = [itertools.chain([""], itertools.repeat(","))]  # from the 2nd record on
            for values in fields.values():
                # a string holding ", " splits into more tokens than values, and
                # no values into one: either column is encoded value by value
                split = json.dumps(values)[1:-1].split(", ")
                tokens.append(split if len(split) == len(values) else map(json.dumps, values))
            pieces = [head[:-3], *(template % row for row in zip(*tokens))]
            pieces.append("\n  ]\n}\n" if len(pieces) > 1 else "]\n}\n")
            stream.write("".join(pieces))


def _reports(rc: argparse.Namespace, row: _TimeRow, xs) -> dict:
    """The reports of rc.branches at every time of the row's stack and x of
    xs, as one list per report field, in output order: branch (in their
    order), then x, then t.  One ``row_reports`` call per orbit serves
    every sigma_Q branch on it."""
    signs: dict = {}
    for _, (sz, sq) in rc.branches:
        signs.setdefault(sz, []).append(sq)
    orbits = {sz: row_reports(row, with_branch(rc.params, sz, sqs[0]), xs, tuple(sqs))
              for sz, sqs in signs.items()}
    blocks = [(orbits[sz], signs[sz].index(sq)) for _, (sz, sq) in rc.branches]
    return {name: np.concatenate([cols[name][i].T.ravel() for cols, i in blocks]).tolist()
            for name in next(iter(orbits.values()))}


def cmd_paper_check(rc: argparse.Namespace) -> int:
    tol, row = rc.tolerances, _TimeRow(rc.params, rc.t)
    reports = _reports(rc, row, (rc.x,))
    rows = []
    for (name, (sz, sq)), P, r1, r2, notes in zip(
            rc.branches, *(reports[f] for f in ("P", "r1", "r2", "notes"))):
        _checked(row.profile[sz].errors[0])  # the error of an orbit state that fails at t
        note = notes.split(";")[0]
        rows.append((name, sz, sq, P, r1, r2, note if note in ("pole", "pole_adjacent") else ""))
    with _output(rc.out) as stream, contextlib.redirect_stdout(stream):
        print(f"point: x = {_fmt12(rc.x)}, t = {_fmt12(rc.t)}")
        print("branch  sigma_z  sigma_q  P                 r1            r2")
        for name, sz, sq, P, r1, r2, note in rows:
            print(f"{name:<6}  {sz:+d}       {sq:+d}       "
                  f"{P:<16.10g}  {r1:<12.4g}  {r2:<12.4g}" + (note and f"  {note}"))
        # next to a profile pole r2 differences a near-vertical profile, so
        # it is marked as report_at marks it and left out of the verdict
        solves = all(r1 <= tol["r_alg"] and (note or r2 <= tol["r_alg"])
                     for *_, r1, r2, note in rows)
        nonzero = all(abs(P) >= tol["p_floor"] for _, _, _, P, *_ in rows)
        matches = [name for name, _, _, P, *_ in rows
                   if abs(P - P_MATCH_TARGET) <= tol["p_match"]]
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


def cmd_scan(rc: argparse.Namespace) -> int:
    xs, ts = _parse_grid(rc.grid)
    # one stack of time rows (see verify) serves every point and branch
    _write_table(rc, {"grid": rc.grid, "branch": ",".join(name for name, _ in rc.branches)},
                 CLI_COLUMNS, "reports", _reports(rc, _TimeRow(rc.params, ts), xs))
    return 0


def cmd_residuals(rc: argparse.Namespace) -> int:
    reports = _reports(rc, _TimeRow(rc.params, rc.t), (rc.x,))
    _write_table(rc, {"x": _fmt12(rc.x), "t": _fmt12(rc.t)}, CLI_COLUMNS, "reports", reports)
    return 0


def cmd_pde(rc: argparse.Namespace) -> int:
    # the pde_abs of residuals: an orbit state that fails at t, or a profile
    # curve with no real slope at Q0, fails the stencil as a time node does
    reports = _reports(rc, _TimeRow(rc.params, rc.t), (rc.x,))
    nans = [float("nan")] * len(reports["pde_abs"])
    reports.update(P=nans, r1=nans, r2=nans, notes=[
        "StencilOutOfDomain" if math.isnan(v) else "" for v in reports["pde_abs"]])
    _write_table(rc, {"x": _fmt12(rc.x), "t": _fmt12(rc.t)}, CLI_COLUMNS, "reports", reports)
    return 0


def _control_run(dt: float) -> _Run:
    """The soliton control: the exact sech soliton (p = 1, q = 2) on
    [-40, 40] with n = 1024, max(1, round(1 / dt)) steps of dt, its result
    the Linf distance to the exact solution at the end.  Its step is not
    screened for aliasing: the control's own error is what it reports."""
    grid = SpectralGrid(-40.0, 40.0, 1024, dt)
    sol = soliton_field(1.0)
    steps = max(1, int(round(1.0 / dt)))
    exact = np.asarray(sol(grid.x, steps * dt))
    return _Run(np.asarray(sol(grid.x, 0.0)), 1.0, 2.0, grid, (steps,),
                lambda states: float(np.max(np.abs(states[0] - exact))))


def cmd_evolve(rc: argparse.Namespace) -> int:
    if len(rc.branches) != 1:
        raise CliError("evolve runs one branch at a time; pass --branch pp|pm|mp|mm")
    (name, (sz, sq)), = rc.branches
    par = with_branch(rc.params, sz, sq)

    window, _, t_axis = rc.grid.partition(",")
    xs = _parse_axis(window, "window")
    grid = SpectralGrid(float(xs[0]), float(xs[-1]), xs.size, rc.dt)
    sample_times = _parse_axis(t_axis, "time") if t_axis else None
    # the control takes 1 / dt steps, the ansatz run one per dt to its last sample
    steps = max([1.0, *_sample_targets(rc.t_end, sample_times)]) / rc.dt
    if steps > EVOLVE_MAX_STEPS:
        raise CliError(f"--dt {_fmt12(rc.dt)} asks for {steps:.3g} steps; "
                       f"an evolve run takes at most {EVOLVE_MAX_STEPS:.0e}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", AliasingWarning)
        ansatz = _ansatz_run(par, grid, rc.t_end, sample_times)
    aliasing = any(issubclass(w.category, AliasingWarning) for w in caught)
    # one stack when the window's n is the control's
    control, series = _evolve_runs([_control_run(rc.dt), ansatz])

    columns = ("t", "l2", "linf")
    _write_table(rc, {
        "branch": name, "soliton_control_linf": control,
        "aliasing_warned": aliasing, **series.metadata, "monotone": series.monotone,
    }, columns, "points", {c: [getattr(pt, c) for pt in series.points] for c in columns})
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
        if ns.format == "json":
            stream.write(json.dumps(payload, indent=2) + "\n")
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
            worst = max(worst, float(_defect(curve, vals, h)))
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


def cmd_selftest(rc: argparse.Namespace) -> int:
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
MODES = (*_DISPATCH, "elliptic")


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return
    its exit code.  A run mode's flags are read off ``_RUN_FLAGS``
    (``_read_run_flags``); argparse parses only what that refuses, so it
    alone writes help and refuses flags."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _read_run_flags(argv) or _build_parser(argv).parse_args(argv)
        if ns.mode is None:
            raise CliError(f"a mode is required: {', '.join(MODES)}")
        if ns.mode == "elliptic":
            return cmd_elliptic(ns)
        return _DISPATCH[ns.mode](_resolve_run(ns))
    # the package's failure classes derive from ValueError or ArithmeticError
    except (CliError, ArithmeticError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
