"""Workloads of the perfbench benchmark and the gates that judge their output.

Each workload is a fixed CLI invocation (or, for ``late``, a mirrored pair
of invocations) whose output is checked against the package's own
verdict: a fast wrong answer must count as a failed operation, never as a
speed-up.  Every gate reads only the CLI's output file, its exit code and
its standard error, so the same checks apply to traced and untraced runs.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

# Verdict tolerances, as the package and its tier-1 tests use them.
R_ALG = 1e-8            # cli.DEFAULT_TOLERANCES["r_alg"]: r1, r2 by construction
SOLITON_MAG = 1e-5      # cli.DEFAULT_TOLERANCES["soliton_mag"]: control error
PIN_TOL = 1e-5          # tests/test_verify.py: residual_P against the P pins
SEPARATION = 100.0      # acceptance criterion 8: ansatz vs control separation

# The real part of e^{-i phi}(i A_t + A_xx + q A|A|^2) cancels through the
# profile ODE and the imaginary part is P, so pde_abs = |P| exactly.  The
# FD residual carries the phase-quadrature error divided by its time step,
# measured at most 5e-6 on these grids; 1e-4 leaves a factor of 20.
IDENTITY_TOL = 1e-4

# Final linf of the evolve workload at the commit that defined this
# benchmark; the cross-check must reproduce it.
EVOLVE_FINAL_LINF = 2.3904494675051615
EVOLVE_LINF_RTOL = 1e-6

BRANCH_OF_SIGNS = {(1, 1): "pp", (1, -1): "pm", (-1, 1): "mp", (-1, -1): "mm"}
SCAN_COLUMNS = ["sigma_z", "sigma_q", "x", "t", "P", "r1", "r2", "pde_abs", "flags"]
SCAN_ROWS = 4 * 11 * 11     # four branches on the 11 x 11 grid
LATE_ROWS = 4 * 4           # one branch on the 4 x 4 window

# Digit metrics are capped so an exact match cannot print infinity.
MAX_DIGITS = 17.0


def load_pins(root: Path) -> dict:
    """P_AT_1_1 and P_AT_1_05 from tests/_pins.py, keyed by t.

    The module is parsed, not imported, so the benchmark never executes
    test code; the 50-digit literals stay the single oracle.
    """
    tree = ast.parse((root / "tests" / "_pins.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("P_AT_1_1", "P_AT_1_05"):
                found[name] = ast.literal_eval(node.value)
    return {1.0: found["P_AT_1_1"], 0.5: found["P_AT_1_05"]}


@dataclass
class ProcessResult:
    """What one CLI process left behind: the material every gate reads."""

    returncode: int
    stderr: str
    output: str


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    digits: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.problems


def _digits(err: float) -> float:
    return MAX_DIGITS if err <= 0.0 else min(MAX_DIGITS, -math.log10(err))


def _check_rows(rows, expected: int, verdict: Verdict) -> list:
    """Row count, r1/r2 and the |P| = pde_abs identity on un-noted rows.

    Returns the relative identity deviations of the un-noted rows.
    """
    if len(rows) != expected:
        verdict.problems.append(f"{len(rows)} rows, expected {expected}")
    devs = []
    for r in rows:
        if r["notes"]:
            continue  # a domain note is a legitimate result, not a failure
        where = f"(x={r['x']:g}, t={r['t']:g})"
        if not (r["r1"] <= R_ALG and r["r2"] <= R_ALG):
            verdict.problems.append(f"r1/r2 above {R_ALG:g} at {where}")
        dev = abs(r["pde_abs"] - abs(r["P"])) / max(1.0, abs(r["P"]))
        if not dev <= IDENTITY_TOL:
            verdict.problems.append(f"pde_abs != |P| by {dev:.3g} at {where}")
        devs.append(dev)
    return devs


def _common(result: ProcessResult, verdict: Verdict) -> bool:
    if result.returncode != 0:
        verdict.problems.append(f"exit code {result.returncode}")
    if result.stderr.strip():
        verdict.problems.append("stderr: " + result.stderr.strip().splitlines()[-1])
    return verdict.ok


def judge_scan(result: ProcessResult, pins: dict) -> Verdict:
    """Gates of ``scan``; digits = -log10 of the worst relative P-pin error."""
    verdict = Verdict()
    if not _common(result, verdict):
        return verdict
    try:
        rows = json.loads(result.output)["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        verdict.problems.append(f"unreadable JSON output: {exc}")
        return verdict
    _check_rows(rows, SCAN_ROWS, verdict)
    worst = 0.0
    for t, table in pins.items():
        for branch, pin in table.items():
            hits = [r for r in rows if r["x"] == 1.0 and r["t"] == t
                    and BRANCH_OF_SIGNS.get((r["sigma_z"], r["sigma_q"])) == branch]
            if len(hits) != 1:
                verdict.problems.append(f"no single row for pin {branch} at (1, {t:g})")
                continue
            p_val = hits[0]["P"]
            if not abs(p_val - pin) <= PIN_TOL:
                verdict.problems.append(f"P({branch}; 1, {t:g}) = {p_val!r}, pin {pin!r}")
            worst = max(worst, abs(p_val - pin) / abs(pin))
    verdict.digits = _digits(worst)
    return verdict


def judge_late(result: ProcessResult) -> Verdict:
    """Gates of ``late``; digits = -log10 of the median relative deviation
    of the FD PDE residual from |P| (the phase quadrature sets it)."""
    verdict = Verdict()
    if not _common(result, verdict):
        return verdict
    lines = [ln for ln in result.output.splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    try:
        header = next(reader)
        rows = []
        for rec in reader:
            d = dict(zip(header, rec))
            rows.append({"x": float(d["x"]), "t": float(d["t"]), "P": float(d["P"]),
                         "r1": float(d["r1"]), "r2": float(d["r2"]),
                         "pde_abs": float(d["pde_abs"]), "notes": d["flags"]})
    except (StopIteration, KeyError, ValueError) as exc:
        verdict.problems.append(f"unreadable CSV output: {exc}")
        return verdict
    if header != SCAN_COLUMNS:
        verdict.problems.append(f"CSV header {header}")
    devs = _check_rows(rows, LATE_ROWS, verdict)
    if devs:
        verdict.digits = _digits(statistics.median(devs))
    else:
        verdict.problems.append("every row carries a domain note")
    return verdict


def judge_evolve(result: ProcessResult) -> Verdict:
    """Gates of ``evolve``; digits = log10(final linf / control linf), the
    decades between the ansatz's departure and the integrator's own error."""
    verdict = Verdict()
    if not _common(result, verdict):
        return verdict
    try:
        doc = json.loads(result.output)
        control = float(doc["metadata"]["soliton_control_linf"])
        monotone = doc["metadata"]["monotone"]
        points = doc["points"]
        final = float(points[-1]["linf"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        verdict.problems.append(f"unreadable JSON output: {exc}")
        return verdict
    if len(points) != 6:
        verdict.problems.append(f"{len(points)} series points, expected 6")
    if not control <= SOLITON_MAG:
        verdict.problems.append(f"soliton control {control:.3g} above {SOLITON_MAG:g}")
    if monotone is not True:
        verdict.problems.append("divergence series not monotone")
    if not final > SEPARATION * control:
        verdict.problems.append(f"final linf {final:.6g} not {SEPARATION:g}x the control")
    if not abs(final - EVOLVE_FINAL_LINF) <= EVOLVE_LINF_RTOL * EVOLVE_FINAL_LINF:
        verdict.problems.append(f"final linf {final!r}, expected {EVOLVE_FINAL_LINF!r}")
    if control > 0.0 and final > 0.0:
        verdict.digits = min(MAX_DIGITS, math.log10(final / control))
    return verdict


@dataclass(frozen=True)
class Workload:
    """A named set of CLI invocations, the reason it exists, and its gate.

    ``invocations`` are run back to back as one round; a round's timing is
    the mean over its invocations.  ``warmup`` is run once, untimed.
    """

    name: str
    why: str
    invocations: tuple
    warmup: tuple
    judge: object
    suffix: str


SCAN_ARGS = ("scan", "--branch", "all", "--grid", "0.2:1.2:11,0.2:1.2:11",
             "--format", "json")
EVOLVE_ARGS = ("evolve", "--branch", "mm", "--grid=-1.25:1.25:1024", "--dt", "1e-4",
               "--t-end", "0.5", "--format", "json")

WHY = {
    "scan": "four-branch 11x11 sweep: scalar elliptic and quartic call overhead, "
            "FD residuals and phase; x = 1, t = 0.5 and 1 hit the P pins",
    "late": "two mirrored 16-point mm windows inside [6, 14]: the quad phase integral "
            "and deep argument halving take ~98% of compute",
    "evolve": "split-step FFTs at n = 1024 (5,000 ansatz + 10,000 control steps); "
              "the elliptic core runs only in large batches",
}


def late_windows(seed: int) -> tuple:
    """Start times of the two mirrored ``late`` windows for a seed.

    The seed draws T0 from the 40 starts 6.0, 6.1, ..., 9.9; the partner
    window starts at 16 - T0.  The phase quadrature's cost grows about
    linearly with t, so the pair's total work stays within 3% for every
    seed while each seed still evaluates different times.  Every window
    on this grid passes the gates with no domain note and no warning.
    """
    t0 = round(6.0 + 0.1 * random.Random(seed).randrange(40), 1)
    return t0, round(16.0 - t0, 1)


def late_args(t0: float) -> tuple:
    return ("scan", "--branch", "mm", "--grid", f"0.4:1.0:4,{t0!r}:{round(t0 + 4.0, 1)!r}:4")


def make(name: str, seed: int, root: Path) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name == "scan":
        pins = load_pins(root)
        return Workload(
            name, WHY[name], (SCAN_ARGS,),
            ("scan", "--branch", "all", "--grid", "1:1:1,1:1:1", "--format", "json"),
            lambda res: judge_scan(res, pins), ".json")
    if name == "late":
        return Workload(
            name, WHY[name], tuple(late_args(t0) for t0 in late_windows(seed)),
            ("scan", "--branch", "mm", "--grid", "1:1:1,6:6:1"),
            judge_late, ".csv")
    if name == "evolve":
        return Workload(
            name, WHY[name], (EVOLVE_ARGS,),
            ("evolve", "--branch", "mm", "--grid=-1.25:1.25:64", "--dt", "1e-3",
             "--t-end", "0.01", "--format", "json"),
            judge_evolve, ".json")
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("scan", "late", "evolve")
