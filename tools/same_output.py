"""Compare the command line's outputs of two source trees.

Usage:

    python3 tools/same_output.py OLD_SRC NEW_SRC [MODE FLAG ...]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Each
invocation runs as ``python -m cnlse_ansatz`` once with each tree on
PYTHONPATH, and its exit code, standard output and standard error are
compared, with every line that holds ``generated_at`` (the run's timestamp)
left out and a warning's location cut to its file name, since the tree's
path and the line numbers differ between any two trees.  With a MODE and
flags, that one invocation is compared; without, the 141 of the list
below: the default and the benchmark ``scan``, a scan of one x at 61
times (the time stack's longest case), the default grid on each single branch
but ``mm`` (a time row serving a subset of its branches), the default grid
and a longer one at c2 = 0.8 (one orbit fails on some time rows, the other
not), a grid through
x = 0 and t = 0, the pole-adjacent point, a grid on which one profile
slope of a point is pole-adjacent and the other is not, four grids at the
edges of a point's x stencils (the pole guard inside the
stencils, the halving depth's step at |u| = 1, the fold threshold and the
profile period), two wide rows (40 points of a row, and 60 across
the profile folds on 20 rows), the four-branch 40x40 grid (6,400
records) in CSV and in JSON, the two floats on either side of the ``pp``
pole, a row from x = 1e15 to 1e17 on every branch, every ``late``
window of the benchmark, ``residuals`` at eight times, four of them many
orbit periods out (1e6, 1e10, 1e12 and 1e17), at three points far out in
x, at a point that fails (a negative radicand), at a point where one
orbit fails (c2 = 0.8: the -1 orbit), at x = 0 past one period
(t = 7.3, where P is exactly -sqrt(z) (c1 - q (3 z + Q0^2))) and at
Q0 = 1e12, in CSV and in JSON (every branch noted ``pole`` and
``StencilOutOfDomain``),
``paper-check`` at four points (x = 2.14 the mirror point of a pole), at
a point that fails (a negative radicand, exit 1), at two where one
orbit fails (c2 = 0.8: at t = 1 the -1 orbit, at t = 0.5 the +1 orbit,
exit 1) and on a set whose R1(z0) underflows to 0 from below (refused),
``pde`` at the default point, at three late times (one of them 1e17), at
two points far out in x, in full bits at the pole-adjacent point, at the
failing point (every branch noted) and where one orbit fails (c2 = 0.8),
``evolve`` on the benchmark window and the default one, with an uneven
sample schedule on the benchmark's n (the control and the ansatz run
share one stack), with the control finishing before the ansatz run, on a
window with a pole at that n, with samples past one orbit period (the
phase reads the integral over a whole period), with every sample time on
a phase panel edge, at n = 64 (the benchmark's warm-up) and n = 2048, and
on two parameter sets its pole screen refuses (z0 = 1e-150 on ``pp``: z
is not real at t = 0; c2 = 0.8 on ``mm``: a negative radicand),
``elliptic`` at one point in CSV and in JSON, JSON twins of four of the
above that write nan fields and the ``NegativeRadicand``,
``pole_adjacent`` and ``StencilOutOfDomain`` notes (``scan`` at c2 = 0.8
and on the grid of pole-adjacent points, ``residuals`` and ``pde`` where
a point or an orbit fails), every mode's ``--help``, and the front end:
config files (CONFIGS) with every key set, on four modes, a tol and a
skip each as a string and as a list, an empty skip, t_end beside t-end,
an unknown key, a string x, an x of 1e400 and of 10^400, and a file with
two bad values; the refused flags ``--branch xx``, ``--zz 1``, ``--dt 0``,
``--tol r_alg=inf`` and ``--tol nope=1``; a plain ``selftest``; and
``elliptic`` on the degenerate lattice (12, -8).

Each invocation runs in a directory of its own that holds the config
files, the same for both trees, and the file a config's out names there
is compared beside the standard output.  Each output that differs is
printed as a diff.  The exit code is 1 if any output differs, else 0.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

MODES = ("paper-check", "scan", "residuals", "pde", "evolve", "selftest", "elliptic")
WORKERS = 4  # CLI processes in flight at once
DIFF_LINES = 40  # lines of each diff printed

# config files of the front-end invocations, as JSON text (json.dumps cannot
# write 1e400 or 10^400); every-key.json names each run flag but config
OUT = "every-key.out"
CONFIGS = {
    "every-key.json": json.dumps({
        "q": -1.0, "c1": -2.0, "c2": 0.4, "c3": 0.13, "z0": 1.0, "q0": 1.0, "phi0": 0.25,
        "x": 0.8, "t": 0.6, "branch": "mm", "grid": "-1.25:1.25:64", "format": "json",
        "out": OUT, "tol": "r_alg=1e-6", "dt": 2e-3, "t-end": 0.01, "skip": ["reference"]}),
    "tol-string.json": '{"tol": "1e-9"}',
    "tol-list.json": '{"tol": ["wp_ode=1e-9", "mass_drift=1e-9"], "skip": "quartic"}',
    "skip-list.json": '{"skip": ["reference", "verify"]}',
    "skip-empty.json": '{"skip": ""}',
    "t-end-pair.json": '{"t_end": 0.02, "t-end": 0.05}',
    "unknown-key.json": '{"zz": 1, "x": 2}',
    "string-x.json": '{"x": "abc"}',
    "huge-x.json": '{"x": 1e400}',
    "huge-int-x.json": '{"x": 1%s}' % ("0" * 400),
    "two-bad-values.json": '{"z0": -1, "out": 7}',
}


def invocations() -> list:
    # every start of the late benchmark's 40 seeds (6.0 .. 9.9) and of its
    # partner window (16 - start)
    starts = sorted({round(6.0 + 0.1 * i, 1) for i in range(40)}
                    | {round(10.0 - 0.1 * i, 1) for i in range(40)})
    return [
        ("scan",),
        workloads.SCAN_ARGS,
        ("scan", "--grid", "1:1:1,0:6:61"),
        *(("scan", "--branch", branch) for branch in ("pp", "pm", "mp")),
        ("scan", "--c2", "0.8"),
        ("scan", "--c2", "0.8", "--grid", "0.2:1.2:4,0.2:3:8"),
        ("scan", "--grid=-0.5:0.5:5,-0.5:0.5:5"),
        ("scan", "--branch", "pp", "--grid", "0.978:0.978:1,0.311:0.311:1"),
        ("scan", "--grid", "2.13:2.15:5,0.9:1.1:3"),
        # JSON twins of outputs with nan fields and the notes they write
        *((*args, "--format", "json") for args in (
            ("scan", "--c2", "0.8"), ("scan", "--grid", "2.13:2.15:5,0.9:1.1:3"),
            ("residuals", "--z0", "1e-300"), ("pde", "--c2", "0.8"))),
        # edges of a point's x stencils: the pole guard inside the
        # stencils, the halving depth's step at |u| = 1, the fold threshold
        # (with pole-adjacent points) and the profile period 2w = 5.4921
        ("scan", "--grid=-0.0015:0.0015:7,0.2:1.2:3"),
        ("scan", "--grid", "0.999:1.001:5,0.4:1.2:5"),
        ("scan", "--grid", "1.999:2.001:5,0.2:1.2:3"),
        ("scan", "--grid", "5.4915:5.4925:5,0.2:1.2:3"),
        # wide rows: 40 points of a row in one stencil call, and rows
        # across the profile folds
        ("scan", "--branch", "all", "--grid", "0.2:1.2:40,0.2:1.2:3"),
        ("scan", "--branch", "all", "--grid=-7:9:60,0:30:20"),
        # the four-branch 40x40 grid, 6,400 records, in CSV and in JSON
        *(("scan", "--branch", "all", "--grid", "0.2:1.2:40,0.2:1.2:40", "--format", fmt)
          for fmt in ("csv", "json")),
        # the floats on either side of the pp profile pole at t = 1, and a
        # row far out in x, each x reduced by its own whole periods
        ("scan", "--branch", "pp", "--grid", "2.138636624931717:2.1386366249317175:2,1:1:1"),
        ("scan", "--branch", "all", "--grid", "1e15:1e17:3,0.5:1.5:3"),
        *(workloads.late_args(t0) for t0 in starts),
        *(("residuals", f"--t={t}")
          for t in ("0", "1", "-1000", "5115.1", "1e6", "1e10", "1e12", "1e17")),
        *(("residuals", "--x", x) for x in ("1e5", "1e7", "1e300")),
        ("residuals", "--z0", "1e-300"),
        ("residuals", "--c2", "0.8"),
        ("residuals", "--x", "0", "--t", "7.3"),
        # the pole note, on every branch
        *(("residuals", "--q0", "1e12", "--format", fmt) for fmt in ("csv", "json")),
        ("paper-check",),
        ("paper-check", "--t", "20000"),
        ("paper-check", "--x", "1e5"),
        ("paper-check", "--x", "2.14"),
        ("paper-check", "--z0", "1e-300"),
        ("paper-check", "--c2", "0.8"),
        ("paper-check", "--c2", "0.8", "--t", "0.5"),
        # R1(z0) = z0 f underflows to 0 from below
        ("paper-check", "--q", "2", "--c1", "1", "--c2", "4.923", "--c3", "1e-271",
         "--z0", "4e-245", "--q0=-1.7"),
        ("pde",),
        *(("pde", "--t", t) for t in ("1000", "5115.1", "1e17")),
        *(("pde", "--x", x) for x in ("1e7", "1e300")),
        ("pde", "--branch", "pp", "--x", "0.978", "--t", "0.311", "--format", "json"),
        ("pde", "--z0", "1e-300"),
        ("pde", "--c2", "0.8"),
        workloads.EVOLVE_ARGS,
        ("evolve", "--branch", "mm"),
        ("evolve", "--branch", "mm", "--grid=-1.25:1.25:1024,0.05:0.3:4", "--dt", "1e-4"),
        ("evolve", "--branch", "mm", "--grid=-1.25:1.25:1024", "--t-end", "1.5", "--dt", "1e-3"),
        ("evolve", "--branch", "pp", "--grid=-1.25:1.25:1024"),
        ("evolve", "--branch", "mm", "--grid=-0.6:0.6:256,2.6:3.4:3", "--t-end", "3.4",
         "--format", "json"),
        ("evolve", "--branch", "mm", "--grid=-1.25:1.25:64", "--dt", "1e-3", "--t-end", "0.01",
         "--format", "json"),
        ("evolve", "--branch", "mm", "--grid=-1.25:1.25:2048", "--dt", "1e-3", "--t-end", "0.2"),
        # every realized sample time on a phase panel edge
        ("evolve", "--branch", "mp", "--grid=-0.6:0.6:256,0.25:1.0:4", "--dt", "0.0078125",
         "--t-end", "1", "--format", "json"),
        # the pole screen's refusals: a state, and a radicand, that fail
        ("evolve", "--branch", "pp", "--z0", "1e-150"),
        ("evolve", "--branch", "mm", "--c2", "0.8"),
        *(("elliptic", "--g2", "1", "--g3", "0", "--u", "0.5", "--format", fmt)
          for fmt in ("csv", "json")),
        ("--help",),
        *((mode, "--help") for mode in MODES),
        # the front end: config keys, refused flags
        *((mode, "--config", "every-key.json")
          for mode in ("residuals", "paper-check", "evolve", "selftest")),
        *(("selftest", "--config", name)
          for name in ("tol-string.json", "tol-list.json", "skip-list.json", "skip-empty.json")),
        ("evolve", "--branch", "mm", "--grid=-1.25:1.25:64", "--format", "json",
         "--config", "t-end-pair.json"),
        *(("residuals", "--config", name) for name in (
            "unknown-key.json", "string-x.json", "huge-x.json", "huge-int-x.json",
            "two-bad-values.json")),
        *(("residuals", *flags) for flags in (
            ("--branch", "xx"), ("--zz", "1"), ("--dt", "0"), ("--tol", "r_alg=inf"),
            ("--tol", "nope=1"))),
        ("selftest",),
        ("elliptic", "--g2", "12", "--g3=-8", "--u", "10"),
    ]


def run(src: Path, args, cwd: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "cnlse_ansatz", *args], cwd=cwd,
                          capture_output=True, text=True, env=env, timeout=600)
    out = cwd / OUT
    written = out.read_text(encoding="utf-8") if out.exists() else ""
    out.unlink(missing_ok=True)
    lines = [f"exit {proc.returncode}"]
    for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr), (OUT, written)):
        lines.append(f"--- {name}")
        lines += [re.sub(r"^\S*?(\w+\.py):\d+:", r"\1:", ln)
                  for ln in text.splitlines() if "generated_at" not in ln]
    return lines


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv[:2])
    todo = [tuple(argv[2:])] if argv[2:] else invocations()
    def both(index, args):
        cwd = Path(tmp, str(index))
        cwd.mkdir()
        for name, text in CONFIGS.items():
            (cwd / name).write_text(text, encoding="utf-8")
        return run(old, args, cwd), run(new, args, cwd)

    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        pairs = list(pool.map(both, range(len(todo)), todo))
    differ = 0
    for args, (a, b) in zip(todo, pairs):
        if a != b:
            differ += 1
            print(f"DIFFERS: {' '.join(args)}")
            diff = list(difflib.unified_diff(a, b, "old", "new", lineterm=""))
            print("\n".join(diff[:DIFF_LINES]))
    print(f"{len(todo)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
