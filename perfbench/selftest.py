"""Self-test of perfbench: the gates must turn a wrong answer into a failure.

    python3 perfbench/selftest.py

Runs each workload's first invocation once and checks that it passes its
gates.  Then it feeds altered copies of those results to the same gates and
checks that each is reported as a failed operation: a P perturbed by 1e-3
(at a pinned point and at an ordinary one), a dropped row, a non-zero exit,
a stray warning on standard error, an r1 above its tolerance, and an evolve
series that drifted from its reference value.  A real CLI process with a bad
flag must fail too.  Last, BENCHMARK.json must name exactly the workloads
and metrics run.py reports.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import run
import workloads


def _altered_json(result, change):
    doc = json.loads(result.output)
    change(doc)
    return replace(result, output=json.dumps(doc))


def _perturb_p(x, t, sigma_q):
    def change(doc):
        for row in doc["reports"]:
            if (row["x"], row["t"], row["sigma_z"], row["sigma_q"]) == (x, t, -1, sigma_q):
                row["P"] += 1e-3
    return change


def _drop_row(doc):
    del doc["reports"][0]


def _drift_linf(doc):
    doc["points"][-1]["linf"] *= 1.0 + 1e-5


def _bump_r1(result):
    lines = result.output.splitlines()
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    cells = lines[body[0]].split(",")
    cells[5] = "1e-7"
    lines[body[0]] = ",".join(cells)
    return replace(result, output="\n".join(lines) + "\n")


def main() -> int:
    root = run.ROOT
    run.WORK.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    failures = []

    def expect(label, ok, verdict):
        status = "ok" if ok else "WRONG"
        print(f"{status:5s} {label}: {'; '.join(verdict.problems) or 'passes'}")
        if not ok:
            failures.append(label)

    real = {}
    for name in workloads.NAMES:
        wl = workloads.make(name, 0, root)
        runner = run.Runner(wl, env, time.monotonic() + run.RUN_LIMIT_S)
        proc = runner.spawn(wl.invocations[0])
        expect(f"{name}: unaltered output", proc.verdict.ok, proc.verdict)
        real[name] = (wl, proc.result, runner)

    scan, scan_result, scan_runner = real["scan"]
    stray = "RuntimeWarning: overflow encountered in multiply\n"
    cases = [
        ("scan: P(mm; 1, 1) + 1e-3", scan, _altered_json(scan_result, _perturb_p(1.0, 1.0, -1))),
        ("scan: P(mp; 0.2, 0.2) + 1e-3", scan,
         _altered_json(scan_result, _perturb_p(0.2, 0.2, 1))),
        ("scan: first row dropped", scan, _altered_json(scan_result, _drop_row)),
        ("scan: exit code 1", scan, replace(scan_result, returncode=1)),
        ("scan: warning on stderr", scan, replace(scan_result, stderr=stray)),
        ("late: r1 = 1e-7 on one row", real["late"][0], _bump_r1(real["late"][1])),
        ("evolve: final linf off by 1e-5", real["evolve"][0],
         _altered_json(real["evolve"][1], _drift_linf)),
    ]
    for label, wl, result in cases:
        verdict = wl.judge(result)
        expect(label, not verdict.ok, verdict)

    bad = scan_runner.spawn(("scan", "--grid", "0.2:1.2"))
    expect("scan: real process with a bad --grid", not bad.verdict.ok, bad.verdict)

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(table):
            print(f"WRONG BENCHMARK.json {key} differs from run.py")
            failures.append(key)
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        print("WRONG BENCHMARK.json workloads differ from workloads.NAMES")
        failures.append("workloads")

    print(f"selftest: {'PASS' if not failures else f'FAIL ({len(failures)})'}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
