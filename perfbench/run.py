"""Benchmark of the cnlse-ansatz command line: end-to-end metrics and a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload scan|late|evolve --seed N --seconds S --trace 0|1

Every timed operation is a fresh CLI process, so interpreter start and
package import are paid on every run, as a user pays them.  One untimed
warm-up process runs first, so that byte-code compilation, which a user pays
once, is not timed.  The run then repeats rounds of its workload until the
next round would end after ``--seconds`` (at least ``MIN_ROUNDS`` rounds).

``--trace 0`` reports the end-to-end metrics: medians over rounds of wall,
set-up and solve time and peak memory per process, and the workload's
accuracy in digits.

Times are scaled to a nominal host speed.  A shared virtual machine runs
the same CPU-bound work 20-40% slower or faster from one second to the
next, so raw times of identical code drift between runs.  While each CLI
process runs, a thread of the parent wakes every ``PROBE_INTERVAL_S`` on
the child's CPU and takes the CPU time of two fixed units of pure-Python
work, one arithmetic and one reading memory (the speed probe, about 1.5% of
the CPU).  Each time of the process is divided by the host's slowness over
its life: the mean unit time against ``PROBE_NOMINAL_S``, averaged over the
two units.  The raw medians are printed on a ``#`` line.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones (see layer_trace.py); the difference
between the two is the tracing overhead.

Every process is judged by the workload's gates (workloads.py).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; earlier lines, starting with
``#``, record the inputs, the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"

MIN_ROUNDS = 3            # timed rounds per run, even when they overrun --seconds
MIN_TRACED_ROUNDS = 2     # untraced and traced rounds each, with --trace 1
RUN_LIMIT_S = 170.0       # a run must end within 180 s; a process still alive then is killed

PROBE_INTERVAL_S = 0.5    # the speed probe samples the host this often while a child runs
# CPU time of each probe unit on the reference machine (see README.md).
PROBE_NOMINAL_S = {"arith": 0.8e-3, "memory": 3.0e-3}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit, better) of the --trace 0 metrics, in BENCHMARK.json order.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("P_digits", "digits", "higher"),
)

NOTE_NAMES = ("pole", "pole_adjacent", "nonfinite", "PoleProximity", "RealityViolation",
              "NegativeRadicand", "StencilOutOfDomain", "other")

# (name, unit, better) of the --trace 1 metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("elliptic.wp_pair.calls", "count", "lower"),
    ("elliptic.wp_pair.elements", "count", "lower"),
    ("elliptic.wp_pair.self_s", "s", "lower"),
    ("elliptic.wp_pair.us_per_element", "us", "lower"),
    ("quartic.weierstrass_solution.calls", "count", "lower"),
    ("quartic.weierstrass_solution.self_s", "s", "lower"),
    ("quartic.solution_denominator.calls", "count", "lower"),
    ("quartic.solution_denominator.self_s", "s", "lower"),
    ("ansatz.z_with_rate.calls", "count", "lower"),
    ("ansatz.z_with_rate.self_s", "s", "lower"),
    ("ansatz.phi_of_t.calls", "count", "lower"),
    ("ansatz.phi_of_t.total_s", "s", "lower"),
    *((f"verify.{fn}.{kind}", unit, "lower")
      for fn in ("residual_P", "residual_R1", "residual_R2", "cnlse_residual", "report_at")
      for kind, unit in (("calls", "count"), ("total_s", "s"))),
    *((f"verify.report_at.notes.{note}", "count", "lower") for note in NOTE_NAMES),
    ("reference.split_step_evolve.calls", "count", "lower"),
    ("reference.split_step_evolve.steps", "count", "lower"),
    ("reference.split_step_evolve.self_s", "s", "lower"),
    ("reference.split_step_evolve.ns_per_cell_step", "ns", "lower"),
    ("reference.fft_calls", "count", "lower"),
    ("reference.ansatz_divergence.calls", "count", "lower"),
    ("reference.ansatz_divergence.total_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("traced_solve_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
    ("top_span_share", "ratio", "higher"),
)


def child_env() -> dict:
    """Environment of every CLI process: the same whatever the caller's shell.

    Byte-code is written and read under WORK (PYTHONPYCACHEPREFIX), so the
    warm-up compiles it once and nothing outside the checkout is touched.
    """
    env = dict(os.environ)
    for var in ("PYTHONDONTWRITEBYTECODE", "PYTHONWARNINGS"):
        env.pop(var, None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


_PROBE_TABLE = list(range(400_000))
random.Random(0).shuffle(_PROBE_TABLE)
_PROBE_READS = _PROBE_TABLE[:10_000]


def _arith_unit() -> None:
    """Interpreted floating-point arithmetic."""
    acc = 0.0
    for i in range(6_000):
        acc += math.sin(i * 1e-3) * i


def _memory_unit() -> None:
    """Random reads across a list of 400,000 ints (about 14 MiB)."""
    table, acc = _PROBE_TABLE, 0
    for i in _PROBE_READS:
        acc += table[i]


PROBE_UNITS = {"arith": _arith_unit, "memory": _memory_unit}


class SpeedProbe(threading.Thread):
    """Times each probe unit every PROBE_INTERVAL_S until halted.

    Units are timed in thread CPU time, so the time the child holds the
    CPU does not count, while a host that runs the CPU slower does.  The
    two units differ in how much they lean on the caches, which a busy
    host slows by a different share than the arithmetic.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.halt = threading.Event()
        self.units = {name: [] for name in PROBE_UNITS}

    def sample(self) -> None:
        for name, unit in PROBE_UNITS.items():
            unit()  # refill the caches the child evicted
            start = time.thread_time()
            unit()
            self.units[name].append(time.thread_time() - start)

    def run(self) -> None:
        while not self.halt.wait(PROBE_INTERVAL_S):
            self.sample()

    def mean_units(self) -> dict:
        """After the thread has ended: each unit's mean time over the
        child's life, one more sample included."""
        self.sample()
        return {name: mean(times) for name, times in self.units.items()}


@dataclass
class Process:
    """One finished CLI process: its raw timings, memory, verdict, and the
    factor that scales its times to the nominal host speed."""

    argv: tuple
    wall_s: float
    setup_s: float
    solve_s: float
    rss_mb: float
    result: workloads.ProcessResult
    verdict: workloads.Verdict
    spans_path: Path | None
    scale: float
    probe_units: dict


class Runner:
    """Starts CLI processes for one workload and keeps what they return."""

    def __init__(self, workload: workloads.Workload, env: dict, deadline: float):
        self.workload = workload
        self.env = env
        self.deadline = deadline
        self.serial = 0

    def spawn(self, argv, *, traced: bool = False) -> Process:
        self.serial += 1
        tag = WORK / f"{self.workload.name}-{self.serial}"
        out = tag.with_suffix(self.workload.suffix)
        stamps = tag.with_suffix(".stamps.json")
        spans = tag.with_suffix(".spans.json") if traced else None
        for path in (out, stamps, spans):
            if path is not None:
                path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(stamps)]
        cmd += [str(spans)] if traced else []
        cmd += ["--", *argv, "--out", str(out)]
        with open(tag.with_suffix(".stderr"), "w+b") as err:
            launch_ns = time.perf_counter_ns()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            probe = SpeedProbe()
            probe.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                exit_ns = time.perf_counter_ns()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                probe.halt.set()
                killer.join()
                probe.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        units = probe.mean_units()
        slowness = mean(units[name] / PROBE_NOMINAL_S[name] for name in units)
        output = out.read_text(encoding="utf-8") if out.exists() else ""
        result = workloads.ProcessResult(proc.returncode, stderr, output)
        try:
            st = json.loads(stamps.read_text(encoding="utf-8"))
            setup_s = (st["imported_ns"] - launch_ns) / 1e9
            solve_s = (st["done_ns"] - st["start_ns"]) / 1e9
        except (OSError, ValueError, KeyError):
            setup_s = solve_s = math.nan
        return Process(tuple(argv), (exit_ns - launch_ns) / 1e9, setup_s, solve_s,
                       usage.ru_maxrss / 1024.0, result, self.workload.judge(result), spans,
                       1.0 / slowness, units)

    def round(self, *, traced: bool = False) -> list:
        return [self.spawn(argv, traced=traced) for argv in self.workload.invocations]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def round_metrics(procs: list, *, scaled: bool = True) -> dict:
    """End-to-end values of one round: the mean time per process (scaled to
    the nominal host speed unless ``scaled`` is false), the worst memory and
    the worst accuracy."""
    def time_of(p, raw):
        return raw * p.scale if scaled else raw
    return {
        "wall_s": mean(time_of(p, p.wall_s) for p in procs),
        "setup_s": mean(time_of(p, p.setup_s) for p in procs),
        "solve_s": mean(time_of(p, p.solve_s) for p in procs),
        "peak_rss_mb": max(p.rss_mb for p in procs),
        "P_digits": min(p.verdict.digits for p in procs),
    }


def layer_metrics(proc: Process) -> dict:
    """Per-layer values of one traced process, from its span file; times
    are scaled to the nominal host speed like the end-to-end ones."""
    doc = json.loads(proc.spans_path.read_text(encoding="utf-8"))
    names, spans, counts = doc["names"], doc["spans"], defaultdict(int, doc["counts"])
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    child_ns = defaultdict(int)
    for name_index, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    top_ns = 0
    for i, (name_index, start, end, parent) in enumerate(spans):
        name = names[name_index]
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - child_ns[i]
        if parent >= 0 and spans[parent][3] < 0:
            top_ns += end - start
    m = {}
    scale = proc.scale
    for name in names:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.total_s"] = scale * total[name] / 1e9
        m[f"{name}.self_s"] = scale * own[name] / 1e9
    elements = counts["elliptic.wp_pair.elements"]
    cell_steps = counts["reference.split_step_evolve.cell_steps"]
    m["elliptic.wp_pair.elements"] = elements
    m["elliptic.wp_pair.us_per_element"] = (
        scale * own["elliptic.wp_pair"] / 1e3 / elements if elements else 0.0)
    m["reference.split_step_evolve.steps"] = counts["reference.split_step_evolve.steps"]
    m["reference.split_step_evolve.ns_per_cell_step"] = (
        scale * own["reference.split_step_evolve"] / cell_steps if cell_steps else 0.0)
    m["reference.fft_calls"] = counts["reference.fft_calls"]
    prefix = "verify.report_at.notes."
    for note in NOTE_NAMES:
        m[prefix + note] = counts[prefix + note]
    m[prefix + "other"] = sum(v for k, v in counts.items()
                              if k.startswith(prefix) and k[len(prefix):] not in NOTE_NAMES)
    m["traced_solve_s"] = scale * proc.solve_s
    m["top_span_share"] = top_ns / 1e9 / proc.solve_s
    return m


def end_to_end_values(plain: list, *, scaled: bool = True) -> dict:
    """Medians over rounds; set-up time is the median over every process."""
    rows = [round_metrics(r, scaled=scaled) for r in plain]
    values = {k: statistics.median(r[k] for r in rows) for k, _, _ in END_TO_END}
    values["setup_s"] = statistics.median(p.setup_s * (p.scale if scaled else 1.0)
                                          for r in plain for p in r)
    return values


def layer_values(plain: list, traced: list) -> dict:
    """Medians over the traced rounds that passed their gates, plus the
    tracing overhead against the untraced rounds of the same run."""
    rows = []
    for rnd in traced:
        if all(p.verdict.ok for p in rnd):
            per_process = [layer_metrics(p) for p in rnd]
            rows.append({k: mean(m[k] for m in per_process) for k in per_process[0]})
    values = {k: statistics.median(r[k] for r in rows) if rows else math.nan
              for k, _, _ in PER_LAYER if k != "trace_overhead_s"}
    plain_solve = statistics.median(round_metrics(r)["solve_s"] for r in plain)
    values["trace_overhead_s"] = values["traced_solve_s"] - plain_solve
    return values


def strip_timestamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if "generated_at" not in ln)


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "cnlse_ansatz" / "cli.py").is_file():
        print(f"perfbench: no cnlse_ansatz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, ROOT)
    runner = Runner(workload, child_env(), started + RUN_LIMIT_S)
    info = {"workload": workload.name, "seed": args.seed, "why": workload.why,
            "invocations": [" ".join(a) for a in workload.invocations],
            "env": environment()}
    print("# " + json.dumps(info))
    # The speed probe and every child share one CPU, so the probe times the
    # CPU the child runs on.  Threads and children inherit the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    runner.spawn(workload.warmup)
    measure_start = time.monotonic()
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    plain, traced, durations = [], [], []
    while True:
        began = time.monotonic()
        plain.append(runner.round())
        if args.trace:
            traced.append(runner.round(traced=True))
        durations.append(time.monotonic() - began)
        if (len(plain) >= min_rounds and time.monotonic() + statistics.median(durations)
                > measure_start + args.seconds):
            break

    if args.trace:
        # The layer trace must not change what the CLI computes.
        for rnd_plain, rnd_traced in zip(plain, traced):
            for a, b in zip(rnd_plain, rnd_traced):
                if strip_timestamp(a.result.output) != strip_timestamp(b.result.output):
                    b.verdict.problems.append("traced output differs from untraced")
        values, table = layer_values(plain, traced), PER_LAYER
    else:
        values, table = end_to_end_values(plain), END_TO_END

    procs = [p for rnd in plain + traced for p in rnd]
    failed = [p for p in procs if not p.verdict.ok]
    for p in failed:
        print(f"perfbench: failed {' '.join(p.argv)}: {'; '.join(p.verdict.problems)}",
              file=sys.stderr)
    samples = {"rounds": len(plain), "traced_rounds": len(traced), "processes": len(procs),
               "measured_s": round(time.monotonic() - measure_start, 3)}
    samples["probe_scale_quartiles"] = statistics.quantiles([p.scale for p in procs], n=4)
    samples["probe_unit_ms"] = {name: 1e3 * statistics.median(p.probe_units[name] for p in procs)
                                for name in PROBE_UNITS}
    if not args.trace:
        rows = [round_metrics(r) for r in plain]
        samples["quartiles"] = {k: statistics.quantiles([r[k] for r in rows], n=4)
                                for k, _, _ in END_TO_END}
        samples["raw_medians"] = end_to_end_values(plain, scaled=False)
    print("# " + json.dumps(samples))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    correct = not failed and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(procs),
                      "failed": len(failed), "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
