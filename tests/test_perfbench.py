"""The benchmark's gates pass on real CLI output of the package in src/,
and its layer trace still finds the functions it wraps."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _load_layer_trace():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layer_trace", ROOT / "perfbench" / "layer_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_targets_resolve():
    # install() wraps each target by name; a renamed function would make
    # `--trace 1` fail at start-up
    for module_name, names in _load_layer_trace().TARGETS.items():
        module = importlib.import_module(f"cnlse_ansatz.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_layer_trace_reads_arguments_in_place():
    # the work counters read `u` and `steps` by position
    from cnlse_ansatz import split_step_evolve, wp_pair

    assert list(inspect.signature(split_step_evolve).parameters)[4] == "steps"
    assert list(inspect.signature(wp_pair).parameters)[0] == "u"
