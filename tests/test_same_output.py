import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_output.py"
SMALL_SCAN = ["scan", "--branch", "mm", "--grid", "1:1:1,1:1:1", "--format", "json"]


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_same_tree_twice_is_the_same():
    # the two runs differ only in the timestamp, which the tool leaves out
    proc = run(ROOT / "src", ROOT / "src", *SMALL_SCAN)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 invocations, 0 differ"


def test_a_difference_exits_1(tmp_path):
    # a tree without the package fails to run: its output differs
    proc = run(ROOT / "src", tmp_path, *SMALL_SCAN)
    assert proc.returncode == 1
    assert proc.stdout.startswith("DIFFERS: scan --branch mm")
    assert proc.stdout.splitlines()[-1] == "1 invocations, 1 differ"


def test_warning_locations_are_cut_to_the_file_name(tmp_path):
    # a copy elsewhere, its lines shifted, warns from another path and line
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "cnlse_ansatz", copy / "cnlse_ansatz")
    elliptic = copy / "cnlse_ansatz" / "elliptic.py"
    elliptic.write_text("\n" + elliptic.read_text())
    proc = run(ROOT / "src", copy, "residuals", "--x", "1e300")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 invocations, 0 differ"


def test_docstring_counts_the_list():
    # the module docstring names how many invocations the default list holds
    spec = importlib.util.spec_from_file_location("same_output", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    count = re.search(r"without, the (\d+) of the list", " ".join(tool.__doc__.split()))
    assert int(count.group(1)) == len(tool.invocations())
