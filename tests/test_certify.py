import dataclasses
import importlib.util
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cnlse_ansatz import BRANCHES, REFERENCE_PARAMS, residual_P, with_branch

TOOL = Path(__file__).resolve().parents[1] / "tools" / "certify.py"


def certify(*flags) -> str:
    proc = subprocess.run([sys.executable, str(TOOL), *flags],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    line, = proc.stdout.splitlines()
    assert line.startswith("P(0, 0) = ")
    return line.removeprefix("P(0, 0) = ")


def test_reference_witness_is_residual_P_on_every_branch():
    # the printed exact value is P(0, 0) of the float code, to the bit
    printed = certify()
    assert printed == "-2"
    for name, (sz, sq) in BRANCHES.items():
        assert residual_P(with_branch(REFERENCE_PARAMS, sz, sq), 0.0, 0.0) == Fraction(printed), name


def test_an_irrational_root_stays_a_factor():
    # z0 = 1/2 is no rational square: sqrt(1/2) times the exact fraction
    assert certify("--z0", "0.5") == "sqrt(1/2) * (-1/2)"
    p = dataclasses.replace(REFERENCE_PARAMS, z0=0.5)
    for sz, sq in BRANCHES.values():
        want = math.sqrt(0.5) * -0.5
        assert residual_P(with_branch(p, sz, sq), 0.0, 0.0) == pytest.approx(want, rel=1e-15)


def test_witness_collapses_a_rational_root():
    spec = importlib.util.spec_from_file_location("certify", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # z0 = 1/4: sqrt(z0) = 1/2 and c1 - q (3/4 + 9/100) = -116/100
    assert module.witness("-1", "-2", "0.25", "0.3") == (1, Fraction(29, 50))
    assert module.witness("-1", "-2", "0.5", "1") == (Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(ValueError):
        module.witness("-1", "-2", "0", "1")
