import dataclasses
import importlib.util
import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from cnlse_ansatz import BRANCHES, REFERENCE_PARAMS, AnsatzParams, residual_P, with_branch
from cnlse_ansatz.cli import main as cli_main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "certify.py"


def run(*flags, cwd=None, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *flags],
                          capture_output=True, text=True, timeout=60, cwd=cwd, env=env)


def certify(*flags) -> str:
    proc = run(*flags)
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


@pytest.mark.parametrize("flags, message", [
    (("--c1", "-4"), "R1(z0) = -9.08 < 0: z(t) has no real initial slope"),
    (("--q", "0"), "q must be nonzero"),
    (("--z0", "0"), "z0 must be positive"),
    (("--z0", "-1"), "z0 must be positive"),
    # as floats, as the command line reads them
    (("--q", "inf"), "parameters must be finite"),
    (("--q0", "1e400"), "parameters must be finite"),
    (("--q", "1e-400"), "q must be nonzero"),
    # a z-curve coefficient that overflows a float, not R1(z0) = -inf
    (("--q", "1e200"),
     "z-curve coefficient alpha overflows a float at q = 1e+200, c1 = -2, c2 = 0.4, c3 = 0.13"),
    (("--c1", "1e160"),
     "z-curve coefficient gamma overflows a float at q = -1, c1 = 1e+160, c2 = 0.4, c3 = 0.13"),
    (("--q", "1e10", "--c2", "1e300"),
     "z-curve coefficient gamma overflows a float at q = 1e+10, c1 = -2, c2 = 1e+300, c3 = 0.13"),
    # a profile scalar at Q0, on the profile curve at t = 0
    (("--q0", "1e100"), "profile scalar R2(Q0) overflows a float at Q0 = 1e+100"),
    # a constant term of the closed form, a product of two finite scalars
    (("--q0", "1e77"), "profile term R2(Q0) R2''''(Q0)/48 overflows a float at Q0 = 1e+77"),
    (("--q0=-1e62",), "profile term R2(Q0) R2'''(Q0)/24 overflows a float at Q0 = -1e+62"),
    # the profile lattice, the same for every profile curve
    (("--c3", "1e307"), "profile lattice g2, g3 = 0.733333, -inf overflows a float at q = -1, "
     "c1 = -2, c2 = 0.4, c3 = 1e+307"),
    # turning points: R1(z0) is exactly 0, and its float reads below 0
    (("--q", "-2", "--c1", "4", "--c2=-1.6", "--c3", "63.504", "--z0", "0.9"),
     "R1(z0) = -2.55795e-14 < 0: z(t) has no real initial slope"),
    (("--q", "3", "--c1", "1", "--c2=-0.7", "--c3=-2.576", "--z0", "0.4"),
     "R1(z0) = -1.42109e-15 < 0: z(t) has no real initial slope"),
    # a negative value in exponent form, read as a value and not as a flag
    (("--q", "-1e-3"), "R1(z0) = -15.4416 < 0: z(t) has no real initial slope"),
    # R1(z0) = z0 f underflows to 0 from below: the package refuses it on
    # f, which certify relays before its exact R1(z0) < 0 reads -0
    (("--q", "2", "--c1", "1", "--c2", "4.923", "--c3", "1e-271", "--z0", "4e-245",
      "--q0=-1.7"),
     "R1(z0) = z0 f underflows to 0, f = -6.46144e-243 < 0: z(t) has no real initial slope"),
])
def test_refuses_what_the_command_line_refuses(flags, message, capsys):
    # the command line's message, as the command line prints it, and exit 1
    proc = run(*flags)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
    assert cli_main(["paper-check", *flags]) == 1
    assert capsys.readouterr().err == proc.stderr


def test_r1_is_exact_on_the_z_curve():
    # R1(z0) = -16 q^2 z0^4 + 16 q c1 z0^3 - 4 (c1^2 + 4 q c2) z0^2 + 4 c3 z0
    spec = importlib.util.spec_from_file_location("certify", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.r1("-1", "-2", "0.4", "0.13", "1") == Fraction(173, 25)
    assert module.r1("-1", "-4", "0.4", "0.13", "1") == Fraction(-227, 25)
    # c3 enters R1(z0): a larger c3 admits the set that --c1 -4 refuses,
    # where Q0 = 1/2 gives P(0, 0) = -(c1 - q (3 + 1/4)) = 3/4
    assert module.r1("-1", "-4", "0.4", "2.5", "1") == Fraction(2, 5)
    assert certify("--c1", "-4", "--c3", "2.5", "--q0", "0.5") == "3/4"
    p = dataclasses.replace(REFERENCE_PARAMS, c1=-4.0, c3=2.5, Q0=0.5)
    assert residual_P(p, 0.0, 0.0) == 0.75


def test_a_vanishing_witness_is_never_printed():
    # c1 = q (3 z0 + Q0^2) = -4 makes P(0, 0) exactly 0 on every branch:
    # no zero is printed as a witness, and the exit code says so
    proc = run("--c1", "-4", "--c2", "1.2")
    assert proc.returncode == 2 and proc.stderr == ""
    assert "P(0, 0) =" not in proc.stdout
    assert "ROADMAP item 7" in proc.stdout
    p = dataclasses.replace(REFERENCE_PARAMS, c1=-4.0, c2=1.2)
    for name, (sz, sq) in BRANCHES.items():
        assert residual_P(with_branch(p, sz, sq), 0.0, 0.0) == 0.0, name


@pytest.mark.parametrize("flags, message", [
    (("--q", "abc"), "argument --q: invalid decimal value: 'abc'"),
    (("--x", "1"), "unrecognized arguments: --x 1"),
])
def test_a_bad_flag_is_one_error_line(flags, message):
    # as the command line's parser refuses it: one line and exit 1, since
    # exit 2 says that the witness at order 0 vanishes
    proc = run(*flags)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def test_runs_from_outside_the_repository(tmp_path):
    # the tool finds the package next to it, with no PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = run(cwd=tmp_path, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "P(0, 0) = -2\n", "")


def _decimal(rng: random.Random, sign: str = "-+") -> str:
    """Up to four digits, at the reference scale or, one time in four, as
    far from it as a float reaches."""
    far = rng.randint(-320, 320) if rng.random() < 0.25 else 0
    return f"{rng.choice(sign)}{rng.randint(0, 9999)}e{rng.randint(-4, 0) + far}"


def test_refusal_is_the_packages_on_seeded_sets():
    # wherever AnsatzParams refuses the floats of a decimal set, refusal
    # gives its message; where it accepts them, refusal adds exact
    # R1(z0) < 0 alone.  One set in four is put on a turning point,
    # R1(z0) = 0 exactly, by its c3.
    spec = importlib.util.spec_from_file_location("certify", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng, seen = random.Random(33), Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(2400):
            q, c1, c2, c3, q0 = (_decimal(rng) for _ in range(5))
            z0 = _decimal(rng, "+" * 9 + "-")
            turning = n % 4 == 0
            if turning:  # c3 = 4 q^2 z0^3 - 4 q c1 z0^2 + (c1^2 + 4 q c2) z0, exactly
                with localcontext(prec=4000):
                    dq, dc1, dc2, dz0 = map(Decimal, (q, c1, c2, z0))
                    c3 = str(((4 * dq * dq * dz0 - 4 * dq * dc1) * dz0
                              + dc1 * dc1 + 4 * dq * dc2) * dz0)
                assert module.r1(q, c1, c2, c3, z0) == 0
            decimals = (q, c1, c2, c3, z0, q0)
            try:
                AnsatzParams(*map(float, decimals))
            except (ValueError, ArithmeticError) as exc:
                assert module.refusal(*decimals) == str(exc), decimals
                seen["refused", turning, str(exc).startswith("R1(z0)")] += 1
            else:
                refused = module.r1(*decimals[:5]) < 0
                assert (module.refusal(*decimals) is not None) == refused, decimals
                seen["accepted", turning] += 1
    # turning points that the package refuses on a float R1(z0) < 0, and
    # that it accepts, are both drawn
    assert seen["refused", True, True] >= 20 and seen["accepted", True] >= 100, seen
