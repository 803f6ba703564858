import importlib.util
from pathlib import Path

import pytest

from cnlse_ansatz import REFERENCE_PARAMS, residual_P, with_branch

mp = pytest.importorskip("mpmath")

TOOL = Path(__file__).resolve().parents[1] / "tools" / "regenerate_pins.py"


@pytest.fixture(scope="module")
def regenerate_pins():
    # the tool sets mpmath's global precision to 50 digits on import
    dps = mp.mp.dps
    spec = importlib.util.spec_from_file_location("regenerate_pins", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    mp.mp.dps = dps


@pytest.mark.parametrize("t", ["0.2", "0.4", "0.8"])
def test_inconsistency_across_a_halving_depth_jump(regenerate_pins, t):
    # t = 0.05 * 2^k is where the tool's halving depth steps up; its Q_t
    # must not difference across that jump
    got = float(regenerate_pins.inconsistency(mp.mpf("0.5"), mp.mpf(t), -1, -1))
    want = residual_P(with_branch(REFERENCE_PARAMS, -1, -1), 0.5, float(t))
    assert got == pytest.approx(want, rel=1e-12)


def test_reduced_phase_matches_one_quadrature(regenerate_pins):
    # the pins beyond t ~ 10 come from the phase reduced by whole periods,
    # since one mp.quad over [0, 1e4] does not converge; at t = 10 both
    # routes are open and must agree
    t = mp.mpf(10)
    reduced = regenerate_pins.phase(-1, t)
    assert abs(reduced - regenerate_pins.quad_phase(-1, t)) < mp.mpf("1e-25")
