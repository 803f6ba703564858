import importlib.util
from pathlib import Path

import numpy as np
import pytest

from cnlse_ansatz import BRANCHES, REFERENCE_PARAMS, report_at, residual_P, with_branch

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


def test_inconsistency_matches_the_oracle_on_a_seeded_sample(regenerate_pins):
    # P against the 50-digit oracle on every branch, at the seeded points of
    # [0.2, 1.2]^2 that carry no note (a pole-adjacent point has no
    # guarded bound), each within 5e-12 guarded
    points = np.random.default_rng(2026).uniform(0.2, 1.2, size=(48, 2))
    worst = 0.0
    for name, (sz, sq) in sorted(BRANCHES.items()):
        p = with_branch(REFERENCE_PARAMS, sz, sq)
        for x, t in points:
            if report_at(p, x, t).notes:
                continue
            want = float(regenerate_pins.inconsistency(mp.mpf(x), mp.mpf(t), sz, sq))
            err = abs(residual_P(p, x, t) - want) / max(1.0, abs(want))
            worst = max(worst, err)
            assert err <= 5e-12, (name, x, t, err)
    assert worst > 0.0  # the sample reached the oracle


@pytest.mark.parametrize("x, tol", [(1e5, 1e-12), (1e7, 2e-8)])
def test_far_out_p_reads_the_profile_lattice(regenerate_pins, x, tol):
    # x is reduced by whole real periods of the parameters' profile lattice,
    # which no t and no orbit moves: far out P keeps the oracle's digits
    # (measured 3.7e-13 at 1e5 and 7.0e-9 at 1e7; reducing by the period of
    # each state curve's own float invariants read 7.4e-12 and 5.4e-8)
    for name, (sz, sq) in BRANCHES.items():
        want = regenerate_pins.inconsistency(mp.mpf(x), mp.mpf(1), sz, sq)
        got = residual_P(with_branch(REFERENCE_PARAMS, sz, sq), x, 1.0)
        assert abs(got - want) / max(1, abs(want)) <= tol, name
