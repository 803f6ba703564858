import warnings

import pytest

from cnlse_ansatz import AliasingWarning, BRANCHES, REFERENCE_PARAMS, with_branch
from cnlse_ansatz import ansatz, elliptic, quartic, verify


@pytest.fixture(autouse=True)
def empty_memos():
    # every test starts from empty memos, so the counts and bits it reads do
    # not depend on the tests that ran before it
    for memo in (elliptic._evaluate_memoised, quartic._curve_setup, verify._time_row,
                 ansatz._panel_chunk, ansatz._period_integral):
        memo.cache_clear()


@pytest.fixture
def params():
    return REFERENCE_PARAMS


@pytest.fixture(params=sorted(BRANCHES))
def branch_params(request):
    """Reference parameters on each of the four sign branches."""
    sz, sq = BRANCHES[request.param]
    return request.param, with_branch(REFERENCE_PARAMS, sz, sq)


@pytest.fixture
def no_aliasing_warning():
    # the acceptance grids intentionally run above the aliasing bound;
    # the warning is advisory there
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingWarning)
        yield
