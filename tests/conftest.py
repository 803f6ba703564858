import warnings

import pytest

from cnlse_ansatz import AliasingWarning, BRANCHES, REFERENCE_PARAMS, with_branch
from cnlse_ansatz import ansatz, elliptic, quartic, verify


@pytest.fixture(autouse=True)
def empty_memos():
    # every test starts from empty memos, so the counts and bits it reads do
    # not depend on the tests that ran before it: every memo of the modules
    # that keep one, found by its cache_clear.  A curve's invariants live on
    # the curve object and a time row's state on the row, so a fresh curve
    # or row starts without them
    for module in (ansatz, elliptic, quartic, verify):
        for memo in vars(module).values():
            if hasattr(memo, "cache_clear"):
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
