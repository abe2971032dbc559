import pytest

from ummtest import specfun


@pytest.fixture(autouse=True)
def _cold_chebyshev_cells():
    # the vector inverse keeps its solved cells for the process; each test
    # starts from an empty cache, so pass and call counts measure a fresh
    # process whatever ran before
    specfun._CELLS.clear()
