import pytest

from emdsm import em_core as em


@pytest.fixture
def two_blas_threads():
    """The getter of numpy's OpenBLAS thread count, set to 2 for the test and
    restored after it; skips where the thread symbols are absent or OpenBLAS
    runs one thread only, since a pin to 1 would then not show."""
    api = em._blas_threads()
    if api is None:
        pytest.skip("numpy's OpenBLAS thread symbols are absent")
    get_threads, set_threads = api
    saved = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("OpenBLAS runs one thread here")
        yield get_threads
    finally:
        set_threads(saved)
