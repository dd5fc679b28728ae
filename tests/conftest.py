import numpy as np
import pytest

from momentbounds import GeneratorSpec, bounds, make_from_generator, make_naive, moments, testfunc

PROCESS_MEMOS = (testfunc.from_spec_string, testfunc._pair_integral, moments._r_term)


def _clear_memos():
    for memo in PROCESS_MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def clear_memos():
    """Each test starts from empty per-process memos (test functions by spec,
    sigma2 and pair terms by pair, R by slot set) and leaves them empty, so no
    test reads what another computed.  A test that asks for it gets the
    function that empties them."""
    _clear_memos()
    yield _clear_memos
    _clear_memos()


@pytest.fixture(scope="session")
def naive_third():
    return make_naive(1.0 / 3.0)


@pytest.fixture(scope="session")
def naive_quarter():
    return make_naive(0.25)


@pytest.fixture(scope="session")
def naive_one():
    return make_naive(1.0)


@pytest.fixture(scope="session")
def gen_sinx2():
    """The generator-backed function behind the tables' mixed column."""
    return make_from_generator(GeneratorSpec("sin-of-square", (), 0.125))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def moment_calls(monkeypatch):
    """The moment requests that reach bounds.centered_moment, in call order."""
    calls = []
    original = bounds.centered_moment

    def recording(request):
        calls.append(request)
        return original(request)

    monkeypatch.setattr(bounds, "centered_moment", recording)
    return calls
