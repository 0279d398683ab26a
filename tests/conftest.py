import itertools

import pytest
from hypothesis import HealthCheck, settings

from tricap import PointSet, TritVector, make_rng

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def pytest_addoption(parser):
    parser.addoption("--large", action="store_true", help="also run tests marked large")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--large"):
        return
    skip = pytest.mark.skip(reason="large: pass --large to run")
    for item in items:
        if "large" in item.keywords:
            item.add_marker(skip)


def tuples_of(ps: PointSet) -> list[tuple[int, ...]]:
    """Digit-tuple view of a point set, for feeding the oracles."""
    return [tuple(int(c) for c in str(v)) for v in ps.vectors()]


def set_of(tuples) -> PointSet:
    return PointSet.from_strings("".join(str(t) for t in d) for d in tuples)


@pytest.fixture
def rng():
    return make_rng(977)


@pytest.fixture(scope="session")
def small_caps():
    """A few verified caps at tiny dimensions, one per n."""
    out = {}
    for n, seed in [(3, 5), (4, 6), (5, 7)]:
        from tricap import greedy_random_capset

        out[n] = greedy_random_capset(n, seed)
    return out


def all_vectors(n: int) -> list[TritVector]:
    return [
        TritVector.from_string("".join(map(str, d)))
        for d in itertools.product(range(3), repeat=n)
    ]
