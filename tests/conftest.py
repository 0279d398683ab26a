import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tricap import PointSet, Subspace, TritVector, make_rng

import oracles

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


def digit_rows(indices, n: int) -> np.ndarray:
    """Digits of canonical indices, one row each, coordinate 0 first."""
    return np.asarray(indices, dtype=np.int64)[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3


def on_affine_coset(n: int, codim: int, seed: int) -> PointSet:
    """A third of the points x with x . F = t, F random of rank codim.

    t is nonzero, so the coset misses the origin.
    """
    rng = np.random.default_rng(seed)
    while True:
        f = rng.integers(0, 3, size=(codim, n))
        if oracles.naive_rank(f.tolist()) == codim:
            break
    t = rng.integers(0, 3, size=codim)
    t[0] = t[0] or 1
    cube = digit_rows(np.arange(3**n), n)
    coset = np.flatnonzero((cube @ f.T % 3 == t).all(axis=1))
    return PointSet(n, rng.choice(coset, size=max(3, coset.size // 3), replace=False))


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


def whole_space(n: int) -> Subspace:
    """F_3^n as a Subspace: the span of the n unit vectors."""
    return Subspace.span([TritVector.unit(n, i) for i in range(n)])


def all_vectors(n: int) -> list[TritVector]:
    return [
        TritVector.from_string("".join(map(str, d)))
        for d in itertools.product(range(3), repeat=n)
    ]
