"""Acceptance gate: the eleven selftest criteria, one test each.

Every test prints a single PASS or FAIL line for its criterion (visible
under -s or in the -v test status) and fails hard if the criterion does.
The two budgeted criteria also assert their wall-clock ceilings.
"""

import time

from tricap import SELFTEST_SEED, run_criterion, run_selftest
from tricap.jsonio import dumps_canonical
from tricap.selftest import _CRITERIA


def _run(cid: int, budget: float | None = None) -> None:
    t0 = time.time()
    rep = run_criterion(cid, SELFTEST_SEED)
    elapsed = time.time() - t0
    status = "PASS" if rep["pass"] else "FAIL"
    print(f"criterion {cid} ({rep['name']}): {status}")
    assert rep["pass"], f"criterion {cid} failed: {rep['details']}"
    if budget is not None:
        assert elapsed < budget, f"criterion {cid} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_01_plancherel_identity():
    _run(1, budget=60.0)


def test_criterion_02_cube_sum_caps():
    _run(2)


def test_criterion_03_energy_dual():
    _run(3)


def test_criterion_04_holder_interpolation():
    _run(4)


def test_criterion_05_exhaustive_maxima():
    _run(5, budget=60.0)


def test_criterion_06_fiber_martingale():
    _run(6)


def test_criterion_07_komity_identity():
    _run(7)


def test_criterion_08_selection_combinatorics():
    _run(8)


def test_criterion_09_nullity_reproducibility():
    _run(9)


def test_criterion_10_spectrum_invariants():
    _run(10)


def test_criterion_11_determinism():
    # two complete runs of criteria 1 through 10 must render to the same
    # bytes; this is the strict form of the in-suite determinism check
    ids = list(range(1, 11))
    first, ok1 = run_selftest(SELFTEST_SEED, ids)
    second, ok2 = run_selftest(SELFTEST_SEED, ids)
    same = dumps_canonical(first) == dumps_canonical(second)
    status = "PASS" if (ok1 and ok2 and same) else "FAIL"
    print(f"criterion 11 ({_CRITERIA[11][0]}): {status}")
    assert ok1 and ok2
    assert same, "repeated selftest runs rendered different bytes"
