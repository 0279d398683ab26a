import json

import numpy as np
import pytest

from tricap import SELFTEST_SEED, criterion_ids, run_criterion, run_selftest
from tricap import selftest
from tricap.cli import main
from tricap.rng import make_rng

import oracles


def test_criterion_catalog():
    ids = criterion_ids()
    assert ids == list(range(1, 12))


def test_run_criterion_shape():
    rep = run_criterion(8, SELFTEST_SEED)
    assert rep["id"] == 8
    assert rep["name"] == "selection-combinatorics"
    assert rep["pass"] is True
    assert isinstance(rep["details"], dict)


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        run_criterion(12, SELFTEST_SEED)


def test_run_selftest_subset_report():
    lines = []
    report, ok = run_selftest(SELFTEST_SEED, [8], log=lines.append)
    assert ok is True
    assert report["all_pass"] is True
    assert report["command"] == "selftest"
    assert report["seed"] == SELFTEST_SEED
    assert [c["id"] for c in report["criteria"]] == [8]
    assert any("criterion 8" in ln for ln in lines)
    # no timing chatter may leak into the canonical report
    assert "elapsed" not in str(report)


@pytest.mark.parametrize("seed", range(1, 21))
def test_criterion_8_monte_carlo_passes_across_seeds(seed):
    rep = run_criterion(8, seed)
    assert rep["pass"] is True, rep["details"]


def test_criterion_8_monte_carlo_catches_biased_simulator(monkeypatch):
    def biased(d, trials, seed):
        # d balls into d + 1 bins instead of d
        rng = make_rng(seed, 8, d)
        counts = (rng.integers(0, d + 1, size=(trials, d)) == 0).sum(axis=1)
        return {int(k): int(v) for k, v in enumerate(np.bincount(counts)) if v}

    monkeypatch.setattr(selftest, "simulate_g_frequencies", biased)
    rep = run_criterion(8, SELFTEST_SEED)
    assert rep["pass"] is False
    assert rep["details"]["stage"] == "monte-carlo"


# -- the naive recount behind criterion 5 ------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_naive_max_capset_matches_oracle(n):
    assert selftest._naive_max_capset(n) == oracles.naive_max_capset(n)


def test_naive_max_capset_n3():
    # an off-by-one in the counting bound (from p + 1, or the count minus 1)
    # prunes the last optimal branch and returns 8
    assert selftest._naive_max_capset(3) == 9


# -- criterion 11 reuses the suite's runs of 7-9 -----------------------------


def _spy_criteria(monkeypatch, calls, drifting=()):
    """Replace criteria 1-10 with cheap passing stubs that count their calls.

    A stub in ``drifting`` reports its call number, so its details differ
    between runs; criterion 11 stays the real one.
    """
    for cid in range(1, 11):
        name = selftest._CRITERIA[cid][0]

        def stub(seed, cid=cid):
            calls[cid] = calls.get(cid, 0) + 1
            return True, {"call": calls[cid]} if cid in drifting else {}

        monkeypatch.setitem(selftest._CRITERIA, cid, (name, stub))


@pytest.mark.parametrize("ids, want", [
    (None, {7: 2, 8: 2, 9: 2}),
    ([11], {7: 2, 8: 2, 9: 2}),
    ([7, 8, 11], {7: 3, 8: 3, 9: 2}),
    ([9, 10, 11], {7: 2, 8: 2, 9: 3}),
])
def test_criterion_11_runs_the_subset_once_more(monkeypatch, ids, want):
    calls = {}
    _spy_criteria(monkeypatch, calls)
    report, ok = run_selftest(SELFTEST_SEED, ids)
    assert ok
    assert {k: calls.get(k, 0) for k in (7, 8, 9)} == want
    assert report["criteria"][-1]["details"]["subset"] == [7, 8, 9]


@pytest.mark.parametrize("ids", [None, [11], [9, 11]])
def test_criterion_11_fails_on_drifting_details(monkeypatch, ids):
    calls = {}
    _spy_criteria(monkeypatch, calls, drifting=(9,))
    report, ok = run_selftest(SELFTEST_SEED, ids)
    c11 = report["criteria"][-1]
    assert c11["id"] == 11 and c11["pass"] is False
    assert c11["details"]["stage"] == "bytes"
    assert ok is False


def test_criterion_11_alone_prints_the_full_runs_entry(capsys):
    assert main(["selftest"]) == 0
    full = capsys.readouterr().out
    assert main(["selftest", "--criteria", "11"]) == 0
    alone = capsys.readouterr().out
    # from criterion 11's entry to the end, both reports hold the same bytes
    tail = alone[alone.index('    {\n      "id": 11,'):]
    assert full.endswith(tail)
    assert json.loads(full)["all_pass"] is True
