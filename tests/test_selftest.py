import numpy as np
import pytest

from tricap import SELFTEST_SEED, criterion_ids, run_criterion, run_selftest
from tricap import selftest
from tricap.rng import make_rng


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
