from fractions import Fraction

import numpy as np
import pytest

from tricap import (
    SELFTEST_SEED,
    TritVector,
    extract_spectrum,
    g_exact,
    greedy_random_capset,
    h_exact,
    nullity_distribution,
    random_point_set,
    sample_without_replacement,
)
from tricap import bulk, randomsel

import oracles


class TestGExact:
    @pytest.mark.parametrize("d", [2, 3, 5, 12, 40])
    def test_matches_binomial_reference(self, d):
        for k in range(d + 1):
            assert g_exact(k, d) == oracles.g_reference(k, d)

    @pytest.mark.parametrize("d", [2, 7, 31, 64])
    def test_total_mass_one(self, d):
        assert sum(g_exact(k, d) for k in range(d + 1)) == 1

    def test_successive_halving(self):
        # g(k+1, d) / g(k, d) = (d - k) / ((k + 1)(d - 1)) < 1/2 for k >= 2
        for d in (8, 16, 33):
            for k in range(3, d - 1):
                assert g_exact(k + 1, d) <= g_exact(k, d) / 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            g_exact(-1, 4)
        with pytest.raises(ValueError):
            g_exact(5, 4)


class TestHExact:
    def test_frozen_base_case(self):
        assert h_exact(2, 1) == 96

    def test_monotone_in_k(self):
        for m in (2, 3, 4):
            for k in range(1, 12):
                assert h_exact(m, k + 1) > h_exact(m, k)

    def test_closed_form(self):
        from math import comb, factorial

        for m, k in [(2, 1), (2, 3), (3, 2), (4, 1)]:
            want = 2**m * factorial(2 * m) * comb(2 * m * k, 2 * m)
            assert h_exact(m, k) == want


class TestSampling:
    def test_deterministic_per_stream(self):
        ps = random_point_set(6, 120, 13)
        a = sample_without_replacement(ps, 10, 42, 7)
        b = sample_without_replacement(ps, 10, 42, 7)
        c = sample_without_replacement(ps, 10, 42, 8)
        assert a.dtype == np.int64 and a.shape == (10,)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_samples_are_distinct_members(self):
        ps = random_point_set(5, 60, 4)
        sel = sample_without_replacement(ps, 25, 1)
        assert len(set(sel.tolist())) == 25
        for i in sel.tolist():
            assert ps.contains(TritVector.from_index(ps.n, i))

    def test_rejects_oversized_draw(self):
        ps = random_point_set(4, 10, 9)
        with pytest.raises(ValueError):
            sample_without_replacement(ps, 11, 0)


class TestNullityExperiment:
    def test_histogram_matches_naive_rank_recount(self):
        ps = random_point_set(8, 300, 55)
        trials, d, seed = 40, 8, 9000
        exp = nullity_distribution(ps, d, trials, seed)
        recount: dict[int, int] = {}
        for t in range(trials):
            sel = sample_without_replacement(ps, d, seed, t)
            tuples = [TritVector.from_index(ps.n, i).trits() for i in sel.tolist()]
            nl = oracles.naive_nullity(tuples)
            recount[nl] = recount.get(nl, 0) + 1
        assert exp.histogram == dict(sorted(recount.items()))
        assert sum(exp.histogram.values()) == trials

    def test_empty_selection_has_nullity_zero(self):
        ps = random_point_set(5, 40, 2)
        assert nullity_distribution(ps, 0, 13, 4).histogram == {0: 13}

    def test_blocks_do_not_change_the_histogram(self, monkeypatch):
        ps = random_point_set(6, 200, 8)
        d, trials, seed = 6, 60, 77
        whole = nullity_distribution(ps, d, trials, seed)
        assert len(whole.histogram) > 1  # a spread that a misplaced trial would move
        monkeypatch.setattr(bulk, "_PAIR_CELLS", 7 * d)  # 7 trials per block
        assert nullity_distribution(ps, d, trials, seed).histogram == whole.histogram

    def test_rank_once_per_block_and_one_draw_per_trial(self, monkeypatch):
        # perfbench/tracer.py reads the first positional argument of both
        # calls (the stack's length, the PointSet's n and size)
        calls = {"rank": [], "sample": []}
        real_rank, real_sample = randomsel.rank, randomsel.sample_without_replacement

        def spy_rank(*args, **kwargs):
            calls["rank"].append(len(args[0]))
            return real_rank(*args, **kwargs)

        def spy_sample(*args, **kwargs):
            calls["sample"].append(len(args[0]))
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(randomsel, "rank", spy_rank)
        monkeypatch.setattr(randomsel, "sample_without_replacement", spy_sample)
        monkeypatch.setattr(bulk, "_PAIR_CELLS", 7 * 5)
        ps = random_point_set(6, 90, 3)
        nullity_distribution(ps, 5, 16, 1)
        assert calls["rank"] == [7, 7, 2]
        assert calls["sample"] == [90] * 16

    def test_tails_monotone_and_normalized(self):
        ps = random_point_set(8, 300, 55)
        exp = nullity_distribution(ps, 8, 60, 3)
        rows = exp.tail_rows()
        assert rows[0][1] == 1
        for (_, t1, _), (_, t2, _) in zip(rows, rows[1:]):
            assert t2 <= t1
        for k, tail, overlay in rows:
            assert overlay == 2.0**-k
            assert 0 <= tail <= 1

    def test_frozen_spectrum_experiment(self):
        # the pinned desk-scale run: spectrum of a greedy cap at n = 12
        ps = greedy_random_capset(12, SELFTEST_SEED + 912)
        spec = extract_spectrum(ps, 1)
        exp = nullity_distribution(spec.members, 12, 1000, SELFTEST_SEED)
        assert exp.histogram == {0: 535, 1: 439, 2: 25, 3: 1}
        assert exp.tail(0) == 1
        assert exp.tail(1) == Fraction(465, 1000)
