import collections
import itertools
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tricap import (
    GuardExceededError,
    IdentityViolationError,
    PointSet,
    Subspace,
    TritVector,
    build_levels,
    comity_scan,
    delta_g,
    diff_multiplicity,
    fiber_plancherel_check,
    fiber_sizes,
    greedy_random_capset,
    heaviest_band,
    komity,
    komity_reference,
    random_point_set,
    restricted_transform,
    span_hull,
)
from tricap import bulk, fourier, structure
from tricap.structure import AdditiveStructure

import oracles
from conftest import tuples_of

small_sets = st.tuples(st.integers(3, 5), st.integers(0, 99_999)).map(
    lambda t: random_point_set(t[0], 2 + t[1] % min(30, 3 ** t[0] - 2), t[1])
)

def _check_comity_bands(ps):
    pts = tuples_of(ps)
    for band in build_levels(ps):
        got = [(b.size_lo, b.pair_count, b.mass) for b in comity_scan(band)]
        diffs = [oracles.digits(str(v)) for v in band.diffs.vectors()]
        assert got == oracles.naive_comity(pts, diffs)


def _table_from(backend, monkeypatch):
    """Make build_levels read the difference table of one backend."""
    monkeypatch.setattr(structure, "diff_multiplicity", partial(diff_multiplicity, backend=backend))


class TestLevels:
    @given(small_sets)
    def test_bands_partition_differences(self, ps):
        levels = build_levels(ps)
        ref = oracles.naive_diff_counts(tuples_of(ps))
        seen = {}
        total_pairs = 0
        for band in levels:
            total_pairs += band.pair_count
            for v in band.diffs.vectors():
                d = oracles.digits(str(v))
                assert d not in seen
                m = ref[d]
                assert band.m_lo <= m < 2 * band.m_lo
                seen[d] = m
        assert total_pairs == ps.size**2
        assert seen.keys() == ref.keys()

    @pytest.mark.parametrize("backend", ["hash", "transform"])
    @pytest.mark.parametrize(
        "n, size, seed",
        # sizes 2^k put the zero difference, m = |S|, on a band's lower edge
        [(3, 1, 0), (3, 2, 1), (3, 4, 2), (4, 8, 3), (4, 16, 4), (5, 32, 5),
         (5, 64, 6), (4, 13, 7), (5, 50, 8), (2, 9, 9)],
    )
    def test_bands_match_bucketed_oracle(self, n, size, seed, backend, monkeypatch):
        _table_from(backend, monkeypatch)
        ps = random_point_set(n, size, seed)
        want = {}
        for d, m in oracles.naive_diff_counts(tuples_of(ps)).items():
            m_lo = 1
            while 2 * m_lo <= m:
                m_lo *= 2
            diffs, pairs = want.get(m_lo, ([], 0))
            want[m_lo] = (diffs + [oracles.point_index(d)], pairs + m)
        got = [
            (band.m_lo, band.diffs.indices.tolist(), band.pair_count)
            for band in build_levels(ps)
        ]
        assert got == [(m_lo, sorted(d), p) for m_lo, (d, p) in sorted(want.items())]

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("backend", ["hash", "transform"])
    @pytest.mark.parametrize(
        "n, size, seed",
        # |S| = 2^k puts m(0) on a band's lower edge; the 128-point sets
        # also have many differences at m = 2, 4 and 8
        [(6, 64, 11), (7, 128, 12), (8, 128, 13), (8, 300, 14), (8, 37, 15)],
    )
    def test_bands_match_brute_force_up_to_n8(self, n, size, seed, backend, block, monkeypatch):
        if block:
            monkeypatch.setattr(fourier, "_BLOCK", block)
        _table_from(backend, monkeypatch)
        ps = random_point_set(n, size, seed)
        counts = {
            oracles.point_index(d): m
            for d, m in oracles.naive_diff_counts(tuples_of(ps)).items()
        }
        want = {}
        for x, m in counts.items():
            t = m.bit_length() - 1  # 2^t <= m < 2^(t+1)
            want.setdefault(t, []).append(x)
        got = [
            (band.m_lo, band.diffs.indices.tolist(), band.pair_count)
            for band in build_levels(ps)
        ]
        assert got == [
            (1 << t, sorted(xs), sum(counts[x] for x in xs)) for t, xs in sorted(want.items())
        ]

    def test_traced_peak_is_table_labels_and_bands(self):
        # the inverse holds the norm table and its imaginary plane, 16 bytes a
        # cell, with int64 butterfly tiles of about 4.9 MB; afterwards the
        # count table (8), the labels (1) and the bands' indices (8 a
        # difference) are the only full-size arrays
        n = 12
        ps = greedy_random_capset(n, 7)
        tracemalloc.start()
        try:
            build_levels(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * 3**n + (6 << 20)

    @given(small_sets)
    def test_heaviest_band(self, ps):
        bands = build_levels(ps)
        top = heaviest_band(bands)
        assert top.pair_count == max(b.pair_count for b in bands)
        assert [b.m_lo for b in bands] == sorted({b.m_lo for b in bands})

    def test_heaviest_band_ties_and_empty(self):
        base = PointSet(2, [0, 1])
        bands = [
            AdditiveStructure(base, PointSet(2, [k]), m_lo, pairs)
            for k, (m_lo, pairs) in enumerate([(1, 4), (2, 4), (4, 3)])
        ]
        assert heaviest_band(bands) is bands[1]  # equal pair counts: the larger m_lo
        with pytest.raises(ValueError):
            heaviest_band([])
        assert build_levels(PointSet.empty(3)) == []

    def test_band_exponent_subspace(self):
        w = Subspace.span([TritVector.unit(4, 0), TritVector.unit(4, 1)])
        ps = PointSet.from_vectors(w.enumerate_points())
        bands = build_levels(ps)
        # every difference of a subspace has multiplicity |S|, one band
        assert len(bands) == 1
        band = heaviest_band(bands)
        assert band.m_lo <= ps.size < 2 * band.m_lo
        assert band.diffs.size == ps.size


class TestDeltaG:
    @given(small_sets)
    def test_neighborhood_size_is_multiplicity(self, ps):
        # every band and every difference, against the definition
        ref = oracles.naive_diff_counts(tuples_of(ps))
        base = set(tuples_of(ps))
        for band in build_levels(ps):
            for v in band.diffs.vectors():
                d = oracles.digits(str(v))
                hood = delta_g(band, v)
                assert set(tuples_of(hood)) == {a for a in base if oracles.vec_sub(a, d) in base}
                assert hood.size == ref[d]
                assert hood.indices.dtype == np.int64
                assert np.all(np.diff(hood.indices) > 0)
                assert not hood.indices.flags.writeable
            foreign = np.setdiff1d(np.arange(3**ps.n), band.diffs.indices)
            if foreign.size:
                with pytest.raises(ValueError):
                    delta_g(band, TritVector.from_index(ps.n, int(foreign[0])))

    def test_rejects_foreign_difference(self):
        ps = PointSet.from_strings(["000", "001"])
        band = heaviest_band(build_levels(ps))
        with pytest.raises(ValueError):
            delta_g(band, TritVector.from_string("111"))


class TestKomity:
    @given(small_sets)
    def test_identity_against_double_loop(self, ps):
        band = heaviest_band(build_levels(ps))
        fast = komity(band)
        assert fast == komity_reference(band)
        hoods = [
            {oracles.digits(str(a)) for a in delta_g(band, v).vectors()}
            for v in band.diffs.vectors()
        ]
        slow = sum(len(hx & hy) for hx in hoods for hy in hoods)
        assert fast == slow

    @given(small_sets)
    def test_comity_masses_account_for_komity(self, ps):
        band = heaviest_band(build_levels(ps))
        bands = comity_scan(band)
        assert sum(b.mass for b in bands) == komity(band)
        for b in bands:
            assert b.size_lo >= 1
            assert b.pair_count >= 1

    @given(small_sets)
    def test_comity_bands_match_oracle(self, ps):
        _check_comity_bands(ps)

    @pytest.mark.parametrize("cells", [7, 1 << 20])
    @pytest.mark.parametrize("n, size, seed", [(4, 40, 1), (5, 70, 2), (5, 130, 3)])
    def test_comity_multiword_rows_match_oracle(self, n, size, seed, cells, monkeypatch):
        # more than 64 base points spread a row over several words; 7 cells
        # make every pair block and every intersection block one row
        monkeypatch.setattr(bulk, "_PAIR_CELLS", cells)
        _check_comity_bands(random_point_set(n, size, seed))

    def test_reference_guard(self):
        ps = greedy_random_capset(7, 3)
        band = max(build_levels(ps), key=lambda b: b.diffs.size)
        if band.diffs.size > 256:
            with pytest.raises(GuardExceededError):
                komity_reference(band)


class TestHull:
    @given(small_sets)
    def test_doubling_matches_reference(self, ps):
        from tricap import doubling_ratio

        pts = tuples_of(ps)
        diffs = {oracles.vec_sub(a, b) for a in pts for b in pts}
        assert doubling_ratio(ps) == Fraction(len(diffs), ps.size)

    def test_doubling_runs_at_the_dense_ceiling(self):
        from tricap import doubling_ratio

        assert doubling_ratio(PointSet(16, [0, 1])) == Fraction(3, 2)  # S - S = {0, 1, 2}

    @given(small_sets)
    def test_span_hull(self, ps):
        span, fill = span_hull(ps)
        assert span.dim == oracles.naive_rank(tuples_of(ps))
        assert fill == Fraction(3**span.dim, ps.size)
        for v in ps.vectors():
            assert span.contains(v)


def _profile_sizes(ps, h, reps):
    """Oracle: how many points of ps share each rep's dot profile against h's basis."""
    basis = [oracles.digits(str(b)) for b in h.basis]

    def profile(d):
        return tuple(oracles.dot(b, d) for b in basis)

    counts = collections.Counter(map(profile, tuples_of(ps)))
    profiles = [profile(oracles.digits(str(TritVector.from_index(ps.n, r)))) for r in reps]
    return profiles, [counts[p] for p in profiles]


class TestFibers:
    @given(small_sets)
    def test_fibers_partition_set(self, ps):
        h = Subspace.span([TritVector.unit(ps.n, 0), TritVector.unit(ps.n, 1)])
        reps, sizes = fiber_sizes(ps, h)
        assert len(reps) == len(sizes) == 3**h.dim
        assert sizes.dtype == np.int64
        assert sizes.sum() == ps.size
        assert sizes.tolist() == _profile_sizes(ps, h, reps)[1]

    @given(small_sets, st.data())
    def test_fibers_follow_dot_profiles(self, ps, data):
        strings = data.draw(
            st.lists(st.text(alphabet="012", min_size=ps.n, max_size=ps.n), max_size=3)
        )
        h = Subspace.span([TritVector.from_string(s) for s in strings], ps.n)
        reps, sizes = fiber_sizes(ps, h)
        # representatives: the transversal of H's annihilator in counter
        # order, rightmost generator fastest, one per dot profile
        gens = [oracles.digits(str(t)) for t in h.annihilator().transversal().basis]
        want_reps = []
        for coeffs in itertools.product(range(3), repeat=len(gens)):
            v = (0,) * ps.n
            for c, g in zip(coeffs, gens):
                v = oracles.vec_add(v, tuple(c * t % 3 for t in g))
            want_reps.append(oracles.point_index(v))
        assert reps.tolist() == want_reps
        profiles, want_sizes = _profile_sizes(ps, h, reps)
        assert sorted(profiles) == list(itertools.product(range(3), repeat=h.dim))
        assert sizes.tolist() == want_sizes

    def test_greedy_cap_at_n12_dim_h10(self):
        ps = greedy_random_capset(12, 7)
        rng = np.random.default_rng(12)
        h = Subspace.zero(12)
        while h.dim < 10:
            row = "".join(map(str, rng.integers(0, 3, 12)))
            h = Subspace.span([*h.basis, TritVector.from_string(row)], 12)
        reps, sizes = fiber_sizes(ps, h)
        profiles, want_sizes = _profile_sizes(ps, h, reps)
        assert len(set(profiles)) == len(reps) == 3**10
        assert sizes.tolist() == want_sizes
        assert sizes.sum() == ps.size

    def test_repeated_profiles_raise(self, monkeypatch):
        # a "transversal" inside H's annihilator gives every rep the profile 0
        monkeypatch.setattr(
            Subspace, "transversal", lambda self: Subspace.span([TritVector.unit(3, 1)])
        )
        h = Subspace.span([TritVector.unit(3, 0)])
        with pytest.raises(IdentityViolationError):
            fiber_sizes(random_point_set(3, 5, 1), h)

    def test_empty_fibers_kept(self):
        ps = PointSet.from_strings(["000"])
        h = Subspace.span([TritVector.unit(3, 0)])
        reps, sizes = fiber_sizes(ps, h)
        assert sorted(sizes.tolist()) == [0, 0, 1]


class TestMartingale:
    @given(small_sets, st.data())
    def test_identity_matches_oracle(self, ps, data):
        # K spanned by up to three random vectors, H by random combinations
        # of K's basis, so H <= K with 0 <= dim H <= dim K <= 3
        strings = data.draw(
            st.lists(st.text(alphabet="012", min_size=ps.n, max_size=ps.n), max_size=3)
        )
        k = Subspace.span([TritVector.from_string(s) for s in strings], ps.n)
        coeffs = data.draw(
            st.lists(st.lists(st.integers(0, 2), min_size=k.dim, max_size=k.dim), max_size=3)
        )
        h = Subspace.span(
            [sum((b.scale(c) for b, c in zip(k.basis, cs)), TritVector.zero(ps.n)) for cs in coeffs],
            ps.n,
        )
        rep = fiber_plancherel_check(ps, h, k)
        assert rep.holds
        assert (rep.dim_h, rep.dim_k) == (h.dim, k.dim)
        lhs, rhs = oracles.naive_martingale_sides(
            tuples_of(ps),
            [oracles.digits(str(b)) for b in h.basis],
            [oracles.digits(str(b)) for b in k.basis],
            ps.n,
        )
        assert lhs == rhs
        assert (rep.lhs, rep.rhs) == (lhs, rhs)

    @staticmethod
    def nested_subspaces(n, dim_h, dim_k, seed):
        rng = np.random.default_rng(seed)
        while True:
            k = Subspace.span([
                TritVector.from_string("".join(map(str, row))) for row in rng.integers(0, 3, (dim_k, n))
            ])
            if k.dim == dim_k:
                return Subspace.span(list(k.basis[:dim_h]), n), k

    @pytest.mark.parametrize("n, dim_h, dim_k", [(6, 0, 3), (6, 2, 2), (8, 2, 5), (9, 4, 6)])
    def test_fiber_terms_match_the_per_fiber_tables(self, n, dim_h, dim_k):
        # reference: the fibers grouped by oracle dot profiles against H's
        # basis, empty ones included, and one restricted_transform per fiber
        ps = greedy_random_capset(n, n)
        h, k = self.nested_subspaces(n, dim_h, dim_k, n)
        rep = fiber_plancherel_check(ps, h, k)
        basis = [oracles.digits(str(b)) for b in h.basis]
        groups = {p: [] for p in itertools.product(range(3), repeat=dim_h)}
        for a in tuples_of(ps):
            groups[tuple(oracles.dot(b, a) for b in basis)].append(oracles.point_index(a))
        fibers = [PointSet(n, idx) for idx in groups.values()]
        t = Subspace.span(h.extension_to(k), n)
        tables = [restricted_transform(fiber, t) for fiber in fibers]
        size_h = 3**dim_h
        weights = [tab.norm_total() - tab.norm_at(0) for tab in tables]
        assert rep.fiber_term == size_h**2 * sum(weights)
        assert rep.h_term == sum((size_h * f.size - ps.size) ** 2 for f in fibers)
        assert rep.raw_rhs == size_h * sum(f.size**2 for f in fibers)
        assert rep.holds

    def test_one_histogram_and_one_partial_transform(self, monkeypatch):
        ps = greedy_random_capset(9, 2)
        h, k = self.nested_subspaces(9, 3, 7, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("per-fiber path taken")

        restricted, tables = [], []
        real_restricted, real_table = structure.restricted_transform, fourier.transform_table

        def spy_restricted(ps, w, **kw):
            restricted.append(w)
            return real_restricted(ps, w, **kw)

        def spy_table(f, n, force=False, **kw):
            tables.append((n, kw.get("digits")))
            return real_table(f, n, force, **kw)

        monkeypatch.setattr(PointSet, "__init__", refuse)
        monkeypatch.setattr(PointSet, "_from_sorted", refuse)
        monkeypatch.setattr(structure, "restricted_transform", spy_restricted)
        monkeypatch.setattr(fourier, "transform_table", spy_table)
        rep = fiber_plancherel_check(ps, h, k)
        assert rep.holds and rep.fiber_term > 0
        # K and H through restricted_transform, then the one partial transform
        assert restricted == [k, h]
        assert tables == [(7, None), (3, None), (7, 4)]

    def test_high_dimension_takes_no_full_table(self, monkeypatch):
        ps = random_point_set(16, 3000, 5)
        rng = np.random.default_rng(11)
        k = Subspace.span(
            [TritVector.from_string("".join(map(str, rng.integers(0, 3, 16)))) for _ in range(8)]
        )
        h = Subspace.span(list(k.basis[:4]), 16)
        assert (h.dim, k.dim) == (4, 8)

        def refuse(*args, **kwargs):
            raise AssertionError("per-frequency or full-table path taken")

        for module in (fourier, structure):
            for name in ("eval_at", "transform_point_set"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        monkeypatch.setattr(PointSet, "translate", refuse)
        tracemalloc.start()
        try:
            rep = fiber_plancherel_check(ps, h, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.holds
        assert peak < 3**16  # bytes of a 3^16 indicator or bitmap

    def test_guard_fires_before_a_large_allocation(self):
        ps = random_point_set(15, 50, 2)
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError):
                fiber_plancherel_check(ps, Subspace.zero(15), Subspace.full(15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3**15

    def test_degenerate_k_equals_h(self):
        ps = random_point_set(4, 17, 6)
        h = Subspace.span([TritVector.unit(4, 2)])
        rep = fiber_plancherel_check(ps, h, h)
        assert rep.holds
        assert rep.raw_lhs == rep.raw_rhs

    def test_requires_containment(self):
        ps = random_point_set(4, 9, 2)
        h = Subspace.span([TritVector.unit(4, 0)])
        k = Subspace.span([TritVector.unit(4, 1)])
        with pytest.raises(ValueError):
            fiber_plancherel_check(ps, h, k)
