from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tricap import (
    AffineSubspace,
    PointSet,
    SELFTEST_SEED,
    Subspace,
    TritVector,
    coset_counts,
    extract_spectrum,
    greedy_random_capset,
    random_point_set,
    sampled_increment_checks,
    scan_codim1_increments,
    strong_increment_check,
    subspace_spectrum_stats,
    transform_point_set,
)

import oracles
from conftest import all_vectors, tuples_of

small_sets = st.tuples(st.integers(3, 5), st.integers(0, 99_999)).map(
    lambda t: random_point_set(t[0], 1 + t[1] % min(40, 3 ** t[0] - 1), t[1])
)


def _hyperplane(n: int) -> PointSet:
    w = Subspace.span([TritVector.unit(n, i) for i in range(1, n)])
    return PointSet.from_vectors(w.enumerate_points())


class TestSpectrumLookups:
    @given(small_sets)
    def test_norm_of_matches_table(self, ps):
        spec = extract_spectrum(ps, Fraction(1, 2))
        table = transform_point_set(ps)
        assert spec.norms.shape == spec.members.indices.shape
        for v in all_vectors(ps.n):
            if spec.contains(v):
                assert spec.norm_of(v) == table.norm_at(v.index)
            else:
                with pytest.raises(KeyError):
                    spec.norm_of(v)


class TestCosetCounts:
    @given(small_sets)
    def test_matches_reference(self, ps):
        pts = tuples_of(ps)
        for v in all_vectors(ps.n):
            if v.is_zero():
                continue
            want = oracles.naive_coset_counts(pts, oracles.digits(str(v)))
            assert coset_counts(ps, v) == want

    @given(small_sets)
    def test_counts_total_to_size(self, ps):
        for v in all_vectors(ps.n)[1:8]:
            assert sum(coset_counts(ps, v)) == ps.size


class TestExtraction:
    @given(small_sets)
    def test_membership_matches_exact_inequality(self, ps):
        spec = extract_spectrum(ps, Fraction(1, 2))
        table = transform_point_set(ps)
        bound = Fraction(ps.size, 1) ** 4 * Fraction(1, 4) / Fraction(3) ** (2 * ps.n)
        for v in all_vectors(ps.n):
            inside = not v.is_zero() and Fraction(table.coefficient(v).norm()) >= bound
            assert spec.contains(v) == inside

    @given(small_sets)
    def test_threshold_monotone(self, ps):
        tight = extract_spectrum(ps, 2)
        mid = extract_spectrum(ps, 1)
        loose = extract_spectrum(ps, Fraction(1, 2))
        tight_m = {str(v) for v in tight.members.vectors()}
        mid_m = {str(v) for v in mid.members.vectors()}
        loose_m = {str(v) for v in loose.members.vectors()}
        assert tight_m <= mid_m <= loose_m

    @given(small_sets)
    def test_negation_symmetry(self, ps):
        spec = extract_spectrum(ps, 1)
        for v in spec.members.vectors():
            assert spec.contains(-v)
            assert spec.norm_of(v) == spec.norm_of(-v)

    def test_hyperplane_spectrum_is_dual_line(self):
        ps = _hyperplane(5)
        spec = extract_spectrum(ps, 1)
        got = {str(v) for v in spec.members.vectors()}
        assert got == {"10000", "20000"}
        assert spec.norm_of(TritVector.from_string("10000")) == ps.size**2

    def test_frozen_sizes_for_greedy_cap(self):
        ps = greedy_random_capset(6, SELFTEST_SEED + 6)
        assert ps.size == 71
        for c, size in [(Fraction(1, 2), 612), (Fraction(1), 320), (Fraction(2), 40)]:
            assert extract_spectrum(ps, c).size == size

    def test_threshold_boundaries_match_integer_oracle(self):
        # thresholds whose cleared-denominator bound `need` equals a member's
        # norm, sits one above it, and lies past the int64 range
        ps = greedy_random_capset(5, 77)
        pts = tuples_of(ps)
        dft = oracles.naive_dft(pts, ps.n)
        norm = {oracles.point_index(x): oracles.e_norm(c) for x, c in dft.items()}
        scale = 3 ** (2 * ps.n)

        def need_of(c):
            return -(-(c.numerator**2 * ps.size**4) // (scale * c.denominator**2))

        def oracle(c):
            return [
                i for i in range(1, 3**ps.n)
                if norm[i] * scale * c.denominator**2 >= c.numerator**2 * ps.size**4
            ]

        target = sorted(set(norm[i] for i in range(1, 3**ps.n)))[-3]
        k = 10**6  # c^2 |A|^4 / 3^(2n) lands within 1 below the wanted need
        for need in (target, target + 1):
            c = Fraction(isqrt(need * scale * k * k), ps.size**2 * k)
            assert need_of(c) == need
            got = extract_spectrum(ps, c).members.indices.tolist()
            assert got == oracle(c)
            assert (target in [norm[i] for i in got]) == (need == target)
        c = Fraction(2**40)
        assert need_of(c) >= 2**63
        assert extract_spectrum(ps, c).size == 0 == len(oracle(c))

    def test_rejects_negative_threshold(self):
        ps = random_point_set(3, 5, 1)
        with pytest.raises(ValueError):
            extract_spectrum(ps, Fraction(-1, 2))


class TestIncrements:
    def test_hyperplane_boundary_case(self):
        # density 1/3 concentrated on a codim-1 coset sits exactly on the
        # threshold rho * (1 + 20 d / n) at n = 10, d = 1
        ps = _hyperplane(10)
        aff = AffineSubspace(
            Subspace.span([TritVector.unit(10, i) for i in range(1, 10)]),
            TritVector.zero(10),
        )
        rep = strong_increment_check(ps, aff)
        assert rep.is_increment
        assert rep.excess == 0
        assert rep.density == Fraction(1)

    def test_scan_finds_hyperplane_concentration(self):
        ps = _hyperplane(10)
        found = scan_codim1_increments(ps)
        assert found, "full hyperplane must be its own codim-1 increment"
        for rep in found:
            assert rep.codim == 1
            assert rep.is_increment
            assert rep.density == Fraction(1)
            assert rep.excess == 0

    def test_scan_empty_for_tiny_random(self):
        # a 4-point set at n = 6 has density 4/729; a strong increment
        # needs a coset with at least ceil(rho (1 + 20/6) 3^5) = 6 points
        # of the 4 available, so the scan must come back empty
        ps = random_point_set(6, 4, 3)
        assert scan_codim1_increments(ps) == []

    def test_check_rejects_bad_codim(self):
        ps = random_point_set(6, 10, 5)
        line = Subspace.span([TritVector.unit(6, 0)])
        with pytest.raises(ValueError):
            strong_increment_check(ps, AffineSubspace(line, TritVector.zero(6)))

    def test_sampled_checks_deterministic(self):
        ps = greedy_random_capset(6, SELFTEST_SEED + 6)
        spec = extract_spectrum(ps, 1)
        a = sampled_increment_checks(spec, 2, 10, 42)
        b = sampled_increment_checks(spec, 2, 10, 42)
        assert a == b


class TestSubspaceStats:
    def test_against_direct_sums(self):
        ps = greedy_random_capset(5, 77)
        spec = extract_spectrum(ps, Fraction(1, 2))
        w = Subspace.span([TritVector.from_string("10000"), TritVector.from_string("01000")])
        stats = subspace_spectrum_stats(spec, w, epsilon=0.05)
        table = transform_point_set(ps)
        direct_count = 0
        direct_weight = 0
        for v in w.enumerate_points():
            if v.is_zero():
                continue
            if spec.contains(v):
                direct_count += 1
            direct_weight += table.coefficient(v).norm()
        assert stats.dim == 2
        assert stats.member_count == direct_count
        assert stats.weight == direct_weight

    def test_subspace_larger_than_spectrum(self):
        # 3^dim > 4 |spec|: W has more points than four times the spectrum
        ps = greedy_random_capset(5, 77)
        spec = extract_spectrum(ps, 2)
        gens = [str(TritVector.from_index(5, int(i))) for i in spec.members.indices[:2]]
        gens += ["10000", "00100", "00001"]
        w = Subspace.span([TritVector.from_string(s) for s in gens], 5)
        assert 3**w.dim > max(4 * spec.size, 64)
        points = oracles.naive_span([oracles.digits(s) for s in gens], 5)
        members = {str(v) for v in spec.members.vectors()}
        table = transform_point_set(ps)
        stats = subspace_spectrum_stats(spec, w)
        assert stats.member_count == sum(oracles.to_string(d) in members for d in points)
        assert stats.member_count > 0
        assert stats.weight == sum(
            table.norm_at(oracles.point_index(d)) for d in points if any(d)
        )
