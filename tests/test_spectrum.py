import math
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tricap import (
    IdentityViolationError,
    Increment,
    PointSet,
    SELFTEST_SEED,
    Subspace,
    TritVector,
    bulk,
    coset_counts,
    eval_at,
    extract_spectrum,
    fourier,
    greedy_random_capset,
    increment_need,
    increment_threshold,
    make_rng,
    random_point_set,
    sampled_increment_checks,
    scan_codim1_increments,
    spectrum,
    strong_increment_check,
    subspace_spectrum_stats,
    transform_point_set,
)

import oracles
from conftest import all_vectors, digit_rows, on_affine_coset, tuples_of

small_sets = st.tuples(st.integers(3, 5), st.integers(0, 99_999)).map(
    lambda t: random_point_set(t[0], 1 + t[1] % min(40, 3 ** t[0] - 1), t[1])
)
# the empty set included, and at n = 2 every set size up to the whole cube
scan_sets = st.tuples(st.integers(2, 6), st.integers(0, 99_999)).map(
    lambda t: random_point_set(t[0], t[1] % min(41, 3 ** t[0] + 1), t[1])
)


def _hyperplane(n: int) -> PointSet:
    w = Subspace.span([TritVector.unit(n, i) for i in range(1, n)])
    return PointSet(n, w.enumerate_indices())


def _row_indices(rows: np.ndarray, n: int) -> np.ndarray:
    return rows @ 3 ** np.arange(n - 1, -1, -1)


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

    def test_level_counts_on_int32_table_slices(self):
        # an indicator table is int32; every functional's counts off its
        # slices agree with a direct count of the dot products
        ps = greedy_random_capset(6, 3)
        table = transform_point_set(ps)
        assert table.p.dtype == table.q.dtype == np.int32
        levels = spectrum._level_counts(table.p[1:], table.q[1:], ps.size)
        lo, hi = ps.planes()
        want = [
            np.bincount(bulk.dots_with(lo, hi, TritVector.from_index(6, x)), minlength=3)
            for x in range(1, 3**6)
        ]
        assert np.array_equal(np.stack(levels, axis=1), np.array(want))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_level_counts_int32_at_the_largest_set(self, level):
        # |A| = 3^16 all on one level: size - p - q reaches 3 |A| = 3^17 < 2^31
        size = 3**16
        p = np.array([size if level == 0 else -size if level == 2 else 0], dtype=np.int32)
        q = np.array([size if level == 1 else -size if level == 2 else 0], dtype=np.int32)
        counts = spectrum._level_counts(p, q, size)
        assert [int(k[0]) for k in counts] == [size if j == level else 0 for j in range(3)]


# a table whose n or |A| differs from PointSet(5, [0, 1])'s
another_set = pytest.mark.parametrize(
    "other", [PointSet(5, [0, 1, 2]), PointSet(4, [0, 1])], ids=["another-size", "another-n"]
)


class TestExtraction:
    @given(small_sets)
    def test_membership_matches_exact_inequality(self, ps):
        table = transform_point_set(ps)
        spec = extract_spectrum(ps, table, Fraction(1, 2))
        bound = Fraction(ps.size, 1) ** 4 * Fraction(1, 4) / Fraction(3) ** (2 * ps.n)
        for v in all_vectors(ps.n):
            inside = not v.is_zero() and Fraction(table.norm_at(v.index)) >= bound
            assert spec.members.contains(v) == inside

    @pytest.mark.parametrize("block", [5, 7])
    def test_blockwise_mask_matches_every_cell(self, monkeypatch, block):
        # ragged norm blocks: every frequency's own norm decides membership
        monkeypatch.setattr(fourier, "_BLOCK", block)
        ps = greedy_random_capset(5, 7)
        table = transform_point_set(ps)
        assert table.norm_total() == 3**5 * ps.size
        for c in (Fraction(1, 2), Fraction(1), Fraction(2)):
            need = c * c * ps.size**4 / 3**10
            want = [x for x in range(1, 3**5) if table.norm_at(x) >= need]
            assert extract_spectrum(ps, table, c).members.indices.tolist() == want

    @given(small_sets)
    def test_threshold_monotone(self, ps):
        table = transform_point_set(ps)
        tight = extract_spectrum(ps, table, 2)
        mid = extract_spectrum(ps, table, 1)
        loose = extract_spectrum(ps, table, Fraction(1, 2))
        tight_m = {str(v) for v in tight.members.vectors()}
        mid_m = {str(v) for v in mid.members.vectors()}
        loose_m = {str(v) for v in loose.members.vectors()}
        assert tight_m <= mid_m <= loose_m

    @given(small_sets)
    def test_negation_symmetry(self, ps):
        spec = extract_spectrum(ps, transform_point_set(ps), 1)
        for v in spec.members.vectors():
            assert spec.members.contains(-v)
            assert eval_at(ps, v).norm() == eval_at(ps, -v).norm()

    def test_hyperplane_spectrum_is_dual_line(self):
        ps = _hyperplane(5)
        spec = extract_spectrum(ps, transform_point_set(ps), 1)
        got = {str(v) for v in spec.members.vectors()}
        assert got == {"10000", "20000"}
        assert eval_at(ps, TritVector.from_string("10000")).norm() == ps.size**2

    def test_frozen_sizes_for_greedy_cap(self):
        ps = greedy_random_capset(6, SELFTEST_SEED + 6)
        assert ps.size == 71
        table = transform_point_set(ps)
        for c, size in [(Fraction(1, 2), 612), (Fraction(1), 320), (Fraction(2), 40)]:
            assert extract_spectrum(ps, table, c).members.size == size

    def test_threshold_boundaries_match_integer_oracle(self):
        # thresholds whose cleared-denominator bound `need` equals a member's
        # norm, sits one above it, and lies past the int64 range
        ps = greedy_random_capset(5, 77)
        pts = tuples_of(ps)
        dft = oracles.naive_dft(pts, ps.n)
        norm = {oracles.point_index(x): oracles.e_norm(c) for x, c in dft.items()}
        scale = 3 ** (2 * ps.n)
        table = transform_point_set(ps)

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
            got = extract_spectrum(ps, table, c).members.indices.tolist()
            assert got == oracle(c)
            assert (target in [norm[i] for i in got]) == (need == target)
        c = Fraction(2**40)
        assert need_of(c) >= 2**63
        assert extract_spectrum(ps, table, c).members.size == 0 == len(oracle(c))

    @another_set
    def test_rejects_the_table_of_another_set(self, other):
        with pytest.raises(ValueError, match="not the transform"):
            extract_spectrum(PointSet(5, [0, 1]), transform_point_set(other), 1)

    def test_rejects_negative_threshold(self):
        ps = random_point_set(3, 5, 1)
        table = transform_point_set(ps)
        with pytest.raises(ValueError):
            extract_spectrum(ps, table, Fraction(-1, 2))


class TestIncrements:
    def test_hyperplane_boundary_case(self):
        # density 1/3 concentrated on a codim-1 coset sits exactly on the
        # threshold rho * (1 + 20 d / n) at n = 10, d = 1
        ps = _hyperplane(10)
        direction = Subspace.span([TritVector.unit(10, i) for i in range(1, 10)])
        inc = strong_increment_check(ps, direction, TritVector.zero(10))
        assert inc == Increment(1, 3**9, tuple(b.index for b in direction.basis), 0)
        assert inc.count == increment_need(ps, 1)
        assert Fraction(inc.count, 3**9) == increment_threshold(ps, 1) == 1

    def test_scan_finds_hyperplane_concentration(self):
        ps = _hyperplane(10)
        found = scan_codim1_increments(ps, transform_point_set(ps))
        assert found, "full hyperplane must be its own codim-1 increment"
        for inc in found:
            assert (inc.codim, inc.count) == (1, 3**9) == (1, increment_need(ps, 1))

    @another_set
    def test_scan_rejects_the_table_of_another_set(self, other):
        with pytest.raises(ValueError, match="not the transform"):
            scan_codim1_increments(PointSet(5, [0, 1]), transform_point_set(other))

    def test_scan_empty_for_tiny_random(self):
        # a 4-point set at n = 6 has density 4/729; a strong increment
        # needs a coset with at least ceil(rho (1 + 20/6) 3^5) = 6 points
        # of the 4 available, so the scan must come back empty
        ps = random_point_set(6, 4, 3)
        assert scan_codim1_increments(ps, transform_point_set(ps)) == []

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_need_off_the_boundary_raises(self, monkeypatch, shift):
        # need is checked once, as the exact boundary: one below it would
        # report cosets under the threshold, one above would drop some
        exact = math.ceil
        monkeypatch.setattr(spectrum, "math", SimpleNamespace(ceil=lambda x: exact(x) + shift))
        ps = _hyperplane(6)
        table = transform_point_set(ps)
        with pytest.raises(IdentityViolationError):
            scan_codim1_increments(ps, table)

    def test_check_rejects_bad_codim(self):
        ps = random_point_set(6, 10, 5)
        line = Subspace.span([TritVector.unit(6, 0)])
        with pytest.raises(ValueError):
            strong_increment_check(ps, line, TritVector.zero(6))

    @pytest.mark.parametrize("codim, samples", [(0, 2), (4, 2), (-1, 2), (1, 0), (1, -3)])
    def test_sampled_checks_reject_bad_arguments(self, codim, samples):
        ps = greedy_random_capset(6, 3)
        spec = extract_spectrum(ps, transform_point_set(ps), 1)
        with pytest.raises(ValueError):
            sampled_increment_checks(spec, codim, samples, 5)
        with pytest.raises(ValueError):
            spectrum.check_increment_sampling(6, codim, samples)
        spectrum.check_increment_sampling(6, 3, 1)  # codim = n/2 and one sample are in range

    def test_sampled_checks_deterministic(self):
        ps = greedy_random_capset(6, SELFTEST_SEED + 6)
        spec = extract_spectrum(ps, transform_point_set(ps), 1)
        a = sampled_increment_checks(spec, 2, 10, 42)
        b = sampled_increment_checks(spec, 2, 10, 42)
        assert a == b


class TestIncrementOracles:
    """The increment family against brute-force coset counts."""

    @pytest.mark.parametrize("n, codim, seed", [
        (6, 2, 1), (7, 3, 2), (8, 2, 3), (9, 3, 4), (10, 1, 5), (11, 1, 6), (11, 2, 7),
    ])
    def test_sampled_checks_match_brute_force(self, n, codim, seed):
        ps = on_affine_coset(n, codim, seed)
        spec = extract_spectrum(ps, transform_point_set(ps), Fraction(3**n, ps.size))
        samples = 6
        reports = sampled_increment_checks(spec, codim, samples, seed)
        assert reports
        cube = digit_rows(np.arange(3**n), n)
        points = digit_rows(ps.indices, n)
        pos = 0
        for s in range(samples):
            # the draw of sampled_increment_checks: stream (seed, 31, s)
            picks = make_rng(seed, 31, s).choice(
                spec.members.indices, size=min(codim, spec.members.size), replace=False
            )
            funcs = digit_rows(picks, n)
            k = oracles.naive_rank(funcs.tolist())
            if not (1 <= k and 2 * k <= n):
                continue
            in_v = (cube @ funcs.T % 3 == 0).all(axis=1)  # the direction V
            threshold = Fraction(ps.size, 3**n) * (1 + Fraction(20 * k, n))
            profiles = [tuple(r) for r in (points @ funcs.T % 3).tolist()]
            want = {
                t for t in set(profiles)
                if Fraction(profiles.count(t), 3 ** (n - k)) >= threshold
            }
            seen = set()
            for inc in reports[pos : pos + len(want)]:
                assert inc.codim == k
                basis = digit_rows(inc.basis, n)
                assert in_v[_row_indices(basis, n)].all()
                assert oracles.naive_rank(basis.tolist()) == n - k
                shift = digit_rows([inc.shift], n)[0]
                seen.add(tuple((funcs @ shift % 3).tolist()))
                on_coset = in_v[_row_indices((points - shift) % 3, n)]
                assert inc.count == int(on_coset.sum())
            # the reported cosets are exactly those at or above the threshold
            assert seen == want
            pos += len(want)
        assert pos == len(reports)

    def test_scan_matches_brute_force_hyperplanes(self):
        # three points, not on a line, lie on (3^8 - 1) / 2 affine hyperplanes
        # of F_3^10, and each is an increment: it needs ceil(3 (1 + 20/10) / 3) = 3
        ps = random_point_set(10, 3, 11)
        pts = tuples_of(ps)
        assert any(x % 3 for x in map(sum, zip(*pts)))
        reports = scan_codim1_increments(ps, transform_point_set(ps))
        assert len(reports) == 3280
        assert len({(r.basis, r.shift) for r in reports}) == 3280
        for inc in reports:
            basis = digit_rows(inc.basis, 10).tolist()
            shift = digit_rows([inc.shift], 10)[0].tolist()
            count = sum(
                oracles.naive_rank(basis + [oracles.vec_sub(a, shift)]) == 9 for a in pts
            )
            assert inc.codim == 1 and len(basis) == 9
            assert inc.count == count == 3

    @given(scan_sets, st.integers(1, 4))
    def test_scan_agrees_with_the_coset_check(self, ps, low):
        # every canonical functional x and label j: the scan reports the
        # coset x . a = j exactly when strong_increment_check counts need
        # or more points on it, with the same count. Below n = 10 no coset
        # reaches the real need, so the scan also runs with need lowered to
        # low, where cosets are reported and others fall one point short.
        n = ps.n
        cosets = []
        for x in range(1, 3**n):
            vec = TritVector.from_index(n, x)
            if x > (-vec).index:
                continue
            # x's leading nonzero digit is 1, so that unit vector has dot 1 with x
            unit = TritVector.unit(n, str(vec).index("1"))
            plane = Subspace.span([vec]).annihilator()
            cosets += [strong_increment_check(ps, plane, unit.scale(j)) for j in range(3)]
        for need in (increment_need(ps, 1), low):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectrum, "increment_need", lambda ps, codim: need)
                found = scan_codim1_increments(ps, transform_point_set(ps))
            assert found == [inc for inc in cosets if inc.count >= need]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hyperplane_bases_match_annihilator(self, n):
        x = np.arange(1, 3**n)
        want = [
            [b.index for b in Subspace.span([TritVector.from_index(n, int(i))]).annihilator().basis]
            for i in x
        ]
        assert spectrum._hyperplane_bases(n, x).tolist() == want

    @pytest.mark.parametrize("n", range(1, 11))
    def test_canonical_ranges_keep_the_smaller_of_x_and_2x(self, n):
        got = [i for r in spectrum._canonical_ranges(n) for i in r]
        neg = [oracles.point_index(oracles.vec_neg(d)) for d in oracles.all_points(n)]
        assert got == [i for i in range(1, 3**n) if i <= neg[i]]

    def test_one_pass_over_the_set_per_sample(self, monkeypatch):
        ps = greedy_random_capset(8, 3)
        spec = extract_spectrum(ps, transform_point_set(ps), 1)
        sizes = []
        real = bulk.dot_labels

        def spy(lo, hi, basis):
            sizes.append(lo.size)
            return real(lo, hi, basis)

        monkeypatch.setattr(bulk, "dot_labels", spy)
        samples = 7
        sampled_increment_checks(spec, 3, samples, 5)
        # per sample one labelling of A, then one of the 3^dim W shifts
        assert ps.size not in (3, 9, 27)
        assert sizes[::2] == [ps.size] * samples
        assert sizes[1::2] == [27] * samples

    def test_empty_set_has_no_increment(self):
        empty = PointSet(6, [])
        spec = extract_spectrum(empty, transform_point_set(empty), 1)
        assert spec.members.size == 3**6 - 1
        assert sampled_increment_checks(spec, 1, 2, 5) == []
        assert scan_codim1_increments(empty, transform_point_set(empty)) == []
        plane = Subspace.span([TritVector.unit(6, i) for i in range(1, 6)])
        inc = strong_increment_check(empty, plane, TritVector.zero(6))
        assert inc.count == increment_threshold(empty, 1) == 0
        assert increment_need(empty, 1) == 1


class TestSubspaceStats:
    def test_against_direct_sums(self):
        ps = greedy_random_capset(5, 77)
        table = transform_point_set(ps)
        spec = extract_spectrum(ps, table, Fraction(1, 2))
        w = Subspace.span([TritVector.from_string("10000"), TritVector.from_string("01000")])
        member_count, weight = subspace_spectrum_stats(spec, w)
        direct_count = 0
        direct_weight = 0
        for i in w.enumerate_indices().tolist():
            if i == 0:
                continue
            if spec.members.contains(TritVector.from_index(5, i)):
                direct_count += 1
            direct_weight += table.norm_at(i)
        assert w.dim == 2
        assert (type(member_count), type(weight)) == (int, int)
        assert member_count == direct_count
        assert weight == direct_weight

    def test_subspace_larger_than_spectrum(self):
        # 3^dim > 4 |spec|: W has more points than four times the spectrum
        ps = greedy_random_capset(5, 77)
        spec = extract_spectrum(ps, transform_point_set(ps), 2)
        gens = [str(TritVector.from_index(5, int(i))) for i in spec.members.indices[:2]]
        gens += ["10000", "00100", "00001"]
        w = Subspace.span([TritVector.from_string(s) for s in gens], 5)
        assert 3**w.dim > max(4 * spec.members.size, 64)
        points = oracles.naive_span([oracles.digits(s) for s in gens], 5)
        members = {str(v) for v in spec.members.vectors()}
        table = transform_point_set(ps)
        member_count, weight = subspace_spectrum_stats(spec, w)
        assert member_count == sum(oracles.to_string(d) in members for d in points)
        assert member_count > 0
        assert weight == sum(
            table.norm_at(oracles.point_index(d)) for d in points if any(d)
        )
