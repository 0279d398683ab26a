import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tricap import (
    GuardExceededError,
    PointSet,
    Subspace,
    TritVector,
    cross_quadruples,
    diff_multiplicity,
    e2m,
    e4,
    holder_check,
    random_point_set,
    smoothing_report,
)
from tricap import bulk, energy

import oracles
from conftest import tuples_of

small_sets = st.tuples(st.integers(2, 5), st.integers(0, 99_999)).map(
    lambda t: random_point_set(t[0], 1 + t[1] % min(25, 3 ** t[0] - 1), t[1])
)
tiny_sets = st.tuples(st.integers(2, 4), st.integers(0, 99_999)).map(
    lambda t: random_point_set(t[0], 1 + t[1] % min(10, 3 ** t[0] - 1), t[1])
)


def _subspace_set(n: int, d: int) -> PointSet:
    w = Subspace.span([TritVector.unit(n, i) for i in range(d)])
    return PointSet.from_vectors(w.enumerate_points())


class TestMultiplicity:
    @given(small_sets)
    def test_counts_match_reference(self, ps):
        mm = diff_multiplicity(ps)
        ref = oracles.naive_diff_counts(tuples_of(ps))
        assert mm.total() == ps.size**2
        for d, cnt in ref.items():
            assert mm.of(TritVector.from_string(oracles.to_string(d))) == cnt
        assert mm.support_size == len(ref)

    @given(small_sets)
    def test_zero_difference_weight(self, ps):
        mm = diff_multiplicity(ps)
        assert mm.of(TritVector.zero(ps.n)) == ps.size

    @given(small_sets)
    def test_backends_agree(self, ps):
        a = diff_multiplicity(ps, backend="hash")
        b = diff_multiplicity(ps, backend="transform")
        assert np.array_equal(a.support.indices, b.support.indices)
        assert np.array_equal(a.counts, b.counts)


class TestEnergies:
    @given(small_sets)
    def test_e4_matches_reference(self, ps):
        want = oracles.naive_e4(tuples_of(ps))
        assert e4(ps, backend="hash") == want
        assert e4(ps, backend="transform") == want
        assert diff_multiplicity(ps).energy() == want

    @given(tiny_sets)
    def test_e2m_matches_reference(self, ps):
        pts = tuples_of(ps)
        assert e2m(ps, 2) == oracles.naive_e2m(pts, 2) == e4(ps)
        assert e2m(ps, 3) == oracles.naive_e2m(pts, 3)

    @given(small_sets)
    def test_e2m_backends_agree(self, ps):
        for m in (2, 3, 4):
            assert e2m(ps, m, backend="transform") == e2m(ps, m, backend="convolution")

    @pytest.mark.parametrize("cells", [1, 7])
    def test_convolution_blocks_do_not_change_e2m(self, monkeypatch, cells):
        # with small blocks every step merges many of them into its arrays
        monkeypatch.setattr(bulk, "_PAIR_CELLS", cells)
        ps = random_point_set(5, 30, 9)
        pts = tuples_of(ps)
        for m in (2, 3):
            assert e2m(ps, m, backend="convolution") == oracles.naive_e2m(pts, m)

    @pytest.mark.parametrize("d,m", [
        (1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (4, 5), (4, 6), (4, 10), (4, 11),
    ])
    def test_subspace_energy_closed_form(self, d, m):
        # every m-fold sumset count of a subspace is |A|^(m-1), the convolution
        # bound; at |A| = 81 its squares pass 2^62 between m = 5 and 6, the
        # counts themselves between m = 10 and 11
        ps = _subspace_set(d + 1, d)
        want = 3 ** ((2 * m - 1) * d)
        assert e2m(ps, m) == want
        assert e2m(ps, m, backend="convolution") == want

    def test_e4_lower_bound_attained_by_sidon_like_sets(self):
        # m(x) <= 1 off zero gives the minimum |S|^2 + 2 binom(|S|, 2) ... here
        # just check the floor E4 >= |S|^2 plus the diagonal contribution
        ps = random_point_set(5, 20, 3)
        assert e4(ps) >= ps.size**2


class TestConvolutionGuard:
    def test_guard_counts_the_sumset_times_the_set(self, monkeypatch):
        ps = random_point_set(5, 20, 4)
        pts = tuples_of(ps)
        sumset = {oracles.vec_add(a, b) for a in pts for b in pts}
        monkeypatch.setattr(energy, "CONVOLUTION_OP_GUARD", ps.size**2)
        assert e2m(ps, 2, backend="convolution") == e4(ps)
        with pytest.raises(GuardExceededError) as exc:
            e2m(ps, 3, backend="convolution")
        assert exc.value.args == ("convolution operations", len(sumset) * ps.size, ps.size**2)
        monkeypatch.setattr(energy, "CONVOLUTION_OP_GUARD", ps.size**2 - 1)
        with pytest.raises(GuardExceededError) as exc:
            e2m(ps, 2, backend="convolution")
        assert exc.value.args[1] == ps.size**2

    def test_guard_fires_before_the_step_allocates(self):
        ps = random_point_set(17, 7100, 5)  # 7100^2 > 5e7 operations
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError):
                e2m(ps, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCross:
    @given(tiny_sets, st.integers(0, 99_999))
    def test_matches_reference(self, ps, seed2):
        other = random_point_set(ps.n, 1 + seed2 % 8, seed2)
        count, rate = cross_quadruples(ps, other)
        want = oracles.naive_cross_quadruples(tuples_of(ps), tuples_of(other))
        assert count == want
        assert rate == Fraction(want, (ps.size * other.size) ** 2)

    @given(tiny_sets)
    def test_self_cross_is_e4(self, ps):
        count, _ = cross_quadruples(ps, ps)
        assert count == e4(ps)

    def test_subspace_rate(self):
        ps = _subspace_set(4, 2)
        count, rate = cross_quadruples(ps, ps)
        # sums of two subspace elements cover the subspace evenly
        assert rate.numerator == 1
        assert rate.denominator == ps.size


class TestHolder:
    @given(small_sets)
    def test_interpolation_inequalities(self, ps):
        for m in (3, 4, 5):
            rep = holder_check(ps, m)
            assert rep.part1_holds
            if m == 3:
                assert rep.part2_holds is None
                assert rep.e8 is None
            else:
                assert rep.part2_holds
            assert rep.all_hold

    def test_subspace_equality_case(self):
        ps = _subspace_set(3, 2)
        rep = holder_check(ps, 3)
        # E4^2 == E6 * |S| exactly on a subspace
        assert rep.e4 ** (rep.m - 1) == rep.e2m * rep.size ** (rep.m - 2)

    def test_rejects_small_m(self):
        ps = random_point_set(3, 5, 1)
        with pytest.raises(ValueError):
            holder_check(ps, 2)


class TestSmoothing:
    def test_subspace_exponent(self):
        ps = _subspace_set(3, 2)
        rep = smoothing_report(ps, 3, epsilon=0.05)
        # E8 of a dim-2 subspace is 3^14, so the exponent is 14 - 15 = -1
        assert math.isclose(rep.sigma_eff, -1.0)
        assert rep.boundary == pytest.approx(1.5)
        assert rep.within_boundary

    def test_far_from_smooth(self):
        ps = random_point_set(6, 50, 11)
        rep = smoothing_report(ps, 3, epsilon=0.05)
        assert rep.sigma_eff > rep.boundary
        assert not rep.within_boundary

    def test_rejects_degenerate_scale(self):
        ps = random_point_set(3, 5, 1)
        with pytest.raises(ValueError):
            smoothing_report(ps, 1)
