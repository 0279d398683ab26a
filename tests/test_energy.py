import json
import math
import tracemalloc
from fractions import Fraction

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
    cross_quadruples,
    diff_multiplicity,
    e2m,
    e4,
    greedy_random_capset,
    holder_check,
    random_point_set,
    save_point_set,
    transform_point_set,
)
from tricap import bulk, cli, energy, fourier
from tricap.cli import main
from tricap.gf3core import DENSE_MAX_N, plane_add

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
    return PointSet(n, w.enumerate_indices())


class TestMultiplicity:
    @given(small_sets)
    def test_counts_match_reference(self, ps):
        table = diff_multiplicity(ps)
        ref = oracles.naive_diff_counts(tuples_of(ps))
        assert (table.dtype, table.shape) == (np.int64, (3**ps.n,))
        assert table.sum() == ps.size**2
        for d, cnt in ref.items():
            assert table[TritVector.from_string(oracles.to_string(d)).index] == cnt
        assert np.count_nonzero(table) == len(ref)

    @given(small_sets)
    def test_zero_difference_weight(self, ps):
        assert diff_multiplicity(ps)[TritVector.zero(ps.n).index] == ps.size

    @given(small_sets)
    def test_backends_agree(self, ps):
        a = diff_multiplicity(ps, backend="hash")
        b = diff_multiplicity(ps, backend="transform")
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("backend", ["hash", "transform"])
    @pytest.mark.parametrize("n, size, seed", [(6, 64, 1), (7, 90, 2), (8, 128, 3), (8, 41, 4)])
    def test_every_cell_matches_brute_force(self, n, size, seed, backend):
        ps = random_point_set(n, size, seed)
        ref = {
            oracles.point_index(d): m
            for d, m in oracles.naive_diff_counts(tuples_of(ps)).items()
        }
        table = diff_multiplicity(ps, backend=backend)
        assert (table.dtype, table.shape) == (np.int64, (3**n,))
        assert table.tolist() == [ref.get(i, 0) for i in range(3**n)]
        assert np.flatnonzero(table).tolist() == sorted(ref)
        assert table[table != 0].tolist() == [ref[i] for i in sorted(ref)]
        assert np.count_nonzero(table) == len(ref)
        assert table.sum() == size**2
        assert energy._square_total(table) == sum(m * m for m in ref.values())


class TestDenseDifferenceTable:
    """diff_multiplicity of a million random points at n = 14, by transform.

    The norm table's peak bound, 2 |A|^2 3^14, passes 2^63, but its l1 is
    3^14 |A| by Plancherel, so the inverse runs in int64 and holds the
    norm table and its imaginary plane, 16 bytes a cell, plus about 6 MB
    of scratch; on Python ints it would take hundreds of MB.
    """

    N = 14

    def test_exact_int64_table_within_its_memory(self, monkeypatch):
        ps = random_point_set(self.N, 1_000_000, 1)
        assert energy._table_pays(ps)
        dtypes = []
        real = energy.inverse_table
        monkeypatch.setattr(
            energy, "inverse_table",
            lambda *a, **kw: (lambda out: dtypes.append(out[0].dtype) or out)(real(*a, **kw)),
        )
        tracemalloc.start()
        try:
            table = diff_multiplicity(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dtypes == [np.int64]
        assert peak <= 16 * 3**self.N + ps.indices.nbytes + (6 << 20)
        size = ps.size
        assert (table.dtype, int(table.sum()), int(table[0])) == (np.int64, size**2, size)
        idx = np.arange(3**self.N)
        neg = bulk.planes_to_indices(self.N, *bulk.indices_to_planes(self.N, idx)[::-1])
        assert np.array_equal(table[neg], table)
        # m(x) = #(A and A + x) at 20 seeded cells, counted from the set itself
        lo, hi = ps.planes()
        for x in np.random.default_rng(14).integers(0, 3**self.N, 20).tolist():
            v = TritVector.from_index(self.N, x)
            shifted = bulk.planes_to_indices(self.N, *plane_add(lo, hi, v.lo, v.hi))
            assert int(table[x]) == int(ps.contains_indices(shifted).sum()), x


class TestEnergies:
    @given(small_sets)
    def test_e4_matches_reference(self, ps):
        want = oracles.naive_e4(tuples_of(ps))
        assert e4(ps, backend="hash") == want
        assert e4(ps, backend="transform") == want
        assert energy._square_total(diff_multiplicity(ps)) == want

    @given(tiny_sets)
    def test_e2m_matches_reference(self, ps):
        pts = tuples_of(ps)
        assert e2m(ps, 2) == oracles.naive_e2m(pts, 2) == e4(ps)
        assert e2m(ps, 3) == oracles.naive_e2m(pts, 3)

    @given(small_sets)
    def test_e2m_backends_agree(self, ps):
        for m in (2, 3, 4):
            assert e2m(ps, m, backend="transform") == e2m(ps, m, backend="convolution")

    @pytest.mark.parametrize("block", [5, 7, 64])
    def test_norm_blocks_do_not_change_e2m(self, monkeypatch, block):
        # 3^5 cells in ragged blocks: every block's distinct norms must reach
        # the merged count
        ps = random_point_set(5, 30, 9)
        pts = tuples_of(ps)
        want = {m: oracles.naive_e2m(pts, m) for m in (2, 3)}
        want[4] = e2m(ps, 4, backend="convolution")
        monkeypatch.setattr(fourier, "_BLOCK", block)
        for m, value in want.items():
            assert e2m(ps, m, backend="transform") == value

    @pytest.mark.parametrize("block", [5, 7, 64])
    def test_energy_blocks_do_not_change_e4(self, monkeypatch, block):
        ps = random_point_set(5, 30, 9)
        want = oracles.naive_e4(tuples_of(ps))
        monkeypatch.setattr(fourier, "_BLOCK", block)
        assert e4(ps, backend="hash") == e4(ps, backend="transform") == want

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


class TestOneTable:
    """E4, E8 and E_2m by transform come from one table's distinct norms.

    Up to n = energy._TABLE_MAX_N every holder_check and every e4 on the
    transform backend makes one transform and inverts nothing; past it
    holder_check makes the separate e4 and e2m calls.
    """

    @staticmethod
    def spy(monkeypatch, name):
        calls = []
        real = getattr(energy, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(energy, name, counted)
        return calls

    @pytest.mark.parametrize("n", [5, 9, 14])
    def test_one_transform_no_inverse(self, monkeypatch, n):
        ps = greedy_random_capset(n, 7)
        transforms = self.spy(monkeypatch, "transform_point_set")
        inverses = self.spy(monkeypatch, "inverse_table")
        runs = [lambda: e4(ps, backend="transform")]
        runs += [lambda m=m: holder_check(ps, m) for m in (3, 4, 5, 6)]
        for run in runs:
            transforms.clear()
            run()
            assert (len(transforms), len(inverses)) == (1, 0)

    def test_moments_in_the_order_asked(self):
        ps = random_point_set(4, 12, 5)
        pts = tuples_of(ps)
        want = {m: oracles.naive_e2m(pts, m) for m in (2, 3, 4)}
        for ms in ((2, 3, 4), (4, 2, 3), (3, 2)):
            assert energy._e2m_transform(transform_point_set(ps), ms) == [want[m] for m in ms]

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_holder_values_match_separate_calls(self, m):
        for ps in (greedy_random_capset(6, 3), random_point_set(5, 40, 2)):
            rep = holder_check(ps, m)
            assert rep.e4 == e4(ps, backend="hash")
            assert rep.e2m == e2m(ps, m, backend="convolution")
            assert rep.e8 == (None if m == 3 else e2m(ps, 4, backend="convolution"))

    @pytest.mark.parametrize("ms", [(2, 3), (3, 2)])
    def test_every_moment_is_checked_for_divisibility(self, ms):
        # norms 1, 2, 1 over 3 cells: sum v^2 = 6 divides by 3, sum v^3 = 10
        # does not, so a check of either moment alone misses one order
        class Table:
            n = 1

            def norm_blocks(self):
                yield 0, 3, np.array([1, 2, 1], dtype=np.int64)

        assert energy._e2m_transform(Table(), (2,)) == [2]
        with pytest.raises(IdentityViolationError):
            energy._e2m_transform(Table(), ms)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_past_the_guard_makes_the_separate_calls(self, monkeypatch, m):
        ps = random_point_set(energy._TABLE_MAX_N + 1, 12, 4)
        want = (e4(ps), e2m(ps, m), None if m == 3 else e2m(ps, 4))
        moments = self.spy(monkeypatch, "e2m")
        rep = holder_check(ps, m)
        assert (rep.e4, rep.e2m, rep.e8) == want
        # 12 points at n = 15 are sparse, so e4 is E_2m at m = 2 as well
        assert sorted(args[1] for args in moments) == sorted({2, m, 4} if m > 3 else {2, m})


class TestPastTheDenseCeiling:
    """Past DENSE_MAX_N no difference table is built: E4 is E_2m at m = 2."""

    def test_e4_and_holder_take_the_convolution(self):
        ps = random_point_set(DENSE_MAX_N + 1, 50, 8)
        want = e2m(ps, 2, backend="convolution")
        assert e4(ps) == want == oracles.naive_e4(tuples_of(ps))
        rep = holder_check(ps, 4)
        assert (rep.e4, rep.e2m) == (want, e2m(ps, 4, backend="convolution"))
        with pytest.raises(GuardExceededError) as exc:
            e4(ps, backend="hash")
        assert exc.value.args == ("dense difference table dimension", 17, 16)
        big = random_point_set(DENSE_MAX_N + 1, 7100, 5)  # 7100^2 > 5e7 operations
        with pytest.raises(GuardExceededError) as exc:
            e4(big)
        assert exc.value.args == ("convolution operations", 7100**2, energy.CONVOLUTION_OP_GUARD)

    def test_the_ceiling_itself_keeps_the_hash_table(self, monkeypatch):
        # a lowered ceiling moves the switch down, between n = 5 and n = 6
        monkeypatch.setattr(energy, "DENSE_MAX_N", 5)
        moments = TestOneTable.spy(monkeypatch, "e2m")
        tables = TestOneTable.spy(monkeypatch, "diff_multiplicity")
        for n, calls in ((5, (0, 1)), (6, (1, 0))):
            ps = random_point_set(n, 4, n)  # 3^n >= 4 |A|^2: no transform
            moments.clear()
            tables.clear()
            assert e4(ps) == oracles.naive_e4(tuples_of(ps))
            assert (len(moments), len(tables)) == calls


class TestSparseSets:
    """A sparse set (40 |A|^2 < 3^n) gets E4 by convolution, not a dense table."""

    def test_e4_takes_the_convolution_at_n15(self, monkeypatch):
        ps = random_point_set(15, 50, 3)
        tables = TestOneTable.spy(monkeypatch, "diff_multiplicity")
        tracemalloc.start()
        try:
            value = e4(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak < 1 << 20, tables) == (True, [])
        assert value == e4(ps, backend="hash") == oracles.naive_e4(tuples_of(ps))


class TestMemoryPeaks:
    """Traced peaks of the energy paths on the n = 12 greedy cap.

    The difference table is 8 bytes a cell, int64. The transform backend
    of diff_multiplicity gets there through the norm table, which holds an
    imaginary plane beside it while it is inverted (16 bytes a cell) and
    int64 butterfly tiles of about 4.9 MB. E4 by transform and E_2m hold
    the int32 coefficient table, 8 bytes a cell, its tiles of about 2.4 MB
    and one norm block. Pairwise counting takes 1 MB a temporary. A
    full-size copy of the counts, a support array, an array of all the
    norms or an inverse behind E4 pushes a path past these bounds.
    """

    N = 12

    @pytest.fixture(scope="class")
    def cap(self):
        return greedy_random_capset(self.N, 7)

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "run, per_cell, allowance",
        [
            (lambda ps: diff_multiplicity(ps, backend="transform"), 16, 6 << 20),
            (lambda ps: e4(ps, backend="transform"), 8, 3 << 20),
            (lambda ps: e4(ps, backend="hash"), 8, 8 << 20),
            (lambda ps: e2m(ps, 4), 8, 3 << 20),
        ],
        ids=["multiplicity-transform", "e4-transform", "e4-hash", "e2m-4"],
    )
    def test_traced_peak(self, cap, run, per_cell, allowance):
        assert self.traced_peak(lambda: run(cap)) <= per_cell * 3**self.N + allowance

    def test_sums_take_block_scratch_only(self, cap):
        table = diff_multiplicity(cap, backend="hash")
        squares = self.traced_peak(lambda: energy._square_total(table))
        assert squares <= 8 * fourier._BLOCK + (64 << 10)
        assert self.traced_peak(lambda: bulk.exact_sum(table)) <= 64 << 10


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

    @pytest.mark.parametrize("limit, calls", [(9, (1, 0)), (8, (0, 1))])
    def test_auto_takes_the_table_where_the_convolution_is_refused(
        self, monkeypatch, limit, calls
    ):
        # past n = 14 auto convolves unless the worst step, here the one
        # step of E_4 on 3 points, 3 * 3 operations, would pass the guard
        ps = random_point_set(15, 3, 6)
        want = oracles.naive_e4(tuples_of(ps))
        monkeypatch.setattr(energy, "CONVOLUTION_OP_GUARD", limit)
        convolutions = TestOneTable.spy(monkeypatch, "_e2m_convolution")
        transforms = TestOneTable.spy(monkeypatch, "transform_point_set")
        assert e2m(ps, 2) == want
        assert (len(convolutions), len(transforms)) == calls

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


class TestOrderCeiling:
    def test_every_energy_below_the_ceiling_prints(self):
        # E_2m <= |A|^(2m-1) with |A| <= 3^16: 3,901 digits at the ceiling,
        # within CPython's 4,300-digit int-to-str limit; test_guards.py checks
        # that e2m and holder_check refuse one past it
        assert len(str((3**16) ** (2 * energy.E2M_MAX_M - 1))) <= 4300


def _smoothing(tmp_path, capsys, ps: PointSet, *options: str) -> tuple[int, dict | None, str]:
    """Run `energy smoothing` on ps: exit code, the JSON report (None when empty) and stderr."""
    path = str(tmp_path / "a.txt")
    save_point_set(ps, path)
    code = main(["energy", "smoothing", path, *options])
    out, err = capsys.readouterr()
    return code, json.loads(out) if out else None, err


class TestSmoothing:
    """The smoothing exponent is a report-only float of the `energy smoothing` command."""

    def test_subspace_exponent(self, tmp_path, capsys):
        code, rep, _ = _smoothing(tmp_path, capsys, _subspace_set(3, 2), "--scale-n", "3")
        # E8 of a dim-2 subspace is 3^14, so the exponent is 14 - 15 = -1
        assert (code, rep["E8"]) == (0, str(3**14))
        assert math.isclose(rep["sigma_eff"], -1.0)
        assert rep["boundary"] == pytest.approx(1.5)
        assert rep["within_boundary"] is True

    def test_far_from_smooth(self, tmp_path, capsys):
        code, rep, _ = _smoothing(tmp_path, capsys, random_point_set(6, 50, 11), "--scale-n", "3")
        assert code == 0
        assert rep["sigma_eff"] > rep["boundary"]
        assert rep["within_boundary"] is False

    def test_rejects_degenerate_scale(self, tmp_path, capsys):
        code, rep, err = _smoothing(tmp_path, capsys, random_point_set(3, 5, 1), "--scale-n", "1")
        assert (code, rep) == (1, None)
        assert err == "tricap: scale parameter must be at least 2\n"

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf, 1e308])
    def test_rejects_epsilon_without_a_finite_boundary(self, tmp_path, capsys, monkeypatch,
                                                       epsilon):
        # 30 * 1e308 is infinite; the refusal comes before E8 is computed
        def no_e2m(*args, **kwargs):
            raise AssertionError("e2m called")

        monkeypatch.setattr(cli, "e2m", no_e2m)
        code, rep, err = _smoothing(tmp_path, capsys, random_point_set(3, 5, 1), "--scale-n", "3",
                                    f"--epsilon={epsilon!r}")
        assert (code, rep) == (1, None)
        assert "epsilon" in err
