import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tricap import (
    Eisenstein,
    GuardExceededError,
    IdentityViolationError,
    PointSet,
    SpectrumTable,
    Subspace,
    TritVector,
    count_line_solutions,
    cube_sum,
    eval_at,
    extract_spectrum,
    greedy_random_capset,
    inverse_table,
    load_table,
    plancherel_check,
    random_point_set,
    restricted_transform,
    save_table,
    transform_point_set,
    transform_table,
)
from tricap import fourier

import oracles
from conftest import all_vectors, tuples_of

small_sets = st.tuples(st.integers(2, 4), st.integers(0, 99_999)).map(
    lambda t: random_point_set(t[0], 1 + t[1] % (3 ** t[0] - 1), t[1])
)


class TestTransform:
    @given(small_sets)
    def test_matches_reference_dft(self, ps):
        table = transform_point_set(ps)
        ref = oracles.naive_dft(tuples_of(ps), ps.n)
        for x, (p, q) in ref.items():
            v = TritVector.from_string(oracles.to_string(x))
            assert table.coefficient(v) == Eisenstein(p, q)

    @given(small_sets)
    def test_zero_frequency_is_size(self, ps):
        table = transform_point_set(ps)
        assert table.coefficient(TritVector.zero(ps.n)) == Eisenstein(ps.size, 0)

    @given(small_sets)
    def test_plancherel(self, ps):
        lhs, rhs = plancherel_check(ps)
        assert lhs == rhs == 3**ps.n * ps.size

    @given(small_sets)
    def test_conjugate_symmetry_under_negation(self, ps):
        table = transform_point_set(ps)
        for v in all_vectors(ps.n):
            assert table.coefficient(-v) == table.coefficient(v).conj()

    @given(small_sets)
    def test_inverse_recovers_indicator(self, ps):
        table = transform_point_set(ps)
        re, im = inverse_table(table)
        assert not im.any()
        bm = np.zeros(3**ps.n, dtype=np.int64)
        bm[ps.indices] = 1
        assert np.array_equal(re, bm)

    @given(small_sets)
    def test_eval_at_matches_table(self, ps):
        table = transform_point_set(ps)
        for v in all_vectors(ps.n)[:10]:
            assert eval_at(ps, v) == table.coefficient(v)

    def test_arbitrary_integer_function(self):
        # transform_table accepts any integer-valued function on the cube
        f = np.arange(27, dtype=np.int64) - 13
        table = transform_table(f, 3)
        total = int(f.sum())
        assert table.coefficient(TritVector.zero(3)) == Eisenstein(total, 0)
        re, im = inverse_table(table)
        assert not im.any()
        assert np.array_equal(re, f)

    def test_guard_refuses_large_n(self):
        ps = PointSet.from_strings(["0" * 15])
        with pytest.raises(GuardExceededError):
            transform_point_set(ps)


class TestCubeSum:
    @given(small_sets)
    def test_counts_lines_exactly(self, ps):
        cs = cube_sum(ps)
        assert cs == Eisenstein(3**ps.n * count_line_solutions(ps), 0)

    def test_capset_iff_minimal(self):
        cap = greedy_random_capset(5, 51)
        assert cube_sum(cap) == Eisenstein(3**5 * cap.size, 0)
        bad = PointSet.from_strings(["00000", "11111", "22222", "01210"])
        lines = count_line_solutions(bad)
        assert lines > bad.size
        assert cube_sum(bad) == Eisenstein(3**5 * lines, 0)


class TestRestrictedTransform:
    @given(small_sets, st.lists(st.text(alphabet="012", min_size=4, max_size=4), max_size=4))
    @example(random_point_set(4, 20, 8), ["1000"])
    def test_every_cell_matches_eval_at(self, ps, strings):
        w = Subspace.span([TritVector.from_string(s[: ps.n]) for s in strings], ps.n)
        table = restricted_transform(ps, w)
        assert table.n == w.dim
        points = list(w.enumerate_points())
        assert points[0].is_zero()
        for j, x in enumerate(points):
            assert table.coefficient_at(j) == eval_at(ps, x)

    @given(small_sets)
    def test_whole_space_is_the_full_table(self, ps):
        full = restricted_transform(ps, Subspace.full(ps.n))
        table = transform_point_set(ps)
        assert np.array_equal(full.p, table.p)
        assert np.array_equal(full.q, table.q)

    def test_guard_fires_before_the_histogram(self, monkeypatch):
        ps = random_point_set(15, 10, 3)
        calls = []
        monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(a))
        with pytest.raises(GuardExceededError):
            restricted_transform(ps, Subspace.full(15))
        assert calls == []


class TestTableIO:
    def test_roundtrip(self, tmp_path):
        ps = random_point_set(5, 40, 99)
        table = transform_point_set(ps)
        path = str(tmp_path / "t.bin")
        save_table(table, path)
        back = load_table(path)
        assert back.n == table.n
        assert np.array_equal(back.p, table.p)
        assert np.array_equal(back.q, table.q)

    @pytest.mark.parametrize("block", [5, 1 << 16])
    def test_int32_table_dumps_as_its_int64_copy(self, monkeypatch, block):
        # the dump widens block by block; 5 cuts 3^5 cells into ragged blocks
        monkeypatch.setattr(fourier, "_BLOCK", block)
        table = transform_point_set(random_point_set(5, 40, 99))
        assert table.p.dtype == table.q.dtype == np.int32
        wide = SpectrumTable(
            table.n, table.p.astype(np.int64), table.q.astype(np.int64), table.source_size
        )
        narrow_buf, wide_buf = io.BytesIO(), io.BytesIO()
        save_table(table, narrow_buf)
        save_table(wide, wide_buf)
        assert narrow_buf.getvalue() == wide_buf.getvalue()
        back = load_table(io.BytesIO(narrow_buf.getvalue()))
        assert back.p.dtype == back.q.dtype == np.int64
        assert np.array_equal(back.p, table.p) and np.array_equal(back.q, table.q)
        assert back.source_size == table.source_size

    def test_object_table_has_no_dump(self):
        p = np.zeros(27, dtype=object)
        with pytest.raises(ValueError):
            save_table(SpectrumTable(3, p, p), io.BytesIO())

    @pytest.mark.parametrize(
        "fault",
        ["negative-n", "n-40", "n-20", "n-above-hard-max", "trailing-byte",
         "source-size-mismatch", "short-header", "zero-c0"],
    )
    def test_hostile_dump_rejected(self, fault):
        # a valid dump of a 5-point set at n = 2, then one fault per case;
        # zero-c0 keeps the header of a 40-point set at n = 5 but stores
        # c(0) = 0, as a zero-mean table would
        ps = random_point_set(5, 40, 99) if fault == "zero-c0" else random_point_set(2, 5, 1)
        buf = io.BytesIO()
        save_table(transform_point_set(ps), buf)
        magic, body = buf.getvalue()[:8], buf.getvalue()[20:]
        if fault == "zero-c0":
            body = bytes(8) + body[8:]
        head = {
            "negative-n": (-1, 5),
            "n-40": (40, 5),
            "n-20": (20, 5),
            "n-above-hard-max": (fourier.TRANSFORM_HARD_MAX_N + 1, 5),
            "source-size-mismatch": (2, 999),
        }.get(fault, (ps.n, ps.size))
        data = magic + struct.pack("<iq", *head) + body
        if fault == "trailing-byte":
            data += b"\0"
        if fault == "short-header":
            data = data[:15]
        with pytest.raises(ValueError):
            load_table(io.BytesIO(data))


def _largest(ok) -> int:
    """Largest c >= 1 with ok(c), for a predicate true up to some point."""
    lo, hi = 1, 2
    while ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


class TestOverflowBounds:
    """Every integer fast path, just below and just above its bound.

    Inputs are large multiples of a fixed {-1, 0, 1} pattern (peak c) or
    of the delta at 0 (a constant table c). Each case is compared with
    the pure-Python transform oracle and round-trips exactly.
    """

    N = 3
    PATTERN = [(7 * i) % 3 - 1 for i in range(27)]
    DELTA = [1] + [0] * 26

    def exact_table(self, values):
        f = np.array(values, dtype=object if max(map(abs, values)) >= 2**63 else np.int64)
        table = transform_table(f, self.N)
        want = oracles.naive_transform(values, self.N)
        assert [(int(p), int(q)) for p, q in zip(table.p, table.q)] == want
        re, im = inverse_table(table)
        assert [int(v) for v in re] == values
        assert not any(int(v) for v in im)
        return table, want

    @pytest.mark.parametrize("above", [False, True])
    def test_int32_passes(self, above):
        # 2 * peak * 3^n < 2^31 runs the butterflies in int32, and the
        # table keeps the kernel's dtype
        c = _largest(lambda c: 2 * c * 3**self.N < 2**31) + above
        assert fourier._kernel_dtype(c, self.N) is (np.int64 if above else np.int32)
        table, _ = self.exact_table([c * t for t in self.PATTERN])
        assert table.p.dtype == table.q.dtype == (np.int64 if above else np.int32)

    @pytest.mark.parametrize("above", [False, True])
    def test_int64_object_switch(self, above):
        # 2 * peak * 3^n < 2^63, i.e. peak * 3^n < 2^62, keeps int64
        c = _largest(lambda c: c * 3**self.N < 2**62) + above
        assert fourier._kernel_dtype(c, self.N) is (object if above else np.int64)
        table, _ = self.exact_table([c * t for t in self.PATTERN])
        assert table.p.dtype == (object if above else np.int64)

    @pytest.mark.parametrize(
        "dtype, base", [(np.bool_, 0), (np.int8, 0), (np.uint16, 0), (np.uint64, 2**63)]
    )
    def test_integer_dtypes_enter_the_kernel_exactly(self, dtype, base):
        # an unsigned input at or above 2^63 reaches the object tier unwrapped
        values = [base + abs(t) for t in self.PATTERN]
        table = transform_table(np.array(values, dtype=dtype), self.N)
        assert table.p.dtype == fourier._kernel_dtype(base + 1, self.N)
        assert [(int(p), int(q)) for p, q in zip(table.p, table.q)] == oracles.naive_transform(
            values, self.N
        )

    def test_non_integer_input_rejected(self):
        with pytest.raises(ValueError):
            transform_table(np.full(27, 0.5), self.N)

    def test_inputs_beyond_int64(self):
        table, _ = self.exact_table([2**70 * t for t in self.PATTERN])
        assert table.p.dtype == object

    @pytest.mark.parametrize("c", [1, 2**70])
    @pytest.mark.parametrize("plane", ["p", "q"])
    def test_inexact_inverse_raises(self, c, plane):
        # c at frequency 0 inverts to c / 3^n everywhere, not an integer
        dtype = object if c >= 2**63 else np.int64
        planes = {"p": np.zeros(27, dtype=dtype), "q": np.zeros(27, dtype=dtype)}
        planes[plane][0] = c
        with pytest.raises(IdentityViolationError):
            inverse_table(SpectrumTable(self.N, planes["p"], planes["q"]))

    @pytest.mark.parametrize("offset", [0, 1, 2**20])
    def test_cube_sum_vectorised(self, offset):
        # 8 * peak^3 < 2^62 computes the cubes in int64; far above, at
        # 6 peak^3 > 2^63, int64 cubes would wrap
        c = _largest(lambda c: 8 * c**3 < 2**62) + offset
        table, want = self.exact_table([c * t for t in self.DELTA])
        cubes = [oracles.e_mul(oracles.e_mul(z, z), z) for z in want]
        assert fourier._cube_total(table) == Eisenstein(
            sum(z[0] for z in cubes), sum(z[1] for z in cubes)
        )
        # (c, -c) reaches the worst partial term, 6 peak^3, in the omega part
        p = np.full(27, c, dtype=np.int64)
        assert fourier._cube_total(SpectrumTable(self.N, p, -p)) == Eisenstein(
            -3 * 27 * c**3, -6 * 27 * c**3
        )

    @pytest.mark.parametrize("block", [5, 1 << 16])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("above", [False, True])
    def test_norms_int64_object_switch(self, monkeypatch, block, dtype, above):
        # 3 * peak^2 < 2^62 keeps the norms int64 for int32 and int64 planes
        # alike; q = -p reaches the largest norm, 3 peak^2
        monkeypatch.setattr(fourier, "_BLOCK", block)
        c = _largest(lambda c: 3 * c**2 < 2**62) + above
        p = np.array([c * t for t in self.PATTERN], dtype=dtype)
        q = np.roll(-p, 1)
        q[0] = -p[0]
        norms = SpectrumTable(self.N, p, q).norms()
        assert norms.dtype == (object if above else np.int64)
        assert [int(v) for v in norms] == [
            oracles.e_norm((int(a), int(b))) for a, b in zip(p, q)
        ]
        assert max(norms) == 3 * c**2

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_cube_sum_where_int64_would_wrap(self, dtype):
        # the smallest peak whose worst partial term, 6 peak^3 in the omega
        # part of (c, -c), passes 2^63; a looser bound would wrap here
        c = _largest(lambda c: 6 * c**3 < 2**63) + 1
        p = np.full(27, c, dtype=dtype)
        assert fourier._cube_total(SpectrumTable(self.N, p, -p)) == Eisenstein(
            -3 * 27 * c**3, -6 * 27 * c**3
        )

    @pytest.mark.parametrize("block", [5, 1 << 16])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_cube_total_on_fixed_width_planes(self, monkeypatch, block, dtype):
        # a table of a signed function, held in either dtype and cubed in
        # ragged int64 blocks, against the cubes of the oracle's table
        monkeypatch.setattr(fourier, "_BLOCK", block)
        values = [(5 * i * i + 3 * i) % 11 - 5 for i in range(27)]
        want = oracles.naive_transform(values, self.N)
        table = SpectrumTable(
            self.N,
            np.array([z[0] for z in want], dtype=dtype),
            np.array([z[1] for z in want], dtype=dtype),
        )
        cubes = [oracles.e_mul(oracles.e_mul(z, z), z) for z in want]
        expect = Eisenstein(sum(z[0] for z in cubes), sum(z[1] for z in cubes))
        assert fourier._cube_total(table) == expect
        assert fourier._cube_total(transform_table(np.array(values), self.N)) == expect

    @pytest.mark.parametrize("above", [False, True])
    def test_norm_total_int64_sum(self, above):
        # a constant table c has size * max_norm = 27 c^2; below 2^62 it is
        # one int64 sum, above it a chunked one
        c = _largest(lambda c: 27 * c**2 < 2**62) + above
        table, want = self.exact_table([c * t for t in self.DELTA])
        assert table.norms().dtype == np.int64
        assert table.norm_total() == sum(oracles.e_norm(z) for z in want)


class TestMemoryPeaks:
    """Traced peaks of the dense-table paths on the n = 12 greedy cap.

    An int32 table is 8 bytes a cell; the butterflies hold two plane pairs
    and two scratch rows of 3^(n-1), about 21 bytes a cell, and the
    consumers widen to int64 in blocks. A full-size int64 copy of a table
    (16 bytes a cell) pushes a path past these bounds.
    """

    N = 12

    @pytest.fixture(scope="class")
    def cap(self):
        return greedy_random_capset(self.N, 7)

    @pytest.mark.parametrize(
        "run, per_cell",
        [(transform_point_set, 22), (plancherel_check, 22), (cube_sum, 22), (extract_spectrum, 28)],
    )
    def test_traced_peak(self, cap, run, per_cell):
        tracemalloc.start()
        try:
            run(cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_cell * 3**self.N
