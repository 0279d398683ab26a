import functools
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    exhaustive_max_capset,
    extract_spectrum,
    greedy_random_capset,
    inverse_table,
    load_table,
    plancherel_check,
    product_capset,
    random_point_set,
    restricted_transform,
    save_table,
    transform_point_set,
    transform_table,
)
from tricap import bulk, fourier

import oracles
from conftest import all_vectors, tuples_of, whole_space


def coefficient(table: SpectrumTable, index: int) -> tuple[int, int]:
    return int(table.p[index]), int(table.q[index])


small_sets = st.tuples(st.integers(2, 4), st.integers(0, 99_999)).map(
    lambda t: random_point_set(t[0], 1 + t[1] % (3 ** t[0] - 1), t[1])
)


class TestTransform:
    @given(small_sets)
    def test_matches_reference_dft(self, ps):
        table = transform_point_set(ps)
        ref = oracles.naive_dft(tuples_of(ps), ps.n)
        for x, pq in ref.items():
            v = TritVector.from_string(oracles.to_string(x))
            assert coefficient(table, v.index) == pq

    @given(small_sets)
    def test_zero_frequency_is_size(self, ps):
        table = transform_point_set(ps)
        assert coefficient(table, 0) == (ps.size, 0)

    @given(small_sets)
    def test_plancherel(self, ps):
        lhs, rhs = plancherel_check(transform_point_set(ps))
        assert lhs == rhs == 3**ps.n * ps.size

    def test_plancherel_refuses_a_table_without_a_source_size(self):
        # transform_table of a function records no |A|, so 3^n |A| is unknown
        table = transform_table(np.array([1, 0, 1]), 1)
        assert table.source_size is None
        with pytest.raises(ValueError, match="records its set's size"):
            plancherel_check(table)

    @given(small_sets)
    def test_conjugate_symmetry_under_negation(self, ps):
        table = transform_point_set(ps)
        for v in all_vectors(ps.n):
            p, q = coefficient(table, v.index)
            assert coefficient(table, (-v).index) == (p - q, -q)  # w -> w^2

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
            assert eval_at(ps, v) == Eisenstein(*coefficient(table, v.index))

    def test_inverse_overwrites_only_when_asked(self):
        ps = random_point_set(4, 20, 3)
        bm = np.zeros(81, dtype=np.int32)
        bm[ps.indices] = 1
        table = transform_point_set(ps)
        kept = table.p.copy(), table.q.copy()
        re, im = inverse_table(table)
        assert np.array_equal(re, bm) and not im.any()
        assert np.array_equal(table.p, kept[0]) and np.array_equal(table.q, kept[1])
        # the inverse of a 20-point table is exact in int32, the table's own dtype
        re, im = inverse_table(table, overwrite=True)
        assert re is table.p and im is table.q
        assert np.array_equal(re, bm) and not im.any()

    def test_arbitrary_integer_function(self):
        # transform_table accepts any integer-valued function on the cube
        f = np.arange(27, dtype=np.int64) - 13
        table = transform_table(f, 3)
        total = int(f.sum())
        assert coefficient(table, 0) == (total, 0)
        re, im = inverse_table(table)
        assert not im.any()
        assert np.array_equal(re, f)

    def test_guard_refuses_large_n(self):
        ps = PointSet.from_strings(["0" * 17])
        with pytest.raises(GuardExceededError):
            transform_point_set(ps)


def _eis_outer(a, b):
    """Planes of the Eisenstein outer product: cell i * len(b) + j is a[i] * b[j].

    a and b are (p, q) plane pairs; entries stay exact in int64.
    """
    (ap, aq), (bp, bq) = a, b
    mul = np.multiply.outer
    return (
        (mul(ap, bp) - mul(aq, bq)).ravel(),
        (mul(ap, bq) + mul(aq, bp) - mul(aq, bq)).ravel(),
    )


def _pattern_like(f, n: int):
    """(p, q) int64 planes of naive_transform(f), f an int64 array on F_3^n."""
    table = oracles.naive_transform([int(v) for v in f], n)
    return np.array([z[0] for z in table]), np.array([z[1] for z in table])


@functools.cache
def _pattern_table(n: int):
    """(values, naive table) of a fixed signed pattern on F_3^n, n <= 5."""
    values = np.array([(5 * i * i + 3 * i) % 11 - 5 for i in range(3**n)], dtype=np.int64)
    return values, _pattern_like(values, n)


def _pinned_function(n: int):
    """(values, expected table) as int64 arrays, every cell from naive_transform.

    Up to n = 5 the oracle transforms a non-product pattern directly; above
    that the input is the product of two such patterns, whose table is the
    outer product of the two oracle tables.
    """
    if n <= 5:
        return _pattern_table(n)
    (f, tf), (g, tg) = _pattern_table(n - 4), _pattern_table(4)
    return np.multiply.outer(f, g).ravel(), _eis_outer(tf, tg)


class TestTiledKernel:
    """The tiled butterfly against the oracle, with tiles far below 3^n.

    Tiles of 27 and 81 cells cut chunks one to three columns wide. A
    100-cell tile cuts the 9 x 27 leading matrix at n = 5 into chunks of
    11, 11 and 5 columns, and a 200-cell tile leaves ragged last chunks
    (widths 7 and 2) at n = 6..8. Scaling the input by c moves it into
    the int64 tier without changing its shape; the "object" case, the
    scale that once ran on Python ints, takes the largest c whose table
    keeps l1 below 2^63, where the inverse's peak bound is past 2^63 and
    l1 alone keeps it in int64. The input is real, so above the tile the
    forward transform takes the conjugate split, up to five levels deep;
    the inverse of its complex table takes the plain passes.
    """

    @pytest.mark.parametrize("tile", [27, 81, 100, 200, 243])
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize(
        "c, dtype",
        [(1, np.int32), (2**31, np.int64), (None, np.int64)],
        ids=["int32", "int64", "object"],
    )
    def test_forward_and_inverse_match_oracle(self, monkeypatch, tile, n, c, dtype):
        monkeypatch.setattr(fourier, "_TILE", tile)
        values, (wp, wq) = _pinned_function(n)
        if c is None:
            l1 = max(int(np.abs(values).sum()), int(np.abs(wp).sum() + np.abs(wq).sum()))
            c = (2**63 - 1) // l1
            assert 2 * c * bulk.peak(wp, wq) * 3**n >= 2**63
        f = values * c
        table = transform_table(f, n)
        assert table.p.dtype == table.q.dtype == dtype
        assert np.array_equal(table.p, wp * c)
        assert np.array_equal(table.q, wq * c)
        re, im = inverse_table(table)
        assert np.array_equal(re, f)
        assert not im.any()


class TestPartialTransform:
    """transform_table(f, n, digits=k): the passes over the trailing k digits only.

    Read as a (3^(n-k), 3^k) matrix, every row of the result is the full
    k-dimensional transform of that row of f. Small tiles make the
    leading half of the kernel start mid-row (lead < n // 2) and skip it
    (lead >= n // 2) in chunks of a few columns; n = 12, digits = 11 has
    3^11 > _TILE cells a row at the default tile.
    """

    @staticmethod
    def assert_rows_transformed(f, n, k):
        """Every row, or 41 evenly spaced ones (first and last included), checked."""
        table = transform_table(f, n, digits=k)
        rows = np.asarray(f).reshape(-1, 3**k)
        tp, tq = table.p.reshape(rows.shape), table.q.reshape(rows.shape)
        for r in np.unique(np.linspace(0, len(rows) - 1, 41).astype(np.int64)).tolist():
            want = transform_table(rows[r], k)
            assert np.array_equal(tp[r], want.p) and np.array_equal(tq[r], want.q), r
        return table

    @pytest.mark.parametrize("n, k", [(12, 11), (12, 0), (9, 9), (13, 5), (14, 1)])
    def test_every_row_is_its_own_transform(self, n, k):
        f = np.random.default_rng(n + k).integers(-3, 4, 3**n)
        table = self.assert_rows_transformed(f, n, k)
        if k == 0:  # no pass at all
            assert np.array_equal(table.p, f) and not table.q.any()

    @pytest.mark.parametrize("tile", [9, 27, 100])
    @pytest.mark.parametrize("n", range(0, 7))
    def test_small_tiles_match_the_oracle(self, monkeypatch, tile, n):
        monkeypatch.setattr(fourier, "_TILE", tile)
        values, _ = _pinned_function(max(n, 1))
        values = values[: 3**n]
        for k in range(n + 1):
            table = self.assert_rows_transformed(values, n, k)
            if k <= 3:  # and every row against the pure-Python oracle
                planes = [a.reshape(-1, 3**k).tolist() for a in (values, table.p, table.q)]
                for row, tp, tq in zip(*planes):
                    assert list(zip(tp, tq)) == oracles.naive_transform(row, k)

    @pytest.mark.parametrize("above", [False, True])
    def test_dtype_follows_the_digits_bound(self, above):
        # k passes stay within 2 * peak * 3^k: int32 just below 2^31, int64 at it,
        # exact either way; the n - k untransformed digits do not count
        n, k = 5, 3
        c = _largest(lambda c: 2 * c * 3**k < 2**31) + above
        assert (2 * c * 3**k < 2**31) is not above
        f = np.array([c * ((7 * i) % 3 - 1) for i in range(3**n)], dtype=np.int64)
        table = transform_table(f, n, digits=k)
        assert table.p.dtype == table.q.dtype == (np.int64 if above else np.int32)
        planes = [a.reshape(-1, 3**k).tolist() for a in (f, table.p, table.q)]
        for row, tp, tq in zip(*planes):
            assert list(zip(tp, tq)) == oracles.naive_transform(row, k)

    @pytest.mark.parametrize("above", [False, True])
    def test_peak_bound_decides_where_l1_cannot(self, above):
        # one pass keeps each row within 2 * peak * 3 < 2^63, although the
        # l1 of all 243 cells, 162 peak, is about 27 times 2^63: int64,
        # exact; one past it the guard names the smaller bound, 6 peak
        n, k = 5, 1
        c = _largest(lambda c: 2 * c * 3**k < 2**63) + above
        f = np.array([c * ((7 * i) % 3 - 1) for i in range(3**n)], dtype=np.int64)
        assert int(np.abs(f // c).sum()) == 162
        if above:
            with pytest.raises(GuardExceededError) as exc:
                transform_table(f, n, digits=k)
            assert exc.value.args == ("transform bound", 6 * c, 2**63 - 1)
            return
        table = transform_table(f, n, digits=k)
        assert table.p.dtype == table.q.dtype == np.int64
        planes = [a.reshape(-1, 3**k).tolist() for a in (f, table.p, table.q)]
        for row, tp, tq in zip(*planes):
            assert list(zip(tp, tq)) == oracles.naive_transform(row, k)

    def test_full_digits_is_the_default(self):
        values, _ = _pinned_function(5)
        full, default = transform_table(values, 5, digits=5), transform_table(values, 5)
        assert np.array_equal(full.p, default.p) and np.array_equal(full.q, default.q)

    @pytest.mark.parametrize("digits", [-1, 4])
    def test_digits_outside_the_dimension_rejected(self, digits):
        with pytest.raises(ValueError, match="digits"):
            transform_table(np.zeros(27, dtype=np.int64), 3, digits=digits)


def _negated(n: int) -> np.ndarray:
    """Index of -x for every index x of F_3^n, digit by digit."""
    idx = np.arange(3**n)
    return sum((-(idx // 3**j) % 3) * 3**j for j in range(n))


class TestConjugateSplit:
    """Real tables above _TILE cells, through the conjugate split.

    Tiles of 27, 81 and 243 cells make the split recurse at n = 3..8, up
    to five levels deep before _butterfly takes over; TestTiledKernel
    runs the forward transform of a real function the same way. Here the
    inverse input is 3^n g for the pinned function g, a real table with
    no symmetry, so its exact inverse at a is c_g(-a): a digit-0 pass
    with forward rows, a reflection that keeps x' or a dropped
    conjugation each change some cell. The "object" scale is the largest
    c that keeps the table's l1 below 2^63, past its peak bound; one more
    is refused. Indicator tables are pinned to oracles.naive_transform
    through products of two random sets.
    """

    @pytest.mark.parametrize("tile", [27, 81, 243])
    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("c", [1, 2**31, None], ids=["int32", "int64", "object"])
    def test_inverse_of_real_table_matches_oracle(self, monkeypatch, tile, n, c):
        monkeypatch.setattr(fourier, "_TILE", tile)
        values, (wp, wq) = _pinned_function(n)
        if c is None:
            c = (2**63 - 1) // (3**n * int(np.abs(values).sum()))
            assert 2 * c * 3**n * bulk.peak(values) * 3**n >= 2**63
            past = values * 3**n * (c + 1)
            with pytest.raises(GuardExceededError):
                inverse_table(SpectrumTable(n, past, np.zeros_like(past)))
        planes = values * 3**n * c
        re, im = inverse_table(SpectrumTable(n, planes, np.zeros_like(planes)))
        assert re.dtype == im.dtype == fourier._kernel_dtype(n, planes)
        neg = _negated(n)
        assert np.array_equal(re, wp[neg] * c)
        assert np.array_equal(im, wq[neg] * c)

    @pytest.mark.parametrize("tile", [27, 81, 243])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_indicator_matches_oracle(self, monkeypatch, tile, n):
        monkeypatch.setattr(fourier, "_TILE", tile)
        head, tail = min(n, 5), n - min(n, 5)
        fa = np.zeros(3**head, dtype=np.int64)
        fa[random_point_set(head, 3**head // 3, n).indices] = 1
        want = _pattern_like(fa, head)
        if tail:
            fb = np.zeros(3**tail, dtype=np.int64)
            fb[random_point_set(tail, 3**tail // 2, n + 1).indices] = 1
            fa, want = np.multiply.outer(fa, fb).ravel(), _eis_outer(want, _pattern_like(fb, tail))
        table = transform_point_set(PointSet(n, np.flatnonzero(fa)))
        assert table.p.dtype == np.int32
        assert np.array_equal(table.p, want[0]) and np.array_equal(table.q, want[1])
        re, im = inverse_table(table)
        assert np.array_equal(re, fa) and not im.any()

    def test_complex_tables_keep_the_complex_path(self, monkeypatch):
        # a nonzero q plane must not reach the split, which assumes q = 0
        monkeypatch.setattr(fourier, "_TILE", 27)
        calls = []
        real = fourier._butterfly_real
        monkeypatch.setattr(
            fourier, "_butterfly_real", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        values, _ = _pinned_function(5)
        table = transform_table(values, 5)
        assert calls and table.q.any()
        calls.clear()
        re, im = inverse_table(table)
        assert not calls
        assert np.array_equal(re, values) and not im.any()
        inverse_table(SpectrumTable(5, table.p * 3**5, np.zeros_like(table.p)))
        assert calls


class TestCubeSum:
    @given(small_sets)
    def test_counts_lines_exactly(self, ps):
        cs = cube_sum(transform_point_set(ps))
        assert cs == Eisenstein(3**ps.n * count_line_solutions(ps), 0)

    def test_capset_iff_minimal(self):
        cap = greedy_random_capset(5, 51)
        assert cube_sum(transform_point_set(cap)) == Eisenstein(3**5 * cap.size, 0)
        bad = PointSet.from_strings(["00000", "11111", "22222", "01210"])
        lines = count_line_solutions(bad)
        assert lines > bad.size
        assert cube_sum(transform_point_set(bad)) == Eisenstein(3**5 * lines, 0)


class TestRestrictedTransform:
    @given(small_sets, st.lists(st.text(alphabet="012", min_size=4, max_size=4), max_size=4))
    @example(random_point_set(4, 20, 8), ["1000"])
    def test_every_cell_matches_eval_at(self, ps, strings):
        w = Subspace.span([TritVector.from_string(s[: ps.n]) for s in strings], ps.n)
        table = restricted_transform(ps, w)
        assert table.n == w.dim
        points = w.enumerate_indices()
        assert points[0] == 0
        for j, x in enumerate(points.tolist()):
            assert Eisenstein(*coefficient(table, j)) == eval_at(ps, TritVector.from_index(ps.n, x))

    @given(small_sets)
    def test_whole_space_is_the_full_table(self, ps):
        full = restricted_transform(ps, whole_space(ps.n))
        table = transform_point_set(ps)
        assert np.array_equal(full.p, table.p)
        assert np.array_equal(full.q, table.q)

    @pytest.mark.parametrize("size, dtype", [(18_183, np.int32), (18_184, np.int64)])
    def test_dtype_follows_the_histogram_bound(self, size, dtype):
        # the first |A| indices at n = 19 lead with ten zero digits, so one
        # dot profile against e_0..e_9 holds all of A: the histogram peaks
        # at |A|, and 2 |A| 3^10 crosses 2^31 between these two sizes
        n, dim = 19, 10
        w = Subspace.span([TritVector.unit(n, i) for i in range(dim)])
        ps = PointSet(n, np.arange(size))
        assert (2 * size * 3**dim < 2**31) == (dtype is np.int32)
        table = restricted_transform(ps, w)
        assert table.p.dtype == table.q.dtype == dtype
        points = w.enumerate_indices()
        for j in (0, 1, 2, 3**dim // 2, 3**dim - 1):
            x = TritVector.from_index(n, int(points[j]))
            assert Eisenstein(*coefficient(table, j)) == eval_at(ps, x)

    def test_guard_fires_before_the_histogram(self, monkeypatch):
        ps = random_point_set(17, 10, 3)
        calls = []
        monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(a))
        with pytest.raises(GuardExceededError):
            restricted_transform(ps, whole_space(17))
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

    @pytest.mark.parametrize("dtype", [object, np.float64, np.uint32])
    def test_table_planes_must_be_signed_integers(self, dtype):
        # so no table holds Python ints, and every table has a binary form
        good = np.zeros(27, dtype=np.int64)
        for p, q in ((np.zeros(27, dtype=dtype), good), (good, np.zeros(27, dtype=dtype))):
            with pytest.raises(ValueError, match="signed integers"):
                SpectrumTable(3, p, q)

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
            "n-above-hard-max": (fourier.DENSE_MAX_N + 1, 5),
            "source-size-mismatch": (2, 999),
        }.get(fault, (ps.n, ps.size))
        data = magic + struct.pack("<iq", *head) + body
        if fault == "trailing-byte":
            data += b"\0"
        if fault == "short-header":
            data = data[:15]
        with pytest.raises(ValueError):
            load_table(io.BytesIO(data))


    @pytest.mark.parametrize("seekable", [True, False])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_body_length_checked(self, seekable, extra):
        # truncated and oversized bodies; a seekable file is refused before
        # its planes are allocated, a stream after reading them
        buf = io.BytesIO()
        save_table(transform_point_set(random_point_set(5, 40, 99)), buf)
        data = buf.getvalue()[:extra] if extra < 0 else buf.getvalue() + b"\0" * extra
        stream = io.BytesIO(data)
        if not seekable:
            stream.seekable = lambda: False
        with pytest.raises(ValueError):
            load_table(stream)

    class _Stream(io.RawIOBase):
        """A pipe-like stream: readable, not seekable, a few bytes a read."""

        def __init__(self, data: bytes, step: int = 100_003):
            self._data, self._at, self._step = data, 0, step

        def readable(self):
            return True

        def readinto(self, buf):
            view = memoryview(buf).cast("B")
            chunk = self._data[self._at : self._at + min(view.nbytes, self._step)]
            view[: len(chunk)] = chunk
            self._at += len(chunk)
            return len(chunk)

    def test_stream_short_body_at_n16_allocates_nothing(self):
        # 36 bytes in all: the header claims 3^16 cells, the body holds one
        stream = self._Stream(fourier._MAGIC + struct.pack("<iq", 16, -1) + bytes(16))
        assert not stream.seekable()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                load_table(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("block", [None, 5])
    def test_stream_round_trips(self, monkeypatch, block):
        if block:
            monkeypatch.setattr(fourier, "_BLOCK", block)
        table = transform_point_set(random_point_set(8, 300, 4))
        buf = io.BytesIO()
        save_table(table, buf)
        back = load_table(self._Stream(buf.getvalue(), step=4097))
        assert back.n == table.n and back.source_size == table.source_size
        assert np.array_equal(back.p, table.p) and np.array_equal(back.q, table.q)
        assert back.p.dtype == back.q.dtype == np.int64

    def test_short_body_at_n16_allocates_nothing(self):
        data = fourier._MAGIC + struct.pack("<iq", 16, -1) + bytes(16)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                load_table(io.BytesIO(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@st.composite
def table_dump_bytes(draw):
    """Table dumps truncated, extended, spliced, overwritten or re-headed, or garbage."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=80))
    n = draw(st.integers(0, 3))
    f = np.array(draw(st.lists(st.integers(-9, 9), min_size=3**n, max_size=3**n)))
    buf = io.BytesIO()
    save_table(transform_table(f, n), buf)
    data = buf.getvalue()
    how = draw(st.sampled_from(["truncate", "append", "splice", "overwrite", "header"]))
    at = draw(st.integers(0, len(data)))
    if how == "truncate":
        return data[:at]
    if how == "append":
        return data + draw(st.binary(min_size=1, max_size=24))
    if how == "splice":
        return data[:at] + draw(st.binary(max_size=8)) + data[at + draw(st.integers(0, 8)) :]
    if how == "overwrite":
        patch = draw(st.binary(max_size=8))
        return data[:at] + patch + data[at + len(patch) :]
    dims = st.one_of(st.just(n), st.integers(-2, 40))
    head = draw(st.tuples(dims, st.one_of(st.integers(-2, 30), st.just(int(f.sum())))))
    return data[:8] + struct.pack("<iq", *head) + data[20:]


class TestTableDumpFuzz:
    @settings(max_examples=300)
    @given(data=table_dump_bytes(), seekable=st.booleans())
    def test_typed_errors_or_a_round_trip(self, data, seekable):
        # only ValueError escapes, from a file or a pipe-like stream, and an
        # accepted dump saves back to the same bytes
        stream = io.BytesIO(data) if seekable else TestTableIO._Stream(data, step=7)
        try:
            table = load_table(stream)
        except ValueError:
            return
        buf = io.BytesIO()
        save_table(table, buf)
        assert buf.getvalue() == data


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
        table = transform_table(np.array(values, dtype=np.int64), self.N)
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
        assert fourier._kernel_dtype(self.N, np.array([c])) is (np.int64 if above else np.int32)
        table, _ = self.exact_table([c * t for t in self.PATTERN])
        assert table.p.dtype == table.q.dtype == (np.int64 if above else np.int32)

    @pytest.mark.parametrize("above", [False, True])
    def test_int32_passes_through_the_conjugate_split(self, monkeypatch, above):
        # a 9-cell tile sends every real 27-cell table through one split
        # level, where g0's components reach 3 * peak: the pattern runs it
        # forward, and the constant table c, the transform of c at 0, runs
        # it in the inverse; both stay exact in the same tiers
        monkeypatch.setattr(fourier, "_TILE", 9)
        c = _largest(lambda c: 2 * c * 3**self.N < 2**31) + above
        pattern, _ = self.exact_table([c * t for t in self.PATTERN])
        constant, _ = self.exact_table([c * t for t in self.DELTA])
        assert not constant.q.any()  # real, so exact_table's inverse takes the split
        for table in (pattern, constant):
            assert table.p.dtype == table.q.dtype == (np.int64 if above else np.int32)

    @pytest.mark.parametrize("above", [False, True])
    def test_int64_object_switch(self, above):
        # 2 * peak * 3^n < 2^63, i.e. peak * 3^n < 2^62, keeps int64 without
        # reading l1; one past it, where Python ints once took over, l1 =
        # 18 peak is far below 2^63 and keeps int64
        c = _largest(lambda c: c * 3**self.N < 2**62) + above
        calls = []
        real = fourier._int64_blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fourier, "_int64_blocks", lambda *a: calls.append(a) or real(*a))
            assert fourier._kernel_dtype(self.N, np.array(self.PATTERN) * c) is np.int64
        assert len(calls) == above
        table, _ = self.exact_table([c * t for t in self.PATTERN])
        assert table.p.dtype == np.int64

    @pytest.mark.parametrize("above", [False, True])
    def test_forward_l1_bound(self, above):
        # the pattern's peak bound 54 c passes 2^63, so l1 = 18 c decides
        c = _largest(lambda c: 18 * c < 2**63) + above
        f = np.array(self.PATTERN, dtype=np.int64) * c
        assert 2 * c * 3**self.N >= 2**63 and sum(map(abs, self.PATTERN)) == 18
        if above:
            with pytest.raises(GuardExceededError) as exc:
                transform_table(f, self.N)
            assert exc.value.args == ("transform bound", 18 * c, 2**63 - 1)
            return
        table = transform_table(f, self.N)
        assert table.p.dtype == table.q.dtype == np.int64
        want = oracles.naive_transform([c * t for t in self.PATTERN], self.N)
        assert list(zip(table.p.tolist(), table.q.tolist())) == want

    @pytest.mark.parametrize("above", [False, True])
    def test_inverse_l1_bound_counts_both_planes(self, above):
        # the pinned function's complex table, scaled: l1 sums |p| and |q|,
        # and one past the boundary the |p| part alone is still below 2^63
        values, (wp, wq) = _pinned_function(self.N)
        l1p, l1q = int(np.abs(wp).sum()), int(np.abs(wq).sum())
        c = _largest(lambda c: (l1p + l1q) * c < 2**63) + above
        assert l1p * (c + 1) < 2**63
        table = SpectrumTable(self.N, wp * c, wq * c)
        if above:
            with pytest.raises(GuardExceededError) as exc:
                inverse_table(table)
            assert exc.value.args == ("transform bound", (l1p + l1q) * c, 2**63 - 1)
            return
        re, im = inverse_table(table)
        assert re.dtype == np.int64
        assert re.tolist() == [c * int(v) for v in values] and not im.any()

    def test_a_spike_at_2_61(self):
        # peak bound 54 * 2^61 but l1 = 2^61: exact in int64; its table is
        # the constant 2^61, whose l1 of 27 * 2^61 the inverse refuses
        table = transform_table(np.array([2**61] + [0] * 26), self.N)
        assert table.p.dtype == np.int64
        assert table.p.tolist() == [2**61] * 27 and not table.q.any()
        with pytest.raises(GuardExceededError) as exc:
            inverse_table(table)
        assert exc.value.args == ("transform bound", 27 * 2**61, 2**63 - 1)

    def test_inverse_refuses_before_copying(self):
        # a refused n = 12 table reads its l1 in two blocks of scratch;
        # copying its planes would take 8.5 MB
        planes = np.full(3**12, 2**50, dtype=np.int64)
        table = SpectrumTable(12, planes, planes)
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError):
                inverse_table(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * fourier._BLOCK + (64 << 10)

    @pytest.mark.parametrize(
        "dtype, base",
        [(np.bool_, 0), (np.int8, 0), (np.uint16, 0), (np.uint64, (2**63 - 19) // 27),
         (np.uint64, 2**63)],
    )
    def test_integer_dtypes_enter_the_kernel_exactly(self, dtype, base):
        # an unsigned input is read exactly, peak and l1 alike: with l1 =
        # 27 base + 18 just below 2^63 it runs in int64, and at 2^63 its
        # peak alone is refused, where a cast to int64 would wrap
        values = [base + abs(t) for t in self.PATTERN]
        if base >= 2**63:
            with pytest.raises(GuardExceededError) as exc:
                transform_table(np.array(values, dtype=dtype), self.N)
            assert exc.value.args == ("transform bound", base + 1, 2**63 - 1)
            return
        table = transform_table(np.array(values, dtype=dtype), self.N)
        assert table.p.dtype == (np.int64 if base else np.int32)
        assert [(int(p), int(q)) for p, q in zip(table.p, table.q)] == oracles.naive_transform(
            values, self.N
        )

    def test_inputs_beyond_int64(self):
        # an l1 of 2^63 is refused; a cell past int64, which would wrap in
        # the cast, is refused by its peak alone, l1 never summed; Python
        # ints in an object array are not read at all
        for top in (2**63 - 18, 2**63, 2**64 - 1):
            f = np.zeros(27, dtype=np.uint64)
            f[[0, 5]] = top, 18
            with pytest.raises(GuardExceededError) as exc:
                transform_table(f, self.N)
            assert exc.value.args == ("transform bound", max(top, 2**63), 2**63 - 1)
        with pytest.raises(ValueError, match="integers"):
            transform_table(np.array([2**70 * t for t in self.PATTERN], dtype=object), self.N)

    def test_non_integer_input_rejected(self):
        with pytest.raises(ValueError):
            transform_table(np.full(27, 0.5), self.N)

    @pytest.mark.parametrize("c", [1, 2**62])
    @pytest.mark.parametrize("plane", ["p", "q"])
    def test_inexact_inverse_raises(self, c, plane):
        # c at frequency 0 inverts to c / 3^n everywhere, not an integer;
        # 2^62 runs in int64 by its l1
        planes = {"p": np.zeros(27, dtype=np.int64), "q": np.zeros(27, dtype=np.int64)}
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
        assert cube_sum(table) == Eisenstein(
            sum(z[0] for z in cubes), sum(z[1] for z in cubes)
        )
        # (c, -c) reaches the worst partial term, 6 peak^3, in the omega part
        p = np.full(27, c, dtype=np.int64)
        assert cube_sum(SpectrumTable(self.N, p, -p)) == Eisenstein(
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
        assert cube_sum(SpectrumTable(self.N, p, -p)) == Eisenstein(
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
        assert cube_sum(table) == expect
        assert cube_sum(transform_table(np.array(values), self.N)) == expect

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_cube_total_picks_int64_or_python_ints_per_block(self, monkeypatch, dtype):
        # the one block past 8 * peak^3 < 2^62 runs on Python ints, the
        # other five stay int64, and the total stays exact
        monkeypatch.setattr(fourier, "_BLOCK", 5)
        c = _largest(lambda c: 8 * c**3 < 2**62) + 1
        p = np.array(self.PATTERN, dtype=dtype)
        q = np.array(self.PATTERN[::-1], dtype=dtype)
        p[12], q[12] = c, -c  # (c, -c) reaches the worst partial term, 6 peak^3
        dtypes = []

        def spy(values, bound=None, _real=bulk.exact_sum):
            dtypes.append(values.dtype)
            return _real(values, bound)

        monkeypatch.setattr(bulk, "exact_sum", spy)
        cubes = [oracles.e_mul(oracles.e_mul(z, z), z) for z in zip(p.tolist(), q.tolist())]
        assert cube_sum(SpectrumTable(self.N, p, q)) == Eisenstein(
            sum(z[0] for z in cubes), sum(z[1] for z in cubes)
        )
        assert dtypes == [np.int64] * 4 + [object] * 2 + [np.int64] * 6

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

    An int32 table is 8 bytes a cell. The butterflies run in place
    beside a fixed scratch of two tile pairs and two scratch rows, about
    2.4 MB. A statistic reads a table built before tracing starts, in
    fixed blocks: Plancherel and the cube sum add only that scratch, and
    extraction adds a byte-a-cell mask and 8 bytes a member. A
    full-size copy of a plane (4 bytes a cell or more) or a spare plane
    pair pushes a path past these bounds.
    """

    N = 12
    ALLOWANCE = 3 << 20  # fixed scratch, whatever n is

    @pytest.fixture(scope="class")
    def cap(self):
        return greedy_random_capset(self.N, 7)

    @pytest.mark.parametrize(
        "run, per_cell",
        [(transform_point_set, 8), (plancherel_check, 8), (cube_sum, 8), (extract_spectrum, 9)],
    )
    def test_traced_peak(self, cap, run, per_cell):
        # per_cell counts the 8-byte-a-cell table; a statistic is traced
        # on a table built first, so only what it adds past that is traced
        args, table_bytes = (cap,), 0
        if run is not transform_point_set:
            table = transform_point_set(cap)
            table_bytes = table.p.nbytes + table.q.nbytes
            args = (cap, table) if run is extract_spectrum else (table,)
        tracemalloc.start()
        try:
            result = run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        members = result.members.size if run is extract_spectrum else 0
        assert table_bytes in (0, 8 * 3**self.N)
        assert table_bytes + peak <= per_cell * 3**self.N + 8 * members + self.ALLOWANCE

    def test_cube_sum_of_a_dense_set_stays_in_blocks(self, monkeypatch):
        # c(0) = |A| >= 832,256 breaks 8 * peak^3 < 2^62 in its own block
        # only; converting the whole table to Python ints traces 340 MB
        table = transform_point_set(random_point_set(13, 850_000, 1))
        whole = cube_sum(table)
        assert whole.q == 0 and whole.p % 3**13 == 0
        monkeypatch.setattr(fourier, "_BLOCK", 1 << 12)
        tracemalloc.start()
        try:
            assert cube_sum(table) == whole
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20

    def test_load_reads_each_plane_in_place(self, cap, tmp_path):
        # the two int64 planes are 16 bytes a cell; nothing else is full size
        path = str(tmp_path / "t.bin")
        save_table(transform_point_set(cap), path)
        tracemalloc.start()
        try:
            table = load_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.source_size == cap.size
        assert peak <= 16 * 3**self.N + (64 << 10)


class TestProductOracle:
    """Every cell of a product's table, n = 15 and 16, against its factors.

    c_{AxB}(x, y) = c_A(x) c_B(y), so the table of a product of exact
    maximal caps is the Eisenstein outer product of the factor tables,
    and each factor table is pinned to oracles.naive_transform. The
    expected values are built one cell of the leading factor at a time,
    so the check holds no second 3^n table.
    """

    @staticmethod
    def factor_table(n: int):
        cap = exhaustive_max_capset(n)[1]
        values = [0] * 3**n
        for i in cap.indices.tolist():
            values[i] = 1
        want = oracles.naive_transform(values, n)
        table = transform_point_set(cap)
        assert [(int(p), int(q)) for p, q in zip(table.p, table.q)] == want
        return cap, (table.p.astype(np.int64), table.q.astype(np.int64))

    @pytest.mark.parametrize(
        "dims",
        [(4, 4, 2, 2, 3), pytest.param((4, 4, 4, 4), marks=pytest.mark.large)],
        ids=["20^2.4^2.9-n15", "20^4-n16"],
    )
    def test_every_cell_is_the_outer_product(self, dims):
        factors = {n: self.factor_table(n) for n in set(dims)}
        ps = functools.reduce(product_capset, [factors[n][0] for n in dims])
        table = transform_point_set(ps)
        assert table.p.dtype == np.int32
        rp, rq = functools.reduce(_eis_outer, [factors[n][1] for n in dims[1:]])
        head_p, head_q = factors[dims[0]][1]
        span = rp.size
        for i, (a, b) in enumerate(zip(head_p.tolist(), head_q.tolist())):
            cells = slice(i * span, (i + 1) * span)
            assert np.array_equal(table.p[cells], a * rp - b * rq), i
            assert np.array_equal(table.q[cells], a * rq + b * rp - b * rq), i
