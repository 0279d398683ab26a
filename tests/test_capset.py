import io
import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricap import (
    PointSet,
    SELFTEST_SEED,
    SetFileError,
    TritVector,
    build_levels,
    count_line_solutions,
    cross_quadruples,
    diff_multiplicity,
    doubling_ratio,
    exhaustive_max_capset,
    greedy_random_capset,
    heaviest_band,
    is_capset,
    komity,
    komity_reference,
    load_point_set,
    make_rng,
    product_capset,
    random_point_set,
    save_point_set,
)
from tricap import bulk, capset
from tricap.gf3core import MAX_DIM

import oracles
from conftest import tuples_of

random_sets = st.integers(0, 10_000).map(
    lambda seed: random_point_set(4, 1 + seed % 30, seed)
)


class TestPointSet:
    def test_sorted_dedup_construction(self):
        a = PointSet.from_strings(["012", "000", "012"])
        assert a.size == 2
        assert [str(v) for v in a.vectors()] == ["000", "012"]

    @given(random_sets)
    def test_translate_preserves_size(self, ps):
        v = TritVector.from_string("1020")
        assert ps.translate(v).size == ps.size
        assert ps.translate(v).translate(-v) == ps

    @given(random_sets)
    def test_negate_involution(self, ps):
        assert ps.negate().negate() == ps
        got = {str(v) for v in ps.negate().vectors()}
        want = {oracles.to_string(oracles.vec_neg(d)) for d in tuples_of(ps)}
        assert got == want

    @given(random_sets)
    def test_bitmap_agrees_with_membership(self, ps):
        bm = ps.bitmap()
        assert int(bm.sum()) == ps.size
        for v in ps.vectors():
            assert bm[v.index]

    @given(
        st.lists(st.integers(0, 3**4 - 1), max_size=60),
        st.sampled_from(["list", "1d", "2d"]),
    )
    def test_canonical_form_matches_np_unique(self, raw, form):
        arr = np.array(raw, dtype=np.int64)
        if form == "2d" and arr.size % 2 == 0:
            arr = arr.reshape(2, -1)
        before = arr.copy()
        ps = PointSet(4, raw if form == "list" else arr)
        assert np.array_equal(ps.indices, np.unique(before))
        assert ps.indices.dtype == np.int64
        assert ps.indices.ndim == 1
        assert not ps.indices.flags.writeable
        assert np.array_equal(arr, before)  # the caller's array is untouched

    def test_canonical_form_of_empty_input(self):
        ps = PointSet(3, np.array([], dtype=np.int64))
        assert ps.size == 0
        assert ps.indices.dtype == np.int64
        assert not ps.indices.flags.writeable

    @pytest.mark.parametrize("bad", [[-1], [3**3], [5, 3**3, 1], [[0, 1], [2, -4]]])
    def test_out_of_range_index_rejected(self, bad):
        with pytest.raises(ValueError):
            PointSet(3, bad)

    def test_contains(self):
        ps = PointSet.from_strings(["012", "210"])
        assert ps.contains(TritVector.from_string("012"))
        assert not ps.contains(TritVector.from_string("000"))

    def test_density_is_the_exact_fraction(self):
        assert PointSet(4, range(5)).density() == Fraction(5, 81)
        assert type(PointSet(4, range(5)).density()) is Fraction
        assert PointSet.empty(2).density() == 0


class TestWeightTable:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_place_values(self, n):
        want = [
            sum(3 ** (n - 1 - i) for i in range(n) if mask >> i & 1) for mask in range(1 << n)
        ]
        assert bulk._weights(n).tolist() == want

    def test_build_peak_is_near_the_table(self, monkeypatch):
        monkeypatch.setattr(bulk, "_WEIGHT_TABLES", {})
        tracemalloc.start()
        try:
            table = bulk._weights(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * table.nbytes


class TestIndexPlanes:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_index_matches_from_index(self, n):
        lo, hi = bulk.indices_to_planes(n, np.arange(3**n))
        want = [TritVector.from_index(n, i) for i in range(3**n)]
        assert lo.tolist() == [v.lo for v in want]
        assert hi.tolist() == [v.hi for v in want]

    def test_random_indices_at_max_dim(self):
        n = MAX_DIM
        idx = make_rng(20).integers(0, 3**n, size=(40, 5))
        idx[0, :2] = [0, 3**n - 1]
        lo, hi = bulk.indices_to_planes(n, idx)
        assert lo.shape == hi.shape == idx.shape
        for i, l, h in zip(idx.ravel().tolist(), lo.ravel().tolist(), hi.ravel().tolist()):
            v = TritVector.from_index(n, i)
            assert (l, h) == (v.lo, v.hi)
        assert np.array_equal(bulk.planes_to_indices(n, lo, hi), idx)


class TestLineCounting:
    @given(random_sets)
    def test_line_solutions_match_reference(self, ps):
        assert count_line_solutions(ps) == oracles.naive_line_solutions(tuples_of(ps))

    @given(random_sets)
    def test_capset_predicate_matches_reference(self, ps):
        assert is_capset(ps) == oracles.naive_is_capset(tuples_of(ps))

    @pytest.mark.parametrize("seed", range(6))
    def test_many_pair_blocks_match_reference(self, seed, monkeypatch):
        # tiny pair budgets split every pairwise walk into many blocks, with
        # one or several rows each and a short last block
        ps = random_point_set(4, 20 + 5 * seed, seed)
        other = random_point_set(4, 3 + seed, seed + 100)  # |B| != |C|
        pts, others = tuples_of(ps), tuples_of(other)
        diffs = {oracles.point_index(d): c for d, c in oracles.naive_diff_counts(pts).items()}
        cap = greedy_random_capset(4, seed)
        band = heaviest_band(build_levels(ps))
        for cells in (7, 64):
            monkeypatch.setattr(bulk, "_PAIR_CELLS", cells)
            assert count_line_solutions(ps) == oracles.naive_line_solutions(pts)
            assert is_capset(ps) == oracles.naive_is_capset(pts)
            assert count_line_solutions(cap) == cap.size
            assert is_capset(cap)
            table = diff_multiplicity(ps, backend="hash")
            support = np.flatnonzero(table)
            assert dict(zip(support.tolist(), table[support].tolist())) == diffs
            assert cross_quadruples(ps, other)[0] == oracles.naive_cross_quadruples(pts, others)
            assert komity(band) == komity_reference(band)
            assert doubling_ratio(ps) == Fraction(len(diffs), ps.size)

    @pytest.mark.parametrize("cells", [1, 7, 64, 1 << 20])
    @pytest.mark.parametrize("upper", [False, True])
    def test_pair_blocks_cover_each_pair_once(self, cells, upper, monkeypatch):
        monkeypatch.setattr(bulk, "_PAIR_CELLS", cells)
        a = random_point_set(4, 23, 1)
        b = a if upper else random_point_set(4, 10, 2)
        av, bv = a.vectors(), b.vectors()
        blo, bhi = b.planes()
        seen = np.zeros((a.size, b.size), dtype=np.int64)
        block_start = np.zeros(a.size, dtype=np.int64)
        row = 0
        # b passed with swapped planes, so the blocks hold a - b
        for start, stop, idx in bulk.pair_sums(4, a.planes(), (bhi, blo), upper=upper):
            assert start == row < stop
            first = start if upper else 0
            assert idx.shape == (stop - start, b.size - first)
            for i in range(start, stop):
                for j in range(first, b.size):
                    assert idx[i - start, j - first] == (av[i] - bv[j]).index
                    seen[i, j] += 1
            block_start[start:stop] = start
            row = stop
        assert row == a.size
        if upper:
            # columns from the row's block start on: a diagonal block holds
            # both orders of its pairs, any other unordered pair comes once
            want = np.arange(b.size)[None, :] >= block_start[:, None]
            assert np.array_equal(seen, want.astype(np.int64))
        else:
            assert (seen == 1).all()

    def test_traced_peak_is_the_bitmap_plus_fixed_blocks(self):
        # 4.2M pairs at n = 12 go in blocks of 2^17 pairs, 1 MB per int64
        # temporary; beside the 3^n-byte membership bitmap the peak is a
        # few such temporaries, whatever |A| is
        ps = greedy_random_capset(12, 7)
        tracemalloc.start()
        try:
            assert count_line_solutions(ps) == ps.size
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3**12 + (8 << 20)

    def test_single_line_counted_six_ways(self):
        ps = PointSet.from_strings(["000", "111", "222"])
        # |A| degenerate triples plus 6 orderings of the one line
        assert count_line_solutions(ps) == 3 + 6
        assert not is_capset(ps)

    def test_affine_line_detected(self):
        ps = PointSet.from_strings(["010", "011", "012"])
        assert not is_capset(ps)

    def test_empty_and_singleton(self):
        assert is_capset(PointSet.empty(3))
        assert is_capset(PointSet.from_strings(["120"]))


def _brute_line_solutions(ps: PointSet) -> int:
    """Ordered (a, b, c) in A^3 with a + b + c = 0, from base-3 digits.

    Every pair is visited, one row a at a time: the digits of -(a + b)
    are read back as an index and looked up among the sorted members.
    """
    place = 3 ** np.arange(ps.n - 1, -1, -1)
    digits = ps.indices[:, None] // place % 3
    total = 0
    for row in digits:
        third = (-(row + digits) % 3) @ place
        pos = np.minimum(np.searchsorted(ps.indices, third), ps.size - 1)
        total += int(np.count_nonzero(ps.indices[pos] == third))
    return total


def _split_cases():
    """(name, set) at n <= 8 covering the shapes the digit classes meet."""
    yield "empty", PointSet.empty(5)
    yield "one point", PointSet.from_strings(["21012"])
    yield "two points", PointSet.from_strings(["21012", "12021"])
    for n in (4, 6, 8):
        yield f"greedy n={n}", greedy_random_capset(n, 40 + n)
    for n in (4, 5, 7):
        yield f"quarter n={n}", random_point_set(n, 3**n // 4, n)
    for n in (4, 6, 8):
        # every member has leading digit 0, so two classes are empty
        inside = random_point_set(n - 1, 3 ** (n - 1) // 4, n).indices
        yield f"hyperplane n={n}", PointSet(n, inside)
    yield "cap x cap", product_capset(greedy_random_capset(3, 1), greedy_random_capset(4, 2))
    yield "cap x dense", product_capset(greedy_random_capset(2, 3), random_point_set(4, 30, 4))


class TestLineCountSplit:
    """The leading-digit classes against a brute-force count.

    Pair budgets of 4 and 40 cells make every class of more than 2 or 6
    members split on its next digit, several levels deep at n <= 8, and
    leave ragged pair blocks in the leaves. A cap scores exactly |A|, so
    is_capset must agree with count == |A| in every case. A mixed term
    weighted 3, paired within one class, or a leaf without its diagonal
    block changes some count.
    """

    CASES = list(_split_cases())

    @pytest.mark.parametrize("cells", [4, 40])
    @pytest.mark.parametrize("case", range(len(CASES)), ids=[c[0] for c in CASES])
    def test_count_matches_brute_force(self, monkeypatch, cells, case):
        _, ps = self.CASES[case]
        want = _brute_line_solutions(ps)
        monkeypatch.setattr(bulk, "_PAIR_CELLS", cells)
        assert count_line_solutions(ps) == want
        assert is_capset(ps) == (want == ps.size)


class TestGreedy:
    @pytest.mark.parametrize("n,expected", [(4, 18), (6, 71), (8, 259)])
    def test_frozen_sizes(self, n, expected):
        ps = greedy_random_capset(n, SELFTEST_SEED + n)
        assert ps.size == expected
        assert is_capset(ps)

    def test_greedy_is_maximal(self):
        ps = greedy_random_capset(3, 77)
        assert is_capset(ps)
        members = {str(v) for v in ps.vectors()}
        for idx in range(27):
            v = TritVector.from_index(3, idx)
            if str(v) in members:
                continue
            extended = PointSet.from_strings(sorted(members | {str(v)}))
            assert not is_capset(extended)

    def test_deterministic_per_seed(self):
        a = greedy_random_capset(5, 123)
        b = greedy_random_capset(5, 123)
        assert a == b
        assert a != greedy_random_capset(5, 124)


class TestProduct:
    def test_product_of_caps_is_cap(self):
        a = greedy_random_capset(3, 1)
        b = greedy_random_capset(4, 2)
        p = product_capset(a, b)
        assert p.n == 7
        assert p.size == a.size * b.size
        assert is_capset(p)

    def test_product_matches_concatenation(self):
        a = PointSet.from_strings(["01", "10"])
        b = PointSet.from_strings(["2"])
        p = product_capset(a, b)
        assert {str(v) for v in p.vectors()} == {"012", "102"}


class TestSetFiles:
    def test_roundtrip(self, tmp_path):
        ps = greedy_random_capset(5, 9)
        path = tmp_path / "s.txt"
        save_point_set(ps, path)
        assert load_point_set(path) == ps

    @pytest.mark.parametrize("n", range(1, 11))
    def test_text_is_the_trit_vector_strings(self, n):
        # the first and last index pin the leading and trailing digits
        rest = random_point_set(n, min(3**n, 200), n).indices
        for ps in (PointSet(n, np.concatenate(([0, 3**n - 1], rest))), PointSet(n, [])):
            buf = io.StringIO()
            save_point_set(ps, buf)
            assert buf.getvalue() == f"n={n}\n" + "".join(f"{v}\n" for v in ps.vectors())

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("012\n")
        with pytest.raises(SetFileError):
            load_point_set(path)

    def test_rejects_duplicates(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("n=3\n012\n012\n")
        with pytest.raises(SetFileError):
            load_point_set(path)

    def test_rejects_wrong_width(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("n=3\n0123\n")
        with pytest.raises(SetFileError):
            load_point_set(path)


    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=3\n012\n012\n", "line 3: duplicate point '012'"),
            ("n=3\n012\n0123\n", "line 3: '0123' is not a base-3 string of length 3"),
            ("n=3\n012\n\n120\n", "line 3: '' is not a base-3 string of length 3"),
            ("n=3\n012\n01\n", "line 3: '01' is not a base-3 string of length 3"),
            ("n=3\n012\n0 2\n", "line 3: '0 2' is not a base-3 string of length 3"),
            ("n=3\n012\n01/\n", "line 3: '01/' is not a base-3 string of length 3"),
            ("n=3\n000\n111\n013\n000\n", "line 4: '013' is not a base-3 string of length 3"),
            ("n=3\n000\n111\n000\n013\n", "line 4: duplicate point '000'"),
            ("n=3\n000\n111\n222\n111\n000\n", "line 5: duplicate point '111'"),
            ("n=2\n00\n11\n1\n11\n", "line 4: '1' is not a base-3 string of length 2"),
            ("n=2\r\n00\r\n22\r\n00\r\n", "line 4: duplicate point '00'"),
            ("n=x\n", "bad dimension in header 'n=x'"),
            ("n=1_0\n", "bad dimension in header 'n=1_0'"),
            ("n=+3\n", "bad dimension in header 'n=+3'"),
            ("n=3 \n", "bad dimension in header 'n=3 '"),
            ("n=" + "0" * 40 + "3\n", f"bad dimension in header 'n={'0' * 30}'"),
            ("", "first line must be n=<dim>"),
            ("n=21\n", "dimension 21 outside 1..20"),
        ],
    )
    def test_first_offending_line_is_reported(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(SetFileError) as exc:
            load_point_set(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, n, strings",
        [
            ("n=3\n", 3, []),
            ("n=3\n\n\n", 3, []),
            ("n=3", 3, []),
            ("n=2\n21\n00\n", 2, ["00", "21"]),
            ("n=2\n21\n00", 2, ["00", "21"]),
            ("n=2\r\n21\r\n00\r\n\r\n", 2, ["00", "21"]),
            ("n=1\n2\n0\n1\n", 1, ["0", "1", "2"]),
            ("n=2\r21\r00\r", 2, ["00", "21"]),
            ("n=03\n012\n", 3, ["012"]),
        ],
    )
    def test_body_forms_accepted(self, tmp_path, text, n, strings):
        path = tmp_path / "ok.txt"
        path.write_bytes(text.encode("ascii"))
        ps = load_point_set(path)
        assert ps.n == n
        assert [str(v) for v in ps.vectors()] == strings

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"n=3\n012\n01\xff\n", "line 3: '01\ufffd' is not a base-3 string of length 3"),
            (b"n=3\n\xe9\xe9\xe9\n012\n", f"line 2: '{3 * chr(0xFFFD)}' is not a base-3 string of length 3"),
            (b"n=2\n00\n00\n\x80\n", "line 3: duplicate point '00'"),
            (b"n=\xff\n", "bad dimension in header 'n=\ufffd'"),
            (b"\xffn=3\n", "first line must be n=<dim>"),
        ],
    )
    def test_non_ascii_bytes_name_their_line(self, tmp_path, data, message):
        path = tmp_path / "bytes.txt"
        path.write_bytes(data)
        with pytest.raises(SetFileError) as exc:
            load_point_set(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("header", [b"q=3\n", b"n="], ids=["not-n", "endless-digits"])
    def test_hostile_header_refused_before_the_body_is_read(self, tmp_path, header):
        # a 32 MB body, behind a header that is not n= or never ends
        path = tmp_path / "big.txt"
        path.write_bytes(header + b"0" * (32 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(SetFileError):
                load_point_set(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            path.unlink()
        assert peak < 1 << 20

    def test_load_peaks_below_four_times_the_file(self, tmp_path):
        # 1,000,000 points at n = 14, a 15 MB file: the body is one buffer,
        # read through a view, and the index is built a digit column at a
        # time, with no (|A|, n) copy of the digits
        n = 14
        ps = PointSet(n, np.random.default_rng(3).permutation(3**n)[:1_000_000])
        path = tmp_path / "big.txt"
        save_point_set(ps, path)
        tracemalloc.start()
        try:
            loaded = load_point_set(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.indices, ps.indices)
        assert peak < 4 * path.stat().st_size


def _reference_parse(data: bytes):
    """(n, sorted point strings) by plain string handling, None when malformed."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return None
    lines = re.split(r"\r\n|\r|\n", text)
    while len(lines) > 1 and not lines[-1]:
        lines.pop()
    head = re.fullmatch(r"n=([0-9]{1,29})", lines[0])
    if head is None or not 1 <= int(head[1]) <= MAX_DIM:
        return None
    n, body = int(head[1]), lines[1:]
    if any(not re.fullmatch(f"[012]{{{n}}}", line) for line in body) or len(set(body)) < len(body):
        return None
    return n, sorted(body)


@st.composite
def set_file_bytes(draw):
    """Saved set files truncated, extended or spliced with bytes, or garbage."""
    near_text = st.lists(st.sampled_from(b"012\n\r=n\xff"), max_size=8).map(bytes)
    noise = st.one_of(st.binary(max_size=8), near_text)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=120))
    n = draw(st.integers(1, 4))
    buf = io.StringIO()
    save_point_set(random_point_set(n, draw(st.integers(0, 3**n)), draw(st.integers(0, 999))), buf)
    data = buf.getvalue().encode("ascii")
    at = draw(st.integers(0, len(data)))
    how = draw(st.sampled_from(["truncate", "append", "splice"]))
    if how == "truncate":
        return data[:at]
    if how == "append":
        return data + draw(noise)
    return data[:at] + draw(noise) + data[at + draw(st.integers(0, 4)) :]


class TestSetFileFuzz:
    @settings(max_examples=300)
    @given(data=set_file_bytes())
    def test_typed_errors_or_a_round_trip(self, tmp_path_factory, data):
        # only SetFileError (a ValueError) or ValueError escapes; an accepted
        # file is the set a plain parse reads, and saves and loads unchanged
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_bytes(data)
        try:
            ps = load_point_set(path)
        except (SetFileError, ValueError):
            assert _reference_parse(data) is None
            return
        assert _reference_parse(data) == (ps.n, [str(v) for v in ps.vectors()])
        save_point_set(ps, path)
        assert load_point_set(path) == ps


class TestExhaustiveMaxima:
    def test_tiny_dimensions_match_reference(self):
        for n in (1, 2):
            size, witness = exhaustive_max_capset(n)
            assert size == oracles.naive_max_capset(n)
            assert witness.size == size
            assert is_capset(witness)

    def test_frozen_maximum_n3(self):
        size, witness = exhaustive_max_capset(3)
        assert size == 9
        assert witness.size == 9
        assert is_capset(witness)


# AGL(3,3) from scratch: every invertible 3 x 3 matrix over F_3, acting on
# digit vectors with the first digit most significant, then all translates
_CUBE3 = np.array(list(itertools.product(range(3), repeat=3)))
_MATS = np.array(list(itertools.product(range(3), repeat=9))).reshape(-1, 3, 3)
_GL3 = _MATS[np.round(np.linalg.det(_MATS)).astype(np.int64) % 3 != 0]


def _affine_orbit(mask: int) -> set[int]:
    """Translate-lexmin masks of every image of a point set of F_3^3 under GL(3,3)."""
    pts = _CUBE3[[i for i in range(27) if mask >> i & 1]]
    images = np.einsum("gij,sj->gsi", _GL3, pts)
    best = None
    for t in _CUBE3:
        masks = (1 << ((images + t) % 3 @ np.array([9, 3, 1]))).sum(axis=1)
        best = masks if best is None else np.minimum(best, masks)
    return set(best.tolist())


class TestLayerOrbits:
    def test_group_is_gl3(self):
        assert len(_GL3) == 26 * 24 * 18

    def test_every_cap_has_27_translates(self):
        tables = capset._layer_tables()
        for size, caps in tables.caps.items():
            assert caps.size == 27 * tables.canon[size].size
            assert all(is_capset(PointSet(3, [i for i in range(27) if m >> i & 1]))
                       for m in tables.canon[size].tolist())

    def test_unit_translates_match_the_gather_form(self):
        digits = capset._DIGITS
        perms = capset._index(digits[:, :, None] + digits[:, None, :])  # row t: c -> c + t
        for caps in capset._layer_tables().caps.values():
            want = caps.copy()
            for perm in perms:
                np.minimum(want, capset._permute_bits(caps, perm), out=want)
            assert np.array_equal(capset._lexmin_translates(caps), want)

    def test_representatives_cover_each_orbit_once(self):
        tables = capset._layer_tables()
        for size, canon in tables.canon.items():
            seen: set[int] = set()
            for rep in tables.reps[size].tolist():
                orbit = _affine_orbit(rep)
                assert rep in orbit
                assert not orbit & seen, f"two representatives in one orbit, size {size}"
                seen |= orbit
            assert seen == set(canon.tolist()), f"a translation class of size {size} is missed"
        counts = {s: r.size for s, r in tables.reps.items()}
        assert counts == {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 2, 8: 3, 9: 1}

    def test_layered_search_bounds(self):
        witness = capset._layered_realize(20, 9)
        assert witness is not None and is_capset(PointSet(4, witness))
        assert len(witness) == 20
        assert capset._layered_realize(21, 9) is None
