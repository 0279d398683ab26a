import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tricap import GuardExceededError, Subspace, TritVector, rank

import oracles
from conftest import digit_rows, whole_space


def _vectors(draw_n, count):
    return st.lists(
        st.text(alphabet="012", min_size=draw_n, max_size=draw_n),
        min_size=0,
        max_size=count,
    )


def _tv(strings):
    return [TritVector.from_string(s) for s in strings]


def _points(w):
    """Digit tuples of the points of w, in enumerate_indices order."""
    return [tuple(d) for d in digit_rows(w.enumerate_indices(), w.n).tolist()]


def _stack(strings):
    """One selection as a (1, d) stack of canonical indices."""
    return np.array([[TritVector.from_string(s).index for s in strings]], dtype=np.int64)


class TestRank:
    @given(st.integers(2, 6).flatmap(lambda n: _vectors(n, 8)))
    def test_rank_matches_reference(self, strings):
        if not strings:
            return
        got = rank(_stack(strings), len(strings[0]))
        assert got.tolist() == [oracles.naive_rank([oracles.digits(s) for s in strings])]

    def test_rank_of_units(self):
        units = np.array([[TritVector.unit(5, i).index for i in range(5)]], dtype=np.int64)
        assert rank(units, 5).tolist() == [5]

    def test_dependent_rows(self):
        strings = ["110", "220"]
        assert rank(_stack(strings), 3).tolist() == [1]
        assert oracles.naive_rank([oracles.digits(s) for s in strings]) == 1


@st.composite
def _index_stacks(draw):
    """(n, picks): a (T, d) stack of indices with zeros, repeats and v, 2v pairs."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(0, n + 3))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row: list[int] = []
        for _ in range(d):
            kind = draw(st.sampled_from(["any", "zero", "repeat", "double"]))
            if kind == "zero":
                row.append(0)
            elif kind == "any" or not row:
                row.append(draw(st.integers(0, 3**n - 1)))
            else:
                v = TritVector.from_index(n, draw(st.sampled_from(row)))
                row.append((v if kind == "repeat" else v.scale(2)).index)
        rows.append(row)
    return n, np.array(rows, dtype=np.int64).reshape(len(rows), d)


class TestStackedRank:
    @given(_index_stacks())
    def test_matches_reference(self, case):
        n, picks = case
        got = rank(picks, n)
        assert got.dtype == np.int64 and got.shape == (picks.shape[0],)
        want = [
            oracles.naive_rank(digit_rows(row, n).tolist())
            for row in picks
        ]
        assert got.tolist() == want

    def test_rejects_malformed_stacks(self):
        with pytest.raises(TypeError):
            rank(np.zeros((2, 3), dtype=np.int64))  # no dimension
        with pytest.raises(ValueError):
            rank(np.zeros((2, 3), dtype=np.int64), 0)
        with pytest.raises(ValueError):
            rank(np.zeros(3, dtype=np.int64), 4)  # not (T, d)
        with pytest.raises(ValueError):
            rank(np.array([[0, 81]], dtype=np.int64), 4)
        with pytest.raises(ValueError):
            rank(np.array([[-1]], dtype=np.int64), 4)


class TestSubspace:
    def test_span_sizes(self):
        w = Subspace.span(_tv(["100", "010"]))
        assert w.dim == 2
        assert w.size() == 9
        assert w.codim == 1

    def test_zero_and_full(self):
        z = Subspace.zero(4)
        assert z.dim == 0 and z.size() == 1
        f = whole_space(4)
        assert f.dim == 4 and f.size() == 81

    @given(st.integers(2, 5).flatmap(lambda n: _vectors(n, 5)))
    def test_span_contains_generators(self, strings):
        if not strings:
            return
        vs = _tv(strings)
        w = Subspace.span(vs)
        for v in vs:
            assert w.contains(v)

    @given(st.integers(2, 5).flatmap(lambda n: _vectors(n, 5)))
    def test_enumerate_matches_naive_span(self, strings):
        if not strings:
            return
        n = len(strings[0])
        w = Subspace.span(_tv(strings))
        want = oracles.naive_span([oracles.digits(s) for s in strings], n)
        assert set(_points(w)) == want

    @given(st.integers(1, 5).flatmap(lambda n: _vectors(n, 4)))
    def test_enumerate_order_matches_product_oracle(self, strings):
        if not strings:
            return
        n = len(strings[0])
        w = Subspace.span(_tv(strings))
        basis = [oracles.digits(str(b)) for b in w.basis]
        # coefficient tuples in itertools.product order: rightmost basis vector fastest
        want = []
        for coeffs in itertools.product(range(3), repeat=len(basis)):
            v = (0,) * n
            for c, b in zip(coeffs, basis):
                v = oracles.vec_add(v, tuple(c * t % 3 for t in b))
            want.append(oracles.point_index(v))
        assert w.enumerate_indices().tolist() == want

    def test_enumerate_zero_and_guard(self):
        assert Subspace.zero(3).enumerate_indices().tolist() == [0]
        with pytest.raises(GuardExceededError):
            whole_space(17).enumerate_indices()

    @given(st.integers(2, 5).flatmap(lambda n: _vectors(n, 4)))
    def test_annihilator_duality(self, strings):
        if not strings:
            return
        w = Subspace.span(_tv(strings))
        ann = w.annihilator()
        assert ann.dim == w.codim
        for u in _points(w):
            for x in ann.basis:
                assert oracles.dot(u, oracles.digits(str(x))) == 0
        assert ann.annihilator().dim == w.dim
        for b in w.basis:
            assert ann.annihilator().contains(b)

    def test_transversal_covers_space(self):
        w = Subspace.span(_tv(["100", "010"]))
        t = w.transversal()
        assert t.dim == w.codim
        seen = set()
        for r in _points(t):
            for u in _points(w):
                seen.add(oracles.vec_add(r, u))
        assert len(seen) == 27

    def test_extension_to_larger(self):
        h = Subspace.span(_tv(["1000"]))
        k = Subspace.span(_tv(["1000", "0100", "0010"]))
        assert k.contains_subspace(h)
        ext = h.extension_to(k)
        assert len(ext) == 2
        joined = Subspace.span(list(h.basis) + ext)
        assert joined.dim == k.dim
        for v in ext:
            assert k.contains(v)
            assert not h.contains(v)

    def test_extension_requires_containment(self):
        h = Subspace.span(_tv(["100"]))
        k = Subspace.span(_tv(["010"]))
        with pytest.raises(Exception):
            h.extension_to(k)

    @given(st.integers(1, 8).flatmap(lambda n: _vectors(n, 12)))
    def test_span_is_canonical_reduced_basis(self, strings):
        if not strings:
            return
        n = len(strings[0])
        w = Subspace.span(_tv(strings))
        pivots = list(w.pivots)
        assert pivots == sorted(set(pivots))
        for b, p in zip(w.basis, pivots):
            assert [b.trit(c) for c in range(p)] == [0] * p and b.trit(p) == 1
            assert [b.trit(c) for c in pivots if c != p] == [0] * (len(pivots) - 1)
        want = oracles.naive_span([oracles.digits(s) for s in strings], n)
        assert set(_points(w)) == want
        assert 3**w.dim == len(want)

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(_vectors(n, 4), _vectors(n, 5))))
    def test_extension_matches_greedy_rank(self, parts):
        inner, extra = parts
        if not inner + extra:
            return
        n = len((inner + extra)[0])
        h = Subspace.span(_tv(inner), n)
        k = Subspace.span(_tv(inner + extra), n)
        kept = list(h.basis)
        want = []
        for cand in k.basis:
            picks = np.array([[v.index for v in kept + [cand]]], dtype=np.int64)
            if rank(picks, n)[0] > len(kept):
                kept.append(cand)
                want.append(cand)
        assert h.extension_to(k) == want

    def test_constructor_derives_pivots(self):
        e0 = TritVector.unit(3, 0)
        w = Subspace(3, (e0,))
        assert w.pivots == (0,)
        assert w.contains(e0)
        assert w.annihilator().dim == 2
        assert Subspace(3, tuple(_tv(["120"]))).pivots == (0,)
        assert Subspace(3, tuple(_tv(["102", "011"]))) == Subspace.span(_tv(["102", "011"]))

    @pytest.mark.parametrize("rows", [
        ["210"],  # pivot trit 2
        ["000"],  # zero row
        ["010", "100"],  # pivots decrease
        ["100", "110"],  # two rows share a pivot
        ["110", "010"],  # row 0 is nonzero at row 1's pivot
    ])
    def test_constructor_rejects_unreduced_basis(self, rows):
        with pytest.raises(ValueError):
            Subspace(3, tuple(_tv(rows)))

    def test_constructor_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            Subspace(4, tuple(_tv(["100"])))

    def test_reduce_is_canonical_rep(self):
        w = Subspace.span(_tv(["100"]))
        a = TritVector.from_string("122")
        b = TritVector.from_string("222")
        # a - b = 200, inside w, so both reduce to the same coset label
        assert w.reduce(a) == w.reduce(b)
        assert w.reduce(a) == w.reduce(w.reduce(a))
