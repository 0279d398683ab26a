import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tricap import Eisenstein, TritVector, character

import oracles

eisen = st.builds(
    Eisenstein,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)
trit_strings = st.text(alphabet="012", min_size=1, max_size=12)


class TestEisenstein:
    def test_units_and_zero(self):
        one = Eisenstein(1, 0)
        w = Eisenstein(0, 1)
        assert w * w * w == one
        assert w * w == Eisenstein(-1, -1)
        assert one + w + w * w == Eisenstein(0, 0)

    @given(eisen, eisen)
    def test_mul_matches_reference(self, a, b):
        p, q = oracles.e_mul((a.p, a.q), (b.p, b.q))
        assert a * b == Eisenstein(p, q)

    @given(eisen, eisen)
    def test_norm_multiplicative(self, a, b):
        assert (a * b).norm() == a.norm() * b.norm()

    @given(eisen)
    def test_conjugate_norm(self, a):
        assert a * a.conj() == Eisenstein(a.norm(), 0)
        assert a.conj().conj() == a

    @given(eisen)
    def test_norm_nonnegative(self, a):
        assert a.norm() >= 0
        assert (a.norm() == 0) == (a == Eisenstein(0, 0))

    def test_character_table(self):
        assert character(0) == Eisenstein(1, 0)
        assert character(1) == Eisenstein(0, 1)
        assert character(2) == Eisenstein(-1, -1)
        for t in range(3):
            assert character(t).norm() == 1

    def test_character_is_additive(self):
        for s, t in itertools.product(range(3), repeat=2):
            lhs = character((s + t) % 3)
            rhs = character(s) * character(t)
            assert lhs == rhs


class TestTritVector:
    @given(trit_strings)
    def test_string_roundtrip(self, s):
        assert str(TritVector.from_string(s)) == s

    @given(trit_strings)
    def test_index_roundtrip(self, s):
        v = TritVector.from_string(s)
        assert TritVector.from_index(len(s), v.index) == v
        assert v.index == int(s, 3)

    def test_leftmost_is_most_significant(self):
        assert TritVector.from_string("100").index == 9
        assert TritVector.from_string("001").index == 1
        assert TritVector.from_index(3, 9) == TritVector.from_string("100")

    @given(trit_strings, st.data())
    def test_add_matches_digits(self, s, data):
        t = data.draw(st.text(alphabet="012", min_size=len(s), max_size=len(s)))
        a, b = TritVector.from_string(s), TritVector.from_string(t)
        expect = oracles.to_string(oracles.vec_add(oracles.digits(s), oracles.digits(t)))
        assert str(a + b) == expect
        assert a + b == b + a

    @given(trit_strings)
    def test_negation(self, s):
        v = TritVector.from_string(s)
        assert (v + (-v)).is_zero()
        assert -(-v) == v
        assert str(-v) == oracles.to_string(oracles.vec_neg(oracles.digits(s)))

    @given(trit_strings, st.data())
    def test_dot_symmetric(self, s, data):
        t = data.draw(st.text(alphabet="012", min_size=len(s), max_size=len(s)))
        a, b = TritVector.from_string(s), TritVector.from_string(t)
        assert a.dot(b) == b.dot(a) == oracles.dot(oracles.digits(s), oracles.digits(t))

    def test_trit_access(self):
        v = TritVector.from_string("0210")
        assert [v.trit(i) for i in range(4)] == [0, 2, 1, 0]

    def test_scalar_multiples(self):
        v = TritVector.from_string("012")
        assert v.scale(0).is_zero()
        assert v.scale(1) == v
        assert v.scale(2) == -v

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(Exception):
            TritVector.from_string("01") + TritVector.from_string("012")

