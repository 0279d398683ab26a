import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tricap import Eisenstein, TritVector
from tricap import bulk

import oracles

eisen = st.builds(
    Eisenstein,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
)
trit_strings = st.text(alphabet="012", min_size=1, max_size=12)


class TestEisenstein:
    # products come from the oracle: the package multiplies only whole planes

    @given(eisen, eisen)
    def test_norm_multiplicative(self, a, b):
        p, q = oracles.e_mul((a.p, a.q), (b.p, b.q))
        assert Eisenstein(p, q).norm() == a.norm() * b.norm()

    @given(eisen)
    def test_conjugate_norm(self, a):
        # conjugation sends w to w^2 = -1 - w: p + q w -> (p - q) - q w
        assert oracles.e_mul((a.p, a.q), (a.p - a.q, -a.q)) == (a.norm(), 0)

    @given(eisen)
    def test_norm_nonnegative(self, a):
        assert a.norm() >= 0
        assert (a.norm() == 0) == (a == Eisenstein(0, 0))


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
        ds, dt = oracles.digits(s), oracles.digits(t)
        lo, hi = np.array([a.lo, b.lo]), np.array([a.hi, b.hi])
        dots = [bulk.dots_with(lo, hi, v).tolist() for v in (a, b)]
        assert dots == [[oracles.dot(u, w) for u in (ds, dt)] for w in (ds, dt)]

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

