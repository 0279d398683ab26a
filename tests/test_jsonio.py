import json
from fractions import Fraction

import pytest

from tricap import PointSet, greedy_random_capset, nullity_distribution
from tricap.jsonio import (
    dumps_canonical,
    envelope,
    frac_str,
    nullity_csv_rows,
    render_csv,
    report_nullity,
)


class TestFracStr:
    def test_always_carries_denominator(self):
        assert frac_str(Fraction(3, 4)) == "3/4"
        assert frac_str(Fraction(5)) == "5/1"
        assert frac_str(7) == "7/1"

    def test_density(self):
        assert frac_str(PointSet(3, range(4)).density()) == "4/27"

    def test_huge_values_stay_exact(self):
        f = Fraction(3**200, 2**100)
        num, den = frac_str(f).split("/")
        assert int(num) == 3**200
        assert int(den) == 2**100


class TestCanonicalJson:
    def test_envelope_key_order(self):
        rep = envelope("demo", 7)
        assert list(rep.keys()) == ["tool", "version", "command", "seed"]
        assert rep["tool"] == "tricap"

    def test_byte_stable(self):
        rep = envelope("demo", None)
        rep["values"] = {"a": 1, "b": "2/3"}
        assert dumps_canonical(rep) == dumps_canonical(json.loads(dumps_canonical(rep)))

    def test_trailing_newline_and_ascii(self):
        out = dumps_canonical({"x": 1})
        assert out.endswith("\n")
        out.encode("ascii")

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("nan")})


class TestCsv:
    def test_unix_line_endings(self):
        out = render_csv(["a", "b"], [[1, "x"], [2, "y"]])
        assert out == "a,b\n1,x\n2,y\n"

    def test_nullity_rows_shape(self):
        ps = greedy_random_capset(6, 5)
        exp = nullity_distribution(ps, 5, 30, 11)
        report = report_nullity(exp)
        header, rows = nullity_csv_rows(report)
        assert header == ["k", "count", "empirical", "reference"]
        assert len(rows) == max(exp.histogram) + 1
        assert report["trials"] == 30
        assert sum(report["histogram"].values()) == 30
