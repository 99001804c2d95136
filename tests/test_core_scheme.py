"""Tests for schemes, attributes and the string embedding."""

import numpy as np
import pytest

from repro.core.scheme import (
    Attribute,
    Scheme,
    string_prefix_to_range,
    string_to_point,
)


class TestAttribute:
    def test_basic_construction(self):
        a = Attribute("price", 0, 100)
        assert a.contains(50)
        assert a.contains(0) and a.contains(100)
        assert not a.contains(101)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            Attribute("x", 5, 5)
        with pytest.raises(ValueError):
            Attribute("x", 10, 1)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Attribute("", 0, 1)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            Attribute("x", 0, 1, type="blob")

    def test_to_value_range_check(self):
        a = Attribute("x", 0, 10)
        assert a.to_value(3) == 3.0
        with pytest.raises(ValueError):
            a.to_value(11)

    def test_string_attribute(self):
        a = Attribute.string("symbol")
        v = a.to_value("IBM")
        assert a.contains(v)
        with pytest.raises(TypeError):
            a.to_value(5)


class TestStringEmbedding:
    def test_order_preserving(self):
        words = ["AAPL", "GOOG", "IBM", "MSFT", "ORCL"]
        points = [string_to_point(w) for w in words]
        assert points == sorted(points)

    def test_prefix_range_contains_extensions(self):
        lo, hi = string_prefix_to_range("AB")
        for s in ["AB", "ABC", "ABZZZZ", "AB0"]:
            assert lo <= string_to_point(s) <= hi

    def test_prefix_range_excludes_others(self):
        lo, hi = string_prefix_to_range("AB")
        for s in ["AA", "AC", "B", "A"]:
            p = string_to_point(s)
            assert p < lo or p > hi

    def test_empty_string_is_domain_start(self):
        assert string_to_point("") == 0.0


class TestScheme:
    def make(self):
        return Scheme("stock", [Attribute("price", 0, 500), Attribute("vol", 0, 1e6)])

    def test_dimensions_and_index(self):
        s = self.make()
        assert s.dimensions == 2
        assert s.attr_index("price") == 0
        assert s.attr_index("vol") == 1

    def test_unknown_attr_raises(self):
        with pytest.raises(KeyError):
            self.make().attr_index("volume")

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(ValueError):
            Scheme("s", [Attribute("a", 0, 1), Attribute("a", 0, 2)])

    def test_empty_scheme_rejected(self):
        with pytest.raises(ValueError):
            Scheme("s", [])
        with pytest.raises(ValueError):
            Scheme("", [Attribute("a", 0, 1)])

    def test_equality_and_hash(self):
        assert self.make() == self.make()
        assert hash(self.make()) == hash(self.make())
        other = Scheme("stock2", self.make().attributes)
        assert self.make() != other
