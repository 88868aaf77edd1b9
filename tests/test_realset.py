import math

import pytest

from stepdist import MalformedInterval
from stepdist.realset import Interval, RealSet

INF = math.inf


class TestInterval:
    def test_contains_respects_flags(self):
        iv = Interval.open_closed(0.0, 1.0)
        assert not iv.contains(0.0)
        assert iv.contains(1.0)
        assert iv.contains(0.5)
        assert not iv.contains(1.5)

    def test_point_and_empty(self):
        assert Interval.point(2.0).contains(2.0)
        assert Interval.open(1.0, 1.0).is_empty()
        assert not Interval.point(1.0).is_empty()

    def test_infinite_ends_must_be_open(self):
        with pytest.raises(MalformedInterval):
            Interval(-INF, 0.0, True, True)
        with pytest.raises(MalformedInterval):
            Interval(0.0, INF, False, True)

    def test_infinite_end_on_the_wrong_side_is_named(self):
        # the message names the endpoint that is wrong, with its value
        with pytest.raises(MalformedInterval, match=r"^upper endpoint -inf must be finite or an open \+inf$"):
            Interval(-INF, -INF, False, False)
        with pytest.raises(MalformedInterval, match=r"^lower endpoint inf must be finite or an open -inf$"):
            Interval(INF, INF, False, False)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(MalformedInterval):
            Interval.closed(1.0, 0.0)

    def test_intersection(self):
        a = Interval.closed_open(0.0, 1.0)
        b = Interval.open_closed(0.5, 2.0)
        assert a.intersect(b) == Interval.open(0.5, 1.0)
        assert a.intersect(Interval.open(1.0, 2.0)) is None
        # touching at a closed endpoint keeps the point
        assert a.intersect(Interval.closed(-1.0, 0.0)) == Interval.point(0.0)


class TestRealSet:
    def test_merges_touching_components(self):
        s = RealSet.of(Interval.open_closed(0.0, 1.0), Interval.open(1.0, 2.0))
        assert s.components == (Interval.open(0.0, 2.0),)

    def test_keeps_disconnected_components(self):
        s = RealSet.of(Interval.open(0.0, 1.0), Interval.open(1.0, 2.0))
        assert len(s.components) == 2
        assert not s.contains(1.0)

    def test_union_and_intersection(self):
        a = RealSet.of(Interval.closed(0.0, 2.0))
        b = RealSet.of(Interval.open(1.0, 3.0), Interval.point(5.0))
        u = a.union(b)
        assert u.contains(5.0) and u.contains(0.0) and u.contains(2.5)
        i = a.intersect(b)
        assert i == RealSet.of(Interval.open_closed(1.0, 2.0))

    def test_complement_roundtrip(self):
        s = RealSet.of(Interval.open(-INF, 0.0), Interval.closed(1.0, 2.0))
        c = s.complement()
        assert c == RealSet.of(Interval.closed_open(0.0, 1.0), Interval.open(2.0, INF))
        assert c.complement() == s

    def test_difference(self):
        unit = RealSet.of(Interval.open(0.0, 1.0))
        holes = RealSet.of(Interval.closed(0.25, 0.5))
        d = unit.difference(holes)
        assert d == RealSet.of(Interval.open(0.0, 0.25), Interval.open(0.5, 1.0))

    @pytest.mark.parametrize(
        "s",
        [
            RealSet.point(0.0),
            RealSet.of(Interval.open(0.0, 1.0)),
            RealSet.of(Interval.closed(-1.0, 1.0), Interval.open_closed(2.0, 3.0)),
            RealSet.reals(),
        ],
    )
    def test_nan_is_in_no_set(self, s):
        assert not s.contains(math.nan)
        assert s.contains_many([math.nan, 0.5]).tolist() == [False, s.contains(0.5)]

    def test_components_that_are_input_intervals_are_those_objects(self):
        # sorted, disjoint intervals with nonzero ends are already the normal form
        ivs = (Interval.open(-INF, -1.0), Interval.closed(0.5, 1.0), Interval.open_closed(1.5, 2.0), Interval.point(3.0))
        assert all(got is iv for got, iv in zip(RealSet(ivs).components, ivs, strict=True))
        assert all(got is iv for got, iv in zip(RealSet(ivs[::-1]).components, ivs, strict=True))
        # an interval that the other set covers is the intersection's component
        inner = RealSet.of(Interval.closed(0.25, 0.75))
        assert inner.intersect(RealSet.of(Interval.open(0.0, 1.0))).components[0] is inner.components[0]
        # a merge, ends from two intervals and a zero end are built anew
        merged = RealSet.of(Interval.open(0.0, 1.0), Interval.closed(1.0, 2.0))
        assert merged.components == (Interval.open_closed(0.0, 2.0),)
        crossing = (Interval.open(-1.0, 1.0), Interval.open(0.5, 2.0))
        assert RealSet(crossing).components[0] not in crossing
        at_zero = Interval.closed(-0.0, 1.0)
        got = RealSet.of(at_zero, Interval.point(5.0)).components[0]
        assert got == at_zero and got is not at_zero

    def test_empty(self):
        assert RealSet.empty().is_empty()
        assert not RealSet.empty().contains(0.0)
        assert str(RealSet.empty()) == "(empty)"
