"""Unit and property tests for interval arithmetic (the EC foundation)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.intervals import Interval, hull_of, weighted_sum

vals = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@st.composite
def intervals(draw):
    a, b = sorted((draw(vals), draw(vals)))
    return Interval(a, b)


class TestConstruction:
    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_exact(self):
        iv = Interval.exact(3.0)
        assert iv.is_exact and iv.lo == iv.hi == 3.0

    def test_around(self):
        iv = Interval.around(5.0, 2.0)
        assert (iv.lo, iv.hi) == (3.0, 7.0)

    def test_around_negative_half_width(self):
        with pytest.raises(ValueError):
            Interval.around(0.0, -1.0)

    def test_width_and_midpoint(self):
        iv = Interval(1.0, 4.0)
        assert iv.width == 3.0
        assert iv.midpoint == 2.5


class TestArithmetic:
    def test_addition(self):
        assert Interval(1, 2) + Interval(3, 5) == Interval(4, 7)

    def test_scalar_addition_commutes(self):
        assert Interval(1, 2) + 1.5 == 1.5 + Interval(1, 2) == Interval(2.5, 3.5)

    def test_subtraction(self):
        assert Interval(1, 2) - Interval(0, 1) == Interval(0, 2)

    def test_multiplication_mixed_signs(self):
        assert Interval(-2, 3) * Interval(-1, 2) == Interval(-4, 6)

    def test_scalar_multiplication_negative(self):
        assert Interval(1, 2) * -2 == Interval(-4, -2)

    def test_negation(self):
        assert -Interval(1, 3) == Interval(-3, -1)

    def test_complement_to_one(self):
        assert Interval(0.2, 0.5).complement_to_one() == Interval(0.5, 0.8)

    @given(intervals(), intervals(), vals)
    def test_addition_containment(self, a, b, _):
        """x in a and y in b implies x + y in a + b (soundness)."""
        total = a + b
        assert a.lo + b.lo in total
        assert a.hi + b.hi in total
        assert a.midpoint + b.midpoint in total

    @given(intervals(), intervals())
    def test_multiplication_containment(self, a, b):
        prod = a * b
        for x in (a.lo, a.midpoint, a.hi):
            for y in (b.lo, b.midpoint, b.hi):
                assert prod.lo - 1e-6 <= x * y <= prod.hi + 1e-6

    @given(intervals())
    def test_double_negation(self, iv):
        assert -(-iv) == iv


class TestSetOperations:
    def test_intersection_overlap(self):
        assert Interval(0, 2).intersection(Interval(1, 3)) == Interval(1, 2)

    def test_intersection_disjoint(self):
        assert Interval(0, 1).intersection(Interval(2, 3)) is None

    def test_intersection_touching(self):
        assert Interval(0, 1).intersection(Interval(1, 2)) == Interval(1, 1)

    def test_hull(self):
        assert Interval(0, 1).hull(Interval(3, 4)) == Interval(0, 4)

    def test_intersects(self):
        assert Interval(0, 2).intersects(Interval(2, 4))
        assert not Interval(0, 1).intersects(Interval(1.1, 4))

    def test_certainly_ordering(self):
        assert Interval(0, 1).certainly_less_than(Interval(2, 3))
        assert not Interval(0, 2.5).certainly_less_than(Interval(2, 3))
        assert Interval(2, 3).certainly_greater_than(Interval(0, 1))

    @given(intervals(), intervals())
    def test_intersection_commutes(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(intervals(), intervals())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        for x in (a.lo, a.hi, b.lo, b.hi):
            assert x in hull

    @given(intervals(), intervals())
    def test_intersection_within_hull(self, a, b):
        overlap = a.intersection(b)
        if overlap is not None:
            hull = a.hull(b)
            assert overlap.lo >= hull.lo and overlap.hi <= hull.hi


class TestNormalisationHelpers:
    def test_clamp(self):
        assert Interval(-0.5, 1.5).clamp() == Interval(0.0, 1.0)

    def test_clamp_bad_bounds(self):
        with pytest.raises(ValueError):
            Interval(0, 1).clamp(1.0, 0.0)

    def test_scaled_by_max(self):
        assert Interval(1, 3).scaled_by_max(4.0) == Interval(0.25, 0.75)

    def test_scaled_by_nonpositive_max_is_zero(self):
        assert Interval(1, 3).scaled_by_max(0.0) == Interval.exact(0.0)

    def test_widened(self):
        iv = Interval(1.0, 3.0).widened(0.5)  # width 2 -> margin 0.5 each side
        assert iv == Interval(0.5, 3.5)

    def test_widened_exact_stays_exact(self):
        assert Interval.exact(2.0).widened(1.0) == Interval.exact(2.0)

    def test_widened_negative_factor(self):
        with pytest.raises(ValueError):
            Interval(0, 1).widened(-0.1)

    @given(intervals(), st.floats(min_value=0, max_value=3, allow_nan=False))
    def test_widened_contains_original(self, iv, factor):
        wide = iv.widened(factor)
        assert wide.lo <= iv.lo and wide.hi >= iv.hi


class TestAggregates:
    def test_weighted_sum(self):
        total = weighted_sum([(Interval(0, 1), 0.5), (Interval(2, 2), 0.5)])
        assert total == Interval(1.0, 1.5)

    def test_weighted_sum_empty(self):
        assert weighted_sum([]) == Interval.exact(0.0)

    def test_hull_of(self):
        assert hull_of([Interval(0, 1), Interval(5, 6), Interval(-1, 0)]) == Interval(-1, 6)

    def test_hull_of_empty_raises(self):
        with pytest.raises(ValueError):
            hull_of([])
