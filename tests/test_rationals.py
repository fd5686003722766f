"""Interval arithmetic: exactness and enclosure soundness."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift.rationals import Interval, rat_to_decimal


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000
)


@st.composite
def intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    return Interval(min(a, b), max(a, b))


def test_point_interval_roundtrip():
    iv = Interval.point(Fraction(3, 7))
    assert iv.is_point and iv.exact() == Fraction(3, 7)
    assert iv.width == 0


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_basic_arithmetic_exact():
    a = Interval(Fraction(1, 3), Fraction(1, 2))
    b = Interval(Fraction(-1), Fraction(2))
    assert (a + b).lo == Fraction(-2, 3)
    assert (a * b).lo == Fraction(-1, 2)
    assert (a * b).hi == Fraction(1)
    assert (a - a).contains(0)


def test_recip_requires_sign():
    with pytest.raises(ZeroDivisionError):
        Interval(Fraction(-1), Fraction(1)).recip()
    iv = Interval(Fraction(2), Fraction(4)).recip()
    assert iv == Interval(Fraction(1, 4), Fraction(1, 2))


def test_division_cancels_common_rational_scale():
    # (r*a)/(r*b) must equal a/b with exact endpoint equality
    a = Interval(Fraction(3), Fraction(4))
    b = Interval(Fraction(5), Fraction(6))
    r = Fraction(355, 113)
    assert (a * r) / (b * r) == a / b


def test_gap_and_intersection():
    a = Interval(Fraction(0), Fraction(1))
    b = Interval(Fraction(2), Fraction(3))
    assert not a.intersects(b)
    assert a.gap_to(b) == 1
    assert a.gap_to(Interval(Fraction(1, 2), Fraction(5))) == 0


@given(intervals(), intervals(), rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_enclosure_soundness(a, b, x_frac, y_frac):
    """Members of the operand intervals map into the result interval."""
    x = a.lo + (a.hi - a.lo) * abs(x_frac) / 51  # points inside a
    y = b.lo + (b.hi - b.lo) * abs(y_frac) / 51
    assert (a + b).contains(x + y)
    assert (a - b).contains(x - y)
    assert (a * b).contains(x * y)
    if b.lo > 0 or b.hi < 0:
        assert (a / b).contains(x / y)
    assert a.abs().contains(abs(x))


def _four_product(a, b):
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return min(products), max(products)


signed_intervals = st.one_of(
    intervals(),
    rationals.map(lambda x: Interval(Fraction(0), abs(x))),  # zero endpoints
    rationals.map(lambda x: Interval(-abs(x), Fraction(0))),
)
operands = st.one_of(rationals, st.integers(-50, 50), st.just(Fraction(0)))


@given(signed_intervals, signed_intervals, operands)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_textbook_definitions(a, b, x):
    """Every arithmetic path, the fast ones included, gives the four-product
    min/max and the endpoint sums, with ordered endpoints."""
    xi = Interval(Fraction(x), Fraction(x))
    cases = [
        (a * b, _four_product(a, b)),
        (a * x, _four_product(a, xi)),
        (x * a, _four_product(xi, a)),
        (a + b, (a.lo + b.lo, a.hi + b.hi)),
        (a + x, (a.lo + x, a.hi + x)),
        (x + a, (a.lo + x, a.hi + x)),
        (a - b, (a.lo - b.hi, a.hi - b.lo)),
        (a - x, (a.lo - x, a.hi - x)),
        (x - a, (x - a.hi, x - a.lo)),
        (-a, (-a.hi, -a.lo)),
    ]
    for result, (lo, hi) in cases:
        assert isinstance(result.lo, Fraction) and isinstance(result.hi, Fraction)
        assert (result.lo, result.hi) == (lo, hi)
        assert result.lo <= result.hi


def test_decimal_rendering():
    assert rat_to_decimal(Fraction(1, 3), 5) == "0.33333"
    assert rat_to_decimal(Fraction(2), 5) == "2"
