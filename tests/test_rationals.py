"""Interval arithmetic: exactness and enclosure soundness."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeshift.errors import TableRangeError
from treeshift.rationals import (RENDER_DIGITS, Interval, _text_value, enclosure, outward,
                                 rat_to_decimal, render, render_interval, table_text)


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


# --- table enclosures rendered outward ---

wide_rationals = st.builds(
    Fraction, st.integers(-(10**90), 10**90), st.integers(1, 10**90)
) | st.builds(lambda m, e: Fraction(m) * Fraction(10) ** e,
              st.integers(-(10**45), 10**45), st.integers(-3000, 3000))


@given(wide_rationals)
@settings(derandomize=True, max_examples=400, database=None)
@example(Fraction(10**45 - 899999, 10**2847))  # hi rounds up to the next decade
@example(Fraction(999999 - 10**45, 100))
@example(Fraction(10**40 - 1) / 3)
def test_render_rounds_outward_and_is_exact_on_rendered_values(x):
    """render rounds down for lo and up for hi onto 40 significant digits,
    one unit of the coarser last digit apart at most, and a value that
    already has at most 40 digits renders exactly, to the same text both
    ways, also just below a power of ten."""
    lo_text = render(x.numerator, x.denominator, False)
    hi_text = render(x.numerator, x.denominator, True)
    lo, hi = Fraction(lo_text), Fraction(hi_text)
    assert lo <= x <= hi
    if x == 0:
        assert lo_text == hi_text == "0"
        return
    for text in (lo_text, hi_text):
        mantissa, _ = text.lstrip("-").split("e")
        assert len(mantissa) == RENDER_DIGITS and mantissa[0] != "0"
        assert table_text(text) == text
    unit = Fraction(10) ** max(int(t.split("e")[1]) for t in (lo_text, hi_text))
    assert hi - lo <= unit and (lo == hi) == (lo == x)
    for y in (lo, hi):
        assert render(y.numerator, y.denominator, False) == render(
            y.numerator, y.denominator, True) == (lo_text if y == lo else hi_text)
    assert render_interval(Interval(lo, hi)) == (lo_text, hi_text)


def test_render_interval_divides_the_product_once():
    """iv * num/den rendered from the unreduced products equals the rendering
    of the reduced endpoints, and outward widens to that rendering."""
    iv = Interval(Fraction(1, 3), Fraction(2, 3))
    assert render_interval(iv, 6, 4) == render_interval(iv * Fraction(3, 2)) == (
        "5" + "0" * 39 + "e-40", "1" + "0" * 39 + "e-39")
    assert render_interval(iv) == ("3" * 40 + "e-40", "6" * 39 + "7e-40")
    assert outward(iv) == Interval(Fraction("3" * 40 + "e-40"), Fraction("6" * 39 + "7e-40"))


@pytest.mark.parametrize("text", ["1" * 39 + "e-5", "1" * 41 + "e-5", "0" + "1" * 39 + "e-5",
                                  "1" * 40 + "E-5", "1" * 40 + "e+5", "1" * 40 + "e-05",
                                  "1" * 40 + "e-19689", "1" * 40 + "e19689", "1" * 40 + "e",
                                  "1" * 40, "1" * 40 + ".0e1", "-0e0", "2/4"])
def test_table_text_reads_only_the_two_forms(text):
    """A table endpoint is a 40-digit rendered number within the exponent
    cap, or a rational as rat_to_str writes it ("1"*40 is one)."""
    if text == "1" * 40:
        assert table_text(text) == text
        return
    with pytest.raises(ValueError):
        table_text(text)
    assert table_text("1" * 40 + "e-19688") and table_text("-" + "9" * 40 + "e0")


@pytest.mark.parametrize("k, fits", [(-19688, True), (19688, True), (-19689, False),
                                     (19689, False), (-21043, False)])
def test_render_writes_only_what_table_text_reads(k, fits):
    """render writes 10^39 10^k as table_text reads it while |k| <= 19688,
    and refuses any larger |k| with TableRangeError naming the entry."""
    num, den = (10 ** (k + 39), 1) if k + 39 >= 0 else (1, 10 ** -(k + 39))
    for up in (False, True):
        if fits:
            assert table_text(render(num, den, up)) == "1" + "0" * 39 + f"e{k}"
        else:
            with pytest.raises(TableRangeError, match=rf"^weights.x at i = 2: exponent {k} over"):
                render(num, den, up, "weights.x at i = 2")


@given(wide_rationals)
@settings(derandomize=True, max_examples=200, database=None)
@example(Fraction(0))
@example(Fraction(-7, 3))
@example(Fraction(10**19727))  # renders at exponent 19688
@example(Fraction(1, 10**19649))  # and at -19688
@example(Fraction(-(10**19728), 3))
@example(Fraction(-7, 10**19649))
def test_text_value_equals_the_parsed_text(x):
    """A rendered endpoint's value, built from its mantissa and exponent,
    equals Fraction of its text, at 0, negative values and the exponent cap
    ±19688; other forms ("0", a/b) are read by Fraction."""
    texts = (render(x.numerator, x.denominator, False), render(x.numerator, x.denominator, True))
    for text in texts:
        assert _text_value(text) == Fraction(text)
    assert enclosure(texts) == Interval(Fraction(texts[0]), Fraction(texts[1]))
    assert _text_value(str(x)) == x
