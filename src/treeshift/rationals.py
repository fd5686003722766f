"""Exact rational intervals, directed rounding, and the strict number
formats of artifact documents.

`Interval` arithmetic is done in `fractions.Fraction`, so interval
operations introduce no rounding of their own: the result interval always
contains the exact value of the operation applied to any members of the
operands.  Directed rounding happens only where series are summed (see
`series.py`), which rounds an exact rational onto a 2^-bits grid with
`scaled_floor` and `scaled_ceil`, and where a table enclosure is rounded
outward to RENDER_DIGITS significant digits (`render`).
"""

import re
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

from .errors import TableRangeError

# The library's own documents stay far below the default int<->str digit
# cap of 4,300 digits.  Two callers pass it, hence this raise:
# perfbench/worker.py's traced verify takes str() of the witness partial
# sum's denominator (14,620 digits on the series-bound workload), and
# `treeshift partial-sums` writes exact sums of up to MAX_RATIONAL_BITS
# (19,729 digits), past 4,300 digits within its default 100 rows on mixed q.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 1_000_000))

Rational = Union[Fraction, int]


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def point(x) -> "Interval":
        x = as_fraction(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def exact(self) -> Fraction:
        """The single member of a degenerate interval."""
        if not self.is_point:
            raise ValueError(f"interval {self} is not a point")
        return self.lo

    def contains(self, x) -> bool:
        x = as_fraction(x)
        return self.lo <= x <= self.hi

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    # --- arithmetic (exact, no rounding) ---
    #
    # Sums, negations, products and `abs` build their result with `_ordered`,
    # which skips the lo <= hi check: each computes the endpoints in order.  A
    # product with a rational multiplies both endpoints by it (swapping them
    # for a negative one), and a product of two nonnegative intervals is
    # [lo*lo', hi*hi']; both equal the four-product min/max.

    @staticmethod
    def _ordered(lo: Fraction, hi: Fraction) -> "Interval":
        iv = object.__new__(Interval)
        object.__setattr__(iv, "lo", lo)
        object.__setattr__(iv, "hi", hi)
        return iv

    def __add__(self, other) -> "Interval":
        if isinstance(other, Interval):
            return Interval._ordered(self.lo + other.lo, self.hi + other.hi)
        x = as_fraction(other)
        return Interval._ordered(self.lo + x, self.hi + x)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval._ordered(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        if isinstance(other, Interval):
            return Interval._ordered(self.lo - other.hi, self.hi - other.lo)
        x = as_fraction(other)
        return Interval._ordered(self.lo - x, self.hi - x)

    def __rsub__(self, other) -> "Interval":
        x = as_fraction(other)
        return Interval._ordered(x - self.hi, x - self.lo)

    def __mul__(self, other) -> "Interval":
        # the sign tests read numerators: a Fraction's denominator is positive
        lo, hi = self.lo, self.hi
        if not isinstance(other, Interval):
            x = as_fraction(other)
            if x.numerator >= 0:
                return Interval._ordered(lo * x, hi * x)
            return Interval._ordered(hi * x, lo * x)
        if lo.numerator >= 0 and other.lo.numerator >= 0:
            return Interval._ordered(lo * other.lo, hi * other.hi)
        products = (lo * other.lo, lo * other.hi, hi * other.lo, hi * other.hi)
        return Interval._ordered(min(products), max(products))

    __rmul__ = __mul__

    def recip(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError(f"interval {self} contains zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Interval":
        return self * coerce(other).recip()

    def __rtruediv__(self, other) -> "Interval":
        return coerce(other) * self.recip()

    def abs(self) -> "Interval":
        """Interval of |x| over x in self."""
        if self.lo.numerator >= 0:
            return self
        if self.hi.numerator <= 0:
            return -self
        return Interval._ordered(Fraction(0), max(-self.lo, self.hi))

    def abs_upper(self) -> Fraction:
        """Upper bound on |x| over x in self."""
        return max(abs(self.lo), abs(self.hi))

    def intersects(self, other) -> bool:
        other = coerce(other)
        return self.lo <= other.hi and other.lo <= self.hi

    def gap_to(self, other) -> Fraction:
        """Distance between self and other; 0 when they intersect.

        A positive gap is a certified lower bound on |x - y| for any
        x in self and y in other.
        """
        other = coerce(other)
        return max(Fraction(0), self.lo - other.hi, other.lo - self.hi)

    def __repr__(self):
        if self.is_point:
            return f"[{self.lo}]"
        return f"[{self.lo}, {self.hi}]"


def coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(as_fraction(x))


Scalar = Union[Fraction, Interval]


def accumulate(sums: dict, key, term: Scalar) -> None:
    """sums[key] += term, a missing key counting as 0.  A first term is
    stored as it is: that is 0 + term exactly, without the addition."""
    sums[key] = sums[key] + term if key in sums else term


def scalar_abs_upper(a: Scalar) -> Fraction:
    if isinstance(a, Interval):
        return a.abs_upper()
    return abs(a)


def scalar_upper(a: Scalar) -> Fraction:
    return a.hi if isinstance(a, Interval) else a


def scalar_lower(a: Scalar) -> Fraction:
    return a.lo if isinstance(a, Interval) else a


# --- directed rounding onto a dyadic grid ---


def scaled_floor(x: Fraction, bits: int) -> int:
    """floor(x * 2^bits): x rounded down onto the 2^-bits grid, in grid steps."""
    return (x.numerator << bits) // x.denominator


def scaled_ceil(x: Fraction, bits: int) -> int:
    """ceil(x * 2^bits): x rounded up onto the 2^-bits grid, in grid steps."""
    return -((-x.numerator << bits) // x.denominator)


# --- serialization helpers ---


def rat_to_str(x: Fraction) -> str:
    return str(as_fraction(x))


# A document's numbers are read back only in the form rat_to_str writes, or
# as rendered table endpoints (see `render`), and only up to this many bits
# in numerator and denominator: over 100x the largest number of the grid
# documents, the 449-bit endpoint 1.07...e-96 of weights.branch_first at
# i = 49 on mixed q (its denominator is 10^135).  Every identity residual
# reads "0", and the largest exact certificate is a 321-bit nd[1] enclosure.
MAX_RATIONAL_BITS = 1 << 16
_MAX_DIGITS = MAX_RATIONAL_BITS * 30103 // 100000 + 2  # digits of 2^MAX_RATIONAL_BITS, and "-"
_RATIONAL = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")


def rat_from_str(s: str) -> Fraction:
    """The rational a document stores as `rat_to_str` writes it: in lowest
    terms, a string of an optional "-", digits without a leading zero and an
    optional "/digits" other than "/1", numerator and denominator coprime and
    below 2^MAX_RATIONAL_BITS ("0" for zero).  Anything else (a number, an
    exponent, a decimal point, "02", "-0", "2/4", "2/1", an oversized value)
    raises ValueError, in time linear in the length of the string."""
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) and len(s) <= 2 * _MAX_DIGITS else None
    if match is None:
        raise ValueError(f"{repr(s)[:40]} is not a string [-]digits[/digits] within the cap")
    num, den = match.groups("1")
    if len(num) <= _MAX_DIGITS and len(den) <= _MAX_DIGITS:
        num, den = int(num), int(den)
        if max(num.bit_length(), den.bit_length()) <= MAX_RATIONAL_BITS:
            x = Fraction(num, den)
            if x.denominator == den and match.group(2) != "1":
                return x
    raise ValueError(f"{s[:40]!r}: not in lowest terms, or over {MAX_RATIONAL_BITS} bits")


# --- table enclosures, rounded outward ---

# Each endpoint of a table enclosure (c, the first-branch and trunk weights,
# the mixture prefactors and atom masses) is written "<m>e<k>": m of exactly
# RENDER_DIGITS decimal digits (more than 128 bits), the first nonzero, and
# k a signed exponent, lo rounded down and hi up, so the stored interval
# still encloses the exact value.  |k| <= _MAX_EXPONENT keeps every such
# number below 2^MAX_RATIONAL_BITS.
RENDER_DIGITS = 40
_MANTISSAS = range(10 ** (RENDER_DIGITS - 1), 10**RENDER_DIGITS)
_MAX_EXPONENT = MAX_RATIONAL_BITS * 30103 // 100000 - RENDER_DIGITS
_RENDERED = re.compile(r"-?[1-9][0-9]{%d}e(0|-?[1-9][0-9]{0,4})" % (RENDER_DIGITS - 1))

Rendered = Tuple[str, str]  # the (lo, hi) texts of a table enclosure


@lru_cache(maxsize=128)  # t <= 77 below the exponent cap
def _pow10_step(t: int) -> int:
    return 10 ** (t << 8)


def _pow10(j: int) -> int:
    """10^j (j >= 0) as the kept 10^(256 floor(j/256)) times a small power:
    at the exponents of tiny masses (|k| in the thousands) the product costs
    a small fraction of the power."""
    return _pow10_step(j >> 8) * 10 ** (j & 255)


def render(num: int, den: int, up: bool, where: str = "a table number") -> str:
    """num/den (den > 0) rounded down, or up, to RENDER_DIGITS significant
    digits, as the text "<m>e<k>" ("0" for zero): by integer division, as
    `scaled_floor`/`scaled_ceil` take, once the bit lengths have placed k
    within one of its value, and with no gcd.  Exact, and the one such text
    of the value, when it has at most RENDER_DIGITS significant digits.
    A k past _MAX_EXPONENT, which `table_text` does not read, raises
    TableRangeError naming `where`."""
    if num <= 0:
        return "-" + render(-num, den, not up, where) if num else "0"
    k = (num.bit_length() - den.bit_length()) * 30103 // 100000 - RENDER_DIGITS + 1
    a, b = (num, den * _pow10(k)) if k >= 0 else (num * _pow10(-k), den)
    m, r = divmod(a, b)  # k places floor(num/den / 10^k) in _MANTISSAS
    while m < _MANTISSAS.start:  # k one too large
        a, k = 10 * a, k - 1
        m, r = divmod(a, b)
    while m >= _MANTISSAS.stop:  # k one too small
        m, r, k = m // 10, r or m % 10, k + 1
    if up and r:
        m += 1
        if m == _MANTISSAS.stop:  # 10^40 10^k is 10^39 10^(k+1)
            m, k = m // 10, k + 1
    if abs(k) > _MAX_EXPONENT:
        raise TableRangeError(f"{where}: exponent {k} over {_MAX_EXPONENT}, "
                              "past what a document states")
    return f"{m}e{k}"


def render_interval(iv: Interval, num: int = 1, den: int = 1,
                    where: str = "a table number") -> Rendered:
    """iv * num/den (num/den > 0) as a table stores it: lo rendered down and
    hi up, each from the product of the numerators over the product of the
    denominators (see `render`; `where` names the entry)."""
    return (render(iv.lo.numerator * num, iv.lo.denominator * den, False, where),
            render(iv.hi.numerator * num, iv.hi.denominator * den, True, where))


def _text_value(s: str) -> Fraction:
    """The rational a table text states: "<m>e<k>" as m 10^k, built from the
    two integers, and any other form ("0", a/b) by Fraction."""
    m, e, k = s.partition("e")
    if not e:
        return Fraction(s)
    m, k = int(m), int(k)
    return Fraction(m * _pow10(k)) if k >= 0 else Fraction(m, _pow10(-k))


def enclosure(texts: Rendered) -> Interval:
    """The interval a rendered enclosure states."""
    return Interval(_text_value(texts[0]), _text_value(texts[1]))


def outward(iv: Interval, where: str = "a table number") -> Interval:
    """iv with each endpoint rounded outward as the table entry `where`
    stores it."""
    return enclosure(render_interval(iv, where=where))


def table_text(s) -> str:
    """s, when a table endpoint may be stored as it: in the rendered form
    with |k| <= _MAX_EXPONENT, or in rat_to_str's form (`rat_from_str`; a
    corrupted document writes a/b).  Anything else raises ValueError, in
    time linear in the length of the string.  The text is kept: `verify`
    compares it with the rule's rendering."""
    match = _RENDERED.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        rat_from_str(s)
    elif abs(int(match[1])) > _MAX_EXPONENT:
        raise ValueError(f"{s[:50]!r}: exponent over {_MAX_EXPONENT}")
    return s


def table_interval(obj) -> Rendered:
    """The (lo, hi) texts of a stored table enclosure (`table_text`)."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError(f"{str(obj)[:40]} is not a [lo, hi] pair")
    return table_text(obj[0]), table_text(obj[1])


def interval_to_json(iv: Interval) -> list:
    return [rat_to_str(iv.lo), rat_to_str(iv.hi)]


def interval_from_json(obj) -> Interval:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError(f"{str(obj)[:40]} is not a [lo, hi] pair")
    return Interval(rat_from_str(obj[0]), rat_from_str(obj[1]))


def scalar_to_json(x: Scalar):
    if isinstance(x, Interval):
        return interval_to_json(x)
    return rat_to_str(x)


def rat_to_decimal(x: Fraction, digits: int = 15) -> str:
    """Render a rational as a decimal with `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)
