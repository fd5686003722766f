"""Certified evaluation of the generator's weighted power series.

The series handled here have the form  sum_i alpha_i * q_i^l  where the
coefficients alpha are produced by the counterexample construction:

  * on a subsequence Omega = {i_k} with q_{i_k} >= k the coefficients are
    alpha_{i_k} = 1/(k^2 q_{i_k}^n), so the terms at exponent l <= n are
    q_{i_k}^{l-n}/k^2 and the terms at l = n+1 dominate the harmonic series;
  * off Omega the coefficients are chosen so that alpha_i * q_i^l <= 2^{-i}
    for every exponent l <= n, giving a geometric tail.

Convergent verdicts carry an interval enclosure: partial sums are
accumulated in fixed-point arithmetic with directed rounding (denominator
2^dyadic_bits).  On Omega's affine tail i_k = a*k + b the omitted terms are
1/(k^2 (a*k+b)^m); with d = b/a an integer, partial fractions turn their sum
into Hurwitz zeta tails zeta(p, N) and |d| exact reciprocals, and each zeta
is bracketed by its Euler-Maclaurin expansion, whose remainder is bounded by
its first omitted Bernoulli term (F. Johansson, "Rigorous high-precision
computation of the Hurwitz zeta function and its derivatives",
arXiv:1309.2877), summed in fixed point with directed rounding, the
Bernoulli numbers coming from integer tangent numbers; the off-Omega tail
is geometric.  Tail bounds are rounded outward onto the same 2^-dyadic_bits
grid, so every enclosure endpoint is dyadic.
Divergent verdicts carry a harmonic minorant, the witness index at which
the on-Omega partial sum first crosses a configurable threshold, and a
certified dyadic lower bound of that partial sum, itself above the
threshold; the exact partial sum itself is not kept.  Above l = n+1 the
terms dominate those at l = n+1, whose witness is reused.  Both kinds of
sum add the on-Omega floors floor(2^bits q_{i_k}^s / k^2), s = l - n, of one
integer kernel, so they store the same numbers an exact rational loop would.
The crossing rule "S_k > T and floor(2^128 S_k) > 2^128 T" is monotone in
k (the terms are nonnegative), so the witness is found by bisections over
the running sums of the first 256 floors, a chunk at a time (on to 1024
when a bound says the crossing may lie there), and, past them, by
bisection on a closed form: for
linear terms (a*k + b)/k^2, S_k = C + a (H_k - gamma) - b zeta(2, k+1),
with ln k from an integer atanh series, H_k - ln k - gamma and
zeta(2, k+1) (only when b != 0) from Euler-Maclaurin expansions whose
remainders are bounded by their first omitted terms, all in fixed point
with directed rounding; a step next to one already bracketed adds or
subtracts the exact term between them instead.
A step whose bracket straddles a 2^-128 grid point is redone with more
bits, up to a stated cap, and never guessed.  The cost grows like log K,
and a threshold whose witness index would reach 2^512 is rejected.

Everything below a certificate is an exact rational; enclosures are sound
by construction, never heuristic.
"""

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, lru_cache, reduce
from bisect import bisect_right
from itertools import accumulate
from math import exp
from operator import mul
from typing import ClassVar, Dict, Iterator, List, Optional, Tuple

from .errors import (
    NoCertificateError,
    SupNotWitnessedError,
    ThresholdNotReachedError,
    WidthNotReachedError,
)
from .rationals import (Interval, as_fraction, rat_from_str, rat_to_decimal, rat_to_str,
                        scaled_ceil, scaled_floor)

@dataclass(frozen=True)
class CertConfig:
    """Certificate settings: two values a caller sets, five library constants.

    series_width is the per-series enclosure width target; a divergence
    witness must exceed divergence_threshold.  max_terms caps the explicit
    terms of any one series.  check_tol is stated in documents but decides
    nothing: identity records are decided exactly (see `Monomial`).
    """

    series_width: Fraction = Fraction(1, 10**12)
    divergence_threshold: Fraction = Fraction(10)
    check_tol: ClassVar[Fraction] = Fraction(1, 10**10)
    max_terms: ClassVar[int] = 1_200_000
    off_omega_terms: ClassVar[int] = 48
    dyadic_bits: ClassVar[int] = 320
    max_power: ClassVar[int] = 16

    def __post_init__(self):
        if not (self.series_width > 0 and self.divergence_threshold > 0):
            raise ValueError("series_width and divergence_threshold must be positive")


DEFAULT_CONFIG = CertConfig()


class Tail(Enum):
    LINEAR = "linear"
    MIXED = "mixed"
    CONSTANT = "constant"


@dataclass(frozen=True)
class SequenceSpec:
    """Closed-form positive rational sequence i (1-based) -> q_i.

    A finite prefix of explicit values followed by a named tail rule:
    linear (q_i = i), mixed (q_i = i for even i, 1/i for odd i), or
    constant (repeat the last prefix value).
    """

    tail: Tail = Tail.LINEAR
    prefix: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(as_fraction(x) for x in self.prefix))
        if any(x <= 0 for x in self.prefix):
            raise ValueError("sequence values must be positive")
        if self.tail is Tail.CONSTANT and not self.prefix:
            raise ValueError("constant tail needs a nonempty prefix")

    def value(self, i: int) -> Fraction:
        if i < 1:
            raise ValueError("sequence index must be >= 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if self.tail is Tail.LINEAR:
            return Fraction(i)
        if self.tail is Tail.MIXED:
            return Fraction(i) if i % 2 == 0 else Fraction(1, i)
        return self.prefix[-1]

    def to_json(self):
        return {"tail": self.tail.value, "prefix": [rat_to_str(x) for x in self.prefix]}

    @staticmethod
    def from_json(obj) -> "SequenceSpec":
        if not isinstance(obj["prefix"], list):
            raise TypeError(f"prefix {str(obj['prefix'])[:40]} is not a list")
        return SequenceSpec(Tail(obj["tail"]), tuple(map(rat_from_str, obj["prefix"])))


LINEAR_Q = SequenceSpec(Tail.LINEAR)
MIXED_Q = SequenceSpec(Tail.MIXED)


@dataclass(frozen=True)
class OmegaSpec:
    """The subsequence i_k chosen greedily so that q_{i_k} >= k.

    head holds the indices before affine_from; from affine_from onward
    i_k = slope*k + intercept with q_{i_k} = i_k (`build_omega` derives
    this from the tail rule).
    """

    head: tuple
    affine_from: int
    slope: int
    intercept: int

    @property
    def covers_all(self) -> bool:
        """True when Omega = N (every index is on the subsequence)."""
        return (
            self.slope == 1
            and self.head == tuple(range(1, len(self.head) + 1))
            and self.intercept == 0
        )

    def index(self, k: int) -> int:
        if k < 1:
            raise ValueError("k must be >= 1")
        if k <= len(self.head):
            return self.head[k - 1]
        return self.slope * k + self.intercept

    def k_of(self, i: int) -> Optional[int]:
        """The k with i_k == i, or None when i is off the subsequence."""
        if self.head and i <= self.head[-1]:
            try:
                return self.head.index(i) + 1
            except ValueError:
                return None
        d, r = divmod(i - self.intercept, self.slope)
        return d if r == 0 and d >= self.affine_from else None

    def contains(self, i: int) -> bool:
        return self.k_of(i) is not None

    def to_json(self):
        return {
            "head": list(self.head),
            "affine_from": self.affine_from,
            "slope": self.slope,
            "intercept": self.intercept,
        }


def build_omega(q: SequenceSpec) -> OmegaSpec:
    """Greedy subsequence: i_k = smallest index > i_{k-1} with q_i >= k.

    One pass over the prefix keeps each index whose value reaches the
    current k; an index it skips has q_i < k, and k only grows, so it never
    qualifies later.  The tail rule gives every later index, each with
    q_{i_k} = i_k >= k, since the first one is past the prefix and k is at
    most one more than the prefix length:
      * linear (q_i = i): every index past the prefix P, so slope 1 from
        index P + 1;
      * mixed (q_i = i for even i, 1/i for odd i): index 1 when the prefix
        is empty (q_1 = 1), then every even index, since q_i < 1 <= k at
        every other odd index;
      * constant: sup q_i is the largest value, so SupNotWitnessedError.
    So the head holds exactly the indices before affine_from.
    """
    if q.tail is Tail.CONSTANT:
        raise SupNotWitnessedError(
            "q has a constant tail (sup q_i looks bounded): no subsequence has q_{i_k} >= k"
        )
    head = []
    for i, x in enumerate(q.prefix, 1):
        if x >= len(head) + 1:
            head.append(i)
    P = len(q.prefix)
    if q.tail is Tail.LINEAR:
        slope, first = 1, P + 1
    else:
        if not P:
            head.append(1)
        slope, first = 2, P + 2 - P % 2  # the first even index past the prefix and past 1
    k = len(head) + 1
    return OmegaSpec(tuple(head), k, slope, first - slope * k)


@dataclass(frozen=True)
class AlphaFamily:
    """Generator coefficients with on/off-Omega tail metadata.

    On Omega: alpha_{i_k} = scale / (k^2 q_{i_k}^n).
    Off Omega: alpha_i = scale * 2^{-i} / sum_{k=1}^{i} q_i^{n+1-k}.
    The scale factor is carried symbolically, so enclosures of rescaled
    families are exact rational multiples of the base enclosures.
    """

    q: SequenceSpec
    omega: OmegaSpec
    power: int
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "scale", as_fraction(self.scale))
        if self.power < 1:
            raise ValueError("power must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def rescaled(self, r) -> "AlphaFamily":
        return replace(self, scale=self.scale * as_fraction(r))

    def on_omega_value(self, k: int) -> Fraction:
        qv = self.q.value(self.omega.index(k))
        return self.scale / (k * k * qv**self.power)

    def off_omega_value(self, i: int) -> Fraction:
        if self.omega.contains(i):
            raise ValueError(f"index {i} is on Omega")
        return self.scale * Fraction(1, 2**i) / _slon4_denominator(self.q, self.power, i)

    @cached_property
    def _values(self) -> Dict[int, Fraction]:
        return {}

    @cached_property
    def _certificates(self) -> Dict[Tuple[int, CertConfig], "SeriesCertificate"]:
        return {}

    def value(self, i: int) -> Fraction:
        """alpha_i, computed once per instance and index."""
        if i not in self._values:
            k = self.omega.k_of(i)
            self._values[i] = self.on_omega_value(k) if k is not None else self.off_omega_value(i)
        return self._values[i]

    def to_json(self):
        return {"power": self.power, "scale": rat_to_str(self.scale)}


def _slon4_denominator(q: SequenceSpec, n: int, i: int) -> Fraction:
    """sum_{k=1}^{i} q_i^{n+1-k}: the row sum bounding alpha_i on column k.

    Summed in closed form as the geometric series q^{n+1-i} (q^i - 1)/(q - 1).
    """
    qv = q.value(i)
    if qv == 1:
        return Fraction(i)
    return qv ** (n + 1 - i) * (qv**i - 1) / (qv - 1)


@dataclass(frozen=True)
class SeriesCertificate:
    """Machine-checkable verdict for a nonnegative series.

    Convergent: enclosure [partial_lo + tail_lo, partial_hi + tail_hi]
    where [partial_lo, partial_hi] brackets the computed partial sum
    (directed fixed-point rounding) and [tail_lo, tail_hi] brackets the
    omitted tail: an Euler-Maclaurin bracket of the on-Omega zeta tail plus
    the geometric off-Omega tail, rounded outward to the dyadic grid.

    Divergent: the on-Omega terms dominate 1/k; witness_index is the first
    k at which the exact partial sum of those terms exceeds the threshold
    with a dyadic floor (denominator 2^128) that does too, and
    witness_partial_lb is that floor: a certified lower bound of the
    partial sum, strictly above the threshold.
    """

    terms: str
    verdict: str  # "convergent" | "divergent"
    scale: Fraction = Fraction(1)
    enclosure: Optional[Interval] = None
    tail_rule: str = ""
    terms_used: int = 0
    omega_terms: int = 0
    off_terms: int = 0
    partial_lo: Optional[Fraction] = None
    partial_hi: Optional[Fraction] = None
    tail_lo: Optional[Fraction] = None
    tail_hi: Optional[Fraction] = None
    minorant: str = ""
    threshold: Optional[Fraction] = None
    witness_index: Optional[int] = None
    witness_partial_lb: Optional[Fraction] = None  # compact dyadic bound > threshold

    @property
    def is_convergent(self) -> bool:
        return self.verdict == "convergent"

    @property
    def width(self) -> Fraction:
        return self.enclosure.width

    def to_json(self):
        out = {"terms": self.terms, "verdict": self.verdict, "scale": rat_to_str(self.scale)}
        if self.is_convergent:
            out.update(
                enclosure=[rat_to_str(self.enclosure.lo), rat_to_str(self.enclosure.hi)],
                tail_rule=self.tail_rule,
                terms_used=self.terms_used,
                omega_terms=self.omega_terms,
                off_terms=self.off_terms,
                partial_lo=rat_to_str(self.partial_lo),
                partial_hi=rat_to_str(self.partial_hi),
                tail_lo=rat_to_str(self.tail_lo),
                tail_hi=rat_to_str(self.tail_hi),
            )
        else:
            out.update(
                minorant=self.minorant,
                threshold=rat_to_str(self.threshold),
                witness_index=self.witness_index,
                witness_partial_lb=rat_to_str(self.witness_partial_lb),
            )
        return out


@cache
def _tangent_numbers(n: int) -> Tuple[int, ...]:
    """T_1..T_n by Brent and Harvey's integer recurrence ("Fast computation
    of Bernoulli, Tangent and Secant numbers", arXiv:1108.0286, algorithm
    TangentNumbers): T_k = (k-1)! at first, then for k = 2..n every
    T_j, j >= k, becomes (j-k) T_{j-1} + (j-k+2) T_j."""
    T = [1]
    for k in range(2, n + 1):
        T.append((k - 1) * T[-1])
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j - 1] = (j - k) * T[j - 2] + (j - k + 2) * T[j - 1]
    return tuple(T)


def tangent_number(j: int) -> int:
    """T_j = tan^(2j-1)(0), the j-th tangent number (1, 2, 16, 272, ...),
    for j >= 1, from a table of at least 16 that doubles on demand."""
    return _tangent_numbers(max(16, 1 << (j - 1).bit_length()))[j - 1]


def _em_fixed(p: int, N: int, bits: int) -> Iterator[Tuple[int, int, int, int]]:
    """(lo, hi, r, d) for J = 1, 2, ...: lo <= 2^bits x <= hi, where x is
    zeta(p, N) = sum_{k>=N} k^-p for p >= 2 and H_N - ln N - gamma for
    p = 1, from J Euler-Maclaurin terms, and r/d is their remainder bound R.

    For p >= 2 the expansion is
      zeta(p, N) = N^{1-p}/(p-1) + N^{-p}/2 + sum_{j<=J} t_j + rem,
      t_j = B_2j/(2j)! (p)_{2j-1} N^{1-p-2j}
          = (-1)^(j-1) T_j (p)_{2j-1} / ((2j-1)! 4^j (4^j - 1) N^{p+2j-1}),
    and every even derivative of x^-p is positive on (0, inf), so rem lies
    between 0 and t_{J+1}: |rem| <= R = |t_{J+1}| (F. Johansson,
    arXiv:1309.2877, section 2; F. W. J. Olver, Asymptotics and Special
    Functions, 8.1).  For p = 1, H_N - gamma = psi(N) + 1/N, and the
    digamma expansion gives H_N - ln N - gamma = 1/(2N) - sum_{j<=J} t_j +
    rem with t_j = B_2j/(2j N^2j), the same formula at p = 1, and the same
    bound on rem (NIST DLMF 5.11.2 and 5.11(ii)).

    Each term is an integer quotient, floored into lo and ceiled into hi,
    and R is ceiled onto both ends, so [lo, hi] holds the exact bracket
    2^bits [S - R, S + R], each end at most J + 2 grid steps outside it.
    No Fraction is built.  For N >= 1."""
    sign = -1 if p == 1 else 1
    lead = [(1, 2 * N)] if p == 1 else [(1, (p - 1) * N ** (p - 1)), (1, 2 * N**p)]
    lo = sum((num << bits) // den for num, den in lead)
    hi = -sum((-num << bits) // den for num, den in lead)
    # t_j = num/den from (p)_{2j-1}, (2j-1)!, 4^j and N^{p+2j-1}; T_1 = 1
    rising, fact, four, power, n2, j = p, 1, 4, N ** (p + 1), N * N, 1
    num, den = sign * rising, fact * four * (four - 1) * power
    while True:
        lo += (num << bits) // den
        hi -= (-num << bits) // den
        rising *= (p + 2 * j - 1) * (p + 2 * j)
        fact *= 2 * j * (2 * j + 1)
        four, power, sign, j = four << 2, power * n2, -sign, j + 1
        num, den = sign * tangent_number(j) * rising, fact * four * (four - 1) * power
        r = abs(num)
        ceil_r = -((-r << bits) // den)
        yield lo - ceil_r, hi + ceil_r, r, den


def _em_bracket(p: int, N: int, bits: int) -> Tuple[int, int]:
    """(lo, hi) of `_em_fixed(p, N, bits)` at the first J whose remainder
    is below 2^-bits, or at the last J before the remainder stops
    shrinking; both rules compare the exact remainders."""
    prev = None
    for lo, hi, r, d in _em_fixed(p, N, bits):
        if prev is not None and r * prev[3] >= prev[2] * d:
            return prev[:2]
        if r << bits < d:
            return lo, hi
        prev = lo, hi, r, d


@cache
def _zeta_fixed_brackets(p: int, N: int, bits: int):
    """The pairs _zeta_fixed has found for (p, N, bits), J = 1, 2, ..., and
    the kernel that extends them: memoized like the tangent numbers, since each
    pair is a pure function of (p, N, J, bits)."""
    return [], _em_fixed(p, N, bits)


def _zeta_fixed(p: int, N: int, J: int, bits: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2^bits zeta(p, N) <= hi, from J Bernoulli terms."""
    pairs, brackets = _zeta_fixed_brackets(p, N, bits)
    while len(pairs) < J:
        pairs.append(next(brackets)[:2])
    return pairs[J - 1]


def _em_width_floor(p: int, N: int, limit: Fraction) -> Fraction:
    """A lower bound on the width 2R of every exact Euler-Maclaurin bracket
    of zeta(p, N) (`_em_fixed`, J >= 1), or, once some J may give a bracket
    at most `limit` wide, a value <= limit.  |B_2j|/(2j)! =
    2 zeta(2j)/(2 pi)^2j > 2/(2 pi)^2j, so the J-th bracket is wider than
      w_J = 4 (p)_{2J+1} / ((P/Q)^{2J+2} N^{p+2J+1}),  P/Q = 710/113 > 2 pi,
    and w_{J+1}/w_J = (p+2J+1)(p+2J+2) Q^2/(P N)^2: w_J falls until that
    ratio reaches 1, and rises after."""
    P, Q = 710, 113
    num, den, J = 4 * p * (p + 1) * (p + 2) * Q**4, P**4 * N ** (p + 3), 1
    while num * limit.denominator > limit.numerator * den:
        r = (p + 2 * J + 1) * (p + 2 * J + 2) * Q * Q
        if r >= (P * N) ** 2:
            break
        num, den, J = num * r, den * (P * N) ** 2, J + 1
    return Fraction(num, den)


def _on_tail_bounds(a: int, b: int, m: int, K: int, budget: Fraction, bits: int):
    """(lo, hi, J): a bracket of sum_{k>K} 1/(k^2 (a*k+b)^m), the on-Omega
    tail, with dyadic endpoints (denominator 2^bits); None when no J can
    make it at most `budget` wide.

    With d = b/a (an integer for every Omega build_omega derives: linear
    tails have slope 1, mixed tails slope 2 and an even intercept; any other
    shift raises NoCertificateError), each term is a^-m x^-2 (x+d)^-m at
    x = k.  Expanding (x+d)^-m about x = 0, and x^-2 = d^-2 (1 - y/d)^-2 =
    d^-2 sum_r (r+1) (y/d)^r about y = x + d = 0, gives
      x^-2 (x+d)^-m = A2/x^2 + A1/x + sum_{j=1..m} B_j/(x+d)^j,
      A2 = d^-m,  A1 = -m d^-(m+1),  B_j = (m-j+1) d^-(m-j+2).
    A1 + B_1 = 0, so the 1/x and 1/(x+d) terms telescope to A1 E with
    E = sum_{K<k<=K+d} 1/k (d > 0) or -sum_{K+d<k<=K} 1/k (d < 0), and
      tail = a^-m (A2 zeta(2, K+1) + A1 E + sum_{j=2..m} B_j zeta(j, K+1+d)),
    or a^-m zeta(m+2, K+1) when m = 0 or d = 0.  The parts cancel from O(1)
    to far below 2^-bits, so each zeta gets J Euler-Maclaurin terms on the
    2^-(bits+64) grid (`_em_fixed`: each end at most J + 2 steps outside
    the exact bracket), the parts are combined there in integers with
    directed rounding, and the sum is rounded outward to 2^-bits once.  J
    grows for every zeta together until the bracket is at most `budget`
    wide, or until another term no longer narrows it.

    That width is at least |coefficient| times the width of the first
    zeta's bracket at the same J (`_em_width_floor`), and after lo is
    clipped at 0 at least the tail itself, which exceeds its first term.
    When both bounds exceed the budget, no J is tried.
    """
    if m and b % a:
        raise NoCertificateError(f"Omega tail shift {b}/{a} is not an integer")
    d = b // a if m else 0
    if K + 1 + d < 1:
        raise NoCertificateError("affine tail coefficient not positive")
    # (coefficient, p, N) of each zeta(p, N), and the telescoped exact part
    parts, exact = [(Fraction(1, a**m), m + 2, K + 1)], Fraction(0)
    if d:
        parts = [(Fraction(1, (a * d) ** m), 2, K + 1)] + [
            (Fraction(m - j + 1, a**m * d ** (m - j + 2)), j, K + 1 + d) for j in range(2, m + 1)]
        E = (sum(Fraction(1, k) for k in range(K + 1, K + 1 + d))
             - sum(Fraction(1, k) for k in range(K + 1 + d, K + 1)))
        exact = Fraction(-m, a**m * d ** (m + 1)) * E
    c, p, N = parts[0]
    if min(abs(c) * _em_width_floor(p, N, budget / abs(c)),
           Fraction(1, (K + 1) ** 2 * (a * (K + 1) + b) ** m)) > budget:
        return None
    fine = bits + 64
    exact_lo, exact_hi = scaled_floor(exact, fine), scaled_ceil(exact, fine)
    best, J = None, 0
    while True:
        J += 1
        lo, hi = exact_lo, exact_hi
        for c, p, N in parts:
            z_lo, z_hi = _zeta_fixed(p, N, J, fine)[:: 1 if c > 0 else -1]
            lo += c.numerator * z_lo // c.denominator
            hi -= -c.numerator * z_hi // c.denominator
        if best and hi - lo >= best[1] - best[0]:
            break  # the expansion has stopped converging: keep the previous J
        best = lo, hi, J
        if (hi - lo) * budget.denominator <= budget.numerator << fine:
            break
    lo, hi, J = best
    return max(Fraction(0), Fraction(lo >> 64, 1 << bits)), Fraction(-(-hi >> 64), 1 << bits), J


def _head_ratios(q, omega, stop: int) -> List[Tuple[int, int]]:
    """(numerator, denominator) of q_{i_k} for the head's k <= stop."""
    return [q.value(i).as_integer_ratio() for i in omega.head[:stop]]


def _on_omega_floors(head, omega, s: int, bits: int, stop: int, start: int = 1) -> List[int]:
    """floor(2^bits q_{i_k}^s / k^2) for k = start..stop: the on-Omega terms
    of sum_i alpha_i q_i^l at s = l - n, each floored onto the 2^-bits grid
    by one integer division, so their sum is what exact rational floors
    would add.  head holds q_{i_k} as `_head_ratios` gives it, at least up
    to k = min(stop, len(omega.head)); past omega.head, q_{i_k} is the index
    i_k = slope*k + intercept itself (build_omega derives the affine tail
    from the tail rule, where q_i = i at every index it keeps)."""
    e, a, b = abs(s), omega.slope, omega.intercept
    h = max(start - 1, min(stop, len(omega.head)))  # the last k read from the head
    u, v = [x for x, _ in head[start - 1:h]], [y for _, y in head[start - 1:h]]
    v += [1] * (stop - h)
    # i_k = a*k + b past the head; a = 0 only in an Omega made by hand
    u += range(a * (h + 1) + b, a * (stop + 1) + b, a) if a else [b] * (stop - h)
    if s < 0:
        u, v = v, u
    if e != 1:
        u, v = [x**e for x in u], [y**e for y in v]
    return [(x << bits) // (y * k * k) for k, x, y in zip(range(start, stop + 1), u, v)]


@lru_cache(maxsize=16)
def _off_omega_bases(q, omega, I: int) -> Tuple[Tuple[int, int, int, int, int], ...]:
    """(i, u, v, num, den) for each index i <= I off Omega, with q_i = u/v
    and den > 0: the term 2^-i q_i^l / D_i of sum_i alpha_i q_i^l is
    num/den q_i^(l-n-1+i), where D_i = q_i^(n+1-i) (q_i^i - 1)/(q_i - 1)
    (`_slon4_denominator`), so num/den = (u - v) v^(i-1) / ((u^i - v^i) 2^i),
    or 1/(i 2^i) with u = v = 1 when q_i = 1.  No base depends on n or l, so
    every exponent of every power of a request shares them."""
    out = []
    for i in range(1, I + 1):
        if omega.contains(i):
            continue
        u, v = q.value(i).as_integer_ratio()
        if u == v:
            out.append((i, 1, 1, 1, i << i))
        else:
            num, den = (u - v) * v ** (i - 1), (u**i - v**i) << i
            out.append((i, u, v, num, den) if den > 0 else (i, u, v, -num, -den))
    return tuple(out)


def _convergent_base(q, omega, n, l, cfg) -> SeriesCertificate:
    """Unscaled convergent certificate for sum_i alpha_i q_i^l, l <= n."""
    m = n - l
    off_empty = omega.covers_all
    I = 0 if off_empty else max(cfg.off_omega_terms, n + 1 - l, 1)
    off_tail_hi = Fraction(0) if off_empty else Fraction(1, 2**I)

    bits = cfg.dyadic_bits

    def missed():  # the error text, built only when it is raised
        width = rat_to_decimal(cfg.series_width, 3)
        return f"sum_i alpha_i*q_i^{l}: series_width {width} not reached"

    K = max(16, omega.affine_from)
    while True:
        # the tail's share of the width: the rest goes to the off-Omega tail
        # and the K + I grid steps the floors may lose
        spent = off_tail_hi + Fraction(K + I, 1 << bits)
        budget = cfg.series_width - spent
        if budget <= 0:  # a larger K only shrinks the budget
            raise WidthNotReachedError(
                f"{missed()}; the off-Omega tail and the rounding alone take "
                f"{rat_to_decimal(spent, 3)} at {K} on-Omega terms"
            )
        tail = _on_tail_bounds(omega.slope, omega.intercept, m, K, budget, bits)
        if tail and tail[1] - tail[0] <= budget:
            break
        if K >= cfg.max_terms:
            raise WidthNotReachedError(
                f"{missed()}; {K} on-Omega terms give width "
                f"{rat_to_decimal(spent + tail[1] - tail[0], 3)}, of which the off-Omega tail "
                f"and the rounding take {rat_to_decimal(spent, 3)}" if tail else
                f"{missed()}; Euler-Maclaurin cannot bracket the tail beyond {K} on-Omega "
                f"terms within {rat_to_decimal(budget, 3)}"
            )
        K = min(2 * K, cfg.max_terms)
    t_lo, t_hi, J = tail

    # the floors of the first K on-Omega terms and of the off-Omega terms, each
    # its shared base times q_i^(l-n-1+i) by one integer division: the exact
    # partial sum of those K + len(off) terms lies in [lo, lo + K + len(off)] / 2^bits
    lo = sum(_on_omega_floors(_head_ratios(q, omega, K), omega, -m, bits, K))
    off = _off_omega_bases(q, omega, I)
    for i, u, v, num, den in off:
        e = l - n - 1 + i
        num, den = (num * u**e, den * v**e) if e >= 0 else (num * v**-e, den * u**-e)
        lo += (num << bits) // den

    partial_lo, partial_hi = Fraction(lo, 1 << bits), Fraction(lo + K + len(off), 1 << bits)
    tail_lo = t_lo
    tail_hi = t_hi + off_tail_hi
    d = omega.intercept // omega.slope if m else 0
    rule = f"on-Omega tail beyond k={K}: " + (
        f"((q_slope*k+q_icept)/k)^-{m} bounds times zeta({m + 2}, {K + 1})" if d == 0 else
        f"k^-2 (q_slope*k+q_icept)^-{m} in partial fractions over k and k{d:+d}: "
        f"zeta(2, {K + 1}), zeta(j, {K + 1 + d}) for 2 <= j <= {m}, and {abs(d)} exact reciprocals"
    ) + f", bracketed by Euler-Maclaurin with {J} Bernoulli terms"
    if not off_empty:
        rule += f"; off-Omega tail: sum_{{i>{I}}} 2^-i = 2^-{I}"
    return SeriesCertificate(
        terms=f"sum_i alpha_i*q_i^{l}",
        verdict="convergent",
        enclosure=Interval(partial_lo + tail_lo, partial_hi + tail_hi),
        tail_rule=rule,
        terms_used=K + len(off),
        omega_terms=K,
        off_terms=len(off),
        partial_lo=partial_lo,
        partial_hi=partial_hi,
        tail_lo=tail_lo,
        tail_hi=tail_hi,
    )


def dyadic_floor(x: Fraction) -> Fraction:
    return Fraction(scaled_floor(x, 128), 1 << 128)


_WITNESS_BITS = 192  # 128 bits of the stored dyadic floor plus 64 guard bits
_WITNESS_PREFIX = 256  # the explicit floors always summed, unless the head is longer
_WITNESS_LOOP = 1024  # the explicit floors summed when the crossing may lie below this
_MAX_WITNESS_BITS = 512  # a witness index must be below 2^512
_MAX_GUARD_BITS = 512  # closed form: the most extra bits tried on an open step
_NEWTON_STEPS = 6  # closed form: steering steps before the gallop, which decides


def _divergent_base(q, omega, n, l, cfg) -> SeriesCertificate:
    """Unscaled divergent certificate for l >= n+1: harmonic minorant.

    For m = l - n >= 2 every on-Omega term q_{i_k}^m/k^2 is at least the
    m = 1 term q_{i_k}/k^2, since q_{i_k} >= k >= 1, so the certificate is
    the m = 1 one, witness and all, with a minorant saying so.

    For m = 1 the witness is the first k at which the on-Omega partial sum
    S_k exceeds the threshold T and so does dyadic_floor(S_k).  The terms
    are nonnegative, so S_k and floor(2^128 S_k) never decrease in k, and
    since dyadic_floor(S_k) <= S_k the rule is the monotone predicate
    floor(2^128 S_k) > 2^128 T: the witness is the least k where it holds,
    and any search that decides that predicate exactly finds it.

    The minorant q_{i_k} >= k is checked once, for every k: on each head
    entry, and on the affine tail i_k = a*k + b by a >= 1 and
    (a - 1) k + b >= 0 at the first tail k, which then holds for every
    later k; otherwise NoCertificateError names the first k that breaks it.

    The first k0 = max(256, len(omega.head)) steps are decided on the
    running sums lo of _on_omega_floors' floor(2^W * term) (W = 192),
    taken in chunks of 64, 64, 128, 256, ... terms, so after k terms S_k
    lies in [lo, lo + k] / 2^W.  That bracket decides each step: S_k <= T
    when (lo + k)/2^W <= T, which holds up to some k and never after, so a
    bisection over each chunk's sums skips those steps; and
    when lo/2^W > T with lo and lo + k agreeing above bit 64, S_k > T and
    dyadic_floor(S_k) is exactly (lo >> 64)/2^128.  A step the bracket
    leaves open (S_k within k/2^W of T or of a 2^-128 grid point) is
    decided on the exact sum witness_partial_sum.

    Past k0 the terms are (a*k + b)/k^2, so S_k < S_k0 + a ln(k/k0) +
    max(b, 0)/k0.  When that bound (ln 2 rounded up, ln(k/k0) at most e ln 2
    with k0 2^e >= 1024) lets S_1024 pass T, the explicit sum runs on to
    1024, again in chunks of 64, 64, 128, ... from k0; so mixed q's K = 261
    at T = 10 stays on it.  Otherwise, and past 1024, the steps go to
    _closed_form_witness, which brackets S_k in closed form and bisects on
    the predicate in O(log K) evaluations.  The bound picks the method
    only: witness_index and witness_partial_lb are those of the exact rule
    either way.  k0 >= 256 keeps every precision retry of the closed form
    decidable (see there), and a smaller k0 would need more Bernoulli terms
    per Euler-Maclaurin bracket of E(k0).
    """
    m = l - n  # >= 1
    if m > 1:
        return replace(_divergent_base(q, omega, n, n + 1, cfg), terms=f"sum_i alpha_i*q_i^{l}",
                       minorant=f"on-Omega terms q_{{i_k}}^{m}/k^2 >= q_{{i_k}}/k^2 >= 1/k "
                       f"(harmonic, since q_{{i_k}} >= k >= 1), witnessed on the partial sums "
                       f"of q_{{i_k}}/k^2; remaining terms nonnegative")
    head = _head_ratios(q, omega, len(omega.head))
    for k, (u, v) in enumerate(head, 1):
        if u < k * v:
            raise NoCertificateError(f"q_{{i_{k}}} = {Fraction(u, v)} < {k}: minorant broken")
    a, b, k = omega.slope, omega.intercept, len(omega.head) + 1
    if a < 1:  # (a - 1) k + b falls in k: the first k where it is negative
        k = max(k, b // (1 - a) + 1)
    if a < 1 or (a - 1) * k + b < 0:
        raise NoCertificateError(f"q_{{i_{k}}} = {a * k + b} < {k}: minorant broken")
    T = as_fraction(cfg.divergence_threshold)
    t_den, t_num_w = T.denominator, T.numerator << _WITNESS_BITS
    guard = _WITNESS_BITS - 128
    bound = t_num_w // t_den  # S_k <= T while lo + k <= bound
    last, lo, stop, base = max(_WITNESS_PREFIX, len(omega.head)), 0, 0, 0
    while stop < last:  # in chunks of 64, 64, 128, ... from base, so an early witness sums few floors
        start, stop = stop + 1, min(stop + max(64, stop - base), last)
        sums = list(accumulate(_on_omega_floors(head, omega, 1, _WITNESS_BITS, stop, start),
                               initial=lo))  # lo after k terms at k - start + 1
        lo = sums[-1]
        # lo + k grows with k: bisect for the first k of the chunk past the bound
        first = start + bisect_right(range(start, stop + 1), bound,
                                     key=lambda k: sums[k - start + 1] + k)
        for k in range(first, stop + 1):
            lo_k = sums[k - start + 1]
            if lo_k * t_den > t_num_w and lo_k >> guard == (lo_k + k) >> guard:
                lb = Fraction(lo_k >> guard, 1 << 128)
            else:
                S = witness_partial_sum(AlphaFamily(q, omega, n), l, k)
                lb = dyadic_floor(S) if S > T else None
            # stop at the first crossing whose dyadic floor still exceeds T
            if lb is not None and lb > T:
                break
        else:
            # for last < k <= last 2^e, S_k < S_last + a e ln 2 + max(b, 0)/last,
            # ln 2 < 45427/2^16: sum on to _WITNESS_LOOP only when that bound
            # passes T there
            if stop == last < _WITNESS_LOOP:
                e = ((_WITNESS_LOOP - 1) // last).bit_length()  # last 2^e >= _WITNESS_LOOP
                rise = (a * e * 45427 << (_WITNESS_BITS - 16)) + (max(b, 0) << _WITNESS_BITS) // last
                if lo + last + rise + 1 > bound:
                    base, last = last, _WITNESS_LOOP
            continue
        break
    else:
        k, floor128 = _closed_form_witness(q, omega, last, lo, T)
        lb = Fraction(floor128, 1 << 128)
    return SeriesCertificate(
        terms=f"sum_i alpha_i*q_i^{l}",
        verdict="divergent",
        minorant=(
            f"on-Omega terms q_{{i_k}}^{m}/k^2 >= 1/k (harmonic, since "
            f"q_{{i_k}} >= k); remaining terms nonnegative"
        ),
        threshold=T,
        witness_index=k,
        witness_partial_lb=lb,
    )


def _partial_sum_brackets(q, omega, k0: int, lo0: int):
    """(const, bracket) for `_closed_form_witness`: const(bits) brackets C
    and bracket(k, bits) brackets S_k, k > k0, on the 2^-bits grid, each kept
    per argument.  bracket takes S_k from a kept S_(k-1) or S_(k+1) and the
    exact term (a*k + b)/k^2 between them, floored and ceiled onto the same
    grid, which widens it by at most one step, and else from the closed
    form C + a (ln k + E(k)) - b zeta(2, k+1), the zeta taken only when b !=
    0."""
    a, b = omega.slope, omega.intercept
    consts, brackets = {}, {}

    def moving(N, bits):  # a (ln N + E(N)) - b zeta(2, N+1), ln N + E(N) = H_N - gamma
        h = _times(a, _add(ln_fixed(N, bits), _em_bracket(1, N, bits)))
        return _add(h, _times(-b, _em_bracket(2, N + 1, bits))) if b else h

    def const(bits):  # C = S_k0 - moving(k0)
        if bits not in consts:
            s = lo0 if bits == _WITNESS_BITS else sum(
                _on_omega_floors(_head_ratios(q, omega, k0), omega, 1, bits, k0))
            consts[bits] = _add((s, s + k0), _times(-1, moving(k0, bits)))
        return consts[bits]

    def term(k, bits):  # (a*k + b)/k^2 >= 0 on the 2^-bits grid
        t, r = divmod((a * k + b) << bits, k * k)
        return t, t + (r > 0)

    def bracket(k, bits):
        if (k, bits) not in brackets:
            if (k - 1, bits) in brackets:
                brackets[k, bits] = _add(brackets[k - 1, bits], term(k, bits))
            elif (k + 1, bits) in brackets:
                brackets[k, bits] = _add(brackets[k + 1, bits], _times(-1, term(k + 1, bits)))
            else:
                brackets[k, bits] = _add(const(bits), moving(k, bits))
        return brackets[k, bits]

    return const, bracket


def _closed_form_witness(q, omega, k0: int, lo0: int, T: Fraction) -> Tuple[int, int]:
    """(K, floor(2^128 S_K)) for the least K > k0 with floor(2^128 S_K) >
    2^128 T, where S_k is the on-Omega partial sum for m = 1, no k <= k0
    crosses, k0 >= len(omega.head) and S_k0 lies in [lo0, lo0 + k0]/2^192.

    Past k0 the terms are (a*k + b)/k^2 (a = slope, b = intercept), so
      S_k = S_k0 + a (H_k - H_k0) + b (zeta(2, k0+1) - zeta(2, k+1)),
    and with H_N = ln N + gamma + E(N) this is C + a (ln k + E(k)) -
    b zeta(2, k+1) for a constant C, gamma cancelling; on linear q, b = 0
    and no zeta is taken.  Each piece is an integer bracket on the 2^-bits
    grid with directed rounding: ln N from ln_fixed, and E(N) and zeta(2, N)
    from the fixed-point Euler-Maclaurin kernel (`_em_bracket`), each summed
    until its remainder bound is below one grid step
    (`_partial_sum_brackets`).  A step next to one already bracketed at the
    same bits is that bracket plus or minus the exact term between them, so
    deciding that K crosses and K - 1 does not costs one closed-form
    evaluation.  A step is decided when both ends of S_k's bracket have the
    same 128-bit floor, which is then floor(2^128 S_k); otherwise the step
    is retried with 64, 128, 256 and 512 more bits, and past that raises
    NoCertificateError naming k.  bits is 192, or 96 above k's bit length
    rounded up to a multiple of 64, so the bracket is far narrower than the
    last term a/k; the largest retry, at k near 2^512, is 640 + 512 = 1152
    bits.  The Euler-Maclaurin bracket of E(k0) narrows only to about
    e^(-2 pi k0) (its terms are smallest near J = pi k0), so k0 >= 128,
    where that is about 2^-1160, keeps every retry decidable;
    _divergent_base's k0 >= 256 gives about 2^-2320.

    A float estimate ln K ~ (T - C)/a, then Newton steps on the bracket's
    midpoint, only choose where to look: a gallop from that point and a
    bisection find K on decided steps alone.  K must be below
    2^_MAX_WITNESS_BITS: when S_k at that cap is decided not to cross,
    ThresholdNotReachedError is raised.
    """
    a = omega.slope
    g = (T.numerator << 128) // T.denominator + 1  # crossing: floor(2^128 S_k) >= g
    k_max = 1 << _MAX_WITNESS_BITS
    const, bracket = _partial_sum_brackets(q, omega, k0, lo0)
    floors = {}

    def precision(k):
        return max(_WITNESS_BITS, -(-(k.bit_length() + 96) // 64) * 64)

    def floor128(k):
        if k not in floors:
            bits = base = precision(k)
            while True:
                lo, hi = bracket(k, bits)
                if lo >> (bits - 128) == hi >> (bits - 128):
                    break
                if bits - base >= _MAX_GUARD_BITS:
                    raise NoCertificateError(
                        f"divergence witness step k = {k} undecided at {bits} bits"
                    )
                bits = base + max(64, 2 * (bits - base))
            floors[k] = lo >> (bits - 128)
        return floors[k]

    def crosses(k):
        return floor128(k) >= g

    c_lo, c_hi = const(_WITNESS_BITS)  # S_k ~ C + a ln k steers the first guess
    a_ln_k = (g << (_WITNESS_BITS - 128)) - ((c_lo + c_hi) >> 1)
    if a_ln_k >= (a * _MAX_WITNESS_BITS) << _WITNESS_BITS:  # ln K >= 512 > ln 2^512
        k = k_max
    else:
        k = min(max(int(exp(a_ln_k / (a << _WITNESS_BITS))), k0 + 1), k_max)
        for _ in range(_NEWTON_STEPS):  # on the midpoint, with dS/dk ~ a/k
            bits = precision(k)
            lo, hi = bracket(k, bits)
            step = (((g << (bits - 128)) - ((lo + hi) >> 1)) * k) // (a << bits)
            k = min(max(k + step, k0 + 1), k_max)
            if abs(step) <= 1:
                break
    if crosses(k):
        hi, width = k, 1
        while True:
            lo = max(hi - width, k0)
            if lo == k0 or not crosses(lo):
                break
            hi, width = lo, 2 * width
    else:
        lo, width = k, 1
        while True:
            hi = min(lo + width, k_max)
            if crosses(hi):
                break
            if hi == k_max:
                raise ThresholdNotReachedError(
                    f"divergence_threshold {rat_to_str(T)} not reached: the on-Omega partial "
                    f"sum is below {rat_to_decimal(Fraction(floors[hi] + 1, 1 << 128), 6)} up "
                    f"to k = 2^{_MAX_WITNESS_BITS}, the cap on the witness index"
                )
            lo, width = hi, 2 * width
    while hi - lo > 1:  # not crosses(lo), crosses(hi)
        mid = (lo + hi) >> 1
        lo, hi = (lo, mid) if crosses(mid) else (mid, hi)
    return hi, floor128(hi)


def _add(*brackets):
    return sum(lo for lo, _ in brackets), sum(hi for _, hi in brackets)


def _times(c: int, bracket):
    lo, hi = bracket
    return (c * lo, c * hi) if c >= 0 else (c * hi, c * lo)


def _atanh_fixed(p: int, r: int, bits: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2^bits atanh(p/r) <= hi, for 0 <= p/r <= 1/3.

    Sums floor(y_j / (2j+1)) with y_0 = floor(2^bits p/r) and
    y_j = floor(y_{j-1} p^2/r^2), up to the first y_J = 0.  The floors
    compound, but y_j stays less than 1/(1 - 1/9) = 9/8 below
    2^bits (p/r)^(2j+1), so each of the J terms is less than 17/8 below its
    exact value, and the omitted tail, at most (9/8)^2/(2J+1), is below 2.
    """
    p2, r2 = p * p, r * r
    y, lo, j = (p << bits) // r, 0, 0
    while y:
        lo += y // (2 * j + 1)
        j += 1
        y = y * p2 // r2
    return lo, lo + 3 * (j + 1)


@lru_cache(maxsize=16)
def _ln2_fixed(bits: int) -> Tuple[int, int]:
    """ln 2 = 2 atanh(1/3) on the 2^-bits grid, computed on first use."""
    lo, hi = _atanh_fixed(1, 3, bits)
    return 2 * lo, 2 * hi


def ln_fixed(N: int, bits: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2^bits ln N <= hi, for an integer N >= 1:
    ln N = e ln 2 + 2 atanh((N - 2^e)/(N + 2^e)) with 2^e <= N < 2^(e+1),
    so the atanh argument lies in [0, 1/3)."""
    e = N.bit_length() - 1
    a_lo, a_hi = _atanh_fixed(N - (1 << e), N + (1 << e), bits)
    l_lo, l_hi = _ln2_fixed(bits)
    return e * l_lo + 2 * a_lo, e * l_hi + 2 * a_hi


def _scaled(cert: SeriesCertificate, scale: Fraction) -> SeriesCertificate:
    if scale == 1:
        return cert
    if cert.is_convergent:
        return replace(
            cert,
            scale=scale,
            enclosure=Interval(cert.enclosure.lo * scale, cert.enclosure.hi * scale),
            partial_lo=cert.partial_lo * scale,
            partial_hi=cert.partial_hi * scale,
            tail_lo=cert.tail_lo * scale,
            tail_hi=cert.tail_hi * scale,
        )
    # positive rescaling leaves divergence (and its unscaled witness) intact
    return replace(cert, scale=scale)


def _base_certificate(q, omega, n, l, cfg) -> SeriesCertificate:
    if l <= n:
        return _convergent_base(q, omega, n, l, cfg)
    return _divergent_base(q, omega, n, l, cfg)


def power_series_certificate(
    alpha: AlphaFamily, l: int, cfg: CertConfig = DEFAULT_CONFIG
) -> SeriesCertificate:
    """Certificate for sum_i alpha_i * q_i^l over the full index set,
    computed once per family instance, exponent and config, and kept with
    the instance: a family built afresh computes its own."""
    memo = alpha._certificates
    if (l, cfg) not in memo:
        base = _base_certificate(alpha.q, alpha.omega, alpha.power, l, cfg)
        memo[l, cfg] = _scaled(base, alpha.scale)
    return memo[l, cfg]


@dataclass(frozen=True)
class Monomial:
    """prod_s M_s^e in the moment series M_s = sum_i alpha_i q_i^s, as its
    nonzero exponents e keyed by s.  Each value of the construction's rule
    is one, with no coefficient, so an identity of rule values is decided
    exactly by `is_one`; `enclosure` is the interval a table stores."""

    powers: Tuple[Tuple[int, int], ...] = ()  # (s, e), increasing s, e != 0

    @staticmethod
    def moment(s: int) -> "Monomial":
        return Monomial(((s, 1),))

    def __mul__(self, other: "Monomial", sign: int = 1) -> "Monomial":
        powers = dict(self.powers)
        for s, e in other.powers:
            powers[s] = powers.get(s, 0) + sign * e
        return Monomial(tuple(sorted((s, e) for s, e in powers.items() if e)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self.__mul__(other, -1)

    def is_one(self) -> bool:
        return not self.powers

    def enclosure(self, alpha: AlphaFamily, cfg: CertConfig = DEFAULT_CONFIG) -> Interval:
        """The product of the certified M_s enclosures, each taken |e| times,
        and as its recip() for e < 0."""
        factors = []
        for s, e in self.powers:
            cert = power_series_certificate(alpha, s, cfg)
            if not cert.is_convergent:
                raise NoCertificateError(f"M_{s} did not certify convergent")
            factors += [cert.enclosure if e > 0 else cert.enclosure.recip()] * abs(e)
        return reduce(mul, factors) if factors else Interval.point(1)

    def __str__(self):
        return " ".join(f"M_{s}" if e == 1 else f"M_{s}^{e}" for s, e in self.powers) or "1"


ONE = Monomial()


def witness_partial_sum(alpha: AlphaFamily, l: int, upto: int) -> Fraction:
    """Exact partial sum of the on-Omega terms of sum alpha_i q_i^l / scale.

    An uncached direct loop in exact rationals, quadratic in `upto`: the
    reference for a divergence certificate, whose witness_partial_lb is the
    dyadic_floor of this sum at witness_index.  The certificate's own
    fixed-point kernel falls back to it on steps its bracket leaves open.
    """
    m = l - alpha.power
    S = Fraction(0)
    for k in range(1, upto + 1):
        S += alpha.q.value(alpha.omega.index(k)) ** m / (k * k)
    return S

