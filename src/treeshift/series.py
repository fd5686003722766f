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
is bracketed by an exact-rational Euler-Maclaurin expansion whose remainder
is bounded by its first omitted Bernoulli term (F. Johansson, "Rigorous
high-precision computation of the Hurwitz zeta function and its
derivatives", arXiv:1309.2877); the off-Omega tail is geometric.  Tail
bounds are rounded outward onto the same 2^-dyadic_bits grid, so every
enclosure endpoint is dyadic.
Divergent verdicts carry a harmonic minorant, the witness index at which
the on-Omega partial sum first crosses a configurable threshold, and a
certified dyadic lower bound of that partial sum, itself above the
threshold; the exact partial sum itself is not kept.  Above l = n+1 the
terms dominate those at l = n+1, whose witness is reused.  Both kinds of
sum run as integer kernels that add floor(2^bits * term) for each exact
term, so they store the same numbers an exact rational loop would.
The crossing rule "S_k > T and floor(2^128 S_k) > 2^128 T" is monotone in
k (the terms are nonnegative), so the witness is found by a loop over the
first 1024 terms and, past them, by bisection on a closed form: for
linear terms (a*k + b)/k^2, S_k = C + a (H_k - gamma) - b zeta(2, k+1),
with ln k from an integer atanh series, H_k - ln k - gamma and
zeta(2, k+1) from Euler-Maclaurin expansions whose remainders are bounded
by their first omitted terms, all in fixed point with directed rounding.
A step whose bracket straddles a 2^-128 grid point is redone with more
bits, up to a stated cap, and never guessed.  The cost grows like log K,
and a threshold whose witness index would reach 2^512 is rejected.

Everything below a certificate is an exact rational; enclosures are sound
by construction, never heuristic.
"""

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import comb, exp
from typing import ClassVar, Dict, Iterator, Optional, Tuple

from .errors import (
    NoCertificateError,
    SupNotWitnessedError,
    ThresholdNotReachedError,
    WidthNotReachedError,
)
from .rationals import (Interval, as_fraction, rat_from_str, rat_to_decimal, rat_to_str,
                        scaled_ceil, scaled_floor)

_STABLE_STEPS = 8
_VERIFY_STEPS = 64
_MAX_STABILIZE_SCAN = 10_000


@dataclass(frozen=True)
class CertConfig:
    """Certificate settings: two values a caller sets, six library constants.

    series_width is the per-series enclosure width target; a divergence
    witness must exceed divergence_threshold.  Identities are checked against
    check_tol, and max_terms caps the explicit terms of any one series.
    """

    series_width: Fraction = Fraction(1, 10**12)
    divergence_threshold: Fraction = Fraction(10)
    check_tol: ClassVar[Fraction] = Fraction(1, 10**10)
    max_terms: ClassVar[int] = 1_200_000
    off_omega_terms: ClassVar[int] = 48
    scan_horizon: ClassVar[int] = 1_000_000
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

    def sup_bound(self) -> Optional[Fraction]:
        """A finite upper bound for sup q_i, or None when unbounded."""
        if self.tail is Tail.CONSTANT:
            return max(self.prefix)
        return None

    def to_json(self):
        return {"tail": self.tail.value, "prefix": [rat_to_str(x) for x in self.prefix]}

    @staticmethod
    def from_json(obj) -> "SequenceSpec":
        return SequenceSpec(Tail(obj["tail"]), tuple(map(rat_from_str, obj["prefix"])))


LINEAR_Q = SequenceSpec(Tail.LINEAR)
MIXED_Q = SequenceSpec(Tail.MIXED)


@dataclass(frozen=True)
class OmegaSpec:
    """The subsequence i_k chosen greedily so that q_{i_k} >= k.

    head memoizes the first indices; from affine_from onward the greedy
    choice stabilizes to i_k = slope*k + intercept with q_{i_k} = i_k
    (the construction verifies this before trusting it).
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
        if i <= self.head[-1]:
            try:
                return self.head.index(i) + 1
            except ValueError:
                return None
        d, r = divmod(i - self.intercept, self.slope)
        return d if r == 0 else None

    def contains(self, i: int) -> bool:
        return self.k_of(i) is not None

    def to_json(self):
        return {
            "head": list(self.head),
            "affine_from": self.affine_from,
            "slope": self.slope,
            "intercept": self.intercept,
        }

    @staticmethod
    def from_json(obj) -> "OmegaSpec":
        return OmegaSpec(
            tuple(obj["head"]), obj["affine_from"], obj["slope"], obj["intercept"]
        )


def build_omega(q: SequenceSpec, cfg: CertConfig = DEFAULT_CONFIG) -> OmegaSpec:
    """Greedy subsequence: i_k = smallest index > i_{k-1} with q_i >= k.

    Scans until the choice stabilizes to an affine pattern in the pure tail
    region, then verifies the pattern for a further margin of steps.
    Raises SupNotWitnessedError when q is bounded (no valid index exists
    for some k within the scan horizon).
    """
    bound = q.sup_bound()

    def fail(k):
        raise SupNotWitnessedError(
            f"no index with q_i >= {k} witnessed (sup q_i looks bounded)"
        )

    head = []
    prev = 0

    def step(k):
        nonlocal prev
        if bound is not None and k > bound:
            fail(k)
        i = prev + 1
        scanned = 0
        while q.value(i) < k:
            i += 1
            scanned += 1
            if scanned > cfg.scan_horizon:
                fail(k)
        if q.value(i) < k:
            fail(k)
        head.append(i)
        prev = i

    prefix_len = len(q.prefix)
    k = 0
    while True:
        k += 1
        step(k)
        if k > _MAX_STABILIZE_SCAN:
            raise NoCertificateError("greedy subsequence did not stabilize")
        if k < _STABLE_STEPS + 1 or k <= prefix_len:
            continue
        window = head[-(_STABLE_STEPS + 1):]
        diffs = {b - a for a, b in zip(window, window[1:])}
        if len(diffs) != 1:
            continue
        d = diffs.pop()
        if window[0] <= prefix_len:
            continue
        if any(q.value(i) != i for i in window):
            continue
        slope, intercept = d, head[-1] - d * k
        affine_from = k - _STABLE_STEPS
        # verify the affine prediction for a margin of further greedy steps
        ok = True
        for kk in range(k + 1, k + 1 + _VERIFY_STEPS):
            step(kk)
            want = slope * kk + intercept
            if head[-1] != want or q.value(want) != Fraction(want):
                ok = False
                break
        if not ok:
            k = len(head)
            continue
        # q_{i_k} >= k must persist on the affine tail
        if slope == 1 and intercept < 0:
            raise NoCertificateError("affine tail violates q_{i_k} >= k")
        if (slope - 1) * affine_from + intercept < 0:
            raise NoCertificateError("affine tail violates q_{i_k} >= k")
        return OmegaSpec(tuple(head), affine_from, slope, intercept)


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
def bernoulli_even(j: int) -> Fraction:
    """B_{2j}, from sum_{i=0}^{m} C(m+1, i) B_i = 0 (m = 2j) with B_1 = -1/2
    and the other odd Bernoulli numbers zero; computed on first use."""
    if j == 0:
        return Fraction(1)
    m = 2 * j
    s = sum(comb(m + 1, 2 * i) * bernoulli_even(i) for i in range(j)) - Fraction(m + 1, 2)
    return -s / (m + 1)


def zeta_tail_brackets(p: int, N: int) -> Iterator[Tuple[int, Fraction, Fraction]]:
    """(J, S, R) for J = 1, 2, ...: sum_{k>=N} k^-p lies in [S - R, S + R].

    S is the Euler-Maclaurin expansion with J Bernoulli terms,
      N^{1-p}/(p-1) + N^{-p}/2 + sum_{j<=J} B_2j/(2j)! (p)_{2j-1} N^{1-p-2j},
    and R = |B_{2J+2}|/(2J+2)! (p)_{2J+1} N^{-p-2J-1} is its first omitted
    term.  Every even derivative of x^-p is positive on (0, inf), so the
    remainder lies between 0 and that term (F. Johansson, arXiv:1309.2877,
    section 2; F. W. J. Olver, Asymptotics and Special Functions, 8.1).
    For p >= 2 and N >= 1.
    """
    S = Fraction(1, (p - 1) * N ** (p - 1)) + Fraction(1, 2 * N**p)
    rising, fact, power = p, 2, N ** (p + 1)  # (p)_{2j-1}, (2j)!, N^{p+2j-1}
    J = 0
    while True:
        J += 1
        S += bernoulli_even(J) * rising / (fact * power)
        rising *= (p + 2 * J - 1) * (p + 2 * J)
        fact *= (2 * J + 1) * (2 * J + 2)
        power *= N * N
        yield J, S, abs(bernoulli_even(J + 1)) * rising / (fact * power)


@cache
def _zeta_fixed_brackets(p: int, N: int, bits: int):
    """The pairs _zeta_fixed has found for (p, N, bits), J = 1, 2, ..., and
    the expansion that extends them: memoized like bernoulli_even, since
    each pair is a pure function of (p, N, J, bits)."""
    return [], zeta_tail_brackets(p, N)


def _zeta_fixed(p: int, N: int, J: int, bits: int) -> Tuple[int, int]:
    """(lo, hi) with lo <= 2^bits zeta(p, N) <= hi, from J Bernoulli terms."""
    pairs, brackets = _zeta_fixed_brackets(p, N, bits)
    while len(pairs) < J:
        _, S, R = next(brackets)
        pairs.append((scaled_floor(S - R, bits), scaled_ceil(S + R, bits)))
    return pairs[J - 1]


def _on_tail_bounds(a: int, b: int, m: int, K: int, budget: Fraction, bits: int):
    """(lo, hi, J): a bracket of sum_{k>K} 1/(k^2 (a*k+b)^m), the on-Omega
    tail, with dyadic endpoints (denominator 2^bits).

    With d = b/a (an integer for every Omega build_omega returns: linear
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
    2^-(bits+64) grid, the parts are combined there in integers with
    directed rounding, and the sum is rounded outward to 2^-bits once.  J
    grows for every zeta together until the bracket is at most `budget`
    wide, or until another term no longer narrows it.
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


class _DyadicSum:
    """Directed fixed-point accumulator: after adding N exact rationals,
    the true sum lies in [lo_int, lo_int + N] / 2^bits."""

    def __init__(self, bits: int):
        self.bits = bits
        self.one = 1 << bits
        self.lo_int = 0
        self.count = 0

    def add(self, x: Fraction):
        self.lo_int += scaled_floor(x, self.bits)
        self.count += 1

    def bounds(self):
        scale = Fraction(1, self.one)
        return self.lo_int * scale, (self.lo_int + self.count) * scale


def _convergent_base(q, omega, n, l, cfg) -> SeriesCertificate:
    """Unscaled convergent certificate for sum_i alpha_i q_i^l, l <= n."""
    m = n - l
    off_empty = omega.covers_all
    I = 0 if off_empty else max(cfg.off_omega_terms, n + 1 - l, 1)
    off_tail_hi = Fraction(0) if off_empty else Fraction(1, 2**I)

    K = max(16, omega.affine_from)
    while True:
        # the tail's share of the width: the rest goes to the off-Omega tail
        # and the accumulator's K + I grid steps
        spent = off_tail_hi + Fraction(K + I, 2**cfg.dyadic_bits)
        budget = cfg.series_width - spent
        t_lo, t_hi, J = _on_tail_bounds(omega.slope, omega.intercept, m, K, budget,
                                        cfg.dyadic_bits)
        if t_hi - t_lo <= budget:
            break
        if budget <= 0 or K >= cfg.max_terms:  # a larger K only shrinks the budget
            raise WidthNotReachedError(
                f"sum_i alpha_i*q_i^{l}: series_width {rat_to_decimal(cfg.series_width, 3)} "
                f"not reached; {K} on-Omega terms give width "
                f"{rat_to_decimal(spent + t_hi - t_lo, 3)}, of which the off-Omega tail "
                f"and the rounding take {rat_to_decimal(spent, 3)}"
            )
        K = min(2 * K, cfg.max_terms)

    # on-Omega terms q_{i_k}^{-m}/k^2 and off-Omega terms 2^-i q^l / D_i =
    # (q-1) q^(l-n-1+i) / (2^i (q^i - 1)) with q = u/v, each floored onto the
    # accumulator's grid by one integer division: the floor of 2^bits * term
    # depends only on the term's value, so this adds what _DyadicSum.add would
    acc = _DyadicSum(cfg.dyadic_bits)
    one = acc.one
    head_len = min(len(omega.head), K)
    for k in range(1, head_len + 1):
        qv = q.value(omega.head[k - 1])
        acc.lo_int += (qv.denominator**m * one) // (qv.numerator**m * k * k)
    slope, icept = omega.slope, omega.intercept
    acc.lo_int += sum(one // ((slope * k + icept) ** m * k * k)
                      for k in range(head_len + 1, K + 1))
    off = [i for i in range(1, I + 1) if not omega.contains(i)]
    for i in off:
        qv = q.value(i)
        u, v, e = qv.numerator, qv.denominator, l - n - 1 + i
        if u == v:  # q = 1: the term is 2^-i / i
            acc.lo_int += one // (i << i)
        else:
            num, den = (u - v) * v ** (i - 1), (u**i - v**i) << i
            num, den = (num * u**e, den * v**e) if e >= 0 else (num * v**-e, den * u**-e)
            acc.lo_int += (num * one) // den if den > 0 else (-num * one) // -den
    acc.count += K + len(off)

    partial_lo, partial_hi = acc.bounds()
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
_WITNESS_LOOP = 1024  # the loop sums at least this far before the closed form
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

    The first K0 = max(1024, len(omega.head)) steps run as a loop: S_k is
    summed as the integer lo, adding floor(2^W * term) per term (W = 192),
    so after k terms S_k lies in [lo, lo + k] / 2^W.  That bracket decides
    each step: S_k <= T when (lo + k)/2^W <= T, and when lo/2^W > T with lo
    and lo + k agreeing above bit 64, S_k > T and dyadic_floor(S_k) is
    exactly (lo >> 64)/2^128.  A step the bracket leaves open (S_k within
    k/2^W of T or of a 2^-128 grid point) is decided on the exact sum
    witness_partial_sum.  Past omega.head, q_{i_k} is the index
    i_k = slope*k + intercept itself (build_omega checks this on the affine
    tail), so those steps add floor(2^W i_k / k^2) in plain integers.

    The steps past K0 go to _closed_form_witness, which brackets S_k in
    closed form and bisects on the predicate in O(log K) evaluations;
    witness_index and witness_partial_lb are those of the exact rule either
    way.
    """
    m = l - n  # >= 1
    if m > 1:
        return replace(_divergent_base(q, omega, n, n + 1, cfg), terms=f"sum_i alpha_i*q_i^{l}",
                       minorant=f"on-Omega terms q_{{i_k}}^{m}/k^2 >= q_{{i_k}}/k^2 >= 1/k "
                       f"(harmonic, since q_{{i_k}} >= k >= 1), witnessed on the partial sums "
                       f"of q_{{i_k}}/k^2; remaining terms nonnegative")
    T = as_fraction(cfg.divergence_threshold)
    t_den, t_num_w = T.denominator, T.numerator << _WITNESS_BITS
    guard = _WITNESS_BITS - 128
    head = len(omega.head)
    last = max(_WITNESS_LOOP, head)
    lo = 0
    k = 0
    while k < last:
        k += 1
        if k <= head:
            qv = q.value(omega.head[k - 1])
            if qv < k:
                raise NoCertificateError(f"q_{{i_{k}}} = {qv} < {k}: minorant broken")
            lo += (qv.numerator << _WITNESS_BITS) // (qv.denominator * k * k)
        else:
            i = omega.slope * k + omega.intercept  # = q_{i_k} on the affine tail
            if i < k:
                raise NoCertificateError(f"q_{{i_{k}}} = {i} < {k}: minorant broken")
            lo += (i << _WITNESS_BITS) // (k * k)
        if (lo + k) * t_den <= t_num_w:
            lb = None  # S_k <= T
        elif lo * t_den > t_num_w and lo >> guard == (lo + k) >> guard:
            lb = Fraction(lo >> guard, 1 << 128)
        else:
            S = witness_partial_sum(AlphaFamily(q, omega, n), l, k)
            lb = dyadic_floor(S) if S > T else None
        # stop at the first crossing whose dyadic floor still exceeds T
        if lb is not None and lb > T:
            break
    else:
        k, floor128 = _closed_form_witness(q, omega, k, lo, T)
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


def _closed_form_witness(q, omega, k0: int, lo0: int, T: Fraction) -> Tuple[int, int]:
    """(K, floor(2^128 S_K)) for the least K > k0 with floor(2^128 S_K) >
    2^128 T, where S_k is the on-Omega partial sum for m = 1, no k <= k0
    crosses, k0 >= len(omega.head) and S_k0 lies in [lo0, lo0 + k0]/2^192.

    Past k0 the terms are (a*k + b)/k^2 (a = slope, b = intercept), so
      S_k = S_k0 + a (H_k - H_k0) + b (zeta(2, k0+1) - zeta(2, k+1)),
    and with H_N = ln N + gamma + E(N) this is C + a (ln k + E(k)) -
    b zeta(2, k+1) for a constant C, gamma cancelling.  Each piece is an
    integer bracket on the 2^-bits grid with directed rounding: ln N from
    ln_fixed, E(N) from harmonic_brackets and zeta(2, N) from
    zeta_tail_brackets, each summed until its remainder bound is below one
    grid step.  A step is decided when both ends of S_k's bracket have the
    same 128-bit floor, which is then floor(2^128 S_k); otherwise the step
    is retried with 64, 128, 256 and 512 more bits, and past that raises
    NoCertificateError naming k.  bits is 192, or 96 above k's bit length
    rounded up to a multiple of 64, so the bracket is far narrower than the
    last term a/k.

    A float estimate ln K ~ (T - C)/a, then Newton steps on the bracket's
    midpoint, only choose where to look: a gallop from that point and a
    bisection find K on decided steps alone.  K must be below
    2^_MAX_WITNESS_BITS: when S_k at that cap is decided not to cross,
    ThresholdNotReachedError is raised.
    """
    a, b = omega.slope, omega.intercept
    if (a - 1) * (k0 + 1) + b < 0:
        raise NoCertificateError(f"q_{{i_{k0 + 1}}} < {k0 + 1}: minorant broken")
    g = (T.numerator << 128) // T.denominator + 1  # crossing: floor(2^128 S_k) >= g
    k_max = 1 << _MAX_WITNESS_BITS
    consts, brackets, floors = {}, {}, {}

    def harmonic(N, bits):  # ln N + E(N) = H_N - gamma
        return _add(ln_fixed(N, bits), _fixed_bracket(harmonic_brackets(N), bits))

    def zeta2(N, bits):
        return _fixed_bracket(zeta_tail_brackets(2, N), bits)

    def const(bits):  # C = S_k0 - a (ln k0 + E(k0)) + b zeta(2, k0+1)
        if bits not in consts:
            s = lo0 if bits == _WITNESS_BITS else _on_omega_floor_sum(q, omega, k0, bits)
            consts[bits] = _add((s, s + k0), _times(-a, harmonic(k0, bits)),
                                _times(b, zeta2(k0 + 1, bits)))
        return consts[bits]

    def bracket(k, bits):  # S_k = C + a (ln k + E(k)) - b zeta(2, k+1)
        if (k, bits) not in brackets:
            brackets[k, bits] = _add(const(bits), _times(a, harmonic(k, bits)),
                                     _times(-b, zeta2(k + 1, bits)))
        return brackets[k, bits]

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


def _on_omega_floor_sum(q, omega, upto: int, bits: int) -> int:
    """sum_{k<=upto} floor(2^bits q_{i_k}/k^2): what the witness loop adds
    for m = 1, at another precision."""
    head = min(len(omega.head), upto)
    s = 0
    for k in range(1, head + 1):
        qv = q.value(omega.head[k - 1])
        s += (qv.numerator << bits) // (qv.denominator * k * k)
    a, b = omega.slope, omega.intercept
    return s + sum(((a * k + b) << bits) // (k * k) for k in range(head + 1, upto + 1))


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


def harmonic_brackets(N: int) -> Iterator[Tuple[int, Fraction, Fraction]]:
    """(J, S, R) for J = 1, 2, ...: H_N - ln N - gamma lies in [S - R, S + R].

    S = 1/(2N) - sum_{j<=J} B_2j/(2j N^2j) is the Euler-Maclaurin expansion
    of the digamma function (H_N - gamma = psi(N) + 1/N), and
    R = |B_{2J+2}|/((2J+2) N^{2J+2}) is its first omitted term: for real
    N > 0 the remainder has that term's sign and at most its size (NIST
    DLMF 5.11.2 and 5.11(ii)).  For N >= 1.
    """
    S = Fraction(1, 2 * N)
    n2, power = N * N, 1  # power = N^{2J}
    J = 0
    while True:
        J += 1
        power *= n2
        S -= bernoulli_even(J) / (2 * J * power)
        yield J, S, abs(bernoulli_even(J + 1)) / ((2 * J + 2) * power * n2)


def _fixed_bracket(brackets: Iterator[Tuple[int, Fraction, Fraction]], bits: int):
    """(lo, hi) with lo <= 2^bits x <= hi, from a sequence of brackets
    (J, S, R) of x: the first whose R is below 2^-bits, or the last before
    R stops shrinking."""
    prev = None
    for _, S, R in brackets:
        if prev is not None and R >= prev[1]:
            S, R = prev
            break
        prev = S, R
        if R.numerator << bits < R.denominator:
            break
    return scaled_floor(S - R, bits), scaled_ceil(S + R, bits)


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

