"""Certified series: subsequence choice, coefficient formulas, enclosures.

Reference constants were recomputed independently before being frozen here:
exact Fraction partial sums with Euler-Maclaurin tail brackets on one side,
and mpmath.zeta at 40 digits on the other (both agree to all shown digits).

  zeta(2) = 1.6449340668482264365...
  zeta(3) = 1.2020569031595942854...
  zeta(4) = 1.0823232337111381916...
  zeta(5) = 1.0369277551433699263...
"""

import functools
import itertools
import math
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import AlphaFamily, LINEAR_Q, MIXED_Q, SequenceSpec, Tail
from treeshift import series
from treeshift.errors import NoCertificateError, SupNotWitnessedError
from treeshift.rationals import Interval, scaled_floor
from treeshift.series import (
    CertConfig,
    OmegaSpec,
    _slon4_denominator,
    build_omega,
    dyadic_floor,
    power_series_certificate,
    witness_partial_sum,
)

mp.mp.dps = 40

ZETA3 = Fraction("1.2020569031595942854")
ZETA2 = Fraction("1.6449340668482264365")


def contains_mpf(interval, value) -> bool:
    lo = mp.mpf(interval.lo.numerator) / interval.lo.denominator
    hi = mp.mpf(interval.hi.numerator) / interval.hi.denominator
    return lo <= value <= hi


# --- subsequence choice ---


def test_linear_omega_is_identity():
    omega = build_omega(LINEAR_Q)
    assert [omega.index(k) for k in range(1, 8)] == [1, 2, 3, 4, 5, 6, 7]
    assert omega.covers_all
    assert omega.contains(123456)


def test_mixed_omega_greedy():
    # q_1 = 1 >= 1, then even indices; greedy picks 1, 2, 4, 6, 8, ...
    omega = build_omega(MIXED_Q)
    assert [omega.index(k) for k in range(1, 7)] == [1, 2, 4, 6, 8, 10]
    assert omega.index(100) == 198
    assert not omega.covers_all
    assert omega.contains(1) and omega.contains(2) and omega.contains(198)
    assert not omega.contains(3) and not omega.contains(199)
    for k in range(1, 50):
        assert MIXED_Q.value(omega.index(k)) >= k


def test_bounded_sequence_rejected():
    flat = SequenceSpec(Tail.CONSTANT, prefix=(Fraction(1),))
    with pytest.raises(SupNotWitnessedError):
        build_omega(flat)


def _greedy_indices(q, upto):
    """i_1, ..., i_upto by the definition: each the smallest index past the
    last with q_i >= k, found by scanning."""
    out, i = [], 0
    for k in range(1, upto + 1):
        i += 1
        while q.value(i) < k:
            i += 1
        out.append(i)
    return out


@given(prefix=st.lists(st.builds(Fraction, st.integers(1, 40), st.integers(1, 3)), max_size=30),
       tail=st.sampled_from([Tail.LINEAR, Tail.MIXED]))
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
def test_build_omega_is_the_greedy_subsequence(prefix, tail):
    """The derived Omega is the scanned greedy subsequence: the same i_k for
    k <= 400, the same membership for i <= 400, and a head of exactly the
    indices before affine_from."""
    q = SequenceSpec(tail, prefix=tuple(prefix))
    omega, greedy = build_omega(q), _greedy_indices(q, 400)
    assert [omega.index(k) for k in range(1, 401)] == greedy
    members = set(greedy)
    assert [omega.contains(i) for i in range(1, 401)] == [i in members for i in range(1, 401)]
    assert len(omega.head) == omega.affine_from - 1


@pytest.mark.parametrize("value", [7, 10**6, 10**1000], ids=["7", "1e6", "1e1000"])
def test_constant_tail_refused_at_once(value):
    """A constant tail is bounded: build_omega refuses it at once, whatever
    the value."""
    q = SequenceSpec(Tail.CONSTANT, prefix=(Fraction(value),))
    started = time.perf_counter()
    with pytest.raises(SupNotWitnessedError, match="sup q_i looks bounded"):
        build_omega(q)
    assert time.perf_counter() - started < 0.01


def test_table_prefix_stabilizes():
    q = SequenceSpec(Tail.LINEAR, prefix=(Fraction(5), Fraction(1, 2), Fraction(7)))
    omega = build_omega(q)
    for k in range(1, 40):
        assert q.value(omega.index(k)) >= k
        if k > 1:
            assert omega.index(k) > omega.index(k - 1)


# --- coefficient formulas ---


def test_on_omega_alpha_formula():
    omega = build_omega(LINEAR_Q)
    fam = AlphaFamily(LINEAR_Q, omega, power=1)
    assert fam.on_omega_value(3) == Fraction(1, 27)  # 1/(9*3)
    fam2 = AlphaFamily(LINEAR_Q, omega, power=2)
    assert fam2.on_omega_value(2) == Fraction(1, 16)  # 1/(4*4)
    assert fam2.on_omega_value(1) == 1  # k=1, q=1
    assert fam.value(5) == Fraction(1, 125)  # linear n=1: alpha_i = 1/i^3


def test_off_omega_alpha_formula():
    omega = build_omega(MIXED_Q)
    fam = AlphaFamily(MIXED_Q, omega, power=1)
    # off Omega: i odd >= 3, q_i = 1/i, row sum = sum_{k=1}^{i} (1/i)^{2-k}
    i = 5
    row = sum(Fraction(1, 5) ** (2 - k) for k in range(1, i + 1))
    assert fam.off_omega_value(i) == Fraction(1, 2**i) / row
    with pytest.raises(ValueError):
        fam.off_omega_value(2)  # on Omega


RATIONAL_PREFIX_Q = SequenceSpec(Tail.LINEAR, prefix=(Fraction(5), Fraction(1, 2), Fraction(7)))


def _summed_row(q, n, i):
    """sum_{k=1}^{i} q_i^{n+1-k} term by term: the reference for the closed form."""
    qv = q.value(i)
    return sum((qv ** (n + 1 - k) for k in range(1, i + 1)), Fraction(0))


@pytest.mark.parametrize(
    "q",
    [LINEAR_Q, MIXED_Q, SequenceSpec(Tail.CONSTANT, prefix=(Fraction(1),)), RATIONAL_PREFIX_Q],
    ids=["linear", "mixed", "constant-1", "rational-prefix"],
)
def test_row_sum_closed_form_matches_summed_row(q):
    for n in range(1, 5):
        for i in range(1, 120):
            assert _slon4_denominator(q, n, i) == _summed_row(q, n, i), (n, i)


# --- convergent certificates ---


def test_zeta3_enclosure():
    omega = build_omega(LINEAR_Q)
    fam = AlphaFamily(LINEAR_Q, omega, power=1)
    cert = power_series_certificate(fam, 0)  # sum 1/i^3
    assert cert.is_convergent
    assert cert.width <= Fraction(1, 10**10)
    assert cert.enclosure.contains(ZETA3)
    assert contains_mpf(cert.enclosure, mp.zeta(3))


def test_zeta2_enclosure():
    omega = build_omega(LINEAR_Q)
    fam = AlphaFamily(LINEAR_Q, omega, power=1)
    cert = power_series_certificate(fam, 1)  # sum 1/i^2: the slow p = 2 case
    assert cert.is_convergent
    assert cert.enclosure.contains(ZETA2)
    assert contains_mpf(cert.enclosure, mp.zeta(2))
    assert cert.width <= Fraction(1, 10**10)


def test_negative_exponents_enclose_zeta():
    omega = build_omega(LINEAR_Q)
    fam = AlphaFamily(LINEAR_Q, omega, power=1)
    for l, s in ((-1, 4), (-2, 5), (-5, 8)):
        cert = power_series_certificate(fam, l)
        assert contains_mpf(cert.enclosure, mp.zeta(s))


def test_mixed_certificate_soundness():
    omega = build_omega(MIXED_Q)
    fam = AlphaFamily(MIXED_Q, omega, power=2)
    for l in range(-3, 3):
        cert = power_series_certificate(fam, l)
        assert cert.is_convergent
        # independent bracket: partial over i <= 399 covers on-Omega k <= 200,
        # whose remaining terms q^{l-n}/k^2 <= 1/k^2 sum to < 1/200; the
        # off-Omega remainder is < 2^-399
        partial = sum(
            (fam.value(i) * MIXED_Q.value(i) ** l for i in range(1, 400)), Fraction(0)
        )
        assert partial <= cert.enclosure.hi
        assert cert.enclosure.lo <= partial + Fraction(1, 200) + Fraction(1, 2**399)


# --- the Euler-Maclaurin kernel and its exact-rational reference ---


@functools.cache
def bernoulli_even(j: int) -> Fraction:
    """B_{2j} = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)) from the tangent number
    T_j (B_0 = 1), the identity the Euler-Maclaurin kernel `series._em_fixed`
    sums its terms by."""
    if j == 0:
        return Fraction(1)
    return Fraction((-1) ** (j - 1) * 2 * j * series.tangent_number(j),
                    (1 << 2 * j) * ((1 << 2 * j) - 1))


@functools.cache
def _bernoulli_recursive(j):
    """B_{2j} from its definition sum_{i=0}^{m} C(m+1, i) B_i = 0 (m = 2j),
    with B_1 = -1/2 and the other odd Bernoulli numbers zero."""
    if j == 0:
        return Fraction(1)
    m = 2 * j
    s = sum(math.comb(m + 1, 2 * i) * _bernoulli_recursive(i) for i in range(j))
    return -(s - Fraction(m + 1, 2)) / (m + 1)


def zeta_tail_brackets(p, N):
    """(J, S, R) for J = 1, 2, ...: the exact-rational Euler-Maclaurin
    bracket [S - R, S + R] of zeta(p, N) for p >= 2, and of
    H_N - ln N - gamma for p = 1 (see `series._em_fixed`), the reference
    the fixed-point kernel is checked against."""
    sign, S = (-1, Fraction(1, 2 * N)) if p == 1 else (
        1, Fraction(1, (p - 1) * N ** (p - 1)) + Fraction(1, 2 * N**p))
    rising, fact, power = p, 2, N ** (p + 1)  # (p)_{2j-1}, (2j)!, N^{p+2j-1}
    J = 0
    while True:
        J += 1
        S += sign * _bernoulli_recursive(J) * rising / (fact * power)
        rising *= (p + 2 * J - 1) * (p + 2 * J)
        fact *= (2 * J + 1) * (2 * J + 2)
        power *= N * N
        yield J, S, abs(_bernoulli_recursive(J + 1)) * rising / (fact * power)


def _zeta_tail(p, N, J):
    """(S, R) of the reference bracket after J Bernoulli terms."""
    return next((S, R) for j, S, R in zeta_tail_brackets(p, N) if j == J)


def _stated_remainder(p, N, J):
    """|B_{2J+2}|/(2J+2)! (p)_{2J+1} N^{-p-2J-1}, from its definition."""
    rising = math.prod(range(p, p + 2 * J + 1))
    B = abs(_bernoulli_recursive(J + 1))
    return B * rising / (math.factorial(2 * J + 2) * N ** (p + 2 * J + 1))


def _kernel(p, N, J, bits):
    """(lo, hi, R) of the kernel's J-th bracket on the 2^-bits grid."""
    lo, hi, r, d = next(itertools.islice(series._em_fixed(p, N, bits), J - 1, None))
    return lo, hi, Fraction(r, d)


def _em_exact(p, N):
    """zeta(p, N) for p >= 2 and H_N - ln N - gamma for p = 1, by mpmath."""
    return mp.zeta(p, N) if p > 1 else mp.harmonic(N) - mp.log(N) - mp.euler


def _assert_kernel_contains_mpmath(p, N, J, bits=256):
    lo, hi, R = _kernel(p, N, J, bits)
    assert R == _stated_remainder(p, N, J)
    # mpmath reaches zeta(p, N) through zeta(p) minus a partial sum, so its
    # error is absolute: resolve the 2^-bits grid, plus guard digits
    with mp.workdps(30 + bits * 30103 // 100000):
        assert lo <= _em_exact(p, N) * mp.mpf(2) ** bits <= hi, (p, N, J)


def test_bernoulli_numbers():
    """B_2j from the tangent numbers equal the recursive definition and
    mpmath for j < 60."""
    assert [series.tangent_number(j) for j in range(1, 7)] == [1, 2, 16, 272, 7936, 353792]
    assert [bernoulli_even(j) for j in range(6)] == [
        1, Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66)
    ]
    assert bernoulli_even(10) == Fraction(-174611, 330)
    with mp.workdps(60):
        for j in range(60):
            b = bernoulli_even(j)
            assert b == _bernoulli_recursive(j), j
            assert mp.almosteq(mp.mpf(b.numerator) / b.denominator, mp.bernoulli(2 * j), 1e-50)


@pytest.mark.parametrize("N", [17, 33, 65, 1025])
def test_zeta_tail_bracket_contains_mpmath(N):
    """Each fixed-point bracket of zeta(p, N), p = 2..40, and of
    H_N - ln N - gamma (p = 1) holds mpmath's value, with the stated
    remainder bound."""
    for p in range(1, 41):
        for J in (1, 2, 4, 8, 15):
            _assert_kernel_contains_mpmath(p, N, J)


@given(
    p=st.integers(min_value=1, max_value=40),
    N=st.integers(min_value=1, max_value=5000),
    J=st.integers(min_value=1, max_value=30),
    bits=st.sampled_from([64, 256, 512]),
)
@settings(derandomize=True, max_examples=80, deadline=None, database=None)
def test_zeta_tail_bracket_contains_mpmath_random(p, N, J, bits):
    _assert_kernel_contains_mpmath(p, N, J, bits)


@pytest.mark.parametrize("N", [1, 2, 17, 33, 65, 1025])
def test_kernel_within_j_plus_2_steps_of_the_exact_bracket(N):
    """Each end of the kernel's J-th bracket lies at most J + 2 grid steps
    outside the reference's exact bracket [S - R, S + R], rounded outward:
    J + 3 quotients (two leading terms, J Bernoulli terms and R; one fewer
    for p = 1) are each rounded once."""
    for bits in (64, 256, 384):
        for p in range(1, 41):
            kernel = itertools.islice(series._em_fixed(p, N, bits), 15)
            for (J, S, R), (lo, hi, r, d) in zip(zeta_tail_brackets(p, N), kernel):
                exact_lo, exact_hi = scaled_floor(S - R, bits), -scaled_floor(-S - R, bits)
                assert Fraction(r, d) == R
                assert exact_lo - (J + 2) <= lo <= exact_lo, (bits, p, J)
                assert exact_hi <= hi <= exact_hi + J + 2, (bits, p, J)


def test_zeta_tail_bracket_sizing():
    # the sizes the default certificates rely on: K = 16 on-Omega terms leave
    # zeta(p, 17), which a handful of Bernoulli terms pin below 1e-14, and a
    # 1e-30 target needs 15 terms at N = 17 or 8 at N = 65
    assert all(2 * _kernel(p, 17, 4, 64)[2] < Fraction(1, 10**14) for p in range(2, 41))
    first = {N: next(J for J, (_, _, r, d) in enumerate(series._em_fixed(2, N, 64), 1)
                     if 2 * Fraction(r, d) < Fraction(1, 10**30))
             for N in (17, 65)}
    assert first == {17: 15, 65: 8}


def test_certificate_tails_are_dyadic():
    """Tail bounds are rounded outward onto the accumulator's grid, so every
    endpoint of an enclosure is k / 2^dyadic_bits."""
    grid = 2**CertConfig.dyadic_bits
    for q in (LINEAR_Q, MIXED_Q):
        fam = AlphaFamily(q, build_omega(q), power=2)
        for l in range(2, -4, -1):
            cert = power_series_certificate(fam, l)
            for x in (cert.tail_lo, cert.tail_hi, cert.enclosure.lo, cert.enclosure.hi):
                assert grid % x.denominator == 0, (q, l, x)
            assert "Euler-Maclaurin" in cert.tail_rule


@pytest.mark.parametrize("m", [0, 1, 4])
def test_tail_bounds_round_outward(m):
    """The dyadic tail bounds hold the exact bracket within one grid step."""
    bits = CertConfig.dyadic_bits
    grid = Fraction(1, 2**bits)
    lo, hi, J = series._on_tail_bounds(Fraction(1), Fraction(0), m, 16, Fraction(1, 10**20), bits)
    S, R = _zeta_tail(m + 2, 17, J)
    assert lo <= S - R < lo + grid
    assert hi - grid < S + R <= hi


def test_linear_certificates_sum_sixteen_terms():
    """The Omega tail of linear q has intercept 0, so the bracket alone
    narrows it: the first K = 16 meets widths 1e-12 and 1e-30, where an
    integral sandwich needed K = 2^20 for sum 1/k^2 at 1e-12.  Mixed q's
    partial-fraction tail meets 1e-12 at K = 16 too; its 2^-48 off-Omega
    tail keeps it from 1e-30."""
    for q, widths in ((LINEAR_Q, (Fraction(1, 10**12), Fraction(1, 10**30))),
                      (MIXED_Q, (Fraction(1, 10**12),))):
        fam = AlphaFamily(q, build_omega(q), power=3)
        for width in widths:
            cfg = CertConfig(series_width=width)
            for l in range(3, -12, -1):
                cert = power_series_certificate(fam, l, cfg)
                assert cert.omega_terms == 16 and cert.width <= width, (q, width, l)


TAIL_SHIFTS = ((2, -2), (1, 0), (1, 3), (2, 4), (1, -2), (2, -6))


@pytest.mark.parametrize("K", [16, 40])
@pytest.mark.parametrize("a, b", TAIL_SHIFTS, ids=[f"{a}k{b:+d}" for a, b in TAIL_SHIFTS])
def test_tail_bounds_contain_mpmath(a, b, K):
    """The partial-fraction bracket of sum_{k>K} 1/(k^2 (a*k+b)^m) holds the
    sum mpmath.nsum finds at 60 digits (Richardson extrapolation, which suits
    terms rational in k), and is no wider than its budget."""
    budget = Fraction(1, 10**30)
    with mp.workdps(60):
        for m in range(17):
            lo, hi, _ = series._on_tail_bounds(a, b, m, K, budget, CertConfig.dyadic_bits)
            exact = mp.nsum(lambda k: 1 / (k**2 * (a * k + b) ** m), [K + 1, mp.inf],
                            method="richardson")
            assert contains_mpf(Interval(lo, hi), exact), (m, lo, hi)
            assert hi - lo <= budget, m


@pytest.mark.parametrize("m", [1, 2, 5])
def test_tail_shift_must_be_an_integer(m):
    with pytest.raises(NoCertificateError, match="shift 1/2"):
        series._on_tail_bounds(2, 1, m, 16, Fraction(1, 10**12), CertConfig.dyadic_bits)


@pytest.mark.parametrize("p, N", [(2, 17), (3, 17), (18, 17), (40, 17), (2, 33)])
def test_em_width_floor_is_the_narrowest_bracket(p, N):
    """_em_width_floor(p, N, 0) is at most the width 2R of every
    Euler-Maclaurin bracket of zeta(p, N), and within 0.1 % of the narrowest
    (|B_2j|/(2j)! exceeds 2/(2 pi)^2j by the factor zeta(2j) only); with a
    limit some bracket meets, it returns a value no larger than the limit."""
    floor = series._em_width_floor(p, N, Fraction(0))
    kernel = itertools.islice(series._em_fixed(p, N, 64), 4 * N)
    narrowest = min(2 * Fraction(r, d) for _, _, r, d in kernel)
    assert floor <= narrowest <= floor * Fraction(1001, 1000)
    assert series._em_width_floor(p, N, 2 * narrowest) <= 2 * narrowest


def test_tail_bounds_refuse_only_what_no_j_reaches():
    """Far out (m = 200 at K = 16: p = 202 > N = 17) the bracket's lower end
    is clipped at 0, and the clipped bracket, [0, 1.11e-248], is narrower
    than any unclipped one (at least 1.23e-248 wide): a budget between the
    two is met, not refused.  A budget below the tail's first omitted term
    1/17^202 is refused without trying a J."""
    bits, budget = 1000, Fraction(115, 10**250)
    lo, hi, _ = series._on_tail_bounds(1, 0, 200, 16, budget, bits)
    assert lo == 0 and hi <= budget < series._em_width_floor(202, 17, Fraction(0))
    assert series._on_tail_bounds(1, 0, 200, 16, Fraction(1, 17**203), bits) is None


def _fraction_partials(fam, l, K):
    """(partial_lo, partial_hi, exact) by the exact Fraction loop over the
    on-Omega terms k <= K and the off-Omega terms: the floors of the terms
    on the 2^-dyadic_bits grid summed into lo, the count of terms, and the
    unfloored sum, which lies in [lo, lo + count] / 2^dyadic_bits."""
    q, omega, n = fam.q, fam.omega, fam.power
    bits = CertConfig.dyadic_bits
    terms = []
    for k in range(1, K + 1):
        if k <= len(omega.head):
            qv = q.value(omega.head[k - 1])
        else:
            qv = Fraction(omega.slope * k + omega.intercept)
        terms.append(qv ** (l - n) / (k * k))
    if not omega.covers_all:
        for i in range(1, max(CertConfig.off_omega_terms, n + 1 - l, 1) + 1):
            if not omega.contains(i):
                terms.append(Fraction(1, 2**i) * q.value(i) ** l / _summed_row(q, n, i))
    lo, count = sum(scaled_floor(x, bits) for x in terms), len(terms)
    return Fraction(lo, 2**bits), Fraction(lo + count, 2**bits), sum(terms, Fraction(0))


@pytest.mark.parametrize(
    "q, powers, lowest",
    [(RATIONAL_PREFIX_Q, (2,), -3),
     (SequenceSpec(Tail.LINEAR, prefix=(Fraction(7, 2), Fraction(1, 2), Fraction(7))), (2,), -3),
     (MIXED_Q, (1, 3), -12),
     (SequenceSpec(Tail.MIXED, prefix=(Fraction(3, 2), 1, Fraction(1, 3), Fraction(5))),
      (1, 3), -12)],
    ids=["integer-head", "rational-head", "mixed", "mixed-rational-head"],
)
def test_convergent_kernel_matches_fraction_loop(q, powers, lowest):
    """The integer kernel's on- and off-Omega floors equal the exact
    Fraction loop's, on mixed q too, whose off-Omega terms it floors, and
    [partial_lo, partial_hi] holds the exact partial sum of those terms."""
    cfg = CertConfig(series_width=Fraction(1, 10**6))
    for n in powers:
        fam = AlphaFamily(q, build_omega(q), power=n)
        for l in range(n, lowest - 1, -1):
            cert = series._convergent_base(fam.q, fam.omega, n, l, cfg)
            lo, hi, exact = _fraction_partials(fam, l, cert.omega_terms)
            assert (cert.partial_lo, cert.partial_hi) == (lo, hi), (n, l)
            assert lo <= exact <= hi, (n, l)


def _reference_off_floors(q, omega, n, l, I, bits):
    """(sum, count) of the off-Omega floors by the per-exponent loop the
    shared bases replaced: each term 2^-i q^l / D_i = (q-1) q^(l-n-1+i) /
    (2^i (q^i - 1)), q = u/v, built for this exponent and floored by one
    integer division."""
    lo = count = 0
    for i in range(1, I + 1):
        if omega.contains(i):
            continue
        count += 1
        qv = q.value(i)
        u, v, e = qv.numerator, qv.denominator, l - n - 1 + i
        if u == v:  # q = 1: the term is 2^-i / i
            lo += (1 << bits) // (i << i)
        else:
            num, den = (u - v) * v ** (i - 1), (u**i - v**i) << i
            num, den = (num * u**e, den * v**e) if e >= 0 else (num * v**-e, den * u**-e)
            lo += (num << bits) // den if den > 0 else (-num << bits) // -den
    return lo, count


@st.composite
def _mixed_prefixes(draw):
    """Up to 40 values q_i = 1, q_i < 1 or q_i > 1; half the time each
    q_i > 1 is raised by i, so that it joins Omega and the head runs long."""
    size = draw(st.integers(min_value=0, max_value=40))
    values = draw(st.lists(st.one_of(
        st.just(Fraction(1)),
        st.fractions(min_value=Fraction(1, 9), max_value=Fraction(8, 9), max_denominator=9),
        st.fractions(min_value=Fraction(6, 5), max_value=60, max_denominator=5),
    ), min_size=size, max_size=size))
    lift = draw(st.booleans())
    return [x + i if lift and x > 1 else x for i, x in enumerate(values, 1)]


@given(
    prefix=_mixed_prefixes(),
    tail=st.sampled_from([Tail.LINEAR, Tail.MIXED]),
    n=st.integers(min_value=1, max_value=3),
)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_convergent_base_matches_per_exponent_loop(prefix, tail, n):
    """The off-Omega bases built once per (q, Omega) and multiplied by q_i^e
    for each exponent give the floors of the per-exponent loop, for prefixes
    with q_i = 1, q_i < 1 and long heads, and exponents n down to -12."""
    q = SequenceSpec(tail, tuple(prefix))
    omega = build_omega(q)
    cfg = CertConfig(series_width=Fraction(1, 10**6))
    bits = CertConfig.dyadic_bits
    for l in range(n, -13, -1):
        cert = series._convergent_base(q, omega, n, l, cfg)
        K = cert.omega_terms
        on = sum(series._on_omega_floors(series._head_ratios(q, omega, K), omega, l - n, bits, K))
        I = 0 if omega.covers_all else max(CertConfig.off_omega_terms, n + 1 - l, 1)
        off, count = _reference_off_floors(q, omega, n, l, I, bits)
        assert cert.partial_lo == Fraction(on + off, 1 << bits), l
        assert cert.partial_hi == Fraction(on + off + K + count, 1 << bits), l
        assert cert.off_terms == count, l


def test_certificate_structure_invariants():
    omega = build_omega(LINEAR_Q)
    fam = AlphaFamily(LINEAR_Q, omega, power=2)
    cert = power_series_certificate(fam, 0)
    assert cert.partial_lo <= cert.partial_hi
    assert Fraction(0) <= cert.tail_lo <= cert.tail_hi
    assert cert.enclosure.lo == cert.partial_lo + cert.tail_lo
    assert cert.enclosure.hi == cert.partial_hi + cert.tail_hi
    # hi sits at least a full certified tail above the partial sum
    assert cert.enclosure.hi - cert.partial_hi >= cert.tail_hi


def test_convergence_monotone_in_exponent():
    omega = build_omega(MIXED_Q)
    fam = AlphaFamily(MIXED_Q, omega, power=3)
    verdicts = [power_series_certificate(fam, l).is_convergent for l in range(-4, 6)]
    # convergent exactly up to l = n = 3
    assert verdicts == [True] * 8 + [False] * 2


# --- divergent certificates ---


def test_harmonic_witness_crossing():
    omega = build_omega(LINEAR_Q)
    fam = AlphaFamily(LINEAR_Q, omega, power=1)
    cert = power_series_certificate(fam, 2)
    assert not cert.is_convergent
    assert cert.threshold == 10
    # first harmonic partial sum beyond 10 (verified by exact summation)
    assert cert.witness_index == 12367
    S = witness_partial_sum(fam, 2, 12367)
    assert S > 10
    assert witness_partial_sum(fam, 2, 12366) <= 10
    assert cert.witness_partial_lb > 10
    assert dyadic_floor(S) == cert.witness_partial_lb
    assert "1/k" in cert.minorant


def test_mixed_witness_crossing():
    omega = build_omega(MIXED_Q)
    fam = AlphaFamily(MIXED_Q, omega, power=2)
    cert = power_series_certificate(fam, 3)
    assert not cert.is_convergent
    assert cert.witness_index == 261  # terms q_{i_k}/k^2, crossing T = 10
    assert witness_partial_sum(fam, 3, cert.witness_index) > 10


@pytest.mark.parametrize("omega, k", [
    (OmegaSpec((1, 1, 5), 4, 1, 0), 2),  # q_{i_2} = 1 in the head
    (OmegaSpec((1, 2, 3), 4, 1, -1), 4),  # i_k = k - 1 from the first tail k on
    (OmegaSpec((1, 2), 3, 0, 5), 6),  # i_k = 5 falls below k at k = 6
], ids=["head", "tail-shift", "tail-slope"])
def test_broken_minorant_raises_naming_k(omega, k):
    """q_{i_k} >= k is checked for every k before the witness search, past
    the witness too: threshold 1 is crossed at k = 2, before any tail k."""
    cfg = CertConfig(divergence_threshold=Fraction(1))
    with pytest.raises(NoCertificateError, match=rf"q_\{{i_{k}\}} = \d+ < {k}: minorant broken"):
        series._divergent_base(LINEAR_Q, omega, 1, 2, cfg)


def _partial_sums(fam, l):
    """(k, S_k) for the exact on-Omega partial sums of sum alpha_i q_i^l / scale."""
    S, k = Fraction(0), 0
    while True:
        k += 1
        S += fam.q.value(fam.omega.index(k)) ** (l - fam.power) / (k * k)
        yield k, S


@pytest.mark.parametrize("threshold, index", [(Fraction(1), 2), (Fraction(11, 6), 4)])
def test_witness_at_exact_partial_sum(monkeypatch, threshold, index):
    # H_1 = 1 and H_3 = 11/6: the fixed-point bracket cannot decide the step
    # whose sum equals the threshold, so that step falls back to the exact sum
    fam = AlphaFamily(LINEAR_Q, build_omega(LINEAR_Q), power=1)
    exact_steps = []

    def counted(alpha, l, upto):
        exact_steps.append(upto)
        return witness_partial_sum(alpha, l, upto)

    monkeypatch.setattr(series, "witness_partial_sum", counted)
    cfg = CertConfig(divergence_threshold=threshold)
    cert = series._divergent_base(fam.q, fam.omega, fam.power, 2, cfg)
    assert exact_steps == [index - 1]
    assert witness_partial_sum(fam, 2, index - 1) == threshold
    assert cert.witness_index == index
    assert cert.witness_partial_lb == dyadic_floor(witness_partial_sum(fam, 2, index))


@given(
    prefix=st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=6), max_size=4
    ),
    tail=st.sampled_from([Tail.LINEAR, Tail.MIXED]),
    power=st.integers(min_value=1, max_value=2),
    threshold=st.fractions(min_value=1, max_value=6, max_denominator=12),
    on_partial_sum=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_witness_is_first_exact_crossing(prefix, tail, power, threshold, on_partial_sum):
    q = SequenceSpec(tail, tuple(prefix))
    fam = AlphaFamily(q, build_omega(q), power=power)
    l = power + 1
    if on_partial_sum:
        # move the threshold onto an exact partial sum: an undecided step
        threshold = next(S for _, S in _partial_sums(fam, l) if S >= threshold)
    index, S = next(
        (k, S) for k, S in _partial_sums(fam, l) if S > threshold and dyadic_floor(S) > threshold
    )
    cert = power_series_certificate(fam, l, CertConfig(divergence_threshold=threshold))
    assert cert.witness_index == index
    assert cert.witness_partial_lb == dyadic_floor(S)


def test_witness_cost_linear_in_index():
    # an exact Fraction sum to this K is quadratic in K; the integer kernel is linear
    fam = AlphaFamily(LINEAR_Q, build_omega(LINEAR_Q), power=1)
    cfg = CertConfig(divergence_threshold=Fraction(13))
    started = time.perf_counter()
    cert = series._divergent_base(fam.q, fam.omega, fam.power, 2, cfg)
    elapsed = time.perf_counter() - started
    K = cert.witness_index
    assert K == 248_397
    assert mp.harmonic(K - 1) < 13 < mp.harmonic(K)
    lb = cert.witness_partial_lb
    assert 13 < mp.mpf(lb.numerator) / lb.denominator <= mp.harmonic(K)
    assert elapsed < 5, f"threshold 13 witness took {elapsed:.1f}s"


def _loop_witness(q, omega, m, T):
    """(K, witness_partial_lb) by a linear-time loop over every step, with no
    closed form: every step bracketed by a 192-bit floor sum, an open one
    decided on the exact partial sum."""
    W, head = 192, len(omega.head)
    lo = k = 0
    while True:
        k += 1
        if k <= head:
            qv = q.value(omega.head[k - 1])
            lo += (qv.numerator**m << W) // (qv.denominator**m * k * k)
        else:
            lo += ((omega.slope * k + omega.intercept) ** m << W) // (k * k)
        if (lo + k) * T.denominator <= T.numerator << W:
            continue
        if lo * T.denominator > T.numerator << W and lo >> 64 == (lo + k) >> 64:
            lb = Fraction(lo >> 64, 1 << 128)
        else:
            S = sum(Fraction(q.value(omega.index(j)) ** m, j * j) for j in range(1, k + 1))
            lb = dyadic_floor(S) if S > T else None
        if lb is not None and lb > T:
            return k, lb


def _exact_partial_sum(q, omega, k):
    return sum(Fraction(q.value(omega.index(j)), j * j) for j in range(1, k + 1))


@given(
    prefix=st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=8, max_denominator=6), max_size=4
    ),
    tail=st.sampled_from([Tail.LINEAR, Tail.MIXED]),
    power=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=3000),
    offset=st.sampled_from([Fraction(0), Fraction(-1, 2**140), Fraction(1, 2**140),
                            Fraction(-1, 10**9), Fraction(1, 7 * 10**4)]),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_witness_matches_loop(prefix, tail, power, k, offset):
    """The loop-then-bisection witness equals the linear-time loop's for
    thresholds on, just off and between exact partial sums S_k, so that K
    lies on both sides of the explicit prefix k0 = 256 and of the loop's
    end at 1024, where the explicit sum stops when it runs on past k0."""
    q = SequenceSpec(tail, tuple(prefix))
    omega = build_omega(q)
    threshold = _exact_partial_sum(q, omega, k) + offset
    K, lb = _loop_witness(q, omega, 1, threshold)
    cfg = CertConfig(divergence_threshold=threshold)
    cert = series._divergent_base(q, omega, power, power + 1, cfg)
    assert (cert.witness_index, cert.witness_partial_lb) == (K, lb)


def test_closed_form_witness_both_sides_of_loop():
    """Pinned thresholds whose witness lies just below, at and above the
    explicit prefix k0 and the loop's end at 1024."""
    omega = build_omega(LINEAR_Q)
    k0 = series._WITNESS_PREFIX
    for k in (k0 - 2, k0 - 1, k0, 1023, 1024, 1025, 2000):
        threshold = _exact_partial_sum(LINEAR_Q, omega, k)
        cfg = CertConfig(divergence_threshold=threshold)
        cert = series._divergent_base(LINEAR_Q, omega, 1, 2, cfg)
        assert (cert.witness_index, cert.witness_partial_lb) == _loop_witness(
            LINEAR_Q, omega, 1, threshold
        )
        assert cert.witness_index == k + 1


def test_witness_work(monkeypatch):
    """Linear q at T = 11 (K = 33617) sums at most k0 explicit floors and
    then takes two Euler-Maclaurin brackets, both of E: one for C at k0 and
    one closed-form step, the step next to it taken from the exact term;
    b = 0, so no zeta(2, .).  Mixed q at T = 10 (K = 261) stays on the
    explicit sum, which runs on past k0 because its bound reaches T below
    1024, and takes none."""
    floors, brackets = [], []
    real_floors, real_em = series._on_omega_floors, series._em_bracket

    def counted_floors(head, omega, s, bits, stop, start=1):
        floors.append(stop - start + 1)
        return real_floors(head, omega, s, bits, stop, start)

    monkeypatch.setattr(series, "_on_omega_floors", counted_floors)
    monkeypatch.setattr(series, "_em_bracket",
                        lambda p, N, bits: brackets.append(p) or real_em(p, N, bits))
    for q, T, K, summed, taken in ((LINEAR_Q, 11, 33617, series._WITNESS_PREFIX, [1, 1]),
                                   (MIXED_Q, 10, 261, 320, [])):
        floors.clear()
        brackets.clear()
        cfg = CertConfig(divergence_threshold=Fraction(T))
        assert series._divergent_base(q, build_omega(q), 1, 2, cfg).witness_index == K
        assert sum(floors) == summed and brackets == taken, q


@pytest.mark.parametrize("q, threshold", [(LINEAR_Q, 11), (MIXED_Q, 20)], ids=["linear", "mixed"])
def test_neighbour_bracket_contains_partial_sum(monkeypatch, q, threshold):
    """The brackets of S_(K-1) and S_(K+1) taken from S_K's and the exact
    term between them take no Euler-Maclaurin bracket, widen S_K's by at
    most one grid step, and contain mpmath's partial sums."""
    omega, bits, k0 = build_omega(q), 192, series._WITNESS_PREFIX
    cfg = CertConfig(divergence_threshold=Fraction(threshold))
    K = series._divergent_base(q, omega, 1, 2, cfg).witness_index
    lo0 = sum(series._on_omega_floors(series._head_ratios(q, omega, k0), omega, 1, bits, k0))
    _, bracket = series._partial_sum_brackets(q, omega, k0, lo0)
    at_K = bracket(K, bits)
    monkeypatch.setattr(series, "_em_bracket", None)  # any Euler-Maclaurin call raises
    near = {k: bracket(k, bits) for k in (K - 1, K + 1)}

    def term(k):
        v = q.value(omega.index(k))
        return mp.mpf(v.numerator) / (v.denominator * k * k)

    with mp.workdps(80):
        S = {K - 1: mp.fsum(map(term, range(1, K)))}
        S[K] = S[K - 1] + term(K)
        S[K + 1] = S[K] + term(K + 1)
        for k, (lo, hi) in [(K, at_K), *near.items()]:
            assert lo <= S[k] * mp.mpf(2) ** bits <= hi, k
            assert hi - lo <= at_K[1] - at_K[0] + (k != K), k


BRACKET_N = (1, 2, 3, 7, 1024, 1025, 33617, 10**6 + 3, 2**64 + 1, 10**20, 3**50, 10**40)


@pytest.mark.parametrize("bits", [192, 256])
def test_ln_bracket_contains_mpmath(bits):
    with mp.workdps(100):
        for N in BRACKET_N:
            lo, hi = series.ln_fixed(N, bits)
            assert lo <= mp.log(N) * mp.mpf(2) ** bits <= hi, N
            assert hi - lo < 2**16, N


@pytest.mark.parametrize("bits", [192, 256])
def test_harmonic_difference_bracket_contains_mpmath(bits):
    """Each kernel bracket (`_em_fixed` at p = 1) holds H_N - ln N - gamma,
    and with ln_fixed the bracket the witness takes (`_em_bracket`)
    brackets H_K - H_h on the 2^-bits grid."""
    def harmonic(N):  # H_N - gamma
        return series._add(series.ln_fixed(N, bits), series._em_bracket(1, N, bits))

    with mp.workdps(100):
        for N in (n for n in BRACKET_N if n <= 10**7):
            e = (mp.harmonic(N) - mp.log(N) - mp.euler) * mp.mpf(2) ** bits
            for J, (lo, hi, _, _) in zip(range(1, 5), series._em_fixed(1, N, bits)):
                assert lo <= e <= hi, (N, J)
        for h, K in zip(BRACKET_N, BRACKET_N[1:]):
            (k_lo, k_hi), (h_lo, h_hi) = harmonic(K), harmonic(h)
            diff = (mp.harmonic(K) - mp.harmonic(h)) * mp.mpf(2) ** bits
            assert k_lo - h_hi <= diff <= k_hi - h_lo, (h, K)
            if K > 1000:  # where the witness uses it; small N stop at R ~ e^(-2 pi N)
                assert k_hi - k_lo < 2**16, K


def _reference_em_bracket(p, N, bits):
    """The witness's bracket from the exact-rational reference: S and R at
    the first J whose R is below 2^-bits, or at the last J before R stops
    shrinking, S - R floored and S + R ceiled onto the 2^-bits grid."""
    prev = None
    for _, S, R in zeta_tail_brackets(p, N):
        if prev is not None and R >= prev[1]:
            S, R = prev
            break
        prev = S, R
        if R.numerator << bits < R.denominator:
            break
    return scaled_floor(S - R, bits), -scaled_floor(-S - R, bits)


@pytest.mark.parametrize("q, thresholds", [
    (LINEAR_Q, (2, 11, Fraction(73, 3), 100, 300, 354)),
    (MIXED_Q, (2, 11, Fraction(73, 3), 100, 354, 700)),
], ids=["linear", "mixed"])
def test_witness_equals_the_exact_bracket_witness(monkeypatch, q, thresholds):
    """The fixed-point kernel's brackets are a few grid steps wider than the
    exact-rational ones, and the witness is the same: (K,
    witness_partial_lb) on a threshold sweep up to K near 2^512 equals the
    one found with the reference brackets."""
    omega = build_omega(q)

    def witnesses():
        certs = [series._divergent_base(q, omega, 1, 2, CertConfig(divergence_threshold=T))
                 for T in map(Fraction, thresholds)]
        return [(cert.witness_index, cert.witness_partial_lb) for cert in certs]

    kernel = witnesses()
    monkeypatch.setattr(series, "_em_bracket", _reference_em_bracket)
    assert witnesses() == kernel
    assert kernel[-1][0].bit_length() > (508 if q is LINEAR_Q else 500)


@pytest.mark.parametrize("threshold", [20, 100])
def test_large_threshold_certifies_fast(threshold):
    """Thresholds 20 and 100 (K has 9 and 44 digits), which the loop could
    not reach, certify in under a second, K checked against mpmath."""
    omega = build_omega(LINEAR_Q)
    cfg = CertConfig(divergence_threshold=Fraction(threshold))
    started = time.perf_counter()
    cert = series._divergent_base(LINEAR_Q, omega, 1, 2, cfg)
    assert time.perf_counter() - started < 1
    K, lb = cert.witness_index, cert.witness_partial_lb
    with mp.workdps(120):
        crossing = threshold + mp.mpf(2) ** -128  # floor(2^128 S_K) > 2^128 T
        assert mp.harmonic(K - 1) < crossing <= mp.harmonic(K)
        assert threshold < mp.mpf(lb.numerator) / lb.denominator <= mp.harmonic(K)


@pytest.mark.parametrize("q", [LINEAR_Q, MIXED_Q], ids=["linear", "mixed"])
def test_unreachable_threshold_rejected_at_once(q):
    cfg = CertConfig(divergence_threshold=Fraction(10**6))
    started = time.perf_counter()
    with pytest.raises(ts.ThresholdNotReachedError, match=r"k = 2\^512"):
        series._divergent_base(q, build_omega(q), 1, 2, cfg)
    assert time.perf_counter() - started < 1


@pytest.mark.parametrize("newton_steps", [0, 6])
@pytest.mark.parametrize("factor", [Fraction(1, 3), 3, 10**6])
def test_witness_independent_of_estimate(monkeypatch, factor, newton_steps):
    """The float estimate of K and the Newton steps only steer the search: a
    wrong estimate, left uncorrected, costs gallop steps, never the answer."""
    monkeypatch.setattr(series, "exp", lambda x: math.exp(x) * factor)
    monkeypatch.setattr(series, "_NEWTON_STEPS", newton_steps)
    omega, threshold = build_omega(LINEAR_Q), Fraction(11)
    cfg = CertConfig(divergence_threshold=threshold)
    cert = series._divergent_base(LINEAR_Q, omega, 1, 2, cfg)
    expected = _loop_witness(LINEAR_Q, omega, 1, threshold)
    assert (cert.witness_index, cert.witness_partial_lb) == expected


@pytest.mark.parametrize("clear_from", [256, None])
def test_open_step_raises_precision(monkeypatch, clear_from):
    """A step whose bracket straddles a 2^-128 grid point is retried with
    more bits and then matches the loop; one still open at the precision cap
    raises NoCertificateError naming k."""
    real = series.ln_fixed

    def blurred(N, bits):  # 2^-100 wide below clear_from bits: every step open
        lo, hi = real(N, bits)
        return (lo, hi) if clear_from and bits >= clear_from else (lo - (1 << bits - 100), hi)

    monkeypatch.setattr(series, "ln_fixed", blurred)
    omega, threshold = build_omega(LINEAR_Q), Fraction(11)
    cfg = CertConfig(divergence_threshold=threshold)
    if clear_from is None:
        with pytest.raises(NoCertificateError, match=r"step k = \d+ undecided at 704 bits"):
            series._divergent_base(LINEAR_Q, omega, 1, 2, cfg)
    else:
        cert = series._divergent_base(LINEAR_Q, omega, 1, 2, cfg)
        expected = _loop_witness(LINEAR_Q, omega, 1, threshold)
        assert (cert.witness_index, cert.witness_partial_lb) == expected


def test_far_supercritical_divergence():
    omega = build_omega(LINEAR_Q)
    fam = AlphaFamily(LINEAR_Q, omega, power=1)
    cert = power_series_certificate(fam, 4)  # terms q^3/k^2 = k
    assert not cert.is_convergent
    # the terms dominate those at l = 2, whose witness certifies them too
    harmonic = power_series_certificate(fam, 2)
    assert (cert.witness_index, cert.witness_partial_lb, cert.threshold) == (
        harmonic.witness_index, harmonic.witness_partial_lb, harmonic.threshold)
    assert cert.witness_partial_lb > cert.threshold
    assert cert.terms == "sum_i alpha_i*q_i^4" and "1/k" in cert.minorant


# --- the per-family memo ---


def test_certificates_kept_per_family_instance(monkeypatch):
    """A family returns the very certificate it computed before; an equal
    but distinct family computes its own."""
    fam = AlphaFamily(LINEAR_Q, build_omega(LINEAR_Q), power=1)
    cert = power_series_certificate(fam, 0)
    assert power_series_certificate(fam, 0) is cert
    twin = AlphaFamily(LINEAR_Q, fam.omega, power=1)
    assert twin == fam
    calls = []
    real = series._base_certificate
    monkeypatch.setattr(series, "_base_certificate", lambda *key: calls.append(key) or real(*key))
    again = power_series_certificate(twin, 0)
    assert calls == [(LINEAR_Q, fam.omega, 1, 0, CertConfig())]
    assert again is not cert and again == cert


# --- scaling ---


def test_rescaled_enclosures_are_exact_multiples():
    omega = build_omega(LINEAR_Q)
    fam = AlphaFamily(LINEAR_Q, omega, power=1)
    r = Fraction(7, 3)
    scaled = fam.rescaled(r)
    for l in (0, 1, -2):
        base = power_series_certificate(fam, l)
        big = power_series_certificate(scaled, l)
        assert big.enclosure.lo == base.enclosure.lo * r
        assert big.enclosure.hi == base.enclosure.hi * r


# --- monomials in the moment series ---


def test_monomial_algebra_and_enclosure():
    """Exponents add under * and subtract under /, a quotient of equal
    monomials is one, and the enclosure is the product of the M_s
    enclosures, a recip() for each negative exponent."""
    M = series.Monomial.moment
    w0 = M(0) / M(-1)
    assert w0.powers == ((-1, -1), (0, 1)) and str(w0) == "M_-1^-1 M_0"
    assert (w0 * w0).powers == ((-1, -2), (0, 2)) and str(series.ONE) == "1"
    assert (w0 / w0).is_one() and (series.ONE / M(0) * M(0)).is_one()
    assert not (M(0) / M(-2)).is_one()
    fam = AlphaFamily(LINEAR_Q, build_omega(LINEAR_Q), power=1)
    enc = {s: power_series_certificate(fam, s).enclosure for s in (0, -1)}
    assert w0.enclosure(fam) == enc[0] / enc[-1]
    assert (w0 * w0).enclosure(fam) == (enc[0] / enc[-1]) * (enc[0] / enc[-1])
    assert series.ONE.enclosure(fam) == Interval.point(1)
    with pytest.raises(NoCertificateError, match="M_2 did not certify convergent"):
        M(2).enclosure(fam)
