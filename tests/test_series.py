"""Certified series: subsequence choice, coefficient formulas, enclosures.

Reference constants were recomputed independently before being frozen here:
exact Fraction partial sums with Euler-Maclaurin tail brackets on one side,
and mpmath.zeta at 40 digits on the other (both agree to all shown digits).

  zeta(2) = 1.6449340668482264365...
  zeta(3) = 1.2020569031595942854...
  zeta(4) = 1.0823232337111381916...
  zeta(5) = 1.0369277551433699263...
"""

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
from treeshift.rationals import Interval
from treeshift.series import (
    CertConfig,
    _DyadicSum,
    _slon4_denominator,
    bernoulli_even,
    build_omega,
    dyadic_floor,
    power_series_certificate,
    witness_partial_sum,
    zeta_tail_brackets,
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


# --- the Euler-Maclaurin zeta tail ---


def _zeta_tail(p, N, J):
    """(S, R) of zeta_tail_brackets(p, N) after J Bernoulli terms."""
    return next((S, R) for j, S, R in zeta_tail_brackets(p, N) if j == J)


def _stated_remainder(p, N, J):
    """|B_{2J+2}|/(2J+2)! (p)_{2J+1} N^{-p-2J-1}, from its definition."""
    rising = math.prod(range(p, p + 2 * J + 1))
    return abs(bernoulli_even(J + 1)) * rising / (math.factorial(2 * J + 2) * N ** (p + 2 * J + 1))


def _assert_bracket_contains_hurwitz_zeta(p, N, J):
    S, R = _zeta_tail(p, N, J)
    lo, hi = S - R, S + R
    assert hi - lo == 2 * _stated_remainder(p, N, J)
    # mpmath reaches zeta(p, N) through zeta(p) minus a partial sum, so its
    # error is absolute: resolve R on the scale of 1, plus guard digits
    with mp.workdps(30 + len(str(R.denominator // R.numerator))):
        assert contains_mpf(Interval(lo, hi), mp.zeta(p, N)), (p, N, J)


def test_bernoulli_numbers():
    assert [bernoulli_even(j) for j in range(6)] == [
        1, Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66)
    ]
    assert bernoulli_even(10) == Fraction(-174611, 330)
    with mp.workdps(60):
        for j in range(1, 40):
            b = bernoulli_even(j)
            assert mp.almosteq(mp.mpf(b.numerator) / b.denominator, mp.bernoulli(2 * j), 1e-50)


@pytest.mark.parametrize("N", [17, 33, 65, 1025])
def test_zeta_tail_bracket_contains_mpmath(N):
    for p in range(2, 41):
        for J in (1, 2, 4, 8, 15):
            _assert_bracket_contains_hurwitz_zeta(p, N, J)


@given(
    p=st.integers(min_value=2, max_value=40),
    N=st.integers(min_value=1, max_value=5000),
    J=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=80, deadline=None)
def test_zeta_tail_bracket_contains_mpmath_random(p, N, J):
    _assert_bracket_contains_hurwitz_zeta(p, N, J)


def test_zeta_tail_bracket_sizing():
    # the sizes the default certificates rely on: K = 16 on-Omega terms leave
    # zeta(p, 17), which a handful of Bernoulli terms pin below 1e-14, and a
    # 1e-30 target needs 15 terms at N = 17 or 8 at N = 65
    assert all(2 * _zeta_tail(p, 17, 4)[1] < Fraction(1, 10**14) for p in range(2, 41))
    first = {N: next(J for J, _, R in zeta_tail_brackets(2, N) if 2 * R < Fraction(1, 10**30))
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


def _fraction_partials(fam, l, K):
    """[partial_lo, partial_hi] by the exact Fraction loop: one
    _DyadicSum.add per on-Omega term k <= K and per off-Omega term."""
    q, omega, n = fam.q, fam.omega, fam.power
    acc = _DyadicSum(CertConfig.dyadic_bits)
    for k in range(1, K + 1):
        if k <= len(omega.head):
            qv = q.value(omega.head[k - 1])
        else:
            qv = Fraction(omega.slope * k + omega.intercept)
        acc.add(qv ** (l - n) / (k * k))
    if not omega.covers_all:
        for i in range(1, max(CertConfig.off_omega_terms, n + 1 - l, 1) + 1):
            if not omega.contains(i):
                acc.add(Fraction(1, 2**i) * q.value(i) ** l / _summed_row(q, n, i))
    return acc.bounds()


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
    Fraction loop's, on mixed q too, whose off-Omega terms it floors."""
    cfg = CertConfig(series_width=Fraction(1, 10**6))
    for n in powers:
        fam = AlphaFamily(q, build_omega(q), power=n)
        for l in range(n, lowest - 1, -1):
            cert = series._convergent_base(fam.q, fam.omega, n, l, cfg)
            assert (cert.partial_lo, cert.partial_hi) == _fraction_partials(
                fam, l, cert.omega_terms), (n, l)


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
    """(K, witness_partial_lb) by the linear-time loop the closed form replaced
    past k = 1024: every step bracketed by a 192-bit floor sum, an open one
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
    lies on both sides of the loop's last step k0 = 1024."""
    q = SequenceSpec(tail, tuple(prefix))
    omega = build_omega(q)
    threshold = _exact_partial_sum(q, omega, k) + offset
    K, lb = _loop_witness(q, omega, 1, threshold)
    cfg = CertConfig(divergence_threshold=threshold)
    cert = series._divergent_base(q, omega, power, power + 1, cfg)
    assert (cert.witness_index, cert.witness_partial_lb) == (K, lb)


def test_closed_form_witness_both_sides_of_loop():
    """Pinned thresholds whose witness lies just below, at and above k0."""
    omega = build_omega(LINEAR_Q)
    for k in (1023, 1024, 1025, 2000):
        threshold = _exact_partial_sum(LINEAR_Q, omega, k)
        cfg = CertConfig(divergence_threshold=threshold)
        cert = series._divergent_base(LINEAR_Q, omega, 1, 2, cfg)
        assert (cert.witness_index, cert.witness_partial_lb) == _loop_witness(
            LINEAR_Q, omega, 1, threshold
        )
        assert cert.witness_index == k + 1


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
    """Each harmonic_brackets bracket holds H_N - ln N - gamma, and with
    ln_fixed they bracket H_K - H_h on the 2^-bits grid."""
    def harmonic(N):  # H_N - gamma
        return series._add(series.ln_fixed(N, bits),
                           series._fixed_bracket(series.harmonic_brackets(N), bits))

    def mpq(x):
        return mp.mpf(x.numerator) / x.denominator

    with mp.workdps(100):
        for N in (n for n in BRACKET_N if n <= 10**7):  # R far above 10^-100 for J <= 4
            e = mp.harmonic(N) - mp.log(N) - mp.euler
            for (J, S, R), _ in zip(series.harmonic_brackets(N), range(4)):
                assert mpq(S - R) <= e <= mpq(S + R), (N, J)
        for h, K in zip(BRACKET_N, BRACKET_N[1:]):
            (k_lo, k_hi), (h_lo, h_hi) = harmonic(K), harmonic(h)
            diff = (mp.harmonic(K) - mp.harmonic(h)) * mp.mpf(2) ** bits
            assert k_lo - h_hi <= diff <= k_hi - h_lo, (h, K)
            if K > 1000:  # where the witness uses it; small N stop at R ~ e^(-2 pi N)
                assert k_hi - k_lo < 2**16, K


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


# --- the dyadic accumulator ---


@given(st.lists(st.fractions(min_value=0, max_value=10, max_denominator=10**6), max_size=60))
@settings(max_examples=120, deadline=None)
def test_dyadic_sum_brackets_true_sum(values):
    acc = _DyadicSum(bits=96)
    for v in values:
        acc.add(v)
    lo, hi = acc.bounds()
    total = sum(values, Fraction(0))
    assert lo <= total <= hi
    assert hi - lo <= Fraction(len(values), 2**96)
