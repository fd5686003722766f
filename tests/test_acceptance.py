"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default `pytest` run.

Reference constants frozen here were recomputed independently (exact
partial sums with Euler-Maclaurin tail brackets, cross-checked against
mpmath.zeta at 40 digits):

  zeta(3)         = 1.20205690315959428540...
  zeta(2)/zeta(3) = 1.36843277762020587573...
  zeta(3)/zeta(4) = 1.11062653532614811717...
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

import treeshift as ts
from treeshift import Branch, Window
from treeshift.construct import (
    consist6_residuals,
    identity_residuals,
    trunk_weights,
    verify,
)
from treeshift.measures import AtomicMeasure, moment
from treeshift.oracle import matrix_power_norm, truncate
from treeshift.series import (
    AlphaFamily,
    build_omega,
    dyadic_floor,
    power_series_certificate,
    witness_partial_sum,
)
from treeshift.shift import _measure_domain_certificate, dense_defined_power, glowne_power_check
from treeshift.wco import cc_residual, from_shift, roundtrip_measures

from conftest import get_artifact, random_weighted_tree

mp.mp.dps = 40

TOL = Fraction(1, 10**10)
GRID = [
    (n, kappa, q)
    for n in (1, 2, 3)
    for kappa in (0, 1, 3, ts.INF)
    for q in (ts.LINEAR_Q, ts.MIXED_Q)
]

ZETA3 = Fraction("1.2020569031595942854")
Z2_OVER_Z3 = Fraction("1.3684327776202058757")
Z3_OVER_Z4 = Fraction("1.1106265353261481172")


def _cell_name(n, kappa, q):
    return f"(n={n}, kappa={'inf' if kappa is ts.INF else kappa}, q={q.tail.value})"


def test_criterion_1_counterexample_grid():
    """Generate + verify across the full grid with per-vertex residuals."""
    worst_cell = 0.0
    for n, kappa, q in GRID:
        started = time.monotonic()
        art = get_artifact(n, kappa, q)
        assert art.window.max_branch == 50 and art.window.max_depth == 30
        assert art.window.max_trunk == (10 if kappa is ts.INF else min(kappa, 10))

        for u, result in consist6_residuals(art).items():
            residual = result.max_residual
            if isinstance(residual, Fraction):
                assert residual == 0, (u, residual)  # rational path: exactly zero
            else:
                assert result.residual_upper <= TOL, (u, residual)

        assert glowne_power_check(art, n).in_domain
        cert = glowne_power_check(art, n + 1)
        assert not cert.in_domain
        K = cert.evidence.witness_index
        recomputed = witness_partial_sum(art.alpha, n + 1, K)
        assert recomputed > 10
        assert dyadic_floor(recomputed) == cert.evidence.witness_partial_lb
        prev = witness_partial_sum(art.alpha, n + 1, K - 1)  # K is the first crossing
        assert not (prev > 10 and dyadic_floor(prev) > 10)

        report = verify(art.to_json_dict())
        assert report.passed, [r.line() for r in report.failures()]

        elapsed = time.monotonic() - started
        worst_cell = max(worst_cell, elapsed)
        assert elapsed <= 10, f"cell {_cell_name(n, kappa, q)} took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS - 24-cell grid verified, worst cell {worst_cell:.2f}s")


GRID_SHA256 = {
    (1, 0, "linear"): "9975fd3cdc06c79650e00a6f2ccd4ef5d713de524bad3972d6374021ea41d557",
    (1, 0, "mixed"): "eca51826669a2e9af6de287f07dd611ec91fc52622de8b2978324f1d7dd510d1",
    (1, 1, "linear"): "170215c1d1c77c56c5925283eb55beb2f3d46aedc16a593c3d7703cc8c98a38d",
    (1, 1, "mixed"): "86c3c631530d8d8816fc767212285cb97535c1014ea4dfb16452e96876e75a61",
    (1, 3, "linear"): "2e780ee022279c5846a5a59e0bc0d7d25bf726f890df254016062d0dfb7dcf32",
    (1, 3, "mixed"): "2033d614a855d7323adb3bda0a7c3048e81b0f851dfbca68bfe04197495c003a",
    (1, ts.INF, "linear"): "00614749583dcd6cde63d018a7f4bfedeaae647aee74d025f9a853f4726f440c",
    (1, ts.INF, "mixed"): "c0f333ce95b4ccf3947064195ff8c890860a06339d7ed56bbf760d3221053322",
    (2, 0, "linear"): "212a114910dfb9a2ee4d905a2b2e12bcf599969b75f912b593e51ba33c7fb72e",
    (2, 0, "mixed"): "57eaad4cc77f45783366927223b0d0f177dc452a2c05134bcb12d2ea5bc4d765",
    (2, 1, "linear"): "3ffd8ed477aa7cdfcad9df281423f95960b9e18099dd1299c36e70682790a1bc",
    (2, 1, "mixed"): "638b56efd28c924fc9277548abf801cc641e9012d08976f9f1ef852d1163ec42",
    (2, 3, "linear"): "1c5f7b6a650a09d581b53726b95349f07080f07593ac2db3dbd54b1740258ba2",
    (2, 3, "mixed"): "2bd9425bf4070f5c67e789e4ae04742df9d236fd47692969263035798abc5b6b",
    (2, ts.INF, "linear"): "51ca957b2fa779d9a7eb3bb51a2fb649c496e42109318b669ad9cae2acd5668d",
    (2, ts.INF, "mixed"): "42340e3114aa41f1be9cfc776281eb98de20c589278a934b792f7589c56b6a42",
    (3, 0, "linear"): "fe07a0f20a2933c2bb0a22e6a572c5a431d871278d9355610f50e328f4264c0e",
    (3, 0, "mixed"): "a19a0bad22ef375392104d5a5d5dcdb0a1d86e1c84b8cd460e4a35fe375f6d56",
    (3, 1, "linear"): "99453423d2c671f505eca0ebd616a09de4cf09bb9876171ea6f925e6638d3182",
    (3, 1, "mixed"): "a470ce18db26bb72cac7e82a808b837f8c54191b70b682df78a4ced6aba0be3b",
    (3, 3, "linear"): "0a152fb0cfdcee2e8a6e1df17f61fc8389622c4151c1ff247575891ebcced203",
    (3, 3, "mixed"): "4d196024681f29ca7f45c1c7703e3b9964f23edd3d58be36b0b57a8f7f0bb647",
    (3, ts.INF, "linear"): "0d340589b82e2b3bce3d1ada87a79365bafbafa3a3db5b40a70a37663e78042b",
    (3, ts.INF, "mixed"): "c2b277afb4ddbefb97d06958e374601e4f12edcfb75150e7591008aba5048902",
}


def test_grid_artifacts_pinned():
    """Every grid artifact is a stable format: any change to its bytes is a
    schema change and must be documented.  The artifacts come from the cache
    criterion 1 fills."""
    digests = {}
    for n, kappa, q in GRID:
        text = get_artifact(n, kappa, q).to_json()
        digests[(n, kappa, q.tail.value)] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GRID_SHA256


def test_grid_series_certificates_sum_few_terms():
    """nd[n] is certified from at most 64 on-Omega terms in every grid cell,
    where an integral tail sandwich summed 2^20; on linear q every convergent
    series a cell uses is, and max_terms binds on no cell."""
    for n, kappa, q in GRID:
        art = get_artifact(n, kappa, q)
        cfg = art.request.cert
        assert art.certificates["nd"][n].omega_terms <= 64, _cell_name(n, kappa, q)
        for l in range(n, -len(art.weights.trunk) - 1, -1):
            cert = power_series_certificate(art.alpha, l, cfg)
            assert cert.omega_terms < cfg.max_terms, (_cell_name(n, kappa, q), l)
            if q is ts.LINEAR_Q:
                assert cert.omega_terms <= 64, (_cell_name(n, kappa, q), l)


def test_criterion_2_derived_constants():
    """Zeta enclosures at width <= 1e-8 (constants recomputed independently)."""
    art = get_artifact(1, 0, ts.LINEAR_Q)
    width_cap = Fraction(1, 10**8)

    inv_c = art.c.recip()  # sum alpha_i = zeta(3)
    cert1 = glowne_power_check(art, 1).norm_sq  # c * sum alpha_i q_i
    lam0 = trunk_weights(art.alpha, ts.INF, 1)[0]

    for enclosure, frozen, reference in (
        (inv_c, ZETA3, mp.zeta(3)),
        (cert1, Z2_OVER_Z3, mp.zeta(2) / mp.zeta(3)),
        (lam0, Z3_OVER_Z4, mp.zeta(3) / mp.zeta(4)),
    ):
        assert enclosure.width <= width_cap
        assert enclosure.contains(frozen)
        lo = mp.mpf(enclosure.lo.numerator) / enclosure.lo.denominator
        hi = mp.mpf(enclosure.hi.numerator) / enclosure.hi.denominator
        assert lo <= reference <= hi
    print(
        "\n[criterion 2] PASS - zeta(3), zeta(2)/zeta(3), zeta(3)/zeta(4) enclosed, "
        f"widths <= 1e-8 (e.g. {float(inv_c.width):.2e})"
    )


def test_criterion_3_oracle_equivalence():
    """power_norm_sq == matrix_power_norm exactly on 100 random trees."""
    rng = random.Random(1226)
    wide = Window(max_trunk=10, max_branch=10, max_depth=10)
    comparisons = 0
    for _ in range(100):
        tree, weights = random_weighted_tree(rng, max_vertices=200)
        op = truncate(tree, weights, wide)
        sample = rng.sample(tree.vertices, min(8, len(tree.vertices)))
        if tree.root not in sample:
            sample.append(tree.root)
        for u in sample:
            for n in range(0, 5):
                assert matrix_power_norm(op, u, n) == ts.power_norm_sq(
                    tree, weights, u, n, wide
                )
                comparisons += 1
    print(f"\n[criterion 3] PASS - {comparisons} exact norm comparisons on 100 trees")


def test_criterion_4_ddn_reduction():
    """Branching-vertex-only verdicts equal all-vertex verdicts."""
    rng = random.Random(4040)
    wide = Window(max_trunk=10, max_branch=10, max_depth=10)
    for _ in range(100):
        tree, weights = random_weighted_tree(rng, max_vertices=60)
        for n in (1, 3):
            reduced = dense_defined_power(tree, weights, None, n, wide)
            full = dense_defined_power(tree, weights, None, n, wide, reduce=False)
            assert reduced.densely_defined == full.densely_defined

    small = Window(max_trunk=10, max_branch=10, max_depth=6)
    for n, kappa, q in GRID:
        art = get_artifact(n, kappa, q)
        window = Window(min(small.max_trunk, art.window.max_trunk), 10, 6)
        for power in (n, n + 1):
            reduced = dense_defined_power(
                art.tree, art.weights, art.measures, power, window
            )
            full = dense_defined_power(
                art.tree, art.weights, art.measures, power, window, reduce=False
            )
            assert reduced.densely_defined == full.densely_defined
            assert reduced.densely_defined == (power <= n)
    print("\n[criterion 4] PASS - reduction agrees on 100 random trees + 24 artifacts")


def test_criterion_5_consistency_implies_cc():
    """CC residual and the round-trip residuals within 1e-10 on the grid."""
    for n, kappa, q in GRID:
        art = get_artifact(n, kappa, q)
        data = from_shift(art.tree, art.weights)
        cc = cc_residual(data, art.measures, art.window, art.request.cert)
        assert cc.algebra_bound <= TOL, _cell_name(n, kappa, q)
        assert cc.h_positive_on_support

        rt = roundtrip_measures(data, art.measures, art.window, art.request.cert)
        assert rt.max_residual <= TOL, _cell_name(n, kappa, q)
    print("\n[criterion 5] PASS - cc and round-trip residuals <= 1e-10 on all 24 artifacts")


def test_criterion_6_moment_domain_monotonicity():
    """Lower powers stay in-domain; certificate path on random measures."""
    for n, kappa, q in GRID:
        art = get_artifact(n, kappa, q)
        for m in range(1, n + 1):
            assert glowne_power_check(art, m).in_domain, _cell_name(n, kappa, q)

    rng = random.Random(600)
    cfg = ts.DEFAULT_CONFIG
    for _ in range(200):
        size = rng.randint(1, 6)
        locations = rng.sample(range(1, 50), size)
        masses = [rng.randint(1, 10) for _ in range(size)]
        total = sum(masses)
        den = rng.randint(1, 3)  # shared denominator keeps locations distinct
        mu = AtomicMeasure(
            [(Fraction(t, den), Fraction(w, total)) for t, w in zip(locations, masses)]
        )
        n = rng.randint(1, 6)
        top = _measure_domain_certificate(ts.ZERO, mu, n, cfg)
        assert top.in_domain and moment(mu, n) is not math.inf
        for m in range(1, n + 1):
            cert = _measure_domain_certificate(ts.ZERO, mu, m, cfg)
            assert cert.in_domain
            assert cert.norm_sq == moment(mu, m)
    print("\n[criterion 6] PASS - monotone domains on grid + 200 random measures")


def test_criterion_7_scale_cancellation():
    """Rescaling alpha leaves trunk ratios bitwise unchanged."""
    rng = random.Random(7007)
    for q in (ts.LINEAR_Q, ts.MIXED_Q):
        omega = build_omega(q)
        for n in (1, 2, 3):
            alpha = AlphaFamily(q, omega, power=n)
            base = trunk_weights(alpha, ts.INF, 6)
            for _ in range(5):
                r = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                scaled = trunk_weights(alpha.rescaled(r), ts.INF, 6)
                assert scaled == base  # exact interval-endpoint equality
    print("\n[criterion 7] PASS - 30 random rescalings leave trunk ratios unchanged")


def _corrupt(doc, path, factor):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    leaf = target[path[-1]]
    if isinstance(leaf, list):
        target[path[-1]] = [str(Fraction(x) * factor) for x in leaf]
    else:
        target[path[-1]] = str(Fraction(leaf) * factor)
    return doc


UP, DOWN = Fraction(1001, 1000), Fraction(999, 1000)
CORRUPTIONS = [
    ((1, 3, ts.LINEAR_Q), UP, ("weights", "branch_first", 0, "w2")),
    ((1, 3, ts.LINEAR_Q), DOWN, ("weights", "branch_first", 44, "w2")),
    ((1, 3, ts.LINEAR_Q), UP, ("weights", "branch_tail", 7, "w2")),
    ((1, 3, ts.LINEAR_Q), DOWN, ("weights", "trunk", 0, "w2")),
    ((1, 3, ts.LINEAR_Q), UP, ("weights", "trunk", 2, "w2")),
    ((1, 3, ts.LINEAR_Q), UP, ("measures", "branch_atoms", 4, "t")),
    ((1, 3, ts.LINEAR_Q), DOWN, ("measures", "mixtures", 0, "atoms", 9, "mass")),
    ((1, 3, ts.LINEAR_Q), UP, ("measures", "mixtures", 2, "prefactor")),
    ((2, ts.INF, ts.MIXED_Q), UP, ("weights", "branch_first", 11, "w2")),
    ((2, ts.INF, ts.MIXED_Q), DOWN, ("weights", "trunk", 5, "w2")),
    ((2, ts.INF, ts.MIXED_Q), UP, ("measures", "branch_atoms", 20, "t")),
    ((3, 1, ts.MIXED_Q), DOWN, ("measures", "mixtures", 1, "atoms", 0, "mass")),
]


def test_criterion_8_negative_controls():
    """Any single >= 1e-3 relative corruption fails verify, naming a vertex."""
    cases = []
    for art_key, factor, path in CORRUPTIONS:
        doc = get_artifact(*art_key).to_json_dict()
        report = verify(_corrupt(doc, path, factor))
        assert not report.passed, path
        named = [
            r
            for r in report.failures()
            if r.vertex is not None and r.residual not in (None, "0")
        ]
        assert named, f"no vertex named for corruption at {path}"
        cases.append((path, named[0].vertex))
    print(f"\n[criterion 8] PASS - {len(cases)} corruptions all detected with named vertices")


def _representative(u):
    return Branch(u.i, 1) if isinstance(u, Branch) else u


def _assert_classes_cover_window(art):
    """identity_residuals, which checks each vertex class once, gives every
    window vertex the residuals of the full-window sweeps."""
    res = identity_residuals(art, art.request.cert)
    full = consist6_residuals(art)
    assert set(res.consist6) == {_representative(u) for u in full}
    for u, result in full.items():
        assert res.consist6[_representative(u)] == result, u
    assert res.consist6_max == max(r.residual_upper for r in full.values())

    cc = cc_residual(from_shift(art.tree, art.weights), art.measures, art.window)
    classes = {c.vertex: c for c in res.cc.per_class}
    assert set(classes) == {_representative(c.vertex) for c in cc.per_class}
    for c in cc.per_class:
        rep = classes[_representative(c.vertex)]
        assert (rep.worst_sigma, rep.max_residual, rep.algebra_bound) == (
            c.worst_sigma, c.max_residual, c.algebra_bound), c.vertex
    assert (res.cc.max_residual, res.cc.algebra_bound, res.cc.h_positive_on_support) == (
        cc.max_residual, cc.algebra_bound, cc.h_positive_on_support)


@pytest.mark.parametrize("art_key", [
    (1, 3, ts.LINEAR_Q), (2, ts.INF, ts.MIXED_Q), (3, ts.INF, ts.LINEAR_Q), (1, 0, ts.MIXED_Q),
], ids=lambda key: _cell_name(*key))
def test_identity_classes_cover_grid_window(art_key):
    _assert_classes_cover_window(get_artifact(*art_key))
