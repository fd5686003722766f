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
from treeshift import Branch, Trunk, Window
from treeshift.construct import (
    consist6_residuals,
    trunk_weights,
    verify,
)
from treeshift.measures import AtomicMeasure, moment
from treeshift.oracle import matrix_power_norm, truncate
from treeshift.rationals import coerce, scalar_abs_upper
from treeshift.series import (
    AlphaFamily,
    build_omega,
    dyadic_floor,
    power_series_certificate,
    witness_partial_sum,
)
from treeshift.shift import _measure_domain_certificate, dense_defined_power, glowne_power_check
from treeshift.wco import BRANCH_CLASS, cc_residual, from_shift, h_function, roundtrip_measures

import identity_reference as reference
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


# Last moved when Omega became derived from the tail rule: `omega.head`
# holds only the indices before `affine_from` ([] on linear q, [1] on mixed
# q, where the scan wrote 73 or 74), and `request.cert` states only
# `check_tol` (`max_terms`, `off_omega_terms`, `scan_horizon`, `dyadic_bits`
# and `max_power` left it); no other leaf changed, and the records `verify`
# gives are the same.  Before that, when the table enclosures were rounded
# outward, every endpoint of `c`, `weights.branch_first`, `weights.trunk` and
# each mixture's `prefactor` and atom `mass` became "<m>e<k>" with a
# 40-digit mantissa.
GRID_SHA256 = {
    (1, 0, "linear"): "b080a99bfdc95cee9f7ca461eaab8adbdc30b3f588fde52868348524c432e172",
    (1, 0, "mixed"): "8fef688829c681043a8165dbfcd270cd80c7afe886746d0ed277d3c0e5d0341c",
    (1, 1, "linear"): "0fad2f86851004a6589dfbcaf22c48ac169d6f7ad85597e612d86205b777cd30",
    (1, 1, "mixed"): "c866e173dff5dd68575c4a89149cc37d8c4b6a6790a59b41ec43526157ae2a4e",
    (1, 3, "linear"): "797141dd3508e2e21e28883d9ad121bb132d50b564aa188a1a325a8b27089101",
    (1, 3, "mixed"): "d5cdbf68b58bea037f9b240d3905fe788840b859ef8155d6ad05bee1ed254baf",
    (1, ts.INF, "linear"): "200adda9246e71ab6bab8272cd6350c1ac15e9c3fe1719bc2e8374df460387fc",
    (1, ts.INF, "mixed"): "5b2ef2c0b83fba2b66981b1bda82eeb26f7af8837c1a92bc8abe13354d67cc49",
    (2, 0, "linear"): "6ef2e5df8814c76357563c03964567be81bc1b1d8578ec6d1ec4a0e0f3f58c64",
    (2, 0, "mixed"): "5220876e9245d58aeb8dc73e24b515b3489e6037839875891f2956f96057d28b",
    (2, 1, "linear"): "1619953599e8a8b5d648f116462b9aaa9b2731c5f546bce6f3e00b2792503374",
    (2, 1, "mixed"): "fb45a9a23cb77c7518d5747d4b1786fee4ea595ff442e155964f918646d78f8b",
    (2, 3, "linear"): "f828e0eb4d5e946df94ca8c4aa64a2d68056bef467bea931abe30de9268cda5f",
    (2, 3, "mixed"): "27edd5cb406d02bfe7ecf0fd2d10bd015385f82e02861a1918e26abae277cd91",
    (2, ts.INF, "linear"): "13cc2ceb7fb1d55a300af9166decfca71727a04bf152ec8da346d6ac93dfccd5",
    (2, ts.INF, "mixed"): "7921a5fa6c5833083954f1cbf29495e624be323afafb6b13ffd131685af57f0c",
    (3, 0, "linear"): "560e2614f14d279634ba1b055e11e8a91bf7553741a1ac4856e390629eba0bc1",
    (3, 0, "mixed"): "64709b6740ceea492a877f767938c6a5a5b5ec654bc618469af1d4d21977be2f",
    (3, 1, "linear"): "a3ef04ad19a8f1a254ddfb4e69899bef33c430f370af66bc5c5ed466fd5f4968",
    (3, 1, "mixed"): "52442c734abe6ec63f6c11b6363ab583465b6c97ae19b07953f47dea42306d58",
    (3, 3, "linear"): "74644132914c53bcfefc0184549b4ae1f02965d87645df328556d03290acfc66",
    (3, 3, "mixed"): "f54d69208ab25f79300955c47602ce6a10b09a759b8c3779357551fb2d632728",
    (3, ts.INF, "linear"): "50e6534deb34d9d952cb0165e061667c4440b2eee97048a40ed4c60b4aaf5032",
    (3, ts.INF, "mixed"): "f1fc9520d6d025832b908db0005103ee1c4b5102d0a74df6701166906de8c963",
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
    """Every convergent series a grid cell uses is certified from K = 16
    on-Omega terms, on linear and on mixed q, where an integral tail sandwich
    summed 2^20 and a bracket on (q_slope*k+q_icept)/k summed up to 8,192."""
    for n, kappa, q in GRID:
        art = get_artifact(n, kappa, q)
        cfg = art.request.cert
        for l in range(n, -len(art.weights.trunk) - 1, -1):
            cert = power_series_certificate(art.alpha, l, cfg)
            assert cert.omega_terms == 16, (_cell_name(n, kappa, q), l)


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


def _assert_classes_cover_window(art):
    """consist6_residuals and cc_residual evaluate the rule's classes, one
    row per trunk level and one for every branch; the exact reference,
    swept over every vertex of the window, finds at each of them the
    residuals of its class: at a branch vertex whose chain child the window
    holds, exactly those of the branch row, and at a trunk vertex, whose
    row is exact, an interval residual containing 0 at every atom and
    sigma."""
    consist6 = consist6_residuals(art, art.request.cert)
    data = from_shift(art.tree, art.weights)
    cc = cc_residual(data, art.measures, art.window, art.request.cert)
    trunk = [Trunk(k) for k in reversed(range(len(art.measures.mixtures)))]
    assert list(consist6) == trunk + [BRANCH_CLASS]
    full = reference.consist6_residuals(art)
    W, D = art.window.max_branch, art.window.max_depth
    assert list(full) == trunk + [Branch(i, j) for i in range(1, W + 1) for j in range(1, D)]
    for u, ref in full.items():
        if isinstance(u, Branch):
            assert ref.max_residual == consist6[BRANCH_CLASS].max_residual == 0, u
        else:
            assert consist6[u].max_residual == 0, u
            assert all(coerce(r).gap_to(0) == 0 for _, r in ref.per_atom), u
    exact_cc = reference.cc_classes(data, art.measures, art.window, art.request.cert)
    assert list(exact_cc) == list(full)
    classes = {c.vertex: c for c in cc.per_class}
    assert list(classes) == trunk + [BRANCH_CLASS]
    for x, (sigmas, diffs) in exact_cc.items():
        if isinstance(x, Branch):
            row = classes[BRANCH_CLASS]
            h = h_function(data, x, art.window, art.request.cert)
            bounds = [scalar_abs_upper(d) / h for d in diffs]
            assert (max(bounds), sum(bounds[:-1])) == (row.max_residual, row.algebra_bound), x
        else:
            assert classes[x].algebra_bound == 0, x
            assert all(coerce(d).gap_to(0) == 0 for d in diffs), x


@pytest.mark.parametrize("art_key", [
    (1, 3, ts.LINEAR_Q), (2, ts.INF, ts.MIXED_Q), (3, ts.INF, ts.LINEAR_Q), (1, 0, ts.MIXED_Q),
], ids=lambda key: _cell_name(*key))
def test_identity_classes_cover_grid_window(art_key):
    _assert_classes_cover_window(get_artifact(*art_key))


def test_identity_classes_do_not_read_the_window():
    """The identity classes, their rows and vertices_checked are the same
    on windows of 6 and 60 branches and of depth 3 and 1: the layer reads
    neither max_branch nor max_depth."""
    seen = []
    for window in (Window(3, 6, 3), Window(3, 60, 3), Window(3, 6, 1)):
        art = ts.generate(ts.CounterexampleRequest(n=1, kappa=3, q=ts.MIXED_Q, window=window))
        cfg = art.request.cert
        cc = cc_residual(from_shift(art.tree, art.weights), art.measures, art.window, cfg)
        seen.append((consist6_residuals(art, cfg), cc,
                     art.to_json_dict()["certificates"]["consist6"]))
    assert seen[0] == seen[1] == seen[2]
    assert list(seen[0][0]) == [Trunk(3), Trunk(2), Trunk(1), Trunk(0), BRANCH_CLASS]
    assert seen[0][2]["vertices_checked"] == 5
