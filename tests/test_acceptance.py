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
    identity_residuals,
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


# Last moved when the table enclosures were rounded outward: every endpoint
# of `c`, `weights.branch_first`, `weights.trunk` and each mixture's
# `prefactor` and atom `mass` is written "<m>e<k>" with a 40-digit mantissa,
# lo rounded down and hi up; no other leaf changed.
GRID_SHA256 = {
    (1, 0, "linear"): "99566601d40825bdce582803b4308a5eb8ca2589b0cb137dbd0eacf80cd73f54",
    (1, 0, "mixed"): "365a5805556a2e2f2dc63ca5c809880d80de30674a499e55e5ff36a95821e835",
    (1, 1, "linear"): "d24f61bdc91ea8960a293a689ca69eb184d28b96f35fce8d419c84d284385e2a",
    (1, 1, "mixed"): "ed339b8352cbb3cae5ac5a52064741624d3e77b364599b0c69f4d3d3bc7a23e1",
    (1, 3, "linear"): "05ffa4696909ed48e7f54ee540286c336c0c22e15af793ced22477dc70fdd9ef",
    (1, 3, "mixed"): "d3b00440027214e41c778bd9c952ab21975160769d131f50ee5476e11665cd95",
    (1, ts.INF, "linear"): "0654cfb4afdf7339b97ae440a10226c84b7aa82f8af71e5adfaf547500bda1b4",
    (1, ts.INF, "mixed"): "364a92565f02a6a5f941d76b4176f32d748dd3ebd14a679eccb4b3acf5ee1e49",
    (2, 0, "linear"): "c303b25aa9beee6fff82f4a8ec7677e30ec86794cf670f359b5a5c2801d1fa49",
    (2, 0, "mixed"): "cf83e0120ab953c6eec0b3dd6de44459d92f5c67c225115f3c7cdc9bd98c29c7",
    (2, 1, "linear"): "13d4fc1ba77802e1323cbd496212d2a36c65e733c0c0213cf3a646ead8eb4efb",
    (2, 1, "mixed"): "fa8c64baa796f16424f2c6c2a4dde2ff1c44ccc79a3f1a6df6b025de9bdcbd31",
    (2, 3, "linear"): "a242accd996d16e546325a14e7b3e0cc72f45f14a23a7d784e1427583721a17a",
    (2, 3, "mixed"): "d0986dc3134effb940690d84dc0e765fe29d087f606c679056f6f02d47f7fb7d",
    (2, ts.INF, "linear"): "e86309100eb6d3c138f9110604defc9bbbe7585299020ac0ca47e0a12d82b671",
    (2, ts.INF, "mixed"): "0a772fd882c976bc687ea95ebf5d1ddf23740a35c696f66d6efcb86f5a0d9949",
    (3, 0, "linear"): "618b34995a85a57ac0691c93ac909681e8d03630e1011778d7e0a45ad9fb87dd",
    (3, 0, "mixed"): "ddebe7b667601db260c4efd1866809209aeef0e5188b1516ec07b7bac6079018",
    (3, 1, "linear"): "c7a5c575a5a9841e2f53a00354ef13a32bc048dc0b67e39b5baacbe41b1b1524",
    (3, 1, "mixed"): "f378f4da39289ec7e860b8b89c1645d8a41c3b2e32908d0067eed5e12e22de66",
    (3, 3, "linear"): "f1225f048c09fc607188d5de7f5f6b94054be35aa277aaf302cc090fede03617",
    (3, 3, "mixed"): "19b5510b0ca030988d1f3676f4c1399621e75ef38a28e84c81ff588129870d50",
    (3, ts.INF, "linear"): "8402eb9c80f4600496e591a1d0849a59b24ba71eb928e970232b45a2a2995b5d",
    (3, ts.INF, "mixed"): "0f844a5725f4333c76993fbbaca9933d4575d770f7846a48076d5828278924ad",
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
    """identity_residuals evaluates the rule's classes, one row per trunk
    level and one for every branch; the exact reference, swept over every
    vertex of the window, finds at each of them the residuals of its class:
    at a branch vertex whose chain child the window holds, exactly those of
    the branch row, and at a trunk vertex, whose row is exact, an interval
    residual containing 0 at every atom and sigma."""
    res = identity_residuals(art, art.request.cert)
    trunk = [Trunk(k) for k in reversed(range(len(art.measures.mixtures)))]
    assert list(res.consist6) == trunk + [BRANCH_CLASS]
    full = reference.consist6_residuals(art)
    W, D = art.window.max_branch, art.window.max_depth
    assert list(full) == trunk + [Branch(i, j) for i in range(1, W + 1) for j in range(1, D)]
    for u, ref in full.items():
        if isinstance(u, Branch):
            assert ref.max_residual == res.consist6[BRANCH_CLASS].max_residual == 0, u
        else:
            assert res.consist6[u].max_residual == 0, u
            assert all(coerce(r).gap_to(0) == 0 for _, r in ref.per_atom), u
    data = from_shift(art.tree, art.weights)
    exact_cc = reference.cc_classes(data, art.measures, art.window, art.request.cert)
    assert list(exact_cc) == list(full)
    classes = {c.vertex: c for c in res.cc.per_class}
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
        res = identity_residuals(art, art.request.cert)
        seen.append((res.consist6, res.cc, art.certificates["consist6"]))
    assert seen[0] == seen[1] == seen[2]
    assert list(seen[0][0]) == [Trunk(3), Trunk(2), Trunk(1), Trunk(0), BRANCH_CLASS]
    assert seen[0][2]["vertices_checked"] == 5
