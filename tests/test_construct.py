"""Generator pipeline: subsequences, coefficients, normalization, weights,
measures, artifacts, and verification of stored documents.

Frozen reference values (recomputed independently via exact partial sums
with integral tail sandwiches, cross-checked against mpmath.zeta):

  1/zeta(3)       = 0.83190737258070746868...
  zeta(2)/zeta(3) = 1.36843277762020587573...
  zeta(3)/zeta(4) = 1.11062653532614811717...
  zeta(4)/zeta(5) = 1.04377882484348362176...
  1/zeta(4)       = 0.92393840292159016702...
"""

import hashlib
import json
from fractions import Fraction

import pytest

import treeshift as ts
from treeshift import Branch, LINEAR_Q, MIXED_Q, SequenceSpec, Tail, Trunk
from treeshift.construct import (
    artifact_from_json_dict,
    boundedness_guard,
    checkable_vertices,
    choose_subsequence,
    consist6_residuals,
    generate,
    normalize,
    omega_alphas,
    slon4_alphas,
    trunk_weights,
    verify,
)
from treeshift.errors import SupNotWitnessedError
from treeshift.measures import atoms_view
from treeshift.series import AlphaFamily, power_series_certificate

from conftest import get_artifact

INV_ZETA3 = Fraction("0.8319073725807074687")
Z2_OVER_Z3 = Fraction("1.3684327776202058757")
Z3_OVER_Z4 = Fraction("1.1106265353261481172")
Z4_OVER_Z5 = Fraction("1.0437788248434836218")
INV_ZETA4 = Fraction("0.9239384029215901670")


def linear_alpha(n=1):
    omega = choose_subsequence(LINEAR_Q)
    return AlphaFamily(LINEAR_Q, omega, power=n)


# --- subsequence and coefficients ---


def test_choose_subsequence_linear():
    omega = choose_subsequence(LINEAR_Q)
    assert [omega.index(k) for k in range(1, 6)] == [1, 2, 3, 4, 5]


def test_choose_subsequence_mixed_greedy():
    omega = choose_subsequence(MIXED_Q)
    # greedy from the front: q_1 = 1 qualifies for k = 1, then even indices
    assert [omega.index(k) for k in range(1, 6)] == [1, 2, 4, 6, 8]


def test_choose_subsequence_bounded_rejected():
    with pytest.raises(SupNotWitnessedError):
        choose_subsequence(SequenceSpec(Tail.CONSTANT, prefix=(Fraction(1),)))


def test_omega_alphas_formula():
    omega = choose_subsequence(LINEAR_Q)
    values = omega_alphas(LINEAR_Q, omega, 1, 3)
    assert values == {1: Fraction(1), 2: Fraction(1, 8), 3: Fraction(1, 27)}
    values = omega_alphas(LINEAR_Q, omega, 2, 2)
    assert values[2] == Fraction(1, 16)


def test_slon4_alphas_empty_for_linear():
    omega = choose_subsequence(LINEAR_Q)
    assert slon4_alphas(LINEAR_Q, omega, 1, 40) == {}


def test_slon4_alphas_mixed_bound():
    omega = choose_subsequence(MIXED_Q)
    n = 1
    values = slon4_alphas(MIXED_Q, omega, n, 30)
    assert set(values) == {i for i in range(3, 31, 2)}
    for i, alpha_i in values.items():
        row = sum(MIXED_Q.value(i) ** (n + 1 - k) for k in range(1, i + 1))
        assert alpha_i * row == Fraction(1, 2**i)  # the 2^{-i} budget, exactly
        # every column l <= n is then dominated by 2^{-i}
        for l in range(-3, n + 1):
            if i >= n + 1 - l:
                assert alpha_i * MIXED_Q.value(i) ** l <= Fraction(1, 2**i)


# --- normalization and weights ---


def test_normalize_linear_n1():
    c, cert = normalize(linear_alpha(1))
    assert cert.is_convergent
    assert c.contains(INV_ZETA3)
    assert c.width <= Fraction(1, 10**10)


def test_normalize_linear_n2():
    c, _ = normalize(linear_alpha(2))  # alpha_i = 1/i^4
    assert c.contains(INV_ZETA4)


def test_normalize_finite_alpha_exact():
    from treeshift.series import finite_series_certificate

    cert = finite_series_certificate(LINEAR_Q, (Fraction(1, 2), Fraction(1, 4)), 0)
    assert cert.enclosure.exact() == Fraction(3, 4)


def test_branch_weights_values(artifact_n1):
    art = artifact_n1
    # |lambda_{2,1}|^2 = c * (1/8) * 2 = c/4
    w = art.weights.branch_first_squared(2)
    assert w.lo == art.c.lo / 4 and w.hi == art.c.hi / 4
    # |lambda_{i,j}|^2 = q_i for j >= 2
    assert art.weights.branch_tail_squared(5) == 5
    assert art.weights.squared_at(Branch(5, 5)) == 5


def test_zgod0_exact(artifact_n1):
    """Branch moments match weight products exactly: the m-th moment of
    delta_{q_i} is q_i^m, the product of chain weights is q_i^m as well."""
    art = artifact_n1
    for i in (1, 2, 7):
        mu = art.measures.measure_at(Branch(i, 1))
        for m in range(1, 6):
            prod = Fraction(1)
            for j in range(2, m + 2):
                prod *= art.weights.squared_at(Branch(i, j))
            assert ts.moment(mu, m) == prod


def test_trunk_weights_zeta_ratios():
    alpha = linear_alpha(1)
    trunk = trunk_weights(alpha, ts.INF, 3)
    assert trunk[0].contains(Z3_OVER_Z4)
    assert trunk[1].contains(Z4_OVER_Z5)
    for w in trunk:
        assert w.width <= Fraction(1, 10**8)


def test_trunk_weights_level_guard():
    alpha = linear_alpha(1)
    with pytest.raises(ValueError):
        trunk_weights(alpha, 2, 3)  # only lambda_0, lambda_{-1} exist


def test_trunk_ratio_scale_cancellation():
    """Rescaling alpha by a positive rational leaves every trunk enclosure
    endpoint exactly unchanged."""
    alpha = linear_alpha(1)
    base = trunk_weights(alpha, ts.INF, 5)
    for r in (Fraction(3, 7), Fraction(41), Fraction(1, 997)):
        scaled = trunk_weights(alpha.rescaled(r), ts.INF, 5)
        assert scaled == base


# --- measure system ---


def test_branch_measures_are_diracs(artifact_n1):
    mu = artifact_n1.measures.measure_at(Branch(3, 7))
    assert mu == ts.AtomicMeasure.dirac(3)


def test_mixture_mass_is_one_within_width(artifact_n1):
    art = artifact_n1
    mix = art.measures.mixtures[0]
    a0 = power_series_certificate(art.alpha, 0, art.request.cert)
    assert (mix.prefactor * a0.enclosure).contains(1)


def test_trunk_measure_structure():
    art = get_artifact(1, 2)
    mix = art.measures.mixtures[1]  # mu_{-1}
    # masses are |lambda_0|^2 * c * alpha_i / q_i, i.e. alpha_i q_i^{-1}-weighted
    view = atoms_view(mix, 4)
    lam0 = art.weights.trunk[0]
    c = art.c
    for i, (t, mass) in enumerate(view, start=1):
        assert t == i
        expected = lam0 * c * (Fraction(1, i**3) / i)
        # same value up to interval evaluation order: both enclose alpha_i/(i*zeta(4))
        assert mass.intersects(expected)
    # and the total mass identity holds within enclosure width
    a1 = power_series_certificate(art.alpha, -1, art.request.cert)
    assert (mix.prefactor * a1.enclosure).contains(1)


def test_eps_all_zero(artifact_n1_k3):
    art = artifact_n1_k3
    for u in checkable_vertices(art.tree, art.window):
        assert art.measures.eps_at(u) == 0


# --- boundedness guard ---


def test_boundedness_guard_linear():
    assert boundedness_guard(LINEAR_Q).startswith("unbounded")


def test_boundedness_guard_constant():
    q = SequenceSpec(Tail.CONSTANT, prefix=(Fraction(2),))
    assert boundedness_guard(q).startswith("bounded-looking")


def test_boundedness_guard_mixed():
    assert boundedness_guard(MIXED_Q).startswith("unbounded")


# --- generate + verify ---


def test_generate_n1_headline_values(artifact_n1):
    art = artifact_n1
    nd = art.certificates["nd"]
    assert nd[1].is_convergent
    assert (art.c * nd[1].enclosure).contains(Z2_OVER_Z3)
    assert not nd[2].is_convergent
    assert nd[2].witness_index == 12367


def test_generate_n2_series(artifact_n2):
    art = artifact_n2
    nd = art.certificates["nd"]
    assert nd[1].is_convergent and nd[2].is_convergent
    assert not nd[3].is_convergent


def test_consist6_residuals_small(artifact_n1_k3):
    art = artifact_n1_k3
    tol = art.request.cert.check_tol
    for u, result in consist6_residuals(art).items():
        assert result.residual_upper <= tol, u


def test_widly1_residuals(artifact_n1_k3):
    art = artifact_n1_k3
    tol = art.request.cert.check_tol
    for l, r in art.certificates["widly1"].items():
        assert r <= tol, l
    assert art.certificates["widly1_prime"]["residual"] <= tol


def test_verify_roundtrip(artifact_n1_k3):
    doc = json.loads(artifact_n1_k3.to_json())
    report = verify(doc)
    assert report.passed, [r.line() for r in report.failures()]


def test_artifact_json_deterministic():
    a = generate(ts.CounterexampleRequest(n=1, kappa=1, q=MIXED_Q))
    b = generate(ts.CounterexampleRequest(n=1, kappa=1, q=MIXED_Q))
    assert a.to_json() == b.to_json()


def test_artifact_from_json_dict(artifact_n1):
    doc = artifact_n1.to_json_dict()
    rebuilt = artifact_from_json_dict(doc)
    assert rebuilt.to_json_dict() == doc


def test_verify_names_corrupted_vertex(artifact_n1_k3):
    doc = json.loads(artifact_n1_k3.to_json())
    doc["weights"]["trunk"][1]["w2"] = [
        str(Fraction(x) * Fraction(1001, 1000)) for x in doc["weights"]["trunk"][1]["w2"]
    ]
    report = verify(doc)
    assert not report.passed
    assert any(r.vertex == str(Trunk(1)) for r in report.failures())


def test_all_series_meet_width_target(artifact_n2):
    """Every convergent certificate of a generated artifact honours the
    configured enclosure width target (including the slow quadratic tail)."""
    art = artifact_n2
    target = art.request.cert.series_width
    for m, cert in art.certificates["nd"].items():
        if cert.is_convergent:
            assert cert.width <= target, m
    for l in range(0, 6):
        cert = power_series_certificate(art.alpha, -l, art.request.cert)
        assert cert.width <= target, -l


def test_verify_survives_structural_corruption(artifact_n1_k3):
    doc = json.loads(artifact_n1_k3.to_json())
    doc["alpha"]["power"] = 0  # invalid: the family requires power >= 1
    report = verify(doc)
    assert not report.passed
    assert report.records[0].name == "parse-artifact"


def test_verify_window_override(artifact_n1_k3):
    doc = artifact_n1_k3.to_json_dict()
    report = verify(doc, window=ts.Window(max_trunk=2, max_branch=10, max_depth=6))
    assert report.passed


def test_mixture_levels_match_window():
    art = get_artifact(2, ts.INF)
    assert len(art.measures.mixtures) == art.window.max_trunk + 1
    assert len(art.weights.trunk) == art.window.max_trunk + 1
    art0 = get_artifact(2, 0)
    assert len(art0.measures.mixtures) == 1
    assert art0.weights.trunk == ()


# --- artifact bytes and malformed documents ---


SMALL_WINDOW = ts.Window(3, 12, 4)


@pytest.fixture(scope="module")
def small_artifacts():
    return {
        q.tail.value: generate(ts.CounterexampleRequest(n=1, kappa=3, q=q, window=SMALL_WINDOW))
        for q in (LINEAR_Q, MIXED_Q)
    }


def test_artifact_bytes_pinned(small_artifacts):
    """The serialized artifact is a stable format: any change to these bytes
    is a schema change and must be documented."""
    digests = {
        q: hashlib.sha256(art.to_json().encode()).hexdigest()
        for q, art in small_artifacts.items()
    }
    assert digests == {
        "linear": "854e96d2f87c8a3ac6e5f353e745d6fe2f13a7dd910bafe6fba7857753a24c77",
        "mixed": "3383b63a7c1350137dc260779472072452ed887e293a83a230dd64e8fe33bb7c",
    }


def _truncate(path):
    def edit(doc):
        node = doc
        for key in path:
            node = node[key]
        node.pop()
    return edit


def _drop_mixture(doc):
    del doc["measures"]["mixtures"][1]


def _drop_certificates(doc):
    del doc["certificates"]


def _atom_at_zero(doc):
    doc["measures"]["branch_atoms"][4]["t"] = "0"


def _huge_window(doc):
    doc["window"]["max_branch"] = 10**6


def _edit(*path, value=None):
    """Set the entry at `path` to `value`, or delete it when value is None."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "edit, path",
    [
        (_truncate(("weights", "branch_first")), "weights.branch_first"),
        (_truncate(("weights", "branch_tail")), "weights.branch_tail"),
        (_truncate(("measures", "branch_atoms")), "measures.branch_atoms"),
        (_drop_mixture, "measures.mixtures"),
        (_drop_certificates, "certificates.nd"),
        (_atom_at_zero, "measures.branch_atoms[4].t"),
        (_huge_window, "weights.branch_first"),
        (_edit("certificates", "nd", "2", "verdict"), "certificates.nd.2.verdict"),
        (_edit("certificates", "nd", "2", "witness_partial_lb"),
         "certificates.nd.2.witness_partial_lb"),
        (_edit("certificates", "nd", "1", value="convergent"), "certificates.nd.1"),
        (_edit("certificates", "nd", "2", "witness_partial_lb", value="abc"),
         "certificates.nd.2.witness_partial_lb"),
        (_edit("window", "max_branch", value=12.0), "window"),
        (_edit("window", "max_depth", value=4.0), "window"),
    ],
)
def test_verify_rejects_malformed_shape(small_artifacts, edit, path):
    doc = small_artifacts["linear"].to_json_dict()
    edit(doc)
    report = verify(doc)
    assert not report.passed
    assert [r.name for r in report.records] == ["parse-artifact"]
    assert report.records[0].detail.startswith(path)


@pytest.mark.parametrize(
    "key, value", [("head", []), ("head", ["a"]), ("slope", 0), ("intercept", -5)]
)
def test_verify_stops_at_wrong_omega(small_artifacts, key, value):
    """Every later rule is built from the stored omega, so a wrong one ends
    verification at its reconstruction record."""
    doc = small_artifacts["linear"].to_json_dict()
    doc["omega"][key] = value
    report = verify(doc)
    assert not report.passed
    assert [(r.name, r.passed) for r in report.records] == [("omega-reconstruction", False)]
