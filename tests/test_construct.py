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

import copy
import dataclasses
import functools
import hashlib
import importlib.util
import json
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import Branch, LINEAR_Q, MIXED_Q, SequenceSpec, Tail, Trunk, construct, wco
from treeshift.construct import (
    CheckRecord,
    approx_residual,
    choose_subsequence,
    consist6_residuals,
    generate,
    identity_lemmas,
    normalize,
    trunk_weights,
    verify,
)
from treeshift.errors import NoCertificateError, SupNotWitnessedError
from treeshift.measures import atoms_view
from treeshift import rationals, series
from treeshift.rationals import Interval, enclosure, render_interval
from treeshift.series import AlphaFamily, power_series_certificate
from treeshift.tree import window_vertices

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


def _on_omega_values(q, n, upto_k):
    """alpha_{i_k} = 1/(k^2 q_{i_k}^n) for k <= upto_k, keyed by i_k."""
    omega = choose_subsequence(q)
    fam = AlphaFamily(q, omega, n)
    return {omega.index(k): fam.on_omega_value(k) for k in range(1, upto_k + 1)}


def _off_omega_values(q, n, upto_i):
    """Off-Omega alpha_i = 2^{-i} / sum_{k=1}^{i} q_i^{n+1-k} for i <= upto_i."""
    omega = choose_subsequence(q)
    fam = AlphaFamily(q, omega, n)
    return {i: fam.off_omega_value(i) for i in range(1, upto_i + 1) if not omega.contains(i)}


def test_omega_alphas_formula():
    values = _on_omega_values(LINEAR_Q, 1, 3)
    assert values == {1: Fraction(1), 2: Fraction(1, 8), 3: Fraction(1, 27)}
    values = _on_omega_values(LINEAR_Q, 2, 2)
    assert values[2] == Fraction(1, 16)


def test_slon4_alphas_empty_for_linear():
    assert _off_omega_values(LINEAR_Q, 1, 40) == {}


def test_slon4_alphas_mixed_bound():
    n = 1
    values = _off_omega_values(MIXED_Q, n, 30)
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


def test_branch_weights_values(artifact_n1):
    art = artifact_n1
    # |lambda_{2,1}|^2 = c * (1/8) * 2 = c/4, each endpoint rounded outward
    # to 40 digits: the rendering of the reduced quotient
    w = art.weights.branch_first_squared(2)
    assert w == render_interval(art.c / 4)
    assert enclosure(w).lo <= art.c.lo / 4 and art.c.hi / 4 <= enclosure(w).hi
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
    for u in window_vertices(art.tree, art.window):
        assert art.measures.eps_at(u) == 0


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


def test_consist6_mixture_rows_need_infinite_eta(artifact_n1_k3):
    """The mixture row of vertex 0 counts every branch as its child, so on a
    tree with finitely many branches consistency is refused, as CC is; three
    children cannot carry the mixture."""
    art = dataclasses.replace(artifact_n1_k3, tree=ts.ModelTree(eta=3, kappa=3))
    with pytest.raises(NoCertificateError):
        consist6_residuals(art)


@pytest.mark.parametrize("field, value", [("n", True), ("kappa", True), ("kappa", False)])
def test_request_rejects_booleans(field, value):
    """A bool is not an integer here: n = True would write a document its
    own verify rejects, and kappa = True would fail later on the window."""
    fields = {"n": 1, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ts.CounterexampleRequest(**fields)


def test_widly1_residuals(artifact_n1_k3):
    art = artifact_n1_k3
    tol = art.request.cert.check_tol
    certificates = art.to_json_dict()["certificates"]
    for entry in certificates["widly1"]:
        assert Fraction(entry["residual"]) <= tol, entry["l"]
    assert Fraction(certificates["widly1_prime"]["residual"]) <= tol


def test_generate_keeps_the_traced_layer_calls(monkeypatch):
    """perfbench/spans.py times the layers by rebinding the module
    attributes in its _LAYER_CALLS, and perfbench/worker.py reads what the
    consistency and CC layers return: every (module, attribute) pair there
    resolves, and generate calls construct.consist6_residuals and
    wco.cc_residual through their module attributes, once each, the first
    returning a dict keyed by class with the branch class last, the second
    a report whose classes name their vertices."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attribute, _ in spans._LAYER_CALLS:
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute)
    results = {}

    def spy(module, attribute):
        real = getattr(module, attribute)

        def called(*args, **kwargs):
            results.setdefault(attribute, []).append(real(*args, **kwargs))
            return results[attribute][-1]
        monkeypatch.setattr(module, attribute, called)

    spy(construct, "consist6_residuals")
    spy(wco, "cc_residual")
    generate(ts.CounterexampleRequest(n=1, kappa=3, q=MIXED_Q, window=ts.Window(3, 6, 3)))
    (consist6,), (cc,) = results["consist6_residuals"], results["cc_residual"]
    assert list(consist6) == [Trunk(3), Trunk(2), Trunk(1), Trunk(0), wco.BRANCH_CLASS]
    assert [c.vertex for c in cc.per_class] == list(consist6)


def test_verify_roundtrip(artifact_n1_k3):
    doc = json.loads(artifact_n1_k3.to_json())
    report = verify(doc)
    assert report.passed, [r.line() for r in report.failures()]


def test_artifact_json_deterministic():
    a = generate(ts.CounterexampleRequest(n=1, kappa=1, q=MIXED_Q))
    b = generate(ts.CounterexampleRequest(n=1, kappa=1, q=MIXED_Q))
    assert a.to_json() == b.to_json()


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
    is a schema change and must be documented.  The digests last moved when
    Omega became derived from the tail rule: only `omega.head` ([] on
    linear q, [1] on mixed q) and `request.cert`, which states `check_tol`
    alone, changed.  Before that the table enclosures were rounded outward."""
    digests = {
        q: hashlib.sha256(art.to_json().encode()).hexdigest()
        for q, art in small_artifacts.items()
    }
    assert digests == {
        "linear": "1e9c554ad4c21b6aa493e487fedfefd4b52bfbe2ebfa253d51d972f854d19e96",
        "mixed": "dda29b2473f30cc35e769066b3a359ef7fe63a7b1106a7d498ed7283c4449f00",
    }


def test_exact_residuals_pinned(small_artifacts):
    """The records verify gives and the identity records it decided (each
    record's classes with their monomials, and each leaf as recomputed) are
    pinned as well: a change the rounded max_residual strings of the
    artifact would hide fails here.  The digests last moved when the
    identity records became one table (`identity_lemmas`): this test pinned
    `repr(verify(doc).residuals)`, a record class whose every residual was
    Fraction(0) and which is gone, and pins the records and the decided
    table in its place.  Each class monomial is one, so the linear and
    mixed tables are the same; the records differ in their nd details."""
    digests = {}
    for q, art in small_artifacts.items():
        report = verify(art.to_json_dict())
        digests[q] = hashlib.sha256(repr((report.records, report.lemmas)).encode()).hexdigest()
    assert digests == {
        "linear": "54408b7ee823a3f95e26c5af2a9adad72bb02b796bca9b515f27ffa571588770",
        "mixed": "7280343bb95c082b0c3e581f71f92f8a3b0ccf64c65c46b670cac380f5a8b937",
    }


def test_verify_checks_stored_convergent_enclosure(small_artifacts):
    """A stored nd enclosure of a convergent series must meet the recomputed
    one and be at most series_width wide."""
    recomputed = small_artifacts["linear"].certificates["nd"][1].enclosure
    lo, hi = recomputed.lo, recomputed.hi
    wide = [lo, lo + Fraction(1, 10**11)]
    for enclosure in ([0, 1000], [hi + 1, hi + 2], [lo - 2, lo - 1], wide):
        doc = small_artifacts["linear"].to_json_dict()
        nd1 = doc["certificates"]["nd"]["1"]
        nd1.update(enclosure=[str(x) for x in enclosure], partial_lo="-5")
        report = verify(doc)
        assert [r.name for r in report.failures()] == ["nd[1]"], enclosure


@pytest.mark.parametrize("key, value", [("witness_index", 5), ("witness_index", 12368),
                                        ("threshold", "1"), ("threshold", "11")])
def test_verify_checks_stored_witness(small_artifacts, key, value):
    """A divergence certificate's stored witness_index and threshold must
    equal the recomputed index and the request's threshold."""
    doc = small_artifacts["linear"].to_json_dict()
    doc["certificates"]["nd"]["2"][key] = value
    report = verify(doc)
    assert [r.name for r in report.failures()] == ["nd[2]"]
    assert "recomputed K=12367 at threshold 10" in report.failures()[0].detail


def test_threshold_20_passes_and_unreachable_threshold_fails_fast(small_artifacts):
    """Threshold 20 (K = 272,400,600) generates and verifies in under a
    second each; a document asking for threshold 10^6 fails one
    series-certificate record in under a second."""
    request = ts.CounterexampleRequest(n=1, kappa=3, q=LINEAR_Q, window=SMALL_WINDOW,
                                       cert=ts.CertConfig(divergence_threshold=Fraction(20)))
    started = time.monotonic()
    doc = generate(request).to_json_dict()
    assert time.monotonic() - started < 1
    assert doc["certificates"]["nd"]["2"]["witness_index"] == 272_400_600
    started = time.monotonic()
    assert verify(doc).passed
    assert time.monotonic() - started < 1
    doc = small_artifacts["linear"].to_json_dict()
    doc["request"]["cert"]["divergence_threshold"] = str(10**6)
    started = time.monotonic()
    report = verify(doc)
    assert time.monotonic() - started < 1
    assert [(r.name, r.passed) for r in report.records] == [("series-certificate", False)]
    assert "divergence_threshold 1000000 not reached" in report.records[0].detail


@pytest.mark.parametrize("value", [["3", "2"], ["a", "1"], "x", [None, "1"], None])
def test_verify_rejects_malformed_enclosure(small_artifacts, value):
    doc = small_artifacts["linear"].to_json_dict()
    if value is None:
        del doc["certificates"]["nd"]["1"]["enclosure"]
    else:
        doc["certificates"]["nd"]["1"]["enclosure"] = value
    report = verify(doc)
    assert [(r.name, r.passed) for r in report.records] == [("parse-artifact", False)]
    assert report.records[0].detail.startswith("certificates.nd.1.enclosure")


def test_verify_ignores_cached_certificates(monkeypatch):
    """verify recomputes every series certificate it checks: a document
    generated with a wrong nd[1] fails verify there alone, while the intact
    document still passes."""
    request = ts.CounterexampleRequest(n=1, kappa=3, q=LINEAR_Q, window=SMALL_WINDOW)
    intact = generate(request).to_json_dict()
    real = series._convergent_base

    def shifted(q, omega, n, l, cfg):
        cert = real(q, omega, n, l, cfg)
        if l != 1:
            return cert
        up = Fraction(1, 1000)
        return dataclasses.replace(cert, enclosure=Interval(cert.enclosure.lo + up,
                                                            cert.enclosure.hi + up))

    monkeypatch.setattr(series, "_convergent_base", shifted)
    doc = generate(request).to_json_dict()
    monkeypatch.undo()
    nd1 = doc["certificates"]["nd"]["1"]
    assert nd1["enclosure"] != intact["certificates"]["nd"]["1"]["enclosure"]
    report = verify(doc)
    assert [r.name for r in report.failures()] == ["nd[1]"]
    assert verify(intact).passed


def test_fine_width_generates_and_verifies():
    """Linear q reaches width 1e-30 from 16 on-Omega terms per series, so
    generate and verify stay fast."""
    width = Fraction(1, 10**30)
    request = ts.CounterexampleRequest(n=1, kappa=3, q=LINEAR_Q, window=SMALL_WINDOW,
                                       cert=ts.CertConfig(series_width=width))
    art = generate(request)
    convergent = [c for c in art.certificates["nd"].values() if c.is_convergent]
    assert convergent and all(c.width <= width for c in convergent)
    started = time.monotonic()
    report = verify(art.to_json_dict())
    assert time.monotonic() - started < 5
    assert report.passed, [r.line() for r in report.failures()]


@pytest.mark.parametrize("q, width", [
    (MIXED_Q, Fraction(1, 10**20)),  # below the off-Omega tail 2^-48
    (LINEAR_Q, Fraction(1, 10**95)),  # below what the 2^-320 grid reaches
    (MIXED_Q, Fraction(1, 10**40)),
])
def test_unreachable_width_raises_before_summing(monkeypatch, q, width):
    """A width no certificate reaches raises at once, naming the series and
    both widths, where the K-doubling loop used to run to max_terms and
    return a certificate wider than asked.  A width the off-Omega tail and
    the rounding alone exceed raises before the on-Omega tail is bracketed,
    and a width below the narrowest bracket Euler-Maclaurin gives at K = 16
    (linear q at 1e-95) skips that K without running the J loop."""
    budgets, zetas = [], []
    real, real_zeta = series._on_tail_bounds, series._zeta_fixed
    monkeypatch.setattr(series, "_on_tail_bounds",
                        lambda *args: budgets.append(args[4]) or real(*args))
    monkeypatch.setattr(series, "_zeta_fixed",
                        lambda *args: zetas.append(args) or real_zeta(*args))
    request = ts.CounterexampleRequest(n=1, kappa=3, q=q, window=SMALL_WINDOW,
                                       cert=ts.CertConfig(series_width=width))
    started = time.monotonic()
    with pytest.raises(ts.WidthNotReachedError, match=r"sum_i alpha_i\*q_i\^0: series_width "):
        generate(request)
    assert time.monotonic() - started < 1
    assert all(budget > 0 for budget in budgets), budgets
    assert zetas == []


def test_certificates_never_wider_than_series_width():
    """Every convergent certificate returned, K-doubling ones included, is
    at most series_width wide."""
    for q in (LINEAR_Q, MIXED_Q):
        alpha = AlphaFamily(q, choose_subsequence(q), power=2)
        for width in (Fraction(1, 10**6), Fraction(1, 10**14)):
            cfg = ts.CertConfig(series_width=width)
            for l in range(-3, 3):
                assert power_series_certificate(alpha, l, cfg).width <= width, (q, width, l)


@pytest.mark.parametrize("edit, detail", [
    (lambda request: request["cert"].update(series_width=f"1/{10**95}"),
     "series_width 1E-95 not reached"),
    (lambda request: request.update(q={"tail": "constant", "prefix": ["7"]}),
     "sup q_i looks bounded"),
])
def test_verify_without_certificate_is_one_record(small_artifacts, edit, detail):
    """A document whose series no certificate covers fails one record, where
    verify used to raise (bounded q) or run to max_terms (the width)."""
    doc = small_artifacts["linear"].to_json_dict()
    edit(doc["request"])
    report = verify(doc)
    assert not report.passed
    assert [r.name for r in report.records] == ["series-certificate"]
    assert detail in report.records[0].detail


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


def _edit(*path, value=None, kappa=3):
    """Set the entry at `path` to `value`, or delete it when value is None;
    `kappa` names the (1, kappa, mixed) document an identity edit is for."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    edit.kappa = kappa
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
        (_edit("alpha", "power", value=1.5), "alpha.power"),
        (_edit("alpha", "power", value=2), "alpha.power"),
        (_edit("weights", value=[]), "weights: not an object"),
        (_edit("request", "window", "max_branch", value=11), "request.window"),
        (_edit("certificates", "nd", "2", "witness_index"), "certificates.nd.2.witness_index"),
        (_edit("certificates", "nd", "2", "witness_index", value="junk"),
         "certificates.nd.2.witness_index"),
        (_edit("certificates", "nd", "2", "witness_index", value=12367.0),
         "certificates.nd.2.witness_index"),
        (_edit("certificates", "nd", "2", "threshold"), "certificates.nd.2.threshold"),
        (_edit("certificates", "nd", "2", "threshold", value="ten"),
         "certificates.nd.2.threshold"),
    ],
)
def test_verify_rejects_malformed_shape(small_artifacts, edit, path):
    doc = small_artifacts["linear"].to_json_dict()
    edit(doc)
    report = verify(doc)
    assert not report.passed
    assert [r.name for r in report.records] == ["parse-artifact"]
    assert report.records[0].detail.startswith(path)


def test_verify_work_independent_of_depth(small_artifacts):
    """Each identity is checked once per vertex class, so a declared depth of
    a million costs nothing: the tables do not grow with it."""
    doc = small_artifacts["linear"].to_json_dict()
    doc["window"]["max_depth"] = doc["request"]["window"]["max_depth"] = 10**6
    started = time.monotonic()
    report = verify(doc)
    assert time.monotonic() - started < 2
    assert report.passed, [r.line() for r in report.failures()]


@pytest.mark.parametrize(
    "key, value", [("head", [1]), ("head", ["a"]), ("slope", 0), ("intercept", -5)]
)
def test_verify_stops_at_wrong_omega(small_artifacts, key, value):
    """The stored omega is compared with the request's, never read: a wrong
    one states another rule and ends verification at its reconstruction
    record, which names the key that differs.  The head of linear q is []
    (every index is on Omega from affine_from = 1), so [1] is a wrong head."""
    doc = small_artifacts["linear"].to_json_dict()
    doc["omega"][key] = value
    report = verify(doc)
    assert not report.passed
    assert [(r.name, r.passed) for r in report.records] == [("omega-reconstruction", False)]
    assert report.records[0].detail.startswith(f"omega.{key}: not the request's omega {{")


@pytest.mark.parametrize("value", [[], "x", None])
def test_verify_stops_at_omega_not_an_object(small_artifacts, value):
    doc = small_artifacts["linear"].to_json_dict()
    doc["omega"] = value
    report = verify(doc)
    assert [(r.name, r.passed, r.detail) for r in report.records] == [
        ("omega-reconstruction", False, "omega: not an object")]


def _scalar_leaves(node, path):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _scalar_leaves(value, path + (key,))
    elif not isinstance(node, list):
        yield path


FIXED_CERT_KEYS = ("check_tol",)
# constants the library keeps but documents no longer state
RETIRED_CERT_KEYS = ("max_terms", "off_omega_terms", "scan_horizon", "dyadic_bits", "max_power")
REQUEST_LEAVES = tuple(_scalar_leaves(
    ts.CounterexampleRequest(n=1, kappa=3, window=SMALL_WINDOW).to_json(), ("request",)
))


@pytest.mark.parametrize("value", [1.5, None, "x", -3])
@pytest.mark.parametrize(
    "path", REQUEST_LEAVES + tuple(("request", "cert", key) for key in RETIRED_CERT_KEYS)
    + (("alpha", "power"), ("alpha", "scale")), ids=".".join
)
def test_verify_total_on_retyped_leaves(small_artifacts, path, value):
    """Any scalar of the request or alpha, retyped or out of range, gives a
    failing report and never an exception; a fixed constant, or a retired
    one stated again, fails parsing."""
    doc = small_artifacts["linear"].to_json_dict()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    report = verify(doc)
    assert not report.passed
    if path[:2] == ("request", "cert") and path[2] in FIXED_CERT_KEYS + RETIRED_CERT_KEYS:
        assert [r.name for r in report.records] == ["parse-request"]
        assert report.records[0].detail.startswith(f"cert.{path[2]}")


def test_cert_config_keeps_two_settable_values():
    assert [f.name for f in dataclasses.fields(ts.CertConfig)] == [
        "series_width", "divergence_threshold"
    ]
    with pytest.raises(TypeError):
        ts.CertConfig(check_tol=Fraction(1))


def test_verify_rejects_forged_tolerance(small_artifacts):
    """A document that loosens the tolerance and precision to pass weights
    10 % off the rule is rejected before any check runs under its values."""
    doc = small_artifacts["linear"].to_json_dict()
    doc["request"]["cert"].update(check_tol="100", dyadic_bits=1, max_terms=16)
    up = Fraction(11, 10)
    doc["c"] = [str(Fraction(x) * up) for x in doc["c"]]
    for entry in doc["weights"]["branch_first"]:
        entry["w2"] = [str(Fraction(x) * up) for x in entry["w2"]]
    report = verify(doc)
    assert [(r.name, r.passed) for r in report.records] == [("parse-request", False)]
    assert report.records[0].detail.startswith("cert.check_tol")


@pytest.mark.parametrize(
    "key, value",
    [("check_tol", "1/100"), ("max_terms", 16), ("off_omega_terms", 8), ("scan_horizon", 10),
     ("dyadic_bits", 100000), ("max_power", 3)],
)
def test_verify_rejects_other_fixed_constants(small_artifacts, key, value):
    """check_tol, the one constant a document states, must be the library's;
    the retired constants are not keys of the request, so a document that
    states one, at any value, fails parsing too."""
    doc = small_artifacts["linear"].to_json_dict()
    doc["request"]["cert"][key] = value
    started = time.monotonic()
    report = verify(doc)
    assert time.monotonic() - started < 1
    assert [(r.name, r.passed) for r in report.records] == [("parse-request", False)]
    assert report.records[0].detail.startswith(f"cert.{key}")


# --- stored identity certificates, schema, eps and the number format ---


@pytest.fixture(scope="module")
def doc_363():
    """The (1, 3, mixed) document of Window(3, 6, 3)."""
    request = ts.CounterexampleRequest(n=1, kappa=3, q=MIXED_Q, window=ts.Window(3, 6, 3))
    return generate(request).to_json_dict()


@pytest.mark.parametrize("edit, name", [
    (_edit("certificates", "cc", "algebra_bound", value="5"), "cc"),
    (_edit("certificates", "cc", "max_residual", value="1/10000000000000"), "cc"),
    (_edit("certificates", "consist6", "max_residual", value="7"), "consist6"),
    (_edit("certificates", "consist6", "vertices_checked", value=3), "consist6"),
    (_edit("certificates", "cc", "h_positive_on_support", value=False), "h-positive-on-support"),
    (_edit("certificates", "widly1_prime", "holds_leq_1", value=False), "widly1-prime"),
    (_edit("certificates", "widly1_prime", "residual", value="1/10000000000000"), "widly1-prime"),
    (_edit("certificates", "zgod_prime_residual", value="1/3"), "zgod-prime"),
    (_edit("certificates", "widly1", 1, "residual", value="1/7"), "widly1[l=2]"),
    (_edit("certificates", "mass_residuals", 2, "residual", value="1/10000000000000"),
     "mass[mu_-2]"),
    # kappa = inf: four widly1 rows, the last at l = 4, and no widly1-prime
    pytest.param(_edit("certificates", "widly1", 3, "residual", value="1/7", kappa=ts.INF),
                 "widly1[l=4]", id="inf-widly1[l=4]"),
    pytest.param(_edit("certificates", "consist6", "vertices_checked", value=4, kappa=ts.INF),
                 "consist6", id="inf-consist6"),
    pytest.param(_edit("certificates", "mass_residuals", 3, "residual", value="1/3",
                       kappa=ts.INF), "mass[mu_-3]", id="inf-mass[mu_-3]"),
    pytest.param(_edit("certificates", "cc", "algebra_bound", value="1/3", kappa=ts.INF),
                 "cc", id="inf-cc"),
])
def test_verify_compares_stored_identity_certificates(edit, name):
    """A stored identity certificate that differs from the recomputed one
    fails its record, and the detail names both values.  Every recomputed
    residual is 0, so a stored 1e-13, below check_tol, fails as well.
    Every leaf of the document's identity certificates is owned by exactly
    one record of `identity_lemmas`, so none goes unread."""
    text = _fuzz_document("mixed", edit.kappa)
    stored = Counter(path for path, _ in _identity_leaves(json.loads(text)["certificates"]))
    owned = Counter(path for lemma in identity_lemmas(edit.kappa, ts.Window(3, 6, 3))
                    for path, _ in _identity_leaves(construct._lemmas_json((lemma,))))
    assert owned == stored and set(owned.values()) == {1}
    doc = json.loads(text)
    edit(doc)
    failures = verify(doc).failures()
    assert [r.name for r in failures] == [name]
    assert "stored" in failures[0].detail and "recomputed" in failures[0].detail


def test_verify_reports_one_consist6_record(doc_363):
    """A stored consist6 leaf that differs fails one consist6 record, whose
    detail names both values, as every other record does; the intact
    document has one passing consist6 record, with no vertex and no note."""
    def consist6(doc):
        return [r for r in verify(doc).records if r.name == "consist6"]

    assert consist6(doc_363) == [CheckRecord("consist6", True, residual="0")]
    doc = copy.deepcopy(doc_363)
    doc["certificates"]["consist6"]["vertices_checked"] = 3
    (record,) = consist6(doc)
    assert not record.passed and record.vertex is None and record.residual == "0"
    assert record.detail == ("stored consist6 {max_residual: 0, vertices_checked: 3}, "
                             "recomputed {max_residual: 0, vertices_checked: 5}")


def _identity_leaves(certificates):
    """(path, value) of each leaf of the identity certificates of a
    document, an entry of a residual table keyed by its position, not its
    index in the list."""
    for path, value in _leaves({k: v for k, v in certificates.items() if k != "nd"}):
        if path[0] in ("widly1", "mass_residuals"):
            entry = certificates[path[0]][path[1]]
            path = (path[0], entry["l" if path[0] == "widly1" else "shift"]) + path[2:]
        yield path, value


@pytest.mark.parametrize("paths, failures", [
    ([("weights", "branch_tail", 2, "w2")], [("weight-reconstruction", "v(3,2)")]),
    ([("measures", "branch_atoms", 2, "t")], [("atom-reconstruction", "v(3,1)")]),
    ([("weights", "branch_tail", 2, "w2"), ("measures", "branch_atoms", 2, "t")],
     [("weight-reconstruction", "v(3,2)"), ("atom-reconstruction", "v(3,1)")]),
], ids=["chain-weight", "atom", "both"])
def test_verify_fails_edited_chain_weight_or_atom(paths, failures):
    """A stored chain weight |lambda_{3,j}|^2 or branch atom of branch 3 set
    to 4 instead of q_3 = 3 fails verify at that branch, also when both are
    set alike (so the chain identity q q^-1 = 1 holds on the stored
    numbers): every stored number must be the rule's, and the identity
    records evaluate the rules, whose branch rows are the chain identity."""
    doc = json.loads(_fuzz_document("linear"))
    for path in paths:
        functools.reduce(lambda node, key: node[key], path[:-1], doc)[path[-1]] = "4"
    assert [(r.name, r.vertex) for r in verify(doc).failures()] == failures


_CANONICAL = re.compile(r"-?[0-9]+(/[0-9]+|e-?[0-9]+)?")  # rat_to_str's form or a rendered one


def _is_interval(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(isinstance(x, str) and _CANONICAL.fullmatch(x) for x in value))


def _leaves(node, path=()):
    """(path, value) of every leaf of a document; a [lo, hi] interval is one leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and not _is_interval(node):
        for p, value in enumerate(node):
            yield from _leaves(value, path + (p,))
    else:
        yield path, node


def _edited(value):
    """A rational string (rat_to_str's form or a rendered table endpoint) or
    an interval times 1001/1000, written as rat_to_str writes it (the
    rational 0 set to 1/1000), an integer + 1, a boolean flipped, any other
    string suffixed."""
    up = Fraction(1001, 1000)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if _is_interval(value):
        return [str(Fraction(x) * up) for x in value]
    if _CANONICAL.fullmatch(value):
        return str(Fraction(value) * up or Fraction(1, 1000))
    return value + "x"


def _narrowed(value):
    """An interval with 2^-1000 added to its lower end: inside the interval
    it was, so inside any enclosure that contained it."""
    lo, hi = map(Fraction, value)
    assert lo + Fraction(1, 2**1000) <= hi
    return [str(lo + Fraction(1, 2**1000)), str(hi)]


@pytest.mark.parametrize("q", [LINEAR_Q, MIXED_Q], ids=lambda q: q.tail.value)
def test_verify_checks_every_leaf(q):
    """A document states only what verify checks: an edit of any one leaf of
    the (1, 3, q) Window(3, 6, 3) document fails verify, except the two
    edits that state another request with the same artifact.  Those are a
    series_width 1001/1000 times wider, which the same certificates meet,
    and max_trunk 4, which the window cuts back to kappa = 3.  Every
    interval leaf narrowed by 2^-1000 fails too: a stored number must be
    the rule's value, not merely meet its enclosure."""
    request = ts.CounterexampleRequest(n=1, kappa=3, q=q, window=ts.Window(3, 6, 3))
    text = generate(request).to_json()
    passing, narrowed_passing = [], []
    for path, value in _leaves(json.loads(text)):
        edits = [(passing, _edited(value))]
        if _is_interval(value):
            edits.append((narrowed_passing, _narrowed(value)))
        for found, edited in edits:
            doc = json.loads(text)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = edited
            assert node[path[-1]] != value, path
            if verify(doc).passed:
                found.append(".".join(map(str, path)))
    assert passing == ["request.cert.series_width", "request.window.max_trunk"]
    assert narrowed_passing == []


@functools.cache
def _fuzz_document(tail: str, kappa=3) -> str:
    """The (1, kappa, q) Window(3, 6, 3) document, as JSON text."""
    q = {"linear": LINEAR_Q, "mixed": MIXED_Q}[tail]
    request = ts.CounterexampleRequest(n=1, kappa=kappa, q=q, window=ts.Window(3, 6, 3))
    return generate(request).to_json()


def _nodes(node, path=()):
    """(path, value) of every node below `node`, interval endpoints included."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,), value
            yield from _nodes(value, path + (key,))


# perfbench/mutate.py's twelve kinds, each as (kind, path, value) on these documents
_SEED_EDITS = [
    ("scale", ("weights", "branch_first", 1, "w2"), None),
    ("scale", ("weights", "branch_tail", 1, "w2"), None),
    ("scale", ("weights", "trunk", 1, "w2"), None),
    ("scale", ("measures", "branch_atoms", 1, "t"), None),
    ("scale", ("measures", "mixtures", 1, "atoms", 1, "mass"), None),
    ("scale", ("measures", "mixtures", 1, "prefactor"), None),
    ("drop", ("certificates",), None),
    ("drop", ("certificates", "nd", "2"), None),
    ("truncate", ("weights", "branch_first"), None),
    ("drop", ("measures", "mixtures", 1), None),
    ("set", ("certificates", "nd", "1", "verdict"), "divergent"),
    ("set", ("measures", "branch_atoms", 1, "t"), "0"),
]
_RETYPED = [None, True, False, 0, 7, 2.5, "x", [], {}]
_FITS = {  # the nodes a random edit of these kinds may pick
    "truncate": lambda old: isinstance(old, list) and old,
    "float": lambda old: type(old) is int,
    "scale": lambda old: _is_interval(old) or isinstance(old, str) and _CANONICAL.fullmatch(old),
}


def _seeded(test):
    """Each of _SEED_EDITS on both documents, as an explicit example."""
    for tail in ("linear", "mixed"):
        for edit in _SEED_EDITS:
            test = example(tail=tail, edit=edit)(test)
    return test


@given(tail=st.sampled_from(["linear", "mixed"]),
       edit=st.tuples(st.sampled_from(["drop", "truncate", "retype", "scale", "float"]),
                      st.integers(min_value=0), st.sampled_from(_RETYPED)))
@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@example(tail="linear", edit=("scale", ("request", "cert", "series_width"), None))
@example(tail="mixed", edit=("retype", ("request", "window", "max_trunk"), 7))
@example(tail="mixed", edit=("float", ("omega", "slope"), None))
@example(tail="mixed", edit=("float", ("omega", "intercept"), None))
@example(tail="mixed", edit=("float", ("omega", "head", 0), None))
@example(tail="mixed", edit=("float", ("omega", "affine_from"), None))
@example(tail="mixed", edit=("float", ("alpha", "power"), None))
@_seeded
def test_verify_total_under_mutation(tail, edit):
    """verify is total on the (1, 3, q) Window(3, 6, 3) documents: after one
    dropped key or list entry, truncated list, retyped node, integer
    replaced by the equal float or rational times 1001/1000, it returns a
    report within 1 s and never raises, and the report fails, except for the
    two edits that state another request with the same artifact (a wider
    series_width, a larger max_trunk).  perfbench's mutation kinds run as
    explicit examples, and so do the float edits of `omega` and `alpha`,
    which verify used to read: three of them raised TypeError, and
    affine_from 2.0 passed."""
    doc = json.loads(_fuzz_document(tail))
    kind, path, value = edit
    if isinstance(path, int):  # a random edit: the integer picks the node
        fits = [p for p, old in _nodes(doc) if _FITS.get(kind, lambda old: True)(old)]
        path = fits[path % len(fits)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "truncate":
        old.pop()
    else:
        parent[path[-1]] = {"scale": _edited, "float": float}.get(kind, lambda _: value)(old)
        assume(type(parent[path[-1]]) is not type(old) or parent[path[-1]] != old)
    started = time.monotonic()
    report = verify(doc)
    assert time.monotonic() - started < 1, (kind, path)
    wider = kind == "scale" and path == ("request", "cert", "series_width")
    longer_trunk = (path == ("request", "window", "max_trunk") and type(value) is int
                    and kind in ("retype", "set") and value > old)
    assert report.passed == (wider or longer_trunk), (kind, path, value)


@pytest.mark.parametrize("edit, path", [
    (_edit("certificates", "zgod_prime_residual", value="junk"),
     "certificates.zgod_prime_residual"),
    (_edit("certificates", "widly1"), "certificates.widly1"),
    (_edit("certificates", "mass_residuals", value=[]), "certificates.mass_residuals"),
    (_edit("certificates", "cc", "algebra_bound", value=5), "certificates.cc.algebra_bound"),
    (_edit("certificates", "cc", "h_positive_on_support", value=1),
     "certificates.cc.h_positive_on_support"),
    (_edit("certificates", "consist6", "vertices_checked", value="10"),
     "certificates.consist6.vertices_checked"),
    (_edit("certificates", "consist6"), "certificates.consist6"),
    (_edit("certificates", "widly1_prime"), "certificates.widly1_prime"),
    (_edit("schema", value="not-a-schema"), "schema"),
    (_edit("schema"), "schema"),
    (_edit("measures", "eps", value=[1, 2]), "measures.eps"),
    (_edit("measures", "eps"), "measures.eps"),
    # kappa = inf: no terminal level, and four widly1 entries
    pytest.param(_edit("certificates", "widly1_prime", kappa=ts.INF,
                       value={"l": 4, "residual": "0", "holds_leq_1": True}),
                 "certificates.widly1_prime: kappa = inf", id="inf-widly1_prime"),
    pytest.param(_edit("certificates", "widly1", 3, kappa=ts.INF),
                 "certificates.widly1: 3 entries, the window needs 4", id="inf-widly1-short"),
    pytest.param(_edit("certificates", "widly1", 3, "l", value=5, kappa=ts.INF),
                 "certificates.widly1[3]: ValueError: l = 5, expected 4", id="inf-widly1-l"),
    pytest.param(_edit("certificates", "mass_residuals", 3, "residual", value=0, kappa=ts.INF),
                 "certificates.mass_residuals[3]", id="inf-mass-retyped"),
    pytest.param(_edit("certificates", "consist6", "max_residual", kappa=ts.INF),
                 "certificates.consist6.max_residual: missing", id="inf-consist6-missing"),
])
def test_verify_rejects_missing_or_mistyped_fields(edit, path):
    """A missing or mistyped certificate field, a wrong or missing schema and
    a non-empty eps each fail one parse-artifact record naming the path."""
    doc = json.loads(_fuzz_document("mixed", edit.kappa))
    edit(doc)
    report = verify(doc)
    assert [(r.name, r.passed) for r in report.records] == [("parse-artifact", False)]
    assert report.records[0].detail.startswith(path)


def test_verify_rejects_widly1_prime_without_terminal_level():
    """A window that stops above the root -kappa has no terminal level."""
    request = ts.CounterexampleRequest(n=1, kappa=3, q=MIXED_Q, window=ts.Window(1, 6, 3))
    doc = generate(request).to_json_dict()
    assert "widly1_prime" not in doc["certificates"] and verify(doc).passed
    doc["certificates"]["widly1_prime"] = {"l": 3, "residual": "0", "holds_leq_1": True}
    report = verify(doc)
    assert [r.name for r in report.records] == ["parse-artifact"]
    assert report.records[0].detail.startswith("certificates.widly1_prime")


NONCANONICAL = ["1e-100000", "1e100000", "1E5", 3.0, 3, "3.0", ".5", "1/2.0", " 3", "+3", "0x10",
                "1_000", "1/0", "1" + "0" * 20000, "1/" + "7" * 10**6, "2/" + str(2**65536),
                "02", "2/4", "2/1", "-0", "0/7",
                # near misses of a rendered table endpoint "<40 digits>e<k>"
                "1" * 39 + "e-40", "2" * 41 + "e-40", "0" + "3" * 39 + "e-40", "4" * 40 + "E-40",
                "6" * 40 + "e+5", "7" * 40 + "e-05", "8" * 40 + "e-19689"]


NONCANONICAL_PATHS = [
    ("measures", "mixtures", 0, "atoms", 2, "mass", 0),
    ("measures", "branch_atoms", 2, "t"),
    ("weights", "branch_tail", 0, "w2"),
    ("certificates", "cc", "max_residual"),
    ("certificates", "nd", "1", "enclosure", 1),
    ("request", "q", "prefix"),
    ("request", "cert", "series_width"),
    ("request", "cert", "divergence_threshold"),
]


@pytest.mark.parametrize("value", NONCANONICAL, ids=lambda v: repr(v)[:24])
@pytest.mark.parametrize("path", NONCANONICAL_PATHS)
def test_verify_rejects_noncanonical_numbers_fast(doc_363, path, value):
    """Only the form rat_to_str writes, under the bit cap, is read (and, in
    a table enclosure, the rendered form within the exponent cap): anything
    else fails one parse-artifact record, or one parse-request record in the
    request block, in under 0.1 s."""
    doc = json.loads(json.dumps(doc_363))
    _edit(*path, value=[value] if path[-1] == "prefix" else value)(doc)
    started = time.monotonic()
    report = verify(doc)
    assert time.monotonic() - started < 0.1
    name = "parse-request" if path[0] == "request" else "parse-artifact"
    assert [(r.name, r.passed) for r in report.records] == [(name, False)]


@pytest.mark.parametrize("level, index, end", [(0, 2, 0), (2, 5, 1), (3, 0, 1)])
def test_verify_fails_last_digit_of_a_mass(doc_363, level, index, end):
    """One unit more in the last mantissa digit of a stored mass endpoint,
    inside or just outside the rule's enclosure, fails atom-reconstruction
    at that trunk level: the stored text must be the rule's rendering."""
    doc = json.loads(json.dumps(doc_363))
    pair = doc["measures"]["mixtures"][level]["atoms"][index]["mass"]
    mantissa, exponent = pair[end].split("e")
    assert len(mantissa) == 40 and not mantissa.endswith("9")
    pair[end] = f"{int(mantissa) + 1}e{exponent}"
    report = verify(doc)
    assert [(r.name, r.vertex) for r in report.failures()] == [
        ("atom-reconstruction", f"v(-{level})" if level else "v(0)")]
    assert report.failures()[0].residual == approx_residual(Fraction(f"1e{exponent}"))


# --- the records of failing documents, pinned ---


def _mutated(kind, doc, rng):
    """A copy of `doc` with perfbench/mutate.py's edit of `kind`, restated:
    the seeded `rng` picks the entry and, for a scale-* kind, the factor
    1001/1000 or 999/1000."""
    doc = copy.deepcopy(doc)
    factor = rng.choice((Fraction(1001, 1000), Fraction(999, 1000)))
    weights, measures = doc["weights"], doc["measures"]
    mixtures = measures["mixtures"]

    def scale(entry, key):
        value = entry[key]
        if isinstance(value, list):
            lo, hi = sorted(Fraction(x) * factor for x in value)
            entry[key] = [str(lo), str(hi)]
        else:
            entry[key] = str(Fraction(value) * factor)

    def pick(table):
        return table[rng.randrange(len(table))]

    if kind == "scale-branch-first":
        scale(pick(weights["branch_first"]), "w2")
    elif kind == "scale-branch-tail":
        scale(pick(weights["branch_tail"]), "w2")
    elif kind == "scale-trunk":
        scale(pick(weights["trunk"]), "w2")
    elif kind == "scale-branch-atom":
        scale(pick(measures["branch_atoms"]), "t")
    elif kind == "scale-mixture-mass":
        scale(pick(pick(mixtures)["atoms"]), "mass")
    elif kind == "scale-prefactor":
        scale(pick(mixtures), "prefactor")
    elif kind == "drop-certificates":
        del doc["certificates"]
    elif kind == "drop-divergent-nd":
        del doc["certificates"]["nd"][str(doc["request"]["n"] + 1)]
    elif kind == "truncate-table":
        weights["branch_first"].pop()
    elif kind == "drop-mixture":
        del mixtures[rng.randrange(len(mixtures))]
    elif kind == "flip-verdict":
        nd = doc["certificates"]["nd"]
        m = sorted(nd, key=int)[rng.randrange(len(nd))]
        nd[m]["verdict"] = "divergent" if nd[m]["verdict"] == "convergent" else "convergent"
    else:
        assert kind == "atom-at-zero"
        pick(measures["branch_atoms"])["t"] = "0"
    return doc


_MUTATION_KINDS = ("scale-branch-first", "scale-branch-tail", "scale-trunk", "scale-branch-atom",
                   "scale-mixture-mass", "scale-prefactor", "drop-certificates",
                   "drop-divergent-nd", "truncate-table", "drop-mixture", "flip-verdict",
                   "atom-at-zero")
# the kinds verify refuses at parse-artifact, before any series work
_PARSE_KINDS = ("drop-certificates", "truncate-table", "drop-mixture", "flip-verdict",
                "atom-at-zero")


def _edits(*edits):
    """A copy of a document with each (path, value) set, a callable value
    applied to the stored one."""
    def edit(doc):
        doc = copy.deepcopy(doc)
        for path, value in edits:
            node = functools.reduce(lambda node, key: node[key], path[:-1], doc)
            node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return doc
    return edit


def _up(value):
    """A table value times 1001/1000, written as rat_to_str writes it."""
    if isinstance(value, list):
        return [str(Fraction(x) * Fraction(1001, 1000)) for x in value]
    return str(Fraction(value) * Fraction(1001, 1000))


# two or three mismatching entries in different tables: the FAIL records of
# one name come in the order of their vertices, not of their tables
_MULTI_EDITS = [
    _edits((("weights", "branch_first", 5, "w2"), _up), (("weights", "branch_tail", 2, "w2"), _up)),
    _edits((("weights", "branch_tail", 4, "w2"), _up), (("weights", "branch_first", 4, "w2"), _up),
           (("weights", "trunk", 1, "w2"), _up)),
    _edits((("weights", "trunk", 0, "w2"), _up), (("weights", "branch_first", 0, "w2"), _up)),
    _edits((("c",), _up), (("weights", "trunk", 2, "w2"), _up)),
    _edits((("measures", "mixtures", 2, "atoms", 1, "mass"), _up),
           (("measures", "mixtures", 1, "prefactor"), _up),
           (("measures", "branch_atoms", 5, "t"), _up)),
    _edits((("measures", "mixtures", 0, "atoms", 3, "mass"), _up),
           (("weights", "branch_tail", 3, "w2"), "-3"),
           (("weights", "trunk", 1, "w2"), ["0", "1"])),
]


# a table value that does not read, with a second fault that verify would
# meet first if it did not read the values in document order when it stops
_MASS, _UNREAD = ("measures", "mixtures", 0, "atoms", 2, "mass", 0), "4" * 40 + "E-40"
_FIRST_FAULT_EDITS = [
    _edits((_MASS, _UNREAD), (("omega", "slope"), 2.0)),
    _edits((_MASS, _UNREAD), (("certificates", "nd", "1", "verdict"), "neither")),
    _edits((_MASS, _UNREAD), (("certificates", "zgod_prime_residual"), "x")),
    _edits((_MASS, _UNREAD), (("request", "window", "max_depth"), 7)),
    _edits((_MASS, _UNREAD), (("request", "q"), {"tail": "constant", "prefix": ["2"]})),
    _edits((("c", 0), _UNREAD), (("weights", "branch_first"), lambda rows: rows[:-1])),
    _edits((("measures", "mixtures", 0, "atoms", 3, "mass"), "x"),
           (("measures", "mixtures", 1, "prefactor"), "x")),
    _edits((("measures", "mixtures", 0, "atoms"), lambda rows: rows[:-1]),
           (("measures", "mixtures", 1, "shift"), 5)),
]


def _records_digest(docs):
    """sha256 of the full record list verify gives each document, in turn."""
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(repr([(r.name, r.passed, r.vertex, r.residual, r.detail)
                            for r in verify(doc).records]).encode())
    return digest.hexdigest()


def test_failing_document_records_pinned(doc_363):
    """The records verify gives failing documents, each with its order,
    vertex, residual and detail, are pinned: criterion 8's corruptions,
    every non-canonical number of `test_verify_rejects_noncanonical_numbers_fast`,
    perfbench's twelve mutation kinds on three documents (seed 31),
    documents with mismatching entries in several tables, and documents
    with a table value that does not read and a second fault."""
    from test_acceptance import CORRUPTIONS, _corrupt

    criterion_8 = [_corrupt(get_artifact(*key).to_json_dict(), path, factor)
                   for key, factor, path in CORRUPTIONS]
    noncanonical = []
    for path in NONCANONICAL_PATHS:
        for value in NONCANONICAL:
            doc = copy.deepcopy(doc_363)
            _edit(*path, value=[value] if path[-1] == "prefix" else value)(doc)
            noncanonical.append(doc)
    rng = random.Random(31)
    mutated = [_mutated(kind, json.loads(text), rng)
               for text in (_fuzz_document("linear"), _fuzz_document("mixed", ts.INF),
                            get_artifact(2, 3, MIXED_Q).to_json())
               for kind in _MUTATION_KINDS]
    multi, first_fault = ([edit(json.loads(_fuzz_document(tail, kappa)))
                           for tail, kappa in (("linear", 3), ("mixed", ts.INF)) for edit in edits]
                          for edits in (_MULTI_EDITS, _FIRST_FAULT_EDITS))
    digests = {name: _records_digest(docs) for name, docs in (
        ("criterion-8", criterion_8), ("noncanonical", noncanonical), ("mutated", mutated),
        ("multi", multi), ("first-fault", first_fault))}
    assert digests == {
        "criterion-8": "cfd73f51bc796f08d56332b5ffe178d6961bb9f961868fb05705553c6d4d7f8e",
        "noncanonical": "e5e7fa5125785d04978ac1cab294c25baae5df364467da783c91aaa390e853bd",
        "mutated": "db2e8797f3605015358d81de77963e03c6e205f3262b55c10ff5d2ecce094de7",
        "multi": "67b63792da8833e81331627e0f2d21f1e14a0a5dff592f59fd4234bf00d71659",
        "first-fault": "2e755b7c01712f2b0b8c15ca3e4972097e28b4640397095a53e174ef45485ca6",
    }


@pytest.mark.parametrize("kind", _PARSE_KINDS)
def test_parse_kinds_stop_before_the_rule(monkeypatch, doc_363, kind):
    """The mutation kinds whose documents are not of their window's shape
    fail one parse-artifact record before verify builds the rule."""
    def refused(request):
        raise AssertionError("verify built the rule of a malformed document")

    monkeypatch.setattr(construct, "build_rules", refused)
    for seed in range(3):
        report = verify(_mutated(kind, doc_363, random.Random(seed)))
        assert [(r.name, r.passed) for r in report.records] == [("parse-artifact", False)]


@pytest.mark.parametrize("cell", [(1, 0, LINEAR_Q), (2, ts.INF, MIXED_Q), (3, 3, LINEAR_Q)],
                         ids=lambda cell: str(cell))
def test_verify_reads_no_table_value_but_the_branch_atoms(monkeypatch, cell):
    """On a passing grid document, every table value but the branch atoms
    is compared with the text the writer writes for the rule, and none is
    read: `table_text` and `table_interval` are not called, and
    `rat_from_str` reads the branch atoms, the request's numbers and the
    nd fields only (a convergent enclosure twice: its shape, and its gap to
    the recomputed one)."""
    doc = get_artifact(*cell).to_json_dict()
    names = ("rat_from_str", "table_text", "table_interval")
    real = {name: getattr(rationals, name) for name in names}
    read = []
    for module in (construct, rationals, series):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda value, name=name: (
                    read.append((name, value)) or real[name](value)))
    assert verify(doc).passed
    request = doc["request"]
    expected = [entry["t"] for entry in doc["measures"]["branch_atoms"]]
    expected += [request["cert"]["series_width"], request["cert"]["divergence_threshold"],
                 *request["q"]["prefix"]]
    for cert in doc["certificates"]["nd"].values():
        expected += (2 * cert["enclosure"] if cert["verdict"] == "convergent"
                     else [cert["witness_partial_lb"], cert["threshold"]])
    assert sorted(read) == sorted(("rat_from_str", value) for value in expected)

def test_number_cap_leaves_tenfold_headroom():
    """Every number of the 24 grid documents is at most a tenth of the cap."""
    from treeshift.rationals import MAX_RATIONAL_BITS

    def bits(node):
        if isinstance(node, dict):
            node = list(node.values())
        if isinstance(node, list):
            return max(map(bits, node), default=0)
        if isinstance(node, str) and _CANONICAL.fullmatch(node):  # rendered ones too
            x = Fraction(node)
            return max(x.numerator.bit_length(), x.denominator.bit_length())
        return 0

    largest = max(bits(get_artifact(n, kappa, q).to_json_dict())
                  for n in (1, 2, 3) for kappa in (0, 1, 3, ts.INF) for q in (LINEAR_Q, MIXED_Q))
    assert 10 * largest <= MAX_RATIONAL_BITS


def _wide_document(q, max_branch: int) -> str:
    """The (2, inf, q) document of Window(2, max_branch, 2), as JSON text."""
    request = ts.CounterexampleRequest(n=2, kappa=ts.INF, q=q, window=ts.Window(2, max_branch, 2))
    return generate(request).to_json()


def _under_default_int_str_limit(run):
    """run() with Python's default int <-> str digit limit in force, when
    this Python has one; the previous limit is restored."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return run()
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        return run()
    finally:
        sys.set_int_max_str_digits(old)


def test_wide_mixed_window_verifies_under_default_int_str_limit():
    """generate, to_json, json.loads and verify of the mixed (2, inf)
    Window(2, 1600, 2) document need no raised int <-> str limit: every
    table endpoint has a 40-digit mantissa, where the exact masses had
    5,602-digit integers.  The document is under 1.3 MB."""
    def run():
        text = _wide_document(MIXED_Q, 1600)
        return len(text.encode()), verify(json.loads(text))

    size, report = _under_default_int_str_limit(run)
    assert report.passed, [r.line() for r in report.failures()][:3]
    assert size <= 1_300_000


@pytest.mark.parametrize("q", [LINEAR_Q, MIXED_Q], ids=lambda q: q.tail.value)
def test_document_bytes_grow_linearly_in_the_window(q):
    """Doubling max_branch from 400 to 800 to 1600 doubles the (2, inf, q)
    document, within 1.9-2.1x per doubling, on linear and on mixed q (mixed
    grew as B^1.9 while the tables held exact quotients); B = 1600 writes
    at most 1.3 MB under the default int <-> str limit."""
    sizes = _under_default_int_str_limit(
        lambda: [len(_wide_document(q, B).encode()) for B in (400, 800, 1600)])
    assert all(1.9 <= b / a <= 2.1 for a, b in zip(sizes, sizes[1:])), sizes
    assert sizes[-1] <= 1_300_000, sizes


# --- the invariant: generate writes only documents its own verify passes ---


def test_verify_reports_a_rule_past_the_exponent_range(small_artifacts):
    """A document whose request gives a table number past the exponent range
    a document states fails one `table-range` record naming the entry,
    where verify would have raised from `render`."""
    doc = small_artifacts["linear"].to_json_dict()
    q = SequenceSpec(Tail.LINEAR, prefix=(Fraction(10**6000),))
    doc["request"]["q"], doc["omega"] = q.to_json(), choose_subsequence(q).to_json()
    report = verify(doc)
    assert [(r.name, r.passed) for r in report.records] == [("table-range", False)]
    assert report.records[0].detail.startswith("measures.mixtures (shift 3) atom mass at i = 1")


_WIDE_FOUND = dict(prefix=(), tail=Tail.MIXED, n=3, kappa=ts.INF, width=Fraction(1, 10**8),
                   window=ts.Window(10, 8, 3))


# prefix values: small ones, and numerators and denominators up to 2^16000,
# within the 2^65536 that `rat_from_str` reads back
_PREFIX_VALUES = st.one_of(st.builds(Fraction, st.integers(1, 40), st.integers(1, 3)),
                           st.builds(Fraction, st.integers(1, 2**16_000),
                                     st.integers(1, 2**16_000)))
# requests whose documents stated a table exponent past the one `table_text`
# reads (mixtures atom mass at i = 1, and branch_first at i = 14)
_EXPONENT_FOUND = dict(prefix=(10**3276,), tail=Tail.LINEAR, n=3, kappa=3,
                       width=Fraction(1, 10**12), window=ts.Window(3, 8, 3))
_TINY_FOUND = dict(prefix=(Fraction(1, 10**1500),) * 20, tail=Tail.LINEAR, n=3, kappa=ts.INF,
                   width=Fraction(1, 10**12), window=ts.Window(10, 30, 3))


@given(prefix=st.lists(_PREFIX_VALUES, max_size=12),
       tail=st.sampled_from([Tail.LINEAR, Tail.MIXED]),
       n=st.integers(1, 3),
       kappa=st.one_of(st.integers(0, 11), st.just(ts.INF)),
       width=st.integers(10**8, 10**14).map(lambda d: Fraction(1, d)),
       window=st.builds(ts.Window, st.sampled_from([3, 10]), st.integers(1, 8),
                        st.integers(1, 3)))
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@example(**_WIDE_FOUND)
@example(**dict(_WIDE_FOUND, prefix=(11, 13, 10), tail=Tail.LINEAR, n=2,
                width=Fraction(1, 10**12)))
@example(**dict(_WIDE_FOUND, prefix=tuple(range(30, 42)), tail=Tail.LINEAR, n=2,
                width=Fraction(1, 10**12)))
@example(**_EXPONENT_FOUND)
@example(**_TINY_FOUND)
def test_generate_writes_only_documents_verify_passes(prefix, tail, n, kappa, width, window):
    """For every request, generate refuses with a TreeshiftError, when
    building the artifact or writing it, or writes a document that verify
    passes.  The enclosures' widths are bounded in absolute terms, so at q
    with a small M_-k (a large prefix, or a width near 1e-8) they are wide
    relative to it; the identity records must not read those widths.  The
    explicit examples are requests whose documents verify used to reject,
    under a tolerance or at parsing: a table exponent past the range a
    document states."""
    request = ts.CounterexampleRequest(
        n=n, kappa=kappa, q=SequenceSpec(tail, prefix=tuple(prefix)),
        cert=ts.CertConfig(series_width=width), window=window)
    try:
        text = generate(request).to_json()
    except ts.TreeshiftError:
        return
    report = verify(json.loads(text))
    assert report.passed, [r.line() for r in report.failures()][:3]
