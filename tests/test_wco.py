"""Composition-operator view: h, conditional expectation, CC, round trip."""

import dataclasses
import hashlib
from fractions import Fraction

import mpmath as mp
import pytest

import treeshift as ts
from treeshift import (
    AtomicMeasure,
    Branch,
    Explicit,
    ExplicitTree,
    ExplicitWeights,
    Trunk,
    Window,
    cc_residual,
    cond_expectation,
    from_shift,
    h_function,
    roundtrip_measures,
)
from treeshift.construct import consist6_residuals
from treeshift.errors import NoCertificateError
from treeshift.tree import window_vertices

from identity_reference import indices_with_value

mp.mp.dps = 40
WIDE = Window(max_trunk=10, max_branch=10, max_depth=10)
HALF = Fraction(1, 2)


def two_child_tree():
    """root -> {a, b} with |lambda_a|^2 = 1/2, |lambda_b|^2 = 1 and the
    exactly consistent measure system."""
    root, a, b = Explicit(0), Explicit(1), Explicit(2)
    tree = ExplicitTree([(root, a), (root, b)])
    weights = ExplicitWeights.for_tree(tree, {a: HALF, b: Fraction(1)})
    P = {
        root: AtomicMeasure([(1, HALF), (2, HALF)]),
        a: AtomicMeasure.dirac(1),
        b: AtomicMeasure.dirac(2),
    }
    return tree, weights, P, (root, a, b)


# --- from_shift ---


def test_phi_is_parent_with_root_fixed():
    tree, weights, P, (root, a, b) = two_child_tree()
    data = from_shift(tree, weights)
    assert data.phi(a) == root and data.phi(b) == root
    assert data.phi(root) == root
    assert data.w_squared(root) == 0
    assert data.w_squared(a) == HALF


def test_phi_on_infinite_trunk(artifact_n1_k3):
    art = ts.generate(ts.CounterexampleRequest(n=1, kappa=ts.INF, q=ts.LINEAR_Q))
    data = from_shift(art.tree, art.weights)
    assert data.phi(Trunk(5)) == Trunk(6)


# --- h ---


def test_h_two_children():
    tree, weights, P, (root, a, b) = two_child_tree()
    data = from_shift(tree, weights)
    assert h_function(data, root, WIDE) == Fraction(3, 2)
    assert h_function(data, a, WIDE) == 0  # leaf


def test_h_matches_one_step_power_norm():
    tree, weights, P, (root, a, b) = two_child_tree()
    data = from_shift(tree, weights)
    for x in (root, a, b):
        assert h_function(data, x, WIDE) == ts.power_norm_sq(tree, weights, x, 1, WIDE)


def test_h_at_branching_vertex_is_certified_series(artifact_n1):
    art = artifact_n1
    data = from_shift(art.tree, art.weights)
    h0 = h_function(data, ts.ZERO, art.window)
    ratio = mp.zeta(2) / mp.zeta(3)
    assert mp.mpf(h0.lo.numerator) / h0.lo.denominator <= ratio
    assert mp.mpf(h0.hi.numerator) / h0.hi.denominator >= ratio


def test_h_along_branch(artifact_n1):
    data = from_shift(artifact_n1.tree, artifact_n1.weights)
    assert h_function(data, Branch(4, 2), artifact_n1.window) == 4


def test_h_finite_eta_model_tree():
    tree = ts.ModelTree(eta=3, kappa=0)
    weights = ExplicitWeights(
        {Branch(i, j): Fraction(i, 2) for i in (1, 2, 3) for j in range(1, 4)}
    )
    data = from_shift(tree, weights)
    assert h_function(data, ts.ZERO, WIDE) == Fraction(3)  # 1/2 + 1 + 3/2


# --- conditional expectation ---


def test_cond_expectation_weighted_average():
    root, a, b = Explicit(0), Explicit(1), Explicit(2)
    tree = ExplicitTree([(root, a), (root, b)])
    weights = ExplicitWeights.for_tree(tree, {a: Fraction(1), b: Fraction(3)})
    data = from_shift(tree, weights)
    ef = cond_expectation(data, {a: Fraction(1)}, WIDE)
    assert ef[a] == Fraction(1, 4)
    assert ef[b] == Fraction(1, 4)  # constant on the sibling class
    assert ef[root] == Fraction(1, 4)  # the root joins its own class


def test_cond_expectation_of_constant_one():
    tree, weights, P, (root, a, b) = two_child_tree()
    data = from_shift(tree, weights)
    ef = cond_expectation(data, {a: Fraction(1), b: Fraction(1)}, WIDE)
    assert ef[a] == 1 and ef[b] == 1


def test_cond_expectation_projection_and_monotone():
    root, a, b, c = (Explicit(i) for i in range(4))
    tree = ExplicitTree([(root, a), (root, b), (a, c)])
    weights = ExplicitWeights.for_tree(
        tree, {a: Fraction(2), b: Fraction(1), c: Fraction(5)}
    )
    data = from_shift(tree, weights)
    f = {a: Fraction(3), b: Fraction(1, 2), c: Fraction(7)}
    g = {a: Fraction(4), b: Fraction(1), c: Fraction(7)}
    ef = cond_expectation(data, f, WIDE)
    eg = cond_expectation(data, g, WIDE)
    eef = cond_expectation(data, ef, WIDE)
    for v in ef:
        assert eef[v] == ef[v]  # E is a projection
        assert ef[v] <= eg[v]  # f <= g pointwise implies E(f) <= E(g)


def test_cond_expectation_zero_off_support_classes():
    tree, weights, P, (root, a, b) = two_child_tree()
    data = from_shift(tree, weights)
    ef = cond_expectation(data, {a: Fraction(1)}, WIDE)
    assert a not in {v for v, kids in ()} or True
    # leaves have no children: nothing assigned under their (empty) classes
    assert set(ef) == {root, a, b}


# --- CC residual ---


def test_cc_single_path_all_dirac1():
    vs = [Explicit(i) for i in range(3)]
    tree = ExplicitTree(list(zip(vs, vs[1:])))
    weights = ExplicitWeights.for_tree(tree, {v: Fraction(1) for v in vs[1:]})
    P = {v: AtomicMeasure.dirac(1) for v in vs}
    data = from_shift(tree, weights)
    report = cc_residual(data, P, WIDE)
    assert report.max_residual == 0
    assert report.algebra_bound == 0
    assert report.h_positive_on_support


def test_cc_exact_zero_for_consistent_system():
    tree, weights, P, _ = two_child_tree()
    report = cc_residual(from_shift(tree, weights), P, WIDE)
    assert report.max_residual == 0


def test_cc_detects_swapped_rows():
    tree, weights, P, (root, a, b) = two_child_tree()
    P = dict(P)
    P[a], P[b] = AtomicMeasure.dirac(2), AtomicMeasure.dirac(1)
    report = cc_residual(from_shift(tree, weights), P, WIDE)
    assert report.max_residual >= Fraction(1, 4)


def test_cc_artifact_within_tolerance(artifact_n1_k3):
    art = artifact_n1_k3
    report = cc_residual(
        from_shift(art.tree, art.weights), art.measures, art.window, art.request.cert
    )
    assert report.algebra_bound <= art.request.cert.check_tol
    assert report.h_positive_on_support


def test_cc_model_tree_needs_measure_system(artifact_n1_k3):
    """The trunk and vertex-0 rows read the mixtures of a measure system, so
    a plain family of rows on a model tree is refused."""
    art = artifact_n1_k3
    rows = {v: AtomicMeasure.dirac(1) for v in window_vertices(art.tree, art.window)}
    with pytest.raises(NoCertificateError):
        cc_residual(from_shift(art.tree, art.weights), rows, art.window)


def test_cc_mixture_rows_need_infinite_eta(artifact_n1_k3):
    """The mixture row of vertex 0 counts every branch as its child, so a
    measure system on a tree with finitely many branches is refused."""
    art = artifact_n1_k3
    tree = ts.ModelTree(eta=3, kappa=art.tree.kappa)
    with pytest.raises(NoCertificateError):
        cc_residual(from_shift(tree, art.weights), art.measures, art.window)


def test_model_rows_need_one_sequence(artifact_n1_k3):
    """The branch row is the identity q_i q_i^-1 = 1 of one sequence: when
    the branch Diracs and the chain weights read different q, consistency
    and CC are refused rather than decided."""
    art = artifact_n1_k3
    other = dataclasses.replace(art.measures, q=ts.MIXED_Q)
    with pytest.raises(NoCertificateError):
        cc_residual(from_shift(art.tree, art.weights), other, art.window)
    with pytest.raises(NoCertificateError):
        consist6_residuals(dataclasses.replace(art, measures=other))


# --- round trip ---


def test_roundtrip_leaf_gets_delta0_and_eps1():
    import math

    tree, weights, P, (root, a, b) = two_child_tree()
    result = roundtrip_measures(from_shift(tree, weights), P, WIDE)
    assert result.measures[a] == AtomicMeasure.dirac(0)
    assert result.eps[a] == 1
    assert result.residuals[a] == 0
    # the weighted leaves break h > 0 a.e.: the root identity fails infinitely
    assert result.residuals[root] is math.inf


def test_roundtrip_artifact(artifact_n1_k3):
    art = artifact_n1_k3
    result = roundtrip_measures(
        from_shift(art.tree, art.weights), art.measures, art.window, art.request.cert
    )
    assert result.max_residual <= art.request.cert.check_tol
    # trunk eps values are zero: each trunk mass is exactly 1
    for u, eps in result.eps.items():
        from treeshift.rationals import scalar_abs_upper

        assert scalar_abs_upper(eps) <= art.request.cert.check_tol


def test_roundtrip_detects_broken_row(artifact_n1_k3):
    art = artifact_n1_k3
    small = Window(max_trunk=3, max_branch=6, max_depth=4)
    P = {v: art.measures.measure_at(v) for v in ts.tree.window_vertices(art.tree, small)}
    # rows beyond the small window keep following the branch rule
    P[Branch(3, 4)] = AtomicMeasure.dirac(5)  # wrong location, by design
    result = roundtrip_measures(from_shift(art.tree, art.weights), P, small)
    assert result.residuals[Branch(3, 3)] >= 1  # its own atom went missing
    assert result.max_residual >= 1


def test_cc_counts_off_window_mixture_atoms():
    """q_1 = q_60 = 60: the mixtures' atom at 60 carries mass from index 60,
    beyond the 12-branch window, which the exact CC rows cover with every
    other atom.  The digest last moved when Omega became derived from the
    tail rule: only `omega.head` ([1], where the scan wrote 74 indices) and
    `request.cert`, which states `check_tol` alone, changed.  Before that the
    table enclosures were rounded outward."""
    q = ts.SequenceSpec(ts.Tail.LINEAR, prefix=(Fraction(60),))
    assert indices_with_value(q, Fraction(60), 12) == (60,)
    art = ts.generate(ts.CounterexampleRequest(n=1, kappa=3, q=q, window=Window(3, 12, 4)))
    assert ts.verify(art.to_json_dict()).passed
    assert hashlib.sha256(art.to_json().encode()).hexdigest() == (
        "105975258d493c682d954f16a4f1cf7a4ca97e1e31faab254fd1957b7b0377cd"
    )
