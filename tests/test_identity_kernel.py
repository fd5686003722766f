"""The pair kernel of the identity layer: its arithmetic, its bounds against
the exact reference evaluation, and its totality on tampered documents."""

import copy
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import construct, measures, wco
from treeshift.construct import identity_residuals
from treeshift.rationals import (
    FIXED_BITS,
    FIXED_ONE,
    Interval,
    fixed_abs,
    fixed_add,
    fixed_div,
    fixed_interval,
    fixed_mul,
    fixed_over,
    fixed_pair,
    fixed_scale,
    fixed_sub,
    scalar_abs_upper,
)
from treeshift.tree import Branch, Window
from treeshift.wco import CCClassResidual, _sigma_name, _small_first, from_shift, h_function

import identity_reference as reference
from conftest import get_artifact

STEP = Fraction(1, FIXED_ONE)  # one grid step

rationals = st.one_of(
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10**6),
    st.fractions(min_value=Fraction(-1, 10**30), max_value=Fraction(1, 10**30),
                 max_denominator=10**45),  # below the grid step
    st.just(Fraction(0)),
)
nonzero = rationals.filter(lambda x: x != 0)


@st.composite
def intervals(draw):
    a, b = draw(rationals), draw(rationals)
    return Interval(min(a, b), max(a, b))


def _exact(pair) -> Interval:
    """The interval a pair stands for, exactly."""
    return Interval(Fraction(pair[0], FIXED_ONE), Fraction(pair[1], FIXED_ONE))


def _encloses_within(pair, exact: Interval, steps: int) -> bool:
    """pair holds exact, and each end is within `steps` grid steps of it."""
    got = _exact(pair)
    return (got.lo <= exact.lo and exact.hi <= got.hi
            and exact.lo - got.lo < steps * STEP and got.hi - exact.hi < steps * STEP)


@given(intervals(), intervals(), nonzero)
@settings(max_examples=400, deadline=None)
def test_pair_operations_enclose_the_exact_results(a, b, t):
    """Conversion rounds each end outward by less than a step; sums and
    differences are exact on the grid; a product, a product or quotient by
    an exact t and the final 1/h round each end by less than a step."""
    pa, pb = fixed_pair(a), fixed_pair(b)
    A, B = _exact(pa), _exact(pb)  # what the kernel computes with
    assert _encloses_within(pa, a, 1) and _encloses_within(pb, b, 1)
    assert _exact(fixed_add(pa, pb)) == A + B
    assert _exact(fixed_sub(pa, pb)) == A - B
    assert _encloses_within(fixed_mul(pa, pb), A * B, 1)
    assert _encloses_within(fixed_scale(pa, t), A * t, 1)
    assert _encloses_within(fixed_div(pa, t), A * (1 / t), 1)
    assert _exact(fixed_abs(pa)) == A.abs()
    assert fixed_interval(pa) == A
    r = max(-pa[0], pa[1])  # the absolute-value upper bound, on the grid
    assert Fraction(r, FIXED_ONE) == A.abs_upper()
    h = abs(t)
    bound = fixed_over(r, h)
    assert bound >= A.abs_upper() / h
    assert bound - A.abs_upper() / h < STEP
    assert bound.denominator & (bound.denominator - 1) == 0  # a power of two


def test_fixed_mul_by_one_is_exact():
    """A Dirac row's unit mass multiplies a weight pair without rounding."""
    for w in [(-5, 7), (3, 3), (-(1 << 200), 1 << 190), (0, 0)]:
        assert fixed_mul(w, (FIXED_ONE, FIXED_ONE)) == w
    assert FIXED_ONE == 1 << FIXED_BITS


# --- the oracle: the kernel's bounds against the exact evaluation ---

SLACK = Fraction(1, 2**100)
SMALL = Window(3, 12, 4)
ORACLE_ARTIFACTS = (
    [(n, kappa, q, None) for n in (1, 2, 3) for kappa in (0, 1, 3, ts.INF)
     for q in (ts.LINEAR_Q, ts.MIXED_Q)]
    + [(1, 3, q, SMALL) for q in (ts.LINEAR_Q, ts.MIXED_Q)]
)


def _artifact(n, kappa, q, window):
    if window is None:
        return get_artifact(n, kappa, q)
    return ts.generate(ts.CounterexampleRequest(n=n, kappa=kappa, q=q, window=window))


def _assert_bound(new: Fraction, exact: Fraction, where):
    assert exact <= new <= exact + SLACK, (where, new - exact)


def _check_against_reference(art):
    cfg = art.request.cert
    res = identity_residuals(art, cfg)
    classes = replace(art, window=replace(art.window, max_depth=min(art.window.max_depth, 2)))
    exact6 = reference.consist6_residuals(classes)
    assert set(res.consist6) == set(exact6)
    for u, ref in exact6.items():
        new = res.consist6[u]
        if isinstance(u, Branch):  # exact inputs: the exact path, bit for bit
            assert new == ref, u
            continue
        assert [t for t, _ in new.per_atom] == [t for t, _ in ref.per_atom], u
        for (t, got), (_, want) in zip(new.per_atom, ref.per_atom):
            _assert_bound(scalar_abs_upper(got), scalar_abs_upper(want), (u, t))
        _assert_bound(new.residual_upper, ref.residual_upper, u)
    exact_cc = reference.cc_classes(from_shift(art.tree, art.weights), art.measures,
                                    classes.window, cfg)
    got_cc = {c.vertex: c for c in res.cc.per_class}
    assert set(got_cc) == set(exact_cc)
    for x, ref in exact_cc.items():
        got = got_cc[x]
        if isinstance(x, Branch):
            assert (got.worst_sigma, got.max_residual, got.algebra_bound) == (
                _sigma_name(ref.worst_sigma), ref.max_residual, ref.algebra_bound), x
            continue
        _assert_bound(got.max_residual, ref.max_residual, x)
        _assert_bound(got.algebra_bound, ref.algebra_bound, x)


@pytest.mark.parametrize("key", ORACLE_ARTIFACTS, ids=lambda key: "-".join(
    str(part) for part in key[:2] + (key[2].tail.value, "small" if key[3] else "grid")))
def test_kernel_bounds_against_exact_reference(key):
    """Every consistency and CC bound of the pair kernel is at least the
    exact one and above it by at most 2^-100; classes with exact inputs
    (the branch classes) come out bit for bit as before."""
    _check_against_reference(_artifact(*key))


COLLIDING_Q = ts.SequenceSpec(ts.Tail.MIXED, prefix=(Fraction(60), Fraction(1, 41)))


def test_kernel_bounds_with_off_window_collisions():
    """Atoms the off-window indices share with the window (q_1 = q_60 = 60,
    q_2 = q_41 = 1/41) reach the CC sums through the table's collisions."""
    art = ts.generate(ts.CounterexampleRequest(n=1, kappa=3, q=COLLIDING_Q, window=SMALL))
    table = art.measures.atom_table(SMALL.max_branch)
    assert {t: i for t, i in zip(table.locations, table.collisions) if i} == {
        Fraction(1, 41): (41,), Fraction(60): (60,)}
    _check_against_reference(art)


# --- the branch rule: one exact row per branch class ---

BRANCH_ROW_WINDOWS = [
    (COLLIDING_Q, SMALL),
    (ts.LINEAR_Q, Window(3, 12, 1)),  # no branch vertex has a child in the window
    (ts.MIXED_Q, Window(3, 1, 4)),
]


@pytest.mark.parametrize("q, window", BRANCH_ROW_WINDOWS,
                         ids=["collisions", "max_depth-1", "max_branch-1"])
def test_branch_rows_equal_the_generic_exact_path(q, window):
    """Each branch class (i, 1) comes out of the branch rule exactly as
    `check_consist6_at` and `_cc_diffs_exact` evaluate it, types included
    (compared by repr); a window of depth 1 has no branch classes."""
    art = ts.generate(ts.CounterexampleRequest(n=1, kappa=3, q=q, window=window))
    cfg, W = art.request.cert, window.max_branch
    res = identity_residuals(art, cfg)
    cc = {c.vertex: c for c in res.cc.per_class if isinstance(c.vertex, Branch)}
    expected = [Branch(i, 1) for i in range(1, W + 1)] if window.max_depth >= 2 else []
    assert [u for u in res.consist6 if isinstance(u, Branch)] == expected
    assert list(cc) == expected
    data = from_shift(art.tree, art.weights)
    atom_set = frozenset(art.measures.atom_table(W).locations)
    for u in expected:
        child = Branch(u.i, 2)
        mu, mu_child = art.measures.measure_at(u), art.measures.measure_at(child)
        w2 = art.weights.squared_at(child)
        ref = measures.check_consist6_at(mu, art.measures.eps_at(u), [(w2, mu_child)],
                                         atom_limit=W)
        assert repr(res.consist6[u]) == repr(ref), u
        sigmas, diffs = wco._cc_diffs_exact([mu, mu_child], [w2], atom_set, cfg)
        worst = max(range(len(sigmas)), key=diffs.__getitem__)
        scale = 1 / h_function(data, u, window, cfg)
        ref_cc = CCClassResidual(u, _sigma_name(sigmas[worst]), scale * diffs[worst],
                                 scale * sum(_small_first(diffs[:-1])))
        assert repr(cc[u]) == repr(ref_cc), u


def test_model_tree_classes_skip_the_generic_exact_path(monkeypatch):
    """generate and verify on model-tree artifacts evaluate no class by the
    generic exact functions: the branch classes come from the branch rule,
    the others from the pair kernel.  An explicit tree still runs them."""
    calls = []

    def spy(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    check = spy("check_consist6_at", measures.check_consist6_at)
    for module in (measures, wco, construct):  # each name a caller may import it by
        monkeypatch.setattr(module, "check_consist6_at", check, raising=False)
    monkeypatch.setattr(wco, "_cc_diffs_exact", spy("_cc_diffs_exact", wco._cc_diffs_exact))
    for q in (ts.LINEAR_Q, ts.MIXED_Q):
        art = ts.generate(ts.CounterexampleRequest(n=1, kappa=3, q=q, window=SMALL))
        assert ts.verify(art.to_json_dict()).passed
    assert calls == []
    a, b, root = ts.Explicit(1), ts.Explicit(2), ts.Explicit(0)
    tree = ts.ExplicitTree([(root, a), (a, b)])
    weights = ts.ExplicitWeights.for_tree(tree, {a: Fraction(1), b: Fraction(1)})
    rows = {v: ts.AtomicMeasure.dirac(1) for v in (root, a, b)}
    wco.cc_residual(from_shift(tree, weights), rows, Window())
    wco.roundtrip_measures(from_shift(tree, weights), rows, Window())
    assert set(calls) == {"_cc_diffs_exact", "check_consist6_at"}


# --- tampered signs: FAIL records, never an exception ---

SIGN_EDITS = [
    ("measures.mixtures.1.atoms.2.mass", ["-1", "-1/2"]),
    ("measures.mixtures.0.atoms.0.mass", ["0", "0"]),
    ("measures.mixtures.2.atoms.4.mass", ["-5", "0"]),
    ("measures.mixtures.0.prefactor", ["-2", "-1"]),
    ("weights.trunk.1.w2", ["0", "0"]),
    ("weights.trunk.0.w2", ["-2", "-1"]),
    ("weights.branch_first.1.w2", ["-2", "-1"]),
    ("weights.branch_first.3.w2", ["0", "0"]),
    ("weights.branch_tail.2.w2", "0"),
    ("weights.branch_tail.2.w2", "-3"),
    ("c", ["-1", "0"]),
]


@pytest.fixture(scope="module")
def small_mixed_doc():
    return ts.generate(ts.CounterexampleRequest(n=1, kappa=3, q=ts.MIXED_Q,
                                                window=SMALL)).to_json_dict()


@pytest.mark.parametrize("path, value", SIGN_EDITS, ids=[f"{p}={v}" for p, v in SIGN_EDITS])
def test_tampered_signs_fail_without_raising(small_mixed_doc, path, value):
    doc = copy.deepcopy(small_mixed_doc)
    *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    report = ts.verify(doc)
    assert not report.passed
    assert report.failures()
