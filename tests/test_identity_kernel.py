"""The rows of the identity layer: the trunk and vertex-0 rows against the
exact reference evaluation on a wider index range, the rule's monomials and
a wrong rule, the branch rows against the generic exact path, and totality
on tampered documents."""

import copy
from dataclasses import replace
from fractions import Fraction

import pytest

import treeshift as ts
from treeshift import construct, measures, wco
from treeshift.construct import identity_residuals
from treeshift.errors import NoCertificateError
from treeshift.rationals import coerce, outward, scalar_abs_upper
from treeshift.series import ONE, Monomial, power_series_certificate
from treeshift.tree import Branch, Trunk, Window
from treeshift.wco import BRANCH_CLASS, from_shift, h_function

import identity_reference as reference
from conftest import get_artifact

# --- the mixture rows against the exact evaluation ---

SMALL = Window(3, 12, 4)
ORACLE_ARTIFACTS = (
    [(n, kappa, q, None) for n in (1, 2, 3) for kappa in (0, 1, 3, ts.INF)
     for q in (ts.LINEAR_Q, ts.MIXED_Q)]
    + [(1, 3, q, SMALL) for q in (ts.LINEAR_Q, ts.MIXED_Q)]
)
WIDER = 4  # the reference runs on max_branch times this


def _artifact(n, kappa, q, window):
    if window is None:
        return get_artifact(n, kappa, q)
    return ts.generate(ts.CounterexampleRequest(n=n, kappa=kappa, q=q, window=window))


def _assert_rule_enclosures(art):
    """Each enclosure the rule holds is its monomial's rounded outward to
    RENDER_DIGITS digits, which a table stores, and the monomial's is the
    interval expression of the M_s enclosures: c = 1/M_0,
    w_l = M_-l / M_-(l+1) and P_l = 1/M_-l."""
    cfg, alpha = art.request.cert, art.alpha

    def M(s):
        return power_series_certificate(alpha, s, cfg).enclosure

    assert construct.normalization_rule().enclosure(alpha, cfg) == M(0).recip()
    assert art.c == outward(M(0).recip())
    for l, w in enumerate(art.weights.trunk):
        assert construct.trunk_rule(l).enclosure(alpha, cfg) == M(-l) / M(-l - 1), l
        assert w == outward(M(-l) / M(-l - 1)), l
    for l, mix in enumerate(art.measures.mixtures):
        assert construct.prefactor_rule(l).enclosure(alpha, cfg) == M(-l).recip(), l
        assert mix.prefactor == outward(M(-l).recip()), l


def _contains_zero(residual) -> bool:
    return coerce(residual).gap_to(0) == 0


def _check_against_reference(art, wider=WIDER):
    """Each trunk and vertex-0 row is exact, 0 at every atom and sigma, and
    the reference, on a window `wider` times as many branches wide, finds an
    interval residual that contains 0 at every atom (consistency) and every
    sigma (CC) of these classes, the complement of the atoms and R+
    included.  At every branch (i, 1) of that window the reference's exact
    residuals are the one branch row's, bit for bit.  Each rule enclosure is
    its monomial's."""
    cfg = art.request.cert
    res = identity_residuals(art, cfg)
    trunk = [Trunk(k) for k in reversed(range(len(art.measures.mixtures)))]
    assert list(res.consist6) == trunk + [BRANCH_CLASS]
    assert [c.vertex for c in res.cc.per_class] == trunk + [BRANCH_CLASS]
    _assert_rule_enclosures(art)
    W = wider * art.window.max_branch
    wide = replace(art, window=replace(art.window, max_branch=W,
                                       max_depth=min(art.window.max_depth, 2)))
    exact6 = reference.consist6_residuals(wide)
    branch = res.consist6[BRANCH_CLASS]
    assert branch.max_residual == 0 and branch.per_atom == ((Fraction(0), Fraction(0)),)
    ref_branches = [u for u in exact6 if isinstance(u, Branch)]
    assert ref_branches == ([Branch(i, 1) for i in range(1, W + 1)]
                            if art.window.max_depth >= 2 else [])
    for u in ref_branches:  # exact inputs: the branch row's residuals, bit for bit
        assert (exact6[u].max_residual, exact6[u].residual_upper) == (
            branch.max_residual, branch.residual_upper), u
    for u in trunk:
        got, ref = res.consist6[u], exact6[u]
        assert len(ref.per_atom) > W // 2, u  # the wide range was read
        assert all(_contains_zero(r) for _, r in ref.per_atom), u
        assert (got.max_residual, got.per_atom) == (0, ((Fraction(0), Fraction(0)),)), u
    exact_cc = reference.cc_classes(from_shift(art.tree, art.weights), art.measures,
                                    wide.window, cfg)
    got_cc = {c.vertex: c for c in res.cc.per_class}
    assert [x for x in exact_cc if isinstance(x, Branch)] == ref_branches
    assert [x for x in exact_cc if not isinstance(x, Branch)] == trunk
    branch = got_cc[BRANCH_CLASS]
    assert (branch.worst_sigma, branch.max_residual, branch.algebra_bound) == ("R+", 0, 0)
    for x, (sigmas, diffs) in exact_cc.items():
        if isinstance(x, Branch):
            h = h_function(from_shift(art.tree, art.weights), x, wide.window, cfg)
            bounds = [scalar_abs_upper(d) / h for d in diffs]
            assert (max(bounds), sum(bounds[:-1])) == (
                branch.max_residual, branch.algebra_bound), x
            continue
        assert len(sigmas) - 2 >= W // 2 and sigmas[-2:] == [("rest",), ("all",)], x
        assert all(_contains_zero(d) for d in diffs), x
        got = got_cc[x]
        assert (got.worst_sigma, got.max_residual, got.algebra_bound) == ("R+", 0, 0), x


@pytest.mark.parametrize("key", ORACLE_ARTIFACTS, ids=lambda key: "-".join(
    str(part) for part in key[:2] + (key[2].tail.value, "small" if key[3] else "grid")))
def test_kernel_bounds_against_exact_reference(key):
    """Every trunk and vertex-0 row is exact, and the exact reference finds
    a residual containing 0 at each atom and sigma of four times the
    window's branches; the exact residuals at each branch (i, 1) of that
    range are the branch row's."""
    _check_against_reference(_artifact(*key))


COLLIDING_Q = ts.SequenceSpec(ts.Tail.MIXED, prefix=(Fraction(60), Fraction(1, 41)))


def test_kernel_bounds_with_off_window_collisions():
    """Atoms the off-window indices share with the window (q_1 = q_60 = 60,
    q_2 = q_41 = 1/41) add to the residual at that atom; the rows bound it.
    The reference runs on five times the 12 branches, so that it holds both
    indices 41 and 60 and meets each collision inside its own range."""
    art = ts.generate(ts.CounterexampleRequest(n=1, kappa=3, q=COLLIDING_Q, window=SMALL))
    q = art.alpha.q
    assert (q.value(1), q.value(2)) == (q.value(60), q.value(41)) == (60, Fraction(1, 41))
    _check_against_reference(art, wider=5)


@pytest.mark.parametrize("key", [(1, 3, ts.LINEAR_Q, SMALL), (2, ts.INF, ts.MIXED_Q, None)],
                         ids=["1-3-linear-small", "2-inf-mixed-grid"])
def test_mixture_rows_are_the_contract(key):
    """The rule is the paper's: c = 1/M_0, w_l = M_-l / M_-(l+1) and
    P_l = 1/M_-l.  So each trunk and vertex-0 class P_k / F_k (F_0 = c,
    F_k = w_{k-1} P_{k-1}) is the monomial one, and its consistency and CC
    rows are exact, with R+ the worst sigma; each rule enclosure is its
    monomial's."""
    art = _artifact(*key)
    M = Monomial.moment
    assert construct.normalization_rule() == ONE / M(0)
    res = identity_residuals(art, art.request.cert)
    cc = {c.vertex: c for c in res.cc.per_class}
    mix = art.measures.mixtures
    for k in range(len(mix)):
        assert construct.trunk_rule(k) == M(-k) / M(-k - 1)
        assert construct.prefactor_rule(k) == ONE / M(-k)
        F = ONE / M(0) if k == 0 else M(1 - k) / M(-k) * (ONE / M(1 - k))
        assert art.measures.class_identity(k) == construct.prefactor_rule(k) / F == ONE
        row = res.consist6[Trunk(k)]
        assert (row.max_residual, row.per_atom) == (0, ((Fraction(0), Fraction(0)),)), k
        assert (cc[Trunk(k)].worst_sigma, cc[Trunk(k)].max_residual,
                cc[Trunk(k)].algebra_bound) == ("R+", 0, 0), k
    _assert_rule_enclosures(art)


WRONG_RULES = [
    ("trunk_rule", lambda l: Monomial.moment(-l) / Monomial.moment(-l - 2),
     ("widly1[l=1]", "v(0)", "the rule leaves M_-2^-1 M_-1, not 1")),
    ("prefactor_rule", lambda l: ONE / Monomial.moment(-l - 1),
     ("mass[mu_-0]", "v(0)", "the rule leaves M_-1^-1 M_0, not 1")),
    ("normalization_rule", lambda: ONE / Monomial.moment(1),
     ("zgod-prime", "v(0)", "the rule leaves M_0 M_1^-1, not 1")),
]


@pytest.mark.parametrize("name, rule, failure", WRONG_RULES, ids=[w[0] for w in WRONG_RULES])
def test_wrong_rule_is_refused(monkeypatch, name, rule, failure):
    """A rule that states one value wrongly leaves a monomial other than one
    in some record: generate raises NoCertificateError naming the record,
    the class and the leftover, and verify of a document generated by the
    right rule fails one record of that name, at that class, with the
    leftover as detail."""
    request = ts.CounterexampleRequest(n=1, kappa=3, q=ts.MIXED_Q, window=SMALL)
    doc = ts.generate(request).to_json_dict()
    monkeypatch.setattr(construct, name, rule)
    with pytest.raises(NoCertificateError) as raised:
        ts.generate(request)
    record, vertex, detail = failure
    assert str(raised.value) == f"{record} at {vertex}: {detail}"
    report = ts.verify(doc)
    assert [(r.name, r.passed, r.vertex, r.detail) for r in report.records] == [
        (record, False, vertex, detail)]


def test_class_rows_decide_the_class_monomial(monkeypatch):
    """consist6_residuals and cc_residual each read the class monomial
    P_k / F_k of the measure system itself: under a wrong trunk rule each
    fails its first trunk class by name."""
    art = _artifact(1, 3, ts.LINEAR_Q, SMALL)
    monkeypatch.setattr(construct, "trunk_rule",
                        lambda l: Monomial.moment(-l) / Monomial.moment(-l - 2))
    with pytest.raises(NoCertificateError,
                       match=r"^consist6 at v\(-3\): the rule leaves M_-4 M_-3\^-1, not 1$"):
        construct.consist6_residuals(art, art.request.cert)
    with pytest.raises(NoCertificateError,
                       match=r"^cc at v\(-1\): the rule leaves M_-2 M_-1\^-1, not 1$"):
        wco.cc_residual(from_shift(art.tree, art.weights), art.measures, art.window,
                        art.request.cert)


# --- the branch rule: one exact row for every branch ---

BRANCH_ROW_WINDOWS = [
    (COLLIDING_Q, SMALL),
    (ts.LINEAR_Q, Window(3, 12, 1)),  # no chain child in the window: the rule still has it
    (ts.MIXED_Q, Window(3, 1, 4)),
]


@pytest.mark.parametrize("q, window", BRANCH_ROW_WINDOWS,
                         ids=["collisions", "max_depth-1", "max_branch-1"])
def test_branch_rows_equal_the_generic_exact_path(q, window):
    """At each branch (i, 1) of the window, `check_consist6_at` and
    `_cc_diffs_exact`, run on the vertex and its chain child (i, 2), give
    the residuals of the one branch row, types included; the row exists
    at every depth, a window of depth 1 too."""
    art = ts.generate(ts.CounterexampleRequest(n=1, kappa=3, q=q, window=window))
    cfg, W = art.request.cert, window.max_branch
    res = identity_residuals(art, cfg)
    row = res.consist6[BRANCH_CLASS]
    (cc_row,) = [c for c in res.cc.per_class if isinstance(c.vertex, Branch)]
    assert [u for u in res.consist6 if isinstance(u, Branch)] == [cc_row.vertex] == [BRANCH_CLASS]
    data = from_shift(art.tree, art.weights)
    atom_set = frozenset(art.alpha.q.value(i) for i in range(1, W + 1))
    for i in range(1, W + 1):
        u, child = Branch(i, 1), Branch(i, 2)
        mu, mu_child = art.measures.measure_at(u), art.measures.measure_at(child)
        w2 = art.weights.squared_at(child)
        ref = measures.check_consist6_at(mu, art.measures.eps_at(u), [(w2, mu_child)],
                                         atom_limit=W)
        assert repr((ref.max_residual, ref.implied_eps, ref.per_atom[0])) == repr(
            (row.max_residual, row.implied_eps, row.per_atom[0])), u
        assert [r for _, r in ref.per_atom] == [0, 0], u
        sigmas, diffs = wco._cc_diffs_exact([mu, mu_child], [w2], atom_set)
        scale = 1 / h_function(data, u, window, cfg)
        assert repr((scale * max(diffs), scale * sum(diffs[:-1]))) == repr(
            (cc_row.max_residual, cc_row.algebra_bound)), u


def test_model_tree_classes_skip_the_generic_exact_path(monkeypatch):
    """generate and verify on model-tree artifacts evaluate no class by the
    generic exact functions: the branch classes come from the branch rule,
    the others from the mixture rule.  An explicit tree still runs them."""
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
