"""The rows of the identity layer: the trunk and vertex-0 rows against the
exact reference evaluation on a wider index range, the branch rows against
the generic exact path, and totality on tampered documents."""

import copy
from dataclasses import replace
from fractions import Fraction

import pytest

import treeshift as ts
from treeshift import construct, measures, wco
from treeshift.construct import identity_residuals
from treeshift.rationals import scalar_abs_upper
from treeshift.series import power_series_certificate
from treeshift.tree import Branch, Trunk, Window
from treeshift.wco import CCClassResidual, _sigma_name, _small_first, from_shift, h_function

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


def _check_against_reference(art, wider=WIDER):
    """Each trunk and vertex-0 row is at least the exact residual of every
    atom (consistency) and of every atom sigma (CC) that the reference finds
    on a window `wider` times as many branches wide, and at most check_tol;
    a CC row is its own algebra bound, at the worst sigma R+.  The branch
    rows equal the reference's exact values.

    The reference's complement and R+ sigmas are not compared: there it
    counts one enclosure M_s twice (once in h or the unit mass and once in
    the first moment), so it reads above the row, which counts it once."""
    cfg = art.request.cert
    tol = cfg.check_tol
    res = identity_residuals(art, cfg)
    classes = replace(art, window=replace(art.window, max_depth=min(art.window.max_depth, 2)))
    wide = replace(classes, window=replace(classes.window,
                                           max_branch=wider * classes.window.max_branch))
    exact6 = reference.consist6_residuals(wide)
    assert set(res.consist6) == {u for u in exact6 if not isinstance(u, Branch)
                                 or u.i <= art.window.max_branch}
    for u, got in res.consist6.items():
        ref = exact6[u]
        if isinstance(u, Branch):  # exact inputs: the exact path, bit for bit
            assert got == ref, u
            continue
        atoms = [scalar_abs_upper(r) for t, r in ref.per_atom if t != 0]
        assert len(atoms) >= wider * art.window.max_branch // 2, u  # the wide range was read
        assert max(atoms) <= got.residual_upper <= tol, u
        assert got.per_atom == ((Fraction(0), Fraction(0)),), u
    exact_cc = reference.cc_classes(from_shift(art.tree, art.weights), art.measures,
                                    wide.window, cfg)
    got_cc = {c.vertex: c for c in res.cc.per_class}
    assert set(got_cc) == {x for x in exact_cc if not isinstance(x, Branch)
                           or x.i <= art.window.max_branch}
    for x, got in got_cc.items():
        sigmas, bounds = exact_cc[x]
        if isinstance(x, Branch):
            worst = max(range(len(sigmas)), key=bounds.__getitem__)
            assert (got.worst_sigma, got.max_residual, got.algebra_bound) == (
                _sigma_name(sigmas[worst]), bounds[worst], sum(bounds[:-1])), x
            continue
        atoms = [b for s, b in zip(sigmas, bounds) if s[0] == "atom"]
        assert len(atoms) >= wider * art.window.max_branch // 2, x
        assert max(atoms) <= got.max_residual == got.algebra_bound <= tol, x
        assert got.worst_sigma == "R+", x


@pytest.mark.parametrize("key", ORACLE_ARTIFACTS, ids=lambda key: "-".join(
    str(part) for part in key[:2] + (key[2].tail.value, "small" if key[3] else "grid")))
def test_kernel_bounds_against_exact_reference(key):
    """Every trunk and vertex-0 row bounds the exact residual at each atom
    of four times the window's branches, and is at most check_tol; the
    branch classes come out bit for bit as the exact path finds them."""
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
    """Each trunk and vertex-0 row is M_-k.hi |P_k - F_k|.upper
    (consistency) and M_(1-k).hi |F_k - P_k|.upper / h.lo (CC) rounded up
    onto the 2^-128 grid, from the enclosures the rule holds."""
    art = _artifact(*key)
    cfg, w, mix = art.request.cert, art.weights, art.measures.mixtures
    res = identity_residuals(art, cfg)
    cc = {c.vertex: c for c in res.cc.per_class}
    assert [u for u in res.consist6 if not isinstance(u, Branch)] == [
        Trunk(k) for k in reversed(range(len(mix)))]
    for k in range(len(mix)):
        F = art.c if k == 0 else w.trunk[k - 1] * mix[k - 1].prefactor
        gap = (mix[k].prefactor - F).abs_upper()
        M = {s: power_series_certificate(art.alpha, s, cfg).enclosure for s in (-k, 1 - k)}
        h = art.c * M[1] if k == 0 else w.trunk[k - 1]
        consist, cc_row = wco.grid_up(M[-k].hi * gap), wco.grid_up(M[1 - k].hi * gap / h.lo)
        assert res.consist6[Trunk(k)].residual_upper == consist, k
        assert (cc[Trunk(k)].max_residual, cc[Trunk(k)].algebra_bound) == (cc_row, cc_row), k
        assert consist.denominator <= 1 << 128 and cc_row.denominator <= 1 << 128


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
    atom_set = frozenset(art.alpha.q.value(i) for i in range(1, W + 1))
    for u in expected:
        child = Branch(u.i, 2)
        mu, mu_child = art.measures.measure_at(u), art.measures.measure_at(child)
        w2 = art.weights.squared_at(child)
        ref = measures.check_consist6_at(mu, art.measures.eps_at(u), [(w2, mu_child)],
                                         atom_limit=W)
        assert repr(res.consist6[u]) == repr(ref), u
        sigmas, diffs = wco._cc_diffs_exact([mu, mu_child], [w2], atom_set)
        worst = max(range(len(sigmas)), key=diffs.__getitem__)
        scale = 1 / h_function(data, u, window, cfg)
        ref_cc = CCClassResidual(u, _sigma_name(sigmas[worst]), scale * diffs[worst],
                                 scale * sum(_small_first(diffs[:-1])))
        assert repr(cc[u]) == repr(ref_cc), u


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
