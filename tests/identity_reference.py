"""Exact reference evaluation of the consistency and CC identities.

Every vertex class is evaluated here atom by atom and sigma by sigma, in
`Fraction` and `Interval` arithmetic, over the atoms of the branches a
window holds.  Each enclosure contains its true value, so where an identity
holds exactly its interval residual contains 0.  The oracle test in
`test_identity_kernel` runs it on a window several times wider than the
artifact's and checks that every residual of a class the library states
exact contains 0.
"""

from fractions import Fraction
from typing import Tuple

from treeshift.errors import NoCertificateError
from treeshift.measures import AtomicMeasure, ConsistencyResult, moment
from treeshift.rationals import Interval, as_fraction, coerce, scalar_abs_upper, scalar_upper
from treeshift.series import SequenceSpec, Tail
from treeshift.tree import (
    ModelTree,
    ZERO,
    children,
    children_visible,
    vertex_sort_key,
    window_vertices,
)
from treeshift.wco import _h_positive, h_function


def checkable_vertices(tree, window):
    """Window vertices where the consistency identity is verifiable (see
    `tree.children_visible`)."""
    return (u for u in window_vertices(tree, window) if children_visible(tree, u, window))


def indices_with_value(q: SequenceSpec, t: Fraction, above: int) -> Tuple[int, ...]:
    """All indices i > above with q_i == t (finitely many).

    The reference needs them to count the off-window part of a Dirac
    mixture at the atoms of a truncated view.  Constant tails have
    infinitely many matches and are rejected.
    """
    t = as_fraction(t)
    if q.tail is Tail.CONSTANT:
        raise NoCertificateError("constant-tail sequences are not certifiable here")
    matches = [
        i for i in range(above + 1, len(q.prefix) + 1) if q.prefix[i - 1] == t
    ]
    first_tail = len(q.prefix) + 1
    candidates = []
    if t.denominator == 1:
        candidates.append(int(t))  # linear: q_i = i; mixed: even i
    if t.numerator == 1 and t.denominator % 2 == 1 and q.tail is Tail.MIXED:
        candidates.append(t.denominator)  # mixed: odd i gives q_i = 1/i
    for i in candidates:
        if i >= max(above + 1, first_tail) and q.value(i) == t:
            matches.append(i)
    return tuple(sorted(set(matches)))


def _view(measure, imax):
    """{location: mass} over the atoms with index <= imax, merged."""
    if isinstance(measure, AtomicMeasure):
        return dict(measure.atoms)
    merged = {}
    for i in range(1, imax + 1):
        t, mass = measure.atom_location(i), measure.atom_mass(i)
        merged[t] = merged[t] + mass if t in merged else mass
    return merged


def _is_zero(w2):
    return scalar_abs_upper(w2) == 0


def consist6_at(mu_u, eps_u, children_data, imax) -> ConsistencyResult:
    u_view = _view(mu_u, imax)
    views = [(w2, _view(m, imax)) for w2, m in children_data]
    locations = sorted({Fraction(0), *u_view, *(t for _, v in views for t in v)})
    rhs = {Fraction(0): eps_u}
    for w2, view in views:
        if _is_zero(w2):
            continue
        for t, mass in view.items():
            if t != 0 and scalar_upper(mass) != 0:
                term = w2 * ((1 / t) * mass)
                rhs[t] = rhs[t] + term if t in rhs else term
    per_atom = []
    for t in locations:
        d = u_view.get(t, Fraction(0)) - rhs.get(t, Fraction(0))
        per_atom.append((t, d.abs() if isinstance(d, Interval) else abs(d)))
    values = [r for _, r in per_atom]
    if all(isinstance(v, Fraction) for v in values):
        top = max(values)
    else:
        ivs = [coerce(v) for v in values]
        top = Interval(max(v.lo for v in ivs), max(v.hi for v in ivs))
    return ConsistencyResult(tuple(per_atom), top, u_view.get(Fraction(0), Fraction(0)))


def consist6_residuals(art):
    out = {}
    for u in checkable_vertices(art.tree, art.window):
        kid_data = [(art.weights.squared_at(v), art.measures.measure_at(v))
                    for v in children(art.tree, u, art.window)]
        out[u] = consist6_at(art.measures.measure_at(u), art.measures.eps_at(u), kid_data,
                             art.window.max_branch)
    return out


def _masses_at(measure, atom_set, imax):
    """Masses at the test atoms: a mixture's in-window view plus its
    off-window atoms at the same locations by the coefficient rule."""
    masses = {t: m for t, m in _view(measure, imax).items() if t in atom_set}
    if isinstance(measure, AtomicMeasure):
        return masses
    for t in atom_set:
        tail = sum((measure.alpha.value(i) * t ** (-measure.shift)
                    for i in indices_with_value(measure.alpha.q, t, imax)), Fraction(0))
        if tail:
            masses[t] = masses.get(t, Fraction(0)) + measure.prefactor * tail
    return {t: m for t, m in masses.items() if scalar_abs_upper(m) != 0}


def _first_moment(measure, cfg):
    """int t dmeasure: exact for an atomic measure, the certified
    enclosure prefactor * sum_i alpha_i q_i^(1-shift) for a mixture."""
    if isinstance(measure, AtomicMeasure):
        return moment(measure, 1)
    return measure.moment_certificate(1, cfg)[0]


def cc_classes(data, P, window, cfg):
    """{class vertex: (sigmas, differences)}, every class evaluated
    exactly: the difference lhs - rhs on sigma, exact or an interval, is the
    class's residual there times h > 0."""
    imax = window.max_branch
    atoms = set()
    for v in window_vertices(data.tree, window):
        row = P.measure_at(v)
        atoms.update(row.support() if isinstance(row, AtomicMeasure) else
                     (row.atom_location(i) for i in range(1, imax + 1)))
    atoms = sorted(atoms)
    atom_set = frozenset(atoms)
    out = {}
    for x in window_vertices(data.tree, window):
        kids = children(data.tree, x, window)
        h = h_function(data, x, window, cfg) if kids else None
        if not kids or not _h_positive(h):
            continue
        model_zero = isinstance(data.tree, ModelTree) and x == ZERO
        rows = [P.measure_at(x)] + [P.measure_at(y) for y in kids]
        if model_zero or not all(isinstance(r, AtomicMeasure) for r in rows):
            relevant = atoms
        else:
            relevant = sorted({t for r in rows for t in r.support() if t in atom_set})
        sigmas = [("atom", t) for t in relevant] + [("rest",), ("all",)]
        lhs = {s: Fraction(0) for s in sigmas}
        for y, row in zip(kids, rows[1:]):
            w2 = data.weights.squared_at(y)
            masses = _masses_at(row, atom_set, imax)
            for t, m in masses.items():
                lhs[("atom", t)] = lhs[("atom", t)] + w2 * m
            rest = Fraction(1) - sum(masses.values(), Fraction(0))
            if scalar_abs_upper(rest) != 0:
                lhs[("rest",)] = lhs[("rest",)] + w2 * rest
            lhs[("all",)] = lhs[("all",)] + w2
        if model_zero:
            q = data.weights.alpha.q
            tail_all = coerce(h) - sum((coerce(data.weights.squared_at(y)) for y in kids),
                                       coerce(Fraction(0)))
            lhs[("all",)] = lhs[("all",)] + tail_all
            rest = tail_all
            for t in atoms:
                for i in indices_with_value(q, t, imax):
                    w = data.weights.branch_first_squared(i)
                    lhs[("atom", t)] = lhs[("atom", t)] + w
                    rest = rest - w
            lhs[("rest",)] = lhs[("rest",)] + rest
        x_masses = {t: t * m for t, m in _masses_at(rows[0], atom_set, imax).items()}
        rhs = {s: x_masses.get(s[1], Fraction(0)) if s[0] == "atom" else None for s in sigmas}
        rhs[("all",)] = _first_moment(rows[0], cfg)
        rhs[("rest",)] = rhs[("all",)] - sum(x_masses.values(), Fraction(0))
        out[x] = (sigmas, [lhs[s] - rhs[s] for s in sigmas])
    return dict(sorted(out.items(), key=lambda kv: vertex_sort_key(kv[0])))
