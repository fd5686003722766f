"""Composition-operator view over the counting measure on the vertex set.

The shift is re-encoded as w(x) = lambda_x (0 at the root) together with
phi(x) = pa(x) (root mapped to itself).  This module evaluates the induced
h function, the conditional expectation onto sibling classes, the
consistency condition on families of probability measures (CC), and the
round trip between CC families and consistent measure systems.

Sigma ranges over the finite algebra generated by the test atoms; for
atomic families this is exhaustive, and residuals on arbitrary algebra
elements are bounded by the sum of the per-generator residuals.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple, Union

from .errors import InfiniteTermError, NoCertificateError
from .measures import (
    AtomicMeasure,
    MixtureMeasure,
    atoms_view,
    check_consist6_at,
    indices_with_value,
    moment,
)
from .rationals import (
    Interval,
    Scalar,
    as_fraction,
    coerce,
    scalar_abs_upper,
    scalar_add,
    scalar_lower,
    scalar_mul,
    scalar_sub,
    scalar_upper,
)
from .series import CertConfig, DEFAULT_CONFIG, power_series_certificate
from .shift import ModelWeights, WeightSystem
from .tree import (
    INF,
    Branch,
    ExplicitTree,
    ModelTree,
    Trunk,
    Vertex,
    Window,
    ZERO,
    children,
    children_visible,
    parent,
    vertex_sort_key,
    window_vertices,
)

Measure = Union[AtomicMeasure, MixtureMeasure]


@dataclass(frozen=True)
class CompositionData:
    """Weights and parent map reinterpreted as (w, phi) over counting measure."""

    tree: Union[ModelTree, ExplicitTree]
    weights: WeightSystem

    def phi(self, x: Vertex) -> Vertex:
        p = parent(self.tree, x)
        return x if p is None else p

    def w_squared(self, x: Vertex) -> Scalar:
        if parent(self.tree, x) is None:
            return Fraction(0)
        return self.weights.squared_at(x)


def from_shift(tree, weights: WeightSystem) -> CompositionData:
    return CompositionData(tree, weights)


def h_function(
    data: CompositionData, x: Vertex, window: Window, cfg: CertConfig = DEFAULT_CONFIG
) -> Scalar:
    """h(x) = nu_w(phi^{-1}({x})) = sum of squared weights over Chi(x).

    This is the h of the mathematical tree: on a model tree every vertex
    keeps its child even at the window boundary (the weight rule extends
    past the window), and at the branching vertex the sum is an infinite
    series returned as its certified enclosure.
    """
    if isinstance(data.tree, ModelTree):
        if x == ZERO:
            if data.tree.eta is not INF:
                total: Scalar = Fraction(0)
                for i in range(1, int(data.tree.eta) + 1):
                    total = scalar_add(total, data.weights.squared_at(Branch(i, 1)))
                return total
            if not isinstance(data.weights, ModelWeights):
                raise NoCertificateError("infinite child sum without a symbolic weight rule")
            cert = power_series_certificate(data.weights.alpha, 1, cfg)
            return data.weights.c * cert.enclosure
        if isinstance(x, Branch):
            return data.weights.squared_at(Branch(x.i, x.j + 1))
        return data.weights.squared_at(Trunk(x.k - 1))  # single trunk child
    total: Scalar = Fraction(0)
    for y in children(data.tree, x, window):
        total = scalar_add(total, data.weights.squared_at(y))
    return total


def _h_positive(h: Scalar) -> bool:
    return scalar_lower(h) > 0


def cond_expectation(
    data: CompositionData,
    f: Mapping[Vertex, Scalar],
    window: Window,
    cfg: CertConfig = DEFAULT_CONFIG,
) -> Dict[Vertex, Scalar]:
    """E(f): the |lambda|^2-weighted average of f over each sibling class,
    constant on phi^{-1}({x}) and zero where nu_w(Chi(x)) = 0."""
    out: Dict[Vertex, Scalar] = {}
    for x in window_vertices(data.tree, window):
        kids = children(data.tree, x, window)
        if not kids:
            continue
        h = h_function(data, x, window, cfg)
        members = list(kids)
        if parent(data.tree, x) is None:
            members.append(x)  # the root belongs to its own sibling class
        if not _h_positive(h):
            for z in members:
                out[z] = Fraction(0)
            continue
        num: Scalar = Fraction(0)
        for y in kids:
            fy = f.get(y, Fraction(0))
            if scalar_abs_upper(fy) == 0:
                continue
            num = scalar_add(num, scalar_mul(data.weights.squared_at(y), fy))
        value = scalar_mul(num, coerce(h).recip()) if isinstance(h, Interval) else num / h
        for z in members:
            out[z] = value
    return out


# --- sigma evaluation on the finite atom algebra ---


def _row(P, v: Vertex) -> Measure:
    if hasattr(P, "measure_at"):
        return P.measure_at(v)
    return P[v]


def _atom_masses(measure: Measure, atom_set, imax: int) -> Dict[Fraction, Scalar]:
    """Nonzero masses of `measure` at the test atoms.  A mixture reads its
    in-window view (so stored tables are honoured) and adds the off-window
    atoms at the same location through the coefficient rule."""
    view = dict(atoms_view(measure, imax))
    if isinstance(measure, MixtureMeasure):
        for t in atom_set:
            tail = sum(
                (measure.alpha.value(i) * t ** (-measure.shift)
                 for i in indices_with_value(measure.alpha.q, t, imax)),
                Fraction(0),
            )
            if tail:
                view[t] = scalar_add(view.get(t, Fraction(0)), measure.prefactor * tail)
    return {t: m for t, m in view.items() if t in atom_set and scalar_abs_upper(m) != 0}


def _over_sigmas(per_atom: Dict[Fraction, Scalar], total: Scalar, sigmas):
    """Spread per-atom values with total `total` over every sigma."""
    rest = total
    # exact, so any order gives the same rest; small denominators first keep
    # the intermediate ones small (high-index mixture masses have huge ones)
    for m in sorted(per_atom.values(), key=lambda m: scalar_upper(m).denominator):
        rest = scalar_sub(rest, m)
    values = {"all": total, "rest": rest}
    return [per_atom.get(s[1], Fraction(0)) if s[0] == "atom" else values[s[0]] for s in sigmas]


def _first_moment(measure: Measure, cfg: CertConfig) -> Scalar:
    """int t dmeasure, a certified enclosure for a mixture."""
    if isinstance(measure, AtomicMeasure):
        return moment(measure, 1)
    enclosure, _ = measure.moment_certificate(1, cfg)
    if enclosure is None:
        raise NoCertificateError("divergent first moment in CC right-hand side")
    return enclosure


def _collect_atoms(data, P, window: Window):
    atoms = set()
    for v in window_vertices(data.tree, window):
        row = _row(P, v)
        if isinstance(row, AtomicMeasure):
            atoms.update(row.support())
        else:
            atoms.update(row.atom_location(i) for i in range(1, window.max_branch + 1))
    return tuple(sorted(atoms))


@dataclass(frozen=True)
class CCClassResidual:
    vertex: Vertex  # the class phi^{-1}({vertex})
    worst_sigma: str
    max_residual: Fraction  # upper bound over evaluated sigma
    algebra_bound: Fraction  # bounds |LHS-RHS| for every algebra element


@dataclass(frozen=True)
class CCReport:
    max_residual: Fraction
    algebra_bound: Fraction
    per_class: Tuple[CCClassResidual, ...]
    h_positive_on_support: bool


def cc_residual(
    data: CompositionData,
    P,
    window: Window,
    cfg: CertConfig = DEFAULT_CONFIG,
    test_atoms: Optional[Tuple[Fraction, ...]] = None,
) -> CCReport:
    """Max residual of the CC identity over sibling classes and the finite
    algebra generated by the test atoms.

    For a model tree, rows of P beyond the window must follow the Dirac
    branch rule delta_{q_i}; the off-window part of the class at the
    branching vertex is then accounted for exactly through the weight rule.
    """
    atoms = tuple(sorted(as_fraction(t) for t in test_atoms)) if test_atoms else _collect_atoms(data, P, window)
    atom_set = frozenset(atoms)
    imax = window.max_branch

    per_class = []
    h_ok = True
    for x in window_vertices(data.tree, window):
        kids = children(data.tree, x, window)
        if not kids:
            continue
        h = h_function(data, x, window, cfg)
        if not _h_positive(h):
            if any(scalar_upper(data.weights.squared_at(y)) > 0 for y in kids):
                h_ok = False  # a child with nonzero weight under h = 0
            continue
        h_recip = coerce(h).recip()
        model_zero = isinstance(data.tree, ModelTree) and x == ZERO
        row_x = _row(P, x)
        rows = [row_x] + [_row(P, y) for y in kids]

        # atoms outside every involved support make both sides vanish
        relevant = set()
        for row in rows:
            if isinstance(row, AtomicMeasure):
                relevant.update(t for t in row.support() if t in atom_set)
            else:
                relevant = set(atoms)
                break
        if model_zero:
            relevant = set(atoms)
        sigmas = [("atom", t) for t in sorted(relevant)] + [("rest",), ("all",)]

        if model_zero:
            in_window_w2 = sum(
                (coerce(data.weights.squared_at(y)) for y in kids), coerce(Fraction(0))
            )
            tail_all = coerce(h) - in_window_w2  # off-window children, sigma = all
        kid_info = [
            (data.weights.squared_at(y),
             _over_sigmas(_atom_masses(row, atom_set, imax), Fraction(1), sigmas))
            for y, row in zip(kids, rows[1:])
        ]
        x_masses = _atom_masses(row_x, atom_set, imax)
        rhs_nums = _over_sigmas(
            {t: scalar_mul(t, m) for t, m in x_masses.items()}, _first_moment(row_x, cfg), sigmas
        )
        atom_resid: Dict[str, Fraction] = {}
        for idx, sigma in enumerate(sigmas):
            lhs_num: Scalar = Fraction(0)
            for w2, masses in kid_info:
                mass = masses[idx]
                if scalar_abs_upper(mass) == 0:
                    continue
                lhs_num = scalar_add(lhs_num, scalar_mul(w2, mass))
            if model_zero:
                lhs_num = scalar_add(lhs_num, _model_zero_tail(data, sigma, atoms, imax, tail_all))
            diff = scalar_sub(lhs_num, rhs_nums[idx])
            residual = scalar_mul(
                diff.abs() if isinstance(diff, Interval) else abs(diff), h_recip
            )
            atom_resid[_sigma_name(sigma)] = scalar_abs_upper(residual)
        worst = max(atom_resid, key=lambda k: atom_resid[k])
        bound = sum(
            (atom_resid[_sigma_name(s)] for s in sigmas if s[0] != "all"), Fraction(0)
        )
        per_class.append(
            CCClassResidual(x, worst, max(atom_resid.values()), bound)
        )

    per_class.sort(key=lambda c: vertex_sort_key(c.vertex))
    return CCReport(
        max_residual=max((c.max_residual for c in per_class), default=Fraction(0)),
        algebra_bound=max((c.algebra_bound for c in per_class), default=Fraction(0)),
        per_class=tuple(per_class),
        h_positive_on_support=h_ok,
    )


def _sigma_name(sigma) -> str:
    if sigma[0] == "atom":
        return f"{{{sigma[1]}}}"
    return "complement-of-atoms" if sigma[0] == "rest" else "R+"


def _model_zero_tail(data, sigma, atoms, imax, tail_all) -> Scalar:
    """Contribution of off-window children of the branching vertex, whose
    rows are delta_{q_i} by the branch rule."""
    weights: ModelWeights = data.weights
    q = weights.alpha.q
    kind = sigma[0]
    if kind == "all":
        return tail_all
    if kind == "atom":
        total: Scalar = Fraction(0)
        for i in indices_with_value(q, sigma[1], imax):
            total = scalar_add(total, weights.branch_first_squared(i))
        return total
    rest = tail_all
    for t in atoms:
        for i in indices_with_value(q, t, imax):
            rest = scalar_sub(rest, weights.branch_first_squared(i))
    return rest


# --- the remark's round trip: CC family -> consistent measure system ---


@dataclass(frozen=True)
class RoundTripResult:
    measures: Dict[Vertex, Measure]
    eps: Dict[Vertex, Scalar]
    residuals: Dict[Vertex, Fraction]
    max_residual: Fraction
    skipped: Tuple[Vertex, ...]  # window-boundary vertices with hidden children


def roundtrip_measures(
    data: CompositionData,
    P,
    window: Window,
    cfg: CertConfig = DEFAULT_CONFIG,
) -> RoundTripResult:
    """Build mu~_x = P(x,.) on X_+ and delta_0 elsewhere, then check the
    consistency identity at every in-window vertex whose children are fully
    visible (plus the branching vertex, where truncation is atom-consistent),
    reporting residuals and the implied eps values."""
    tilde: Dict[Vertex, Measure] = {}
    for x in window_vertices(data.tree, window):
        if isinstance(data.tree, ModelTree):
            in_x_plus = _h_positive(h_function(data, x, window, cfg))
        else:
            kids = children(data.tree, x, window)
            in_x_plus = bool(kids) and _h_positive(h_function(data, x, window, cfg))
        tilde[x] = _row(P, x) if in_x_plus else AtomicMeasure.dirac(0)

    residuals: Dict[Vertex, Fraction] = {}
    eps: Dict[Vertex, Scalar] = {}
    skipped = []
    for u in window_vertices(data.tree, window):
        if not children_visible(data.tree, u, window):
            skipped.append(u)
            continue
        kid_data = [
            (data.weights.squared_at(v), tilde[v]) for v in children(data.tree, u, window)
        ]
        try:
            result = check_consist6_at(
                tilde[u], Fraction(0), kid_data, atom_limit=window.max_branch
            )
        except InfiniteTermError:
            # a nonzero-weight child was sent to delta_0: the identity fails
            # infinitely at this vertex (h > 0 a.e. [nu_w] is violated below u)
            residuals[u] = math.inf
            eps[u] = Fraction(0)
            continue
        eps[u] = result.implied_eps
        # the implied eps replaces the assumed 0 at t = 0
        residual = max(
            (scalar_abs_upper(r) for t, r in result.per_atom if t != 0), default=Fraction(0)
        )
        residuals[u] = residual
    return RoundTripResult(
        measures=tilde,
        eps=eps,
        residuals=residuals,
        max_residual=max(residuals.values(), default=Fraction(0)),
        skipped=tuple(skipped),
    )

