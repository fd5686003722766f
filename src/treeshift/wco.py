"""Composition-operator view over the counting measure on the vertex set.

The shift is re-encoded as w(x) = lambda_x (0 at the root) together with
phi(x) = pa(x) (root mapped to itself).  This module evaluates the induced
h function, the conditional expectation onto sibling classes, the
consistency condition on families of probability measures (CC), and the
round trip between CC families and consistent measure systems.

On an explicit tree, sigma ranges over the finite algebra generated by the
test atoms; for atomic families this is exhaustive, and residuals on
arbitrary algebra elements are bounded by the sum of the per-generator
residuals.  On a model tree each class is one exact row of its rule, which
holds at every Borel sigma at once.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Tuple, Union

from .errors import IdentityLeftoverError, InfiniteTermError, NoCertificateError
from .measures import (
    AtomicMeasure,
    MixtureMeasure,
    check_consist6_at,
    moment,
)
from .rationals import (
    Interval,
    Scalar,
    accumulate,
    scalar_abs_upper,
    scalar_lower,
    scalar_upper,
)
from .series import CertConfig, DEFAULT_CONFIG, Monomial, power_series_certificate
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
                    total = total + data.weights.squared_at(Branch(i, 1))
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
        total = total + data.weights.squared_at(y)
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
            num = num + data.weights.squared_at(y) * fy
        value = num * h.recip() if isinstance(h, Interval) else num / h
        for z in members:
            out[z] = value
    return out


# --- sigma evaluation on the finite atom algebra ---


def _row(P, v: Vertex) -> Measure:
    if hasattr(P, "measure_at"):
        return P.measure_at(v)
    return P[v]


def _atom_masses(measure: AtomicMeasure, atom_set) -> Dict[Fraction, Scalar]:
    """Masses of an atomic measure at the test atoms (atomic masses are > 0)."""
    return {t: m for t, m in measure.atoms if t in atom_set}


def _small_first(values) -> List[Scalar]:
    """values by increasing denominator.  Exact sums come out the same in any
    order; small denominators first keep the intermediate ones small
    (high-index mixture masses have huge ones)."""
    return sorted(values, key=lambda m: scalar_upper(m).denominator)


def _rest(per_atom: Dict[Fraction, Scalar], total: Scalar) -> Scalar:
    """total minus the per-atom values: the value on the complement of the atoms."""
    rest = total
    for m in _small_first(per_atom.values()):
        rest = rest - m
    return rest


def _collect_atoms(data, P, window: Window):
    """The test atoms of a family P of atomic rows: the union of the
    supports of the rows P gives the window vertices."""
    atoms = set()
    for v in window_vertices(data.tree, window):
        row = _row(P, v)
        if not isinstance(row, AtomicMeasure):
            raise NoCertificateError(f"the mixture row at {v} needs a measure system")
        atoms.update(row.support())
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


def require_model_rules(tree: ModelTree, weights, P) -> None:
    """Raise NoCertificateError unless the rows of a model tree can be read
    from its rules: eta = inf (the mixture row of vertex 0 takes every branch
    (i, 1) for a child), model weights, a measure system P, and one sequence
    q for the branch Diracs and the chain weights (the branch row)."""
    if not (tree.eta is INF and isinstance(weights, ModelWeights) and hasattr(P, "mixtures")):
        raise NoCertificateError("a model tree needs eta = inf, model weights and a measure system")
    if P.q != weights.alpha.q:
        raise NoCertificateError("the branch Diracs and the chain weights read different q")


def cc_residual(
    data: CompositionData,
    P,
    window: Window,
    cfg: CertConfig = DEFAULT_CONFIG,
) -> CCReport:
    """Max residual of the CC identity over sibling classes and sigmas.

    On a model tree (see `require_model_rules`) the classes are the rule's,
    and the window is not read: one row per trunk level k < len(P.mixtures)
    (k = 0: vertex 0) by the mixture rule (`P.class_identity`), and one row
    for every branch vertex by the branch rule: (i, j) and its one child
    carry the Dirac at q_i, and the child's weight q_i is h, so LHS - RHS is
    q_i - q_i or 0 - 0 at every sigma.  Each row is exact (`_cc_row`); h > 0
    is read from the enclosures.  The classes of an explicit tree are
    evaluated exactly (`_cc_explicit_classes`).
    """
    if isinstance(data.tree, ModelTree):
        require_model_rules(data.tree, data.weights, P)
        per_class, h_ok = [_cc_row(BRANCH_CLASS)], True
        for k in range(len(P.mixtures)):
            h = h_function(data, Trunk(k), window, cfg)
            if _h_positive(h):
                exact_residual("cc", Trunk(k), P.class_identity(k))
                per_class.append(_cc_row(Trunk(k)))
            elif scalar_upper(h) > 0:
                h_ok = False  # h is the rule's sum of the children's weights
    else:
        per_class, h_ok = _cc_explicit_classes(data, P, window, cfg)
    per_class.sort(key=lambda c: vertex_sort_key(c.vertex))
    return CCReport(
        max_residual=max((c.max_residual for c in per_class), default=Fraction(0)),
        algebra_bound=max((c.algebra_bound for c in per_class), default=Fraction(0)),
        per_class=tuple(per_class),
        h_positive_on_support=h_ok,
    )


def _cc_explicit_classes(data: CompositionData, P, window: Window, cfg: CertConfig):
    """The classes of an explicit tree, each evaluated exactly on the atom
    algebra of P, and whether h > 0 wherever a child has nonzero weight."""
    atom_set = frozenset(_collect_atoms(data, P, window))
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
        rows = [_row(P, x)] + [_row(P, y) for y in kids]
        sigmas, diffs = _cc_diffs_exact(rows, [data.weights.squared_at(y) for y in kids], atom_set)
        # a residual |diff| * [1/h.hi, 1/h.lo] has upper end |diff| / h.lo: so
        # the worst sigma (the first at the max) is that of |diff|, and 1/h.lo
        # scales the max and the sum over every sigma but R+ once
        worst = max(range(len(sigmas)), key=diffs.__getitem__)
        scale = 1 / scalar_lower(h)
        per_class.append(CCClassResidual(x, _sigma_name(sigmas[worst]), scale * diffs[worst],
                                         scale * sum(_small_first(diffs[:-1]))))
    return per_class, h_ok


# The key of the one branch-rule row, which stands for every branch vertex.
BRANCH_CLASS = Branch(1, 1)


def _cc_row(x: Vertex) -> CCClassResidual:
    """A CC class that holds exactly: 0 at every sigma, R+ named the worst."""
    return CCClassResidual(x, _sigma_name(("all",)), Fraction(0), Fraction(0))


def exact_residual(record: str, vertex: Vertex, monomial: Monomial) -> Fraction:
    """The residual of an identity record whose rule values multiply to
    `monomial`: 0 when it is one, decided exactly; otherwise
    IdentityLeftoverError names the record, the class and the leftover."""
    if not monomial.is_one():
        raise IdentityLeftoverError(record, vertex, monomial)
    return Fraction(0)


def _cc_diffs_exact(rows, w2s, atom_set):
    """The sigmas of a class of atomic rows and the upper bound of
    |lhs - rhs| on each, in exact arithmetic."""
    row_x = rows[0]
    relevant = sorted({t for row in rows for t in row.support() if t in atom_set})
    sigmas = [("atom", t) for t in relevant] + [("rest",), ("all",)]
    # both sides as one sum per sigma; each child adds only at its own
    # nonzero atoms, at the complement when its mass there is nonzero,
    # and at R+ (mass 1), in child order
    position = {s[1]: idx for idx, s in enumerate(sigmas) if s[0] == "atom"}
    rest_idx, all_idx = len(sigmas) - 2, len(sigmas) - 1
    lhs_nums: Dict[int, Scalar] = {}  # by sigma index
    for w2, row in zip(w2s, rows[1:]):
        masses = _atom_masses(row, atom_set)
        for t, mass in masses.items():
            accumulate(lhs_nums, position[t], w2 * mass)
        rest = _rest(masses, Fraction(1))
        if scalar_abs_upper(rest) != 0:
            accumulate(lhs_nums, rest_idx, w2 * rest)
        accumulate(lhs_nums, all_idx, w2)
    x_masses = {t: t * m for t, m in _atom_masses(row_x, atom_set).items()}
    rhs_nums: List[Scalar] = [Fraction(0)] * len(sigmas)
    for t, m in x_masses.items():
        rhs_nums[position[t]] = m
    rhs_nums[all_idx] = moment(row_x, 1)
    rhs_nums[rest_idx] = _rest(x_masses, rhs_nums[all_idx])
    diffs = [scalar_abs_upper(lhs_nums.get(idx, Fraction(0)) - rhs_nums[idx])
             for idx in range(len(sigmas))]
    return sigmas, diffs


def _sigma_name(sigma) -> str:
    if sigma[0] == "atom":
        return f"{{{sigma[1]}}}"
    return "complement-of-atoms" if sigma[0] == "rest" else "R+"


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

