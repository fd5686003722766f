"""The weighted shift: action on finitely supported vectors, power norms,
and dense-definedness of powers.

Weights are stored through their squared moduli; every criterion checked
here depends on |lambda_v|^2 only, so lambda_v is taken to be the
nonnegative square root and vector amplitudes carry an explicit radical
factor to keep squared norms exact rationals.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple, Union

from .errors import NoCertificateError, UnknownVertexError, WindowOverflowError
from .measures import AtomicMeasure, moment
from .rationals import Interval, Rendered, Scalar, as_fraction, enclosure, render_interval
from .series import (
    AlphaFamily,
    CertConfig,
    DEFAULT_CONFIG,
    SeriesCertificate,
    power_series_certificate,
)
from .tree import (
    INF,
    Branch,
    ExplicitTree,
    ModelTree,
    Trunk,
    Vertex,
    Window,
    ZERO,
    branching_vertices,
    child_count_untruncated,
    children,
    descendants_at,
    in_window,
    vertex_sort_key,
    vertex_to_json,
    window_vertices,
)


@dataclass(frozen=True)
class ExplicitWeights:
    """Squared weights |lambda_v|^2 on the non-root vertices of a finite tree."""

    squared: Mapping[Vertex, Fraction]

    @staticmethod
    def for_tree(tree: ExplicitTree, squared: Mapping) -> "ExplicitWeights":
        table = {v: as_fraction(w) for v, w in squared.items()}
        missing = [v for v in tree.vertices if v != tree.root and v not in table]
        if missing:
            raise ValueError(f"weights missing on {missing}")
        if tree.root in table:
            raise ValueError("the root carries no weight")
        if any(w < 0 for w in table.values()):
            raise ValueError("squared weights must be nonnegative")
        return ExplicitWeights(table)

    def squared_at(self, v: Vertex) -> Fraction:
        try:
            return self.squared[v]
        except KeyError:
            raise UnknownVertexError(f"no weight stored for {v}") from None


@dataclass(frozen=True)
class ModelWeights:
    """Symbolic weight system of a generated counterexample on T_{inf,kappa}.

    |lambda_{i,1}|^2 = c * alpha_i * q_i (rendered as its table stores it),
    computed once per instance and index; |lambda_{i,j}|^2 = q_i for
    j >= 2; and trunk weights are ratios of neighbouring moment series, one
    enclosure per trunk level.
    """

    alpha: AlphaFamily
    c: Interval
    kappa: Union[int, float]
    trunk: Tuple[Interval, ...]

    @cached_property
    def _first(self) -> Dict[int, Rendered]:
        return {}

    def branch_first_squared(self, i: int) -> Rendered:
        if i not in self._first:
            a, q = self.alpha.value(i), self.alpha.q.value(i)
            self._first[i] = render_interval(self.c, a.numerator * q.numerator,
                                             a.denominator * q.denominator,
                                             f"weights.branch_first at i = {i}")
        return self._first[i]

    def branch_tail_squared(self, i: int) -> Fraction:
        return self.alpha.q.value(i)

    def squared_at(self, v: Vertex) -> Scalar:
        if isinstance(v, Branch):
            if v.j == 1:
                return enclosure(self.branch_first_squared(v.i))
            return self.branch_tail_squared(v.i)
        if isinstance(v, Trunk):
            if self.kappa is not INF and v.k >= self.kappa:
                raise UnknownVertexError(f"{v} is the root or beyond; no weight")
            if v.k >= len(self.trunk):
                raise WindowOverflowError(
                    f"trunk weight at level {v.k} not materialized (have {len(self.trunk)})"
                )
            return self.trunk[v.k]
        raise UnknownVertexError(f"{v} is not a model-tree vertex")


WeightSystem = Union[ExplicitWeights, ModelWeights]


# --- finitely supported vectors ---


@dataclass(frozen=True)
class Amplitude:
    """(re + im*i) * sqrt(radical): closed under multiplication by a weight."""

    re: Fraction
    im: Fraction = Fraction(0)
    radical: Scalar = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "re", as_fraction(self.re))
        object.__setattr__(self, "im", as_fraction(self.im))
        if not isinstance(self.radical, Interval):
            object.__setattr__(self, "radical", as_fraction(self.radical))

    def norm_sq(self) -> Scalar:
        return (self.re**2 + self.im**2) * self.radical

    def times_weight(self, w2: Scalar) -> "Amplitude":
        return replace(self, radical=self.radical * w2)


@dataclass(frozen=True)
class FinSuppVector:
    """Finitely supported vector in l^2(V)."""

    entries: Tuple[Tuple[Vertex, Amplitude], ...]

    def __init__(self, entries):
        if isinstance(entries, dict):
            entries = entries.items()
        kept = [
            (v, a)
            for v, a in entries
            if not (a.re == 0 and a.im == 0)
        ]
        kept.sort(key=lambda va: vertex_sort_key(va[0]))
        object.__setattr__(self, "entries", tuple(kept))

    @staticmethod
    def basis(u: Vertex) -> "FinSuppVector":
        return FinSuppVector([(u, Amplitude(Fraction(1)))])

    def norm_sq(self) -> Scalar:
        total: Scalar = Fraction(0)
        for _, a in self.entries:
            total = total + a.norm_sq()
        return total

    def support(self):
        return tuple(v for v, _ in self.entries)


def apply_lambda(tree, weights: WeightSystem, f: FinSuppVector, window: Window) -> FinSuppVector:
    """One application of the shift: mass at u flows to each child v scaled
    by lambda_v.  Fails if the image support would leave the window."""
    out: dict = {}
    for u, amp in f.entries:
        if isinstance(tree, ModelTree) and not in_window(tree, u, window):
            raise WindowOverflowError(f"support vertex {u} outside window")
        kids = children(tree, u, window)
        true_count = child_count_untruncated(tree, u)
        if true_count is INF or true_count > len(kids):
            raise WindowOverflowError(
                f"children of {u} leave the window ({len(kids)} of {true_count} retained)"
            )
        for v in kids:
            if v in out:  # distinct parents in a tree: cannot happen
                raise AssertionError("tree child reached twice")
            out[v] = amp.times_weight(weights.squared_at(v))
    return FinSuppVector(out)


def _reach_fits(tree, u: Vertex, n: int, window: Window) -> bool:
    """Whether every vertex n edges below u lies inside the window."""
    if isinstance(tree, ExplicitTree):
        return True
    if isinstance(u, Branch):
        return u.i <= window.max_branch and u.j + n <= window.max_depth
    # trunk vertex -k
    if n <= u.k:
        return True
    if tree.eta is INF or tree.eta > window.max_branch:
        return False
    return (n - u.k) <= window.max_depth


def power_norm_sq(tree, weights: WeightSystem, u: Vertex, n: int, window: Window) -> Scalar:
    """||S^n e_u||^2 as the sum over n-step descendants of path products
    of squared weights; exact rational when all touched weights are."""
    if not isinstance(tree, ExplicitTree) and not in_window(tree, u, window):
        raise WindowOverflowError(f"{u} outside window")
    if not _reach_fits(tree, u, n, window):
        raise WindowOverflowError(f"descendants of {u} at depth {n} leave the window")
    total: Scalar = Fraction(0)
    for _, path in descendants_at(tree, u, n, window):
        prod: Scalar = Fraction(1)
        for v in path[1:]:
            prod = prod * weights.squared_at(v)
        total = total + prod
    return total


# --- dense definedness of powers ---


@dataclass(frozen=True)
class DomainCertificate:
    """Verdict on e_u in D(S^n), backed by a norm value or a divergence."""

    vertex: Vertex
    power: int
    in_domain: bool
    norm_sq: Optional[Scalar] = None
    evidence: Optional[SeriesCertificate] = None

    def to_json(self):
        out = {
            "vertex": vertex_to_json(self.vertex),
            "power": self.power,
            "verdict": "in-domain" if self.in_domain else "not-in-domain",
        }
        if self.norm_sq is not None:
            from .rationals import scalar_to_json

            out["norm_sq"] = scalar_to_json(self.norm_sq)
        if self.evidence is not None:
            out["evidence"] = self.evidence.to_json()
        return out


@dataclass(frozen=True)
class DomainReport:
    power: int
    densely_defined: bool
    certificates: Tuple[DomainCertificate, ...]


def _measure_domain_certificate(u, mu, n, cfg) -> DomainCertificate:
    if isinstance(mu, AtomicMeasure):
        value = moment(mu, n)
        if value is math.inf:
            raise NoCertificateError(f"moment of order {n} at {u} is infinite")
        return DomainCertificate(u, n, True, norm_sq=value)
    enclosure, cert = mu.moment_certificate(n, cfg)
    if cert.is_convergent:
        return DomainCertificate(u, n, True, norm_sq=enclosure, evidence=cert)
    return DomainCertificate(u, n, False, evidence=cert)


def dense_defined_power(
    tree,
    weights: WeightSystem,
    measures,
    n: int,
    window: Window,
    cfg: CertConfig = DEFAULT_CONFIG,
    reduce: bool = True,
) -> DomainReport:
    """Decide whether S^n is densely defined.

    With reduce=True only branching vertices are checked (they decide the
    question); reduce=False checks every in-window vertex, which must give
    the same overall verdict and is exposed for cross-validation.

    Finite explicit trees are always in-domain (finite sums); model trees
    need an attached measure system for the moment certificates.
    """
    if n < 0:
        raise ValueError("power must be >= 0")
    if n > cfg.max_power:
        raise ValueError(f"power {n} exceeds the configured cap {cfg.max_power}")
    checked = branching_vertices(tree, window) if reduce else list(window_vertices(tree, window))
    if isinstance(tree, ExplicitTree):
        certs = tuple(
            DomainCertificate(u, n, True, norm_sq=power_norm_sq(tree, weights, u, n, window))
            for u in checked
        )
        return DomainReport(n, True, certs)

    if measures is None:
        raise NoCertificateError("model trees need a measure system for domain checks")
    if n == 0:
        certs = tuple(DomainCertificate(u, 0, True, norm_sq=Fraction(1)) for u in checked)
        return DomainReport(0, True, certs)
    certs = tuple(
        _measure_domain_certificate(u, measures.measure_at(u), n, cfg) for u in checked
    )
    return DomainReport(n, all(c.in_domain for c in certs), certs)


def glowne_power_check(artifact, n: int) -> DomainCertificate:
    """Domain verdict for S^n on a generated artifact via the branch series
    sum_i |lambda_{i,1}|^2 * q_i^{n-1} = c * sum_i alpha_i q_i^n."""
    if n < 0:
        raise ValueError("power must be >= 0")
    if n > CertConfig.max_power:
        raise ValueError(f"power {n} exceeds the configured cap {CertConfig.max_power}")
    if n == 0:
        return DomainCertificate(ZERO, 0, True, norm_sq=Fraction(1))
    cert = power_series_certificate(artifact.alpha, n, artifact.request.cert)
    if cert.is_convergent:
        return DomainCertificate(ZERO, n, True, norm_sq=artifact.c * cert.enclosure, evidence=cert)
    return DomainCertificate(ZERO, n, False, evidence=cert)
