"""Atomic probability measures on R+, moments, and consistency residuals.

Conventions follow the footnote the consistency identity is stated under:
0*inf = inf*0 = 0, 1/0 = inf, and sums over an empty index set are 0.

Only finitely-atomic measures and closed-form Dirac mixtures are
represented.  Residuals are exact rationals whenever every input is an
exact rational; they become intervals only where the (irrational)
normalization constant of a generated system enters.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .errors import InfiniteTermError
from .rationals import (
    Interval,
    Rendered,
    Scalar,
    accumulate,
    as_fraction,
    coerce,
    enclosure,
    rat_to_str,
    render_interval,
    scalar_abs_upper,
    scalar_upper,
)
from .series import (
    AlphaFamily,
    CertConfig,
    DEFAULT_CONFIG,
    power_series_certificate,
)


@dataclass(frozen=True)
class AtomicMeasure:
    """Borel probability measure on R+ with finitely many atoms."""

    atoms: Tuple[Tuple[Fraction, Fraction], ...]

    def __init__(self, atoms: Iterable):
        cleaned = sorted(
            (as_fraction(t), as_fraction(p)) for t, p in atoms
        )
        object.__setattr__(self, "atoms", tuple(cleaned))
        locations = [t for t, _ in self.atoms]
        if len(set(locations)) != len(locations):
            raise ValueError("atom locations must be distinct")
        if any(t < 0 for t in locations):
            raise ValueError("atoms must sit in R+")
        if any(p <= 0 for _, p in self.atoms):
            raise ValueError("atom masses must be positive")
        if sum(p for _, p in self.atoms) != 1:
            raise ValueError("atom masses must sum to exactly 1")

    @staticmethod
    def dirac(t) -> "AtomicMeasure":
        return AtomicMeasure([(t, Fraction(1))])

    def support(self) -> Tuple[Fraction, ...]:
        return tuple(t for t, _ in self.atoms)

    def to_json(self):
        return {"atoms": [[rat_to_str(t), rat_to_str(p)] for t, p in self.atoms]}

    @staticmethod
    def from_json(obj) -> "AtomicMeasure":
        return AtomicMeasure((Fraction(t), Fraction(p)) for t, p in obj["atoms"])


def moment(m: AtomicMeasure, l: int):
    """sum p * t^l, an extended nonnegative rational.

    Returns math.inf exactly when l < 0 and an atom sits at t = 0; the atom
    at 0 contributes 0^0 = 1 for l = 0 and 0 for l > 0.
    """
    total = Fraction(0)
    for t, p in m.atoms:
        if t == 0:
            if l < 0:
                return math.inf
            if l == 0:
                total += p
            continue
        total += p * t**l
    return total


@dataclass(frozen=True)
class MixtureMeasure:
    """sum_i prefactor * alpha_i * q_i^(-shift) * delta_{q_i}.

    prefactor encloses 1 / sum_i alpha_i q_i^(-shift), so the total mass is
    exactly 1; atom masses carry the enclosure width, each rendered as its
    table stores it (`atom_mass`).  shift = 0 gives the branching-vertex
    measure, shift = l the measure l steps down the trunk.
    Each atom mass is computed once per instance, and the finite view below
    once per instance and index limit; both are kept with the instance.
    """

    alpha: AlphaFamily
    shift: int
    prefactor: Interval

    def atom_location(self, i: int) -> Fraction:
        return self.alpha.q.value(i)

    @cached_property
    def _masses(self) -> Dict[int, Rendered]:
        return {}

    def atom_mass(self, i: int) -> Rendered:
        """prefactor * alpha_i * q_i^(-shift), rendered as its table stores it."""
        if i not in self._masses:
            a, t = self.alpha.value(i), self.atom_location(i)
            s = self.shift
            self._masses[i] = render_interval(
                self.prefactor, a.numerator * t.denominator**s, a.denominator * t.numerator**s,
                f"measures.mixtures (shift {s}) atom mass at i = {i}")
        return self._masses[i]

    @cached_property
    def _views(self) -> Dict[int, Tuple[Tuple[Fraction, Interval], ...]]:
        return {}

    def view(self, imax: int) -> Tuple[Tuple[Fraction, Interval], ...]:
        """(location, mass) over the atoms with index <= imax, merged over
        coinciding locations and sorted by location."""
        if imax not in self._views:
            merged: dict = {}
            for i in range(1, imax + 1):
                t = self.atom_location(i)
                mass = enclosure(self.atom_mass(i))
                merged[t] = merged[t] + mass if t in merged else mass
            self._views[imax] = tuple(sorted(merged.items(), key=lambda kv: kv[0]))
        return self._views[imax]

    def moment_certificate(self, l: int, cfg: CertConfig = DEFAULT_CONFIG):
        """(enclosure, certificate) of the l-th moment; enclosure None when
        the moment is infinite."""
        cert = power_series_certificate(self.alpha, l - self.shift, cfg)
        if not cert.is_convergent:
            return None, cert
        return self.prefactor * cert.enclosure, cert


Measure = Union[AtomicMeasure, MixtureMeasure]


def atoms_view(measure: Measure, imax: Optional[int] = None) -> Tuple[Tuple[Fraction, Scalar], ...]:
    """Finite (location, mass) view, merged over coinciding locations.

    For mixtures only the atoms with index <= imax are materialized; the
    remaining mass is implicit (the measure still has total mass 1).
    """
    if isinstance(measure, AtomicMeasure):
        return measure.atoms
    if imax is None:
        raise ValueError("mixtures need an index limit for a finite view")
    return measure.view(imax)


def _is_zero_weight(w2: Scalar) -> bool:
    return (not isinstance(w2, Interval) and w2 == 0) or (
        isinstance(w2, Interval) and w2.lo == 0 and w2.hi == 0
    )


def _scalar_max(values) -> Scalar:
    values = list(values)
    if not values:
        return Fraction(0)
    if all(isinstance(v, Fraction) for v in values):
        return max(values)
    ivs = [coerce(v) for v in values]
    return Interval(max(v.lo for v in ivs), max(v.hi for v in ivs))


@dataclass(frozen=True)
class ConsistencyResult:
    """Residuals of a consistency identity, atom by atom."""

    per_atom: Tuple[Tuple[Fraction, Scalar], ...]
    max_residual: Scalar
    implied_eps: Scalar

    @property
    def residual_upper(self) -> Fraction:
        return scalar_abs_upper(self.max_residual)


def _identity_views(mu: Measure, children_data, atom_limit: Optional[int]):
    """The {location: mass} view of mu, the (weight, view) pairs of the
    children with nonzero weight, restricted to atoms of nonzero mass, and
    the sorted union of all their locations with 0."""
    view = dict(atoms_view(mu, atom_limit))
    child_views = [(w2, dict(atoms_view(m, atom_limit))) for w2, m in children_data]
    # each view is sorted, so the union comes nearly sorted: few comparisons
    child_locations = (t for _, v in child_views for t in v)
    locations = sorted(dict.fromkeys([Fraction(0), *view, *child_locations]))
    child_views = [
        (w2, {t: mass for t, mass in v.items() if scalar_upper(mass) != 0})
        for w2, v in child_views
        if not _is_zero_weight(w2)
    ]
    return view, child_views, locations


def _consistency_result(diffs, implied_eps: Scalar) -> ConsistencyResult:
    """The result for per-atom differences (t, lhs - rhs)."""
    per_atom = tuple((t, d.abs() if isinstance(d, Interval) else abs(d)) for t, d in diffs)
    return ConsistencyResult(per_atom, _scalar_max(r for _, r in per_atom), implied_eps)


def check_consist6_at(
    mu_u: Measure,
    eps_u,
    children_data: Sequence[Tuple[Scalar, Measure]],
    atom_limit: Optional[int] = None,
) -> ConsistencyResult:
    """Residual of the measure-consistency identity at one vertex.

    Both sides are evaluated atom by atom over the union of the (windowed)
    atom supports and {0}: the left side is mu_u({t}), the right side is
    sum_v |lambda_v|^2 (1/t) mu_v({t}) for t > 0 and eps_u at t = 0.
    Children carrying an atom at 0 with nonzero weight make the right side
    infinite and raise InfiniteTermError (a zero weight gives 0 * inf = 0).
    """
    eps_u = as_fraction(eps_u) if not isinstance(eps_u, Interval) else eps_u
    u_view, child_views, locations = _identity_views(mu_u, children_data, atom_limit)
    zero = Fraction(0)
    if any(scalar_upper(view.get(zero, zero)) > 0 for _, view in child_views):
        raise InfiniteTermError("child atom at 0 with nonzero weight makes 1/t integral infinite")
    rhs: Dict[Fraction, Scalar] = {zero: eps_u}
    for w2, view in child_views:  # each child adds at its own atoms only
        for t, mass in view.items():
            if t != 0:
                accumulate(rhs, t, w2 * ((1 / t) * mass))
    diffs = [(t, u_view.get(t, zero) - rhs.get(t, zero)) for t in locations]
    return _consistency_result(diffs, implied_eps=u_view.get(zero, zero))


def check_cc_dt(
    mu_x: Measure,
    children_data: Sequence[Tuple[Scalar, Measure]],
    atom_limit: Optional[int] = None,
) -> ConsistencyResult:
    """Residual of the first-moment identity derived from consistency:
    int_sigma t dmu_x = sum_y |lambda_y|^2 mu_y(sigma), atom by atom."""
    x_view, child_views, locations = _identity_views(mu_x, children_data, atom_limit)
    rhs: Dict[Fraction, Scalar] = {}
    for w2, view in child_views:
        for t, mass in view.items():
            accumulate(rhs, t, w2 * mass)
    diffs = []
    for t in locations:
        lhs = t * x_view[t] if t != 0 and t in x_view else Fraction(0)
        diffs.append((t, lhs - rhs.get(t, Fraction(0))))
    return _consistency_result(diffs, implied_eps=Fraction(0))
