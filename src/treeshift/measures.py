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
from typing import Iterable, Optional, Sequence, Tuple, Union

from .errors import InfiniteTermError, NoCertificateError
from .rationals import (
    Interval,
    Scalar,
    as_fraction,
    coerce,
    rat_to_str,
    scalar_abs_upper,
    scalar_add,
    scalar_mul,
    scalar_sub,
    scalar_upper,
)
from .series import (
    AlphaFamily,
    CertConfig,
    DEFAULT_CONFIG,
    SequenceSpec,
    SeriesCertificate,
    Tail,
    finite_series_certificate,
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
class DiracFamily:
    """The closed-form family i -> delta_{q_i} of branch measures."""

    q: SequenceSpec

    def measure(self, i: int) -> AtomicMeasure:
        return AtomicMeasure.dirac(self.q.value(i))


@dataclass(frozen=True)
class MixtureMeasure:
    """sum_i prefactor * alpha_i * q_i^(-shift) * delta_{q_i}.

    prefactor encloses 1 / sum_i alpha_i q_i^(-shift), so the total mass is
    exactly 1; atom masses carry the enclosure width.  shift = 0 gives the
    branching-vertex measure, shift = l the measure l steps down the trunk.
    The optional tables `masses` and `locations` override the rule for atom
    indices i <= their length.
    """

    alpha: AlphaFamily
    shift: int
    prefactor: Interval
    masses: Tuple[Interval, ...] = ()
    locations: Tuple[Fraction, ...] = ()

    def atom_location(self, i: int) -> Fraction:
        if i <= len(self.locations):
            return self.locations[i - 1]
        return self.alpha.q.value(i)

    def atom_mass(self, i: int) -> Interval:
        if i <= len(self.masses):
            return self.masses[i - 1]
        exact = self.alpha.value(i) * self.atom_location(i) ** (-self.shift)
        return self.prefactor * exact

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
    merged: dict = {}
    for i in range(1, imax + 1):
        t = measure.atom_location(i)
        mass = measure.atom_mass(i)
        merged[t] = merged[t] + mass if t in merged else mass
    return tuple(sorted(merged.items(), key=lambda kv: kv[0]))


def _view_mass_at(view, t: Fraction) -> Scalar:
    for loc, mass in view:
        if loc == t:
            return mass
    return Fraction(0)


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
    infinite and raise InfiniteTermError.
    """
    eps_u = as_fraction(eps_u) if not isinstance(eps_u, Interval) else eps_u
    u_view = atoms_view(mu_u, atom_limit)
    child_views = [(w2, atoms_view(m, atom_limit)) for w2, m in children_data]

    locations = {t for t, _ in u_view}
    for _, view in child_views:
        locations.update(t for t, _ in view)
    locations.add(Fraction(0))

    per_atom = []
    implied_eps: Scalar = Fraction(0)
    for t in sorted(locations):
        lhs = _view_mass_at(u_view, t)
        if t == 0:
            rhs: Scalar = eps_u
            for w2, view in child_views:
                mass0 = _view_mass_at(view, Fraction(0))
                if scalar_upper(mass0) > 0:
                    if _is_zero_weight(w2):
                        continue  # 0 * inf = 0
                    raise InfiniteTermError(
                        "child atom at 0 with nonzero weight makes 1/t integral infinite"
                    )
            implied_eps = lhs
        else:
            rhs = Fraction(0)
            for w2, view in child_views:
                mass = _view_mass_at(view, t)
                if scalar_upper(mass) == 0 or _is_zero_weight(w2):
                    continue
                rhs = scalar_add(rhs, scalar_mul(w2, scalar_mul(Fraction(1, 1) / t, mass)))
        diff = scalar_sub(lhs, rhs)
        residual = diff.abs() if isinstance(diff, Interval) else abs(diff)
        per_atom.append((t, residual))

    return ConsistencyResult(
        per_atom=tuple(per_atom),
        max_residual=_scalar_max(r for _, r in per_atom),
        implied_eps=implied_eps,
    )


def check_cc_dt(
    mu_x: Measure,
    children_data: Sequence[Tuple[Scalar, Measure]],
    atom_limit: Optional[int] = None,
) -> ConsistencyResult:
    """Residual of the first-moment identity derived from consistency:
    int_sigma t dmu_x = sum_y |lambda_y|^2 mu_y(sigma), atom by atom."""
    x_view = atoms_view(mu_x, atom_limit)
    child_views = [(w2, atoms_view(m, atom_limit)) for w2, m in children_data]

    locations = {t for t, _ in x_view}
    for _, view in child_views:
        locations.update(t for t, _ in view)
    locations.add(Fraction(0))

    per_atom = []
    for t in sorted(locations):
        lhs = scalar_mul(t, _view_mass_at(x_view, t)) if t != 0 else Fraction(0)
        rhs: Scalar = Fraction(0)
        for w2, view in child_views:
            mass = _view_mass_at(view, t)
            if scalar_upper(mass) == 0 or _is_zero_weight(w2):
                continue
            rhs = scalar_add(rhs, scalar_mul(w2, mass))
        diff = scalar_sub(lhs, rhs)
        residual = diff.abs() if isinstance(diff, Interval) else abs(diff)
        per_atom.append((t, residual))

    return ConsistencyResult(
        per_atom=tuple(per_atom),
        max_residual=_scalar_max(r for _, r in per_atom),
        implied_eps=Fraction(0),
    )


def weighted_moment_series(
    q: SequenceSpec,
    alpha,
    l: int,
    cfg: CertConfig = DEFAULT_CONFIG,
) -> SeriesCertificate:
    """Certificate for sum_i alpha_i * q_i^l.

    alpha may be an AlphaFamily (generator output with tail metadata) or a
    finite sequence of rationals (exact sum).  Anything else lacks the
    metadata needed for a sound verdict and raises NoCertificateError; no
    heuristic fallback is provided.
    """
    if isinstance(alpha, AlphaFamily):
        if alpha.q != q:
            raise ValueError("alpha family was built for a different q")
        return power_series_certificate(alpha, l, cfg)
    if isinstance(alpha, (list, tuple)):
        return finite_series_certificate(q, alpha, l)
    raise NoCertificateError(
        f"no tail metadata for coefficients of type {type(alpha).__name__}"
    )


def indices_with_value(q: SequenceSpec, t: Fraction, above: int) -> Tuple[int, ...]:
    """All indices i > above with q_i == t (finitely many).

    Needed to account for atom-location collisions between a truncated view
    and the off-window part of a Dirac mixture.  Constant tails have
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
