"""Counterexample generator on the model tree with eta = infinity.

Given a target power n and a trunk length kappa, produce a certified
weight system and measure system such that S^n is densely defined while
S^{n+1} is not:

  * pick a subsequence Omega with q_{i_k} >= k;
  * set alpha_{i_k} = 1/(k^2 q_{i_k}^n) on Omega and choose alpha off
    Omega so that alpha_i * sum_{k<=i} q_i^{n+1-k} <= 2^{-i};
  * normalize so that sum_i c*alpha_i = 1, making the branching-vertex
    measure a probability mixture;
  * define trunk weights as ratios of neighbouring negative-moment series
    (the normalization constant cancels);
  * derive the trunk measures down the single-child chain and certify all
    the identities the construction promises.

Artifacts serialize to a single deterministic JSON document carrying both
the symbolic rules and concrete per-vertex tables inside the truncation
window; `verify` rebuilds the rules from a document's request alone,
requires every stored number to equal the rule's, and certifies the rules.
"""

import json
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import reduce
from operator import getitem
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .errors import (IdentityLeftoverError, NoCertificateError, SupNotWitnessedError,
                     TableRangeError)
from .measures import AtomicMeasure, ConsistencyResult, MixtureMeasure
from .rationals import (
    Interval,
    interval_from_json,
    outward,
    rat_from_str,
    rat_to_decimal,
    rat_to_str,
    render_interval,
    table_interval,
)
from .series import (
    AlphaFamily,
    CertConfig,
    DEFAULT_CONFIG,
    Monomial,
    ONE,
    OmegaSpec,
    SequenceSpec,
    build_omega,
    power_series_certificate,
    witness_partial_sum,  # not called here; perfbench/spans.py rebinds this name when tracing
)
from .shift import ModelWeights
from .tree import (
    INF,
    Branch,
    ModelTree,
    Trunk,
    Vertex,
    Window,
    ZERO,
)
from . import wco

SCHEMA = "treeshift-artifact/1"

# the fixed constants as a document must state them under `request.cert`:
# only the one a reader of documents uses (perfbench/checks.py)
_FIXED_CERT_JSON = {"check_tol": rat_to_str(CertConfig.check_tol)}


@dataclass(frozen=True)
class CounterexampleRequest:
    """Target power n >= 1, trunk length kappa, base sequence q (sup must be
    unbounded), and certificate configuration."""

    n: int
    kappa: Union[int, float] = 0
    q: SequenceSpec = SequenceSpec()
    cert: CertConfig = DEFAULT_CONFIG
    window: Window = Window()

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:  # a bool is not an integer here
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if self.n + 1 > self.cert.max_power:
            raise ValueError("n+1 exceeds the configured power cap")
        if self.kappa is not INF and (type(self.kappa) is not int or self.kappa < 0):
            raise ValueError(f"kappa must be an integer >= 0 or INF, got {self.kappa!r}")

    def to_json(self):
        return {
            "n": self.n,
            "kappa": "inf" if self.kappa is INF else self.kappa,
            "q": self.q.to_json(),
            "window": asdict(self.window),
            "cert": {
                "series_width": rat_to_str(self.cert.series_width),
                "divergence_threshold": rat_to_str(self.cert.divergence_threshold),
                **_FIXED_CERT_JSON,
            },
        }

    @staticmethod
    def from_json(obj) -> "CounterexampleRequest":
        """The request a document states; ValueError names a missing or
        mistyped key, or a key of `cert` the library does not state."""

        def read(path, parse=lambda value: value):
            try:
                return parse(reduce(getitem, path.split("."), obj))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None

        for key, value in _FIXED_CERT_JSON.items():
            stated = read(f"cert.{key}")
            if stated != value:
                raise ValueError(f"cert.{key}: {stated!r}, the library fixes {value!r}")
        cert = obj["cert"]  # an object: its check_tol was read
        unknown = sorted(cert.keys() - {"series_width", "divergence_threshold", *_FIXED_CERT_JSON})
        if unknown:  # a constant the library no longer states, or never did
            key = unknown[0]
            raise ValueError(f"cert.{key[:40]}: {repr(cert[key])[:40]}, not a key of the request")
        return CounterexampleRequest(
            n=read("n", _index),
            kappa=read("kappa", lambda kappa: INF if kappa == "inf" else _index(kappa)),
            q=read("q", SequenceSpec.from_json),
            cert=CertConfig(
                series_width=read("cert.series_width", rat_from_str),
                divergence_threshold=read("cert.divergence_threshold", rat_from_str),
            ),
            window=read("window", _window),
        )


# --- pipeline operations ---


def choose_subsequence(q: SequenceSpec, cfg: CertConfig = DEFAULT_CONFIG) -> OmegaSpec:
    """Strictly increasing i_k with q_{i_k} >= k, greedily smallest
    (`build_omega`; no setting of cfg changes it)."""
    return build_omega(q)


# --- the rule: each value once, as a monomial in M_s = sum_i alpha_i q_i^s ---

M = Monomial.moment


def normalization_rule() -> Monomial:
    """c = 1/M_0: the branching-vertex measure has mass 1."""
    return ONE / M(0)


def trunk_rule(l: int) -> Monomial:
    """|lambda_{-l}|^2 = M_-l / M_-(l+1): c cancels."""
    return M(-l) / M(-l - 1)


def prefactor_rule(l: int) -> Monomial:
    """P_l = 1/M_-l, the prefactor of the mixture mu_-l: its mass is 1."""
    return ONE / M(-l)


def normalize(alpha: AlphaFamily, cfg: CertConfig = DEFAULT_CONFIG):
    """c (`normalization_rule`, rounded `outward`) and the certificate of
    M_0 = sum_i alpha_i."""
    c = outward(normalization_rule().enclosure(alpha, cfg), "c")
    return c, power_series_certificate(alpha, 0, cfg)


def trunk_weights(
    alpha: AlphaFamily, kappa, levels: int, cfg: CertConfig = DEFAULT_CONFIG
) -> Tuple[Interval, ...]:
    """|lambda_{-l}|^2 (`trunk_rule`, rounded `outward`) for l = 0..levels-1;
    the normalization constant cancels, so these enclosures are exactly
    invariant under rescaling alpha.

    For finite kappa the recursion runs to l = kappa-1 and the last weight
    makes the terminal inequality an equality.
    """
    if kappa is not INF and levels > kappa:
        raise ValueError("more trunk weights requested than non-root trunk vertices")
    return tuple(outward(trunk_rule(l).enclosure(alpha, cfg), f"weights.trunk at l = {l}")
                 for l in range(levels))


@dataclass(frozen=True)
class MeasureSystem:
    """Measures of a generated system: delta_{q_i} on every branch vertex,
    Dirac mixtures at vertex 0 and down the trunk, eps identically 0 (the
    trunk recursion keeps every mass exactly 1)."""

    q: SequenceSpec
    mixtures: Tuple[MixtureMeasure, ...]  # index = trunk level (0 = vertex 0)

    def measure_at(self, v: Vertex):
        """The measure at v: the Dirac at q_i on branch i, a mixture on the trunk."""
        if isinstance(v, Branch):
            return AtomicMeasure.dirac(self.q.value(v.i))
        if isinstance(v, Trunk):
            if v.k < len(self.mixtures):
                return self.mixtures[v.k]
            raise NoCertificateError(f"no measure materialized for {v}")
        raise NoCertificateError(f"no measure for {v}")

    def eps_at(self, v: Vertex) -> Fraction:
        return Fraction(0)

    @staticmethod
    def class_identity(k: int) -> Monomial:
        """P_k / F_k, the monomial the consistency and CC classes of trunk
        vertex -k (k = 0: vertex 0) reduce to; `wco` reads the rule here.

        The vertex carries mu_-k = P_k sum_i alpha_i q_i^-k delta_{q_i}.  Its
        children are -(k-1), carrying mu_-(k-1) with weight w_{k-1} (k >= 1),
        or every (i, 1), carrying delta_{q_i} with weight c alpha_i q_i
        (k = 0).  With F_0 = c and F_k = w_{k-1} P_{k-1}, consistency at an
        atom t is E_k(t) (P_k - F_k), E_k(t) the sum of alpha_i q_i^-k over
        q_i = t, and CC at a Borel sigma is B_k(sigma) (F_k - P_k), B_k(sigma)
        the sum of alpha_i q_i^(1-k) over q_i in sigma.  So both hold at every
        atom and sigma of the infinite tree, off-window atoms and collisions
        included, when this monomial is one."""
        F = normalization_rule() if k == 0 else trunk_rule(k - 1) * prefactor_rule(k - 1)
        return prefactor_rule(k) / F


def build_measure_system(
    alpha: AlphaFamily, kappa, levels: int, cfg: CertConfig = DEFAULT_CONFIG
) -> MeasureSystem:
    """Mixtures mu_{-l} = sum_i P_l alpha_i q_i^{-l} delta_{q_i} for
    l = 0..levels-1 (`prefactor_rule`, rounded `outward`), derived down the
    single-child trunk chain; every mass is exactly 1 and every eps vanishes."""
    mixtures = tuple(MixtureMeasure(alpha, l, outward(prefactor_rule(l).enclosure(alpha, cfg),
                                                      f"measures.mixtures (shift {l}) prefactor"))
                     for l in range(levels))
    return MeasureSystem(q=alpha.q, mixtures=mixtures)


# --- the artifact ---


@dataclass
class CounterexampleArtifact:
    request: CounterexampleRequest
    tree: ModelTree
    window: Window
    omega: OmegaSpec
    alpha: AlphaFamily
    c: Interval
    weights: ModelWeights
    measures: MeasureSystem
    certificates: dict = field(default_factory=dict)  # nd[m], m = 1..n+1
    lemmas: Tuple["Lemma", ...] = ()  # the identity records, decided

    @property
    def n(self) -> int:
        return self.request.n

    def to_json_dict(self) -> dict:
        return _artifact_doc(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1) + "\n"


def _trunk_levels(kappa, window: Window) -> int:
    """Number of trunk weights |lambda_{-l}|^2 materialized (l = 0..L-1), one
    per window trunk vertex but the root -kappa (min(INF, m) is m)."""
    return min(kappa, window.max_trunk + 1)


def _mixture_levels(kappa, window: Window) -> int:
    """Number of trunk measures materialized (levels 0..M-1, level 0 = vertex 0)."""
    return min(kappa, window.max_trunk) + 1


def _artifact_window(request: CounterexampleRequest) -> Window:
    """The request's window with the trunk cut at the root -kappa."""
    return replace(request.window, max_trunk=min(request.window.max_trunk, request.kappa))


def build_rules(request: CounterexampleRequest) -> CounterexampleArtifact:
    """The uncertified artifact of a request: omega, alpha, c, the trunk
    weights and the measure system on the request's window, with no
    certificates.  Everything is derived from the request: `generate`
    writes this rule, and `verify` compares a document with it."""
    cfg, kappa = request.cert, request.kappa
    window = _artifact_window(request)
    omega = choose_subsequence(request.q, cfg)
    alpha = AlphaFamily(q=request.q, omega=omega, power=request.n)
    c, _ = normalize(alpha, cfg)
    trunk = trunk_weights(alpha, kappa, _trunk_levels(kappa, window), cfg)
    return CounterexampleArtifact(
        request=request,
        tree=ModelTree(eta=INF, kappa=kappa),
        window=window,
        omega=omega,
        alpha=alpha,
        c=c,
        weights=ModelWeights(alpha=alpha, c=c, kappa=kappa, trunk=trunk),
        measures=build_measure_system(alpha, kappa, _mixture_levels(kappa, window), cfg),
    )


def generate(request: CounterexampleRequest) -> CounterexampleArtifact:
    """Run the full pipeline and certify every promised identity: the
    power-domain certificates nd[m], and the records of `identity_lemmas`."""
    artifact, cfg = build_rules(request), request.cert
    artifact.certificates = {"nd": {m: power_series_certificate(artifact.alpha, m, cfg)
                                    for m in range(1, artifact.n + 2)}}
    artifact.lemmas = decide_lemmas(identity_lemmas(request.kappa, artifact.window), artifact, cfg)
    return artifact


# --- the identity records: one table, which generate writes and verify reads ---

LeafPath = Tuple[Union[str, int], ...]


class Lemma(NamedTuple):
    """An identity record of the rule (see `identity_lemmas`)."""

    name: str
    vertex: Optional[Vertex]  # where the record is reported
    classes: Tuple[Tuple[Vertex, Monomial], ...]  # each monomial must be one at its class
    # (path below `certificates`, the value stored when the record holds)
    leaves: Tuple[Tuple[LeafPath, object], ...]
    note: str = ""  # the record's detail when it passes


# The residual tables: the entry of position p is {key: p, "residual": r},
# and a leaf path (table, p) names its residual.
_TABLE_KEYS = {"widly1": "l", "mass_residuals": "shift"}


def identity_lemmas(kappa, window: Window) -> Tuple[Lemma, ...]:
    """The identity records of the rule on an artifact's window, in the
    order `verify` reports them: the one statement of each record's name,
    classes and stored certificate.  `generate` writes the leaves,
    `verify` reads, decides and compares them, and `report` lists them.

    Each class is a product of the rule's monomials that must be one
    (`wco.exact_residual`): P_k / F_k for the consistency and CC classes of
    each trunk level k (`MeasureSystem.class_identity`; k = 0: vertex 0),
    and the branch rule's q_i q_i^-1 for every branch vertex, keyed
    `wco.BRANCH_CLASS`; c M_0 (zgod-prime); (w_0 ... w_{l-1}) c M_-l
    (widly1[l], and widly1-prime at l = kappa, the terminal inequality
    held as an equality); and P_l M_-l (mass[l]).  So each residual is
    exactly 0, whatever the widths of the enclosures: no branch is
    evaluated, and neither `max_branch` nor `max_depth` is read.  The last
    record, h > 0 on the support, has no monomial: `wco.cc_residual` reads
    it from the enclosures.  `vertices_checked` counts the classes."""
    zero, product = Fraction(0), normalization_rule()
    classes = _classes(kappa, window)
    rows = [Lemma("consist6", None, classes, ((("consist6",), {
                "max_residual": zero, "vertices_checked": len(classes)}),)),
            Lemma("zgod-prime", None, ((ZERO, product * M(0)),),
                  ((("zgod_prime_residual",), zero),))]
    for l in range(1, _trunk_levels(kappa, window) + 1):
        product = product * trunk_rule(l - 1)
        identity = ((Trunk(l - 1), product * M(-l)),)
        if l == kappa:
            rows.append(Lemma("widly1-prime", Trunk(l - 1), identity, ((("widly1_prime",), {
                "l": l, "residual": zero, "holds_leq_1": True}),),
                "terminal trunk inequality held as equality"))
        else:
            rows.append(Lemma(f"widly1[l={l}]", Trunk(l - 1), identity, ((("widly1", l), zero),)))
    rows += [Lemma(f"mass[mu_-{l}]", Trunk(l), ((Trunk(l), prefactor_rule(l) * M(-l)),),
                   ((("mass_residuals", l), zero),)) for l in range(_mixture_levels(kappa, window))]
    rows += [Lemma("cc", None, classes, ((("cc", "max_residual"), zero),
                                         (("cc", "algebra_bound"), zero))),
             Lemma("h-positive-on-support", None, (), ((("cc", "h_positive_on_support"), True),))]
    return tuple(rows)


def _classes(kappa, window: Window) -> Tuple[Tuple[Vertex, Monomial], ...]:
    """The consistency and CC classes of the rule (see `identity_lemmas`)."""
    return tuple((Trunk(k), MeasureSystem.class_identity(k))
                 for k in reversed(range(_mixture_levels(kappa, window)))) + (
        (wco.BRANCH_CLASS, ONE),)


def decide_lemmas(lemmas: Tuple[Lemma, ...], artifact: CounterexampleArtifact,
                  cfg: CertConfig) -> Tuple[Lemma, ...]:
    """The records `lemmas` of an artifact's rule (`identity_lemmas`),
    decided, each leaf the value the rule gives it: every monomial by
    `wco.exact_residual`, those of the consistency and CC classes last, by
    their layers `consist6_residuals` and `wco.cc_residual`, which also
    reads h > 0 on the support.  IdentityLeftoverError names the first
    record whose monomial is not one."""
    for lemma in lemmas:
        if lemma.name not in ("consist6", "cc"):
            for vertex, monomial in lemma.classes:
                wco.exact_residual(lemma.name, vertex, monomial)
    consist6_residuals(artifact, cfg)
    data = wco.from_shift(artifact.tree, artifact.weights)
    cc = wco.cc_residual(data, artifact.measures, artifact.window, cfg)
    return tuple(lemma if lemma.classes else  # no monomial: h > 0 on the support
                 lemma._replace(leaves=tuple((path, cc.h_positive_on_support)
                                             for path, _ in lemma.leaves))
                 for lemma in lemmas)


def consist6_residuals(
    a: CounterexampleArtifact, cfg: CertConfig = DEFAULT_CONFIG
) -> Dict[Vertex, ConsistencyResult]:
    """Consistency residual of every class of the consist6 record of
    `identity_lemmas` (see `wco.require_model_rules`), each the exact row
    `_EXACT_ROW` once its monomial is one.  The branch class stands for
    every branch vertex: (i, j) and its one child carry the Dirac at q_i,
    and the child's weight is q_i, so the residual at q_i is
    |1 - q_i/q_i| = 0."""
    wco.require_model_rules(a.tree, a.weights, a.measures)
    out = {}
    for vertex, monomial in _classes(a.request.kappa, a.window):
        wco.exact_residual("consist6", vertex, monomial)
        out[vertex] = _EXACT_ROW
    return out


# A class that holds exactly at every atom: `per_atom` states t = 0 only,
# where eps = 0, and the row stands for every other atom at once.
_EXACT_ROW = ConsistencyResult(((Fraction(0), Fraction(0)),), Fraction(0), Fraction(0))


# --- serialization ---

def _window_tables(kappa, window: Window) -> tuple:
    """The window tables of a document, the one statement of them for
    `_artifact_doc` and `verify`: (JSON path, entry key, positions, field,
    read, value, record, vertex, detail), an entry per position keyed by
    it, its field value(artifact, position), which `read` reads; a stored
    value other than the rule's fails `record` at vertex(position), with
    `detail` formatted with it."""
    branches, levels = range(1, window.max_branch + 1), range(_mixture_levels(kappa, window))
    return (
        (("weights", "branch_first"), "i", branches, "w2", table_interval,
         lambda a, i: list(a.weights.branch_first_squared(i)),
         "weight-reconstruction", lambda i: Branch(i, 1), ""),
        (("weights", "branch_tail"), "i", branches, "w2", rat_from_str,
         lambda a, i: rat_to_str(a.weights.branch_tail_squared(i)),
         "weight-reconstruction", lambda i: Branch(i, 2), "chain weight differs from rule"),
        (("weights", "trunk"), "l", range(_trunk_levels(kappa, window)), "w2", table_interval,
         lambda a, l: list(render_interval(a.weights.trunk[l])), "weight-reconstruction", Trunk, ""),
        (("measures", "branch_atoms"), "i", branches, "t", rat_from_str,
         lambda a, i: rat_to_str(a.measures.q.value(i)),
         "atom-reconstruction", lambda i: Branch(i, 1), "branch atom location differs from q"),
        (("measures", "mixtures"), "shift", levels, "prefactor", table_interval,
         lambda a, l: list(render_interval(a.measures.mixtures[l].prefactor)),
         "atom-reconstruction", Trunk, "mixture prefactor off rule"),
    ) + tuple(
        (("measures", "mixtures", l, "atoms"), "i", branches, "mass", table_interval,
         lambda a, i, l=l: list(a.measures.mixtures[l].atom_mass(i)),
         "atom-reconstruction", lambda i, l=l: Trunk(l), "mixture atom i={} off rule")
        for l in levels)


def _artifact_doc(a: CounterexampleArtifact) -> dict:
    doc = {
        "schema": SCHEMA,
        "request": a.request.to_json(),
        "window": asdict(a.window),
        "omega": a.omega.to_json(),
        "alpha": a.alpha.to_json(),
        "c": list(render_interval(a.c)),
        "weights": {},
        "measures": {"eps": []},
        "certificates": {
            "nd": {str(m): cert.to_json() for m, cert in a.certificates["nd"].items()},
            **_lemmas_json(a.lemmas),
        },
    }
    for path, key, positions, field, _, value, *_ in _window_tables(a.request.kappa, a.window):
        reduce(getitem, path[:-1], doc)[path[-1]] = [
            {key: p, field: value(a, p)} for p in positions]
    return doc


def _lemmas_json(lemmas) -> dict:
    """The leaves of `lemmas` as a document stores them under `certificates`."""
    out = {table: [] for table in _TABLE_KEYS}
    for lemma in lemmas:
        for path, value in lemma.leaves:
            if path[0] in _TABLE_KEYS:
                table, position = path
                out[table].append({_TABLE_KEYS[table]: position, "residual": rat_to_str(value)})
            else:
                node = reduce(lambda node, key: node.setdefault(key, {}), path[:-1], out)
                node[path[-1]] = _leaf_json(value)
    return out


def _leaf_json(value):
    if isinstance(value, dict):
        return {key: _leaf_json(v) for key, v in value.items()}
    return rat_to_str(value) if isinstance(value, Fraction) else value


# --- verification ---


def approx_residual(r: Fraction) -> str:
    """The human-facing summary of a residual: "0" or a ~decimal of six digits."""
    return "0" if r == 0 else "~" + rat_to_decimal(r, 6)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    vertex: Optional[str] = None
    residual: Optional[str] = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = f" vertex={self.vertex}" if self.vertex else ""
        res = f" residual={self.residual}" if self.residual is not None else ""
        tail = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}{where}{res}{tail}"


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    records: Tuple[CheckRecord, ...]
    # the identity records decided (`decide_lemmas`); None when verify stopped before them
    lemmas: Optional[Tuple[Lemma, ...]] = None

    def failures(self) -> Tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed)


class _Malformed(Exception):
    """A document whose shape does not match its declared window."""


def _path_text(path) -> str:
    """A JSON path as a detail names it: measures.mixtures[0].atoms."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def _at(node, path):
    """The value at `path` below `node`, a list index in it one of a checked table."""
    for depth, key in enumerate(path):
        if isinstance(key, str):
            if not isinstance(node, dict):
                raise _Malformed(f"{_path_text(path[:depth])}: not an object")
            if key not in node:
                raise _Malformed(f"{_path_text(path)}: missing")
        node = node[key]
    return node


def _table(doc, path, positions, key: str, parse) -> list:
    """parse(entry, position) of each entry of the table at `path`, one per
    position and keyed by it; _Malformed names the path of a table not of
    this shape, or of an entry that does not parse."""
    rows, where = _at(doc, path), _path_text(path)
    if not isinstance(rows, list) or len(rows) != len(positions):
        size = len(rows) if isinstance(rows, list) else "no"
        raise _Malformed(f"{where}: {size} entries, the window needs {len(positions)}")
    out = []
    for p, (row, position) in enumerate(zip(rows, positions)):
        try:
            if _index(row[key]) != position:
                raise ValueError(f"{key} = {row[key]!r}, expected {position}")
            out.append(parse(row, position))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise _Malformed(f"{where}[{p}]: {type(exc).__name__}: {exc}") from None
    return out


def _index(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _window(value) -> Window:
    """The window a document states: every bound, and no other key."""
    if not isinstance(value, dict) or value.keys() != asdict(Window()).keys():
        raise ValueError(f"{str(value)[:60]} does not state exactly {list(asdict(Window()))}")
    return Window(**value)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a boolean")
    return value


def _same(stored, written) -> bool:
    """Whether a stored JSON value is the written one as canonical JSON
    text: another type or form (16.0 for 16, 1 for true) differs."""
    return type(stored) is type(written) and stored == written


def _typed(stored, stated):
    """A stored identity leaf: the stated value when the document writes it
    as `_leaf_json` does, and otherwise read as the stated value's type."""
    if _same(stored, _leaf_json(stated)):
        return stated
    return (_flag if isinstance(stated, bool) else _index if isinstance(stated, int)
            else rat_from_str)(stored)


def _atom(entry, i) -> Fraction:
    """The atom of branch i, always read: it must be > 0."""
    t = rat_from_str(entry["t"])
    if t <= 0:
        raise _Malformed(f"measures.branch_atoms[{i - 1}].t: atom at {t}, branch atoms must be > 0")
    return t


def _stored_leaves(doc: dict, lemmas: Tuple[Lemma, ...], kappa) -> Dict[LeafPath, object]:
    """The leaf of each record of `lemmas` a document stores (`_typed`):
    every leaf must be there, and a residual table must hold exactly the
    entries the records give it."""
    leaves = {}
    for table, key in _TABLE_KEYS.items():
        stated = {path[1]: value for lemma in lemmas for path, value in lemma.leaves
                  if path[0] == table}
        read = _table(doc, ("certificates", table), list(stated), key,
                      lambda entry, position: _typed(entry["residual"], stated[position]))
        leaves.update(((table, p), value) for p, value in zip(stated, read))

    def read(path, stated):
        if isinstance(stated, dict):
            return {key: read(path + (key,), value) for key, value in stated.items()}
        path = ("certificates",) + path
        try:
            return _typed(_at(doc, path), stated)
        except (TypeError, ValueError) as exc:
            raise _Malformed(f"{_path_text(path)}: {exc}") from None

    for lemma in lemmas:
        leaves.update((path, read(path, value)) for path, value in lemma.leaves
                      if path not in leaves)
    if ("widly1_prime",) not in leaves and "widly1_prime" in _at(doc, ("certificates",)):
        raise _Malformed(f"certificates.widly1_prime: kappa = {kappa} has no terminal level "
                         "in the window")
    return leaves


def _parse_artifact(doc: dict, request: CounterexampleRequest, read: bool):
    """(omega as stated, nd, the window's identity records, their leaves
    as stored) of a document whose shape is checked before any series
    work: each table the length the stored window gives it, with its
    position keys, and every field there; _Malformed names the JSON path of
    a shape error.  Of the values only the branch atoms (each > 0), the
    fields each nd[m] needs for its verdict and the identity leaves that
    differ (`_stored_leaves`) are read, and with `read` c and every table
    value too, each where the document states it, so the first fault
    raised is the first in document order; `nd` holds each nd[m] as
    stored."""
    kappa = request.kappa
    if doc.get("schema") != SCHEMA:
        raise _Malformed(f"schema: {doc.get('schema')!r}, expected {SCHEMA!r}")
    try:
        stored = _window(_at(doc, ("window",)))
    except (TypeError, ValueError) as exc:
        raise _Malformed(f"window: {exc}") from None
    # alpha is the rule's, power n and scale 1 (`build_rules`), each key as
    # canonical JSON text, so 1.0 for 1 differs
    alpha = _at(doc, ("alpha",))
    if not isinstance(alpha, dict):
        raise _Malformed("alpha: not an object")
    rule = {"power": request.n, "scale": "1"}
    differ = _json_differ(alpha, rule)
    if differ:
        raise _Malformed(f"alpha.{differ[0][:40]}: not the request's alpha {rule}")
    c = _at(doc, ("c",))  # else compared with the rule's once it is built (`_table_misses`)
    if read:
        try:
            table_interval(c)
        except (TypeError, ValueError) as exc:
            raise _Malformed(f"c: {exc}") from None
    tables = _window_tables(kappa, stored)
    inner = {spec[0][:-1]: spec for spec in tables if len(spec[0]) > 2}  # a mixture's atoms

    def check(path, key, positions, field, parse, *_):
        def entry(row, position):
            if path + (position,) in inner:  # the entry's own table, before its field
                check(*inner[path + (position,)])
            if field == "t":
                _atom(row, position)
            elif read:
                parse(row[field])
            else:
                row[field]  # KeyError names a missing field
        _table(doc, path, positions, key, entry)

    for spec in tables:
        if len(spec[0]) == 2:
            check(*spec)
    if _at(doc, ("measures", "eps")) != []:  # eps vanishes identically on a generated system
        raise _Malformed("measures.eps: not [], the system's eps is 0 at every vertex")
    nd = _at(doc, ("certificates", "nd"))
    if not isinstance(nd, dict):
        raise _Malformed("certificates.nd: not an object")
    stored_nd = {}
    for m in map(str, range(1, request.n + 2)):
        if m not in nd:
            continue  # verify fails it as a missing certificate
        verdict = _at(doc, ("certificates", "nd", m, "verdict"))
        if verdict not in ("convergent", "divergent"):
            raise _Malformed(f"certificates.nd.{m}.verdict: {verdict!r} is not a verdict")
        fields = ((("enclosure", interval_from_json),) if verdict == "convergent" else
                  (("witness_partial_lb", rat_from_str), ("threshold", rat_from_str),
                   ("witness_index", _index)))
        for key, parse in fields:
            try:
                parse(_at(doc, ("certificates", "nd", m, key)))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise _Malformed(f"certificates.nd.{m}.{key}: {exc}") from None
        stored_nd[int(m)] = nd[m]
    if _artifact_window(request) != stored:
        raise _Malformed(f"request.window: gives {_artifact_window(request)}, not {stored}")
    lemmas = identity_lemmas(kappa, stored)
    return _at(doc, ("omega",)), stored_nd, lemmas, _stored_leaves(doc, lemmas, kappa)


def _distance(read, stored, written) -> Fraction:
    """The larger endpoint distance from a stored table value, read by
    `read`, to the written one: 0 only for the written value in another
    form."""
    value = read(stored)
    if isinstance(written, list):
        return max(abs(Fraction(s) - Fraction(w)) for s, w in zip(value, written))
    return abs(value - Fraction(written))


def _table_misses(doc: dict, rule: CounterexampleArtifact) -> Dict[str, list]:
    """(vertex, `_distance`, detail) of each stored table number other than
    the one `_artifact_doc` writes for `rule`, by record, branches by (i, j)
    and then the trunk by level.  Only these are read, and one that does
    not read raises its reader's error."""
    misses = {name: [] for name in (
        "normalization-constant", "weight-reconstruction", "atom-reconstruction")}
    c = list(render_interval(rule.c))
    if not _same(doc["c"], c):
        misses["normalization-constant"].append((ZERO, _distance(table_interval, doc["c"], c), ""))
    for path, _, positions, field, read, value, record, vertex, detail in _window_tables(
            rule.request.kappa, rule.window):
        for entry, position in zip(_at(doc, path), positions):
            stored, written = entry[field], value(rule, position)
            if not _same(stored, written):
                misses[record].append((vertex(position), _distance(read, stored, written),
                                       detail.format(position)))
    for rows in misses.values():
        rows.sort(key=lambda row: (1, row[0].k) if isinstance(row[0], Trunk)
                  else (0, row[0].i, row[0].j))
    return misses


def _show(value) -> str:
    """A certificate value for a detail: a residual as `approx_residual`."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_show(v)}" for k, v in value.items()) + "}"
    return approx_residual(value) if isinstance(value, Fraction) else str(value)


def _nd_checks(stored: Dict[int, dict], alpha: AlphaFamily, n: int, cfg: CertConfig):
    """(name, passed, residual, detail) of each power-domain certificate
    nd[m], m = 1..n+1: the stored certificate must equal the recomputed one
    field for field, each field compared as canonical JSON text, so a value
    of another type or form (16.0 for 16) differs.  The residual of a
    convergent nd[m] is the gap between the stored and recomputed
    enclosures."""
    out = []
    for m in range(1, n + 2):
        cert = power_series_certificate(alpha, m, cfg)
        if m not in stored:
            out.append((f"nd[{m}]", False, None, "certificate missing"))
            continue
        differ = _json_differ(stored[m], cert.to_json())
        K, T = cert.witness_index, cfg.divergence_threshold
        if differ:
            detail = f"stored {', '.join(differ)} differ from the recomputed certificate"
            if not cert.is_convergent:
                detail += f", recomputed K={K} at threshold {T}"
        elif cert.is_convergent:
            detail = (f"stored enclosure against the recomputed one, stored width "
                      f"{approx_residual(cert.width)}, series_width {cfg.series_width}")
        else:
            detail = f"witness partial sum at K={K} recomputed, exceeds {T}"
        residual = None
        if cert.is_convergent and stored[m]["verdict"] == "convergent":
            residual = interval_from_json(stored[m]["enclosure"]).gap_to(cert.enclosure)
        out.append((f"nd[{m}]", not differ, residual, detail))
    return out


def _json_differ(obj: dict, expected: dict) -> List[str]:
    """The keys of either JSON object whose values differ as canonical JSON
    text, sorted: a value of another type or form (16.0 for 16) differs."""
    fields, want = ({key: json.dumps(value, sort_keys=True) for key, value in o.items()}
                    for o in (obj, expected))
    return sorted(key for key in fields.keys() | want.keys() if fields.get(key) != want.get(key))


def verify(doc: Union[dict, CounterexampleArtifact]) -> VerificationReport:
    """Check that an artifact document states the rules of its request, on
    the whole window it stores, and re-run every certificate check on those
    rules.

    A request that states other fixed constants than the library's, a key
    of `cert` the library does not state, or numbers (q.prefix,
    series_width, divergence_threshold) not in the form `rat_to_str` writes
    fails a single `parse-request` record.  Before any series work, a
    document with another schema, a non-empty eps, a missing field, tables
    not of the shape of its window (lengths and position keys), a window
    not the one its request gives, or an `alpha` other than the rule's
    fails a single `parse-artifact` record naming the JSON path.  Only
    these shape fields, the branch atoms (each must be > 0) and the fields
    each nd[m] needs for its verdict are always read.  Any other value is
    compared, as canonical JSON text, with the one `generate` writes for
    the rule, and read only where it differs: a number not in the form
    `rat_to_str` writes (or over `MAX_RATIONAL_BITS`; a table endpoint may
    also be rendered, see `table_text`), or a certificate field of another
    type, then fails a single `parse-artifact` record naming its path.  The
    stored `omega` must be the request's, as canonical JSON text, or
    verification stops at a failing `omega-reconstruction` record: `omega`
    and `alpha` are compared, never read.  A document whose series no
    certificate covers (a bounded q, or a series_width or
    divergence_threshold out of reach) fails a single `series-certificate`
    record, one whose rule writes a table number past the exponent range
    (`rationals.render`) a single `table-range` record, and a rule whose
    values leave a monomial other than one in an identity record a single
    record of that name, at its class, with the leftover as detail.  Where
    verification stops before the tables are compared, the document's
    values are read in document order first, so a value that does not
    read fails `parse-artifact` if it comes before the fault that stopped
    it: every record is the one a reader of every value gives.

    Otherwise the checks are: every stored table number against the text
    written for the rules that `build_rules` makes from the request alone
    (`_window_tables`; a failing row names its vertex, with the larger
    endpoint distance as residual), and then the records of
    `identity_lemmas`, decided on the rule artifact as `generate` decides
    them: consistency, trunk product, mixture mass and CC records, each
    passing when its exact residual is 0 and each leaf it stores equals the
    recomputed one (no record reads check_tol); last the power-domain
    certificates (each stored nd[m] must equal the recomputed certificate
    field for field, see `_nd_checks`), and positivity of all stored
    weights.  The stored identity certificates are compared only when every
    power-domain certificate passes, since they were computed from those
    series.  Every series certificate is recomputed within the call on the
    family the rule builds, so nothing `generate` computed is read.  A
    top-level key the reader does not know is ignored.
    """
    try:
        return _verify(doc)
    except IdentityLeftoverError as exc:
        return VerificationReport(False, (CheckRecord(
            exc.record, False, vertex=str(exc.vertex), detail=exc.detail),))
    except (NoCertificateError, SupNotWitnessedError) as exc:
        return VerificationReport(
            False, (CheckRecord("series-certificate", False, detail=str(exc)),)
        )
    except TableRangeError as exc:
        return VerificationReport(False, (CheckRecord("table-range", False, detail=str(exc)),))


def _verify(doc: Union[dict, CounterexampleArtifact]):
    if isinstance(doc, CounterexampleArtifact):
        doc = doc.to_json_dict()
    records = []

    def rec(name, passed, vertex=None, residual=None, detail=""):
        if isinstance(residual, Fraction):
            residual = approx_residual(residual)
        records.append(
            CheckRecord(
                name,
                bool(passed),
                vertex=None if vertex is None else str(vertex),
                residual=None if residual is None else str(residual),
                detail=detail,
            )
        )

    def table_records(name, misses, **passed):
        """A FAIL record per (vertex, residual, detail) miss, or one PASS."""
        for vertex, residual, detail in misses:
            rec(name, False, vertex=vertex, residual=residual, detail=detail)
        if not misses:
            rec(name, True, **passed)

    try:
        request = CounterexampleRequest.from_json(doc["request"])
    except Exception as exc:  # structural failure: nothing else can run
        return VerificationReport(
            False, (CheckRecord("parse-request", False, detail=str(exc)),)
        )
    cfg = request.cert

    # No table value is read until the tables are compared: a document that
    # stops before that may hold one that does not read, and then fails at
    # its first fault in document order, where a full read meets it.
    def unread(exc=None):
        """The parse-artifact report of that fault (`_parse_artifact`,
        every value read); without one, `exc` raised, or None."""
        try:
            _parse_artifact(doc, request, read=True)
        except Exception as fault:
            return VerificationReport(
                False, (CheckRecord("parse-artifact", False, detail=str(fault)),)
            )
        if exc is not None:
            raise exc

    try:
        stored_omega, stored_nd, identities, leaves = _parse_artifact(doc, request, read=False)
        # the stored omega must be the request's, each key as canonical JSON text
        omega = choose_subsequence(request.q, cfg).to_json()
    except Exception as exc:
        return unread(exc)
    if not isinstance(stored_omega, dict):
        omega_ok, detail = False, "omega: not an object"
    else:
        differ = _json_differ(stored_omega, omega)
        omega_ok, detail = not differ, (f"omega.{differ[0][:40]}: not the request's omega {omega}"
                                        if differ else "greedy subsequence matches stored spec")
    rec("omega-reconstruction", omega_ok, detail=detail)
    if not omega_ok:  # a document of another rule: nothing below would compare
        return unread() or VerificationReport(False, tuple(records))

    # every stored number must be the one the rules write
    try:
        rule = build_rules(request)
        misses = _table_misses(doc, rule)
    except Exception as exc:
        return unread(exc)
    for name, rows in misses.items():
        table_records(name, rows, residual=0 if name == "normalization-constant" else None)

    lemmas = decide_lemmas(identities, rule, cfg)
    nd_checks = _nd_checks(stored_nd, rule.alpha, request.n, cfg)
    # stored identity certificates were computed from the stored series
    # certificates: when one of those fails its nd record, the document
    # fails there, and its identity certificates are not compared
    compare = all(ok for _, ok, _, _ in nd_checks)
    for lemma, stated in zip(lemmas, identities):
        detail = "; ".join(
            f"stored {path[-1] + ' ' if isinstance(path[-1], str) else ''}"
            f"{_show(leaves[path])}, recomputed {_show(value)}"
            for path, value in lemma.leaves if compare and leaves[path] != value)
        # a record holds when its leaves are the values it states; the
        # classes' residuals are exact 0 (decide_lemmas raises otherwise)
        holds, residual = lemma.leaves == stated.leaves, Fraction(0) if lemma.classes else None
        rec(lemma.name, holds and not detail, vertex=lemma.vertex, residual=residual,
            detail=detail or lemma.note)

    for name, ok, residual, detail in nd_checks:
        rec(name, ok, residual=residual, detail=detail)

    # positivity of every stored weight, each now a text the rule writes or
    # one that reads (`table_text`): positive unless it is "0" or starts with "-"
    def positive(entry):
        w2 = entry["w2"]
        return not (w2[0] if isinstance(w2, list) else w2).startswith(("-", "0"))

    weights = doc["weights"]
    misses = [(Branch(i, 1), None, "") for i, (first, tail)
              in enumerate(zip(weights["branch_first"], weights["branch_tail"]), 1)
              if not (positive(first) and positive(tail))]
    misses += [(Trunk(l), None, "") for l, w in enumerate(weights["trunk"]) if not positive(w)]
    table_records("weights-positive", misses)

    return VerificationReport(all(r.passed for r in records), tuple(records), lemmas)
