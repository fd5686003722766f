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
    Rendered,
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


def _artifact_doc(a: CounterexampleArtifact) -> dict:
    W = a.window.max_branch
    doc = {
        "schema": SCHEMA,
        "request": a.request.to_json(),
        "window": asdict(a.window),
        "omega": a.omega.to_json(),
        "alpha": a.alpha.to_json(),
        "c": list(render_interval(a.c)),
        "weights": {
            "branch_first": [
                {"i": i, "w2": list(a.weights.branch_first_squared(i))}
                for i in range(1, W + 1)
            ],
            "branch_tail": [
                {"i": i, "w2": rat_to_str(a.weights.branch_tail_squared(i))}
                for i in range(1, W + 1)
            ],
            "trunk": [
                {"l": l, "w2": list(render_interval(w))} for l, w in enumerate(a.weights.trunk)
            ],
        },
        "measures": {
            "branch_atoms": [
                {"i": i, "t": rat_to_str(a.measures.q.value(i))} for i in range(1, W + 1)
            ],
            "mixtures": [
                {
                    "shift": mix.shift,
                    "prefactor": list(render_interval(mix.prefactor)),
                    "atoms": [
                        {"i": i, "mass": list(mix.atom_mass(i))}
                        for i in range(1, W + 1)
                    ],
                }
                for mix in a.measures.mixtures
            ],
            "eps": [],
        },
        "certificates": {
            "nd": {str(m): cert.to_json() for m, cert in a.certificates["nd"].items()},
            **_lemmas_json(a.lemmas),
        },
    }
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


def _at(node, path: str, prefix: str = ""):
    """The value at the dotted JSON path `path` below `node`, itself at `prefix`."""
    keys = path.split(".")
    for depth, key in enumerate(keys):
        if not isinstance(node, dict):
            raise _Malformed(f"{(prefix + '.'.join(keys[:depth])).rstrip('.')}: not an object")
        if key not in node:
            raise _Malformed(f"{prefix}{path}: missing")
        node = node[key]
    return node


def _table(node, path: str, count: int, pos_key: str, parse, prefix: str = "", start=None):
    """Parse the table at `path` below `node`: exactly `count` entries, the
    `pos_key` field of entry p equal to start + p (start defaults to 1 for a
    branch index `i` and to 0 for a trunk level), each entry read by
    parse(entry, its JSON path)."""
    start = (1 if pos_key == "i" else 0) if start is None else start
    rows = _at(node, path, prefix)
    path = prefix + path
    if not isinstance(rows, list) or len(rows) != count:
        size = len(rows) if isinstance(rows, list) else "no"
        raise _Malformed(f"{path}: {size} entries, the window needs {count}")
    out = []
    for p, row in enumerate(rows):
        where = f"{path}[{p}]"
        try:
            if _index(row[pos_key]) != start + p:
                raise ValueError(f"{pos_key} = {row[pos_key]!r}, expected {start + p}")
            out.append(parse(row, where))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise _Malformed(f"{where}: {type(exc).__name__}: {exc}") from None
    return tuple(out)


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


def _read(node, path: str, parse):
    """parse(the value at `path`); _Malformed names the path of a missing
    or mistyped value."""
    value = _at(node, path)
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise _Malformed(f"{path}: {exc}") from None


def _stored_leaves(doc: dict, lemmas: Tuple[Lemma, ...], kappa) -> Dict[LeafPath, object]:
    """The leaf of each record of `lemmas` a document stores, read as the
    type of the value the record states; every leaf must be there, and a
    residual table must hold exactly the entries the records give it."""
    leaves = {}
    for table, key in _TABLE_KEYS.items():
        positions = [path[1] for lemma in lemmas for path, _ in lemma.leaves if path[0] == table]
        residuals = _table(doc, f"certificates.{table}", len(positions), key,
                           lambda e, _: rat_from_str(e["residual"]),
                           start=positions[0] if positions else 0)
        leaves.update(((table, p), r) for p, r in zip(positions, residuals))

    def read(path, like):
        if isinstance(like, dict):
            return {key: read(path + (key,), value) for key, value in like.items()}
        parse = (_flag if isinstance(like, bool) else _index if isinstance(like, int)
                 else rat_from_str)
        return _read(doc, ".".join(("certificates",) + path), parse)

    for lemma in lemmas:
        leaves.update((path, read(path, like)) for path, like in lemma.leaves if path not in leaves)
    if ("widly1_prime",) not in leaves and "widly1_prime" in _at(doc, "certificates"):
        raise _Malformed(f"certificates.widly1_prime: kappa = {kappa} has no terminal level "
                         "in the window")
    return leaves


class _Stored(NamedTuple):
    """The numbers a document stores: each branch table at i - 1, each
    trunk table at its level."""

    window: Window
    omega: object  # as the document states it, any JSON value
    c: Rendered
    first: Tuple[Rendered, ...]  # |lambda_{i,1}|^2
    tail: Tuple[Fraction, ...]  # |lambda_{i,j}|^2, j >= 2
    trunk: Tuple[Rendered, ...]
    locations: Tuple[Fraction, ...]  # the atom of branch i
    mixtures: Tuple[Tuple[Rendered, Tuple[Rendered, ...]], ...]  # (prefactor, masses)
    nd: Dict[int, dict]  # each stored nd[m] certificate, as its JSON object
    lemmas: Tuple[Lemma, ...]  # the identity records of the window (`identity_lemmas`)
    leaves: Dict[LeafPath, object]  # their certificates as stored (`_stored_leaves`)


def _parse_artifact(doc: dict, request: CounterexampleRequest) -> _Stored:
    """The numbers a document stores.  Every table must have the length the
    stored window gives it, so no later check reads past a table or runs
    longer than the tables; a shape error raises _Malformed naming its JSON
    path.  `nd` holds each stored nd[m] (m = 1..n+1) as the JSON object it
    is, once its verdict and the fields that verdict needs have parsed."""
    kappa = request.kappa
    if doc.get("schema") != SCHEMA:
        raise _Malformed(f"schema: {doc.get('schema')!r}, expected {SCHEMA!r}")
    try:
        stored = _window(_at(doc, "window"))
    except (TypeError, ValueError) as exc:
        raise _Malformed(f"window: {exc}") from None
    W = stored.max_branch
    # alpha is the rule's, power n and scale 1 (`build_rules`), each key as
    # canonical JSON text, so 1.0 for 1 differs
    alpha = _at(doc, "alpha")
    if not isinstance(alpha, dict):
        raise _Malformed("alpha: not an object")
    rule = {"power": request.n, "scale": "1"}
    differ = _json_differ(alpha, rule)
    if differ:
        raise _Malformed(f"alpha.{differ[0][:40]}: not the request's alpha {rule}")
    c = _read(doc, "c", table_interval)

    def interval(e, _):
        return table_interval(e["w2"])

    first = _table(doc, "weights.branch_first", W, "i", interval)
    tail = _table(doc, "weights.branch_tail", W, "i", lambda e, _: rat_from_str(e["w2"]))
    trunk = _table(doc, "weights.trunk", _trunk_levels(kappa, stored), "l", interval)

    def atom(e, where):
        t = rat_from_str(e["t"])
        if t <= 0:
            raise _Malformed(f"{where}.t: atom at {t}, branch atoms must be > 0")
        return t

    locations = _table(doc, "measures.branch_atoms", W, "i", atom)

    def mixture(m, where):
        masses = _table(m, "atoms", W, "i", lambda e, _: table_interval(e["mass"]), where + ".")
        return table_interval(m["prefactor"]), masses

    mixtures = _table(doc, "measures.mixtures", _mixture_levels(kappa, stored), "shift", mixture)
    if _at(doc, "measures.eps") != []:  # eps vanishes identically on a generated system
        raise _Malformed("measures.eps: not [], the system's eps is 0 at every vertex")
    nd = _at(doc, "certificates.nd")
    if not isinstance(nd, dict):
        raise _Malformed("certificates.nd: not an object")
    stored_nd = {}
    for m in map(str, range(1, request.n + 2)):
        if m not in nd:
            continue  # verify fails it as a missing certificate
        verdict = _at(nd, f"{m}.verdict", "certificates.nd.")
        if verdict not in ("convergent", "divergent"):
            raise _Malformed(f"certificates.nd.{m}.verdict: {verdict!r} is not a verdict")
        fields = ((("enclosure", interval_from_json),) if verdict == "convergent" else
                  (("witness_partial_lb", rat_from_str), ("threshold", rat_from_str),
                   ("witness_index", _index)))
        for key, parse in fields:
            try:
                parse(_at(nd, f"{m}.{key}", "certificates.nd."))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise _Malformed(f"certificates.nd.{m}.{key}: {exc}") from None
        stored_nd[int(m)] = nd[m]
    if _artifact_window(request) != stored:
        raise _Malformed(f"request.window: gives {_artifact_window(request)}, not {stored}")
    lemmas = identity_lemmas(kappa, stored)
    return _Stored(stored, _at(doc, "omega"), c, first, tail, trunk, locations, mixtures,
                   stored_nd, lemmas, _stored_leaves(doc, lemmas, kappa))


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


def _mismatches(rows):
    """(vertex, distance, detail) for each (vertex, stored, expected, detail)
    row whose stored value is not the expected one: an exact rational, or
    the texts of a rendered enclosure, which must be the rule's rendering.
    The distance is the larger endpoint distance, 0 only for a stored
    enclosure that states the rule's values in another form."""
    for vertex, stored, expected, detail in rows:
        if stored != expected:
            if isinstance(expected, tuple):
                ends = zip(map(Fraction, stored), map(Fraction, expected))
                yield vertex, max(abs(s - e) for s, e in ends), detail
            else:
                yield vertex, abs(stored - expected), detail


def verify(doc: Union[dict, CounterexampleArtifact]) -> VerificationReport:
    """Check that an artifact document states the rules of its request, on
    the whole window it stores, and re-run every certificate check on those
    rules.

    A request that states other fixed constants than the library's, a key
    of `cert` the library does not state, or numbers (q.prefix,
    series_width, divergence_threshold) not in the form `rat_to_str` writes
    fails a single `parse-request` record.  A document with another schema,
    a non-empty eps, a number not in the form `rat_to_str` writes (or over
    `MAX_RATIONAL_BITS`; a table enclosure's endpoint may also be rendered,
    see `table_text`), a missing or mistyped certificate field, tables not
    of the shape of its window, a window not the one its request gives, or
    an `alpha` other than the rule's (each key compared as canonical JSON
    text) fails a single `parse-artifact` record naming the JSON path.  The
    stored `omega` must be the request's, as canonical JSON text, or
    verification stops at a failing `omega-reconstruction` record: `omega`
    and `alpha` are compared, never read.  A document whose series no
    certificate covers (a bounded q, or a series_width or
    divergence_threshold out of reach) fails a single `series-certificate`
    record, one whose rule writes a table number past the exponent range
    (`rationals.render`) a single `table-range` record, and a rule whose
    values leave a monomial other than one in an identity record a single
    record of that name, at its class, with the leftover as detail.

    Otherwise the checks are: every stored number against the value
    written by the rules that `build_rules` makes from the request alone
    (an exact number must equal it, a table enclosure's texts must be its
    `render_interval`; a failing row names its vertex, with the larger
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
        misses = list(misses)
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

    try:
        stored = _parse_artifact(doc, request)
    except Exception as exc:
        return VerificationReport(
            False, (CheckRecord("parse-artifact", False, detail=str(exc)),)
        )

    # the stored omega must be the request's, each key as canonical JSON text
    omega = choose_subsequence(request.q, cfg).to_json()
    if not isinstance(stored.omega, dict):
        omega_ok, detail = False, "omega: not an object"
    else:
        differ = _json_differ(stored.omega, omega)
        omega_ok, detail = not differ, (f"omega.{differ[0][:40]}: not the request's omega {omega}"
                                        if differ else "greedy subsequence matches stored spec")
    rec("omega-reconstruction", omega_ok, detail=detail)
    if not omega_ok:  # a document of another rule: nothing below would compare
        return VerificationReport(False, tuple(records))

    # every stored number must be the one the rules write
    rule = build_rules(request)
    weights, alpha = rule.weights, rule.alpha
    table_records("normalization-constant",
                  _mismatches([(ZERO, stored.c, render_interval(rule.c), "")]), residual=0)
    rows = []
    for i, (first, tail) in enumerate(zip(stored.first, stored.tail), 1):
        rows.append((Branch(i, 1), first, weights.branch_first_squared(i), ""))
        rows.append((Branch(i, 2), tail, weights.branch_tail_squared(i),
                     "chain weight differs from rule"))
    rows += [(Trunk(l), w, render_interval(weights.trunk[l]), "")
             for l, w in enumerate(stored.trunk)]
    table_records("weight-reconstruction", _mismatches(rows))

    rows = [(Branch(i, 1), t, alpha.q.value(i), "branch atom location differs from q")
            for i, t in enumerate(stored.locations, 1)]
    for l, ((prefactor, masses), mix) in enumerate(zip(stored.mixtures, rule.measures.mixtures)):
        rows.append((Trunk(l), prefactor, render_interval(mix.prefactor),
                     "mixture prefactor off rule"))
        rows += [(Trunk(l), mass, mix.atom_mass(i), f"mixture atom i={i} off rule")
                 for i, mass in enumerate(masses, 1)]
    table_records("atom-reconstruction", _mismatches(rows))

    lemmas = decide_lemmas(stored.lemmas, rule, cfg)
    nd_checks = _nd_checks(stored.nd, alpha, request.n, cfg)
    # stored identity certificates were computed from the stored series
    # certificates: when one of those fails its nd record, the document
    # fails there, and its identity certificates are not compared
    compare = all(ok for _, ok, _, _ in nd_checks)
    for lemma, stated in zip(lemmas, stored.lemmas):
        detail = "; ".join(
            f"stored {path[-1] + ' ' if isinstance(path[-1], str) else ''}"
            f"{_show(stored.leaves[path])}, recomputed {_show(value)}"
            for path, value in lemma.leaves if compare and stored.leaves[path] != value)
        # a record holds when its leaves are the values it states; the
        # classes' residuals are exact 0 (decide_lemmas raises otherwise)
        holds, residual = lemma.leaves == stated.leaves, Fraction(0) if lemma.classes else None
        rec(lemma.name, holds and not detail, vertex=lemma.vertex, residual=residual,
            detail=detail or lemma.note)

    for name, ok, residual, detail in nd_checks:
        rec(name, ok, residual=residual, detail=detail)

    # positivity of every stored weight; a table text (`table_text`) is
    # positive unless it is "0" or starts with "-"
    misses = [(Branch(i, 1), None, "")
              for i, (first, tail) in enumerate(zip(stored.first, stored.tail), 1)
              if first[0].startswith(("-", "0")) or tail <= 0]
    misses += [(Trunk(l), None, "") for l, w in enumerate(stored.trunk)
               if w[0].startswith(("-", "0"))]
    table_records("weights-positive", misses)

    return VerificationReport(all(r.passed for r in records), tuple(records), lemmas)
