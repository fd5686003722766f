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
window; `verify` rebuilds the rules from a document's request and alpha,
requires every stored number to equal the rule's, and certifies the rules.
"""

import json
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import partial, reduce
from operator import getitem
from typing import Dict, NamedTuple, Optional, Tuple, Union

from .errors import IdentityLeftoverError, NoCertificateError, SupNotWitnessedError
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

# the fixed constants as a document must state them under `request.cert`
_FIXED_CERT_JSON = {
    "check_tol": rat_to_str(CertConfig.check_tol),
    "max_terms": CertConfig.max_terms,
    "off_omega_terms": CertConfig.off_omega_terms,
    "scan_horizon": CertConfig.scan_horizon,
    "dyadic_bits": CertConfig.dyadic_bits,
    "max_power": CertConfig.max_power,
}


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
        """The request a document states; ValueError names a missing or mistyped key."""

        def read(path, parse=lambda value: value):
            try:
                return parse(reduce(getitem, path.split("."), obj))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None

        for key, value in _FIXED_CERT_JSON.items():
            stated = read(f"cert.{key}")
            if stated != value:
                raise ValueError(f"cert.{key}: {stated!r}, the library fixes {value!r}")
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
    """Strictly increasing i_k with q_{i_k} >= k, greedily smallest."""
    return build_omega(q, cfg)


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
    c = outward(normalization_rule().enclosure(alpha, cfg))
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
    return tuple(outward(trunk_rule(l).enclosure(alpha, cfg)) for l in range(levels))


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

    def class_identity(self, k: int) -> Monomial:
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
    mixtures = tuple(MixtureMeasure(alpha, l, outward(prefactor_rule(l).enclosure(alpha, cfg)))
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
    certificates: dict = field(default_factory=dict)

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


def build_rules(
    request: CounterexampleRequest, alpha: Optional[AlphaFamily] = None
) -> CounterexampleArtifact:
    """The uncertified artifact of a request: omega, alpha, c, the trunk
    weights and the measure system on the request's window, with no
    certificates.  `alpha` defaults to the family of the greedy subsequence;
    `verify` passes the one a document states."""
    cfg, kappa = request.cert, request.kappa
    window = _artifact_window(request)
    if alpha is None:
        omega = choose_subsequence(request.q, cfg)
        alpha = AlphaFamily(q=request.q, omega=omega, power=request.n)
    c, _ = normalize(alpha, cfg)
    trunk = trunk_weights(alpha, kappa, _trunk_levels(kappa, window), cfg)
    return CounterexampleArtifact(
        request=request,
        tree=ModelTree(eta=INF, kappa=kappa),
        window=window,
        omega=alpha.omega,
        alpha=alpha,
        c=c,
        weights=ModelWeights(alpha=alpha, c=c, kappa=kappa, trunk=trunk),
        measures=build_measure_system(alpha, kappa, _mixture_levels(kappa, window), cfg),
    )


def generate(request: CounterexampleRequest) -> CounterexampleArtifact:
    """Run the full pipeline and certify every promised identity."""
    artifact = build_rules(request)
    artifact.certificates = _certify(artifact, request.cert)
    return artifact


def _certify(artifact: CounterexampleArtifact, cfg: CertConfig) -> dict:
    """All certificates attached to a generated artifact."""
    nd = {m: power_series_certificate(artifact.alpha, m, cfg) for m in range(1, artifact.n + 2)}
    return {"nd": nd, **_identity_certificates(identity_residuals(artifact, cfg))}


def _identity_certificates(res: "IdentityResiduals") -> dict:
    """The certificates of an artifact's identities, as `generate` stores
    them and `verify` compares them.  `vertices_checked` counts the classes
    of the rule whose consistency identity is evaluated: one per trunk level
    and one for every branch vertex, so it depends on neither `max_branch`
    nor `max_depth`."""
    certs = {
        "zgod_prime_residual": res.zgod_prime,
        "widly1": res.widly1,
        "mass_residuals": res.mass,
        "consist6": {"max_residual": res.consist6_max, "vertices_checked": len(res.consist6)},
        "cc": {
            "max_residual": res.cc.max_residual,
            "algebra_bound": res.cc.algebra_bound,
            "h_positive_on_support": res.cc.h_positive_on_support,
        },
    }
    if res.widly1_prime is not None:
        l, r = res.widly1_prime
        certs["widly1_prime"] = {"l": l, "residual": r, "holds_leq_1": r == 0}
    return certs


@dataclass(frozen=True)
class IdentityResiduals:
    """Residuals of the identities an artifact promises: `generate`
    serialises them into its certificates, `verify` turns them into records.
    Each is an identity of the rule's monomials, decided exactly, so each
    residual is 0 (see `identity_residuals`)."""

    zgod_prime: Fraction  # c M_0 = 1
    widly1: Dict[int, Fraction]  # trunk product identity at level l
    widly1_prime: Optional[Tuple[int, Fraction]]  # (kappa, residual) on a finite trunk
    mass: Dict[int, Fraction]  # P_l M_-l = 1: the mixture at trunk level l has mass 1
    consist6: Dict[Vertex, ConsistencyResult]  # keyed Trunk(k), and BRANCH_CLASS for every branch
    cc: wco.CCReport  # the same classes

    @property
    def consist6_max(self) -> Fraction:
        return max((r.residual_upper for r in self.consist6.values()), default=Fraction(0))


def identity_residuals(artifact: CounterexampleArtifact, cfg: CertConfig) -> IdentityResiduals:
    """Normalization, trunk product, mixture mass, consistency and CC
    residuals of the rules `build_rules` makes, on the artifact's levels.

    Each record is a product of the rule's monomials that must be one
    (`wco.exact_residual`): c M_0 (zgod-prime), (w_0 ... w_{l-1}) c M_-l
    (widly1[l], and widly1-prime at l = kappa), P_l M_-l (mass[l]), and
    P_k / F_k for the consistency and CC classes of the trunk (see
    `consist6_residuals`).  So each residual is exactly 0, whatever the
    widths of the enclosures; no branch is evaluated, and neither
    `max_branch` nor `max_depth` is read.  The one numeric check left is
    h > 0 on the support (`wco.cc_residual`).
    """
    kappa = artifact.request.kappa
    zgod_prime = wco.exact_residual("zgod-prime", ZERO, normalization_rule() * M(0))
    widly1, product = {}, normalization_rule()
    for l in range(1, len(artifact.weights.trunk) + 1):
        product = product * trunk_rule(l - 1)
        name = "widly1-prime" if l == kappa else f"widly1[l={l}]"
        widly1[l] = wco.exact_residual(name, Trunk(l - 1), product * M(-l))
    # the terminal inequality at l = kappa, held as an equality
    widly1_prime = (kappa, widly1.pop(kappa)) if kappa in widly1 else None
    mass = {l: wco.exact_residual(f"mass[mu_-{l}]", Trunk(l), prefactor_rule(l) * M(-l))
            for l in range(len(artifact.measures.mixtures))}
    consist6 = consist6_residuals(artifact, cfg)
    data = wco.from_shift(artifact.tree, artifact.weights)
    cc = wco.cc_residual(data, artifact.measures, artifact.window, cfg)
    return IdentityResiduals(zgod_prime, widly1, widly1_prime, mass, consist6, cc)


def consist6_residuals(
    a: CounterexampleArtifact, cfg: CertConfig = DEFAULT_CONFIG
) -> Dict[Vertex, ConsistencyResult]:
    """Consistency residual of every class of an artifact's rule (see
    `wco.require_model_rules`), each the exact row `_EXACT_ROW`: one per
    trunk level k < len(mixtures) (k = 0: vertex 0) by the mixture rule
    (`MeasureSystem.class_identity`), and one for every branch vertex by the
    branch rule, keyed `wco.BRANCH_CLASS`: (i, j) and its one child carry
    the Dirac at q_i, and the child's weight is q_i, so the residual at q_i
    is |1 - q_i/q_i| = 0."""
    m = a.measures
    wco.require_model_rules(a.tree, a.weights, m)
    out = {}
    for k in reversed(range(len(m.mixtures))):
        wco.exact_residual("consist6", Trunk(k), m.class_identity(k))
        out[Trunk(k)] = _EXACT_ROW
    out[wco.BRANCH_CLASS] = _EXACT_ROW
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
        "certificates": _certs_json(a.certificates),
    }
    return doc


def _certs_json(certs: dict) -> dict:
    out = {
        "nd": {str(m): cert.to_json() for m, cert in certs["nd"].items()},
        "zgod_prime_residual": rat_to_str(certs["zgod_prime_residual"]),
        "widly1": [
            {"l": l, "residual": rat_to_str(r)} for l, r in sorted(certs["widly1"].items())
        ],
        "mass_residuals": [
            {"shift": l, "residual": rat_to_str(r)}
            for l, r in sorted(certs["mass_residuals"].items())
        ],
        "consist6": {
            "max_residual": rat_to_str(certs["consist6"]["max_residual"]),
            "vertices_checked": certs["consist6"]["vertices_checked"],
        },
        "cc": {
            "max_residual": rat_to_str(certs["cc"]["max_residual"]),
            "algebra_bound": rat_to_str(certs["cc"]["algebra_bound"]),
            "h_positive_on_support": certs["cc"]["h_positive_on_support"],
        },
    }
    if "widly1_prime" in certs:
        wp = certs["widly1_prime"]
        out["widly1_prime"] = {
            "l": wp["l"],
            "residual": rat_to_str(wp["residual"]),
            "holds_leq_1": wp["holds_leq_1"],
        }
    return out


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
    residuals: Optional[IdentityResiduals] = None  # None when the document did not parse

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


def _parse_identity_certificates(doc: dict, kappa, window: Window) -> dict:
    """The identity certificates a document stores, in the shape of
    `_identity_certificates`; every entry the window implies must be there."""
    residual = lambda e, _: rat_from_str(e["residual"])  # noqa: E731
    levels = _trunk_levels(kappa, window)
    prime = kappa is not INF and levels == kappa >= 1  # the last level is the terminal one
    certs = {
        "zgod_prime_residual": _read(doc, "certificates.zgod_prime_residual", rat_from_str),
        "widly1": dict(enumerate(_table(doc, "certificates.widly1", levels - prime, "l",
                                        residual, start=1), start=1)),
        "mass_residuals": dict(enumerate(_table(doc, "certificates.mass_residuals",
                                                _mixture_levels(kappa, window), "shift",
                                                residual))),
    }
    for key, fields in (("consist6", (("max_residual", rat_from_str),
                                      ("vertices_checked", _index))),
                        ("cc", (("max_residual", rat_from_str), ("algebra_bound", rat_from_str),
                                ("h_positive_on_support", _flag)))):
        certs[key] = {f: _read(doc, f"certificates.{key}.{f}", parse) for f, parse in fields}
    if prime:
        certs["widly1_prime"] = {
            f: _read(doc, f"certificates.widly1_prime.{f}", parse)
            for f, parse in (("l", _index), ("residual", rat_from_str), ("holds_leq_1", _flag))
        }
    elif "widly1_prime" in _at(doc, "certificates"):
        raise _Malformed(f"certificates.widly1_prime: kappa = {kappa} has no terminal level "
                         "in the window")
    return certs


class _Stored(NamedTuple):
    """The numbers a document stores: each branch table at i - 1, each
    trunk table at its level."""

    window: Window
    alpha: AlphaFamily
    c: Rendered
    first: Tuple[Rendered, ...]  # |lambda_{i,1}|^2
    tail: Tuple[Fraction, ...]  # |lambda_{i,j}|^2, j >= 2
    trunk: Tuple[Rendered, ...]
    locations: Tuple[Fraction, ...]  # the atom of branch i
    mixtures: Tuple[Tuple[Rendered, Tuple[Rendered, ...]], ...]  # (prefactor, masses)
    certificates: dict


def _parse_artifact(doc: dict, request: CounterexampleRequest) -> _Stored:
    """The numbers a document stores.  Every table must have the length the
    stored window gives it, so no later check reads past a table or runs
    longer than the tables; a shape error raises _Malformed naming its JSON
    path.  The certificates hold the identity certificates parsed and,
    under "nd", each stored nd[m] (m = 1..n+1) as the JSON object it is,
    once its verdict and the fields that verdict needs have parsed."""
    kappa = request.kappa
    if doc.get("schema") != SCHEMA:
        raise _Malformed(f"schema: {doc.get('schema')!r}, expected {SCHEMA!r}")
    try:
        stored = _window(_at(doc, "window"))
    except (TypeError, ValueError) as exc:
        raise _Malformed(f"window: {exc}") from None
    W = stored.max_branch
    power = _read(doc, "alpha.power", _index)
    if power != request.n:
        raise _Malformed(f"alpha.power: {power!r}, the request has n = {request.n}")
    alpha = AlphaFamily(
        q=request.q,
        omega=OmegaSpec.from_json(_at(doc, "omega")),
        power=request.n,
        scale=_read(doc, "alpha.scale", rat_from_str),
    )
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
    certificates = {"nd": stored_nd, **_parse_identity_certificates(doc, kappa, stored)}
    return _Stored(stored, alpha, c, first, tail, trunk, locations, mixtures, certificates)


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
        fields, expected = _json_fields(stored[m]), _json_fields(cert.to_json())
        differ = sorted(key for key in fields.keys() | expected.keys()
                        if fields.get(key) != expected.get(key))
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


def _json_fields(obj: dict) -> Dict[str, str]:
    """Each field of a JSON object as canonical JSON text."""
    return {key: json.dumps(value, sort_keys=True) for key, value in obj.items()}


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
    """Check that an artifact document states the rules of its request and
    alpha, on the whole window it stores, and re-run every certificate check
    on those rules.

    A request that states other fixed constants than the library's, or
    whose numbers (q.prefix, series_width, divergence_threshold) are not in
    the form `rat_to_str` writes, fails a single `parse-request` record.  A
    document with another schema, a non-empty eps, a number not in the form
    `rat_to_str` writes (or over `MAX_RATIONAL_BITS`; a table enclosure's
    endpoint may also be rendered, see `table_text`), a missing or mistyped
    certificate field, tables not of the shape of its window, or a window
    not the one its request gives, fails a single `parse-artifact` record
    naming the JSON path, and one whose series no certificate covers (a
    bounded q, or a series_width or divergence_threshold out of reach) fails
    a single `series-certificate` record; a rule whose values leave a
    monomial other than one in an identity record fails a single record of
    that name, at its class, with the leftover as detail.  Otherwise the
    checks are: every stored number against the value written by the rules
    that `build_rules` makes from the request and the document's alpha (an
    exact number must equal it, a table enclosure's texts must be its
    `render_interval`; a failing row names its vertex, with the larger
    endpoint distance as residual), and then `identity_residuals` on the rule
    artifact, the call `generate` certifies with: consistency, trunk
    product, mixture mass and CC records, each passing when its exact
    residual is 0 and the stored certificate equals the recomputed one
    (no record reads check_tol); last the power-domain certificates (each
    stored nd[m] must equal the recomputed certificate field for field, see
    `_nd_checks`), and positivity of all stored weights.  The stored
    identity certificates are compared only when every power-domain
    certificate passes, since they were computed from those series.  Every
    series certificate is recomputed within the call: it is kept on the
    family the document's own alpha builds, so nothing `generate` computed
    is read.  A key the reader does not know is ignored: documents written
    when the format still had `tree` and the bounded-q scan summary verify
    with the same records.
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
    alpha = stored.alpha

    omega_ok = alpha.omega == choose_subsequence(request.q, cfg)
    rec("omega-reconstruction", omega_ok, detail="greedy subsequence matches stored spec")
    if not omega_ok:  # every rule below is built from the stored omega
        return VerificationReport(False, tuple(records))

    # every stored number must be the one the rules write
    rule = build_rules(request, alpha)
    weights = rule.weights
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

    res = identity_residuals(rule, cfg)
    recomputed = _identity_certificates(res)
    nd_checks = _nd_checks(stored.certificates["nd"], alpha, request.n, cfg)
    # stored identity certificates were computed from the stored series
    # certificates: when one of those fails its nd record, the document
    # fails there, and its identity certificates are not compared
    compare = all(ok for _, ok, _, _ in nd_checks)

    def stored_differs(*path) -> str:
        """"" when the stored certificate at `path` equals the recomputed
        one (or nothing is compared), else both values."""
        if not compare:
            return ""
        value, kept = reduce(getitem, path, recomputed), reduce(getitem, path, stored.certificates)
        name = f"{path[-1]} " if isinstance(path[-1], str) else ""
        return "" if kept == value else f"stored {name}{_show(kept)}, recomputed {_show(value)}"

    table_records("consist6", ((u, r.residual_upper, "") for u, r in res.consist6.items()
                               if r.residual_upper), residual=res.consist6_max)
    if detail := stored_differs("consist6"):
        rec("consist6", False, residual=res.consist6_max, detail=detail)

    detail = stored_differs("zgod_prime_residual")
    rec("zgod-prime", res.zgod_prime == 0 and not detail, residual=res.zgod_prime, detail=detail)
    for l, r in res.widly1.items():
        detail = stored_differs("widly1", l)
        rec(f"widly1[l={l}]", r == 0 and not detail, vertex=Trunk(l - 1), residual=r,
            detail=detail)
    if res.widly1_prime is not None:
        l, r = res.widly1_prime
        detail = stored_differs("widly1_prime")
        rec("widly1-prime", r == 0 and not detail, vertex=Trunk(l - 1), residual=r,
            detail=detail or "terminal trunk inequality held as equality")
    for l, r in res.mass.items():
        detail = stored_differs("mass_residuals", l)
        rec(f"mass[mu_-{l}]", r == 0 and not detail, vertex=Trunk(l), residual=r, detail=detail)
    detail = "; ".join(filter(None, map(partial(stored_differs, "cc"),
                                        ("max_residual", "algebra_bound"))))
    rec("cc", res.cc.algebra_bound == 0 and not detail, residual=res.cc.algebra_bound,
        detail=detail)
    detail = stored_differs("cc", "h_positive_on_support")
    rec("h-positive-on-support", res.cc.h_positive_on_support and not detail, detail=detail)

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

    return VerificationReport(all(r.passed for r in records), tuple(records), residuals=res)
