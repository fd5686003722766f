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
window; `verify` re-checks a document from its tables.
"""

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple, Union

from .errors import NoCertificateError
from .measures import (
    AtomicMeasure,
    ConsistencyResult,
    MixtureMeasure,
    check_consist6_at,
)
from .rationals import (
    Interval,
    coerce,
    interval_from_json,
    interval_to_json,
    rat_from_str,
    rat_to_decimal,
    rat_to_str,
)
from .series import (
    AlphaFamily,
    CertConfig,
    DEFAULT_CONFIG,
    OmegaSpec,
    SequenceSpec,
    build_omega,
    dyadic_floor,
    power_series_certificate,
    witness_partial_sum,
)
from .shift import ModelWeights
from .tree import (
    INF,
    Branch,
    ModelTree,
    Trunk,
    Vertex,
    Window,
    children,
    children_visible,
    tree_to_json,
    window_vertices,
)
from . import wco

SCHEMA = "treeshift-artifact/1"


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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n + 1 > self.cert.max_power:
            raise ValueError("n+1 exceeds the configured power cap")
        if self.kappa is not INF and (not isinstance(self.kappa, int) or self.kappa < 0):
            raise ValueError("kappa must be an integer >= 0 or INF")

    def to_json(self):
        return {
            "n": self.n,
            "kappa": "inf" if self.kappa is INF else self.kappa,
            "q": self.q.to_json(),
            "window": asdict(self.window),
            "cert": {
                "series_width": rat_to_str(self.cert.series_width),
                "check_tol": rat_to_str(self.cert.check_tol),
                "divergence_threshold": rat_to_str(self.cert.divergence_threshold),
                "max_terms": self.cert.max_terms,
                "off_omega_terms": self.cert.off_omega_terms,
                "scan_horizon": self.cert.scan_horizon,
                "dyadic_bits": self.cert.dyadic_bits,
                "max_power": self.cert.max_power,
            },
        }

    @staticmethod
    def from_json(obj) -> "CounterexampleRequest":
        cert = obj["cert"]
        return CounterexampleRequest(
            n=obj["n"],
            kappa=INF if obj["kappa"] == "inf" else obj["kappa"],
            q=SequenceSpec.from_json(obj["q"]),
            cert=CertConfig(
                series_width=Fraction(cert["series_width"]),
                check_tol=Fraction(cert["check_tol"]),
                divergence_threshold=Fraction(cert["divergence_threshold"]),
                max_terms=cert["max_terms"],
                off_omega_terms=cert["off_omega_terms"],
                scan_horizon=cert["scan_horizon"],
                dyadic_bits=cert["dyadic_bits"],
                max_power=cert["max_power"],
            ),
            window=Window(**obj["window"]),
        )


# --- pipeline operations ---


def boundedness_guard(q: SequenceSpec, cfg: CertConfig = DEFAULT_CONFIG) -> str:
    """The shift is bounded iff sup q_i < infinity; report which side the
    scan witnesses.  Informational: callers decide whether to proceed."""
    bound = q.sup_bound()
    if bound is not None:
        return f"bounded-looking: sup q_i <= {bound}"
    target = Fraction(1000)
    i = 0
    while True:
        i += 1
        if q.value(i) >= target:
            return f"unbounded: q_{i} = {q.value(i)} >= {target} witnessed"
        if i > cfg.scan_horizon:
            return "unbounded tail rule, no witness within scan horizon"


def choose_subsequence(q: SequenceSpec, cfg: CertConfig = DEFAULT_CONFIG) -> OmegaSpec:
    """Strictly increasing i_k with q_{i_k} >= k, greedily smallest."""
    return build_omega(q, cfg)


def omega_alphas(q: SequenceSpec, omega: OmegaSpec, n: int, upto_k: int) -> Dict[int, Fraction]:
    """alpha_{i_k} = 1/(k^2 q_{i_k}^n) for k <= upto_k."""
    fam = AlphaFamily(q, omega, n)
    return {omega.index(k): fam.on_omega_value(k) for k in range(1, upto_k + 1)}


def slon4_alphas(q: SequenceSpec, omega: OmegaSpec, n: int, upto_i: int) -> Dict[int, Fraction]:
    """Off-Omega alpha_i = 2^{-i} / sum_{k=1}^{i} q_i^{n+1-k} for i <= upto_i,
    making column k of the exponent matrix summable with a geometric tail."""
    fam = AlphaFamily(q, omega, n)
    return {
        i: fam.off_omega_value(i)
        for i in range(1, upto_i + 1)
        if not omega.contains(i)
    }


def normalize(alpha: AlphaFamily, cfg: CertConfig = DEFAULT_CONFIG):
    """c = 1 / sum_i alpha_i as an interval; the series converges because
    the exponent 0 is <= n."""
    cert = power_series_certificate(alpha, 0, cfg)
    if not cert.is_convergent:
        raise NoCertificateError("normalization series did not certify convergent")
    return cert.enclosure.recip(), cert


def trunk_weights(
    alpha: AlphaFamily, kappa, levels: int, cfg: CertConfig = DEFAULT_CONFIG
) -> Tuple[Interval, ...]:
    """|lambda_{-l}|^2 for l = 0..levels-1 as ratios of neighbouring
    negative-moment series; the normalization constant cancels, so these
    enclosures are exactly invariant under rescaling alpha.

    For finite kappa the recursion runs to l = kappa-1 and the last weight
    makes the terminal inequality an equality.
    """
    if kappa is not INF and levels > kappa:
        raise ValueError("more trunk weights requested than non-root trunk vertices")
    out = []
    for l in range(levels):
        num = power_series_certificate(alpha, -l, cfg).enclosure
        den = power_series_certificate(alpha, -l - 1, cfg).enclosure
        out.append(num / den)
    return tuple(out)


@lru_cache(maxsize=65536)
def _cached_dirac(t: Fraction) -> AtomicMeasure:
    return AtomicMeasure.dirac(t)


@dataclass(frozen=True)
class MeasureSystem:
    """Measures of a generated system: delta_{q_i} on every branch vertex,
    Dirac mixtures at vertex 0 and down the trunk, eps identically 0 (the
    trunk recursion keeps every mass exactly 1).  The optional table
    `locations` overrides q_i as the branch atom for i <= its length."""

    q: SequenceSpec
    mixtures: Tuple[MixtureMeasure, ...]  # index = trunk level (0 = vertex 0)
    locations: Tuple[Fraction, ...] = ()

    def measure_at(self, v: Vertex):
        if isinstance(v, Branch):
            if v.i <= len(self.locations):
                return _cached_dirac(self.locations[v.i - 1])
            return _cached_dirac(self.q.value(v.i))
        if isinstance(v, Trunk):
            if v.k < len(self.mixtures):
                return self.mixtures[v.k]
            raise NoCertificateError(f"no measure materialized for {v}")
        raise NoCertificateError(f"no measure for {v}")

    def eps_at(self, v: Vertex) -> Fraction:
        return Fraction(0)


def build_measure_system(
    alpha: AlphaFamily, kappa, levels: int, cfg: CertConfig = DEFAULT_CONFIG
) -> MeasureSystem:
    """Mixtures mu_{-l} = sum_i prefactor_l * alpha_i q_i^{-l} delta_{q_i}
    for l = 0..levels-1, derived down the single-child trunk chain; each
    prefactor encloses the reciprocal of its own series, so every mass is
    exactly 1 and every eps vanishes."""
    mixtures = []
    for l in range(levels):
        prefactor = power_series_certificate(alpha, -l, cfg).enclosure.recip()
        mixtures.append(MixtureMeasure(alpha=alpha, shift=l, prefactor=prefactor))
    return MeasureSystem(q=alpha.q, mixtures=tuple(mixtures))


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
    boundedness: str
    certificates: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.request.n

    def to_json_dict(self) -> dict:
        return _artifact_doc(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1) + "\n"


def _trunk_levels(kappa, window: Window) -> int:
    """Number of trunk weights |lambda_{-l}|^2 materialized (l = 0..L-1)."""
    if kappa == 0:
        return 0
    if kappa is INF:
        return window.max_trunk + 1
    return min(int(kappa) - 1, window.max_trunk) + 1


def _mixture_levels(kappa, window: Window) -> int:
    """Number of trunk measures materialized (levels 0..M-1, level 0 = vertex 0)."""
    if kappa is INF:
        return window.max_trunk + 1
    return min(int(kappa), window.max_trunk) + 1


def generate(request: CounterexampleRequest) -> CounterexampleArtifact:
    """Run the full pipeline and certify every promised identity."""
    cfg = request.cert
    kappa = request.kappa
    window = request.window if kappa is INF else Window(
        min(request.window.max_trunk, int(kappa)),
        request.window.max_branch,
        request.window.max_depth,
    )
    tree = ModelTree(eta=INF, kappa=kappa)

    boundedness = boundedness_guard(request.q, cfg)
    omega = choose_subsequence(request.q, cfg)
    alpha = AlphaFamily(q=request.q, omega=omega, power=request.n)
    c, norm_cert = normalize(alpha, cfg)
    trunk = trunk_weights(alpha, kappa, _trunk_levels(kappa, window), cfg)
    weights = ModelWeights(alpha=alpha, c=c, kappa=kappa, trunk=trunk)
    measures = build_measure_system(alpha, kappa, _mixture_levels(kappa, window), cfg)

    artifact = CounterexampleArtifact(
        request=request,
        tree=tree,
        window=window,
        omega=omega,
        alpha=alpha,
        c=c,
        weights=weights,
        measures=measures,
        boundedness=boundedness,
    )
    artifact.certificates = _certify(artifact, cfg)
    return artifact


def _certify(artifact: CounterexampleArtifact, cfg: CertConfig) -> dict:
    """All certificates attached to a generated artifact."""
    alpha = artifact.alpha
    res = identity_residuals(artifact, cfg)
    certs = {
        "nd": {m: power_series_certificate(alpha, m, cfg) for m in range(1, artifact.n + 2)},
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
        certs["widly1_prime"] = {"l": l, "residual": r, "holds_leq_1": r <= cfg.check_tol}
    return certs


@dataclass(frozen=True)
class IdentityResiduals:
    """Exact residuals of the identities an artifact promises: `generate`
    serialises them into its certificates, `verify` turns them into records."""

    zgod_prime: Fraction  # |c * sum_i alpha_i - 1|
    widly1: Dict[int, Fraction]  # trunk product identity at level l
    widly1_prime: Optional[Tuple[int, Fraction]]  # (kappa, residual) on a finite trunk
    mass: Dict[int, Fraction]  # |mass - 1| of the mixture at trunk level l
    consist6: Dict[Vertex, ConsistencyResult]
    cc: wco.CCReport

    @property
    def consist6_max(self) -> Fraction:
        return max((r.residual_upper for r in self.consist6.values()), default=Fraction(0))


def identity_residuals(artifact: CounterexampleArtifact, cfg: CertConfig) -> IdentityResiduals:
    """Normalization, trunk product, mixture mass, consistency and CC
    residuals over the artifact's weights and measures, which read their
    tables where they have them and the rules elsewhere."""
    alpha, c, kappa = artifact.alpha, artifact.c, artifact.request.kappa
    zgod_prime = _one_residual(c * power_series_certificate(alpha, 0, cfg).enclosure)
    widly1, widly1_prime = {}, None
    P = coerce(Fraction(1))
    for l, w in enumerate(artifact.weights.trunk, start=1):
        P = P * w
        r = _one_residual(P * c * power_series_certificate(alpha, -l, cfg).enclosure)
        if kappa is not INF and l == kappa:
            widly1_prime = (l, r)  # the terminal inequality, held as an equality
        else:
            widly1[l] = r
    mass = {
        l: _one_residual(mix.prefactor * power_series_certificate(alpha, -l, cfg).enclosure)
        for l, mix in enumerate(artifact.measures.mixtures)
    }
    consist6 = consist6_residuals(artifact, cfg)
    data = wco.from_shift(artifact.tree, artifact.weights)
    cc = wco.cc_residual(data, artifact.measures, artifact.window, cfg)
    return IdentityResiduals(zgod_prime, widly1, widly1_prime, mass, consist6, cc)


def _one_residual(iv: Interval) -> Fraction:
    """Upper bound on |iv - 1| given 1 must lie inside iv."""
    return max(abs(iv.lo - 1), abs(iv.hi - 1))


def checkable_vertices(tree: ModelTree, window: Window):
    """Window vertices where the consistency identity is verifiable (see
    `tree.children_visible`)."""
    return (u for u in window_vertices(tree, window) if children_visible(tree, u, window))


def consist6_residuals(
    a: CounterexampleArtifact, cfg: CertConfig = DEFAULT_CONFIG
) -> Dict[Vertex, ConsistencyResult]:
    """Consistency residual at every checkable window vertex of an artifact."""
    out: Dict[Vertex, ConsistencyResult] = {}
    for u in checkable_vertices(a.tree, a.window):
        kid_data = [
            (a.weights.squared_at(v), a.measures.measure_at(v))
            for v in children(a.tree, u, a.window)
        ]
        out[u] = check_consist6_at(
            a.measures.measure_at(u),
            a.measures.eps_at(u),
            kid_data,
            atom_limit=a.window.max_branch,
        )
    return out


# --- serialization ---


def _artifact_doc(a: CounterexampleArtifact) -> dict:
    W = a.window.max_branch
    doc = {
        "schema": SCHEMA,
        "request": a.request.to_json(),
        "tree": tree_to_json(a.tree),
        "window": asdict(a.window),
        "omega": a.omega.to_json(),
        "alpha": a.alpha.to_json(),
        "c": interval_to_json(a.c),
        "boundedness": a.boundedness,
        "weights": {
            "branch_first": [
                {"i": i, "w2": interval_to_json(a.weights.branch_first_squared(i))}
                for i in range(1, W + 1)
            ],
            "branch_tail": [
                {"i": i, "w2": rat_to_str(a.weights.branch_tail_squared(i))}
                for i in range(1, W + 1)
            ],
            "trunk": [
                {"l": l, "w2": interval_to_json(w)} for l, w in enumerate(a.weights.trunk)
            ],
        },
        "measures": {
            "branch_atoms": [
                {"i": i, "t": rat_to_str(a.measures.q.value(i))} for i in range(1, W + 1)
            ],
            "mixtures": [
                {
                    "shift": mix.shift,
                    "prefactor": interval_to_json(mix.prefactor),
                    "atoms": [
                        {"i": i, "mass": interval_to_json(mix.atom_mass(i))}
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


def artifact_from_json_dict(doc: dict) -> CounterexampleArtifact:
    """Rebuild the rule-level artifact from a document (tables are re-derived
    from the rules; `verify` is what checks the stored tables)."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unknown artifact schema: {doc.get('schema')!r}")
    request = CounterexampleRequest.from_json(doc["request"])
    return generate(request)


# --- verification ---


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
    consist6_by_vertex: Tuple[Tuple[str, str], ...] = ()
    residuals: Optional[IdentityResiduals] = None  # None when the document did not parse

    def failures(self) -> Tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed)


class _Malformed(Exception):
    """A document whose shape does not match its declared window."""


def _at(node, path: str, prefix: str = ""):
    """The value at the dotted JSON path `path` below `node`, itself at `prefix`."""
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise _Malformed(f"{prefix}{path}: missing")
        node = node[key]
    return node


def _table(node, path: str, count: int, pos_key: str, parse, prefix: str = ""):
    """Parse the table at `path` below `node`: exactly `count` entries, the
    `pos_key` field of entry p equal to p + 1 for a branch index `i` and to
    p for a trunk level, each entry read by parse(entry, its JSON path)."""
    start = 1 if pos_key == "i" else 0
    rows = _at(node, path, prefix)
    path = prefix + path
    if not isinstance(rows, list) or len(rows) != count:
        size = len(rows) if isinstance(rows, list) else "no"
        raise _Malformed(f"{path}: {size} entries, the window needs {count}")
    out = []
    for p, row in enumerate(rows):
        where = f"{path}[{p}]"
        try:
            if row[pos_key] != start + p:
                raise ValueError(f"{pos_key} = {row[pos_key]!r}, expected {start + p}")
            out.append(parse(row, where))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise _Malformed(f"{where}: {type(exc).__name__}: {exc}") from None
    return tuple(out)


def _parse_artifact(doc: dict, request: CounterexampleRequest, window: Optional[Window]):
    """The artifact a document stores, its tables overriding the rules for
    the indices they cover.  Every table must have the length the stored
    window gives it, so no later check reads past a table or runs longer
    than the tables; a shape error raises _Malformed naming its JSON path."""
    kappa = request.kappa
    try:
        stored = Window(**_at(doc, "window"))
    except (TypeError, ValueError) as exc:
        raise _Malformed(f"window: {exc}") from None
    eff = stored if window is None else Window(
        min(stored.max_trunk, window.max_trunk),
        min(stored.max_branch, window.max_branch),
        min(stored.max_depth, window.max_depth),
    )
    W = stored.max_branch
    alpha = AlphaFamily(
        q=request.q,
        omega=OmegaSpec.from_json(_at(doc, "omega")),
        power=_at(doc, "alpha.power"),
        scale=Fraction(_at(doc, "alpha.scale")),
    )
    c = interval_from_json(_at(doc, "c"))

    def interval(e, _):
        return interval_from_json(e["w2"])

    weights = ModelWeights(
        alpha=alpha,
        c=c,
        kappa=kappa,
        first=_table(doc, "weights.branch_first", W, "i", interval),
        tail=_table(doc, "weights.branch_tail", W, "i", lambda e, _: rat_from_str(e["w2"])),
        trunk=_table(doc, "weights.trunk", _trunk_levels(kappa, stored), "l", interval),
    )

    def atom(e, where):
        t = rat_from_str(e["t"])
        if t <= 0:
            raise _Malformed(f"{where}.t: atom at {t}, branch atoms must be > 0")
        return t

    locations = _table(doc, "measures.branch_atoms", W, "i", atom)

    def mixture(m, where):
        masses = _table(m, "atoms", W, "i", lambda e, _: interval_from_json(e["mass"]), where + ".")
        return MixtureMeasure(alpha, m["shift"], interval_from_json(m["prefactor"]),
                              masses=masses, locations=locations)

    mixtures = _table(doc, "measures.mixtures", _mixture_levels(kappa, stored), "shift", mixture)
    nd = _at(doc, "certificates.nd")
    if not isinstance(nd, dict):
        raise _Malformed("certificates.nd: not an object")
    for m in map(str, range(1, request.n + 2)):
        if m not in nd:
            continue  # verify fails it as a missing certificate
        verdict = _at(nd, f"{m}.verdict", "certificates.nd.")
        if verdict not in ("convergent", "divergent"):
            raise _Malformed(f"certificates.nd.{m}.verdict: {verdict!r} is not a verdict")
        if verdict == "divergent":
            try:
                rat_from_str(_at(nd, f"{m}.witness_partial_lb", "certificates.nd."))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise _Malformed(f"certificates.nd.{m}.witness_partial_lb: {exc}") from None
    return CounterexampleArtifact(
        request=request,
        tree=ModelTree(eta=INF, kappa=kappa),
        window=eff,
        omega=alpha.omega,
        alpha=alpha,
        c=c,
        weights=weights,
        measures=MeasureSystem(q=request.q, mixtures=mixtures, locations=locations),
        boundedness=doc.get("boundedness", ""),
    )


def _gaps(rows):
    """(vertex, gap, detail) for each (vertex, stored, expected, detail) row
    whose stored value lies a positive distance from the expected one."""
    for vertex, stored, expected, detail in rows:
        gap = coerce(stored).gap_to(expected)
        if gap > 0:
            yield vertex, gap, detail


def verify(
    doc: Union[dict, CounterexampleArtifact],
    window: Optional[Window] = None,
    cfg: Optional[CertConfig] = None,
) -> VerificationReport:
    """Re-run every certificate check against the stored tables of an
    artifact document.

    A document whose tables do not have the shape of its window fails a
    single `parse-artifact` record naming the JSON path.  Otherwise the
    checks are: stored values against rule reconstruction (two enclosures
    of the same quantity must intersect), the exact branch identities, and
    then, through the same `identity_residuals` that `generate` certifies
    with, consistency residuals at every checkable vertex, trunk product
    identities, mixture masses and CC on the window's atom algebra; last
    the power-domain certificates with a recomputed divergence witness, and
    positivity of all weights.
    """
    if isinstance(doc, CounterexampleArtifact):
        doc = doc.to_json_dict()
    records = []

    def rec(name, passed, vertex=None, residual=None, detail=""):
        if residual is not None and isinstance(residual, Fraction):
            # human-facing summary: a short decimal approximation suffices
            residual = "0" if residual == 0 else "~" + rat_to_decimal(residual, 6)
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
    cfg = cfg or request.cert
    tol = cfg.check_tol
    kappa = request.kappa
    n = request.n

    try:
        art = _parse_artifact(doc, request, window)
    except Exception as exc:
        return VerificationReport(
            False, (CheckRecord("parse-artifact", False, detail=str(exc)),)
        )
    alpha, weights, measures = art.alpha, art.weights, art.measures
    W = art.window.max_branch

    omega_ok = art.omega == choose_subsequence(request.q, cfg)
    rec("omega-reconstruction", omega_ok, detail="greedy subsequence matches stored spec")
    if not omega_ok:  # every rule below is built from the stored omega
        return VerificationReport(False, tuple(records))

    # rule reconstruction of c and of every stored table
    c_expected, _ = normalize(alpha, cfg)
    rec("normalization-constant", art.c.intersects(c_expected), residual=art.c.gap_to(c_expected))
    rule = ModelWeights(
        alpha=alpha, c=c_expected, kappa=kappa,
        trunk=trunk_weights(alpha, kappa, len(weights.trunk), cfg),
    )
    rows = []
    for i in range(1, W + 1):
        rows.append((Branch(i, 1), weights.branch_first_squared(i),
                     rule.branch_first_squared(i), ""))
        rows.append((Branch(i, 2), weights.branch_tail_squared(i), rule.branch_tail_squared(i),
                     "chain weight differs from rule"))
    rows += [(Trunk(l), w, rule.trunk[l], "") for l, w in enumerate(weights.trunk)]
    table_records("weight-reconstruction", _gaps(rows))

    rows = [
        (Branch(i, 1), measures.locations[i - 1], alpha.q.value(i),
         "branch atom location differs from q")
        for i in range(1, W + 1)
    ]
    expected = build_measure_system(alpha, kappa, len(measures.mixtures), cfg)
    for l, (mix, ref) in enumerate(zip(measures.mixtures, expected.mixtures)):
        rows.append((Trunk(l), mix.prefactor, ref.prefactor, "mixture prefactor off rule"))
        rows += [(Trunk(l), mix.atom_mass(i), ref.atom_mass(i), f"mixture atom i={i} off rule")
                 for i in range(1, W + 1)]
    table_records("atom-reconstruction", _gaps(rows))

    # zgod0: branch moments match weight products exactly (both are powers
    # of one rational, so the check is equality of the chain weight and the atom)
    rows = [(Branch(i, 2), weights.branch_tail_squared(i), measures.locations[i - 1], "")
            for i in range(1, W + 1)]
    table_records("zgod0", _gaps(rows), residual=0)

    res = identity_residuals(art, cfg)
    worst = Fraction(0)
    worst_vertex = None
    consist_by_vertex = []
    for u, result in res.consist6.items():
        upper = result.residual_upper
        consist_by_vertex.append(
            (str(u), "0" if upper == 0 else "~" + rat_to_decimal(upper, 6))
        )
        if upper > worst:
            worst, worst_vertex = upper, u
        if upper > tol:
            rec("consist6", False, vertex=u, residual=upper)
    if worst <= tol:
        rec("consist6", True, vertex=worst_vertex, residual=worst)

    rec("zgod-prime", res.zgod_prime <= tol, residual=res.zgod_prime)
    for l, r in res.widly1.items():
        rec(f"widly1[l={l}]", r <= tol, vertex=Trunk(l - 1), residual=r)
    if res.widly1_prime is not None:
        l, r = res.widly1_prime
        rec("widly1-prime", r <= tol, vertex=Trunk(l - 1), residual=r,
            detail="terminal trunk inequality held as equality")
    for l, r in res.mass.items():
        rec(f"mass[mu_-{l}]", r <= tol, vertex=Trunk(l), residual=r)
    rec("cc", res.cc.algebra_bound <= tol, residual=res.cc.algebra_bound)
    rec("h-positive-on-support", res.cc.h_positive_on_support)

    # power-domain certificates
    for m in range(1, n + 2):
        cert = power_series_certificate(alpha, m, cfg)
        stored = doc["certificates"]["nd"].get(str(m))
        if stored is None:
            rec(f"nd[{m}]", False, detail="certificate missing")
            continue
        expect_convergent = m <= n
        ok = cert.is_convergent == expect_convergent == (stored["verdict"] == "convergent")
        detail = ""
        if not cert.is_convergent and ok:
            K = cert.witness_index
            recomputed = witness_partial_sum(alpha, m, K)
            ok = (
                recomputed > cfg.divergence_threshold
                and dyadic_floor(recomputed) == Fraction(stored["witness_partial_lb"])
            )
            detail = f"witness partial sum at K={K} recomputed, exceeds {cfg.divergence_threshold}"
        rec(f"nd[{m}]", ok, residual=None, detail=detail or stored["verdict"])

    # positivity of every stored weight
    misses = [
        (Branch(i, 1), None, "")
        for i in range(1, W + 1)
        if weights.branch_first_squared(i).lo <= 0 or weights.branch_tail_squared(i) <= 0
    ]
    misses += [(Trunk(l), None, "") for l, w in enumerate(weights.trunk) if w.lo <= 0]
    table_records("weights-positive", misses)

    return VerificationReport(
        all(r.passed for r in records),
        tuple(records),
        consist6_by_vertex=tuple(consist_by_vertex),
        residuals=res,
    )
