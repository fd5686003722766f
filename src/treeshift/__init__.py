"""Certified weighted shifts on directed trees with non-densely defined powers.

Constructs, on the one-branching-vertex model trees, subnormal weighted
shifts whose n-th power is densely defined while the (n+1)-th is not, and
verifies every ingredient with machine-checkable certificates: exact
rational residuals for the measure-consistency identities and interval
enclosures with certified tail bounds for the infinite series involved.
"""

from .errors import (
    InfiniteTermError,
    InvalidTreeError,
    NoCertificateError,
    SupNotWitnessedError,
    ThresholdNotReachedError,
    TreeshiftError,
    UnknownVertexError,
    WidthNotReachedError,
    WindowOverflowError,
)
from .rationals import Interval
from .tree import (
    INF,
    Branch,
    Explicit,
    ExplicitTree,
    ModelTree,
    Trunk,
    Vertex,
    Window,
    ZERO,
    branching_vertices,
    children,
    descendants_at,
    parent,
)
from .series import (
    AlphaFamily,
    CertConfig,
    DEFAULT_CONFIG,
    LINEAR_Q,
    MIXED_Q,
    OmegaSpec,
    SequenceSpec,
    SeriesCertificate,
    Tail,
)
from .measures import (
    AtomicMeasure,
    MixtureMeasure,
    check_cc_dt,
    check_consist6_at,
    moment,
)
from .shift import (
    Amplitude,
    DomainCertificate,
    DomainReport,
    ExplicitWeights,
    FinSuppVector,
    ModelWeights,
    apply_lambda,
    dense_defined_power,
    glowne_power_check,
    power_norm_sq,
)
from .construct import (
    CounterexampleArtifact,
    CounterexampleRequest,
    MeasureSystem,
    VerificationReport,
    build_measure_system,
    choose_subsequence,
    generate,
    normalize,
    trunk_weights,
    verify,
)
from .wco import (
    CompositionData,
    cc_residual,
    cond_expectation,
    from_shift,
    h_function,
    roundtrip_measures,
)
from .oracle import TruncatedOperator, brute_consist6, matrix_power_norm, truncate

__version__ = "0.1.0"
