"""Degenerate Dirichlet forms on fractal-boundary domains.

Numerical companion toolkit for the Markov-uniqueness dichotomy of diffusions
whose generator degenerates like dist(x, boundary)^delta near a self-similar
boundary: geometry realization, graded grid fields, quadratic forms and
capacity estimates, Hardy quotients, and absorbed random walks.
"""

from .errors import (
    SnowcapError,
    NoSolutionInRange,
    DepthOverflow,
    EmptyDomain,
    EmptyRegion,
    DegenerateFit,
    InsufficientSamples,
    Disconnected,
    SolverDiverged,
)
from .simsys import (
    Similarity,
    SimilaritySystem,
    BoundaryGeometry,
    similarity_dimension,
    critical_delta,
    Family,
    FAMILIES,
    named_family,
    koch_snowflake,
    vicsek,
    cantor_dust,
    realize,
    geometry_to_text,
    geometry_from_text,
)
from .geomfield import (
    Grid,
    DistanceField,
    ScalingFit,
    build_grid,
    distance_field,
    neighborhood_volume,
    minkowski_dimension,
    ahlfors_check,
    uniformity_estimate,
)
from .forms import (
    SparseForm,
    CapacityResult,
    weight_field,
    assemble_form,
    eta_rn,
    capacity_upper_eta,
    capacity_relaxed,
    hardy_quotient,
    collar_integral,
)
from .stochastic import WalkConfig, WalkResult, walk_absorption
from .records import (
    ExperimentRecord,
    record_id,
    derive_seed,
    append_record,
    load_records,
    load_ids,
)

__version__ = "0.1.0"
