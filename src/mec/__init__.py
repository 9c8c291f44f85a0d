"""Minimum-entropy coupling toolkit.

Couple two or more discrete distributions into a joint distribution whose
entropy is provably within 1 bit (pairwise) or ceil(log2 k) bits (k-way) of
the NP-hard minimum, with the majorization-lattice machinery, entropy
bounds, and a small-instance brute-force oracle to certify the gap.
"""

from .coupling import (
    CouplingEntry,
    SparseCoupling,
    is_valid_coupling,
    min_entropy_coupling_dense,
    min_entropy_coupling_sparse,
)
from .distributions import (
    INTERNAL_TOL,
    NORMALIZATION_TOL,
    Distribution,
    aggregate,
    as_distribution,
    kl_divergence,
    make_distribution,
    renyi_entropy,
    shannon_entropy,
)
from .errors import (
    BadAlphaError,
    BadPartitionError,
    EmptyError,
    InfeasibleSplitError,
    InputError,
    InternalError,
    MecError,
    NegativeMassError,
    NotNormalizedError,
    SizeCapError,
    SupportMismatchError,
    TooFewError,
    TooLargeError,
)
from .majorization import (
    HALF_COMPONENT_CAP,
    glb,
    glb_many,
    half,
    half_iter,
    majorizes,
)
from .multiway import (
    FrlBounds,
    JointEntry,
    SparseJoint,
    axis_marginals,
    frl_bounds,
    joint_lower_bound_k,
    min_entropy_joint_k,
)
from .oracle import (
    CELL_CAP,
    OracleResult,
    VertexCoupling,
    brute_force_min_entropy,
    enumerate_vertices,
)
from .reports import BoundsReport, MetricEstimate, bounds_report, metric_estimate

__version__ = "0.1.0"

__all__ = [
    "BadAlphaError",
    "BadPartitionError",
    "BoundsReport",
    "CELL_CAP",
    "CouplingEntry",
    "Distribution",
    "EmptyError",
    "FrlBounds",
    "HALF_COMPONENT_CAP",
    "INTERNAL_TOL",
    "InfeasibleSplitError",
    "InputError",
    "InternalError",
    "JointEntry",
    "MecError",
    "MetricEstimate",
    "NORMALIZATION_TOL",
    "NegativeMassError",
    "NotNormalizedError",
    "OracleResult",
    "SizeCapError",
    "SparseCoupling",
    "SparseJoint",
    "SupportMismatchError",
    "TooFewError",
    "TooLargeError",
    "VertexCoupling",
    "aggregate",
    "as_distribution",
    "axis_marginals",
    "bounds_report",
    "brute_force_min_entropy",
    "enumerate_vertices",
    "frl_bounds",
    "glb",
    "glb_many",
    "half",
    "half_iter",
    "is_valid_coupling",
    "joint_lower_bound_k",
    "kl_divergence",
    "majorizes",
    "make_distribution",
    "metric_estimate",
    "min_entropy_coupling_dense",
    "min_entropy_coupling_sparse",
    "min_entropy_joint_k",
    "renyi_entropy",
    "shannon_entropy",
]
