"""The public surface of the package: exactly the names callers need."""

from __future__ import annotations

import mec

PUBLIC_NAMES = [
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


def test_all_is_pinned_and_every_name_resolves():
    assert sorted(mec.__all__) == PUBLIC_NAMES
    assert all(hasattr(mec, name) for name in mec.__all__)
