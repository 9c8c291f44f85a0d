"""The public surface of the package: exactly the names callers need."""

from __future__ import annotations

import ast
import pathlib
import sys

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


def test_only_the_standard_library_is_imported_and_no_assert_is_relied_on():
    # the package is dependency-free, and keeps every invariant under
    # python -O, which strips assert statements
    sources = sorted(pathlib.Path(mec.__file__).parent.glob("*.py"))
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.Assert), (path.name, node.lineno)
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert sources and imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names
