"""Couplings of k marginals via a tree of pairwise merges.

Each leaf is one marginal with single-index tags; each internal node couples
its children's mass vectors with the sparse pairwise engine and concatenates
their tags, so every tag carries one coordinate per leaf below the node.
Adjacent nodes merge level by level and an odd last node moves up a level
unchanged, so the tree is ceil(log2 k) merges deep. The entropy gap doubles
its budget at most once per level, giving H <= H(glb of all marginals) +
ceil(log2 k) at the root.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, cycle, islice, repeat

from .coupling import min_entropy_coupling_sparse
from .distributions import (
    Distribution,
    as_distribution,
    shannon_entropy,
)
from .errors import EmptyError, InternalError, TooFewError
from .majorization import glb_many, half_iter, majorizes


@dataclass(frozen=True, slots=True)
class JointEntry:
    """One positive cell of a sparse k-way joint, in caller coordinates."""

    value: float
    coords: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class SparseJoint:
    """A joint distribution over a k-fold product space, positive cells only.

    :func:`min_entropy_joint_k` emits its entries sorted by coordinates.
    """

    dims: tuple[int, ...]
    entries: tuple[JointEntry, ...]

    def __post_init__(self) -> None:
        # One C-level pass per check clears the usual case: finite positive
        # values, coordinates that are tuples with one per axis, each in
        # range, and in strictly increasing order, as the engine emits them,
        # so that none can repeat. Anything else, entries in another order
        # included, is walked entry by entry; the walk names the first bad
        # entry and settles what the passes cannot, such as a NaN coordinate.
        values = list(map(_VALUE, self.entries))
        coords = list(map(_COORDS, self.entries))
        if not values or (
            min(values) > 0.0
            and all(map(math.isfinite, values))
            and all(map(isinstance, coords, repeat(tuple)))
            and all(map(operator.eq, map(len, coords), repeat(len(self.dims))))
            # every entry has one coordinate per axis, so the flattened
            # coordinates line up with the cycled dims; each is compared
            # one by one, as min and max can skip a NaN
            and all(map(operator.le, repeat(0), chain.from_iterable(coords)))
            and all(map(operator.lt, chain.from_iterable(coords), cycle(self.dims)))
            and all(map(operator.lt, coords, islice(coords, 1, None)))
        ):
            return
        seen: set[tuple[int, ...]] = set()
        for e in self.entries:
            if e.value <= 0.0:
                raise ValueError(f"entry {e.coords} must be positive, got {e.value!r}")
            if not math.isfinite(e.value):
                raise ValueError(f"entry {e.coords} must be finite, got {e.value!r}")
            if len(e.coords) != len(self.dims):
                raise ValueError(f"entry {e.coords} does not have {len(self.dims)} coordinates")
            for axis, (c, d) in enumerate(zip(e.coords, self.dims)):
                if not 0 <= c < d:
                    raise ValueError(f"entry {e.coords} out of range on axis {axis}")
            if e.coords in seen:
                raise ValueError(f"duplicate entry at {e.coords}")
            seen.add(e.coords)

    def values(self) -> tuple[float, ...]:
        return tuple(map(_VALUE, self.entries))


_VALUE = operator.attrgetter("value")
_COORDS = operator.attrgetter("coords")


def axis_marginals(joint: SparseJoint) -> tuple[tuple[float, ...], ...]:
    """Sum the joint down to each axis, in caller index order."""
    sums = [[[] for _ in range(d)] for d in joint.dims]
    for e in joint.entries:
        for axis, c in enumerate(e.coords):
            sums[axis][c].append(e.value)
    return tuple(
        tuple(math.fsum(cell) for cell in axis_cells) for axis_cells in sums
    )


# A tree node is a pair (masses, tags): positive masses, each tagged with its
# marginal coordinates. Tags start as single caller indices at the leaves and
# grow by concatenation with every merge.
_Node = tuple[Sequence[float], Sequence[tuple[int, ...]]]


def _leaf(d: Distribution) -> _Node:
    # zero components can never receive mass; drop them up front
    masses = []
    tags = []
    for pos, m in enumerate(d.masses):
        if m > 0.0:
            masses.append(m)
            tags.append((d.perm[pos],))
    return tuple(masses), tuple(tags)


def _couple(left: _Node, right: _Node) -> _Node:
    # the cells of the pairwise coupling of two mass-sorted nodes, in engine
    # order: their values, and the row's tag joined to the column's
    (left_masses, left_tags), (right_masses, right_tags) = left, right
    dl = Distribution(left_masses, tuple(range(len(left_masses))))
    dr = Distribution(right_masses, tuple(range(len(right_masses))))
    coupling = min_entropy_coupling_sparse(dl, dr)
    tags = list(map(
        operator.add,
        map(left_tags.__getitem__, coupling.rows),
        map(right_tags.__getitem__, coupling.cols),
    ))
    return coupling.values(), tags


def _by_mass(node: _Node) -> _Node:
    pairs = sorted(zip(*node), key=lambda t: (-t[0], t[1]))
    return tuple(v for v, _ in pairs), tuple(tag for _, tag in pairs)


def min_entropy_joint_k(
    ds: Sequence[Distribution | Sequence[float]],
    debug: bool = False,
) -> SparseJoint:
    """Couple k >= 2 marginals with entropy at most H(glb of all) + ceil(log2 k).

    Adjacent nodes merge level by level, and an odd last node moves up a
    level unchanged, so the tree is ceil(log2 k) merges deep. The output's
    axis-a marginal equals ds[a] (caller order) within the normalization
    tolerance, and its entries are sorted by coordinates. With ``debug`` on,
    every merge is checked against its majorization witness: the d-fold
    halving of the glb of the leaves below the merged node, d its depth,
    must sit below the node's masses.

    Raises:
        EmptyError: no distributions given.
        TooFewError: a single distribution (nothing to couple).
    """
    if len(ds) == 0:
        raise EmptyError("no distributions to couple")
    if len(ds) == 1:
        raise TooFewError("coupling requires at least two distributions")
    dists = [as_distribution(d) for d in ds]
    dims = tuple(d.n for d in dists)

    nodes = [_leaf(d) for d in dists]
    # the leaves below each node, and its depth: the debug witness's inputs
    below = [([d], 0) for d in dists]
    while True:
        pairs = range(0, len(nodes) - 1, 2)
        cells = [_couple(nodes[t], nodes[t + 1]) for t in pairs]
        # an odd last node moves up a level unchanged
        rest = slice(2 * len(cells), None)
        if debug:
            below = [
                (below[t][0] + below[t + 1][0], max(below[t][1], below[t + 1][1]) + 1)
                for t in pairs
            ] + below[rest]
            for (values, _), (leaves, depth) in zip(cells, below):
                if not majorizes(half_iter(glb_many(leaves), depth), values):
                    raise InternalError(
                        f"depth {depth} node violates its majorization witness"
                    )
        if len(nodes) == 2:
            break
        # every merged node but the root is coupled again, so each is sorted
        # by mass once, here
        nodes = list(map(_by_mass, cells)) + nodes[rest]

    # the root's cells are sorted once, by coordinates, which never repeat
    values, tags = cells[0]
    return SparseJoint(dims, tuple(JointEntry(v, c) for c, v in sorted(zip(tags, values))))


def joint_lower_bound_k(ds: Sequence[Distribution | Sequence[float]]) -> float:
    """Entropy floor for any coupling of the given marginals (in bits)."""
    return shannon_entropy(glb_many([as_distribution(d) for d in ds]).masses)


@dataclass(frozen=True, slots=True)
class FrlBounds:
    """Entropy window for an exogenous variable functionally representing k
    conditional laws: any coupling of the conditionals induces one."""

    lower: float
    upper: float


def frl_bounds(conditionals: Sequence[Distribution | Sequence[float]]) -> FrlBounds:
    """Lower/upper entropy bounds achievable by the tree coupling.

    ``lower`` is the glb entropy (no coupling does better); ``upper`` adds
    the ceil(log2 k) bits the merge tree may pay on top.
    """
    lower = joint_lower_bound_k(conditionals)
    k = len(conditionals)
    return FrlBounds(lower, lower + (k - 1).bit_length())
