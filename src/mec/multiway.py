"""Couplings of k marginals via a tree of pairwise merges.

Each leaf is one marginal, checked once, with one index column: its caller
indices. Each internal node couples its children's masses with the sparse
engine's walk, which runs its own checks only with ``debug`` on, and reads
the walk's raw cells, checked as ``SparseCoupling``'s output step checks them
but never ordered or built into a coupling; a check that fails goes to that
step, which raises its ``ValueError``. The node's index columns are its
children's, read at each cell's row and col, so a node carries one column per
leaf below it, and a mass's tag is its indices across them. Every node but
the root is sorted by (-mass, tag) before it is coupled again, and the root
by its coordinates, so no merge's cell order reaches the output.

Adjacent nodes merge level by level and an odd last node moves up a level
unchanged, so the tree is ceil(log2 k) merges deep. The entropy gap doubles
its budget at most once per level, giving H <= H(glb of all marginals) +
ceil(log2 k) at the root. The root's sorted columns are the index columns of
a :class:`SparseJoint`, built through the one checked build it shares with
``SparseCoupling``, ``_CellStore._fill``, as the public constructor builds it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice, repeat

from .coupling import (
    _cells,
    _CellStore,
    _codes,
    _exactly,
    _line_sums,
    _raw_cells,
    _unit,
    _walk,
)
from .distributions import (
    NORMALIZATION_TOL,
    Distribution,
    _checked,
    _sorted_distribution,
    shannon_entropy,
)
from .errors import EmptyError, InternalError, TooFewError
from .majorization import _half, glb_many, majorizes


@dataclass(frozen=True, slots=True)
class JointEntry:
    """One positive cell of a sparse k-way joint, in caller coordinates."""

    value: float
    coords: tuple[int, ...]


_ENTRY_ERRORS = {
    "value": "entry {cell} must be positive, got {value!r}",
    "finite": "entry {cell} must be finite, got {value!r}",
    "arity": "entry {cell} does not have {axes} coordinates",
    "range": "entry {cell} out of range on axis {axis}",
    "duplicate": "duplicate entry at {cell}",
}


class SparseJoint(_CellStore):
    """A joint distribution over a k-fold product space, positive cells only.

    Stored as one index column per axis plus the values: cell k has mass
    ``values()[k]`` at ``columns[a][k]`` on axis a, in caller coordinates.
    :func:`min_entropy_joint_k` emits its cells sorted by coordinates; the
    public constructor keeps the order it is given.
    """

    __slots__ = ("dims", "columns", "_values")
    _ARGS = ("dims",)
    _KEY = ("dims", "columns", "_values")
    _ERRORS = _ENTRY_ERRORS

    def __init__(self, dims: tuple[int, ...], entries: Iterable[JointEntry]) -> None:
        entries = tuple(entries)
        coords = tuple(map(operator.attrgetter("coords"), entries))
        k = len(dims)
        # other coordinates get no columns, which would lose what is odd about
        # them: they are walked as given, and a list is unhashable
        columns = None
        if _exactly(tuple, coords) and all(map(operator.eq, map(len, coords), repeat(k))):
            columns = tuple(zip(*coords)) or ((),) * k
        self._fill(dims, columns, tuple(map(operator.attrgetter("value"), entries)), coords)

    @property
    def entries(self) -> tuple[JointEntry, ...]:
        """The cells as :class:`JointEntry` records, built on each access."""
        return tuple(map(JointEntry, self._values, _cells(self.columns, len(self._values))))


def axis_marginals(joint: SparseJoint) -> tuple[tuple[float, ...], ...]:
    """Sum the joint down to each axis, in caller index order."""
    values = joint.values()
    return tuple(
        tuple(_line_sums(column, values, d)) for column, d in zip(joint.columns, joint.dims)
    )


# A tree node is a pair (masses, columns): positive masses, and one index
# column per leaf below the node, in axis order. Mass t sits at columns[a][t]
# on leaf a's axis; a leaf's one column is its caller indices, and a merge
# joins its row node's columns, read at each cell's row, to its column
# node's, read at each cell's col. A mass's tag, its indices across the
# columns, is unique within a node.
_Node = tuple[Sequence[float], tuple[Sequence[int], ...]]


def _leaf(d: Distribution) -> _Node:
    # zero components can never receive mass; the masses are checked and
    # sorted, so the positive ones come first
    k = bisect_left(d.masses, 0.0, key=operator.neg)
    return d.masses[:k], (d.perm[:k],)


def _couple(left: _Node, right: _Node, debug: bool) -> _Node:
    # the cells of the pairwise coupling of two mass-sorted nodes of checked
    # leaves, in walk order: their values, and the index columns of both
    # nodes read at each cell. The walk runs its debug checks if ``debug``;
    # its raw cells are checked as _finish checks them, and never ordered:
    # _by_mass or the root orders every node
    (left_masses, left_columns), (right_masses, right_columns) = left, right
    dl = _sorted_distribution(left_masses, tuple(range(len(left_masses))))
    dr = _sorted_distribution(right_masses, tuple(range(len(right_masses))))
    if debug and (_unit(dl) is not dl or _unit(dr) is not dr):
        # the walk would rescale a node that lost mass, out of the witness's sight
        raise InternalError("a node's masses do not sum to 1")
    values, rows, cols = _raw_cells(_walk(dl, dr, debug)[0])
    return values, (*_gather(left_columns, rows), *_gather(right_columns, cols))


def _gather(columns, order) -> tuple[tuple[int, ...], ...]:
    # each column read at the positions ``order``
    return tuple(tuple(map(column.__getitem__, order)) for column in columns)


def _by_tag(columns) -> list[int]:
    # the positions of a node's masses in the order of their tags. Each tag
    # is read as one mixed-radix int, a column's radix its largest index + 1,
    # which orders as the tag tuples do; Python ints keep it exact at any size
    radices = [max(column) + 1 for column in columns]
    codes = list(_codes(radices, columns, len(columns[0])))
    return sorted(range(len(codes)), key=codes.__getitem__)


def _by_mass(node: _Node) -> _Node:
    # the node sorted by (-mass, tag). One float sort settles distinct
    # masses; only when two are equal does a stable mass sort run again,
    # over the positions in tag order
    values, columns = node
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    masses = tuple(map(values.__getitem__, order))
    if any(map(operator.eq, masses, islice(masses, 1, None))):
        order = _by_tag(columns)
        order.sort(key=values.__getitem__, reverse=True)
        masses = tuple(map(values.__getitem__, order))
    return masses, _gather(columns, order)


def min_entropy_joint_k(
    ds: Sequence[Distribution | Sequence[float]],
    debug: bool = False,
) -> SparseJoint:
    """Couple k >= 2 marginals with entropy at most H(glb of all) + ceil(log2 k).

    Adjacent nodes merge level by level, and an odd last node moves up a
    level unchanged, so the tree is ceil(log2 k) merges deep. The output's
    axis-a marginal equals ds[a] (caller order) within the normalization
    tolerance, and its entries are sorted by coordinates. With ``debug`` on,
    each node must sum to 1 when it is coupled, every merge runs the balance
    and split-conservation checks of ``min_entropy_coupling_sparse``, the
    root must sum to 1 within the normalization tolerance, and the glb of
    the marginals, halved ceil(log2 k) times, must sit below the root's
    masses in the majorization order; a failure raises ``InternalError``.

    Raises:
        EmptyError: no distributions given.
        TooFewError: a single distribution (nothing to couple).
    """
    if len(ds) == 0:
        raise EmptyError("no distributions to couple")
    if len(ds) == 1:
        raise TooFewError("coupling requires at least two distributions")
    # the marginals are checked and rescaled here, once, so that the merges
    # and the debug witness see the same leaves
    dists = [_unit(_checked(d)) for d in ds]
    dims = tuple(d.n for d in dists)

    nodes = [_leaf(d) for d in dists]
    while len(nodes) > 2:
        # every merged node but the root is coupled again, so each is sorted
        # by mass once, here; an odd last node moves up a level unchanged
        merged = [_by_mass(_couple(a, b, debug)) for a, b in zip(nodes[::2], nodes[1::2])]
        nodes = merged + nodes[2 * len(merged):]
    values, columns = _couple(*nodes, debug)
    if debug:
        # majorizes would reject a root off by more than this as a marginal
        # that is not normalized, an input error; smaller losses fail the
        # witness, whose slack is 1e-12
        if not abs(math.fsum(values) - 1.0) <= NORMALIZATION_TOL:
            raise InternalError("the root's masses do not sum to 1")
        # the witness: the glb of the leaves, halved once per level
        witness = glb_many(dists)
        for _ in range((len(dists) - 1).bit_length()):
            witness = _half(witness)
        if not majorizes(witness, values):
            raise InternalError("the joint violates its majorization witness")

    # the root's cells are sorted once, by coordinates, which never repeat;
    # its index columns are the joint's, one per axis
    order = _by_tag(columns)
    return SparseJoint._build(dims, _gather(columns, order), tuple(map(values.__getitem__, order)))


def joint_lower_bound_k(ds: Sequence[Distribution | Sequence[float]]) -> float:
    """Entropy floor for any coupling of the given marginals (in bits)."""
    return shannon_entropy(glb_many(ds).masses)


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
