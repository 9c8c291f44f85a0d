"""Exact minimum-entropy coupling on small instances, for certification.

The couplings of (p, q) form a transportation polytope; entropy is concave,
so its minimum over the polytope is attained at a vertex. Vertices are the
basic feasible solutions: pick a spanning tree of the complete bipartite
graph on rows and columns, peel leaves to solve the triangular system, and
keep the solution iff it is non-negative. Enumerating every spanning tree is
exhaustive, which is affordable only on tiny instances; the cell cap keeps
requests honest.

Spanning trees are found by a depth-first search over the edge indices
r * m + c in increasing order. It skips an edge that closes a cycle (union-find,
undone on backtrack) and ends a branch once too few edges remain, or once
the last edge of a row or column has passed with that node still isolated.
So it builds only trees, in the lexicographic order of
``itertools.combinations`` over the edges: each deduplicated vertex keeps the
cells of the same first tree, and each argmin stays the same.

Only the trees' peel schedules are cached, per (n_rows, n_cols) shape, so
scoring many random instances of the same shape costs one enumeration. A
schedule is a tuple of (node, other, edge_index) steps: peel ``node``
through the tree's edge at that position, whose far end is ``other``; the
edge is the cell (min(node, other), max(node, other) - n_rows). Steps are
shared tuples from one per-shape table, so a cached schedule holds only
references to them, and the cache stores no edge list.

Each call runs two passes. The first only checks feasibility: it walks each
tree's steps on a copy of the (p, q) residuals, stops at the first negative
one, and keeps the feasible trees in tree order. Few trees pass (about 3% at
4x5 and 11% at 2x10 on random marginals). The second solves each feasible
tree: it repeats the same subtractions in the same order (so the floats are
the same) and records each step's value. A solved tree is keyed on its
positive cells, with values rounded to 1e-12, and a key keeps the cells of
the first tree to reach it. ``enumerate_vertices`` keys every feasible tree
and builds a grid for each vertex. Brute force scores each solved tree's
entropy first, keys only the trees within a slack of the least (one or a
few on random marginals), scans their vertices and builds one grid, the
argmin's; a comment above ``brute_force_min_entropy`` shows why the slack
loses no bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from .coupling import SparseCoupling
from .distributions import Distribution, _caller_order, _checked
from .errors import InternalError, TooLargeError

CELL_CAP = 20
_ROUND = 1e-12


@dataclass(frozen=True, slots=True)
class VertexCoupling:
    """A vertex of the transportation polytope, as a dense grid.

    The support (positive cells) of a basic solution is acyclic in the
    bipartite row/column graph, hence has at most n_rows + n_cols - 1 cells.
    """

    grid: tuple[tuple[float, ...], ...]
    support: tuple[tuple[int, int], ...]

    def values(self) -> tuple[float, ...]:
        return tuple(self.grid[r][c] for r, c in self.support)

    def as_coupling(self) -> SparseCoupling:
        rows, cols = (tuple(cell[a] for cell in self.support) for a in (0, 1))
        return SparseCoupling._build((len(self.grid), len(self.grid[0])), (rows, cols),
                                     self.values())


@dataclass(frozen=True, slots=True)
class OracleResult:
    opt_value: float
    argmin: VertexCoupling


@lru_cache(maxsize=None)
def _tree_schedules(n: int, m: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The leaf-peeling schedules of all spanning trees of K_{n,m}.

    Nodes are rows 0..n-1 and columns n..n+m-1. Each tree's schedule lists
    (node, other, edge_index) in elimination order: at each step the node
    has exactly one unprocessed incident edge, the tree's edge_index-th in
    index order, whose other endpoint is ``other``; that edge is the cell
    (min(node, other), max(node, other) - n). Trees come in the
    lexicographic order of their edge indices r * m + c.
    """
    node_count = n + m
    size = node_count - 1
    all_edges = [(r, c) for r in range(n) for c in range(m)]
    total = len(all_edges)
    # one shared (node, other, edge_index) tuple per step value keeps the
    # cache small
    steps = [
        [[(v, o, e) for e in range(size)] for o in range(node_count)]
        for v in range(node_count)
    ]
    parent = list(range(node_count))  # union-find forest, undone on backtrack
    degree = [0] * node_count
    incident_sum = [0] * node_count  # sum of the positions of incident edges
    end_sum: list[int] = []  # row node + column node, per picked position
    out = []

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    def peel() -> None:
        # a live node of degree 1 has one unpeeled edge: its incident_sum
        deg = degree[:]
        rest = incident_sum[:]
        leaves = [v for v in range(node_count) if deg[v] == 1]
        schedule = []
        while leaves:
            v = leaves.pop()
            if deg[v] != 1:
                # the far endpoint of the final edge drops to degree 0
                continue
            e = rest[v]
            other = end_sum[e] - v
            schedule.append(steps[v][other][e])
            deg[v] = 0
            rest[other] -= e
            deg[other] -= 1
            if deg[other] == 1:
                leaves.append(other)
        out.append(tuple(schedule))

    def grow(start: int, depth: int, row_end: int) -> None:
        # the next edge leaves enough edges after it to finish the tree, and
        # lies no further than the row after the last picked edge's row: a
        # row passed without an edge stays isolated
        stop = min(row_end, total - size + depth + 1)
        for ei in range(start, stop):
            r, c = all_edges[ei]
            col = n + c
            a = find(r)
            b = find(col)
            if a == b:
                continue
            parent[a] = b
            end_sum.append(r + col)
            degree[r] += 1
            degree[col] += 1
            incident_sum[r] += depth
            incident_sum[col] += depth
            if depth + 1 == size:
                peel()
            else:
                grow(ei + 1, depth + 1, (r + 2) * m)
            incident_sum[r] -= depth
            incident_sum[col] -= depth
            degree[r] -= 1
            degree[col] -= 1
            end_sum.pop()
            parent[a] = a
            if degree[col] == 0 and r == n - 1:
                # a column's last edge is in the last row: passing it
                # leaves the column isolated
                break

    grow(0, 0, m)
    return tuple(out)


def _feasible_schedules(
    p: Distribution | Sequence[float],
    q: Distribution | Sequence[float],
) -> tuple[int, int, list[float], list[tuple[tuple[int, int, int], ...]]]:
    """(n, m, base, schedules): the residuals ``[*p, *q]`` in caller order
    and the peel schedules of the feasible trees, in tree order.

    Checks each marginal once, p before q, and the cell cap.
    """
    # raw masses are checked, unsorted, in _caller_order; a Distribution's
    # masses get the same checks before they are unsorted
    pvec = _caller_order(_checked(p) if isinstance(p, Distribution) else p)
    qvec = _caller_order(_checked(q) if isinstance(q, Distribution) else q)
    n, m = len(pvec), len(qvec)
    if n * m > CELL_CAP:
        raise TooLargeError(f"{n} x {m} grid exceeds the {CELL_CAP}-cell enumeration cap")
    base = [*pvec, *qvec]
    floor = -_ROUND
    feasible = []
    for schedule in _tree_schedules(n, m):
        # a peeled node has no edge left, so its residual is never read again
        residual = base[:]
        for node, other, _ in schedule:
            v = residual[node]
            if v < floor:
                break
            residual[other] -= v
        else:
            feasible.append(schedule)
    return n, m, base, feasible


def _solve(base: list[float], schedule: tuple[tuple[int, int, int], ...]) -> list[float]:
    """The value of each step's edge, in step order.

    Repeats pass 1's subtractions in the same order, so the floats are the
    same.
    """
    residual = base[:]
    values = []
    for node, other, _ in schedule:
        v = residual[node]
        values.append(v)
        residual[other] -= v
    return values


def _keyed(
    n: int, schedule: tuple[tuple[int, int, int], ...], values: list[float]
) -> tuple[tuple, list[tuple[int, int, float]]]:
    """(key, cells): a solved tree's positive (r, c, v) cells in (r, c)
    order, and their deduplication key, the values rounded to 1e-12."""
    cells = sorted(
        (min(node, other), max(node, other) - n, v)
        for (node, other, _), v in zip(schedule, values)
        if v > 0.0
    )
    return tuple((r, c, round(v / _ROUND)) for r, c, v in cells), cells


def _vertex(n: int, m: int, cells: list[tuple[int, int, float]]) -> VertexCoupling:
    grid = [[0.0] * m for _ in range(n)]
    for r, c, v in cells:
        grid[r][c] = v
    return VertexCoupling(
        tuple(tuple(row) for row in grid),
        tuple((r, c) for r, c, _ in cells),
    )


def enumerate_vertices(
    p: Distribution | Sequence[float],
    q: Distribution | Sequence[float],
) -> list[VertexCoupling]:
    """All vertices of the coupling polytope of (p, q), deduplicated.

    Works in caller index order for both marginals. Distinct trees often
    share a (degenerate) solution; solutions are deduplicated on their
    positive cells with values rounded to 1e-12, and the result is sorted by
    that same key. Each marginal is checked once, p before q, as raw masses
    are checked (a hand-built ``Distribution`` too).

    Raises:
        TooLargeError: n_rows * n_cols exceeds the cell cap of 20.
    """
    n, m, base, schedules = _feasible_schedules(p, q)
    found: dict[tuple, list[tuple[int, int, float]]] = {}
    for schedule in schedules:
        key, cells = _keyed(n, schedule, _solve(base, schedule))
        found.setdefault(key, cells)
    return [_vertex(n, m, found[key]) for key in sorted(found)]


# Brute force keys only the trees whose entropy is within _NEAR of the least
# tree's, and returns the same bits as keying every tree would:
# - Two trees with one key have the same positive cells, each within about
#   1e-12. Where both values are at least 1e-12, |d(-v log2 v)/dv| <= 38.5
#   bounds their terms' difference by 3.9e-11; below 2e-12 each term is
#   under 7.8e-11. Over at most 20 cells the trees' entropies differ by
#   under 1.6e-9 bits.
# - So a key whose first tree (in tree order) is more than _NEAR above the
#   minimum is either not keyed, or keyed from a later tree at more than
#   _NEAR - 1.6e-9 above it. Every key up to that level is keyed from its
#   first tree, with the entropy and cells that keying every tree gives it,
#   and the key holding the least tree lies within 1.6e-9 of the minimum.
# - The scan replaces its best only with a key more than 1e-15 lower, so
#   its winner lies within 1e-15 of the least key. Take a level t between
#   1.6e-9 and _NEAR - 1.6e-9 above the minimum with no key in
#   (t, t + 1e-15]; 32,000 trees cannot fill every such gap. The first key
#   at or below t replaces any best above t + 1e-15, and no key above
#   t + 1e-15 replaces a best at or below t, so either scan ends where the
#   scan of the keys at or below t alone ends, and those keys are the same
#   in both. This needs _NEAR above 3.2e-9 plus room for the gap; any
#   _NEAR >= 1e-8 keeps a margin.
_NEAR = 1e-6


def brute_force_min_entropy(
    p: Distribution | Sequence[float],
    q: Distribution | Sequence[float],
) -> OracleResult:
    """True minimum coupling entropy by exhaustive vertex scoring.

    Solves every feasible tree once and scores its entropy. Only the trees
    within 1e-6 bits of the least are keyed and deduplicated as
    :func:`enumerate_vertices` does, and their vertices are scanned in
    dedup-key order; a vertex replaces the best so far only if its entropy
    is more than 1e-15 lower. Returns the minimum in bits and the first
    vertex in dedup-key order attaining it, the same bits as a scan of
    every vertex of :func:`enumerate_vertices` gives.

    Raises:
        TooLargeError: as :func:`enumerate_vertices`.
        InternalError: no tree is feasible (a broken enumeration).
    """
    n, m, base, schedules = _feasible_schedules(p, q)
    if not schedules:
        raise InternalError("the coupling polytope has no scored vertex")
    scored = []
    for schedule in schedules:
        values = _solve(base, schedule)
        # the float shannon_entropy returns for the tree's positive cells
        h = -math.fsum([v * math.log2(v) for v in values if v > 0.0]) + 0.0
        scored.append((h, schedule, values))
    near = min(h for h, _, _ in scored) + _NEAR
    found: dict[tuple, tuple[float, list[tuple[int, int, float]]]] = {}
    for h, schedule, values in scored:
        if h <= near:
            key, cells = _keyed(n, schedule, values)
            found.setdefault(key, (h, cells))
    best_value = math.inf
    best_cells: list[tuple[int, int, float]] = []
    for key in sorted(found):
        h, cells = found[key]
        if h < best_value - 1e-15:
            best_value = h
            best_cells = cells
    return OracleResult(best_value, _vertex(n, m, best_cells))
