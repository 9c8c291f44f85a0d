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

Only a prefix index of the trees' leaf peels is cached, per (n_rows, n_cols)
shape: each tree's key, one (node, other) byte pair per step and then its
3-byte position in tree order, with the keys sorted and a bytes column of
each key's common prefix with the key before it. A call walks the keys in
order, one residual list per depth, resuming each key after the steps it
shares whole and recording each step's value. A step fails if its node's
residual is below -1e-12, or if it leaves its far end's below -1e-6 (see
``_CUT``); one search of the prefix column skips the keys after it that
share the failed byte. So a 4x5 call walks some 8,000 steps, not 32,000
trees of 8 steps, and each tree still subtracts in its own peel order, to
the same floats. The feasible trees (about 3% at 4x5, 11% at 2x10 on random
marginals) go back into tree order and are keyed on their positive cells,
values rounded to 1e-12; a key keeps its first tree's cells.
``enumerate_vertices`` builds a grid per key. Brute force scores each
feasible tree's entropy, keys only the trees within a slack of the least,
and builds the argmin's grid; a comment above ``brute_force_min_entropy``
shows why the slack loses no bit.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

from .coupling import SparseCoupling
from .distributions import NORMALIZATION_TOL, Distribution, _caller_order, _checked
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
def _peel_index(n: int, m: int) -> tuple[list[bytes], bytes]:
    """(keys, shared): the sorted keys of the spanning trees of K_{n,m}, and
    per key the number of leading bytes it shares with the key before it.
    Nodes are rows 0..n-1 and columns n..n+m-1; step (node, other) peels a
    node whose last edge is the cell (min(node, other), max(node, other) - n)."""
    size = n + m - 1
    all_edges = [(r, c) for r in range(n) for c in range(m)]
    nodes = range(n + m)
    step_code = [[v << 8 | o for o in nodes] for v in nodes]
    parent = list(nodes)  # union-find forest, undone on backtrack
    # per node, 256 * degree + the sum of the positions (at most 190) of its
    # edges: a leaf's is 256 + its edge's position, at which end_sum holds
    # the edge's row node + column node
    load, end_sum = [0] * len(nodes), [0] * 256
    keys: list[int] = []  # each key as a big-endian int

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    def peel() -> None:
        rest = load[:]
        leaves = [v for v in nodes if rest[v] < 512]
        pop, push = leaves.pop, leaves.append
        key = 0
        # a degree drops to 0 only on the last step, so every pop is a leaf
        for _ in range(size):
            v = pop()
            at = rest[v]
            other = end_sum[at] - v
            key = key << 16 | step_code[v][other]
            left = rest[other] = rest[other] - at
            if left < 512:
                push(other)
        keys.append(key << 24 | len(keys))

    def grow(start: int, depth: int, row_end: int) -> None:
        # the next edge leaves enough edges after it to finish the tree, and
        # lies no further than the row after the last picked edge's row: a
        # row passed without an edge stays isolated
        stop = min(row_end, n * m - size + depth + 1)
        edge = 256 + depth
        for ei in range(start, stop):
            r, c = all_edges[ei]
            col = n + c
            a = find(r)
            b = find(col)
            if a == b:
                continue
            parent[a] = b
            end_sum.append(r + col)
            load[r] += edge
            load[col] += edge
            if depth + 1 == size:
                peel()
            else:
                grow(ei + 1, depth + 1, (r + 2) * m)
            load[r] -= edge
            load[col] -= edge
            end_sum.pop()
            parent[a] = a
            if load[col] == 0 and r == n - 1:
                # a column's last edge is in the last row: passing it
                # leaves the column isolated
                break

    grow(0, 0, m)
    keys.sort()
    # keys of one length agree above the highest bit of their xor
    width = 2 * size + 3
    shared = [(8 * width - (a ^ b).bit_length()) >> 3 for a, b in zip(keys, keys[1:])]
    return list(map(int.to_bytes, keys, repeat(width), repeat("big"))), bytes([0, *shared])


# _within(limit)(shared, i): the first key from the i-th on that shares at
# most limit bytes with the key before it
_within = lru_cache(maxsize=None)(lambda limit: re.compile(b"[\\x00-\\x%02x]" % limit).search)

# A far end's residual below _CUT fails every tree through the step. If all
# other tests pass, fewer than 20 later steps into it raise it by at most
# 1e-12 each, plus rounding: peeled later, it fails its own test; never
# peeled (the last step's far end), it ends within 2.1e-9 of 0, as the
# marginals' totals agree to twice the tolerance, so it never fell below -2.2e-9.
_CUT = -1e3 * NORMALIZATION_TOL


def _feasible(
    p: Distribution | Sequence[float],
    q: Distribution | Sequence[float],
) -> tuple[int, int, list[tuple[bytes, list[float]]]]:
    """(n, m, trees): each feasible tree's steps and their edges' values, in
    tree order. Checks each marginal once, p before q, and the cell cap."""
    # raw masses are checked, unsorted, in _caller_order; a Distribution's
    # masses get the same checks before they are unsorted
    pvec = _caller_order(_checked(p) if isinstance(p, Distribution) else p)
    qvec = _caller_order(_checked(q) if isinstance(q, Distribution) else q)
    n, m = len(pvec), len(qvec)
    if n * m > CELL_CAP:
        raise TooLargeError(f"{n} x {m} grid exceeds the {CELL_CAP}-cell enumeration cap")
    keys, shared = _peel_index(n, m)
    end, count, floor = 2 * (n + m - 1), len(shared), -_ROUND
    within = [_within(limit) for limit in range(end)]
    # the residuals [*p, *q] after each step of the current key, and its values
    residuals, values = [[*pvec, *qvec]], []
    push, record = residuals.append, values.append
    found = []
    i = 0
    while i < count:
        depth = shared[i] >> 1
        del residuals[depth + 1:], values[depth:]
        residual = residuals[depth]
        key = keys[i]
        steps = iter(key[2 * depth:end])
        for node, other in zip(steps, steps):
            v = residual[node]
            if v < floor:
                failed = 2 * len(values)  # its node's byte
                break
            record(v)
            # a peeled node has no edge left, so its residual is never read again
            residual = residual[:]
            w = residual[other] = residual[other] - v
            push(residual)
            if w < _CUT:
                failed = 2 * len(values) - 1  # its far end's byte
                break
        else:
            found.append((key[end:], key[:end], values[:]))
            failed = end
        i += 1
        # the keys that share the failed byte fail there too
        if i < count and shared[i] > failed:
            skip = within[failed](shared, i)
            i = skip.start() if skip else count
    found.sort()
    return n, m, [(key, values) for _, key, values in found]


def _keyed(n: int, steps: bytes, values: list[float]) -> tuple[tuple, list[tuple[int, int, float]]]:
    """(key, cells): a solved tree's positive (r, c, v) cells in (r, c)
    order, and their deduplication key, the values rounded to 1e-12."""
    cells = sorted((min(node, other), max(node, other) - n, v)
                   for node, other, v in zip(steps[::2], steps[1::2], values) if v > 0.0)
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
    n, m, trees = _feasible(p, q)
    found: dict[tuple, list[tuple[int, int, float]]] = {}
    for steps, values in trees:
        key, cells = _keyed(n, steps, values)
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

    Examples:
        q merges p's last two masses, so a coupling reads q off p, at H(p):

        >>> res = brute_force_min_entropy([0.5, 0.25, 0.25], [0.5, 0.5])
        >>> res.opt_value, res.argmin.grid
        (1.5, ((0.5, 0.0), (0.0, 0.25), (0.0, 0.25)))
    """
    n, m, trees = _feasible(p, q)
    if not trees:
        raise InternalError("the coupling polytope has no scored vertex")
    # each tree's entropy, the float shannon_entropy returns for its positive cells
    scored = [(-math.fsum([v * math.log2(v) for v in values if v > 0.0]) + 0.0, steps, values)
              for steps, values in trees]
    near = min(h for h, _, _ in scored) + _NEAR
    found: dict[tuple, tuple[float, list[tuple[int, int, float]]]] = {}
    for h, steps, values in scored:
        if h <= near:
            key, cells = _keyed(n, steps, values)
            found.setdefault(key, (h, cells))
    best_value = math.inf
    best_cells: list[tuple[int, int, float]] = []
    for key in sorted(found):
        h, cells = found[key]
        if h < best_value - 1e-15:
            best_value = h
            best_cells = cells
    return OracleResult(best_value, _vertex(n, m, best_cells))
