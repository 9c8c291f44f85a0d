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

Only an index of the trees' leaf peels is cached, per (n_rows, n_cols)
shape: each tree's peel, one (node, other) step per edge, is a key of one
byte per step (the step's rank among the shape's 2 * n * m steps); the keys
are sorted and stored as a trie flattened into one preorder stream, each
step once per distinct prefix (126,796 steps at 4x5, against 32,000 trees of
8). The stream has byte columns of each step's node, far end and depth, and
an int column ``link``. An inner step's link is the next step at its depth or
above, the first step past its subtree: it is 0 until first needed, then
filled by one search of the depth column. Filling is idempotent, so callers
that race on a link write the same value. A leaf has no subtree: pass or
fail, the walk goes on to the next step, so its link is free to hold its
tree's position in tree order. A small per-shape table maps each step to
its cell, for the keys below.
A call walks the stream once, one residual list per depth. A step fails if
its node's residual is below -1e-12, or if it leaves its far end's below
-1e-6 (see ``_CUT``): the walk then jumps to its link, past every tree that
shares the failed prefix; a passed step records its value and moves on to the
next. So a 4x5 call visits some 8,400 steps, not 32,000 trees of 8 steps, and
each tree still subtracts in its own peel order, to the same floats. The
walk hands each feasible leaf (about 3% of the trees at 4x5, 11% at 2x10 on
random marginals) to its caller as it reaches it, and keeps nothing of it.
A tree is keyed on its positive cells, 7 bytes per cell of its index and
its value rounded to 1e-12; a key keeps its first tree in tree order.
A caller keeps per tree at most its position, its last step and one float:
it rebuilds a tree it needs later from its last step, the path from the
depth column and the values by the same subtractions.
``enumerate_vertices`` keys every feasible leaf and builds a grid per key.
Brute force scores each leaf's entropy as it arrives and keeps a record only
for a leaf within a slack of the least so far; at the end it keys the
records within that slack of the least, and builds the argmin's grid. A
comment above ``brute_force_min_entropy`` shows why the slack loses no bit.
"""

from __future__ import annotations

import math
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

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
def _peel_index(n: int, m: int) -> tuple[bytes, bytes, bytes, array]:
    """(nodes, others, depths, link): the sorted peels of the spanning trees
    of K_{n,m} as one preorder stream of trie steps. Step t peels node
    nodes[t] into others[t] at depth depths[t]; link[t] is the tree's
    position for a leaf (the last depth), and for an inner step the next
    step at its depth or above once filled, 0 until then. Nodes are rows
    0..n-1 and columns n..n+m-1; step (node, other) peels a node whose last
    edge is the cell (min(node, other), max(node, other) - n)."""
    size = n + m - 1
    all_edges = [(r, c) for r in range(n) for c in range(m)]
    nodes = range(n + m)
    # a step's code is its rank among the shape's 2 * n * m (node, other)
    # steps in (node, other) order: one byte that sorts as the step does
    steps = [(v, o) for v in nodes for o in nodes if (v < n) != (o < n)]
    step_code = [[0] * len(nodes) for _ in nodes]
    for code, (v, o) in enumerate(steps):
        step_code[v][o] = code
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
            key = key << 8 | step_code[v][other]
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
    # grow's closure holds grow: without this, the cycle would keep the
    # build's lists until a cyclic collection
    del grow
    # popped in sorted order, so each key is freed once its steps are in
    keys.sort(reverse=True)
    # each key adds its steps from the first one it does not share with the
    # key before it; keys of one length agree above the highest bit of their xor
    bits = 8 * size + 24
    codes, depths, link = bytearray(), bytearray(), array("I")
    cut = [slice(d, -3) for d in range(size)]  # a key's steps from depth d on
    tails = [bytes(range(d, size)) for d in range(size)]
    unfilled = [array("I", bytes(4 * (size - 1 - d))) for d in range(size)]
    before = keys[-1] ^ 1 << (bits - 1)  # differs from the first key in its first step
    pop = keys.pop
    while keys:
        key = pop()
        depth = (bits - (key ^ before).bit_length()) >> 3
        before = key
        codes += key.to_bytes(bits >> 3, "big")[cut[depth]]
        depths += tails[depth]
        link += unfilled[depth]
        link.append(key & 0xFFFFFF)
    node_of, other_of = (bytes(step[a] for step in steps).ljust(256, b"\0") for a in (0, 1))
    return codes.translate(node_of), codes.translate(other_of), bytes(depths), link


# _within(limit)(depths, t): the first step from the t-th on at depth limit or
# above; from t + 1, the link of an inner step t at depth limit. One compiled
# pattern per depth, kept for the process
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
) -> tuple[int, int, Iterable[tuple[int, list[int], list[float], list[float]]]]:
    """(n, m, leaves): checks each marginal once, p before q, and the cell
    cap, and returns the walk of the shape's stream as a generator of its
    feasible leaves, in stream order. Each leaf is (position, path, values,
    base): its tree's position in tree order; the stream position of each of
    its steps, and their values, in lists the walk overwrites, so a caller
    reads them before it asks for the next leaf; and the residuals
    [*p, *q] the walk starts from, for :func:`_solved`.

    One pass over the stream: a step that passes goes on to the next step,
    and an inner step that fails goes to its link, past its subtree,
    filling the link on first use."""
    # raw masses are checked, unsorted, in _caller_order; a Distribution's
    # masses get the same checks before they are unsorted
    pvec = _caller_order(_checked(p) if isinstance(p, Distribution) else p)
    qvec = _caller_order(_checked(q) if isinstance(q, Distribution) else q)
    n, m = len(pvec), len(qvec)
    if n * m > CELL_CAP:
        raise TooLargeError(f"{n} x {m} grid exceeds the {CELL_CAP}-cell enumeration cap")
    return n, m, _walk(_peel_index(n, m), [*pvec, *qvec])


def _walk(
    index: tuple[bytes, bytes, bytes, array], base: list[float],
) -> Iterator[tuple[int, list[int], list[float], list[float]]]:
    """The leaves of :func:`_feasible`, from the shape's index and [*p, *q]."""
    nodes, others, depths, link = index
    last, count, floor = len(base) - 2, len(depths), -_ROUND
    # per depth, the residuals before the current path's step there, and the
    # path's steps and values above it
    residuals, path, values = [base] * (last + 1), [0] * (last + 1), [0.0] * (last + 1)
    t = 0
    while t < count:
        depth = depths[t]
        residual = residuals[depth]
        v = residual[nodes[t]]
        other = others[t]
        if v < floor or residual[other] - v < _CUT:
            if depth == last:
                t += 1
            else:
                # the steps below a failed step fail with it
                t = link[t] or _link(depths, link, t)
            continue
        path[depth] = t
        values[depth] = v
        if depth == last:
            yield link[t], path, values, base
        else:
            # a peeled node has no edge left, so its residual is never read again
            residual = residual[:]
            residual[other] -= v
            residuals[depth + 1] = residual
        t += 1


def _link(depths: bytes, link: array, t: int) -> int:
    """Fills and returns the inner step t's link."""
    after = _within(depths[t])(depths, t + 1)
    link[t] = after.start() if after else len(depths)
    return link[t]


def _solved(n: int, m: int, base: list[float], leaf: int) -> tuple[list[int], list[float]]:
    """(path, values) of the feasible tree whose last step is ``leaf``, as
    the walk had them there. A step's parent is the last step before it one
    depth up, and each value comes from the walk's subtractions, in its
    order, so to the same floats."""
    nodes, others, depths, _ = _peel_index(n, m)
    path = [leaf] * (depths[leaf] + 1)
    for depth in range(len(path) - 2, -1, -1):
        leaf = path[depth] = depths.rindex(depth, 0, leaf)
    residual = base[:]
    values = []
    for t in path:
        v = residual[nodes[t]]
        residual[others[t]] -= v
        values.append(v)
    return path, values


@lru_cache(maxsize=None)
def _cells(n: int, m: int) -> tuple[bytes, bytes, tuple[tuple[int, ...], ...]]:
    """(nodes, others, codes): the shape's stream columns of each step's node
    and far end, and per (node, other) step its cell r * m + c shifted left
    by 40 bits, above the cell's rounded value in a key."""
    nodes, others, _, _ = _peel_index(n, m)
    return nodes, others, tuple(
        tuple((min(v, o) * m + max(v, o) - n) << 40 if (v < n) != (o < n) else 0
              for o in range(n + m)) for v in range(n + m))


def _keyed(
    cells: tuple[bytes, bytes, tuple[tuple[int, ...], ...]], path: list[int], values: list[float],
) -> bytes:
    """A solved tree's deduplication key: per positive cell in (r, c) order,
    7 big-endian bytes of (r * m + c) << 40 | round(v / 1e-12). A value is at
    most 1 + 2e-9, under 2**40 * 1e-12, so the keys sort as the tuples of
    their (r, c, round(v / 1e-12)) cells do."""
    nodes, others, codes = cells
    key = sorted([codes[nodes[t]][others[t]] | round(v / _ROUND)
                  for t, v in zip(path, values) if v > 0.0])
    return b"".join([code.to_bytes(7, "big") for code in key])


def _vertex(n: int, m: int, path: list[int], values: list[float]) -> VertexCoupling:
    nodes, others, _, _ = _peel_index(n, m)
    grid = [[0.0] * m for _ in range(n)]
    for t, v in zip(path, values):
        if v > 0.0:
            node, other = nodes[t], others[t]
            if node < other:
                grid[node][other - n] = v
            else:
                grid[other][node - n] = v
    return VertexCoupling(
        tuple(tuple(row) for row in grid),
        tuple((r, c) for r in range(n) for c in range(m) if grid[r][c] > 0.0),
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
    n, m, leaves = _feasible(p, q)
    cells = _cells(n, m)
    # per key, its first tree in tree order: position and last step
    found: dict[bytes, tuple[int, int]] = {}
    base: list[float] = []
    for position, path, values, base in leaves:
        key = _keyed(cells, path, values)
        first = found.get(key)
        if first is None or position < first[0]:
            found[key] = position, path[-1]
    return [_vertex(n, m, *_solved(n, m, base, found[key][1])) for key in sorted(found)]


def _near_least(
    leaves: Iterable[tuple[int, list[int], list[float], list[float]]],
) -> tuple[float, list[tuple[int, float, int]], list[float]]:
    """(least, kept, base): scores each leaf as the walk reaches it, with
    the float shannon_entropy returns for its positive cells, and keeps
    (position, entropy, last step) only for a leaf within _NEAR of the least
    entropy so far; base is the residuals the leaves start from, empty if
    there is no leaf."""
    least = math.inf
    kept = []
    base: list[float] = []
    for position, path, values, base in leaves:
        h = -math.fsum([v * math.log2(v) for v in values if v > 0.0]) + 0.0
        if h <= least + _NEAR:
            kept.append((position, h, path[-1]))
            if h < least:
                least = h
    return least, kept, base


# Brute force keys only the trees whose entropy is within _NEAR of the least
# tree's, and returns the same bits as keying every tree would:
# - The least only falls as the walk goes on, so a tree within _NEAR of the
#   final least was within _NEAR of every least before it: the records that
#   _near_least keeps hold every tree of the keyed set, and the final filter
#   keeps exactly that set.
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

    Solves every feasible tree once and scores its entropy as the walk
    reaches it. Only the trees within 1e-6 bits of the least are keyed and
    deduplicated as :func:`enumerate_vertices` does, and their vertices are
    scanned in dedup-key order; a vertex replaces the best so far only if
    its entropy is more than 1e-15 lower. Returns the minimum in bits and
    the first vertex in dedup-key order attaining it, the same bits as a
    scan of every vertex of :func:`enumerate_vertices` gives.

    Raises:
        TooLargeError: as :func:`enumerate_vertices`.
        InternalError: no tree is feasible (a broken enumeration).

    Examples:
        q merges p's last two masses, so a coupling reads q off p, at H(p):

        >>> res = brute_force_min_entropy([0.5, 0.25, 0.25], [0.5, 0.5])
        >>> res.opt_value, res.argmin.grid
        (1.5, ((0.5, 0.0), (0.0, 0.25), (0.0, 0.25)))
    """
    n, m, leaves = _feasible(p, q)
    least, kept, base = _near_least(leaves)
    if not kept:
        raise InternalError("the coupling polytope has no scored vertex")
    near = least + _NEAR
    cells = _cells(n, m)
    # per key, the entropy and last step of its first tree in tree order
    found: dict[bytes, tuple[float, int]] = {}
    for _, h, leaf in sorted(kept):
        if h <= near:
            path, values = _solved(n, m, base, leaf)
            found.setdefault(_keyed(cells, path, values), (h, leaf))
    best_value = math.inf
    best_leaf = 0
    for key in sorted(found):
        h, leaf = found[key]
        if h < best_value - 1e-15:
            best_value = h
            best_leaf = leaf
    return OracleResult(best_value, _vertex(n, m, *_solved(n, m, base, best_leaf)))
