"""Exhaustive vertex enumeration and the exact small-instance optimum."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from functools import lru_cache
from itertools import combinations

import pytest

import mec
from mec.distributions import _caller_order
from mec.oracle import _ROUND, CELL_CAP, OracleResult, VertexCoupling, _peel_index
from conftest import geometric_masses, grid64_masses, random_masses, zero_padded_masses


def reference_tree_schedules(n: int, m: int):
    """The exhaustive enumerator the pruned search replaced: every
    (n + m - 1)-subset of the n * m edges, in combinations order, filtered
    by union-find, then peeled."""
    all_edges = [(r, c) for r in range(n) for c in range(m)]
    node_count = n + m
    out = []
    for picked in combinations(range(len(all_edges)), node_count - 1):
        parent = list(range(node_count))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for ei in picked:
            r, c = all_edges[ei]
            ra, rb = find(r), find(n + c)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue
        edges = tuple(all_edges[ei] for ei in picked)
        degree = [0] * node_count
        incident: list[list[int]] = [[] for _ in range(node_count)]
        for idx, (r, c) in enumerate(edges):
            for node in (r, n + c):
                degree[node] += 1
                incident[node].append(idx)
        done = [False] * len(edges)
        leaves = [v for v in range(node_count) if degree[v] == 1]
        schedule = []
        while leaves:
            v = leaves.pop()
            if degree[v] != 1:
                continue
            edge_idx = next(idx for idx in incident[v] if not done[idx])
            done[edge_idx] = True
            schedule.append((v, edge_idx))
            r, c = edges[edge_idx]
            other = n + c if v == r else r
            degree[other] -= 1
            degree[v] -= 1
            if degree[other] == 1:
                leaves.append(other)
        out.append((edges, tuple(schedule)))
    return tuple(out)


# The package's per-shape schedule cache before the prefix index replaced it,
# kept verbatim: reference_enumerate_vertices walks these schedules, so the
# bit-identity pins compare two enumerations that share no code.
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


def tree_edges(n: int, schedule):
    """A tree's edges in index order, read off its schedule: step
    (node, other, e) holds the e-th edge, whose row is the smaller node."""
    edges = [None] * len(schedule)
    for node, other, e in schedule:
        edges[e] = (min(node, other), max(node, other) - n)
    return tuple(edges)


def reference_enumerate_vertices(p, q):
    """The one-pass tree loop the two-pass one replaced: it solves each tree
    while it checks it, and builds a grid for every feasible tree. It reads
    only the node and the edge of each step and finds the far end from the
    edge. Returns the vertices and the number of feasible trees."""
    pvec = _caller_order(p)
    qvec = _caller_order(q)
    n, m = len(pvec), len(qvec)
    found = {}
    feasible_trees = 0
    for schedule in _tree_schedules(n, m):
        edges = tree_edges(n, schedule)
        residual = list(pvec) + list(qvec)
        values = [0.0] * len(edges)
        feasible = True
        for node, _, edge_idx in schedule:
            v = residual[node]
            if v < -_ROUND:
                feasible = False
                break
            values[edge_idx] = v
            r, c = edges[edge_idx]
            other = n + c if node == r else r
            residual[other] -= v
            residual[node] = 0.0
        if not feasible:
            continue
        feasible_trees += 1
        grid = [[0.0] * m for _ in range(n)]
        for (r, c), v in zip(edges, values):
            if v > 0.0:
                grid[r][c] = v
        support = tuple(
            (r, c) for r in range(n) for c in range(m) if grid[r][c] > 0.0
        )
        key = tuple((r, c, round(grid[r][c] / _ROUND)) for r, c in support)
        if key not in found:
            found[key] = VertexCoupling(tuple(tuple(row) for row in grid), support)
    return [found[key] for key in sorted(found)], feasible_trees


def reference_brute_force_min_entropy(p, q) -> OracleResult:
    vertices, _ = reference_enumerate_vertices(p, q)
    best_value = math.inf
    best_vertex = None
    for vertex in vertices:
        h = mec.shannon_entropy(vertex.values())
        if h < best_value - 1e-15:
            best_value = h
            best_vertex = vertex
    return OracleResult(best_value, best_vertex)


def vertex_bits(vertex: VertexCoupling):
    return vertex.support, tuple(x.hex() for row in vertex.grid for x in row)


def zero_containing_masses(rng: random.Random, n: int) -> list[float]:
    zeros = min(2, n - 1)
    return zero_padded_masses(rng, n - zeros, zeros)


def uniform_masses(rng: random.Random, n: int) -> list[float]:
    return [1.0 / n] * n


def nudged_grid64_masses(rng: random.Random, n: int) -> list[float]:
    """``grid64_masses`` with 1e-13 moved from one component to another, so
    vertices that tie on the dyadic grid differ below the dedup rounding."""
    masses = grid64_masses(rng, n)
    if n > 1:
        i, j = rng.sample(range(n), 2)
        masses[i] -= 1e-13
        masses[j] += 1e-13
    return masses


def shapes(cap: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(1, cap + 1) for m in range(1, cap // n + 1)]


def index_trees(n: int, m: int):
    """The trees of the shape's peel index, in tree order, as (edges, peel):
    the edges in index order, and per step the peeled node and the index of
    its edge. Decodes the stream in order, keeping the path by depth: checks
    that each step descends at most one depth and differs from the path's
    step at its depth, so the keys it implies (a leaf's path, step by step)
    are strictly increasing, that each step joins a row to a column, and
    that the leaves' links are the tree positions 0, 1, 2, ..."""
    nodes, others, depths, link = _peel_index(n, m)
    size = n + m - 1
    assert len(nodes) == len(others) == len(depths) == len(link)
    trees = {}
    path: list[tuple[int, int]] = []
    before = None
    for t, depth in enumerate(depths):
        assert depth <= len(path) and depth < size, (n, m, t)
        step = (nodes[t], others[t])
        assert depth == len(path) or path[depth] != step, (n, m, t)
        del path[depth:]
        path.append(step)
        if depth < size - 1:
            continue
        assert before is None or path > before, (n, m, t)
        before = path[:]
        cells = []
        for node, other in path:
            row, col = min(node, other), max(node, other)
            assert row < n <= col < n + m, (n, m, path)
            cells.append((row, col - n))
        edges = tuple(sorted(cells))
        peel = tuple((node, edges.index(cell)) for (node, _), cell in zip(path, cells))
        trees[link[t]] = (edges, peel)
    assert sorted(trees) == list(range(depths.count(size - 1)))
    return tuple(trees[t] for t in range(len(trees)))


def fill_links(n: int, m: int) -> None:
    """Fills every inner link of the shape's cached index, as walks do."""
    _, _, depths, link = _peel_index(n, m)
    last = n + m - 2
    for t, depth in enumerate(depths):
        if depth < last:
            mec.oracle._link(depths, link, t)


class TestTreeSchedules:
    def test_equals_the_exhaustive_enumerator(self):
        for n, m in shapes(16):
            assert index_trees(n, m) == reference_tree_schedules(n, m), (n, m)

    def test_counts_every_spanning_tree(self):
        # Scoins: K_{n,m} has n^(m-1) * m^(n-1) spanning trees
        for n, m in shapes(CELL_CAP):
            _, _, depths, _ = _peel_index(n, m)
            assert depths.count(n + m - 2) == n ** (m - 1) * m ** (n - 1), (n, m)

    def test_schedules_peel_each_tree_leaf_by_leaf(self):
        for n, m in shapes(CELL_CAP):
            for edges, peel in index_trees(n, m):
                assert len(set(edges)) == len(edges) == n + m - 1
                assert sorted(e for _, e in peel) == list(range(len(edges)))
                peeled: set[int] = set()
                for node, e in peel:
                    live = [
                        i for i, (r, c) in enumerate(edges)
                        if i not in peeled and node in (r, n + c)
                    ]
                    assert live == [e], (n, m, edges, peel)
                    peeled.add(e)

    def test_cache_holds_only_schedules(self):
        # __wrapped__ builds a fresh index, so the shared cache is neither
        # cleared nor refilled; a 4x5 table of (edges, schedule) pairs
        # retained 8.6 MiB, one of shared step tuples 3.4-3.7 MiB, and the
        # sorted keys with their prefix column 1.9 MiB. A build that also
        # kept each key's bytes peaked at 7.8 MiB
        tracemalloc.start()
        try:
            index = _peel_index.__wrapped__(4, 5)
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index[2].count(7) == 32_000
        assert retained < 2**20, retained
        assert peak < 5 * 2**20, peak


def scanned_link(depths: bytes, t: int) -> int:
    """The first step after t at t's depth or above, by a plain scan."""
    return next((u for u in range(t + 1, len(depths)) if depths[u] <= depths[t]), len(depths))


class TestStreamLinks:
    def test_filled_links_walk_to_the_same_bits(self):
        # a fresh index fills its links as walks fail; one filled in full
        # first must give every call the same trees, so the same bits
        rng = random.Random(211)
        families = (random_masses, grid64_masses, nudged_grid64_masses, uniform_masses,
                    zero_containing_masses)

        def bits(p, q):
            res = mec.brute_force_min_entropy(p, q)
            vertices = mec.enumerate_vertices(p, q)
            return [vertex_bits(v) for v in vertices], res.opt_value.hex(), vertex_bits(res.argmin)

        for n, m in shapes(CELL_CAP):
            instances = [(masses(rng, n), masses(rng, m)) for masses in families]
            _peel_index.cache_clear()
            link = _peel_index(n, m)[3]
            built = link[:]
            fresh = []
            for p, q in instances:
                link[:] = built  # each call starts from the fresh index's links
                fresh.append(bits(p, q))
            fill_links(n, m)
            assert [bits(p, q) for p, q in instances] == fresh, (n, m)

    def test_each_filled_link_is_the_next_step_at_its_depth_or_above(self):
        rng = random.Random(223)
        for n, m in shapes(12):
            _peel_index.cache_clear()
            _, _, depths, link = _peel_index(n, m)
            last = n + m - 2
            # links a walk filled, then every link
            mec.brute_force_min_entropy(random_masses(rng, n), random_masses(rng, m))
            for fill in (False, True):
                if fill:
                    fill_links(n, m)
                for t, depth in enumerate(depths):
                    if depth < last and (fill or link[t]):
                        assert link[t] == scanned_link(depths, t), (n, m, t)

    def test_the_stream_shares_the_steps_of_common_prefixes(self):
        _, _, depths, _ = _peel_index(4, 5)
        assert len(depths) < 32_000 * 8


class TestTwoPassLoopMatchesTheReference:
    def test_vertices_and_optimum_are_bit_identical(self):
        rng = random.Random(179)
        for n, m in shapes(CELL_CAP):
            if n > m:
                continue  # the swapped call below covers the m x n shape
            for masses in (random_masses, grid64_masses, zero_containing_masses):
                p = masses(rng, n)
                q = masses(rng, m)
                for a, b in ((p, q), (q, p)):
                    expected, _ = reference_enumerate_vertices(a, b)
                    got = mec.enumerate_vertices(a, b)
                    assert [vertex_bits(v) for v in got] == [
                        vertex_bits(v) for v in expected
                    ], (a, b)
                    res = mec.brute_force_min_entropy(a, b)
                    ref = reference_brute_force_min_entropy(a, b)
                    assert res.opt_value.hex() == ref.opt_value.hex(), (a, b)
                    assert vertex_bits(res.argmin) == vertex_bits(ref.argmin), (a, b)

    def test_marginals_off_by_the_normalization_tolerance_are_bit_identical(self):
        # the walk fails a tree once a far end's residual drops below -1e-6.
        # The last step's far end is never tested, and here it can end
        # sum(p) - sum(q), about -1.8e-9: a cut at -1e-12 would drop
        # feasible trees
        rng = random.Random(199)
        for n, m in shapes(12):
            p = [x * (1 - 9e-10) for x in random_masses(rng, n)]
            q = [x * (1 + 9e-10) for x in random_masses(rng, m)]
            for a, b in ((p, q), (q, p)):
                expected, _ = reference_enumerate_vertices(a, b)
                got = mec.enumerate_vertices(a, b)
                assert [vertex_bits(v) for v in got] == [
                    vertex_bits(v) for v in expected
                ], (a, b)
                res = mec.brute_force_min_entropy(a, b)
                ref = reference_brute_force_min_entropy(a, b)
                assert res.opt_value.hex() == ref.opt_value.hex(), (a, b)
                assert vertex_bits(res.argmin) == vertex_bits(ref.argmin), (a, b)

    def test_each_returned_vertex_is_built_once(self, monkeypatch):
        built = []

        def counting_vertex(grid, support):
            built.append(support)
            return VertexCoupling(grid, support)

        monkeypatch.setattr(mec.oracle, "VertexCoupling", counting_vertex)
        rng = random.Random(181)
        instances = [([0.25] * 4, [0.25] * 4), ([0.5, 0.5], [0.5, 0.5])]
        instances += [(grid64_masses(rng, n), grid64_masses(rng, m)) for n, m in shapes(12)]
        shared = 0
        for p, q in instances:
            built.clear()
            vertices = mec.enumerate_vertices(p, q)
            assert len(built) == len(vertices), (p, q)
            _, feasible_trees = reference_enumerate_vertices(p, q)
            shared += feasible_trees > len(vertices)
        # degenerate vertices, reached by several feasible trees, occur
        assert shared >= 2

    def test_brute_force_builds_only_the_argmin(self, monkeypatch):
        built = []

        def counting_vertex(grid, support):
            built.append(support)
            return VertexCoupling(grid, support)

        monkeypatch.setattr(mec.oracle, "VertexCoupling", counting_vertex)
        rng = random.Random(191)
        instances = [([0.25] * 4, [0.25] * 4), ([0.5, 0.5], [0.5, 0.5])]
        instances += [(random_masses(rng, n), random_masses(rng, m)) for n, m in shapes(12)]
        several = 0
        for p, q in instances:
            built.clear()
            res = mec.brute_force_min_entropy(p, q)
            assert built == [res.argmin.support], (p, q)
            several += len(mec.enumerate_vertices(p, q)) > 1
        # a 1 x m or n x 1 instance has one vertex; the others have more to skip
        assert several >= 10

    def test_optimum_is_bit_identical_where_trees_crowd_the_minimum(self):
        # brute force keys only the trees within 1e-6 bits of the least; these
        # families put many trees there: uniform marginals tie whole sets of
        # vertices, dyadic ones tie some, the nudged dyadic ones split ties
        # below the dedup rounding, and geometric tails leave cells too small
        # to move the entropy
        rng = random.Random(197)
        families = (uniform_masses, grid64_masses, nudged_grid64_masses, geometric_masses)
        for n, m in shapes(CELL_CAP):
            for masses in families:
                p = masses(rng, n)
                q = masses(rng, m)
                res = mec.brute_force_min_entropy(p, q)
                ref = reference_brute_force_min_entropy(p, q)
                assert res.opt_value.hex() == ref.opt_value.hex(), (p, q)
                assert vertex_bits(res.argmin) == vertex_bits(ref.argmin), (p, q)

    def test_brute_force_keys_only_the_trees_near_the_minimum(self, monkeypatch):
        # the saving counted instead of timed: enumerate_vertices keys every
        # feasible tree, hundreds at 4x5 and 2x10 on random marginals, and
        # brute force keys only the few within 1e-6 bits of the least
        keyed = []
        key = mec.oracle._keyed
        monkeypatch.setattr(mec.oracle, "_keyed",
                            lambda n, steps, values: keyed.append(steps) or key(n, steps, values))
        rng = random.Random(193)
        for n, m in ((4, 5), (2, 10)):
            many = 0
            for _ in range(5):
                p = random_masses(rng, n)
                q = random_masses(rng, m)
                keyed.clear()
                mec.brute_force_min_entropy(p, q)
                assert 1 <= len(keyed) <= 4, (p, q)
                keyed.clear()
                mec.enumerate_vertices(p, q)
                _, feasible_trees = reference_enumerate_vertices(p, q)
                assert len(keyed) == feasible_trees, (p, q)
                many += feasible_trees >= 100
            assert many >= 3, (n, m)


class TestEnumerateVertices:
    def test_single_cell(self):
        vertices = mec.enumerate_vertices([1.0], [1.0])
        assert len(vertices) == 1
        assert vertices[0].grid == ((1.0,),)
        assert vertices[0].support == ((0, 0),)

    def test_point_mass_column_forces_the_coupling(self):
        vertices = mec.enumerate_vertices([0.5, 0.5], [1.0])
        assert len(vertices) == 1
        assert vertices[0].grid == ((0.5,), (0.5,))

    def test_uniform_two_by_two_has_the_two_permutation_vertices(self):
        vertices = mec.enumerate_vertices([0.5, 0.5], [0.5, 0.5])
        grids = {v.grid for v in vertices}
        assert grids == {
            ((0.5, 0.0), (0.0, 0.5)),
            ((0.0, 0.5), (0.5, 0.0)),
        }

    def test_vertices_are_valid_couplings_with_tree_sized_support(self):
        rng = random.Random(163)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            p = random_masses(rng, n)
            q = random_masses(rng, m)
            vertices = mec.enumerate_vertices(p, q)
            assert vertices
            for v in vertices:
                ok, why = mec.is_valid_coupling(v.as_coupling(), p, q)
                assert ok, why
                assert len(v.support) <= n + m - 1

    def test_caller_order_is_respected_for_unsorted_marginals(self):
        p = [0.1, 0.6, 0.3]
        q = [0.2, 0.8]
        for v in mec.enumerate_vertices(p, q):
            for r in range(3):
                assert math.fsum(v.grid[r]) == pytest.approx(p[r], abs=1e-9)
            for c in range(2):
                col = math.fsum(v.grid[r][c] for r in range(3))
                assert col == pytest.approx(q[c], abs=1e-9)

    def test_enumeration_is_deterministic(self):
        p = [0.4, 0.35, 0.25]
        q = [0.5, 0.3, 0.2]
        assert mec.enumerate_vertices(p, q) == mec.enumerate_vertices(p, q)

    def test_cell_cap(self):
        p = random_masses(random.Random(1), 5)
        q = random_masses(random.Random(2), 5)
        with pytest.raises(mec.TooLargeError):
            mec.enumerate_vertices(p, q)

    def test_values_lists_support_cells(self):
        (v,) = mec.enumerate_vertices([0.5, 0.5], [1.0])
        assert v.values() == (0.5, 0.5)


class TestBruteForceMinEntropy:
    def test_identical_marginals_reach_their_own_entropy(self):
        res = mec.brute_force_min_entropy([0.5, 0.25, 0.25], [0.5, 0.25, 0.25])
        assert res.opt_value == pytest.approx(1.5, abs=1e-12)
        assert res.argmin.grid == (
            (0.5, 0.0, 0.0),
            (0.0, 0.25, 0.0),
            (0.0, 0.0, 0.25),
        )

    def test_forced_coupling_has_forced_entropy(self):
        res = mec.brute_force_min_entropy([0.5, 0.5], [1.0])
        assert res.opt_value == pytest.approx(1.0, abs=1e-12)

    def test_argmin_entropy_equals_the_reported_optimum(self):
        rng = random.Random(167)
        for _ in range(10):
            p = random_masses(rng, rng.randint(2, 4))
            q = random_masses(rng, rng.randint(2, 4))
            res = mec.brute_force_min_entropy(p, q)
            assert mec.shannon_entropy(res.argmin.values()) == pytest.approx(
                res.opt_value, abs=1e-12
            )

    def test_optimum_is_sandwiched_by_floor_and_greedy(self):
        rng = random.Random(173)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            p = grid64_masses(rng, n)
            q = grid64_masses(rng, m)
            opt = mec.brute_force_min_entropy(p, q).opt_value
            floor = mec.shannon_entropy(mec.glb(p, q).masses)
            assert opt >= floor - 1e-9
            for engine in (
                mec.min_entropy_coupling_dense,
                mec.min_entropy_coupling_sparse,
            ):
                h = mec.shannon_entropy(engine(p, q).values())
                assert opt <= h + 1e-9
                assert h <= opt + 1.0 + 1e-9

    def test_cell_cap_propagates(self):
        with pytest.raises(mec.TooLargeError):
            mec.brute_force_min_entropy([0.2] * 5, [0.2] * 5)

    def test_no_vertex_is_an_internal_error(self, monkeypatch):
        # an invariant failure, raised even where python -O strips asserts
        monkeypatch.setattr(mec.oracle, "_feasible", lambda p, q: (2, 1, []))
        with pytest.raises(mec.InternalError):
            mec.brute_force_min_entropy([0.5, 0.5], [1.0])
