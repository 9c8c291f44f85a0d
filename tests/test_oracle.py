"""Exhaustive vertex enumeration and the exact small-instance optimum."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

import mec
from mec.oracle import CELL_CAP, _tree_schedules
from conftest import grid64_masses, random_masses


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


def shapes(cap: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(1, cap + 1) for m in range(1, cap // n + 1)]


class TestTreeSchedules:
    def test_equals_the_exhaustive_enumerator(self):
        for n, m in shapes(16):
            assert _tree_schedules(n, m) == reference_tree_schedules(n, m), (n, m)

    def test_counts_every_spanning_tree(self):
        # Scoins: K_{n,m} has n^(m-1) * m^(n-1) spanning trees
        for n, m in shapes(CELL_CAP):
            assert len(_tree_schedules(n, m)) == n ** (m - 1) * m ** (n - 1), (n, m)

    def test_schedules_peel_each_tree_leaf_by_leaf(self):
        for n, m in shapes(CELL_CAP):
            for edges, schedule in _tree_schedules(n, m):
                assert len(set(edges)) == len(edges) == n + m - 1
                assert sorted(e for _, e in schedule) == list(range(len(edges)))
                peeled: set[int] = set()
                for node, e in schedule:
                    live = [
                        i for i, (r, c) in enumerate(edges)
                        if i not in peeled and node in (r, n + c)
                    ]
                    assert live == [e], (n, m, edges, schedule)
                    peeled.add(e)


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
        monkeypatch.setattr(mec.oracle, "enumerate_vertices", lambda p, q: [])
        with pytest.raises(mec.InternalError):
            mec.brute_force_min_entropy([0.5, 0.5], [1.0])
