"""Shared test data and generators."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import mec

# the six-component pair exercised throughout: incomparable marginals whose
# greatest lower bound and near-optimal couplings are known by hand
WORKED_P = (0.4, 0.3, 0.15, 0.08, 0.04, 0.03)
WORKED_Q = (0.44, 0.18, 0.18, 0.15, 0.03, 0.02)
WORKED_GLB = (0.4, 0.22, 0.18, 0.13, 0.04, 0.03)

# entropies in bits, computed once with 60-digit arithmetic and frozen
H_WORKED_GLB = 2.1748174570799814
H_WORKED_P = 2.089435308774312
H_WORKED_Q = 2.086950812692169
H_REFERENCE_MATRIX = 2.634819582452883

# a hand-checkable near-optimal coupling of the worked pair: row sums give
# WORKED_P, column sums give WORKED_Q, 11 cells, each glb component split
# at most once
REFERENCE_MATRIX_ENTRIES = (
    (0.4, 0, 0),
    (0.04, 1, 0),
    (0.18, 1, 1),
    (0.03, 1, 2),
    (0.05, 1, 3),
    (0.15, 2, 2),
    (0.08, 3, 3),
    (0.02, 4, 3),
    (0.02, 4, 4),
    (0.01, 5, 4),
    (0.02, 5, 5),
)


def random_masses(rng: random.Random, n: int) -> list[float]:
    """Uniformly random positive masses normalized to sum 1."""
    values = [rng.random() + 1e-6 for _ in range(n)]
    total = sum(values)
    return [v / total for v in values]


def zero_padded_masses(rng: random.Random, n: int, zeros: int) -> list[float]:
    """``random_masses`` with ``zeros`` explicit zero components inserted."""
    masses = random_masses(rng, n)
    for _ in range(zeros):
        masses.insert(rng.randrange(len(masses) + 1), 0.0)
    return masses


def grid64_masses(rng: random.Random, n: int) -> list[float]:
    """Random masses that are positive multiples of 1/64 summing to exactly 1.

    Dyadic values keep oracle arithmetic exact: each part and the total are
    representable doubles, so tolerance flakiness cannot creep in.
    """
    cuts = sorted(rng.sample(range(1, 64), n - 1)) if n > 1 else []
    parts = []
    prev = 0
    for c in cuts + [64]:
        parts.append((c - prev) / 64.0)
        prev = c
    return parts


def geometric_masses(rng: random.Random, n: int) -> list[float]:
    """Masses exp(-50 k / n), shuffled and normalized to sum 1.

    The smallest is e^-25 (1.4e-11) at n = 2 and, from n = 3 on, below
    e^-33 (3.4e-15), far under the 1e-12 internal tolerance, so many oracle
    vertices differ only in cells too small to move their entropy.
    """
    values = [math.exp(-50 * k / n) for k in range(n)]
    rng.shuffle(values)
    total = math.fsum(values)
    return [v / total for v in values]


def copied_cells(cells: tuple) -> tuple:
    """The walk's raw cells with their value, row and col lists copied:
    ``_finish`` empties the lists it is handed, so a test that reads the
    cells again hands it the copy."""
    return (*map(list, cells[:3]), *cells[3:])


def exact_unit(masses) -> list[Fraction]:
    """Float masses as exact fractions, scaled to total exactly 1."""
    exact = list(map(Fraction, masses))
    total = sum(exact)
    return [x / total for x in exact]


def exact_glb(p, q) -> list[Fraction]:
    """The glb of the float marginals p and q in exact arithmetic, each
    scaled by ``exact_unit``: the first differences of the componentwise
    minima of their sorted prefix sums."""
    n = max(len(p), len(q))
    a, b = (sorted(exact_unit(d), reverse=True) + [Fraction(0)] * (n - len(d)) for d in (p, q))
    z, low, pa, pb = [], 0, 0, 0
    for x, y in zip(a, b):
        pa, pb = pa + x, pb + y
        top = min(pa, pb)
        z.append(top - low)
        low = top
    return z


def exact_vertex_values(support, p, q) -> list[Fraction] | None:
    """The cell values a vertex's support of (r, c) cells forces on the
    float marginals p and q, each scaled by ``exact_unit``, in exact
    arithmetic: the support is a forest, so its cells are solved by peeling
    a leaf's cell at a time. None unless the values are non-negative and
    meet every marginal exactly."""
    n = len(p)
    residual = exact_unit(p) + exact_unit(q)
    ends = [(r, n + c) for r, c in support]
    values = []
    while ends:
        degree = Counter(node for end in ends for node in end)
        k = next(k for k, (a, b) in enumerate(ends) if 1 in (degree[a], degree[b]))
        a, b = ends.pop(k)
        leaf, other = (a, b) if degree[a] == 1 else (b, a)
        values.append(residual[leaf])
        residual[other] -= residual[leaf]
        residual[leaf] = Fraction(0)
    return None if any(residual) or any(v < 0 for v in values) else values


def random_distribution(rng: random.Random, max_n: int = 8) -> mec.Distribution:
    return mec.make_distribution(
        random_masses(rng, rng.randint(1, max_n)), renormalize=True
    )
