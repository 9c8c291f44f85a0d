"""Acceptance gate: ten independent criteria, one test (one report line) each,
and beside criterion 09 a clock-free count of the work it times.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion. Tolerances are pinned in the assertions; numbered instances are
regenerated from fixed seeds, and the oracle batch is shared across the
criteria that reuse it.
"""

from __future__ import annotations

import gc
import math
import random
import time
from functools import lru_cache

import pytest

import mec
from mec.coupling import MassPool
from conftest import (
    H_REFERENCE_MATRIX,
    H_WORKED_GLB,
    REFERENCE_MATRIX_ENTRIES,
    WORKED_GLB,
    WORKED_P,
    WORKED_Q,
    grid64_masses,
    random_masses,
)

BOTH_ENGINES = (mec.min_entropy_coupling_dense, mec.min_entropy_coupling_sparse)


@lru_cache(maxsize=1)
def oracle_batch() -> tuple[tuple[tuple[tuple[float, ...], tuple[float, ...], float], ...], float]:
    """100 dyadic instances with n, m <= 4, scored exactly; returns
    ((p, q, opt), ...) plus the wall time the batch took."""
    rng = random.Random(64)
    t0 = time.perf_counter()
    out = []
    for _ in range(100):
        p = tuple(grid64_masses(rng, rng.randint(1, 4)))
        q = tuple(grid64_masses(rng, rng.randint(1, 4)))
        out.append((p, q, mec.brute_force_min_entropy(p, q).opt_value))
    return tuple(out), time.perf_counter() - t0


def best_time(fn, repeats: int, clock=time.perf_counter) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = clock()
        fn()
        best = min(best, clock() - t0)
    return best


def test_criterion_01_glb_golden_within_1e12_and_under_1ms():
    z = mec.glb(WORKED_P, WORKED_Q)
    assert z.n == len(WORKED_GLB)
    for got, want in zip(z.masses, WORKED_GLB):
        assert abs(got - want) <= 1e-12
    assert best_time(lambda: mec.glb(WORKED_P, WORKED_Q), repeats=200) < 1e-3


def test_criterion_02_reference_matrix_is_valid_within_one_bit():
    entries = tuple(mec.CouplingEntry(v, r, c) for v, r, c in REFERENCE_MATRIX_ENTRIES)
    m = mec.SparseCoupling(6, 6, entries)
    ok, why = mec.is_valid_coupling(m, WORKED_P, WORKED_Q)
    assert ok, why
    h = mec.shannon_entropy(m.values())
    assert h == pytest.approx(H_REFERENCE_MATRIX, abs=1e-12)
    assert h <= H_WORKED_GLB + 1.0


def test_criterion_03_both_engines_valid_sparse_and_near_optimal():
    for engine in BOTH_ENGINES:
        m = engine(WORKED_P, WORKED_Q)
        ok, why = mec.is_valid_coupling(m, WORKED_P, WORKED_Q, tol=1e-9)
        assert ok, why
        assert len(m.entries) <= 12
        h = mec.shannon_entropy(m.values())
        assert H_WORKED_GLB - 1e-9 <= h <= H_WORKED_GLB + 1.0 + 1e-9


def test_criterion_04_oracle_certifies_unit_gap_on_100_dyadic_pairs():
    instances, oracle_elapsed = oracle_batch()
    t0 = time.perf_counter()
    for p, q, opt in instances:
        assert opt >= mec.shannon_entropy(mec.glb(p, q).masses) - 1e-9
        for engine in BOTH_ENGINES:
            gap = mec.shannon_entropy(engine(p, q).values()) - opt
            assert -1e-9 <= gap <= 1.0 + 1e-9
    assert oracle_elapsed + (time.perf_counter() - t0) < 10.0


def test_criterion_05_renyi_gap_within_one_bit_for_three_orders():
    instances, _ = oracle_batch()
    for p, q, _opt in instances:
        z = mec.glb(p, q)
        for engine in BOTH_ENGINES:
            values = engine(p, q).values()
            for alpha in (0.5, 2.0, 10.0):
                assert mec.renyi_entropy(values, alpha) <= mec.renyi_entropy(z, alpha) + 1.0 + 1e-9


def test_criterion_06_k_way_gap_within_ceil_log2_k_bits():
    for k in (2, 3, 4, 8):
        rng = random.Random(600 + k)
        kappa = (k - 1).bit_length()
        for _ in range(25):
            ds = [random_masses(rng, rng.randint(1, 4)) for _ in range(k)]
            joint = mec.min_entropy_joint_k(ds)
            for got, want in zip(mec.axis_marginals(joint), ds):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-9
            h = mec.shannon_entropy(joint.values())
            assert h <= mec.joint_lower_bound_k(ds) + kappa + 1e-9
            if k == 2:
                pairwise = mec.min_entropy_coupling_sparse(ds[0], ds[1])
                assert sorted(joint.values()) == sorted(pairwise.values())


def test_criterion_07_half_operator_entropy_and_order_invariants():
    rng = random.Random(700)
    for _ in range(50):
        a = mec.make_distribution(random_masses(rng, rng.randint(1, 6)))
        b = mec.make_distribution(random_masses(rng, rng.randint(1, 6)))
        h_a = mec.shannon_entropy(a.masses)
        for i in (1, 2, 3):
            assert mec.shannon_entropy(mec.half_iter(a, i).masses) == pytest.approx(
                h_a + i, abs=1e-9
            )
            lhs = mec.half_iter(mec.glb(a, b), i)
            rhs = mec.glb(mec.half_iter(a, i), mec.half_iter(b, i))
            assert mec.majorizes(lhs, rhs)
        z = mec.glb(a, b)  # guaranteed comparable partner for the order check
        assert mec.majorizes(z, a) and mec.majorizes(mec.half(z), mec.half(a))
        assert mec.majorizes(z, b) and mec.majorizes(mec.half(z), mec.half(b))


def test_criterion_08_bound_ordering_with_a_strict_incomparable_case():
    rng = random.Random(800)
    strict_on_incomparable = False
    for _ in range(100):
        p = random_masses(rng, rng.randint(1, 7))
        q = random_masses(rng, rng.randint(1, 7))
        b = mec.bounds_report(p, q)
        assert max(b.h_p, b.h_q) <= b.h_glb + 1e-9
        assert b.mi_upper <= min(b.h_p, b.h_q) + 1e-9
        incomparable = not mec.majorizes(p, q) and not mec.majorizes(q, p)
        if incomparable and b.h_glb > max(b.h_p, b.h_q) + 1e-9:
            strict_on_incomparable = True
    assert strict_on_incomparable


def test_criterion_09_sparse_engine_under_5s_at_1e5_with_loglinear_ratios():
    def sorted_marginal(seed: int, n: int) -> mec.Distribution:
        rng = random.Random(seed)
        values = sorted((rng.random() + 1e-9 for _ in range(n)), reverse=True)
        total = math.fsum(values)
        return mec.Distribution(
            tuple(v / total for v in values), tuple(range(n))
        )

    def coupler(n: int):
        p = sorted_marginal(900 + n, n)
        q = sorted_marginal(901 + n, n)
        return lambda: mec.min_entropy_coupling_sparse(p, q)

    sizes = (10_000, 20_000, 40_000)
    couple = {n: coupler(n) for n in (100_000, *sizes)}
    times = dict.fromkeys(sizes, math.inf)
    gc.disable()
    try:
        assert best_time(couple[100_000], repeats=3) < 5.0
        # the ratios use this process's CPU time, which leaves out time spent
        # descheduled; the sizes take turns, in alternating order, so that a
        # slow spell of a shared host falls on all three sizes alike
        for repeat in range(5):
            for n in sizes if repeat % 2 == 0 else reversed(sizes):
                times[n] = min(times[n], best_time(couple[n], 1, time.process_time))
    finally:
        gc.enable()
    assert times[20_000] / times[10_000] <= 2.5
    assert times[40_000] / times[20_000] <= 2.5


def test_criterion_09_queue_work_by_count_not_clock(monkeypatch):
    # criterion 09's inputs, counted instead of timed: each glb component
    # splits at most once, and only a split pushes a piece, so a walk over n
    # components makes at most n - 1 pushes (index 0 cannot overflow) and
    # emits at most 2n - 1 cells. Every queued record is popped once, so the
    # heap work is O(n log n) with no host noise. The same holds for the
    # walk under a k-way merge
    def sorted_marginal(seed: int, n: int) -> mec.Distribution:
        rng = random.Random(seed)
        values = sorted((rng.random() + 1e-9 for _ in range(n)), reverse=True)
        total = math.fsum(values)
        return mec.Distribution(tuple(v / total for v in values), tuple(range(n)))

    pushes = []
    push = MassPool.push
    monkeypatch.setattr(MassPool, "push",
                        lambda pool, mass, origin: pushes.append(mass) or push(pool, mass, origin))
    for n in (10_000, 20_000, 40_000):
        p = sorted_marginal(900 + n, n)
        q = sorted_marginal(901 + n, n)
        for couple in (lambda: mec.min_entropy_coupling_sparse(p, q),
                       lambda: mec.min_entropy_joint_k([p, q])):
            pushes.clear()
            cells = len(couple().values())
            assert 0 < len(pushes) <= n - 1
            assert cells <= 2 * n - 1


def test_criterion_10_metric_sandwich_on_the_oracle_instances():
    instances, _ = oracle_batch()
    for p, q, opt in instances:
        est = mec.metric_estimate(p, q)
        true_d = 2.0 * opt - mec.shannon_entropy(p) - mec.shannon_entropy(q)
        assert est.lower - 1e-9 <= true_d <= est.d_hat + 1e-9
        assert est.d_hat - est.lower <= 2.0 + 1e-12
        assert est.upper == est.d_hat
