"""Entropy bound reports and the coupling pseudo-metric estimate."""

from __future__ import annotations

import math
import random

import pytest

import mec
from conftest import (
    H_WORKED_GLB,
    H_WORKED_P,
    H_WORKED_Q,
    WORKED_P,
    WORKED_Q,
    grid64_masses,
    random_masses,
)


class TestBoundsReport:
    def test_worked_pair_values(self):
        b = mec.bounds_report(WORKED_P, WORKED_Q)
        assert b.h_p == pytest.approx(H_WORKED_P, abs=1e-12)
        assert b.h_q == pytest.approx(H_WORKED_Q, abs=1e-12)
        assert b.h_glb == pytest.approx(H_WORKED_GLB, abs=1e-12)
        assert b.joint_lower == b.h_glb
        assert b.mi_upper == pytest.approx(
            H_WORKED_P + H_WORKED_Q - H_WORKED_GLB, abs=1e-12
        )
        assert b.cond_lower_x_given_y == pytest.approx(
            H_WORKED_GLB - H_WORKED_Q, abs=1e-12
        )
        assert b.cond_lower_y_given_x == pytest.approx(
            H_WORKED_GLB - H_WORKED_P, abs=1e-12
        )

    def test_identical_marginals_allow_full_dependence(self):
        b = mec.bounds_report(WORKED_P, WORKED_P)
        assert b.h_glb == pytest.approx(b.h_p, abs=1e-9)
        assert b.mi_upper == pytest.approx(b.h_p, abs=1e-9)
        assert b.cond_lower_x_given_y == pytest.approx(0.0, abs=1e-9)
        assert b.cond_lower_y_given_x == pytest.approx(0.0, abs=1e-9)

    def test_point_mass_partner_pins_the_conditionals(self):
        b = mec.bounds_report([0.5, 0.5], [1.0])
        assert b.h_glb == pytest.approx(1.0, abs=1e-12)
        assert b.mi_upper == pytest.approx(0.0, abs=1e-12)
        assert b.cond_lower_x_given_y == pytest.approx(1.0, abs=1e-12)
        assert b.cond_lower_y_given_x == pytest.approx(0.0, abs=1e-12)

    def test_bounds_hold_on_random_pairs(self):
        rng = random.Random(179)
        saw_strict = False
        for _ in range(100):
            p = random_masses(rng, rng.randint(1, 7))
            q = random_masses(rng, rng.randint(1, 7))
            b = mec.bounds_report(p, q)
            assert b.h_glb >= max(b.h_p, b.h_q) - 1e-9
            assert b.mi_upper <= min(b.h_p, b.h_q) + 1e-9
            assert b.cond_lower_x_given_y >= -1e-9
            assert b.cond_lower_y_given_x >= -1e-9
            if b.h_glb > max(b.h_p, b.h_q) + 1e-9:
                saw_strict = True
        assert saw_strict  # incomparable pairs must push the floor strictly up

    def test_mutual_information_of_any_coupling_respects_the_cap(self):
        rng = random.Random(181)
        for _ in range(30):
            p = random_masses(rng, rng.randint(2, 5))
            q = random_masses(rng, rng.randint(2, 5))
            b = mec.bounds_report(p, q)
            h_joint = mec.shannon_entropy(
                mec.min_entropy_coupling_sparse(p, q).values()
            )
            assert b.h_p + b.h_q - h_joint <= b.mi_upper + 1e-9
            assert h_joint >= b.joint_lower - 1e-9


class TestMetricEstimate:
    def test_identical_marginals_have_zero_distance(self):
        e = mec.metric_estimate(WORKED_P, WORKED_P)
        assert e.d_hat == pytest.approx(0.0, abs=1e-9)
        assert e.lower == pytest.approx(0.0, abs=1e-9)
        assert e.upper == e.d_hat

    def test_coin_versus_constant(self):
        e = mec.metric_estimate([0.5, 0.5], [1.0])
        assert e.d_hat == pytest.approx(1.0, abs=1e-12)
        assert e.lower == pytest.approx(1.0, abs=1e-12)

    def test_window_brackets_the_true_distance(self):
        rng = random.Random(191)
        for _ in range(30):
            p = grid64_masses(rng, rng.randint(1, 4))
            q = grid64_masses(rng, rng.randint(1, 4))
            e = mec.metric_estimate(p, q)
            opt = mec.brute_force_min_entropy(p, q).opt_value
            h_p = mec.shannon_entropy(p)
            h_q = mec.shannon_entropy(q)
            true_d = 2.0 * opt - h_p - h_q
            assert e.lower - 1e-9 <= true_d <= e.upper + 1e-9
            assert e.upper - e.lower <= 2.0 + 1e-12

    def test_window_width_never_exceeds_two_bits(self):
        rng = random.Random(193)
        for _ in range(100):
            p = random_masses(rng, rng.randint(1, 8))
            q = random_masses(rng, rng.randint(1, 8))
            e = mec.metric_estimate(p, q)
            assert e.lower - 1e-12 <= e.d_hat <= e.lower + 2.0 + 1e-12
            assert e.upper == e.d_hat

    def test_symmetry(self):
        e_fwd = mec.metric_estimate(WORKED_P, WORKED_Q)
        e_rev = mec.metric_estimate(WORKED_Q, WORKED_P)
        assert e_fwd.d_hat == pytest.approx(e_rev.d_hat, abs=1e-9)
        assert e_fwd.lower == pytest.approx(e_rev.lower, abs=1e-12)


def reference_bounds_report(p, q) -> mec.BoundsReport:
    """``bounds_report`` as it stood when it checked each marginal twice:
    once coercing it, and again in ``glb``."""
    dp = mec.as_distribution(p)
    dq = mec.as_distribution(q)
    h_p = mec.shannon_entropy(dp.masses)
    h_q = mec.shannon_entropy(dq.masses)
    h_glb = mec.shannon_entropy(mec.glb(dp, dq).masses)
    return mec.BoundsReport(h_p, h_q, h_glb, h_glb, h_p + h_q - h_glb, h_glb - h_q, h_glb - h_p)


def reference_metric_estimate(p, q) -> mec.MetricEstimate:
    """``metric_estimate`` as it stood when it checked each marginal three
    times: coercing it, in ``glb`` and in the engine."""
    dp = mec.as_distribution(p)
    dq = mec.as_distribution(q)
    h_p = mec.shannon_entropy(dp.masses)
    h_q = mec.shannon_entropy(dq.masses)
    h_glb = mec.shannon_entropy(mec.glb(dp, dq).masses)
    h_alg = mec.shannon_entropy(mec.min_entropy_coupling_sparse(dp, dq).values())
    d_hat = 2.0 * h_alg - h_p - h_q
    return mec.MetricEstimate(d_hat, 2.0 * h_glb - h_p - h_q, d_hat)


def report_outcome(f, p, q):
    """The report's fields as float bits, or the type and message raised."""
    try:
        r = f(p, q)
    except Exception as exc:  # noqa: BLE001 - any exception must match the reference's
        return type(exc), str(exc)
    return [getattr(r, name).hex() for name in r.__slots__]


BAD_MARGINALS = [
    [0.5, math.nan, 0.5], [0.5, math.inf], [0.7, -0.2, 0.5], [0.5, 0.4], [],
    mec.Distribution((0.6, 0.5), (0, 1)),
    mec.Distribution((0.6, 0.5, -0.1), (2, 0, 1)),
    mec.Distribution((0.5, math.nan, 0.5), (0, 1, 2)),
    mec.Distribution((math.inf, 0.5), (1, 0)),
    mec.Distribution((), ()),
]


class TestReportsMatchTheReference:
    """Checking each marginal once keeps every report bit for bit, and a
    bad marginal on either side raises what it raised before."""

    PAIRS = [(mec.bounds_report, reference_bounds_report),
             (mec.metric_estimate, reference_metric_estimate)]

    @pytest.mark.parametrize("report, reference", PAIRS, ids=["bounds", "metric"])
    def test_same_bits_on_random_pairs(self, report, reference):
        rng = random.Random(197)
        for _ in range(100):
            p = random_masses(rng, rng.randint(1, 30))
            q = grid64_masses(rng, rng.randint(1, 30))
            for a, b in ((p, q), (mec.make_distribution(q), p)):
                assert report_outcome(report, a, b) == report_outcome(reference, a, b)

    @pytest.mark.parametrize("report, reference", PAIRS, ids=["bounds", "metric"])
    @pytest.mark.parametrize("bad", BAD_MARGINALS, ids=repr)
    def test_a_bad_marginal_raises_what_it_raised(self, report, reference, bad):
        good = list(WORKED_P)
        for a, b in ((bad, good), (good, bad), (bad, mec.make_distribution(good)),
                     (mec.make_distribution(good), bad)):
            want = report_outcome(reference, a, b)
            assert isinstance(want, tuple)
            assert report_outcome(report, a, b) == want
