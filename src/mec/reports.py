"""Entropy bounds and the coupling pseudo-metric, packaged for reporting.

Everything here is a direct consequence of the glb being the entropy ceiling
of the pair: the glb entropy lower-bounds every coupling (so it bounds the
joint entropy from below, mutual information from above, and conditional
entropies from below), and the 1-bit engine gap turns it into a two-sided
estimate of the coupling-entropy pseudo-metric
d(p, q) = 2 * min-coupling-entropy - H(p) - H(q).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .coupling import _raw_cells, _walk
from .distributions import Distribution, _checked, _sorted_masses, shannon_entropy
from .majorization import _glb


@dataclass(frozen=True, slots=True)
class BoundsReport:
    h_p: float
    h_q: float
    h_glb: float
    joint_lower: float
    mi_upper: float
    cond_lower_x_given_y: float
    cond_lower_y_given_x: float


def bounds_report(
    p: Distribution | Sequence[float],
    q: Distribution | Sequence[float],
) -> BoundsReport:
    """Joint-entropy, mutual-information, and conditional-entropy bounds.

    For any pair (X, Y) with these marginals: H(X, Y) >= H(glb),
    I(X; Y) <= H(p) + H(q) - H(glb), H(X|Y) >= H(glb) - H(q), and
    symmetrically for H(Y|X). All in bits. Each marginal is checked once.
    """
    pm = _sorted_masses(p)
    qm = _sorted_masses(q)
    h_p = shannon_entropy(pm)
    h_q = shannon_entropy(qm)
    h_glb = shannon_entropy(_glb(pm, qm).masses)
    return BoundsReport(
        h_p=h_p,
        h_q=h_q,
        h_glb=h_glb,
        joint_lower=h_glb,
        mi_upper=h_p + h_q - h_glb,
        cond_lower_x_given_y=h_glb - h_q,
        cond_lower_y_given_x=h_glb - h_p,
    )


@dataclass(frozen=True, slots=True)
class MetricEstimate:
    d_hat: float
    lower: float
    upper: float


def metric_estimate(
    p: Distribution | Sequence[float],
    q: Distribution | Sequence[float],
) -> MetricEstimate:
    """Two-sided estimate of the coupling-entropy pseudo-metric.

    ``d_hat`` uses the sparse engine's coupling entropy; ``lower`` replaces
    it with the entropy of the glb that engine walked. The true distance lies
    in [lower, d_hat], and d_hat - lower <= 2 bits (one engine gap counted
    twice). Each marginal is checked once, and the glb computed once. The
    entropy is an ``fsum`` over the walk's raw cells, which are checked but
    never ordered: no cell order can change it.
    """
    dp, dq = _checked(p), _checked(q)
    cells, z = _walk(dp, dq)
    h_alg = shannon_entropy(_raw_cells(cells)[0])
    h_p = shannon_entropy(dp.masses)
    h_q = shannon_entropy(dq.masses)
    h_glb = shannon_entropy(z)
    d_hat = 2.0 * h_alg - h_p - h_q
    lower = 2.0 * h_glb - h_p - h_q
    return MetricEstimate(d_hat=d_hat, lower=lower, upper=d_hat)
