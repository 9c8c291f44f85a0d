"""Majorization preorder, lattice greatest lower bound, and the half operator.

For sorted probability vectors, ``a`` is below ``b`` (written a <= b here)
when every prefix sum of ``a`` is at most the matching prefix sum of ``b``.
Under this order the sorted vectors form a lattice; the greatest lower bound
is computed by differencing the componentwise minima of the two prefix-sum
vectors. Entropy is Schur-concave, so the glb is the entropy ceiling of the
pair and drives every bound in this package. :func:`glb` checks each input
once as a marginal, a hand-built :class:`Distribution` too, not its output.

The half operator splits each component into two equal pieces, adding exactly
one bit of entropy per application; it is the accounting device behind the
multi-marginal gap analysis.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, repeat, zip_longest

from .distributions import (
    INTERNAL_TOL,
    Distribution,
    _check_order,
    _checked,
    _sorted_distribution,
    _sorted_masses,
    compensated_prefix,
)
from .errors import EmptyError, SizeCapError

HALF_COMPONENT_CAP = 2**20


def majorizes(a: Distribution | Sequence[float], b: Distribution | Sequence[float]) -> bool:
    """True iff ``a`` sits below ``b`` in the majorization order (a <= b).

    Inputs of unequal length are zero-padded to a common length; prefix sums
    are compared with 1e-12 slack so that exact-in-theory ties do not flip on
    roundoff.
    """
    am, bm = _sorted_masses(a), _sorted_masses(b)
    n = max(len(am), len(bm))
    pa = compensated_prefix(chain(am, repeat(0.0, n - len(am))))
    pb = compensated_prefix(chain(bm, repeat(0.0, n - len(bm))))
    return all(x <= y + INTERNAL_TOL for x, y in zip(pa, pb))


def glb(p: Distribution | Sequence[float], q: Distribution | Sequence[float]) -> Distribution:
    """Greatest lower bound of two distributions in the majorization order.

    The output's k-th prefix sum is min(prefix_p[k], prefix_q[k]); the masses
    are the first differences of that sequence. Negative differences can only
    arise from roundoff (the prefix minima are non-decreasing); they are
    clamped to zero and the deficit folded into the next component so prefix
    sums stay within tolerance.
    """
    return _glb(_sorted_masses(p), _sorted_masses(q))


def _glb(pm: Sequence[float], qm: Sequence[float]) -> Distribution:
    # the glb of checked sorted masses: they and their prefix sums are
    # non-negative, so the sums need no abs, and the glb needs no check
    masses: list[float] = []
    # the two compensated prefix sums (as in compensated_prefix) and the
    # clamped differences of their minimum, in one pass
    sp = ep = sq = eq = 0.0
    previous = 0.0
    carry = 0.0
    for x, y in zip_longest(pm, qm, fillvalue=0.0):
        t = sp + x
        if sp >= x:
            ep += (sp - t) + x
        else:
            ep += (x - t) + sp
        sp = t
        t = sq + y
        if sq >= y:
            eq += (sq - t) + y
        else:
            eq += (y - t) + sq
        sq = t
        a = sp + ep
        b = sq + eq
        m = a if a <= b else b
        z = m - previous + carry
        if z < 0.0:
            carry = z
            z = 0.0
        else:
            carry = 0.0
        masses.append(z)
        previous = m
    masses = tuple(masses)
    try:
        _check_order(masses)
    except ValueError:  # roundoff put two differences out of order
        order = sorted(range(len(masses)), key=masses.__getitem__, reverse=True)
        return _sorted_distribution(tuple(map(masses.__getitem__, order)), tuple(order))
    # a stable reverse sort of non-increasing differences is the identity
    return _sorted_distribution(masses, tuple(range(len(masses))))


def glb_many(ds: Sequence[Distribution | Sequence[float]]) -> Distribution:
    """Left fold of :func:`glb` over one or more inputs, each checked once."""
    if len(ds) == 0:
        raise EmptyError("glb_many requires at least one distribution")
    acc = _checked(ds[0])
    for d in ds[1:]:
        acc = _glb(acc.masses, _sorted_masses(d))
    return acc


def half(p: Distribution | Sequence[float]) -> Distribution:
    """Split every component into two identical halves.

    The result (p1/2, p1/2, ..., pn/2, pn/2) is already sorted and has
    entropy exactly one bit above the input's. Trailing zero components are
    duplicated too; strip them before calling if compactness matters.
    """
    return _half(_checked(p))


def _half(dp: Distribution) -> Distribution:
    # :func:`half` of a checked marginal; halving keeps the order
    masses = tuple(h for x in dp.masses for h in (x / 2.0, x / 2.0))
    return _sorted_distribution(masses, tuple(range(len(masses))))


def half_iter(
    p: Distribution | Sequence[float],
    i: int,
    cap: int = HALF_COMPONENT_CAP,
) -> Distribution:
    """Apply :func:`half` ``i`` times; ``i = 0`` returns the input unchanged.

    Raises:
        SizeCapError: the result would have more than ``cap`` components
            (n doubles with every application).
    """
    if i < 0:
        raise ValueError(f"iteration count must be >= 0, got {i}")
    dp = _checked(p)
    # from i = cap.bit_length() on, 2**i alone exceeds the cap: it is not built
    if i >= cap.bit_length():
        raise SizeCapError(f"half_iter would produce {dp.n} * 2**{i} components, cap is {cap}")
    if dp.n * (2**i) > cap:
        raise SizeCapError(f"half_iter would produce {dp.n * 2**i} components, cap is {cap}")
    for _ in range(i):
        dp = _half(dp)
    return dp
