"""Probability vectors in canonical sorted form, plus entropy functionals.

Every algorithm in this package operates on masses sorted in non-increasing
order. :class:`Distribution` freezes that canonical form together with the
permutation back to the caller's original indexing, so results computed in
sorted space can always be reported in the caller's coordinates.

Tolerances are package-wide named values: ``NORMALIZATION_TOL`` guards sums
that must equal 1 and is overridable per call (and from the CLI), while
``INTERNAL_TOL`` guards exact-in-theory comparisons between floats.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat, zip_longest

from .errors import (
    BadAlphaError,
    BadPartitionError,
    EmptyError,
    InputError,
    NegativeMassError,
    NotNormalizedError,
    SupportMismatchError,
)

NORMALIZATION_TOL = 1e-9
INTERNAL_TOL = 1e-12


def compensated_prefix(values: Iterable[float]) -> list[float]:
    """Running prefix sums with Neumaier error compensation.

    Plain left-to-right accumulation loses low-order bits that the
    majorization comparisons downstream care about; tracking the rounding
    error keeps each prefix within ~1 ulp of the exact sum.
    """
    prefixes: list[float] = []
    total = 0.0
    err = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            err += (total - t) + x
        else:
            err += (x - t) + total
        total = t
        prefixes.append(total + err)
    return prefixes


def _check_order(masses: Sequence[float]) -> None:
    if any(map(operator.lt, masses, masses[1:])):
        raise ValueError("masses must be sorted non-increasingly")


@dataclass(frozen=True, slots=True)
class Distribution:
    """A probability vector in canonical (non-increasing) order.

    Attributes:
        masses: components sorted non-increasingly; may include explicit
            zeros (padding is mass-neutral everywhere in the package).
        perm: ``perm[k]`` is the caller's original index of the k-th largest
            component, so ``masses[k] == raw[perm[k]]``.
    """

    masses: tuple[float, ...]
    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if len(self.masses) != n:
            raise ValueError("masses and perm must have equal length")
        _check_order(self.masses)
        # each of 0..n-1 once, as an integer: a float such as 1.0 is no index
        if {i for i in self.perm if hasattr(type(i), "__index__")} != set(range(n)):
            raise ValueError(f"perm must be a permutation of range({n})")

    @property
    def n(self) -> int:
        return len(self.masses)

    def to_caller_order(self) -> tuple[float, ...]:
        """Masses rearranged back to the caller's original indexing."""
        out = [0.0] * len(self.masses)
        for k, j in enumerate(self.perm):
            out[j] = self.masses[k]
        return tuple(out)

    def padded(self, n: int) -> "Distribution":
        """Extend with explicit zero components up to length ``n``.

        Fresh indices continue the caller's numbering; zero components never
        receive coupling entries, so padding does not change any result.
        """
        if n <= self.n:
            return self
        masses = self.masses + (0.0,) * (n - self.n)
        _check_order(masses)
        # fresh indices extend a permutation of range(self.n) to one of range(n)
        return _sorted_distribution(masses, self.perm + tuple(range(self.n, n)))


def make_distribution(
    raw: Sequence[float],
    renormalize: bool = False,
    tol: float = NORMALIZATION_TOL,
) -> Distribution:
    """Validate and canonicalize a probability vector.

    Entries in ``[-INTERNAL_TOL, 0)`` are clamped to 0 (negative roundoff is
    tolerated, genuinely negative mass is not). Sorting is stable: ties keep
    the caller's original relative order, which makes ``perm`` deterministic.

    Args:
        raw: masses in the caller's order.
        renormalize: scale by the reciprocal of the total instead of
            requiring the total to be 1 within ``tol``.
        tol: normalization tolerance on ``|sum - 1|``.

    Raises:
        EmptyError: ``raw`` has no entries.
        InputError: some entry is NaN or infinite.
        NegativeMassError: some entry is below ``-INTERNAL_TOL``.
        NotNormalizedError: the total is off by more than ``tol`` (or is not
            positive when renormalizing, or overflows the float range).
    """
    values = _caller_masses(raw, renormalize, tol)
    # a reverse sort is still stable, so ties keep ascending caller indices
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return _sorted_distribution(tuple(map(values.__getitem__, order)), tuple(order))


def _sorted_distribution(masses: tuple[float, ...], perm: tuple[int, ...]) -> Distribution:
    # a Distribution from masses whose order the caller has just set, without
    # the constructor's walk over that order
    d = object.__new__(Distribution)
    object.__setattr__(d, "masses", masses)
    object.__setattr__(d, "perm", perm)
    return d


def _caller_masses(
    raw: Sequence[float],
    renormalize: bool = False,
    tol: float = NORMALIZATION_TOL,
) -> list[float]:
    """The masses :func:`make_distribution` would sort, in the caller's order.

    Runs every check of :func:`make_distribution`, with its exceptions and
    messages, and returns the coerced, clamped (and, if asked, renormalized)
    components unsorted.
    """
    values = list(map(float, raw))
    if not values:
        raise EmptyError("distribution must have at least one component")
    # one C-level pass accepts the common case; only a vector that needs a
    # diagnostic or a clamp is walked component by component
    if not (all(map(math.isfinite, values)) and min(values) >= 0.0):
        _reject_bad_components(values)
        values = [x if x >= 0.0 else 0.0 for x in values]
    try:
        total = math.fsum(values)
    except OverflowError as exc:
        raise NotNormalizedError("masses sum past the largest float") from exc
    if renormalize:
        if total <= 0.0:
            raise NotNormalizedError("cannot renormalize a zero-mass vector")
        return [x / total for x in values]
    # NaN-safe: a NaN tol accepts nothing
    if not abs(total - 1.0) <= tol:
        raise NotNormalizedError(f"masses sum to {total!r}, expected 1 within {tol}")
    return values


def as_distribution(d: Distribution | Sequence[float], tol: float = NORMALIZATION_TOL) -> Distribution:
    """Coerce raw masses to a :class:`Distribution`; pass instances through."""
    if isinstance(d, Distribution):
        return d
    return make_distribution(d, tol=tol)


def _caller_order(d: Distribution | Sequence[float], tol: float = NORMALIZATION_TOL) -> Sequence[float]:
    """Masses in the caller's index order: a :class:`Distribution` undoes its
    sort; raw masses get the checks of :func:`make_distribution`, at ``tol``,
    and are never sorted."""
    return d.to_caller_order() if isinstance(d, Distribution) else _caller_masses(d, tol=tol)


def _checked(d: Distribution | Sequence[float]) -> Distribution:
    """A marginal checked once: raw masses by :func:`make_distribution`, or a
    :class:`Distribution`'s by the same checks and clamp, and then returned
    as given if it holds no negative mass."""
    if not isinstance(d, Distribution):
        return make_distribution(d)
    masses = _caller_masses(d.masses)
    # sorted masses: a negative one, clamped to 0 as raw masses are, is last
    if d.masses[-1] < 0.0:
        return _sorted_distribution(tuple(masses), d.perm)
    return d


def _sorted_masses(d: Distribution | Sequence[float]) -> Sequence[float]:
    """Masses in non-increasing order, checked as :func:`_checked` checks them;
    raw masses are sorted without a permutation, to the floats of
    :func:`make_distribution`'s ``masses`` (both are stable reverse sorts)."""
    if not isinstance(d, Distribution):
        return sorted(_caller_masses(d), reverse=True)
    return _checked(d).masses


def _positive_masses(d: Distribution | Sequence[float]) -> list[float]:
    # shared validation for the entropy functionals; subnormalized input
    # is allowed, negative roundoff is clamped like make_distribution does
    values = d.masses if isinstance(d, Distribution) else tuple(d)
    out = [float(x) for x in values if x > 0.0]
    # one C-level pass clears the usual case: every mass finite (a NaN one
    # would be left out of ``out`` unseen), and none negative, which only a
    # vector with components left out can hold. The walk names the first bad
    # component, as make_distribution does
    if not (all(map(math.isfinite, values))
            and (len(out) == len(values) or min(values) >= -INTERNAL_TOL)):
        _reject_bad_components(values)
    return out


def _reject_bad_components(values: Sequence[float]) -> None:
    # names the first component that is NaN or infinite or below -INTERNAL_TOL
    for i, x in enumerate(values):
        if not math.isfinite(x):
            raise InputError(f"component {i} is not finite: {x!r}")
        if x < -INTERNAL_TOL:
            raise NegativeMassError(f"component {i} is negative: {x!r}")


def shannon_entropy(d: Distribution | Sequence[float]) -> float:
    """Shannon entropy in bits, with 0 * log(0) taken as 0.

    Raises:
        InputError: some component is NaN or infinite.
        NegativeMassError: some component is below ``-INTERNAL_TOL``.

    Examples:
        >>> shannon_entropy([0.5, 0.5])
        1.0
        >>> shannon_entropy([1.0, 0.0])
        0.0
    """
    xs = _positive_masses(d)
    # adding 0.0 folds the point-mass result -0.0 back to 0.0
    return -math.fsum(map(operator.mul, xs, map(math.log2, xs))) + 0.0


def renyi_entropy(d: Distribution | Sequence[float], alpha: float) -> float:
    """Renyi entropy of order ``alpha`` in bits.

    Defined for ``alpha`` in (0, 1) and (1, inf) as
    ``log2(sum(x ** alpha)) / (1 - alpha)``; orders within 1e-9 of 1 are
    rejected rather than silently switched to the Shannon limit. Where that
    sum falls below the smallest normal float, as it does at large orders,
    or overflows, as it can on masses above 1, the largest mass M is
    factored out:
    ``(alpha * log2(M) + log2(sum((x / M) ** alpha))) / (1 - alpha)``.

    Raises:
        BadAlphaError: ``alpha`` is not a finite order above 0, or lies
            within 1e-9 of 1.
        InputError: some component is NaN or infinite.
        NegativeMassError: some component is below ``-INTERNAL_TOL``.
    """
    if not 0.0 < alpha < math.inf or abs(alpha - 1.0) <= 1e-9:
        raise BadAlphaError(f"order must lie in (0,1) or (1,inf), got {alpha!r}")
    positive = _positive_masses(d)
    if not positive:
        return 0.0
    try:
        power_sum = math.fsum(map(pow, positive, repeat(alpha)))
    except OverflowError:  # masses above 1 can overflow a term or the sum
        power_sum = math.inf
    if not sys.float_info.min <= power_sum < math.inf:
        # underflowed to zero, lost bits to subnormals or overflowed; the
        # scaled sum holds a term of exactly 1 and none above it, so it cannot
        top = max(positive)
        scaled = math.fsum(map(pow, map(operator.truediv, positive, repeat(top)), repeat(alpha)))
        return (alpha * math.log2(top) + math.log2(scaled)) / (1.0 - alpha) + 0.0
    # adding 0.0 folds the point-mass result -0.0 back to 0.0
    return math.log2(power_sum) / (1.0 - alpha) + 0.0


def kl_divergence(
    y: Distribution | Sequence[float],
    x: Distribution | Sequence[float],
) -> float:
    """Relative entropy D(y || x) in bits, aligned by sorted position.

    Both vectors are canonicalized and zero-padded to a common length; the
    comparison is between the k-th largest mass of each. Requires the support
    of ``y`` to fit inside the support of ``x`` under that alignment.

    Raises:
        SupportMismatchError: some sorted position has ``y > 0`` but ``x == 0``.
    """
    ym = _sorted_masses(y)
    xm = _sorted_masses(x)
    terms = []
    for k, (yk, xk) in enumerate(zip_longest(ym, xm, fillvalue=0.0)):
        if yk <= 0.0:
            continue
        if xk <= 0.0:
            raise SupportMismatchError(
                f"sorted position {k} has mass {yk!r} but reference mass 0"
            )
        terms.append(yk * math.log2(yk / xk))
    return math.fsum(terms)


def aggregate(
    d: Distribution | Sequence[float],
    partition: Iterable[Iterable[int]],
) -> Distribution:
    """Merge components by a partition of the caller's index space.

    Each cell of ``partition`` is summed into one component of the result;
    cells refer to indices in the caller's original order. The output is a
    fresh canonical distribution (merging only ever coarsens, so the result
    is majorized by the input).

    Raises:
        BadPartitionError: cells overlap, leave indices uncovered, or refer
            to indices that are not integers or lie outside ``range(n)``.
    """
    values = _caller_order(d)
    n = len(values)
    seen: set[int] = set()
    sums: list[float] = []
    for cell_no, cell in enumerate(partition):
        indices = list(cell)
        if not indices:
            raise BadPartitionError(f"cell {cell_no} is empty")
        for i in indices:
            # an integer index is one a list accepts (1.0 and "1" are not)
            if not hasattr(type(i), "__index__"):
                raise BadPartitionError(f"cell {cell_no} index {i!r} is not an integer")
            if not 0 <= i < n:
                raise BadPartitionError(f"cell {cell_no} index {i} outside range(0, {n})")
            if i in seen:
                raise BadPartitionError(f"index {i} appears in more than one cell")
            seen.add(i)
        sums.append(math.fsum(values[i] for i in indices))
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise BadPartitionError(f"indices not covered by any cell: {missing}")
    return make_distribution(sums)
