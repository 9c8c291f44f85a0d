"""Exception hierarchy for the coupling toolkit.

Two branches matter to callers: :class:`InputError` covers everything a caller
can fix (bad vectors, bad parameters, oversized requests) and maps to CLI exit
code 2; :class:`InternalError` signals a violated algorithmic invariant that
should never fire on valid inputs and maps to CLI exit code 3.
"""

from __future__ import annotations


class MecError(Exception):
    """Base class for all toolkit errors."""


class InputError(MecError):
    """A caller-supplied value failed validation."""


class NegativeMassError(InputError):
    """A probability entry is below the negative-roundoff clamp threshold."""


class NotNormalizedError(InputError):
    """Masses do not sum to 1 within the normalization tolerance."""


class EmptyError(InputError):
    """A distribution (or collection of distributions) has no entries."""


class TooFewError(InputError):
    """A joint coupling was requested for fewer than two distributions."""


class BadAlphaError(InputError):
    """Renyi order outside (0, 1) against (1, inf)."""


class BadPartitionError(InputError):
    """Index sets that are not a partition of the distribution's support."""


class SupportMismatchError(InputError):
    """Divergence requested where the reference vector lacks support."""


class SizeCapError(InputError):
    """A doubling request would exceed the configured component cap."""


class TooLargeError(InputError):
    """A request exceeds a size cap: the oracle's cell cap, or
    ``min_entropy_coupling_dense``'s ``DENSE_CAP`` components per side."""


class InternalError(MecError):
    """An algorithmic invariant failed; indicates corrupted internal state."""


class InfeasibleSplitError(InternalError):
    """Mass split preconditions violated (target exceeds available mass)."""
