"""Exception types shared across the package."""


class TreeshiftError(Exception):
    """Base class for all package errors."""


class InvalidTreeError(TreeshiftError):
    """An explicit edge list does not describe a directed tree."""


class UnknownVertexError(TreeshiftError):
    """A vertex is not part of the tree it was used with."""


class WindowOverflowError(TreeshiftError):
    """A computation would need vertices outside the truncation window."""


class NoCertificateError(TreeshiftError):
    """A series lacks the tail metadata needed for a certified verdict."""


class WidthNotReachedError(NoCertificateError):
    """No convergent certificate reaches the requested series width."""


class ThresholdNotReachedError(NoCertificateError):
    """No divergence witness lies below the cap for the requested threshold."""


class SupNotWitnessedError(TreeshiftError):
    """No index with q_i >= k was found within the scan horizon."""


class InfiniteTermError(TreeshiftError):
    """A 1/t integral hit an atom at t = 0 with nonzero weight."""
