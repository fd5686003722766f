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


class IdentityLeftoverError(NoCertificateError):
    """An identity record's rule values multiply to a monomial other than
    one; `record` and `vertex` name the record and its class."""

    def __init__(self, record: str, vertex, leftover):
        self.record, self.vertex = record, vertex
        self.detail = f"the rule leaves {leftover}, not 1"
        super().__init__(f"{record} at {vertex}: {self.detail}")


class WidthNotReachedError(NoCertificateError):
    """No convergent certificate reaches the requested series width."""


class ThresholdNotReachedError(NoCertificateError):
    """No divergence witness lies below the cap for the requested threshold."""


class SupNotWitnessedError(TreeshiftError):
    """q is bounded, so no subsequence has q_{i_k} >= k for every k."""


class TableRangeError(TreeshiftError, ValueError):
    """A table number's decimal exponent is past the range a document may
    state (`rationals.table_text`); the message names the table and index."""


class InfiniteTermError(TreeshiftError):
    """A 1/t integral hit an atom at t = 0 with nonzero weight."""
