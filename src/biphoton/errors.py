"""Exception types shared across the package.

Everything derives from ValueError or RuntimeError so callers that do not
care about the fine-grained type can still catch the builtin.
"""


class DomainError(ValueError):
    """An input is outside the physically meaningful domain."""


class MemoryBudgetError(DomainError):
    """An input would need more memory than the package's memory budget."""


class UnsupportedProfileError(ValueError):
    """The requested operation only exists for a subset of phasematching profiles."""


class GridError(ValueError):
    """Grid shape or axis layout is incompatible with the requested operation."""


class CoverageError(ValueError):
    """A scan or projection does not cover enough range for a reliable readout."""


class NoDipError(ValueError):
    """A delay scan shows no interference dip to analyze."""


class EmptyStateError(ValueError):
    """An operation produced (or received) an amplitude with no support."""


class ParseError(ValueError):
    """A data file is malformed; the message carries the offending line number."""


class FitError(RuntimeError):
    """Least-squares fitting failed to converge or produced unusable output."""
