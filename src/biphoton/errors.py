"""The package's problem vocabulary: the exceptions it raises and the
``Diagnostic`` it records when a result may not be trusted.

Every exception derives from ValueError or RuntimeError so callers that do
not care about the fine-grained type can still catch the builtin.
"""


class Diagnostic(str):
    """A warning recorded with a result: its text, plus the check that found it.

    ``code`` names the check (``coarse-marginal``, ``coarse-filter``, ...)
    and ``finding`` says what it saw.  The text is the finding, closed, when
    ``doubtful``, by a note that results may be inaccurate.  Being its text,
    a diagnostic compares, hashes and JSON-encodes as that string, so the
    provenance lists and reports that carry it read as lists of strings.
    """

    def __new__(cls, code: str, finding: str, doubtful: bool = True):
        text = f"{finding}; results may be inaccurate" if doubtful else finding
        self = super().__new__(cls, text)
        self.code = code
        self.finding = finding
        return self

    def __getnewargs__(self):
        # copy and pickle rebuild a str subclass from these arguments
        return self.code, self.finding, self != self.finding


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
