"""Exception types raised across the package."""


class TakeGrantError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidNameError(TakeGrantError):
    """Vertex name is empty or contains characters outside [A-Za-z0-9_.-]."""


class DuplicateNameError(TakeGrantError):
    """Vertex name already declared in this graph."""


class UnknownVertexError(TakeGrantError):
    """Vertex id or name does not refer to a vertex of this graph."""


class EmptyRightsError(TakeGrantError):
    """An arc was given an empty rights set."""


class InvalidRightError(TakeGrantError):
    """An arc's rights contained an item that is not a ``Right``."""


class ParseError(TakeGrantError):
    """TGG text is malformed; carries the 1-based line number."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class NotASubjectError(TakeGrantError):
    """An island operation was asked about a non-subject vertex."""


class SameVertexError(TakeGrantError):
    """Bridge endpoints must be two distinct vertices."""


class SameIslandError(TakeGrantError):
    """Inter-island bridge enumeration needs two disjoint islands of strictly ascending members."""


class TooLargeError(TakeGrantError):
    """Exhaustive enumeration refused; the graph family would be astronomical."""


class EmptySpecError(TakeGrantError):
    """Random graph spec declares zero vertices."""


class InvariantViolationError(TakeGrantError):
    """A result failed its own consistency re-check; this is a bug, not bad input."""
