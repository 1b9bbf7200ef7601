"""Exception hierarchy for the train-track toolkit.

Every error raised on purpose by this package derives from TrackError,
so callers can catch one type at the boundary.  Errors that carry
structured payloads (a witness, an offending move, a position) expose
them as attributes rather than burying them in the message string.
"""

from __future__ import annotations


class TrackError(Exception):
    """Base class for all errors raised by this package."""


class InvalidTrack(TrackError):
    """A track object violates a structural invariant."""


class NotOrientable(TrackError):
    """A coherent edge orientation was requested but none exists."""


class InvalidMorphism(TrackError):
    """A map between tracks fails a morphism requirement."""


class NotASelfMap(TrackError):
    """An operation needs source == target but the map crosses tracks."""


class ChainMismatch(TrackError):
    """Two maps were composed but the inner target is not the outer source."""


class IllegalMove(TrackError):
    """A splitting move cannot be performed on the given track.

    Attributes:
        index: position of the move inside a longer sequence (0-based),
            or None for a standalone move.
        move: the offending move object (or its string form).
        reason: short machine-friendly explanation.
        track: the track the move was attempted on (state reached so far).
    """

    def __init__(self, message: str, *, index=None, move=None, reason: str = "",
                 track=None):
        super().__init__(message)
        self.index = index
        self.move = move
        self.reason = reason
        self.track = track


class ParseError(TrackError):
    """Malformed textual input.

    Attributes:
        line, col: 1-based position of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            message = f"line {line}" + (f", col {col}" if col is not None else "") + f": {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class UnknownEntry(TrackError, KeyError):
    """Catalogue lookup for a name that does not exist."""

    def __str__(self):  # KeyError quotes its arg; keep the plain message
        return Exception.__str__(self)


class BadIndex(TrackError, ValueError):
    """A parameter outside its range: a family index, a tolerance."""


class NotAnIdentification(TrackError):
    """A claimed seed/final identification is not an isomorphism of the pair."""


class AlignmentError(TrackError):
    """A boundary image cannot be matched to any target boundary rotation."""


class BoundaryNotPreserved(AlignmentError):
    """A cusp image fails to land on a cusp of the target curve."""


class NotIrreducible(TrackError):
    """An irreducible matrix was required; carries the invariant witness.

    Attributes:
        witness: sorted list of edge labels spanning a proper invariant set.
    """

    def __init__(self, message: str, witness: list[str] | None = None):
        super().__init__(message)
        self.witness = witness or []


class NotPrimitive(TrackError):
    """A primitive matrix was required but some power keeps a zero entry."""


class NoConvergence(TrackError):
    """Iterative eigendata computation missed the requested tolerance."""


class InconsistentConstraints(TrackError):
    """Reconstruction constraints admit no solution (or no unique one)."""


class ResourceLimit(TrackError):
    """A search exceeded its configured depth/node/time budget."""
