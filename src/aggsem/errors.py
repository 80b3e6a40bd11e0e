"""Exception hierarchy shared by all aggsem modules."""

from __future__ import annotations


class AggsemError(Exception):
    """Base class for all errors raised by aggsem."""


class ParseError(AggsemError):
    """Lexical or syntax error in program or interpretation text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class UniverseMismatchError(AggsemError):
    """Operands refer to different atom universes, or an atom is unknown."""


class InconsistentPairError(AggsemError):
    """An operation required a consistent pair (lower set contained in upper)."""


class CapabilityError(AggsemError):
    """The requested (semantics, operation) combination is unsupported."""


class ArithmeticOverflowError(AggsemError, OverflowError):
    """An aggregate value left the signed 64-bit range."""


class TooLargeError(AggsemError):
    """Input exceeds the configured bound for an exhaustive operation."""


def check_universe_size(universe_size: int, bound: int) -> None:
    """Raise TooLargeError when a universe exceeds an exhaustive-size cap."""
    if universe_size > bound:
        raise TooLargeError(f"universe of {universe_size} atoms exceeds bound {bound}")
