"""Exception hierarchy for the linhyp engine.

``LinhypError`` covers everything the engine can reject about its inputs.
``InternalCheckFailed`` marks conditions that are mathematically impossible
for well-formed inputs; reaching one signals a bug (or corrupted data) and
maps to a distinct process exit code in the CLI.
"""

from __future__ import annotations


class LinhypError(Exception):
    """Base class for all errors raised by this package."""


# --- cycle-notation parsing -------------------------------------------------

class MalformedCycle(LinhypError):
    """Unbalanced parentheses or a non-numeric token in cycle notation."""


class PointOutOfRange(LinhypError):
    """A cycle mentions a point outside 1..degree."""


class RepeatedPoint(LinhypError):
    """A point occurs twice; cycles must be disjoint."""


# --- group construction and arithmetic --------------------------------------

class DegreeMismatch(LinhypError):
    """Permutations of different degrees were mixed."""


class GroupTooLarge(LinhypError):
    """Closure exceeded the configured element cap."""


class BadEnvironment(LinhypError):
    """An environment variable holds a value the engine cannot use."""


class IndexOutOfRange(LinhypError):
    """An element index does not refer to an element of the group."""


class NotASubgroup(LinhypError):
    """An element set is not closed under multiplication."""


class GroupMismatch(LinhypError):
    """Two objects living in different parent groups were combined."""


class NotInGroup(LinhypError):
    """A permutation is not an element of the given group."""


class GroupTooLargeForAut(LinhypError):
    """The group exceeds the cap for automorphism-group enumeration."""


# --- hypermap construction and validation -----------------------------------

class DegenerateHypermap(LinhypError):
    """Too few flags, a broken flag involution, or a degenerate hypergraph."""


class InvalidHypermap(LinhypError):
    """An operation requiring a validated hypermap got an invalid one."""


class InvalidTriple(LinhypError):
    """The three chosen elements are not pairwise distinct involutions."""


# --- internal assertions (exit code 2 in the CLI) ---------------------------

class InternalCheckFailed(LinhypError):
    """A structurally impossible state was reached; indicates a bug."""


class LinearityViolation(InternalCheckFailed):
    """A vertex pair met in two hyperedges after validation succeeded."""


class NonIntegralGenus(InternalCheckFailed):
    """The Euler count does not yield an admissible genus."""


class DichotomyViolated(InternalCheckFailed):
    """The vertex-stabilizer core is neither trivial nor the central pair."""


class SearchFailed(InternalCheckFailed):
    """A constrained triple search found nothing; wrong group realization."""


# --- constructions -----------------------------------------------------------

class BadParameter(LinhypError):
    """A family parameter outside the admissible range."""


class UnknownSolid(LinhypError):
    """Not one of the five Platonic solid names."""


class NotSimple(LinhypError):
    """The map fails the simple-underlying-graph certificate."""


# --- catalog and file I/O -----------------------------------------------------

class ParseError(LinhypError):
    """A catalog or flag file failed to parse."""

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{where} {message}".strip())


class DuplicateName(LinhypError):
    """Two catalog entries share a name."""
