"""Exception types shared across the library."""

from __future__ import annotations


class EntropyBanachError(Exception):
    """Base class for all library errors."""


class ConstructionError(EntropyBanachError):
    """Invalid data handed to a constructor, or a construction that failed."""


class FormatError(ConstructionError):
    """Input from outside (a file, a JSON document, a command-line value) is malformed."""


class DomainError(EntropyBanachError):
    """An argument violates a precondition (e.g. crop with a >= b, delta too large)."""


class ResourceLimitError(EntropyBanachError):
    """A configured resource cap (breakpoints, partition size, rounds) was hit.

    ``achieved`` carries how far the computation got before stopping, ``needed``
    at least what it would take, and ``bound`` the valid bound that part already
    certifies, if any, so callers can degrade gracefully instead of failing outright.
    """

    def __init__(self, message: str, *, achieved: int | None = None,
                 needed: int | None = None, cap: int | None = None,
                 bound: float | None = None):
        super().__init__(message)
        self.achieved = achieved
        self.needed = needed
        self.cap = cap
        self.bound = bound


class DependencyError(EntropyBanachError):
    """A function family is linearly dependent; ``relation`` holds the coefficients."""

    def __init__(self, message: str, relation: tuple):
        super().__init__(message)
        self.relation = relation
