"""Exception types shared across the library."""

from __future__ import annotations


class EntropyBanachError(Exception):
    """Base class for all library errors."""


class ConstructionError(EntropyBanachError):
    """Invalid data handed to a constructor (unsorted breakpoints, length mismatch...)."""


class FormatError(ConstructionError):
    """Input from outside (a file, a JSON document, a command-line value) is malformed."""


class DomainError(EntropyBanachError):
    """An argument violates a domain precondition (e.g. crop with a >= b)."""


class NumericError(EntropyBanachError):
    """A sampled value is not finite."""


class ResourceLimitError(EntropyBanachError):
    """A configured resource cap (breakpoints, partition size, rounds) was hit.

    ``achieved`` carries how far the computation got before stopping, and
    ``bound`` the valid bound that part already certifies, if any, so
    callers can degrade gracefully instead of failing outright.
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
    """A function family turned out linearly dependent on the search grid.

    ``relation`` holds coefficients of the discovered linear relation.
    """

    def __init__(self, message: str, relation: tuple):
        super().__init__(message)
        self.relation = relation


class TruncationError(EntropyBanachError):
    """A construction was truncated too early for the request.

    ``minimal_n`` reports the truncation level that would suffice.
    """

    def __init__(self, message: str, minimal_n: int):
        super().__init__(message)
        self.minimal_n = minimal_n


class ParameterError(EntropyBanachError):
    """A numeric parameter is out of its admissible range."""

    def __init__(self, message: str, admissible=None):
        super().__init__(message)
        self.admissible = admissible


class BudgetError(EntropyBanachError):
    """A staged construction ran out of resolution budget at some stage."""

    def __init__(self, message: str, *, stage: int | None = None, hint: str = ""):
        super().__init__(message)
        self.stage = stage
        self.hint = hint


class ConfigurationError(EntropyBanachError):
    """A configuration is inconsistent (e.g. a root search that cannot bracket)."""


class ResolutionError(EntropyBanachError):
    """Adaptive sampling failed to stabilize within its cap."""
