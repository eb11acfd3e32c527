"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonInvertibleError(DomainError):
    """A truncated series with zero constant term cannot divide another, or be inverted."""


class NoClosedFormError(DomainError):
    """No polynomial closed form exists for this drift; use the exact oracle.

    Carries the approximate boundaries (lo, hi) of the drift window in which
    only the oracle applies at this horizon.
    """

    def __init__(self, message: str, window: tuple[float, float]):
        super().__init__(message)
        self.window = window


class InvariantError(AssertionError):
    """An internal invariant failed: two exact routes disagree, or a value
    escapes the range its derivation guarantees.  A bug, never bad input."""


class RootSearchError(RuntimeError):
    """A root scan exhausted its budget."""
