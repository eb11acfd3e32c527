"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NonInvertibleError(DomainError):
    """A truncated series with zero constant term cannot divide another, or be inverted."""


class NoClosedFormError(DomainError):
    """No polynomial closed form exists for this drift; use the exact oracle."""


class InvariantError(AssertionError):
    """An internal invariant failed: two exact routes disagree, or a value
    escapes the range its derivation guarantees.  A bug, never bad input."""


class RootSearchError(RuntimeError):
    """A root scan exhausted its budget."""
