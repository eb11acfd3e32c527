"""Truncated formal power series with exact coefficients.

Coefficients live in any exact commutative ring that supports ``+``, ``-``,
``*``, division by integers, exact division by its own elements, scalar
mixing with ``int``/``Fraction``, and a truth value that is false on zero
alone: in practice ``Fraction`` or ``Polynomial``
(whose ``/`` is ``divexact``), not ``int`` (whose ``/`` is a float).  All
operations propagate exactly up to the stored order; products and quotients
of series of different orders are truncated to the smaller order.  A
quotient needs the divisor's constant term to divide every coefficient it
meets, not to be a unit: over polynomials, a ratio of two series that share
a factor th^s divides exactly.

Coefficients are stored against the plain basis z^n.  An exponential
generating function's n-th term is read as ``coefficient(n) * factorial(n)``,
never implicitly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from ar1lab.errors import DomainError, NonInvertibleError


class TruncatedSeries:
    """Series c_0 + c_1 z + ... + c_N z^N, exact up to and including order N."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable, order: int):
        cs = list(coeffs)
        if not cs:
            raise ValueError("need at least one coefficient to fix the ring")
        if order < 0:
            raise ValueError("order must be >= 0")
        zero = cs[0] * 0
        if len(cs) < order + 1:
            cs.extend([zero] * (order + 1 - len(cs)))
        else:
            cs = cs[: order + 1]
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([Fraction(1)], order)

    # -- accessors ------------------------------------------------------
    def coefficient(self, n: int):
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    @property
    def _zero(self):
        return self.coeffs[0] * 0

    @property
    def _one(self):
        return self.coeffs[0] * 0 + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __repr__(self) -> str:
        shown = ", ".join(repr(c) for c in self.coeffs[:5])
        return f"TruncatedSeries([{shown}, ...], order={self.order})"

    # -- multiplicative structure -----------------------------------------
    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        zero = self._zero
        out = [zero] * (order + 1)
        for i in range(order + 1):
            ci = self.coeffs[i]
            if not ci:
                continue
            for j in range(order + 1 - i):
                out[i + j] = out[i + j] + ci * other.coeffs[j]
        return TruncatedSeries(out, order)

    def __truediv__(self, other):
        """The series q with q * other = self up to the smaller order.

        q_n = (a_n - sum_{k>=1} b_k q_{n-k}) / b_0, each division exact in
        the coefficient ring; raises ``NonInvertibleError`` when b_0 is zero.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        b0 = other.coeffs[0]
        if not b0:
            raise NonInvertibleError("constant term of the divisor is zero")
        order = min(self.order, other.order)
        out = []
        for n in range(order + 1):
            acc = self.coeffs[n]
            for k in range(1, n + 1):
                acc = acc - other.coeffs[k] * out[n - k]
            out.append(acc / b0)
        return TruncatedSeries(out, order)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse: returns t with self*t = 1 up to order N."""
        return TruncatedSeries([self._one], self.order) / self

    def log(self) -> "TruncatedSeries":
        """Series logarithm; requires constant term equal to 1."""
        if self.coeffs[0] != self._one:
            raise DomainError("series log requires constant term 1")
        out = [self._zero]
        for n in range(1, self.order + 1):
            acc = self.coeffs[n] * n
            for k in range(1, n):
                acc = acc - (out[k] * self.coeffs[n - k]) * k
            out.append(acc / n)
        return TruncatedSeries(out, self.order)

