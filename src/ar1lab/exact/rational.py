"""Exact rational scalars.

``fractions.Fraction`` already provides arbitrary-precision rationals stored
in lowest terms with a positive denominator, so it is used directly as the
scalar type.  This module pins the wire format: ``"num/den"`` with the
denominator omitted when it equals 1.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from ar1lab.errors import DomainError


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` or ``"num"`` (also accepts plain decimal strings).

    Raises DomainError, naming the text, when it is not a rational number.
    """
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        if "." in text or "e" in text or "E" in text:
            return Fraction(text)
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a rational number: {text!r}") from None


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    # str() refuses integers past sys.get_int_max_str_digits() digits;
    # Decimal prints the same text at any size
    num, den = str(Decimal(q.numerator)), str(Decimal(q.denominator))
    return num if den == "1" else f"{num}/{den}"
