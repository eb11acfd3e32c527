"""Dense univariate polynomials over exact rationals.

``Polynomial`` stores coefficients in ascending degree with no trailing
zeros, so equality of values is equality of representations.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from ar1lab.exact.rational import format_rational

_Scalar = (int, Fraction)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"polynomial coefficients must be exact rationals, got {type(c)!r}")


def _integer_form(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Numerators over one common denominator: coeffs[k] == nums[k]/den, den the lcm."""
    # a list, not a generator: unpacking a generator resizes the argument tuple, and
    # CPython 3.11's tuple free lists then keep every resized one (0.7 MB more peak
    # memory for `verify --nmax 8`)
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two nonempty integer polynomials.

    Zero terms of ``a`` are skipped, so the sparser factor goes first.
    """
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _horner(nums: Sequence[int], p: int, q: int) -> tuple[int, int]:
    """(N, S) with sum nums[k] (p/q)^k == N/S: the integer Horner sum
    nums[k] p^k q^(d-k) over S = q^d, for nonempty nums of degree d."""
    acc, scale = nums[-1], 1
    for c in reversed(nums[:-1]):
        scale *= q
        acc = acc * p + c * scale
    return acc, scale


def _compose(nums: Sequence[int], inums: Sequence[int], iden: int) -> tuple[list[int], int]:
    """(M, S) with (sum nums[k] I^k/iden^k) == M/S, I the polynomial ``inums``:
    the integer sum nums[k] I^k iden^(d-k) over S = iden^d, for nonempty nums.

    A linear inner I = i0 + i1*y is a Taylor shift over the integers: scale
    nums[k] by iden^(d-k), shift by i0 in place (Ruffini, d^2/2 multiply-adds)
    and multiply coefficient k by i1^k.  Only an inner of degree other than 1
    runs the Horner loop of ``_convolve`` products.
    """
    if len(inums) == 2:
        i0, i1 = inums
        d = len(nums) - 1
        acc, scale = list(nums), 1
        for k in range(d - 1, -1, -1):
            scale *= iden
            acc[k] *= scale
        for lo in range(d):
            run = acc[d]
            for k in range(d - 1, lo - 1, -1):
                run = acc[k] = acc[k] + i0 * run
        if i1 != 1:
            power = 1
            for k in range(1, d + 1):
                power *= i1
                acc[k] *= power
        return acc, scale
    acc, scale = [nums[-1]], 1
    for c in reversed(nums[:-1]):
        scale *= iden
        acc = _convolve(acc, inums)
        acc[0] += c * scale
    return acc, scale


class Polynomial:
    """Immutable dense polynomial with ``Fraction`` coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("monomial power must be >= 0")
        return cls((0,) * power + (1,))

    @classmethod
    def geometric(cls, nterms: int) -> "Polynomial":
        """1 + x + ... + x^(nterms-1)."""
        return cls((1,) * nterms)

    # -- structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient; None for zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, _Scalar):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self):
        # a polynomial of degree <= 0 equals its constant, so it hashes as one
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return "Polynomial(" + " + ".join(terms) + ")"

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        if isinstance(other, _Scalar):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, _Scalar):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Scalar):
            if other == 0:
                return Polynomial.zero()
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero()
        a, da = _integer_form(self.coeffs)
        b, db = _integer_form(other.coeffs)
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a  # the factor with fewer nonzero terms outside
        den = da * db
        return Polynomial(Fraction(n, den) for n in _convolve(a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a scalar, or ``divexact`` by a polynomial."""
        if isinstance(other, Polynomial):
            return self.divexact(other)
        if not isinstance(other, _Scalar):
            return NotImplemented
        return Polynomial(tuple(c / other for c in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus -----------------------------------------------------
    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def antiderivative(self) -> "Polynomial":
        """The antiderivative with zero constant term."""
        return Polynomial((Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)))

    # -- evaluation ---------------------------------------------------
    def __call__(self, x):
        """Horner evaluation; works for rationals, floats and polynomials.

        At a rational p/q the sum N_k p^k q^(d-k) runs over the integers and
        is divided once by D*q^d.
        """
        if isinstance(x, _Scalar) and self.coeffs:
            nums, den = _integer_form(self.coeffs)
            acc, scale = _horner(nums, x.numerator, x.denominator)
            return Fraction(acc, den * scale)
        result = x * 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner): with inner = I/C, the integer sum N_k I^k C^(d-k) over D*C^d."""
        if not self.coeffs:
            return Polynomial.zero()
        nums, den = _integer_form(self.coeffs)
        inums, iden = _integer_form(inner.coeffs or (Fraction(0),))
        acc, scale = _compose(nums, inums, iden)
        den *= scale
        return Polynomial(Fraction(n, den) for n in acc)

    # -- exact division -----------------------------------------------
    def divexact(self, divisor: "Polynomial") -> "Polynomial":
        """Exact polynomial division; raises if the remainder is nonzero."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dc = divisor.coeffs
        dd = len(dc) - 1
        lead = dc[-1]
        if len(rem) - 1 < dd:
            if all(c == 0 for c in rem):
                return Polynomial.zero()
            raise ValueError("inexact polynomial division")
        # only the divisor's nonzero terms: dividing by th^s is then a shift
        terms = [(j, c) for j, c in enumerate(dc) if c]
        qt = [Fraction(0)] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            q = rem[k] / lead
            qt[k - dd] = q
            if q != 0:
                for j, c in terms:
                    rem[k - dd + j] -= q * c
        if any(c != 0 for c in rem):
            raise ValueError("inexact polynomial division")
        return Polynomial(qt)

    # -- serialization ------------------------------------------------
    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]
