"""Dense univariate polynomials over exact rationals.

A ``Polynomial`` stores one canonical integer form: numerators in ascending
degree with no trailing zero, over one positive denominator, with
gcd(den, *nums) = 1; the zero polynomial is ((), 1).  Equality of values is
therefore equality of representations.  Ring operations, evaluation at a
rational and composition with a linear inner run on the integers, and
``coeffs`` builds the ``Fraction`` coefficients only when read.  The pieces
of a ``PiecewisePoly`` are ``Polynomial``s in this form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from ar1lab.exact.rational import format_rational

_Scalar = (int, Fraction)


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
    """(M, S) with (sum nums[k] I^k/iden^k) == M/S for the linear I = i0 + i1*y,
    ``inums`` = (i0, i1): the integer sum nums[k] I^k iden^(d-k) over
    S = iden^d; the empty nums of the zero polynomial give ([], 1).

    It is a Taylor shift over the integers: scale nums[k] by iden^(d-k), shift
    by i0 in place (Ruffini, d^2/2 multiply-adds) and multiply coefficient k
    by i1^k.
    """
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


class Polynomial:
    """Immutable dense polynomial with exact rational coefficients."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, _Scalar):
                raise TypeError(f"polynomial coefficients must be exact rationals, got {type(c)!r}")
        self._assign(*_integer_form(cs))

    def _assign(self, nums: list[int], den: int) -> None:
        # the canonical form: strip trailing zeros, then one gcd makes den > 0
        # and coprime to the numerators
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den // g)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def _from_integer_form(cls, nums: list[int], den: int) -> "Polynomial":
        """The polynomial sum nums[k] x^k/den, for any nonzero den."""
        p = cls.__new__(cls)
        p._assign(nums, den)
        return p

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in ascending degree, as ``Fraction``s."""
        return tuple(Fraction(n, self._den) for n in self._nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._nums) - 1

    @property
    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient; None for zero."""
        for i, c in enumerate(self._nums):
            if c:
                return i
        return None

    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self._nums[k], self._den) if 0 <= k < len(self._nums) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

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
    def _plus(self, other, sign: int) -> "Polynomial":
        """self + sign*other over the lcm of the two denominators."""
        if isinstance(other, _Scalar):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        g = gcd(self._den, other._den)
        fa, fb = other._den // g, sign * (self._den // g)
        out = [c * fa for c in self._nums]
        out += [0] * (len(other._nums) - len(out))
        for k, c in enumerate(other._nums):
            out[k] += c * fb
        return Polynomial._from_integer_form(out, self._den * fa)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_integer_form([-c for c in self._nums], self._den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, _Scalar):
            nums = [c * other.numerator for c in self._nums]
            return Polynomial._from_integer_form(nums, self._den * other.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._nums, other._nums
        if not a or not b:
            return Polynomial.zero()
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a  # the factor with fewer nonzero terms outside
        return Polynomial._from_integer_form(_convolve(a, b), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a scalar, or ``divexact`` by a polynomial."""
        if isinstance(other, Polynomial):
            return self.divexact(other)
        if not isinstance(other, _Scalar):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        nums = [c * other.denominator for c in self._nums]
        return Polynomial._from_integer_form(nums, self._den * other.numerator)

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
        return Polynomial._from_integer_form([k * c for k, c in enumerate(self._nums[1:], 1)], self._den)

    # -- evaluation ---------------------------------------------------
    def __call__(self, x) -> Fraction:
        """The value at a rational p/q: the integer Horner sum N_k p^k q^(d-k),
        divided once by D*q^d."""
        if not isinstance(x, _Scalar):
            raise TypeError(f"polynomials are evaluated at exact rationals, got {type(x)!r}")
        if not self._nums:
            return Fraction(0)
        acc, scale = _horner(self._nums, x.numerator, x.denominator)
        return Fraction(acc, self._den * scale)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner) for a linear inner I/C: an integer Taylor shift, the sum
        N_k I^k C^(d-k) over D*C^d."""
        if inner.degree != 1:
            raise ValueError(f"compose takes a linear inner, got degree {inner.degree}")
        acc, scale = _compose(self._nums, inner._nums, inner._den)
        return Polynomial._from_integer_form(acc, self._den * scale)

    # -- exact division -----------------------------------------------
    def divexact(self, divisor: "Polynomial") -> "Polynomial":
        """Exact polynomial division; raises if the remainder is nonzero.

        Pseudo-division on the numerators: with e quotient terms and the
        divisor's lead numerator l, l^e N = Q M + R over the integers, and each
        quotient term is an exact integer division by l (l^e is 1 for the
        divisors th^s and (th - 1)^k of the J routes).  Then
        self/divisor = Q D_M/(l^e D_N).
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        dn = divisor._nums
        dd = len(dn) - 1
        lead = dn[-1]
        if len(self._nums) - 1 < dd:
            if not self._nums:
                return Polynomial.zero()
            raise ValueError("inexact polynomial division")
        e = len(self._nums) - dd
        scale = lead**e
        rem = [c * scale for c in self._nums]
        # only the divisor's nonzero lower terms: dividing by th^s is then a shift
        terms = [(j, c) for j, c in enumerate(dn[:-1]) if c]
        qt = [0] * e
        for k in range(len(rem) - 1, dd - 1, -1):
            q = qt[k - dd] = rem[k] // lead
            if q:
                for j, c in terms:
                    rem[k - dd + j] -= q * c
        if any(rem[:dd]):
            raise ValueError("inexact polynomial division")
        return Polynomial._from_integer_form([q * divisor._den for q in qt], self._den * scale)

    # -- serialization ------------------------------------------------
    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]
