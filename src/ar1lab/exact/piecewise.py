"""Piecewise-polynomial sub-probability densities with exact breakpoints.

A ``PiecewisePoly`` is a density given by strictly increasing rational
breakpoints b_0 < ... < b_m and m polynomial pieces, piece i valid on
[b_i, b_{i+1}].  Values at shared breakpoints are taken from the left piece;
densities may be discontinuous at breakpoints.

The density is stored in integer form.  The breakpoints are integer
numerators B_0 < ... < B_m over one positive denominator E, with
gcd(E, B_0, ..., B_m) = 1, and each piece is a ``Polynomial``, itself in the
canonical integer form of ``ar1lab.exact.polynomial``.  Equal neighbours are
merged and zero edge pieces trimmed, so equal densities are equal.

``piecewise_pushforward`` performs one autoregressive step with uniform
innovations: it maps the sub-density of Y to that of (theta*Y + X) killed on
the negative half-line, reading each piece off Y's cumulative, so the total
mass after n steps is the survival probability itself.  It reads and writes
the integer form only: the cell ends share one denominator, a cell finds its
piece by an integer floor, and the cumulative table, its compositions and
their differences are integer numerators.  The running mass is an integer
pair too, and one ``Fraction`` per density holds the mass.  Each composition
has a linear inner, so it is an integer Taylor shift.

The sum of two densities, the scaling by a rational and ``inner_product``,
the exact integral of a product, work cell by cell over the union of the
two breakpoint sets (``_overlay``); the persistence layer's backward chain
and its meeting with the forward chain are built from them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from ar1lab.errors import DomainError
from ar1lab.exact.polynomial import Polynomial, _compose, _convolve, _horner, _integer_form
from ar1lab.exact.rational import format_rational


class PiecewisePoly:
    """Finitely supported piecewise-polynomial density, exact everywhere."""

    __slots__ = ("_den", "_nums", "pieces", "_breakpoints", "_cumulative")

    def __init__(self, breakpoints: Iterable, pieces: Iterable[Polynomial]):
        nums, den = _integer_form([Fraction(b) for b in breakpoints])
        pieces = tuple(pieces)
        if len(nums) != len(pieces) + 1:
            raise ValueError("need exactly one more breakpoint than pieces")
        if not pieces:
            raise ValueError("need at least one piece")
        for lo, hi in zip(nums, nums[1:]):
            if not lo < hi:
                raise ValueError("breakpoints must be strictly increasing")
        self._assign(den, nums, pieces)

    def _assign(self, den: int, nums: Sequence[int], pieces: Sequence[Polynomial]) -> None:
        state = (*_canonicalize(den, nums, pieces), None, None)
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PiecewisePoly is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls) -> "PiecewisePoly":
        return cls((Fraction(0), Fraction(1)), (Polynomial.zero(),))

    @classmethod
    def constant(cls, lo, hi, value) -> "PiecewisePoly":
        return cls((Fraction(lo), Fraction(hi)), (Polynomial.constant(value),))

    @classmethod
    def _from_integer_form(
        cls, den: int, nums: Sequence[int], pieces: Sequence[Polynomial]
    ) -> "PiecewisePoly":
        """The density on breakpoints nums/den; equal neighbours merge, zero
        edges go and the breakpoints are reduced here."""
        f = cls.__new__(cls)
        f._assign(den, nums, pieces)
        return f

    # -- read-only view ----------------------------------------------------
    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        if self._breakpoints is None:
            object.__setattr__(self, "_breakpoints", tuple(Fraction(n, self._den) for n in self._nums))
        return self._breakpoints

    # -- basic queries ----------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.pieces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        return (self._den, self._nums, self.pieces) == (other._den, other._nums, other.pieces)

    def __repr__(self) -> str:
        lo, hi = Fraction(self._nums[0], self._den), Fraction(self._nums[-1], self._den)
        return f"PiecewisePoly({len(self.pieces)} pieces on [{lo}, {hi}])"

    def evaluate(self, x) -> Fraction:
        """Density value at x; shared breakpoints resolve to the left piece."""
        x = Fraction(x)
        bps = self.breakpoints
        if x < bps[0] or x > bps[-1]:
            return Fraction(0)
        if x == bps[0]:
            return self.pieces[0](x)
        i = bisect_left(bps, x) - 1
        return self.pieces[i](x)

    def mass(self) -> Fraction:
        return self._cumulative_table()[1]

    def _cumulative_table(self) -> tuple[list[tuple[list[int], int]], Fraction]:
        """(table, mass): table[i] = (T, t) with T(x)/t the integral of the
        density from b_0 to x on piece i, T integer coefficients.

        Piece P/d has the antiderivative Q/(C*d) with integer Q, where
        C = lcm(1..k) and k - 1 is the largest degree.  Its values at the
        piece's ends are integer Horner sums over C*d*E^j, j the degree of Q
        and E the breakpoint denominator.  The running mass is an integer pair
        an/ad, reduced once per piece; each constant term is built from it on
        integers, and the mass is the one ``Fraction`` per density.  Built once
        per density and kept, so ``mass`` and the next pushforward share one
        integration.
        """
        if self._cumulative is None:
            den, bps = self._den, self._nums
            clear = lcm(*range(1, max(len(p._nums) for p in self.pieces) + 1))
            table = []
            an, ad = 0, 1
            for lo, hi, p in zip(bps, bps[1:], self.pieces):
                anti = [0, *[c * (clear // k) for k, c in enumerate(p._nums, 1)]]
                anti_den = clear * p._den
                h_lo, scale = _horner(anti, lo, den)
                full = anti_den * scale
                # the cumulative's constant term sn/sd = an/ad - h_lo/full, reduced
                sn, sd = an * full - h_lo * ad, ad * full
                g = gcd(sn, sd)
                sn, sd = sn // g, sd // g
                t = lcm(anti_den, sd)
                cum = [c * (t // anti_den) for c in anti]
                cum[0] = sn * (t // sd)
                table.append((cum, t))
                an, ad = sn * full + _horner(anti, hi, den)[0] * sd, sd * full
                g = gcd(an, ad)
                an, ad = an // g, ad // g
            object.__setattr__(self, "_cumulative", (table, Fraction(an, ad)))
        return self._cumulative

    def cumulative_at(self, x) -> Fraction:
        """Integral of the density from b_0 to x.

        Sums each piece's antiderivative up to x and shares no code with
        ``_cumulative_table``.
        """
        x = Fraction(x)
        total = Fraction(0)
        for (lo, hi), p in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            if lo >= x:
                break
            anti = p.antiderivative()
            total += anti(min(x, hi)) - anti(lo)
        return total

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        """The pointwise sum, cell by cell over the union of the breakpoints."""
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        den, cells, mine, theirs = _overlay(self, other)
        return PiecewisePoly._from_integer_form(den, cells, [p + q for p, q in zip(mine, theirs)])

    def scaled(self, c) -> "PiecewisePoly":
        """The density times the rational c, on the same breakpoints."""
        c = Fraction(c)
        return PiecewisePoly._from_integer_form(self._den, self._nums, [p * c for p in self.pieces])

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "pieces": [p.to_strings() for p in self.pieces],
        }


def _canonicalize(den: int, nums: Sequence[int], pieces: Sequence[Polynomial]):
    # merge adjacent identical pieces, trim zero pieces at the edges, then
    # reduce the breakpoints that are left by one gcd
    mb = [nums[0]]
    mp = []
    for hi, p in zip(nums[1:], pieces):
        if mp and mp[-1] == p:
            mb[-1] = hi
        else:
            mp.append(p)
            mb.append(hi)
    lo = 0
    hi = len(mp)
    while lo < hi and not mp[lo]:
        lo += 1
    while hi > lo and not mp[hi - 1]:
        hi -= 1
    if lo == hi:
        return 1, (0, 1), (Polynomial.zero(),)
    mb = mb[lo : hi + 1]
    g = gcd(den, *mb)
    return den // g, tuple(n // g for n in mb), tuple(mp[lo:hi])


def _overlay(f: PiecewisePoly, g: PiecewisePoly):
    """(E, cells, fs, gs): the union of f's and g's breakpoints as integer
    numerators over E = lcm of their denominators, and the piece of f and of g
    on each cell between them, the zero piece outside a support."""
    den = lcm(f._den, g._den)
    fn = [n * (den // f._den) for n in f._nums]
    gn = [n * (den // g._den) for n in g._nums]
    cells = sorted({*fn, *gn})
    zero = Polynomial.zero()

    def on_cells(nums, pieces):
        idx = (bisect_right(nums, lo) for lo in cells[:-1])
        return [pieces[i - 1] if 0 < i < len(nums) else zero for i in idx]

    return den, cells, on_cells(fn, f.pieces), on_cells(gn, g.pieces)


def inner_product(f: PiecewisePoly, g: PiecewisePoly) -> Fraction:
    """The exact integral of f*g, over the union of their breakpoints.

    Per cell, the product of the two pieces is an integer convolution, its
    antiderivative has integer coefficients over C = lcm(1..k), k its
    largest length, and its values at the cell's ends are integer Horner
    sums; the running integral is an integer pair, as in the cumulative table.
    """
    den, cells, fs, gs = _overlay(f, g)
    clear = lcm(*range(1, max(len(p._nums) for p in fs) + max(len(q._nums) for q in gs)))
    an, ad = 0, 1
    for lo, hi, p, q in zip(cells, cells[1:], fs, gs):
        if not p or not q:
            continue
        anti = [0, *[c * (clear // k) for k, c in enumerate(_convolve(p._nums, q._nums), 1)]]
        h_hi, scale = _horner(anti, hi, den)
        full = clear * p._den * q._den * scale
        an, ad = an * full + (h_hi - _horner(anti, lo, den)[0]) * ad, ad * full
        common = gcd(an, ad)
        an, ad = an // common, ad // common
    return Fraction(an, ad)


def cell_ends(den: int, nums: Iterable[int], theta: Fraction, a: Fraction, b: Fraction) -> tuple[int, set[int]]:
    """Where one pushforward cuts [0, inf) besides 0: every theta*c - a and
    theta*c + b above 0, c = n/den over the input's breakpoint numerators.

    Returns (D, ends): the ends are integer numerators over the one
    denominator D = q*den*lcm(den a, den b), q the denominator of theta.
    """
    w = lcm(a.denominator, b.denominator)
    q = theta.denominator
    t = theta.numerator * w
    sa = a.numerator * (w // a.denominator) * q * den
    sb = b.numerator * (w // b.denominator) * q * den
    return q * den * w, {y for tc in (t * n for n in nums) for y in (tc - sa, tc + sb) if y > 0}


def _difference(u: Sequence[int], du: int, l: Sequence[int], dl: int, width: Fraction) -> Polynomial:
    """The piece (u/du - l/dl)/width, one gcd for the whole piece."""
    g = gcd(du, dl)
    fu, fl = dl // g * width.denominator, du // g * width.denominator
    nums = [c * fu for c in u]
    nums += [0] * (len(l) - len(nums))
    for k, c in enumerate(l):
        nums[k] -= c * fl
    return Polynomial._from_integer_form(nums, du // g * dl * width.numerator)


def piecewise_pushforward(f: PiecewisePoly, theta, a, b) -> PiecewisePoly:
    """One AR(1) step: density of (theta*Y + X)+ killed below 0.

    X is uniform on [-a, b], so for y >= 0 the result is
    P(y - b <= theta*Y <= y + a)/(a + b), a difference of Y's cumulative F at
    (y + a)/theta and (y - b)/theta.  It is the exact sub-density of the next
    state on the survival event, so total mass can only shrink.
    """
    theta, a, b = Fraction(theta), Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise DomainError("uniform innovation half-widths must be positive")
    cum, mass = f._cumulative_table()
    if mass == 0:
        return PiecewisePoly.zero()
    if theta == 0:
        return PiecewisePoly.constant(0, b, mass / (a + b))
    den, ends = cell_ends(f._den, f._nums, theta, a, b)
    if not ends:
        return PiecewisePoly.zero()
    cells = [0, *sorted(ends)]
    bps, bden = f._nums, f._den
    table = [((), 1), *cum, ((mass.numerator,), mass.denominator)]  # F below, on and above f's support
    inv = 1 / theta
    upper, lower = (a, -b) if theta > 0 else (-b, a)

    def side(shift: Fraction):
        # F((y + shift)/theta) cell by cell, the inner map being (i0 + i1*y)/c.  At the
        # midpoint y = (lo + hi)/(2*den) of a cell it lands at N/D in units of 1/bden, and
        # bisecting f's integer breakpoints at floor(N/D) places it: no midpoint maps onto
        # a breakpoint of f (each shifted one is a cell end).  The index is monotone, so
        # each piece is composed once.
        inner, c = _integer_form([shift * inv, inv])
        step, offset, scale = inner[1] * bden, 2 * den * inner[0] * bden, 2 * den * c
        index = None
        for lo, hi in zip(cells, cells[1:]):
            i = bisect_right(bps, ((lo + hi) * step + offset) // scale)
            if i != index:
                index = i
                nums, d = piece = table[i]
                if nums:
                    composed, s = _compose(nums, inner, c)
                    piece = composed, d * s
            yield piece

    width = a + b
    pieces = [_difference(u, du, l, dl, width) for (u, du), (l, dl) in zip(side(upper), side(lower))]
    return PiecewisePoly._from_integer_form(den, cells, pieces)
