"""Piecewise-polynomial sub-probability densities with exact breakpoints.

A ``PiecewisePoly`` is a density given by strictly increasing rational
breakpoints b_0 < ... < b_m and m polynomial pieces, piece i valid on
[b_i, b_{i+1}].  Values at shared breakpoints are taken from the left piece;
densities may be discontinuous at breakpoints.

``piecewise_pushforward`` performs one autoregressive step with uniform
innovations: it maps the sub-density of Y to that of (theta*Y + X) killed on
the negative half-line, reading each piece off Y's cumulative, so the total
mass after n steps is the survival probability itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from ar1lab.errors import DomainError
from ar1lab.exact.polynomial import Polynomial
from ar1lab.exact.rational import format_rational


class PiecewisePoly:
    """Finitely supported piecewise-polynomial density, exact everywhere."""

    __slots__ = ("breakpoints", "pieces", "_cumulative")

    def __init__(self, breakpoints: Iterable, pieces: Iterable[Polynomial]):
        bps = tuple(Fraction(b) for b in breakpoints)
        pcs = tuple(pieces)
        if len(bps) != len(pcs) + 1:
            raise ValueError("need exactly one more breakpoint than pieces")
        if not pcs:
            raise ValueError("need at least one piece")
        for lo, hi in zip(bps, bps[1:]):
            if not lo < hi:
                raise ValueError("breakpoints must be strictly increasing")
        bps, pcs = _canonicalize(bps, pcs)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pcs)
        object.__setattr__(self, "_cumulative", None)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("PiecewisePoly is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls) -> "PiecewisePoly":
        return cls((Fraction(0), Fraction(1)), (Polynomial.zero(),))

    @classmethod
    def constant(cls, lo, hi, value) -> "PiecewisePoly":
        return cls((Fraction(lo), Fraction(hi)), (Polynomial.constant(value),))

    # -- basic queries ----------------------------------------------------
    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.pieces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewisePoly):
            return NotImplemented
        return self.breakpoints == other.breakpoints and self.pieces == other.pieces

    def __repr__(self) -> str:
        return f"PiecewisePoly({len(self.pieces)} pieces on [{self.breakpoints[0]}, {self.breakpoints[-1]}])"

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
        return self._cumulative_polys()[1]

    def _cumulative_polys(self) -> tuple[tuple[Polynomial, ...], Fraction]:
        """(A_i, mass) with A_i(x) = integral of the density from b_0 to x on piece i.

        Built once per density and kept, so ``mass`` and the next
        pushforward share one integration; the mass is the running total.
        """
        if self._cumulative is None:
            out = []
            acc = Fraction(0)
            for (lo, hi), p in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
                anti = p.antiderivative()
                cum = anti + (acc - anti(lo))
                out.append(cum)
                acc = cum(hi)
            object.__setattr__(self, "_cumulative", (tuple(out), acc))
        return self._cumulative

    def cumulative_at(self, x) -> Fraction:
        """Integral of the density from b_0 to x.

        Sums each piece's antiderivative up to x and shares no code with
        ``_cumulative_polys``.
        """
        x = Fraction(x)
        total = Fraction(0)
        for (lo, hi), p in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            if lo >= x:
                break
            anti = p.antiderivative()
            total += anti(min(x, hi)) - anti(lo)
        return total

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "pieces": [p.to_strings() for p in self.pieces],
        }


def _canonicalize(bps: Sequence[Fraction], pcs: Sequence[Polynomial]):
    # merge adjacent identical pieces, then trim zero pieces at the edges
    mb: list[Fraction] = [bps[0]]
    mp: list[Polynomial] = []
    for i, p in enumerate(pcs):
        if mp and mp[-1] == p:
            mb[-1] = bps[i + 1]
        else:
            mp.append(p)
            mb.append(bps[i + 1])
    lo = 0
    hi = len(mp)
    while lo < hi and mp[lo].is_zero():
        lo += 1
    while hi > lo and mp[hi - 1].is_zero():
        hi -= 1
    if lo == hi:
        return (Fraction(0), Fraction(1)), (Polynomial.zero(),)
    return tuple(mb[lo : hi + 1]), tuple(mp[lo:hi])


def cell_ends(breakpoints: Iterable[Fraction], theta: Fraction, a: Fraction, b: Fraction) -> set[Fraction]:
    """Where one pushforward cuts [0, inf) besides 0: every theta*c - a and
    theta*c + b above 0, c over the input's breakpoints."""
    return {y for tc in (theta * c for c in breakpoints) for y in (tc - a, tc + b) if y > 0}


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
    bps = f.breakpoints
    cum, mass = f._cumulative_polys()
    if mass == 0:
        return PiecewisePoly.zero()
    if theta == 0:
        return PiecewisePoly.constant(0, b, mass / (a + b))
    inv = 1 / theta
    upper, lower = (a, -b) if theta > 0 else (-b, a)
    ends = cell_ends(bps, theta, a, b)
    if not ends:
        return PiecewisePoly.zero()
    cells = [Fraction(0)] + sorted(ends)
    table = [Polynomial.zero(), *cum, Polynomial.constant(mass)]  # F below, on and above f's support

    def side(shift: Fraction):
        # F((t + shift)/theta) cell by cell.  No midpoint maps onto a breakpoint of f (each
        # shifted one is a cell end) and the index is monotone, so each piece is composed once.
        inner, index = Polynomial((shift * inv, inv)), None
        for lo, hi in zip(cells, cells[1:]):
            i = bisect_right(bps, ((lo + hi) / 2 + shift) * inv)
            if i != index:
                index, poly = i, table[i].compose(inner)
            yield poly

    inv_width = 1 / (a + b)
    pieces = [(u - l) * inv_width for u, l in zip(side(upper), side(lower))]
    return PiecewisePoly(cells, pieces)
