"""Piecewise-polynomial sub-probability densities with exact breakpoints.

A ``PiecewisePoly`` is a density given by strictly increasing rational
breakpoints b_0 < ... < b_m and m polynomial pieces, piece i valid on
[b_i, b_{i+1}].  Values at shared breakpoints are taken from the left piece;
densities may be discontinuous at breakpoints.

``piecewise_pushforward`` performs one autoregressive step with uniform
innovations: it maps the sub-density of Y to that of (theta*Y + X) killed on
the negative half-line, so the total mass after n steps is the survival
probability itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from ar1lab.errors import DomainError
from ar1lab.exact.polynomial import Polynomial
from ar1lab.exact.rational import format_rational, parse_rational


class PiecewisePoly:
    """Finitely supported piecewise-polynomial density, exact everywhere."""

    __slots__ = ("breakpoints", "pieces")

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

    @property
    def support(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

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
        total = Fraction(0)
        for (lo, hi), p in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            anti = p.antiderivative()
            total += anti(hi) - anti(lo)
        return total

    def _cumulative_polys(self) -> list[Polynomial]:
        """A_i with A_i(x) = integral of the density from b_0 to x on piece i."""
        out = []
        acc = Fraction(0)
        for (lo, hi), p in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            anti = p.antiderivative()
            out.append(anti - anti(lo) + acc)
            acc += anti(hi) - anti(lo)
        return out

    def cumulative_at(self, x) -> Fraction:
        x = Fraction(x)
        bps = self.breakpoints
        if x <= bps[0]:
            return Fraction(0)
        if x >= bps[-1]:
            return self.mass()
        i = bisect_right(bps, x) - 1
        return self._cumulative_polys()[i](x)

    # -- transforms -------------------------------------------------------
    def scale_argument(self, theta) -> "PiecewisePoly":
        """Density of theta*Y when Y has this density (theta nonzero)."""
        theta = Fraction(theta)
        if theta == 0:
            raise DomainError("cannot scale a density by zero")
        inner = Polynomial((0, 1 / theta))
        scale = abs(1 / theta)
        polys = [p.compose(inner) * scale for p in self.pieces]
        bps = [theta * b for b in self.breakpoints]
        if theta > 0:
            return PiecewisePoly(bps, polys)
        return PiecewisePoly(tuple(reversed(bps)), tuple(reversed(polys)))

    def convolve_uniform(self, a, b) -> "PiecewisePoly":
        """Density of Y + X for X uniform on [-a, b], X independent of Y."""
        a, b = Fraction(a), Fraction(b)
        if a + b <= 0:
            raise DomainError("uniform support width a+b must be positive")
        cum = self._cumulative_polys()
        total = self.mass()
        bps = self.breakpoints

        def h_cum_expr(shift: Fraction, point: Fraction) -> Polynomial:
            # H(y + shift) as a polynomial in y, on the cell whose midpoint
            # maps to `point`.
            if point <= bps[0]:
                return Polynomial.zero()
            if point >= bps[-1]:
                return Polynomial.constant(total)
            i = bisect_right(bps, point) - 1
            return cum[i].compose(Polynomial((shift, 1)))

        cands = sorted({c - a for c in bps} | {c + b for c in bps})
        new_bps: list[Fraction] = [cands[0]]
        new_pieces: list[Polynomial] = []
        inv_width = 1 / (a + b)
        for lo, hi in zip(cands, cands[1:]):
            mid = (lo + hi) / 2
            upper = h_cum_expr(a, mid + a)
            lower = h_cum_expr(-b, mid - b)
            new_pieces.append((upper - lower) * inv_width)
            new_bps.append(hi)
        return PiecewisePoly(new_bps, new_pieces)

    def restrict_nonneg(self) -> "PiecewisePoly":
        """Kill the part of the density below zero."""
        bps, pcs = self.breakpoints, self.pieces
        if bps[0] >= 0:
            return self
        if bps[-1] <= 0:
            return PiecewisePoly.zero()
        i = bisect_right(bps, Fraction(0)) - 1
        if bps[i] == 0:
            return PiecewisePoly(bps[i:], pcs[i:])
        return PiecewisePoly((Fraction(0),) + bps[i + 1 :], pcs[i:])

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "pieces": [p.to_strings() for p in self.pieces],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewisePoly":
        return cls(
            tuple(parse_rational(s) for s in data["breakpoints"]),
            tuple(Polynomial.from_strings(p) for p in data["pieces"]),
        )


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


def piecewise_pushforward(f: PiecewisePoly, theta, a, b) -> PiecewisePoly:
    """One AR(1) step: density of (theta*Y + X)+ killed below 0.

    X is uniform on [-a, b].  The result is the exact sub-density of the next
    state on the survival event, so total mass can only shrink.
    """
    theta, a, b = Fraction(theta), Fraction(a), Fraction(b)
    if a + b <= 0:
        raise DomainError("uniform innovation needs a + b > 0")
    if a <= 0 or b <= 0:
        raise DomainError("uniform innovation half-widths must be positive")
    mass = f.mass()
    if mass == 0:
        return PiecewisePoly.zero()
    if theta == 0:
        return PiecewisePoly.constant(0, b, mass / (a + b))
    return f.scale_argument(theta).convolve_uniform(a, b).restrict_nonneg()
