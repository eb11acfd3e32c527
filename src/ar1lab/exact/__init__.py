"""Exact arithmetic substrate: rationals, polynomials, series, densities."""

from ar1lab.exact.rational import format_rational, parse_rational
from ar1lab.exact.polynomial import Polynomial
from ar1lab.exact.series import TruncatedSeries, cos_series, sin_series
from ar1lab.exact.piecewise import PiecewisePoly, piecewise_pushforward

__all__ = [
    "format_rational",
    "parse_rational",
    "Polynomial",
    "TruncatedSeries",
    "sin_series",
    "cos_series",
    "PiecewisePoly",
    "piecewise_pushforward",
]
