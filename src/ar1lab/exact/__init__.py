"""Exact arithmetic substrate: rationals, polynomials, series, densities."""
