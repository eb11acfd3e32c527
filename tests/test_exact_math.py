"""Exact substrate: rationals, polynomials, series, piecewise densities."""

from bisect import bisect_left
from fractions import Fraction as F
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ar1lab.errors import DomainError, NonInvertibleError
from ar1lab.exact import piecewise as piecewise_module
from ar1lab.exact.piecewise import PiecewisePoly, inner_product, piecewise_pushforward
from ar1lab.exact.polynomial import Polynomial, _compose
from ar1lab.exact.rational import format_rational, parse_rational
from ar1lab.exact.series import TruncatedSeries

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# zeros, negative coefficients and large denominators
coefficients = st.one_of(small_fractions, st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**15))
rational_points = st.one_of(st.integers(min_value=-50, max_value=50), coefficients)
# mostly zero terms, so the factors' sparsity differs
sparse_coefficients = st.one_of(st.just(F(0)), st.just(F(0)), coefficients)


# Plain-Fraction references for the integer polynomial kernels: one Fraction
# operation per term, sharing no code with ar1lab.exact.polynomial.
def ref_product(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def ref_value(coeffs, x):
    total = F(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def ref_compose(coeffs, inner):
    total = []
    for c in reversed(coeffs):
        total = ref_product(total, inner) or [F(0)]
        total[0] += c
    return total


def ref_coeffs(coeffs):
    # the Fraction coefficients without trailing zeros
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_divexact(num, den):
    # polynomial long division term by term over Fractions; None when a remainder is left
    rem, lead = list(num), den[-1]
    out = [F(0)] * (len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        out[k] = rem[k + len(den) - 1] / lead
        for j, c in enumerate(den):
            rem[k + j] -= out[k] * c
    return None if any(rem) else out


def ref_piece(f, lo, hi):
    # the Fraction coefficients of f on [lo, hi], a cell inside one piece or outside f
    bps = f.breakpoints
    for a, b, p in zip(bps, bps[1:], f.pieces):
        if a <= lo and hi <= b:
            return list(p.coeffs)
    return []


def ref_integral(coeffs, lo, hi):
    return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))


def ref_cumulative(f, x):
    # the integral of f from its first breakpoint up to x, piece by piece in plain Fractions
    total = F(0)
    for lo, hi, p in zip(f.breakpoints, f.breakpoints[1:], f.pieces):
        if lo >= x:
            break
        total += ref_integral(p.coeffs, lo, min(x, hi))
    return total


def evaluate(f, x):
    # the density f at x, zero outside its support; a shared breakpoint resolves to the left piece
    x = F(x)
    bps = f.breakpoints
    if x < bps[0] or x > bps[-1]:
        return F(0)
    if x == bps[0]:
        return f.pieces[0](x)
    return f.pieces[bisect_left(bps, x) - 1](x)


@st.composite
def piecewise_polys(draw):
    # breakpoints numerator/den (so not integers when den > 1) from a start that may lie
    # below 0, pieces of integer numerators over their own denominator, some of them zero
    den = draw(st.integers(min_value=1, max_value=12))
    bps = [F(draw(st.integers(min_value=-30, max_value=10)), den)]
    pieces = []
    for width, nums, d in draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.one_of(st.just([]), st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=5)),
                st.integers(min_value=1, max_value=30),
            ),
            min_size=1,
            max_size=6,
        )
    ):
        bps.append(bps[-1] + F(width, den))
        pieces.append(Polynomial(F(n, d) for n in nums))
    return PiecewisePoly(bps, pieces)


def full_chain_density(n, theta, a, b):
    """f_n of the uncut oracle chain: 1/(a+b) on [0, b], pushed forward n - 1 times."""
    f = PiecewisePoly.constant(0, b, 1 / F(a + b))
    for _ in range(n - 1):
        f = piecewise_pushforward(f, theta, a, b)
    return f


def assert_canonical(p):
    # the stored integer form: a positive denominator coprime to the numerators, no trailing zero
    assert p._den > 0 and gcd(p._den, *p._nums) == 1
    assert not p._nums or p._nums[-1]


class TestRational:
    def test_wire_format(self):
        assert format_rational(F(3, 4)) == "3/4"
        assert format_rational(F(5)) == "5"
        assert format_rational(F(-7, 2)) == "-7/2"
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-5") == F(-5)
        assert parse_rational("0.25") == F(1, 4)

    def test_malformed_text_is_a_domain_error(self):
        for text in ("1/0", "abc", "x", "1/2/3", ""):
            with pytest.raises(DomainError, match="not a rational number"):
                parse_rational(text)

    @given(small_fractions)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestPolynomial:
    def test_canonical_form(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (F(1), F(2))
        assert Polynomial(()).is_zero()
        assert Polynomial((0, 0)).degree == -1

    def test_arithmetic(self):
        p = Polynomial((1, 1))
        q = Polynomial((-1, 1))
        assert p * q == Polynomial((-1, 0, 1))
        assert p + q == Polynomial((0, 2))
        assert p - p == Polynomial.zero()
        assert 2 * p == Polynomial((2, 2))
        assert p / 2 == Polynomial((F(1, 2), F(1, 2)))
        assert p**3 == Polynomial((1, 3, 3, 1))

    def test_evaluation_and_compose(self):
        p = Polynomial((1, 2, 3))
        assert p(F(2)) == 1 + 4 + 12
        inner = Polynomial((1, 1))
        assert p.compose(inner)(F(1)) == p(F(2))

    def test_calculus(self):
        p = Polynomial((5, 0, 3))
        assert p.derivative() == Polynomial((0, 6))

    def test_divexact(self):
        p = Polynomial((-1, 0, 1))
        assert p.divexact(Polynomial((-1, 1))) == Polynomial((1, 1))
        assert p / Polynomial((-1, 1)) == p.divexact(Polynomial((-1, 1)))
        assert Polynomial((0, 0, 6, 3)) / Polynomial.monomial(2) == Polynomial((6, 3))
        with pytest.raises(ValueError):
            Polynomial((1, 1)).divexact(Polynomial((0, 1)))
        with pytest.raises(ValueError, match="inexact polynomial division"):
            Polynomial((1, 1)) / Polynomial((0, 1))

    def test_evaluation_refuses_an_inexact_point(self):
        for p in (Polynomial((1, 2, 3)), Polynomial.zero()):
            for x in (0.5, Polynomial.x()):
                with pytest.raises(TypeError, match="evaluated at exact rationals"):
                    p(x)

    def test_hash_agrees_with_equality(self):
        # among polynomials only: a constant polynomial is not its scalar
        p, same = Polynomial((F(1, 2), 1)), Polynomial((F(2, 4), F(3, 3), 0))
        assert p == same and hash(p) == hash(same)
        assert len({p, same, Polynomial.constant(F(1, 2))}) == 2
        assert hash(Polynomial.zero()) == hash(Polynomial((0, 0)))
        assert Polynomial.constant(3) != 3 and 3 not in {Polynomial.constant(3)}
        assert Polynomial.zero() != 0

    def test_valuation(self):
        assert Polynomial((0, 0, 3, 1)).valuation == 2
        assert Polynomial.zero().valuation is None

    def test_serialization(self):
        p = Polynomial((F(1, 2), F(-3)))
        assert Polynomial(parse_rational(s) for s in p.to_strings()) == p

    @given(st.lists(coefficients, max_size=6), st.lists(coefficients, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_product_matches_fraction_loop(self, a, b):
        product = Polynomial(a) * Polynomial(b)
        assert_canonical(product)
        assert product.coeffs == ref_coeffs(ref_product(a, b))

    @given(st.lists(coefficients, max_size=6), st.lists(coefficients, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_sums_match_fraction_loop(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        n = max(len(a), len(b))
        a0, b0 = a + [F(0)] * (n - len(a)), b + [F(0)] * (n - len(b))
        for got, want in (
            (p + q, [x + y for x, y in zip(a0, b0)]),
            (p - q, [x - y for x, y in zip(a0, b0)]),
            (-p, [-x for x in a]),
        ):
            assert_canonical(got)
            assert got.coeffs == ref_coeffs(want)

    @given(st.lists(coefficients, max_size=6), rational_points)
    @settings(max_examples=60, deadline=None)
    def test_scalar_product_and_quotient_match_fraction_loop(self, a, s):
        # negative, fractional and zero scalars, int and Fraction
        p = Polynomial(a)
        for got in (p * s, s * p):
            assert_canonical(got)
            assert got.coeffs == ref_coeffs([c * s for c in a])
        if s == 0:
            with pytest.raises(ZeroDivisionError):
                p / s
        else:
            assert_canonical(p / s)
            assert (p / s).coeffs == ref_coeffs([c / s for c in a])

    @given(st.lists(coefficients, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_calculus_matches_fraction_loop(self, a):
        derivative = Polynomial(a).derivative()
        assert_canonical(derivative)
        assert derivative.coeffs == ref_coeffs([k * c for k, c in enumerate(a)][1:])

    @given(st.lists(sparse_coefficients, max_size=8), st.lists(sparse_coefficients, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_product_is_the_same_in_either_order(self, a, b):
        # __mul__ puts the factor with fewer nonzero terms in the kernel's outer loop
        assert Polynomial(a) * Polynomial(b) == Polynomial(b) * Polynomial(a) == Polynomial(ref_product(a, b))

    @given(st.lists(coefficients, max_size=6), rational_points)
    @settings(max_examples=60, deadline=None)
    def test_value_matches_fraction_loop(self, coeffs, x):
        p = Polynomial(coeffs)
        assert p(x) == ref_value(coeffs, x)
        assert p(0) == ref_value(coeffs, 0)
        assert type(p(F(x))) is F

    @given(st.lists(coefficients, max_size=6), coefficients, coefficients.filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_compose_matches_fraction_loop(self, coeffs, i0, i1):
        # the zero polynomial among the outer ones, and a zero shift among the inner ones
        inner = [i0, i1]
        composed = Polynomial(coeffs).compose(Polynomial(inner))
        assert_canonical(composed)
        assert composed.coeffs == ref_coeffs(ref_compose(coeffs, inner))

    def test_compose_refuses_a_nonlinear_inner(self):
        for inner in (Polynomial.zero(), Polynomial.constant(2), Polynomial((1, 0, 1))):
            with pytest.raises(ValueError, match="linear inner"):
                Polynomial((1, 2)).compose(inner)

    @given(
        st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=15),
        st.one_of(st.just(0), st.integers(min_value=-40, max_value=40)),
        st.one_of(st.sampled_from([1, -1]), st.integers(min_value=-40, max_value=40).filter(bool)),
        st.one_of(st.just(1), st.integers(min_value=1, max_value=10**15)),
    )
    @example([5], 3, 1, 1)  # constant nums
    @example([1, -2, 0, 4], 0, -1, 10**15)  # no shift, negative i1, large c
    @example(list(range(1, 16)), -7, -3, 6)  # degree 14
    @settings(max_examples=80, deadline=None)
    def test_compose_by_a_linear_integer_inner(self, nums, i0, i1, c):
        # the integer Taylor shift against the per-term Fraction loop:
        # sum nums[k] ((i0 + i1*y)/c)^k == M/S with S = c^d
        inner = [i0, i1]
        composed, scale = _compose(nums, inner, c)
        assert scale == c ** (len(nums) - 1)
        assert [F(m, scale) for m in composed] == ref_compose([F(n) for n in nums], [F(i, c) for i in inner])

    def test_value_types(self):
        assert type(Polynomial.zero()(3)) is F and Polynomial.zero()(3) == 0
        assert type(Polynomial.zero()(F(3))) is F
        assert type(Polynomial((1, 2))(3)) is F and Polynomial((1, 2))(3) == 7
        assert type(Polynomial.constant(F(1, 3))(F(5))) is F

    @given(st.lists(small_fractions, max_size=5), st.lists(small_fractions, min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_product_division_round_trip(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        if q.is_zero():
            return
        assert (p * q).divexact(q) == p

    @given(
        st.lists(sparse_coefficients, max_size=7),
        st.lists(sparse_coefficients, max_size=4),
        st.one_of(st.just(F(1)), coefficients.filter(bool)),
    )
    @example([F(1), F(2)], [F(0), F(0), F(3)], F(1))  # the divisor th^2 (3 + th), zero low terms
    @example([F(-5, 7), F(0), F(2)], [F(1, 3)], F(-4, 9))  # a negative, non-integer lead
    @settings(max_examples=80, deadline=None)
    def test_divexact_matches_the_fraction_loop(self, a, b, lead):
        # integer pseudo-division against term-by-term Fraction division; the divisor's
        # lead numerator is 1 or not, and its lower terms are often zero
        p, q = Polynomial(a), Polynomial([*b, lead])
        quotient = (p * q).divexact(q)
        assert_canonical(quotient)
        assert quotient == p
        assert quotient.coeffs == ref_coeffs(ref_divexact((p * q).coeffs, q.coeffs))

    @given(
        st.lists(sparse_coefficients, max_size=5),
        st.lists(coefficients, min_size=1, max_size=3),
        st.lists(sparse_coefficients, max_size=3),
    )
    @example([F(1)], [F(1), F(2)], [F(0), F(1, 5)])  # remainder of the divisor's own degree
    @settings(max_examples=60, deadline=None)
    def test_inexact_division_raises(self, a, b, r):
        # p*q + r with r nonzero and of lower degree than q leaves the remainder r
        q = Polynomial([*b, F(3, 2)])
        rem = Polynomial(r[: q.degree])
        if rem.is_zero():
            return
        dividend = Polynomial(a) * q + rem
        with pytest.raises(ValueError, match="inexact polynomial division"):
            dividend.divexact(q)
        assert ref_divexact(dividend.coeffs, q.coeffs) is None
        with pytest.raises(ZeroDivisionError):
            dividend.divexact(Polynomial.zero())


class TestTruncatedSeries:
    def test_geometric_inversion(self):
        s = TruncatedSeries([F(1), F(-1)], order=8)
        assert s.invert().coeffs == (F(1),) * 9

    def test_invert_identity(self):
        one = TruncatedSeries.one(5)
        assert one.invert() == one

    def test_invert_requires_unit(self):
        with pytest.raises(NonInvertibleError):
            TruncatedSeries([F(0), F(1)], order=4).invert()

    def test_fraction_division(self):
        # (1 + z)/(1 - z) = 1 + 2z + 2z^2 + ...; a constant term other than 1
        quotient = TruncatedSeries([F(1), F(1)], order=6) / TruncatedSeries([F(1), F(-1)], order=6)
        assert quotient.coeffs == (F(1),) + (F(2),) * 6
        halves = TruncatedSeries([F(1)], order=3) / TruncatedSeries([F(2), F(-1)], order=3)
        assert halves.coeffs == (F(1, 2), F(1, 4), F(1, 8), F(1, 16))
        assert (halves / halves) == TruncatedSeries.one(3)

    def test_division_over_polynomials_needs_no_unit(self):
        # the divisor's constant term th^3 is not a unit of Q[th], yet divides exactly
        th = Polynomial.x()
        a = TruncatedSeries([Polynomial((1, 2)), Polynomial((0, F(1, 3))), Polynomial((-1,))], order=4)
        s = TruncatedSeries([th**3, Polynomial((0, 1, 1)), Polynomial((5,)), th], order=4)
        assert (a * s) / s == a

    def test_division_by_zero_constant_term(self):
        with pytest.raises(NonInvertibleError):
            TruncatedSeries([F(1)], order=4) / TruncatedSeries([F(0), F(1)], order=4)
        with pytest.raises(NonInvertibleError):
            TruncatedSeries.one(2) / TruncatedSeries([F(0)], order=2)
        polys = TruncatedSeries([Polynomial.one()], order=3)
        with pytest.raises(NonInvertibleError):
            polys / TruncatedSeries([Polynomial.zero(), Polynomial.one()], order=3)

    def test_constant_term_that_does_not_divide(self):
        # th does not divide 1 in Q[th]: the exact division refuses
        # (ValueError, not NonInvertibleError; inverting raised ZeroDivisionError before)
        s = TruncatedSeries([Polynomial.x(), Polynomial.one()], order=3)
        with pytest.raises(ValueError, match="inexact polynomial division"):
            s.invert()
        with pytest.raises(ValueError, match="inexact polynomial division"):
            TruncatedSeries([Polynomial.one()], order=3) / s

    @given(
        st.lists(st.lists(small_fractions, max_size=3), min_size=1, max_size=4),
        st.lists(st.lists(small_fractions, max_size=3), min_size=1, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_product_quotient_round_trip(self, a, b):
        a = TruncatedSeries([Polynomial(c) for c in a], order=3)
        b = TruncatedSeries([Polynomial(c) for c in b], order=3)
        if b.coefficient(0).is_zero():
            return
        assert (a * b) / b == a

    def test_log_precondition(self):
        with pytest.raises(DomainError):
            TruncatedSeries([F(2)], order=3).log()

    @given(st.lists(small_fractions, min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_double_inversion(self, coeffs):
        coeffs = [F(1)] + coeffs
        s = TruncatedSeries(coeffs, order=6)
        assert s.invert().invert() == s

    def test_product_truncates_to_min_order(self):
        a = TruncatedSeries([F(1)], order=3)
        b = TruncatedSeries([F(1)], order=7)
        assert (a * b).order == 3

    def test_egf_views(self):
        s = TruncatedSeries([F(1, factorial(n)) for n in range(5)], 4)
        assert s.coefficient(3) == F(1, 6)
        assert s.coefficient(3) * factorial(3) == 1

    def test_zigzag_series_against_inverted_alternating_family(self):
        # inverting sum (-1)^n J_{n+1}(-1) z^n/n! reproduces the zigzag EGF
        from ar1lab.families import mallows_riordan, zigzag

        order = 10
        coeffs = [
            mallows_riordan(n + 1)(F(-1)) * F((-1) ** n, factorial(n)) for n in range(order + 1)
        ]
        inv = TruncatedSeries(coeffs, order).invert()
        for n in range(order + 1):
            assert inv.coefficient(n) * factorial(n) == zigzag(n)

    def test_log_of_deformed_exponential_matches_printed_families(self):
        # log E has EGF coefficients (th-1)^(n-1) J_n(th)/n!, n <= 6
        printed = {
            1: Polynomial((1,)),
            2: Polynomial((1,)),
            3: Polynomial((2, 1)),
            4: Polynomial((6, 6, 3, 1)),
            5: Polynomial((24, 36, 30, 20, 10, 4, 1)),
            6: Polynomial((120, 240, 270, 240, 180, 120, 70, 35, 15, 5, 1)),
        }
        order = 6
        e_coeffs = [
            Polynomial.monomial(n * (n - 1) // 2) * F(1, factorial(n)) for n in range(order + 1)
        ]
        logE = TruncatedSeries(e_coeffs, order).log()
        shift = Polynomial((-1, 1))
        for n in range(1, order + 1):
            expected = shift ** (n - 1) * printed[n] * F(1, factorial(n))
            assert logE.coefficient(n) == expected

    def test_exponential_identity_for_family_shift(self):
        # exp[sum J_n (1+th+...+th^(n-1)) z^n/n!] = sum J_{n+1} z^n/n!, n <= 8,
        # stated through the logarithm of the right-hand side
        from ar1lab.families import mallows_riordan

        order = 8
        rhs = TruncatedSeries([mallows_riordan(n + 1) * F(1, factorial(n)) for n in range(order + 1)], order)
        logs = rhs.log()
        assert logs.coefficient(0) == Polynomial.zero()
        for n in range(1, order + 1):
            assert logs.coefficient(n) * factorial(n) == mallows_riordan(n) * Polynomial.geometric(n)

    def test_zigzag_numbers_are_the_egf_coefficients_of_sec_plus_tan(self):
        # (1 + sin z)/cos z from the Taylor coefficients of sin and cos, against
        # the boustrophedon's integers
        from ar1lab.families import zigzag

        order = 40
        sin = [F((-1) ** (n // 2), factorial(n)) if n % 2 else F(0) for n in range(order + 1)]
        cos = [F(0) if n % 2 else F((-1) ** (n // 2), factorial(n)) for n in range(order + 1)]
        one_plus_sin = [F(1), *sin[1:]]  # sin z has no constant term
        ser = TruncatedSeries(one_plus_sin, order) / TruncatedSeries(cos, order)
        assert [ser.coefficient(n) * factorial(n) for n in range(order + 1)] == [zigzag(n) for n in range(order + 1)]


class TestPiecewisePoly:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewisePoly((1, 0), (Polynomial.one(),))
        with pytest.raises(ValueError):
            PiecewisePoly((0, 1), ())

    def test_left_piece_convention(self):
        f = PiecewisePoly((0, 1, 2), (Polynomial((1,)), Polynomial((3,))))
        assert evaluate(f, F(1)) == 1  # shared breakpoint resolves left
        assert evaluate(f, F(3, 2)) == 3
        assert evaluate(f, F(5)) == 0

    def test_mass_and_cumulative(self):
        f = PiecewisePoly((0, 2), (Polynomial((0, 1)),))  # density x on [0,2]
        assert f.mass() == 2
        ((cum, t),), _ = f._cumulative_table()
        assert ref_value([F(c, t) for c in cum], F(1)) == F(1, 2)
        assert ref_value([F(c, t) for c in cum], F(2)) == 2

    @given(piecewise_polys())
    @example(
        PiecewisePoly(
            (F(-4, 3), F(-2, 3), F(-1, 3), F(4, 3)),
            (Polynomial((1,)), Polynomial.zero(), Polynomial((0, F(3, 7), F(-1, 7)))),
        )
    )  # an interior zero piece, below 0
    @settings(max_examples=60, deadline=None)
    def test_cumulative_table_matches_the_reference_loop(self, f):
        table, mass = f._cumulative_table()
        assert len(table) == len(f.pieces)
        for (cum, t), lo, hi in zip(table, f.breakpoints, f.breakpoints[1:]):
            for x in (lo, hi):
                assert ref_value([F(c, t) for c in cum], x) == ref_cumulative(f, x)
        assert mass == f.mass() == ref_cumulative(f, f.breakpoints[-1])
        assert type(mass) is F

    @given(piecewise_polys(), piecewise_polys(), small_fractions)
    @example(
        PiecewisePoly((0, 1), (Polynomial((1,)),)),
        PiecewisePoly((2, 3), (Polynomial((0, 1)),)),
        F(-1, 2),
    )  # disjoint supports with a gap between them
    @settings(max_examples=60, deadline=None)
    def test_sum_scale_and_inner_product_match_the_fraction_reference(self, f, g, c):
        # over the union of both breakpoint sets, each cell inside one piece of each
        cuts = sorted({*f.breakpoints, *g.breakpoints})
        cells = list(zip(cuts, cuts[1:]))
        total = f + g
        for lo, hi in cells:
            mid = (lo + hi) / 2
            assert evaluate(total, mid) == ref_value(ref_piece(f, lo, hi), mid) + ref_value(ref_piece(g, lo, hi), mid)
        assert evaluate(total, cuts[-1] + 1) == evaluate(total, cuts[0] - 1) == 0
        assert total.mass() == f.mass() + g.mass()
        assert f + g == g + f
        assert f.scaled(c) == PiecewisePoly(f.breakpoints, [p * c for p in f.pieces])
        want = sum(ref_integral(ref_product(ref_piece(f, lo, hi), ref_piece(g, lo, hi)), lo, hi) for lo, hi in cells)
        assert inner_product(f, g) == inner_product(g, f) == want
        assert type(inner_product(f, g)) is F

    def test_inner_product_and_sum_examples(self):
        unit = PiecewisePoly.constant(0, 1, 1)
        ramp = PiecewisePoly((0, 2), (Polynomial((0, 1)),))  # x on [0, 2]
        assert inner_product(unit, ramp) == F(1, 2)
        assert inner_product(ramp, ramp) == F(8, 3)
        assert inner_product(unit, PiecewisePoly.constant(3, 4, 1)) == 0
        assert unit + ramp == PiecewisePoly((0, 1, 2), (Polynomial((1, 1)), Polynomial((0, 1))))
        assert unit + PiecewisePoly.zero() == unit
        assert unit + unit.scaled(-1) == PiecewisePoly.zero()

    def test_merge_and_trim(self):
        f = PiecewisePoly(
            (0, 1, 2, 3), (Polynomial((1,)), Polynomial((1,)), Polynomial.zero())
        )
        assert f.breakpoints == (F(0), F(2))
        assert len(f.pieces) == 1

    def test_canonical_form(self):
        # the Fraction views rebuild the same density
        f = PiecewisePoly((F(-1, 3), F(1, 2), F(7, 4)), (Polynomial((F(1, 2), F(2, 3))), Polynomial((F(5, 6),))))
        assert PiecewisePoly(f.breakpoints, f.pieces) == f
        g = piecewise_pushforward(f, F(-5, 3), F(1, 2), F(3, 4))
        assert PiecewisePoly(g.breakpoints, g.pieces) == g
        # one density spelled over the breakpoint denominators 6 and 1, with two equal pieces
        half = Polynomial.constant(F(1, 2))
        spelled = PiecewisePoly._from_integer_form(6, (0, 3, 6), (half, half))
        assert spelled == PiecewisePoly.constant(0, 1, F(1, 2))
        assert spelled != PiecewisePoly.constant(0, 1, F(1, 3))
        assert spelled != PiecewisePoly.constant(0, 2, F(1, 2))
        # trimming zero edge pieces re-reduces the breakpoint denominator 3 to 1
        trimmed = PiecewisePoly((F(1, 3), 1, 2, F(7, 3)), (Polynomial.zero(), Polynomial((1, 1)), Polynomial.zero()))
        assert (trimmed._den, trimmed._nums) == (1, (1, 2))
        assert trimmed == PiecewisePoly((1, 2), (Polynomial((1, 1)),))
        # the breakpoints are a Fraction tuple built once; the pieces are the stored Polynomials
        assert type(g.breakpoints) is tuple and all(type(x) is F for x in g.breakpoints)
        assert type(g.pieces) is tuple and all(type(p) is Polynomial for p in g.pieces)
        assert all(type(c) is F for p in g.pieces for c in p.coeffs)
        assert g.breakpoints is g.breakpoints and g.pieces is g.pieces

    def test_pushforward_white_noise_halves(self):
        f = PiecewisePoly.constant(0, 1, F(1))
        g = piecewise_pushforward(f, 0, 1, 1)
        assert g.mass() == F(1, 2)
        assert evaluate(g, F(1, 2)) == F(1, 2)
        # repeated halving
        h = piecewise_pushforward(g, 0, 1, 1)
        assert h.mass() == F(1, 4)

    def test_pushforward_random_walk_step(self):
        start = PiecewisePoly.constant(0, 1, F(1, 2))
        g = piecewise_pushforward(start, 1, 1, 1)
        assert g.mass() == F(3, 8)

    def test_pushforward_two_steps_half_drift(self):
        start = PiecewisePoly.constant(0, 1, F(1, 2))
        g = piecewise_pushforward(start, F(1, 2), 1, 1)
        g = piecewise_pushforward(g, F(1, 2), 1, 1)
        assert g.mass() == F(79, 384)

    def test_pushforward_negative_drift(self):
        f = PiecewisePoly.constant(0, 1, F(1))
        g = piecewise_pushforward(f, F(-2), 1, 1)
        assert g.breakpoints == (F(0), F(1))
        assert g.pieces == (Polynomial((F(1, 4), F(-1, 4))),)
        assert g.mass() == F(1, 8)

    def test_pushforward_unit_drift(self):
        f = PiecewisePoly.constant(0, 1, F(1))
        g = piecewise_pushforward(f, 1, 1, 1)
        assert g.breakpoints == (F(0), F(1), F(2))
        assert g.pieces == (Polynomial((F(1, 2),)), Polynomial((1, F(-1, 2))))
        assert g.mass() == F(3, 4)

    def test_pushforward_zero_density(self):
        assert piecewise_pushforward(PiecewisePoly.zero(), F(1, 2), 1, 1).is_zero()
        # every point of the next state lies below 0
        assert piecewise_pushforward(PiecewisePoly.constant(3, 4, 1), -1, 1, 1).is_zero()

    def test_pushforward_guards(self):
        f = PiecewisePoly.constant(0, 1, F(1))
        with pytest.raises(DomainError):
            piecewise_pushforward(f, 1, -1, 1)
        with pytest.raises(DomainError):
            piecewise_pushforward(f, 1, 0, 0)

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value="1/5", max_value=2, max_denominator=6),
                st.lists(st.fractions(min_value=0, max_value=2, max_denominator=5), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=3,
        ),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=7),
        st.fractions(min_value="1/3", max_value=2, max_denominator=5),
        st.fractions(min_value="1/3", max_value=2, max_denominator=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_pushforward_is_the_cumulative_difference(self, cells, start, theta, a, b):
        # g(y) = P(y - b <= theta*Y <= y + a)/(a + b) for y >= 0.  f has rational
        # breakpoints and pieces of degree up to 2, sum c_k (x - lo)^k with c_k >= 0,
        # so it is a density; theta takes either sign, a and b differ, and all three may
        # have denominators above 1.
        bps, pieces = [start], []
        for width, coeffs in cells:
            pieces.append(Polynomial(ref_compose(coeffs, [-bps[-1], F(1)])))
            bps.append(bps[-1] + width)
        f = PiecewisePoly(bps, pieces)
        g = piecewise_pushforward(f, theta, a, b)
        bps = g.breakpoints
        points = list(bps) + [(lo + hi) / 2 for lo, hi in zip(bps, bps[1:])] + [bps[-1] + 1]
        for y in points:
            if theta == 0:
                want = ref_cumulative(f, f.breakpoints[-1]) / (a + b) if 0 <= y <= b else 0
            else:
                u, l = (y + a) / theta, (y - b) / theta
                want = (ref_cumulative(f, max(u, l)) - ref_cumulative(f, min(u, l))) / (a + b)
            assert evaluate(g, y) == want
        assert g.mass() <= f.mass()

    @pytest.mark.parametrize("theta, pieces", [(F(3, 2), 192), (F(4, 5), 58)], ids=["3/2", "4/5"])
    def test_pushforward_composes_each_piece_once_per_side(self, monkeypatch, theta, pieces):
        # the padded cumulative table has pieces + 2 entries; each side walks it once
        f = full_chain_density(8, theta, 1, 1)
        assert len(f.pieces) == pieces
        calls = []
        real = piecewise_module._compose

        def counted(nums, inums, iden):
            calls.append(nums)
            return real(nums, inums, iden)

        monkeypatch.setattr(piecewise_module, "_compose", counted)
        piecewise_pushforward(f, theta, 1, 1)
        assert calls
        assert len(calls) <= 2 * (pieces + 2)

    @given(piecewise_polys(), st.fractions(min_value=-40, max_value=20, max_denominator=9))
    @settings(max_examples=150, deadline=None)
    @example(PiecewisePoly((0, 1, 3), (Polynomial((1,)), Polynomial((0, 1)))), F(1))  # on a breakpoint
    @example(PiecewisePoly((0, 1, 3), (Polynomial((1,)), Polynomial((0, 1)))), F(3))  # at the top
    def test_cut_is_the_restriction_below_and_the_mass_above(self, f, t):
        kept, above = f.cut(t)
        bps = f.breakpoints
        assert above == f.mass() - ref_cumulative(f, t)
        assert kept.mass() + above == f.mass()
        points = [t, *bps, *((lo + hi) / 2 for lo, hi in zip(bps, bps[1:])), (bps[0] + t) / 2]
        for x in points:
            # a shared breakpoint takes the left piece, so at t itself kept is f unless t <= b_0
            inside = bps[0] <= x <= t and bps[0] < t
            assert evaluate(kept, x) == (evaluate(f, x) if inside else 0), x
        if not kept.is_zero():
            assert bps[0] <= kept.breakpoints[0] and kept.breakpoints[-1] <= t
        # the kept density shares f's cumulative table; rebuilt from scratch it reads the same
        rebuilt = PiecewisePoly(kept.breakpoints, kept.pieces)
        assert rebuilt == kept and rebuilt.mass() == kept.mass()
        table, fresh = kept._cumulative_table()[0], rebuilt._cumulative_table()[0]
        assert [[F(c, d) for c in cum] for cum, d in table] == [[F(c, d) for c in cum] for cum, d in fresh]

    @pytest.mark.parametrize("theta", [F(-3), F(-1), F(-1, 2), F(1, 3), F(4, 5), F(2)])
    def test_pushforward_never_gains_mass(self, theta):
        f = PiecewisePoly.constant(0, 1, F(1, 2))
        prev = f.mass()
        for _ in range(5):
            f = piecewise_pushforward(f, theta, 1, 1)
            m = f.mass()
            assert 0 <= m <= prev
            prev = m
            assert all(isinstance(b, F) for b in f.breakpoints)
