"""Polynomial families behind exact AR(1) persistence probabilities.

Three families of integer polynomials are built here, each by independent
routes that must agree coefficientwise:

* the tree-inversion enumerators J_n (Mallows-Riordan polynomials), from
  the convolution recurrence, from the logarithm of the deformed
  exponential, and from a ratio of two divergent formal series;
* the inverse-drift family J~_n, defined by inverting the alternating
  exponential generating function of the J_n;
* the large-drift family J^_n, a partial-sum transform of the J~_n.

Also here: Euler zigzag numbers, dichromatic polynomials of complete graphs,
the nested-integral volume polynomial, and the exact one-sided derivative
data of the persistence probability at drift -1.

Each family recurrence is written once, generic over the ring:
``scalar_j``, ``scalar_jt`` and ``scalar_jh``.  One ``FamilyTables`` class
grows them, over polynomials in th (``_POLY``) and, as ``ScalarFamilies``,
at a fixed rational drift in pure integer arithmetic, which stays fast at
depths (n in the hundreds) where building the full polynomials would be
wasteful; ``scalar_j`` also serves the float consumer in the asymptotics
layer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from ar1lab.errors import InvariantError
from ar1lab.exact.polynomial import LaurentPoly, Polynomial
from ar1lab.exact.series import TruncatedSeries, cos_series, sin_series

_LOCK = threading.RLock()


# ---------------------------------------------------------------------------
# J_n: tree-inversion enumerators
# ---------------------------------------------------------------------------

def mallows_riordan(n: int) -> Polynomial:
    """J_n, via J_{m+2} = sum_i C(m,i)(1+th+...+th^i) J_{i+1} J_{m+1-i}."""
    if n < 1:
        raise IndexError("family index must be >= 1")
    return _POLY.grow_j(n)[n]


def _deformed_exp_series(order: int) -> TruncatedSeries:
    """E(th, z) = sum th^(n(n-1)/2) z^n / n! over the polynomial ring."""
    coeffs = [
        Polynomial.monomial(n * (n - 1) // 2) * Fraction(1, factorial(n))
        for n in range(order + 1)
    ]
    return TruncatedSeries(coeffs, order)


def _j_via_log(nmax: int) -> list[Polynomial | None]:
    """J_1..J_nmax extracted from log E(th,z) = sum (th-1)^(n-1) J_n z^n/n!."""
    logE = _deformed_exp_series(nmax).log()
    out: list[Polynomial | None] = [None] * (nmax + 1)
    tm1 = Polynomial((-1, 1))
    for n in range(1, nmax + 1):
        egf = logE.coefficient(n) * factorial(n)
        out[n] = egf.divexact(tm1 ** (n - 1))
    return out


def _ratio_series_pair(order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Numerator and denominator of the ratio form of sum J_{n+1} z^n/n!.

    Numerator term n>=2:   (th+...+th^(n-1))^n / th^(n(n-1)/2),
    denominator term n>=3: (th+...+th^(n-2))^n / th^(n(n-1)/2); both are
    Laurent polynomials since the powers of th need not clear.
    """
    one = LaurentPoly(Polynomial.one())
    zero = LaurentPoly(Polynomial.zero())
    num = [one, zero]
    den = [one, LaurentPoly(Polynomial.constant(-1)), zero]
    for n in range(2, order + 1):
        p = Polynomial.geometric(n - 1) ** n
        num.append(LaurentPoly(p, n - n * (n - 1) // 2) * Fraction(1, factorial(n)))
    for n in range(3, order + 1):
        p = Polynomial.geometric(n - 2) ** n
        den.append(LaurentPoly(p, n - n * (n - 1) // 2) * Fraction(1, factorial(n)))
    return TruncatedSeries(num, order), TruncatedSeries(den, order)


def _j_via_ratio(nmax: int) -> list[Polynomial | None]:
    order = max(nmax - 1, 0)
    num, den = _ratio_series_pair(order)
    ratio = num * den.invert()
    out: list[Polynomial | None] = [None] * (nmax + 1)
    for n in range(0, nmax):
        out[n + 1] = (ratio.coefficient(n) * factorial(n)).to_polynomial()
    return out


def _j_egf(order: int) -> TruncatedSeries:
    """sum J_{n+1} z^n/n! through z^order, over the Laurent ring."""
    j = _POLY.grow_j(order + 1)
    return TruncatedSeries(
        [LaurentPoly.from_polynomial(j[n + 1]) * Fraction(1, factorial(n)) for n in range(order + 1)],
        order,
    )


def kreweras_recurrence_holds(nmax: int) -> bool:
    """Linear recurrence of the ratio form, in which J_{n-1} never appears:

    J_{n+1} = (th+...+th^(n-1))^n/th^(n(n-1)/2) + n J_n
              - sum_{k=3}^{n} C(n,k) (th+...+th^(k-2))^k/th^(k(k-1)/2) J_{n-k+1}

    This is n! times coefficient n of J * denominator = numerator for the
    pair of ``_ratio_series_pair``, which is how it is checked.
    """
    num, den = _ratio_series_pair(nmax)
    return (_j_egf(nmax) * den).agrees_with(num, nmax)


def gessel_identity_holds(order: int) -> bool:
    """Ratio identity with homogeneous sums starting at 1:

    sum J_{n+1} z^n/n! = [sum (1+...+th^n)^n/th^(n(n+1)/2) z^n/n!]
                       / [sum (1+...+th^(n-1))^n/th^(n(n+1)/2) z^n/n!]
    checked as J * denominator = numerator, coefficientwise.
    """
    u = [LaurentPoly(Polynomial.one())]
    v = [LaurentPoly(Polynomial.one())]
    for n in range(1, order + 1):
        off = -(n * (n + 1) // 2)
        u.append(LaurentPoly(Polynomial.geometric(n + 1) ** n, off) * Fraction(1, factorial(n)))
        v.append(LaurentPoly(Polynomial.geometric(n) ** n, off) * Fraction(1, factorial(n)))
    num = TruncatedSeries(u, order)
    den = TruncatedSeries(v, order)
    return (_j_egf(order) * den).agrees_with(num, order)


# ---------------------------------------------------------------------------
# J~_n: inverse-drift family
# ---------------------------------------------------------------------------

def j_tilde(n: int) -> Polynomial:
    """J~_n, defined by sum J~_{n+1} z^n/n! = (sum (-1)^n J_{n+1} z^n/n!)^(-1).

    Built by the binomial form of that inversion,
    J~_{n+1} = sum_{k=1}^{n} (-1)^(k-1) C(n,k) J_{k+1} J~_{n+1-k}.
    """
    if n < 1:
        raise IndexError("family index must be >= 1")
    return _POLY.grow_jt(n)[n]


def _jt_via_inversion(nmax: int) -> list[Polynomial | None]:
    """Direct series inversion of sum (-1)^n J_{n+1} z^n / n!."""
    j = _POLY.grow_j(nmax + 1)
    order = nmax - 1
    coeffs = [
        j[k + 1] * Fraction((-1) ** k, factorial(k)) for k in range(order + 1)
    ]
    inv = TruncatedSeries(coeffs, order).invert()
    out: list[Polynomial | None] = [None] * (nmax + 1)
    for m in range(order + 1):
        out[m + 1] = inv.coefficient(m) * factorial(m)
    return out


def _jt_via_signed_convolution(nmax: int) -> list[Polynomial | None]:
    """J~_{n+2} = sum_{k=0}^{n} C(n,k) (-1)^k (1+th+...+th^k) J_{k+1} J~_{n+1-k}."""
    j = _POLY.grow_j(nmax + 1)
    out: list[Polynomial | None] = [None, Polynomial.one(), Polynomial.one()]
    for m in range(3, nmax + 1):
        n = m - 2
        acc = Polynomial.zero()
        for k in range(0, n + 1):
            acc = acc + (
                Fraction((-1) ** k)
                * comb(n, k)
                * Polynomial.geometric(k + 1)
                * j[k + 1]
                * out[n + 1 - k]
            )
        out.append(acc)
    return out


def c_polynomial(n: int) -> Polynomial:
    """C_n = (-th)^(-(n-1)) J~_{n+1}: positive coefficients, leading term 1."""
    if n < 1:
        raise IndexError("family index must be >= 1")
    jt = j_tilde(n + 1)
    sign = Fraction((-1) ** (n - 1))
    return (jt * sign).divexact(Polynomial.monomial(n - 1))


# ---------------------------------------------------------------------------
# J^_n: large-drift family
# ---------------------------------------------------------------------------

def j_hat(n: int) -> Polynomial:
    """J^_n, via J^_{n+1} = 2n J^_n + (-1)^n J~_{n+1}."""
    if n < 1:
        raise IndexError("family index must be >= 1")
    return _POLY.grow_jh(n)[n]


def _jh_via_partial_sums(nmax: int) -> list[Polynomial | None]:
    """J^_{n+1}/(2^n n!) = sum_{k<=n} (-1)^k J~_{k+1}/(2^k k!)."""
    jt = _POLY.grow_jt(nmax)
    out: list[Polynomial | None] = [None] * (nmax + 1)
    acc = Polynomial.zero()
    for k in range(0, nmax):
        acc = acc + jt[k + 1] * Fraction((-1) ** k, 2**k * factorial(k))
        out[k + 1] = acc * (2**k * factorial(k))
    return out


def route_disagreement(nmax: int) -> str | None:
    """The first J_n, J~_n or J^_n (n <= nmax) on which the routes disagree.

    The main tables are compared coefficientwise with J from the logarithm
    of the deformed exponential and from the ratio form, J~ from direct
    series inversion and from the signed J-convolution, and J^ from the
    partial-sum identity.  Each route table is built once, at depth nmax;
    index n of a deeper table is the same polynomial.  Indices are scanned
    in order, J before J~ before J^; None means every route agrees.
    """
    if nmax < 1:
        return None
    families = (
        ("J", _POLY.grow_j(nmax), (_j_via_log(nmax), _j_via_ratio(nmax))),
        ("J~", _POLY.grow_jt(nmax), (_jt_via_inversion(nmax), _jt_via_signed_convolution(nmax))),
        ("J^", _POLY.grow_jh(nmax), (_jh_via_partial_sums(nmax),)),
    )
    for n in range(1, nmax + 1):
        for name, main, routes in families:
            if any(route[n] != main[n] for route in routes):
                return f"route disagreement for {name}_{n}"
    return None


# ---------------------------------------------------------------------------
# Euler zigzag numbers
# ---------------------------------------------------------------------------

_ZIGZAG: list[int] = []


def zigzag(n: int) -> int:
    """A_n, the coefficient of z^n/n! in (1 + sin z)/cos z."""
    if n < 0:
        raise IndexError("zigzag index must be >= 0")
    with _LOCK:
        if len(_ZIGZAG) <= n:
            order = max(n, 2 * len(_ZIGZAG), 8)
            one = TruncatedSeries.one(order)
            ser = (one + sin_series(order)) * cos_series(order).invert()
            vals = []
            for k in range(order + 1):
                a = ser.egf_coefficient(k)
                if a.denominator != 1:
                    raise InvariantError("zigzag expansion produced a non-integer")
                vals.append(int(a))
            _ZIGZAG[:] = vals
    return _ZIGZAG[n]


def zigzag_alternating_convolution(n: int) -> int:
    """sum_k C(n,k) (-1)^k A_k A_{n-k}; vanishes for every n >= 1."""
    zigzag(n)
    return sum(comb(n, k) * (-1) ** k * _ZIGZAG[k] * _ZIGZAG[n - k] for k in range(n + 1))


# ---------------------------------------------------------------------------
# Dichromatic polynomials of complete graphs
# ---------------------------------------------------------------------------


def tutte_complete(n: int) -> list[Polynomial]:
    """Dichromatic polynomial T_n(x, th) of the complete graph on n vertices.

    Returned as the list of coefficients of x^0..x^n, each a polynomial in
    th.  Computed from the exponential identity
    sum T_n(x,th) z^n/n! = exp[x * sum J_k(th+1) z^k/k!].
    """
    if n < 0:
        raise IndexError("vertex count must be >= 0")
    if n == 0:
        return [Polynomial.one()]
    j = _POLY.grow_j(n)
    shift = Polynomial((1, 1))
    s_coeffs = [Polynomial.zero()] + [
        j[k].compose(shift) * Fraction(1, factorial(k)) for k in range(1, n + 1)
    ]
    s = TruncatedSeries(s_coeffs, n)
    out = [Polynomial.zero()]  # x^0 coefficient of T_n vanishes for n >= 1
    power = TruncatedSeries.one(n)
    for j in range(1, n + 1):
        power = power * s
        out.append(power.coefficient(n) * Fraction(factorial(n), factorial(j)))
    return out


def tutte_modified_eval(n: int, x: Fraction, theta: Fraction) -> Fraction:
    """Evaluation of T_n(x-1, th-1)/(x-1), the complete-graph Tutte polynomial.

    The division is exact because T_n(y, .) has no constant term in y for
    n >= 1; at x = 1 the value reduces to the x^1 coefficient of
    T_n(., th-1), which equals J_n(th).
    """
    if n == 0:
        return Fraction(1)
    coeffs = tutte_complete(n)
    tm1 = Fraction(theta) - 1
    xm1 = Fraction(x) - 1
    acc = Fraction(0)
    for j in range(len(coeffs) - 1, 0, -1):
        acc = acc * xm1 + coeffs[j](tm1)
    return acc


# ---------------------------------------------------------------------------
# Nested-integral volume polynomial
# ---------------------------------------------------------------------------


def nested_volume(n: int) -> Polynomial:
    """The n-fold nested integral over [1, th x] chains, as a polynomial in th.

    int_1^th int_1^(th x_1) ... int_1^(th x_{n-1}) dx_n...dx_1, evaluated by
    iterated antidifferentiation with the innermost variable first.  The
    result equals (th-1)^n J_{n+1}(th)/n! identically.
    """
    if n < 1:
        raise IndexError("depth must be >= 1")
    # g holds the current integrand as coefficients (in the outer variable x)
    # over polynomials in th
    g: list[Polynomial] = [Polynomial.one()]
    for _ in range(n):
        # antiderivative in x, then evaluate between 1 and th*x
        anti = [Polynomial.zero()] + [g[k] / (k + 1) for k in range(len(g))]
        at_one = Polynomial.zero()
        for c in anti:
            at_one = at_one + c
        g = [anti[k] * Polynomial.monomial(k) for k in range(len(anti))]
        g[0] = g[0] - at_one
    total = Polynomial.zero()
    for c in g:
        total = total + c
    return total


# ---------------------------------------------------------------------------
# One-sided derivative data at drift -1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryDerivatives:
    """One-sided first and second derivatives of th -> p_n(th) at th = -1."""

    left_p1: Fraction
    right_p1: Fraction
    left_p2: Fraction
    right_p2: Fraction


def boundary_derivatives(n: int) -> BoundaryDerivatives:
    """Exact one-sided derivatives of the persistence probability at -1.

    Right side differentiates J_{n+1}(th)/(2^n n!); left side differentiates
    J~_{n+1}(1/th)/(2^n n!) via the chain rule, all exactly.
    """
    if n < 2:
        raise IndexError("need horizon n >= 2")
    scale = Fraction(1, 2**n * factorial(n))
    j = mallows_riordan(n + 1)
    jt = j_tilde(n + 1)
    j1, j2 = j.derivative(), j.derivative().derivative()
    jt1, jt2 = jt.derivative(), jt.derivative().derivative()
    minus1 = Fraction(-1)
    right_p1 = j1(minus1) * scale
    right_p2 = j2(minus1) * scale
    # d/dth f(1/th) = -f'(1/th)/th^2 ; d2/dth2 f(1/th) = 2 f'(1/th)/th^3 + f''(1/th)/th^4
    left_p1 = -jt1(minus1) * scale
    left_p2 = (-2 * jt1(minus1) + jt2(minus1)) * scale
    return BoundaryDerivatives(left_p1=left_p1, right_p1=right_p1, left_p2=left_p2, right_p2=right_p2)


# ---------------------------------------------------------------------------
# The family recurrences over any ring, and the tables they grow
# ---------------------------------------------------------------------------


def _dexp(n: int) -> int:
    # degree of J_n, J~_n, J^_n alike: (n-1)(n-2)/2
    return (n - 1) * (n - 2) // 2


def scalar_j(p, q, lists: tuple[list, list] | None, nmax: int) -> list:
    """J_n(p/q) q^((n-1)(n-2)/2) for n <= nmax, by the J convolution recurrence.

    ``lists`` is a pair (g, j) extended in place, where g[i] is the
    homogeneous sum G_i = sum_{k<=i} p^k q^(i-k) and j[n] the scaled J_n;
    None starts from g = [1], j = [0, 1, 1].  Returns j.

    The ring is that of p and q.  p = th and q = 1 give the polynomials
    J_n themselves; integers give the exact scaled values of
    ``ScalarFamilies``; q = 1 with a float or an mpmath p gives J_n(p) in
    that arithmetic.  The float consumer, ``tutte_poisson_pmf``, takes p in
    [-1, 0), where every G_i is nonnegative, so every recurrence term is
    nonnegative and no sum cancels; the same holds for any p > 0.
    """
    g, j = lists if lists is not None else ([1], [0, 1, 1])
    while len(g) <= nmax:
        g.append(g[-1] * p + q ** len(g))
    while len(j) <= nmax:
        n = len(j) - 2
        acc = 0
        for i in range(n + 1):
            acc += comb(n, i) * g[i] * j[i + 1] * j[n + 1 - i] * q ** ((n - i) * (i + 1))
        j.append(acc)
    return j


def scalar_jt(q, j, jt: list, nmax: int) -> list:
    """J~_n(p/q) q^((n-1)(n-2)/2) for n <= nmax, by the binomial recurrence

    J~_{n+1} = sum_{k=1}^{n} (-1)^(k-1) C(n,k) J_{k+1} J~_{n+1-k}.

    ``j`` holds the scaled J_n(p/q) of ``scalar_j`` through index nmax; ``jt``
    (from [0, 1]) is extended in place and returned.  The power of q brings
    each product to the common scale of J~_{n+1}.
    """
    while len(jt) <= nmax:
        n = len(jt) - 1
        acc = 0
        for k in range(1, n + 1):
            acc += (-1) ** (k - 1) * comb(n, k) * j[k + 1] * jt[n + 1 - k] * q ** (k * (n - k))
        jt.append(acc)
    return jt


def scalar_jh(q, jt, jh: list, nmax: int) -> list:
    """J^_n(p/q) q^((n-1)(n-2)/2) for n <= nmax, by J^_{n+1} = 2n J^_n + (-1)^n J~_{n+1}.

    ``jt`` holds the scaled J~_n of ``scalar_jt`` through index nmax; ``jh``
    (from [0, 1]) is extended in place and returned.
    """
    while len(jh) <= nmax:
        n = len(jh) - 1
        jh.append(2 * n * jh[n] * q ** (n - 1) + (-1) ** n * jt[n + 1])
    return jh


class FamilyTables:
    """Tables of J_n(p/q), J~_n(p/q) and J^_n(p/q), each scaled by
    q^((n-1)(n-2)/2) and grown on demand by the recurrences above.

    The ring is that of p and q: p = th and q = 1 give the polynomials
    themselves (``_POLY``); the integers p, q of a rational drift give
    ``ScalarFamilies``, exact at depths (n in the hundreds) where
    Fraction normalization at every step would dominate.  ``grow_j``,
    ``grow_jt`` and ``grow_jh`` extend a table through index nmax and
    return it.
    """

    def __init__(self, p, q):
        self._p, self._q = p, q
        zero, one = p * 0, p**0
        self._g = [one]  # homogeneous sums G_i = sum_{k<=i} p^k q^(i-k)
        self._j = [zero, one, one]
        self._jt = [zero, one]
        self._jh = [zero, one]
        self._lock = threading.RLock()

    def grow_j(self, nmax: int) -> list:
        with self._lock:
            return scalar_j(self._p, self._q, (self._g, self._j), nmax)

    def grow_jt(self, nmax: int) -> list:
        with self._lock:
            return scalar_jt(self._q, self.grow_j(nmax), self._jt, nmax)

    def grow_jh(self, nmax: int) -> list:
        with self._lock:
            return scalar_jh(self._q, self.grow_jt(nmax), self._jh, nmax)


_POLY = FamilyTables(Polynomial.x(), 1)


class ScalarFamilies(FamilyTables):
    """Values J_n(th), J~_n(th), J^_n(th) at one rational drift th = p/q."""

    def __init__(self, theta: Fraction):
        self.theta = Fraction(theta)
        super().__init__(self.theta.numerator, self.theta.denominator)

    def j(self, n: int) -> Fraction:
        if n < 1:
            raise IndexError("family index must be >= 1")
        return Fraction(self.grow_j(n)[n], self._q ** _dexp(n))

    def j_tilde(self, n: int) -> Fraction:
        if n < 1:
            raise IndexError("family index must be >= 1")
        return Fraction(self.grow_jt(n)[n], self._q ** _dexp(n))

    def j_hat(self, n: int) -> Fraction:
        if n < 1:
            raise IndexError("family index must be >= 1")
        return Fraction(self.grow_jh(n)[n], self._q ** _dexp(n))


_SCALAR_TABLES: dict[Fraction, ScalarFamilies] = {}


def scalar_families(theta) -> ScalarFamilies:
    theta = Fraction(theta)
    with _LOCK:
        table = _SCALAR_TABLES.get(theta)
        if table is None:
            table = _SCALAR_TABLES[theta] = ScalarFamilies(theta)
    return table


# ---------------------------------------------------------------------------
# Structural checks shared by tests and the verification suite
# ---------------------------------------------------------------------------


def check_structure_j(n: int) -> bool:
    """J_{n+1}: degree n(n-1)/2, positive integer coefficients, leading 1."""
    p = mallows_riordan(n + 1)
    if p.degree != n * (n - 1) // 2:
        return False
    if p.coeffs[-1] != 1:
        return False
    return all(c.denominator == 1 and c > 0 for c in p.coeffs)


def check_structure_jt(n: int) -> bool:
    """J~_{n+1}: degree n(n-1)/2, valuation n-1, constant sign (-1)^(n-1)."""
    p = j_tilde(n + 1)
    if p.degree != n * (n - 1) // 2:
        return False
    if p.valuation != (n - 1 if n >= 1 else 0):
        return False
    sign = (-1) ** (n - 1)
    return all(c.denominator == 1 and sign * c > 0 for c in p.coeffs if c != 0)


def check_structure_jh(n: int) -> bool:
    """J^_{n+1}: degree n(n-1)/2, constant term 2^(n-1) n!, others negative."""
    p = j_hat(n + 1)
    if p.degree != n * (n - 1) // 2:
        return False
    if n >= 1 and p.coefficient(0) != 2 ** (n - 1) * factorial(n):
        return False
    return all(c.denominator == 1 and c < 0 for c in p.coeffs[1:] if c != 0)
