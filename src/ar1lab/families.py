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
the nested-integral volume polynomial, the exact one-sided derivative
data of the persistence probability at drift -1, and the coefficients of
the 1/th expansion of the large-drift limit, derived from the J~_n.

Each family recurrence is written once, generic over the ring, in the
``FamilyTables`` class that grows its tables on demand; its docstring names
the ring each use runs in.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

from ar1lab.exact.polynomial import Polynomial
from ar1lab.exact.series import TruncatedSeries

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
    """Numerator and denominator of the ratio form of sum J_{n+1} z^n/n!, times th^s.

    Numerator term n>=2:   (th+...+th^(n-1))^n / th^(n(n-1)/2),
    denominator term n>=3: (th+...+th^(n-2))^n / th^(n(n-1)/2).  Both series
    are multiplied by th^s, s = order(order-1)/2, which clears every negative
    power of th and changes neither the ratio nor J * denominator = numerator.
    """
    s = order * (order - 1) // 2
    scale = Polynomial.monomial(s)
    num = [scale, Polynomial.zero()]
    den = [scale, -scale, Polynomial.zero()]
    for n in range(2, order + 1):
        shift = Polynomial.monomial(s + n - n * (n - 1) // 2) * Fraction(1, factorial(n))
        num.append(shift * Polynomial.geometric(n - 1) ** n)
        if n >= 3:
            den.append(shift * Polynomial.geometric(n - 2) ** n)
    return TruncatedSeries(num, order), TruncatedSeries(den, order)


def _j_via_ratio(nmax: int) -> list[Polynomial | None]:
    order = max(nmax - 1, 0)
    num, den = _ratio_series_pair(order)
    ratio = num / den
    out: list[Polynomial | None] = [None] * (nmax + 1)
    for n in range(0, nmax):
        out[n + 1] = ratio.coefficient(n) * factorial(n)
    return out


def _j_egf(order: int) -> TruncatedSeries:
    """sum J_{n+1} z^n/n! through z^order."""
    j = _POLY.grow_j(order + 1)
    return TruncatedSeries([j[n + 1] * Fraction(1, factorial(n)) for n in range(order + 1)], order)


def kreweras_recurrence_holds(nmax: int) -> bool:
    """Linear recurrence of the ratio form, in which J_{n-1} never appears:

    J_{n+1} = (th+...+th^(n-1))^n/th^(n(n-1)/2) + n J_n
              - sum_{k=3}^{n} C(n,k) (th+...+th^(k-2))^k/th^(k(k-1)/2) J_{n-k+1}

    This is n! times coefficient n of J * denominator = numerator for the
    pair of ``_ratio_series_pair``, which is how it is checked.
    """
    num, den = _ratio_series_pair(nmax)
    return den * _j_egf(nmax) == num


def gessel_identity_holds(order: int) -> bool:
    """Ratio identity with homogeneous sums starting at 1:

    sum J_{n+1} z^n/n! = [sum (1+...+th^n)^n/th^(n(n+1)/2) z^n/n!]
                       / [sum (1+...+th^(n-1))^n/th^(n(n+1)/2) z^n/n!]
    checked as J * denominator = numerator, coefficientwise, with both sums
    multiplied by th^s, s = order(order+1)/2, so that no power of th is negative.
    """
    s = order * (order + 1) // 2
    u = [Polynomial.monomial(s)]
    v = [Polynomial.monomial(s)]
    for n in range(1, order + 1):
        shift = Polynomial.monomial(s - n * (n + 1) // 2) * Fraction(1, factorial(n))
        u.append(shift * Polynomial.geometric(n + 1) ** n)
        v.append(shift * Polynomial.geometric(n) ** n)
    num = TruncatedSeries(u, order)
    den = TruncatedSeries(v, order)
    return den * _j_egf(order) == num


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


# ---------------------------------------------------------------------------
# The 1/th expansion of the large-drift limit
# ---------------------------------------------------------------------------

# printed coefficients a_k of ell = sum_k a_k th^-k = 1/2 - 1/(8 th) - 1/(16 th^2) - ...
ELL_EXPANSION_COEFFS: tuple[Fraction, ...] = (
    Fraction(1, 2),
    Fraction(-1, 8),
    Fraction(-1, 16),
    Fraction(-5, 96),
    Fraction(-1, 24),
    Fraction(-5, 128),
    Fraction(-7, 192),
    Fraction(-9, 256),
    Fraction(-107, 3072),
    Fraction(-641, 18432),
)


def ell_expansion_coefficients(kmax: int) -> list[Fraction]:
    """Expansion coefficients a_k derived exactly from the J~ family.

    a_k is the coefficient of th^k in sum_{j<=k+1} (-1)^j J~_{j+1}(th)/(2^j j!).
    """
    out = []
    for k in range(kmax + 1):
        a_k = Fraction(0)
        for j in range(k + 2):
            a_k += j_tilde(j + 1).coefficient(k) * Fraction((-1) ** j, 2**j * factorial(j))
        out.append(a_k)
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

_ZIGZAG: list[int] = [1]
_BOUSTROPHEDON: list[int] = [1]  # the row whose last entry is _ZIGZAG[-1]


def zigzag(n: int) -> int:
    """A_n, the coefficient of z^n/n! in (1 + sin z)/cos z, by the Seidel-Entringer
    boustrophedon on integers: row k is 0 followed by the running sums of row
    k-1 read in reverse, and A_k is its last entry."""
    if n < 0:
        raise IndexError("zigzag index must be >= 0")
    with _LOCK:
        while len(_ZIGZAG) <= n:
            _BOUSTROPHEDON[:] = [0, *accumulate(reversed(_BOUSTROPHEDON))]
            _ZIGZAG.append(_BOUSTROPHEDON[-1])
    return _ZIGZAG[n]


def zigzag_alternating_convolution(n: int) -> int:
    """sum_k C(n,k) (-1)^k A_k A_{n-k}, n! [z^n] of f(z) f(-z) = 1 for
    f = (1 + sin z)/cos z, so it vanishes for every n >= 1.  The A_k come from
    the boustrophedon, not from f: this tests f against numbers built without it."""
    zigzag(n)
    return sum(comb(n, k) * (-1) ** k * _ZIGZAG[k] * _ZIGZAG[n - k] for k in range(n + 1))


# ---------------------------------------------------------------------------
# Dichromatic polynomials of complete graphs
# ---------------------------------------------------------------------------


_TUTTE: dict[int, list[Polynomial]] = {0: [Polynomial.one()]}


def tutte_complete(n: int) -> list[Polynomial]:
    """Dichromatic polynomial T_n(x, th) of the complete graph on n vertices.

    Returned as a new list of the coefficients of x^0..x^n, each a
    polynomial in th.  Computed from the exponential identity
    sum T_n(x,th) z^n/n! = exp[x * sum J_k(th+1) z^k/k!], once per n: like
    the ``_POLY`` tables it reads, the table is kept for the process.
    """
    if n < 0:
        raise IndexError("vertex count must be >= 0")
    with _LOCK:
        if n not in _TUTTE:
            j = _POLY.grow_j(n)
            shift = Polynomial((1, 1))
            s_coeffs = [Polynomial.zero()] + [
                j[k].compose(shift) * Fraction(1, factorial(k)) for k in range(1, n + 1)
            ]
            s = TruncatedSeries(s_coeffs, n)
            out = [Polynomial.zero()]  # x^0 coefficient of T_n vanishes for n >= 1
            power = TruncatedSeries.one(n)
            for i in range(1, n + 1):
                power = power * s
                out.append(power.coefficient(n) * Fraction(factorial(n), factorial(i)))
            _TUTTE[n] = out
        return list(_TUTTE[n])


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


class FamilyTables:
    """Tables of J_n(p/q), J~_n(p/q) and J^_n(p/q), each scaled by
    q^((n-1)(n-2)/2) (the degree of all three) and grown on demand by the
    family recurrences; ``grow_j``, ``grow_jt`` and ``grow_jh`` extend a
    table through index nmax and return it.

    The ring is that of p and q, and both uses are exact.  p = th and q = 1
    give the polynomials themselves over Q[th] (``_POLY``); the integers
    p, q of a rational drift give ``ScalarFamilies``, exact at depths (n in
    the hundreds) where Fraction normalization at every step would dominate.
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
        """J_{m+2} = sum_i C(m,i) G_i J_{i+1} J_{m+1-i}, each term brought to
        the common scale by a power of q; terms i and m-i share C(m,i) J_{i+1}
        J_{m+1-i}, so each pair takes one product of the two J."""
        p, q, g, j = self._p, self._q, self._g, self._j
        with self._lock:
            while len(g) <= nmax:
                g.append(g[-1] * p + q ** len(g))
            while len(j) <= nmax:
                m = len(j) - 2
                acc = 0
                for i in range(m // 2 + 1):
                    k = m - i
                    w = g[i] * q ** (k * (i + 1))
                    if i < k:
                        w += g[k] * q ** (i * (k + 1))
                    acc += comb(m, i) * j[i + 1] * j[k + 1] * w
                j.append(acc)
            return j

    def grow_jt(self, nmax: int) -> list:
        """J~_{m+1} = sum_{k=1}^{m} (-1)^(k-1) C(m,k) J_{k+1} J~_{m+1-k}, each
        term brought to the common scale by q^(k(m-k)); terms k and m-k share
        C(m,k) q^(k(m-k)), so each pair takes that weight once.  Term m has
        weight 1 and J~_1 = 1, and its partner, k = 0, is not in the sum."""
        q, jt = self._q, self._jt
        with self._lock:
            j = self.grow_j(nmax)
            while len(jt) <= nmax:
                m = len(jt) - 1
                acc = (-1) ** (m - 1) * j[m + 1]
                for k in range(1, m // 2 + 1):
                    i = m - k
                    t = j[k + 1] * jt[i + 1]
                    if k < i:  # term i carries the sign of term k times (-1)^(i-k) = (-1)^m
                        t = t - j[i + 1] * jt[k + 1] if m % 2 else t + j[i + 1] * jt[k + 1]
                    acc += (-1) ** (k - 1) * comb(m, k) * q ** (k * i) * t
                jt.append(acc)
            return jt

    def grow_jh(self, nmax: int) -> list:
        """J^_{m+1} = 2m J^_m + (-1)^m J~_{m+1}."""
        q, jh = self._q, self._jh
        with self._lock:
            jt = self.grow_jt(nmax)
            while len(jh) <= nmax:
                m = len(jh) - 1
                jh.append(2 * m * jh[m] * q ** (m - 1) + (-1) ** m * jt[m + 1])
            return jh


_POLY = FamilyTables(Polynomial.x(), 1)


class ScalarFamilies(FamilyTables):
    """Values J_n(th), J~_n(th), J^_n(th) at one rational drift th = p/q."""

    def __init__(self, theta: Fraction):
        self.theta = Fraction(theta)
        super().__init__(self.theta.numerator, self.theta.denominator)

    def _scaled(self, grow, n: int) -> Fraction:
        if n < 1:
            raise IndexError("family index must be >= 1")
        return Fraction(grow(n)[n], self._q ** ((n - 1) * (n - 2) // 2))

    def j(self, n: int) -> Fraction:
        return self._scaled(self.grow_j, n)

    def j_tilde(self, n: int) -> Fraction:
        return self._scaled(self.grow_jt, n)

    def j_hat(self, n: int) -> Fraction:
        return self._scaled(self.grow_jh, n)


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
