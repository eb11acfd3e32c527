"""Exact persistence probabilities for AR(1) with uniform innovations.

p_n(theta) = P[Y_1 >= 0, ..., Y_n >= 0] for Y_k = theta*Y_{k-1} + X_k,
X_k uniform on [-a, b].  Closed polynomial forms exist outside a drift
window bounded by generalized Fibonacci numbers; inside the window only the
density-propagation oracle applies.  Both routes are exact rational
arithmetic and agree wherever both are defined.

For theta > 0 the positive-drift factorization
sum_{k=0..n} p_k(theta; a, b) p_{n-k}(1/theta; b, a) = 1 ties the chain at
theta to the chain at 1/theta on the reflected support [-b, a].  A window
prefix at theta may therefore be read off the prefix at 1/theta, through
p_n(theta) = 1 - sum_{k<n} p_k(theta) p_{n-k}(1/theta), whenever that
chain is predicted to be the smaller one (``_window_masses``).  The oracle
itself (``oracle_masses``) and the duality residuals stay direct, so the
checks that compare them still compare independent routes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from typing import Iterator

from ar1lab.errors import DomainError, InvariantError, NoClosedFormError
from ar1lab.exact.piecewise import PiecewisePoly, cell_ends, piecewise_pushforward
from ar1lab.families import scalar_families


class Region(enum.Enum):
    """Which exact formula applies to a (n, theta, a, b) query."""

    DIRECT = "direct"  # p_n = (b/(a+b))^n J_{n+1}(theta)/n!
    INVERSE_NEG = "inverse-negative"  # p_n = (b/(a+b))^n J~_{n+1}(1/theta)/n!
    INVERSE_POS = "inverse-positive"  # p_n = J^_{n+1}(1/theta)/(2^n n!)
    WINDOW = "fibonacci-window"  # no polynomial closed form; oracle only


@dataclass(frozen=True)
class PersistenceQuery:
    """Horizon, rational drift and uniform innovation support [-a, b]."""

    n: int
    theta: Fraction
    a: Fraction = Fraction(1)
    b: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "theta", Fraction(self.theta))
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.n < 0:
            raise DomainError("horizon must be >= 0")
        if self.a <= 0 or self.b <= 0:
            raise DomainError("uniform support half-widths must be positive")

    @property
    def symmetric(self) -> bool:
        return self.a == self.b


def geometric_sum(theta: Fraction, m: int) -> Fraction:
    """theta + theta^2 + ... + theta^m (zero when m < 1), in closed form."""
    theta = Fraction(theta)
    if m < 1:
        return Fraction(0)
    if theta == 1:
        return Fraction(m)
    return theta * (1 - theta**m) / (1 - theta)


def classify(query: PersistenceQuery) -> Region:
    """Exact region dispatch by rational comparison of the geometric sum."""
    th, n = query.theta, query.n
    ratio = query.a / query.b
    if th <= -1:
        return Region.INVERSE_NEG
    if geometric_sum(th, n - 1) <= ratio:
        return Region.DIRECT
    if query.symmetric and th > 0 and geometric_sum(1 / th, n - 1) <= 1:
        return Region.INVERSE_POS
    return Region.WINDOW


def fibonacci_root(i: int, ratio: float = 1.0) -> float:
    """Positive solution of theta + ... + theta^i = ratio (float bisection)."""
    if i < 1:
        raise DomainError("need at least one summand")

    def f(x: float) -> float:
        acc, p = 0.0, 1.0
        for _ in range(i):
            p *= x
            acc += p
        return acc - ratio

    lo, hi = 0.0, max(ratio, 1.0) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def window_bounds(query: PersistenceQuery) -> tuple[float, float]:
    """Approximate drift window (lo, hi) with no closed form at this horizon."""
    if query.n < 2:
        return (float("inf"), float("inf"))
    lo = fibonacci_root(query.n - 1, float(query.a / query.b))
    hi = 1.0 / fibonacci_root(query.n - 1) if query.symmetric else float("inf")
    return (lo, hi)


def persistence_closed_form(query: PersistenceQuery) -> Fraction:
    """Exact p_n by the dispatched polynomial formula; fails inside the window."""
    region = classify(query)
    n, th = query.n, query.theta
    scale = (query.b / (query.a + query.b)) ** n / factorial(n)
    if region is Region.DIRECT:
        return scale * scalar_families(th).j(n + 1)
    if region is Region.INVERSE_NEG:
        return scale * scalar_families(1 / th).j_tilde(n + 1)
    if region is Region.INVERSE_POS:
        return scale * scalar_families(1 / th).j_hat(n + 1)
    raise NoClosedFormError(
        f"no closed form for n={n}, theta={th}; use persistence_oracle",
        window_bounds(query),
    )


def start_density(query: PersistenceQuery) -> PiecewisePoly:
    """Sub-density of Y_1 on the survival event: 1/(a+b) on [0, b]."""
    return PiecewisePoly.constant(0, query.b, 1 / (query.a + query.b))


def _oracle_chain(query: PersistenceQuery) -> Iterator[PiecewisePoly]:
    """The survival sub-densities of Y_1, ..., Y_n, one pushforward apart."""
    f = start_density(query)
    for k in range(query.n):
        if k:
            f = piecewise_pushforward(f, query.theta, query.a, query.b)
        yield f


def oracle_masses(query: PersistenceQuery) -> list[Fraction]:
    """[p_0, p_1, ..., p_n] by exact density propagation (any rational theta)."""
    return [Fraction(1)] + [f.mass() for f in _oracle_chain(query)]


def persistence_oracle(query: PersistenceQuery) -> Fraction:
    """Exact p_n for any rational drift, including the Fibonacci window."""
    return oracle_masses(query)[-1]


def oracle_density(query: PersistenceQuery) -> PiecewisePoly:
    """The exact sub-density of Y_n on the survival event (n >= 1)."""
    if query.n < 1:
        raise DomainError("density defined for n >= 1")
    for f in _oracle_chain(query):
        pass
    return f


def _closed_forms(query: PersistenceQuery) -> list[Fraction]:
    """[p_0..p_n] by closed forms, for a horizon n outside the window."""
    return [persistence_closed_form(replace(query, n=k)) for k in range(query.n + 1)]


def _piece_counts(query: PersistenceQuery) -> Iterator[int]:
    """Piece counts of the oracle chain's densities f_1, f_2, ..., predicted
    from breakpoints alone.

    f_1 lives on {0, b}; a pushforward cuts [0, inf) at 0 and at the
    ``cell_ends`` of the input's breakpoints, the rule the kernel itself uses,
    here on integer numerators over one denominator.
    """
    th, a, b = query.theta, query.a, query.b
    den, ends = b.denominator, {0, b.numerator}
    while True:
        yield len(ends) - 1
        den, ends = cell_ends(den, ends, th, a, b)
        ends.add(0)


def _reflected_is_cheaper(query: PersistenceQuery, reflected: PersistenceQuery) -> bool:
    """Whether the reflected oracle chain builds fewer pieces than the direct one.

    The two predicted chains race: the side with the smaller running total
    of pieces advances (ties to the direct side), and the race ends when
    that side has reached horizon n, so the dearer side is never predicted
    past the cheaper side's total.  The sign of theta - 1 does not decide on
    an asymmetric support: at (7/5; 3, 1) the direct chain is the smaller
    one, at (5/7; 1, 3) the reflected one.
    """
    sides = (_piece_counts(query), _piece_counts(reflected))
    totals, steps = [0, 0], [0, 0]
    while True:
        side = 0 if totals[0] <= totals[1] else 1
        if steps[side] == query.n:
            return side == 1
        totals[side] += next(sides[side])
        steps[side] += 1


def _window_masses(query: PersistenceQuery) -> list[Fraction] | None:
    """[p_0..p_n] when horizon n lies in the window; None when closed forms
    apply.  The one place that chooses the route.

    A window query (its drift is always positive) is answered by one direct
    oracle chain or from the reflected query (n, 1/theta, b, a) through the
    positive-drift factorization p_m = 1 - sum_{k<m} p_k q_{m-k}, q being
    the reflected prefix.  That prefix is closed forms when its horizon lies
    outside the window (they cost nothing next to a chain), else one oracle
    chain, taken when it is predicted to build fewer pieces than the direct
    chain (``_reflected_is_cheaper``).
    """
    if classify(query) is not Region.WINDOW:
        return None
    reflected = PersistenceQuery(query.n, 1 / query.theta, query.b, query.a)
    if classify(reflected) is not Region.WINDOW:
        q = _closed_forms(reflected)
    elif _reflected_is_cheaper(query, reflected):
        q = oracle_masses(reflected)
    else:
        return oracle_masses(query)
    p = [Fraction(1)]
    for m in range(1, query.n + 1):
        p.append(1 - sum(p[k] * q[m - k] for k in range(m)))
    return p


def persistence_exact(n: int, theta, a=1, b=1) -> Fraction:
    """Exact p_n: one closed form, or the last entry of the window prefix."""
    query = PersistenceQuery(n, theta, a, b)
    masses = _window_masses(query)
    return persistence_closed_form(query) if masses is None else masses[-1]


def persistence_prefix(n: int, theta, a=1, b=1) -> list[Fraction]:
    """[p_0..p_n], closed forms where possible, one oracle chain otherwise.

    In the window (where the drift is positive) that chain may be the one at
    1/theta on the reflected support [-b, a], with the prefix at theta read
    off the positive-drift factorization (see ``_window_masses``).

    Only horizon n is classified: a horizon outside the window has every
    shorter horizon outside it too.  For drift <= -1 the region is always
    INVERSE_NEG, and for drift in (-1, 0] every geometric sum lies in
    (-1, 0], so the region is always DIRECT.  For drift > 0 both geometric
    sums, in theta and in 1/theta, grow with the horizon, so a condition
    that admits a closed form at n admits one at every shorter horizon.
    """
    query = PersistenceQuery(n, theta, a, b)
    masses = _window_masses(query)
    return _closed_forms(query) if masses is None else masses


def hitting_pmf(query: PersistenceQuery) -> Fraction:
    """P[T = n] = p_{n-1} - p_n for the first passage time below zero.

    For drift >= 2 with symmetric support the value is cross-checked against
    the closed form (-1)^(n-1) J~_{n+1}(1/theta)/(2^n n!).
    """
    if query.n < 1:
        raise IndexError("hitting time starts at n = 1")
    n, th = query.n, query.theta
    p = persistence_prefix(n, th, query.a, query.b)
    value = p[n - 1] - p[n]
    if th >= 2 and query.symmetric:
        direct = (
            Fraction((-1) ** (n - 1))
            * scalar_families(1 / th).j_tilde(n + 1)
            / (2**n * factorial(n))
        )
        if direct != value:
            raise InvariantError(f"hitting-law closed form mismatch at n={n}, theta={th}")
    return value


def duality_residuals(nmax: int, theta) -> list[Fraction]:
    """Residuals of the drift-inversion factorization for n = 0..nmax.

    theta < 0:  sum_k (-1)^k p_k(theta) p_{n-k}(1/theta) - [n = 0]
    theta > 0:  sum_k        p_k(theta) p_{n-k}(1/theta) - 1
    Both vanish identically; symmetric unit support is used.  The two
    prefixes are one direct oracle chain each, never a closed form, so the
    identity checks the oracle at theta against the oracle at 1/theta.
    """
    theta = Fraction(theta)
    if theta == 0:
        raise DomainError("drift must be nonzero for the duality")
    ps = oracle_masses(PersistenceQuery(nmax, theta))
    qs = oracle_masses(PersistenceQuery(nmax, 1 / theta))
    if theta > 0:
        return [sum(ps[k] * qs[n - k] for k in range(n + 1)) - 1 for n in range(nmax + 1)]
    return [
        sum((-1) ** k * ps[k] * qs[n - k] for k in range(n + 1)) - (n == 0)
        for n in range(nmax + 1)
    ]
