"""Exact persistence probabilities for AR(1) with uniform innovations.

p_n(theta) = P[Y_1 >= 0, ..., Y_n >= 0] for Y_k = theta*Y_{k-1} + X_k,
X_k uniform on [-a, b].  Closed polynomial forms exist outside a drift
window bounded by generalized Fibonacci numbers; inside the window only the
density-propagation oracle applies.  Both routes are exact rational
arithmetic and agree wherever both are defined.

Above drift 1 the oracle banks the mass that can never die.  A path that
reaches T = a/(theta - 1) stays at or above it, since theta*y - a >= y
there, so it survives forever.  Each forward density is cut at T after each
step: its restriction to [0, T] goes on, and its mass on [T, inf) joins one
exact banked atom, so p_k = banked_k + mass(f_k) with no approximation
(``_oracle_chain``).  The full densities' pieces double at every step; the
cut ones stay few.

Every window drift is positive, and a window prefix meets in the middle
(``_window_masses``).  The forward chain f_1, ..., f_K holds the survival
densities of Y_k; the backward chain g_1, ..., g_{n-K} holds
g_j = 1 - u_j, u_j(y) = P_y[Y_1, ..., Y_j >= 0], each g_{j+1} the
pushforward of g_j at (1/theta, b/theta, a/theta), divided by theta, plus
a linear piece.  By the Markov property p_m = p_K - <f_K, g_{m-K}> for
every split K < m (g_j vanishes on [T, inf), so the cut f_K serves), so a
prefix costs n - 1 pushforwards, split where the predicted pieces of the
two chains stay smallest (``_split``).  When
the reflected query (n, 1/theta, b, a) has closed forms, the prefix is read
off them instead, through the positive-drift factorization
sum_{k=0..n} p_k(theta; a, b) p_{n-k}(1/theta; b, a) = 1.  The oracle
itself (``oracle_masses``) and the duality residuals stay direct forward
chains, so the checks that compare them with the prefix compare
independent routes.
"""

from __future__ import annotations

import enum
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, lcm
from typing import Callable, Iterator

from ar1lab.errors import DomainError, NoClosedFormError
from ar1lab.exact.piecewise import PiecewisePoly, cell_ends, inner_product, piecewise_pushforward
from ar1lab.exact.polynomial import Polynomial
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


def fibonacci_root(i: int, ratio: Fraction = Fraction(1)) -> float:
    """Positive solution of theta + ... + theta^i = ratio, as a float: the
    boundary ``classify`` draws, found by bisecting ``geometric_sum`` over the
    rationals to relative width 2^-64, so the float is within one ulp of it."""
    if i < 1:
        raise DomainError("need at least one summand")
    lo, hi = Fraction(0), max(ratio, 1) + 1
    while (hi - lo) * 2**64 > hi:
        mid = (lo + hi) / 2
        if geometric_sum(mid, i) < ratio:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def window_bounds(query: PersistenceQuery) -> tuple[float, float]:
    """Drift window (lo, hi) with no closed form at this horizon, to the float."""
    if query.n < 2:
        return (float("inf"), float("inf"))
    lo = fibonacci_root(query.n - 1, query.a / query.b)
    hi = 1.0 / fibonacci_root(query.n - 1) if query.symmetric else float("inf")
    return (lo, hi)


# Inside ``reuse_scope``: {(uncached step, query): its result}; None outside.
_REUSE: ContextVar[dict | None] = ContextVar("ar1lab_persistence_reuse", default=None)


@contextmanager
def reuse_scope() -> Iterator[None]:
    """Within the block, ``oracle_masses``, ``persistence_prefix`` and
    ``persistence_closed_form`` compute each distinct query once.

    ``identities.run_all`` enters it for one ``verify`` run, whose checks
    ask for many of the same queries.  Outside it nothing is stored, so a
    library caller or a test that calls a route directly always computes.
    """
    token = _REUSE.set({})
    try:
        yield
    finally:
        _REUSE.reset(token)


def _reused(step: Callable, query: PersistenceQuery):
    """step(query), looked up in the active ``reuse_scope``; a list comes
    back as a fresh copy, so a caller that mutates it changes nothing stored."""
    store = _REUSE.get()
    if store is None:
        return step(query)
    key = (step, query)
    if key not in store:
        store[key] = step(query)
    value = store[key]
    return list(value) if isinstance(value, list) else value


def persistence_closed_form(query: PersistenceQuery) -> Fraction:
    """Exact p_n by the dispatched polynomial formula; fails inside the window."""
    return _reused(_closed_form, query)


def _closed_form(query: PersistenceQuery) -> Fraction:
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
        f"no closed form for n={n}, theta={th}; use oracle_masses",
        window_bounds(query),
    )


def _absorbing_level(query: PersistenceQuery) -> Fraction | None:
    """T = a/(theta - 1) for drift theta > 1, None otherwise.  From Y >= T
    the next state is theta*Y + X >= theta*T - a = T, so a path that reaches
    T never leaves [T, inf) and survives forever."""
    th = query.theta
    return query.a / (th - 1) if th > 1 else None


def _oracle_chain(query: PersistenceQuery) -> Iterator[tuple[PiecewisePoly, Fraction]]:
    """(f_k, banked_k) for k = 1..n, with p_k = banked_k + mass(f_k).

    f_k is the survival sub-density of Y_k, one pushforward from f_{k-1};
    f_1 is 1/(a+b) on [0, b].  Above drift 1 each f_k is cut at the
    absorbing level T = a/(theta - 1): f_k keeps its restriction to [0, T],
    and its mass on [T, inf) joins the banked atom, the exact probability
    of surviving to step k with Y_k >= T.  That is exact, since a path at or
    above T stays there (``_absorbing_level``): the mass above T never
    flows back below it, so the cut chain's f_k is the full chain's
    restricted to [0, T], and the full chain's pieces, which double at
    every step, are never built.  At drift <= 1 nothing is banked.
    """
    th, a, b = query.theta, query.a, query.b
    level = _absorbing_level(query)
    f, banked = PiecewisePoly.constant(0, b, 1 / (a + b)), Fraction(0)
    for k in range(query.n):
        if k:
            f = piecewise_pushforward(f, th, a, b)
        if level is not None:
            f, above = f.cut(level)
            banked += above
        yield f, banked


def oracle_masses(query: PersistenceQuery) -> list[Fraction]:
    """[p_0, p_1, ..., p_n] by exact density propagation (any rational theta)."""
    return _reused(_oracle_masses, query)


def _oracle_masses(query: PersistenceQuery) -> list[Fraction]:
    return [Fraction(1)] + [banked + f.mass() for f, banked in _oracle_chain(query)]


def _backward_chain(query: PersistenceQuery) -> Iterator[PiecewisePoly]:
    """g_1, ..., g_n, g_j = 1 - u_j, one pushforward apart, for theta > 0.

    u_j(y) = P_y[Y_1, ..., Y_j >= 0] and g_0 = 0.  On y >= 0,
    u_{j+1}(y) = (integral of u_j over [max(theta*y - a, 0), theta*y + b])/(a + b),
    so g_{j+1} = push(g_j)/theta + h with h(y) = (a - theta*y)/(a + b) on
    [0, a/theta], push being the pushforward at (1/theta, b/theta, a/theta).
    g_0 goes through the pushforward too, which returns at once on zero
    mass; from g_1 on, a/theta is a cell end of push(g_j), the image of 0.
    """
    th, a, b = query.theta, query.a, query.b
    h = PiecewisePoly((0, a / th), (Polynomial((a / (a + b), -th / (a + b))),))
    g = PiecewisePoly.zero()
    for _ in range(query.n):
        g = piecewise_pushforward(g, 1 / th, b / th, a / th).scaled(1 / th) + h
        yield g


def _closed_forms(query: PersistenceQuery) -> list[Fraction]:
    """[p_0..p_n] by closed forms, for a horizon n outside the window."""
    return [persistence_closed_form(replace(query, n=k)) for k in range(query.n + 1)]


def _piece_counts(query: PersistenceQuery, level: Fraction | None) -> Iterator[int]:
    """Piece counts of the densities f_1, f_2, ... of a chain at the query's
    steps, each cut at ``level`` unless it is None, predicted from
    breakpoints alone.  At ``_absorbing_level(query)`` they are the oracle
    chain's; on the reflected query (n, 1/theta, b, a), uncut, they are the
    backward chain's g_1, g_2, ...

    f_1 lives on {0, b}; a pushforward cuts [0, inf) at 0 and at the
    ``cell_ends`` of the input's breakpoints, the rule the kernel itself uses,
    here on integer numerators over one denominator.  A cut drops the ends
    above the level and ends the density at the level instead.
    """
    th, a, b = query.theta, query.a, query.b
    den, ends = b.denominator, {0, b.numerator}
    while True:
        if level is not None:
            e = lcm(den, level.denominator)
            top = level.numerator * (e // level.denominator)
            scaled = {n * (e // den) for n in ends}
            den, ends = e, {n for n in scaled if n < top}
            if len(ends) < len(scaled):
                ends.add(top)
        yield len(ends) - 1
        den, ends = cell_ends(den, ends, th, a, b)
        ends.add(0)


def _split(query: PersistenceQuery, reflected: PersistenceQuery) -> int:
    """The split K of a window query: the forward chain runs to f_K, the
    backward chain to g_{n-K}.

    The two predicted chains race from K = 1 (f_1 is given) and j = 0: the
    side whose next density has fewer predicted pieces advances, ties going
    forward, until K + j = n.  g_j's pieces are those of the reflected
    query's f_j, so ``_piece_counts`` predicts both sides, and neither is
    predicted more than one step past the chain that will run.  The sign of
    theta - 1 does not decide on an asymmetric support: at (7/5; 3, 1) the
    forward side is the cheaper one, at (5/7; 1, 3) the backward one.
    """
    forward, backward = _piece_counts(query, _absorbing_level(query)), _piece_counts(reflected, None)
    next(forward)
    k, j = 1, 0
    ahead = [next(forward), next(backward)]  # pieces of f_{K+1} and g_{j+1}
    while k + j < query.n:
        if ahead[0] <= ahead[1]:
            k += 1
            ahead[0] = next(forward)
        else:
            j += 1
            ahead[1] = next(backward)
    return k


def _window_masses(
    query: PersistenceQuery,
) -> tuple[list[Fraction], PiecewisePoly | None, Iterator[PiecewisePoly]] | None:
    """The window prefix as (p, f, backward) when horizon n lies in the
    window; None when closed forms apply.  The one place that chooses the
    route.

    A window drift is always positive.  When the reflected query
    (n, 1/theta, b, a) lies outside the window, its closed forms q give the
    whole prefix p = [p_0..p_n] through the positive-drift factorization
    p_m = 1 - sum_{k<m} p_k q_{m-k}, with no f and an empty backward chain.
    Otherwise the chains meet in the middle: by the Markov property
    p_m = banked_K + <f_K, u_{m-K}> for every split K <= m, f_K and banked_K
    from ``_oracle_chain`` and u_j the survival function of
    ``_backward_chain`` (u_j = 1 on [T, inf), where the banked mass lies), so
    with g_j = 1 - u_j

        p_m = banked_m + mass(f_m) for m <= K,   p_m = p_K - <f_K, g_{m-K}> for K < m <= n,

    K from ``_split``.  p holds p_0..p_K, f is f_K, and backward yields
    g_1..g_{n-K} lazily, so each caller takes only the inner products it
    needs.  That is (K - 1) + (n - K) = n - 1 pushforwards, each called
    through this module's global.
    """
    if classify(query) is not Region.WINDOW:
        return None
    reflected = PersistenceQuery(query.n, 1 / query.theta, query.b, query.a)
    p = [Fraction(1)]
    if classify(reflected) is not Region.WINDOW:
        q = _closed_forms(reflected)
        for m in range(1, query.n + 1):
            p.append(1 - sum(p[k] * q[m - k] for k in range(m)))
        return p, None, iter(())
    k = _split(query, reflected)
    for f, banked in _oracle_chain(replace(query, n=k)):
        p.append(banked + f.mass())
    return p, f, _backward_chain(replace(query, n=query.n - k))


def persistence_exact(n: int, theta, a=1, b=1) -> Fraction:
    """Exact p_n: one closed form, or the last entry of the window prefix.

    When the window's chains meet in the middle, p_n = p_K - <f_K, g_{n-K}>
    takes one inner product, against the last density of the backward chain.
    """
    query = PersistenceQuery(n, theta, a, b)
    window = _window_masses(query)
    if window is None:
        return persistence_closed_form(query)
    p, f, backward = window
    last = deque(backward, maxlen=1)
    return p[-1] - inner_product(f, last[0]) if last else p[-1]


def persistence_prefix(n: int, theta, a=1, b=1) -> list[Fraction]:
    """[p_0..p_n], closed forms where possible, two chains that meet otherwise.

    In the window (where the drift is positive) the prefix is read off the
    forward chain up to the split K and is p_K - <f_K, g_{m-K}> above it: a
    forward chain of survival densities to f_K and a backward chain of
    complementary survival functions g_j = 1 - u_j to g_{n-K},
    g_{j+1} = push(g_j)/theta + h (see ``_window_masses``).  When the
    reflected query has closed forms, the prefix is read off them through
    the positive-drift factorization.

    Only horizon n is classified: a horizon outside the window has every
    shorter horizon outside it too.  For drift <= -1 the region is always
    INVERSE_NEG, and for drift in (-1, 0] every geometric sum lies in
    (-1, 0], so the region is always DIRECT.  For drift > 0 both geometric
    sums, in theta and in 1/theta, grow with the horizon, so a condition
    that admits a closed form at n admits one at every shorter horizon.
    """
    return _reused(_prefix, PersistenceQuery(n, theta, a, b))


def _prefix(query: PersistenceQuery) -> list[Fraction]:
    window = _window_masses(query)
    if window is None:
        return _closed_forms(query)
    p, f, backward = window
    return p + [p[-1] - inner_product(f, g) for g in backward]


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
