"""Floating-point analytic layer: deformed exponential, roots, rates, limits
and the biexponential q-series.

Everything here is numerical but tied back to exact rational persistence
values.  The deformed exponential E(th, z) = sum th^(n(n-1)/2) z^n/n! is
entire for |th| <= 1; its first root on the negative axis sets the
exponential decay rate of the persistence probabilities.  Large arguments
(needed for high root indices) are summed with mpmath at a precision chosen
from the largest term, since the series is violently cancellative there.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import mpmath as mp

from ar1lab.errors import DomainError, InvariantError, RootSearchError
from ar1lab.persistence import PersistenceQuery, persistence_closed_form, persistence_prefix


# ---------------------------------------------------------------------------
# Deformed exponential
# ---------------------------------------------------------------------------


def _plan(theta: float, z: float, logtol: float) -> tuple[int, float]:
    """(order, peak): the truncation order of E(th, z) for absolute error
    e^logtol, and log10 of its largest term, from one walk over log|term_n|.
    The tolerance comes as a natural log so that a request below the float
    range (``ell_mp`` at hundreds of digits) is honoured, not clamped.

    For |th| <= 1 the term ratio |th|^n |z|/(n+1) only falls, so the terms
    rise to one peak and then fall.  Once that ratio is below 1/2 the tail
    after term_n is below term_n; the order is the first such n where
    2 term_n < e^logtol, and by then the running maximum is the peak.
    """
    at, az = abs(theta), abs(z)
    if at == 0.0 or az == 0.0:
        return 2, math.log10(max(az, 1.0))  # E(0, z) = 1 + z exactly
    lat, laz = math.log(at), math.log(az)
    logterm = peak = 0.0
    for n in range(1, 200000):
        logterm += (n - 1) * lat + laz - math.log(n)
        peak = max(peak, logterm)
        if n * lat + laz - math.log(n + 1) < math.log(0.5) and logterm + math.log(2.0) < logtol:
            return n, peak / math.log(10.0)
    raise RuntimeError("truncation order search did not terminate")


def deformed_exp(theta: float, z: float, tol: float) -> float:
    """E(th, z) with absolute error at most tol; requires |th| <= 1.

    The truncation order and the largest term come from one walk over the
    term sizes (``_plan``).  If the terms grow large enough that double
    precision would lose the target accuracy to cancellation, the sum is
    done in mpmath at a precision set by the largest term.
    """
    if abs(theta) > 1:
        raise DomainError("series diverges for |theta| > 1")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    order, peak = _plan(theta, z, math.log(tol) - math.log(10.0))
    if peak - 16 > math.log10(tol) - 1:
        return float(_deformed_exp_mp(theta, z, order, max(30, int(peak) + 30)))
    return math.fsum(_deformed_exp_terms(theta, z, order))


def _deformed_exp_terms(theta, z, order: int):
    """th^(n(n-1)/2) z^n/n! for n = 0..order, in the arithmetic of theta and z."""
    term = z**0
    yield term
    for n in range(1, order + 1):
        term = term * theta ** (n - 1) * z / n
        yield term


def _deformed_exp_mp(theta, z, order: int, dps: int):
    with mp.workdps(dps):
        return sum(_deformed_exp_terms(mp.mpf(theta), mp.mpf(z), order))


def _E_neg(theta: float, z: float) -> float:
    """E(theta, -z), the function whose positive roots are scanned."""
    return deformed_exp(theta, -z, 1e-13)


def _E_neg_deriv(theta: float, z: float) -> float:
    """d/dz E(theta, -z) = -E(theta, -theta z)."""
    return -deformed_exp(theta, -theta * z, 1e-13)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootResult:
    """A located root of z -> E(theta, -z).

    ``residual`` is scale-free: the magnitude of the final Newton correction
    relative to the root location.  (The raw value |E(theta, -root)| is not
    usable as a tolerance at high root indices, where the local derivative
    reaches 1e30+ and no representable root can make it small.)  For the
    first root the two notions agree up to an O(1) factor.
    """

    value: float
    residual: float


def _bisect(f, lo: float, hi: float) -> tuple[float, float] | None:
    """A sign change of f on [lo, hi] shrunk to relative width 1e-13, or onto
    an exact zero of f met on the way; None when f(lo) and f(hi) share a sign."""
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        return None
    if flo == 0.0:
        return lo, lo
    while hi - lo > 1e-13 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid, mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return lo, hi


def _bisect_then_polish(theta: float, lo: float, hi: float) -> RootResult:
    bracket = _bisect(lambda z: _E_neg(theta, z), lo, hi)
    if bracket is None:
        raise RootSearchError(f"no sign change on [{lo}, {hi}]")
    lo, hi = bracket
    root = 0.5 * (lo + hi)
    deriv = _E_neg_deriv(theta, root)
    if deriv != 0.0:
        step = _E_neg(theta, root) / deriv
        if abs(step) < (hi - lo) + 1e-9 * max(1.0, root):
            root -= step
    value = deformed_exp(theta, -root, 1e-15)
    deriv = _E_neg_deriv(theta, root)
    if deriv != 0.0:
        residual = abs(value / deriv) / max(abs(root), 1.0)
    else:
        residual = abs(value)
    return RootResult(root, residual)


def _scan(f, z: float, fz: float, step: float, growth: float, cap: float):
    """(z, z2, f(z2)) at the first sign change of f on the grid that starts
    at z (where f is fz) and grows its step by the factor growth; None when
    the grid passes cap first."""
    while z < cap:
        z2 = z + step
        f2 = f(z2)
        if fz * f2 <= 0:
            return z, z2, f2
        z, fz = z2, f2
        step *= growth
    return None


def first_negative_root(theta: float) -> RootResult:
    """z_theta = inf{z > 0 : E(theta, -z) = 0}, by scan, bisection and polish."""
    if not -1.0 <= theta < 1.0:
        raise DomainError("first negative root requires theta in [-1, 1)")
    cap = 10.0 + 20.0 / (1.0 - theta)
    f = partial(_E_neg, theta)
    hit = _scan(f, 1e-3, f(1e-3), 0.05, 1.25, cap)
    if hit is None:
        raise RootSearchError(f"no sign change found below z={cap} for theta={theta}")
    return _bisect_then_polish(theta, hit[0], hit[1])


def positive_roots(theta: float, count: int) -> list[RootResult]:
    """First `count` positive roots of z -> E(theta, -z) for theta in (0, 1).

    All roots are simple and positive in this range; the k-th root grows like
    k theta^(1-k), which informs the geometric scan grid.
    """
    if not 0.0 < theta < 1.0:
        raise DomainError("positive root ladder requires theta in (0, 1)")
    if count < 1:
        raise DomainError("need count >= 1")
    found: list[RootResult] = []
    f = partial(_E_neg, theta)
    z, fz = 1e-3, f(1e-3)
    for k in range(1, count + 1):
        cap = 10.0 * max((k + 1) * theta ** (-k), z * 2.0)
        hit = _scan(f, z, fz, max(z * 0.02, 1e-3), 1.06, cap)
        if hit is None:
            raise RootSearchError(f"found only {len(found)} of {count} roots below z={cap}")
        lo, z, fz = hit
        found.append(_bisect_then_polish(theta, lo, z))
    return found


# ---------------------------------------------------------------------------
# Decay rates
# ---------------------------------------------------------------------------


def float_value(x, name: str) -> float:
    """float(x) for root scans and sampling; DomainError naming the value (a drift,
    a support half-width) when x lies past the float range."""
    try:
        return float(x)
    except OverflowError:
        size = mp.nstr(mp.mpf(x.numerator) / x.denominator, 6)
        raise DomainError(f"{name} {size} has no float value") from None


@dataclass(frozen=True)
class RateBundle:
    """Decay-rate data at one drift value; unused slots stay None."""

    theta: float
    z_root: float
    lam: float | None = None  # 2(1-theta) z_theta, drift in [-1, 1/2]
    mu: float | None = None  # 2(1-theta) z_{1/theta}, drift < -1
    ell: float | None = None  # limit of p_n, drift >= 2
    nu: float | None = None  # root of the 12-root rate function, drift >= 2
    kappa_estimate: float | None = None  # log(2(theta-1) z_root): p_n - ell ~ e^(-kappa n), drift >= 2
    c_estimate: float | None = None  # fitted constant for drift < -1
    c_rel_drift: float | None = None  # stabilization diagnostic of the fit
    root_residual: float | None = None  # residual of the root behind lam or mu


def decay_rate(theta: float | Fraction) -> RateBundle:
    """Exponential decay data: lambda for drift in [-1, 1/2], mu below -1.

    For drift < -1 the constant in front of the rate has no usable closed
    form (the complex-root structure is only conjectural), so it is fitted
    as the stabilized value of 1/(p_n mu^n) from exact persistence values,
    and reported with a relative-drift diagnostic.
    """
    t = float_value(theta, "drift")
    if -1 <= theta <= Fraction(1, 2):
        root = first_negative_root(t)
        lam = 2.0 * (1.0 - t) * root.value
        if lam <= 1.0:
            raise InvariantError(f"rate bound violated: lambda={lam} at theta={t}")
        return RateBundle(theta=t, z_root=root.value, lam=lam, root_residual=root.residual)
    if theta < -1:
        if theta < -(2**50):
            # mu = 2|theta| + 1 + o(1), and from 2^50 on the float spacing at 2|theta| is 1/2 or more
            raise DomainError(f"drift {t:g} is below -2^50, where floats cannot separate mu from 2|theta|")
        root = first_negative_root(1.0 / t)
        mu = 2.0 * (1.0 - t) * root.value
        if mu <= -2.0 * t:
            raise InvariantError(f"rate bound violated: mu={mu} at theta={t}")
        p = persistence_prefix(30, Fraction(theta))
        values = [float(1 / (p[n] * Fraction(mu) ** n)) for n in range(25, 31)]
        drift = max(values) / min(values) - 1.0
        return RateBundle(
            theta=t,
            z_root=root.value,
            mu=mu,
            c_estimate=values[-1],
            c_rel_drift=drift,
            root_residual=root.residual,
        )
    raise DomainError("no decay-rate formula for drift above 1/2; the limit routines cover drift >= 2")


# ---------------------------------------------------------------------------
# The positive limit of p_n for drift > 1
# ---------------------------------------------------------------------------

def _refuse_window_limit(theta) -> None:
    """DomainError for a drift in (1, 2).

    There r = 1/theta lies in (1/2, 1), where p_n(r) >= p_n(1/2) (p_n grows
    with the drift on theta >= 0) and p_n/p_(n-1) >= P[X >= 0] = 1/2, so
    the geometric tail after n terms is at least p_n(1/2) and tail/acc^2
    stays above p_16(1/2)/17^2 = 4.0e-6 for n <= 16, far above any
    tolerance asked for; a longer prefix at r is an oracle chain whose
    pieces grow exponentially.
    """
    if theta < 2:
        raise DomainError(
            f"drift {float(theta):g} is in (1, 2), where exact terms cannot bound the limit's tail;"
            " the limit is computed for drift >= 2"
        )


def ell_with_tail(theta, tol: float) -> tuple[float, Fraction, float, int]:
    """(ell, partial_sum, tail_bound, N): ell = 1/sum p_n(1/theta), drift >= 2.

    Exact rational terms p_n(1/theta) from the persistence layer are
    accumulated until the geometric tail estimate moves the limit by less
    than tol.  At r = 1/theta <= 1/2 every horizon has a closed form, read
    one at a time, and the tail ratio is 1/lambda(r) from the root-based
    rate of p_n(r).
    """
    if theta <= 1:
        raise DomainError("the limit is zero for drift <= 1; positive only above 1")
    _refuse_window_limit(theta)
    r = 1 / Fraction(theta)
    ratio = 1.0 / decay_rate(r).lam
    acc = Fraction(0)
    cap = 400
    # r + r^2 + ... < 1, so every horizon is DIRECT: one closed form each
    for n in range(cap + 1):
        term = persistence_closed_form(PersistenceQuery(n, r))
        acc += term
        if n >= 2:
            tail = float(term) * ratio / (1.0 - ratio)
            if tail / float(acc) ** 2 < tol:
                ell = 1.0 / (float(acc) + tail)
                if not 0.0 < ell <= 0.5 + 1e-12:
                    raise InvariantError(f"limit {ell} escapes (0, 1/2] at drift {float(theta)}")
                return ell, acc, tail, n
    raise DomainError(f"tail below {tol} not reachable within {cap} exact terms for drift {float(theta)}")


def ell_mp(theta, dps: int):
    """High-precision limit for rational drift >= 2, as an mpmath float.

    With r = 1/theta and z = -1/(2(1 - r)), ell = E(r, z)/E(r, rz) exactly:
    E_z(r, z) = E(r, rz), and sum_m J_{m+1} w^m/m! = E_z/E at (r - 1)z = w,
    so sum_n p_n(r) = sum_n J_{n+1}(r)/(2^n n!) is E(r, rz)/E(r, z).
    Needed for stabilization checks of p_n - ell, whose scale drops far
    below double precision by n = 30; rounded, it is the ell that
    ``rate_bundle`` reports.
    """
    th = Fraction(theta)
    if th < 2:
        raise DomainError("high-precision limit implemented for drift >= 2")
    with mp.workdps(dps + 10):
        r = mp.mpf(th.denominator) / th.numerator
        z = -1 / (2 * (1 - r))
        order, _ = _plan(float(r), float(z), -(dps + 10) * math.log(10.0))
        num, den = (_deformed_exp_mp(r, w, order, dps + 10) for w in (z, r * z))
        return num / den


# ---------------------------------------------------------------------------
# Second-order rate for drift >= 2
# ---------------------------------------------------------------------------


def nu_root(theta: float, ladder: list[RootResult]) -> float:
    """First positive root of the meromorphic rate function for drift >= 2.

    L(z) = 1/a_1 + sum_{k>=2} (1 - z/l_1)/(a_k (1 - z/l_k)) with a_k the
    positive roots for parameter 1/theta, read off ``ladder``, and
    l_k = 2(1-1/theta) a_k; the root lies strictly between l_1 and l_2.
    The series is truncated after the ladder's last root; a_k grows like
    k theta^(k-1), so the k-th term falls off geometrically.
    """
    if theta < 2.0:
        raise DomainError("second-order rate requires drift >= 2")
    r = 1.0 / theta
    roots = [rr.value for rr in ladder]
    lams = [2.0 * (1.0 - r) * a for a in roots]
    a1, l1, l2 = roots[0], lams[0], lams[1]

    def L(z: float) -> float:
        acc = 1.0 / a1
        for a, l in zip(roots[1:], lams[1:]):
            acc += (1.0 - z / l1) / (a * (1.0 - z / l))
        return acc

    bracket = _bisect(L, l1 * (1.0 + 1e-9), l2 * (1.0 - 1e-9))
    if bracket is None:
        raise RootSearchError(f"no sign change of the rate function in ({l1}, {l2}) from {len(roots)} roots")
    return 0.5 * (bracket[0] + bracket[1])


def rate_bundle(theta: float | Fraction) -> RateBundle:
    """Assembled rate data for any supported drift (CLI entry point).

    For drift >= 2 one scan of the root ladder a_k of E(1/theta, -z) gives
    z_root = a_1, nu (``nu_root``) and kappa = log(2(theta - 1) a_1): by the
    positive-drift factorization, sum_n (p_n - ell) y^n has its first pole
    at y = 2(theta - 1) a_1, where E(1/theta, -a_1) = 0.  ell is ``ell_mp``
    rounded to a float.
    """
    t = float_value(theta, "drift")
    if theta <= Fraction(1, 2):
        return decay_rate(theta)
    if theta <= 1:
        raise DomainError("no rate formula for drift in (1/2, 1]")
    _refuse_window_limit(theta)
    if 13 * Fraction(theta) ** 12 > sys.float_info.max:
        raise DomainError(f"drift {t:g} is too large for nu: its 12th root, near 13 theta^12, has no float value")
    ladder = positive_roots(1.0 / t, 12)
    a1 = ladder[0].value
    # ell_mp adds 10 guard digits, so 20 digits round to the nearest float
    ell = float(ell_mp(theta, 20))
    if not 0.0 < ell <= 0.5:
        raise InvariantError(f"limit {ell} escapes (0, 1/2] at drift {t}")
    kappa = math.log(2.0 * (t - 1.0) * a1)
    return RateBundle(theta=t, z_root=a1, ell=ell, nu=nu_root(t, ladder), kappa_estimate=kappa)


# ---------------------------------------------------------------------------
# q-series for biexponential innovations
# ---------------------------------------------------------------------------


def qpochhammer(x, q: float):
    """(x; q)_inf = prod_{n>=0} (1 - x q^n), truncated with a factor bound.

    Stops once the next factor differs from 1 by less than 1e-14 divided by
    the number of factors so far, keeping the multiplicative error below
    roughly 1e-14.  A q so close to 1 that this takes more than 100000
    factors (drift within about 3e-4 of 1) is a DomainError.
    """
    if not 0.0 <= q < 1.0:
        raise DomainError("q must lie in [0, 1)")
    acc = 1.0 + 0.0j if isinstance(x, complex) else 1.0
    qn = 1.0
    n = 0
    while True:
        factor = 1.0 - x * qn
        acc *= factor
        n += 1
        qn *= q
        if abs(x) * qn < 1e-14 / (n + 1):
            break
        if n > 100000:
            raise DomainError(f"q-product did not converge within 100000 factors at q={q:g}")
    return acc


def qseries_biexp(theta: float, z):
    """Generating function sum p_n(theta) z^n for biexponential innovations.

    Uses the q-product form with q = theta^2 for theta in (0,1) and
    q = theta^-2 for theta > 1.  At theta = 1 the square-root law of
    symmetric random walks applies instead.
    """
    if theta <= 0:
        raise DomainError("q-series form needs positive drift")
    if theta == 1.0:
        raise DomainError("drift 1 is the random-walk case: sum p_n z^n = (1-z)^(-1/2)")
    if theta < 1.0:
        q = theta * theta
        shared = qpochhammer(theta * z, q)
        num = shared + qpochhammer(q * z, q)
        den = qpochhammer(z, q) + shared
        return num / den
    try:
        square = theta**2
    except OverflowError:
        raise DomainError(f"drift {theta!r} squared has no float value") from None
    q = theta**-2
    shared = qpochhammer(z / theta, q)
    num = qpochhammer(z, q) + shared
    den = (1.0 - z) * (shared + qpochhammer(z / square, q))
    return num / den


_RADIUS = 0.5
_NPOINTS = 128


def qseries_biexp_coeffs(theta: float, nmax: int) -> list[float]:
    """Taylor coefficients p_0..p_nmax of the q-product generating function.

    Extracted by averaging the product form over the circle of radius
    ``_RADIUS`` at ``_NPOINTS`` points (the discrete Cauchy integral); with
    |coefficients| <= 1 the aliasing error is below radius^(npoints - nmax).
    Horizons from npoints/2 on are refused.
    """
    if nmax >= _NPOINTS // 2:
        raise DomainError(f"the q-series extraction serves horizons below {_NPOINTS // 2}, not {nmax}")
    samples = []
    for j in range(_NPOINTS):
        zj = _RADIUS * cmath.exp(2j * cmath.pi * j / _NPOINTS)
        samples.append(qseries_biexp(theta, zj))
    out = []
    for n in range(nmax + 1):
        acc = 0.0 + 0.0j
        for j, s in enumerate(samples):
            acc += s * cmath.exp(-2j * cmath.pi * j * n / _NPOINTS)
        out.append((acc / _NPOINTS).real / _RADIUS**n)
    return out


def biexp_persistence_nonpositive(theta, n: int) -> Fraction:
    """Exact p_n for biexponential innovations and rational drift <= 0:
    p_n = 2^-n (1-theta)^(1-n)."""
    th = Fraction(theta)
    if th > 0:
        raise DomainError("closed form only for drift <= 0")
    if n < 1:
        return Fraction(1)
    return Fraction(1, 2**n) * (1 - th) ** (1 - n)
