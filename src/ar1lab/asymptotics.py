"""Floating-point analytic layer: deformed exponential, roots, rates, limits.

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
from math import factorial, lgamma

import mpmath as mp

from ar1lab.errors import DomainError, InvariantError, RootSearchError
from ar1lab.families import j_tilde, scalar_j
from ar1lab.persistence import PersistenceQuery, persistence_closed_form, persistence_prefix


# ---------------------------------------------------------------------------
# Deformed exponential
# ---------------------------------------------------------------------------


def _truncation_order(theta: float, z: float, tol: float) -> int:
    """Smallest N whose analytic tail bound is below tol.

    For moderate |z| the tail after N terms is bounded by
    |th|^(N(N-1)/2) |z|^N/N! e^|z| (plain exponential tail at |th| = 1).
    For large |z| that bound forces N ~ sqrt(|z|), so once the term ratio
    |th|^n |z|/(n+1) has dropped below 1/2 the geometric remainder
    2*term_{N+1} is used instead; it is valid and far tighter there.
    """
    at = min(abs(theta), 1.0)
    az = abs(z)
    if at == 0.0:
        return 2  # E(0, z) = 1 + z exactly
    if az == 0.0:
        return 1
    logtol = math.log(max(tol, 1e-300))
    if az <= 50.0:
        n = 1
        while n < 100000:
            logtail = az + n * math.log(az) - lgamma(n + 1)
            if at < 1.0:
                logtail += (n * (n - 1) / 2) * math.log(at)
            if logtail < logtol:
                return n
            n += 1
        raise RuntimeError("truncation order search did not terminate")
    logterm = 0.0
    lat = math.log(at)
    n = 0
    while n < 200000:
        n += 1
        logterm += (n - 1) * lat + math.log(az) - math.log(n)
        ratio = (n) * lat + math.log(az) - math.log(n + 1)
        if ratio < math.log(0.5) and logterm + math.log(2.0) < logtol:
            return n
    raise RuntimeError("truncation order search did not terminate")


def _max_term_log10(theta: float, z: float) -> float:
    at, az = abs(theta), abs(z)
    if az == 0.0:
        return 0.0
    best = 0.0
    logterm = 0.0
    n = 0
    while n < 100000:
        n += 1
        logterm += math.log10(az) - math.log10(n)
        if at > 0:
            logterm += (n - 1) * math.log10(at)
        if logterm > best:
            best = logterm
        if logterm < best - 40:
            break
    return best


def deformed_exp(theta: float, z: float, tol: float = 1e-12) -> float:
    """E(th, z) with absolute error at most tol; requires |th| <= 1.

    The truncation order is chosen from the analytic tail bound.  If the
    terms grow large enough that double precision would lose the target
    accuracy to cancellation, the sum is done in mpmath at a precision set
    by the largest term.
    """
    if abs(theta) > 1:
        raise DomainError("series diverges for |theta| > 1")
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    order = _truncation_order(theta, z, tol / 10)
    peak = _max_term_log10(theta, z)
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


def _E_neg(theta: float, z: float, tol: float = 1e-13) -> float:
    """E(theta, -z), the function whose positive roots are scanned."""
    return deformed_exp(theta, -z, tol)


def _E_neg_deriv(theta: float, z: float, tol: float = 1e-13) -> float:
    """d/dz E(theta, -z) = -E(theta, -theta z)."""
    return -deformed_exp(theta, -theta * z, tol)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootResult:
    """A located root of z -> E(theta, -z) (or of the rate function).

    ``residual`` is scale-free: the magnitude of the final Newton correction
    relative to the root location.  (The raw value |E(theta, -root)| is not
    usable as a tolerance at high root indices, where the local derivative
    reaches 1e30+ and no representable root can make it small.)  For the
    first root the two notions agree up to an O(1) factor.
    """

    value: float
    residual: float
    bracket: tuple[float, float]


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
    value = _E_neg(theta, root, tol=1e-15)
    deriv = _E_neg_deriv(theta, root)
    if deriv != 0.0:
        residual = abs(value / deriv) / max(abs(root), 1.0)
    else:
        residual = abs(value)
    return RootResult(root, residual, (lo, hi))


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
            raise RootSearchError(f"found only {len(found)} of {count} roots below z={cap}", found)
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
    ell: float | None = None  # limit of p_n, drift > 1
    nu: float | None = None  # rate of p_n - ell, drift >= 2
    kappa_estimate: float | None = None  # empirical decay exponent, drift > 1
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
    raise DomainError("no decay-rate formula for drift in (1/2, 1]; use the limit routines for drift > 1")


# ---------------------------------------------------------------------------
# The positive limit of p_n for drift > 1
# ---------------------------------------------------------------------------

# 1/theta expansion of the limit: ell = 1/2 - (1/(8 th) + 1/(16 th^2) + ...)
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


def ell_expansion(theta: float, kmax: int = 9) -> float:
    """Evaluate the 1/theta expansion of the limit, sum_{k<=kmax} a_k th^-k.

    Orders through 9 use the printed table ``ELL_EXPANSION_COEFFS``; higher
    orders use the coefficients derived exactly by
    ``ell_expansion_coefficients``, which agree with the table where both
    exist.  The derived a_10..a_14 lie between -0.035 and -0.040, so at
    drift 4 the order-9 sum is off by ~4.5e-8 and each further order cuts
    that error by about 4.
    """
    if kmax < 0:
        raise DomainError("expansion order must be >= 0")
    coeffs = list(ELL_EXPANSION_COEFFS[: kmax + 1])
    if kmax >= len(coeffs):
        coeffs += ell_expansion_coefficients(kmax)[len(coeffs) :]
    return float(sum(float(c) / theta**k for k, c in enumerate(coeffs)))


def ell_with_tail(theta, tol: float = 1e-10, nmax: int = 400) -> tuple[float, Fraction, float, int]:
    """(ell, partial_sum, tail_bound, N): ell = 1/sum p_n(1/theta), drift > 1.

    Exact rational terms p_n(1/theta) from the persistence layer are
    accumulated until the geometric tail estimate moves the limit by less
    than tol.  For drift >= 2 every horizon has a closed form, read one at a
    time, and the tail ratio comes from the root-based rate of p_n(1/theta);
    in (1, 2) only a short exact prefix is affordable and the empirical
    ratio of consecutive terms is used.
    """
    if theta <= 1:
        raise DomainError("the limit is zero for drift <= 1; positive only above 1")
    r = 1 / Fraction(theta)
    ratio_analytic = None
    if r <= Fraction(1, 2):
        # r + r^2 + ... < 1, so every horizon is DIRECT: one closed form each
        ratio_analytic = 1.0 / decay_rate(r).lam
        cap = nmax

        def term_at(n: int) -> Fraction:
            return persistence_closed_form(PersistenceQuery(n, r))

    else:
        cap = min(nmax, 16)
        prefix = persistence_prefix(cap, r)

        def term_at(n: int) -> Fraction:
            return prefix[n]

    terms: list[Fraction] = []
    acc = Fraction(0)
    n = 0
    while True:
        if n > cap:
            raise DomainError(
                f"tail below {tol} not reachable within {cap} exact terms for drift {float(theta)}"
            )
        term = term_at(n)
        acc += term
        terms.append(term)
        if n >= 2:
            ratio = ratio_analytic if ratio_analytic is not None else float(terms[-1] / terms[-2])
            if 0.0 < ratio < 1.0:
                tail = float(terms[-1]) * ratio / (1.0 - ratio)
                if tail / float(acc) ** 2 < tol:
                    ell = 1.0 / (float(acc) + tail)
                    if not 0.0 < ell <= 0.5 + 1e-12:
                        raise InvariantError(f"limit {ell} escapes (0, 1/2] at drift {float(theta)}")
                    return ell, acc, tail, n
        n += 1


def limit_ell(theta: float, tol: float = 1e-10) -> float:
    """lim p_n(theta) = 1/sum_{n>=0} p_n(1/theta) for drift > 1."""
    return ell_with_tail(theta, tol)[0]


def ell_mp(theta, dps: int = 60):
    """High-precision limit for rational drift >= 2, as an mpmath float.

    With r = 1/theta and z = -1/(2(1 - r)), ell = E(r, z)/E(r, rz) exactly:
    E_z(r, z) = E(r, rz), and sum_m J_{m+1} w^m/m! = E_z/E at (r - 1)z = w,
    so sum_n p_n(r) = sum_n J_{n+1}(r)/(2^n n!) is E(r, rz)/E(r, z).
    Needed for stabilization checks of p_n - ell, whose scale drops far
    below double precision by n = 30.
    """
    th = Fraction(theta)
    if th < 2:
        raise DomainError("high-precision limit implemented for drift >= 2")
    with mp.workdps(dps + 10):
        r = mp.mpf(th.denominator) / th.numerator
        z = -1 / (2 * (1 - r))
        order = _truncation_order(float(r), float(z), 10.0 ** -(dps + 10))
        num, den = (_deformed_exp_mp(r, w, order, dps + 10) for w in (z, r * z))
        return num / den


# ---------------------------------------------------------------------------
# Second-order rate for drift >= 2
# ---------------------------------------------------------------------------


def nu_root(theta: float) -> RootResult:
    """First positive root of the meromorphic rate function for drift >= 2.

    L(z) = 1/a_1 + sum_{k>=2} (1 - z/l_1)/(a_k (1 - z/l_k)) with a_k the
    positive roots for parameter 1/theta and l_k = 2(1-1/theta) a_k; the
    root lies strictly between l_1 and l_2.  The series is truncated after
    12 roots; a_k grows like k theta^(k-1), so the k-th term falls off
    geometrically.
    """
    if theta < 2.0:
        raise DomainError("second-order rate requires drift >= 2")
    if 13 * Fraction(theta) ** 12 > sys.float_info.max:
        raise DomainError(f"drift {theta:g} is too large for nu: its 12th root, near 13 theta^12, has no float value")
    r = 1.0 / theta
    roots = [rr.value for rr in positive_roots(r, 12)]
    lams = [2.0 * (1.0 - r) * a for a in roots]
    a1, l1, l2 = roots[0], lams[0], lams[1]

    def L(z: float) -> float:
        acc = 1.0 / a1
        for a, l in zip(roots[1:], lams[1:]):
            acc += (1.0 - z / l1) / (a * (1.0 - z / l))
        return acc

    bracket = _bisect(L, l1 * (1.0 + 1e-9), l2 * (1.0 - 1e-9))
    if bracket is None:
        raise RootSearchError(f"no sign change of the rate function in ({l1}, {l2}) from 12 roots", roots)
    nu = 0.5 * (bracket[0] + bracket[1])
    return RootResult(nu, abs(L(nu)), (l1, l2))


def volterra_top_eigenvalue(theta: float, a: float = 1.0, b: float = 1.0) -> float:
    """Largest eigenvalue of the one-step survival operator on [-a, b] support.

    This is the geometric factor of p_n for asymmetric uniform innovations:
    b/((a+b)(1-theta) z_theta) for drift in [-1, a/(a+b)], and with z_{1/theta}
    in place of z_theta below -1.  Always strictly less than 1.
    """
    if a <= 0 or b <= 0:
        raise DomainError("support half-widths must be positive")
    if -1.0 <= theta <= a / (a + b) + 1e-12:
        z = first_negative_root(theta).value
    elif theta < -1.0:
        z = first_negative_root(1.0 / theta).value
    else:
        raise DomainError("no closed eigenvalue for drift above a/(a+b)")
    value = b / ((a + b) * (1.0 - theta) * z)
    if not 0.0 < value < 1.0:
        raise InvariantError(f"eigenvalue {value} escapes (0, 1)")
    return value


def rate_bundle(theta: float | Fraction) -> RateBundle:
    """Assembled rate data for any supported drift (CLI entry point)."""
    t = float_value(theta, "drift")
    if theta <= Fraction(1, 2):
        return decay_rate(theta)
    if theta <= 1:
        raise DomainError("no rate formula for drift in (1/2, 1]")
    if theta < 2:
        ell, _, _, _ = ell_with_tail(theta, 1e-8)
        return RateBundle(theta=t, z_root=float("nan"), ell=ell)
    res = nu_root(t)  # refuses a drift too large for its roots before any exact term is summed
    ell, _, _, _ = ell_with_tail(theta, 1e-12)
    zr = res.bracket[0] / (2.0 * (1.0 - 1.0 / t))  # recover a_1(1/theta)
    lm = ell_mp(theta, dps=50)
    p = persistence_prefix(30, Fraction(theta))
    kappa = None
    with mp.workdps(60):
        r20, r30 = [mp.mpf(p[n].numerator) / mp.mpf(p[n].denominator) - lm for n in (20, 30)]
        if r20 > 0 and r30 > 0:
            kappa = float((mp.log(r20) - mp.log(r30)) / 10)
    return RateBundle(theta=t, z_root=zr, ell=ell, nu=res.value, kappa_estimate=kappa)


# ---------------------------------------------------------------------------
# q-series for biexponential innovations
# ---------------------------------------------------------------------------


def qpochhammer(x, q: float, tol: float = 1e-14):
    """(x; q)_inf = prod_{n>=0} (1 - x q^n), truncated with a factor bound.

    Stops once the next factor differs from 1 by less than tol divided by
    the number of factors so far, keeping the multiplicative error below
    roughly tol.
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
        if abs(x) * qn < tol / (n + 1):
            break
        if n > 100000:
            raise RuntimeError("q-product did not converge")
    return acc


def qseries_biexp(theta: float, z, tol: float = 1e-12):
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
        num = qpochhammer(theta * z, q, tol) + qpochhammer(q * z, q, tol)
        den = qpochhammer(z, q, tol) + qpochhammer(theta * z, q, tol)
        return num / den
    q = theta**-2
    num = qpochhammer(z, q, tol) + qpochhammer(z / theta, q, tol)
    den = (1.0 - z) * (qpochhammer(z / theta, q, tol) + qpochhammer(z / theta**2, q, tol))
    return num / den


def qseries_biexp_coeffs(
    theta: float, nmax: int, tol: float = 1e-14, radius: float = 0.5, npoints: int = 128
) -> list[float]:
    """Taylor coefficients p_0..p_nmax of the q-product generating function.

    Extracted by averaging the product form over a circle of the given
    radius (the discrete Cauchy integral); with |coefficients| <= 1 the
    aliasing error is below radius^(npoints - nmax).
    """
    if nmax >= npoints // 2:
        raise DomainError("npoints must comfortably exceed nmax")
    samples = []
    for j in range(npoints):
        zj = radius * cmath.exp(2j * cmath.pi * j / npoints)
        samples.append(qseries_biexp(theta, zj, tol))
    out = []
    for n in range(nmax + 1):
        acc = 0.0 + 0.0j
        for j, s in enumerate(samples):
            acc += s * cmath.exp(-2j * cmath.pi * j * n / npoints)
        out.append((acc / npoints).real / radius**n)
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


# ---------------------------------------------------------------------------
# Compound-Poisson representation of complete-graph dichromatic polynomials
# ---------------------------------------------------------------------------


def tutte_poisson_pmf(t: float, theta: float, n: int, tol: float = 1e-12) -> float:
    """P[X(t) = n] = e^(-t mbar) T_n(t, theta)/n! for the jump process on N.

    Defined for drift theta in [-2, -1), where the total jump mass
    mbar = theta log E(theta+1, 1/theta) is finite (the positive series
    sum J_n(theta+1)/n! converges exactly when theta+1 < 0).
    """
    if not -2.0 <= theta < -1.0:
        raise DomainError("finite jump mass requires theta in [-2, -1)")
    if t < 0:
        raise DomainError("time must be nonnegative")
    if n < 0:
        raise DomainError("count must be nonnegative")
    x = theta + 1.0
    mbar = theta * math.log(deformed_exp(x, 1.0 / theta, tol))
    if n == 0:
        return math.exp(-t * mbar)
    jv = scalar_j(x, 1, None, n)  # x in [-1, 0): stable in floats
    s = [0.0] + [t * jv[k] / factorial(k) for k in range(1, n + 1)]
    e = [1.0]
    for m in range(1, n + 1):
        acc = 0.0
        for k in range(1, m + 1):
            acc += k * s[k] * e[m - k]
        e.append(acc / m)
    return math.exp(-t * mbar) * e[n]


def tutte_poisson_mgf_limit(t: float, z: float) -> float:
    """E[z^X(t)] at the boundary drift -2: ((1 - sin 1)/(1 - sin z))^t."""
    return ((1.0 - math.sin(1.0)) / (1.0 - math.sin(z))) ** t


# ---------------------------------------------------------------------------
# Log-convexity (infinite-divisibility diagnostics)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogConvexityVerdict:
    holds: bool
    first_violation: int | None


def log_convexity_check(seq) -> LogConvexityVerdict:
    """Check x_{n+1} x_{n-1} >= x_n^2 at every interior index.

    Exact when the entries are rationals; positive entries required.
    """
    items = list(seq)
    if any(x <= 0 for x in items):
        raise DomainError("log-convexity check needs positive entries")
    for n in range(1, len(items) - 1):
        if items[n + 1] * items[n - 1] < items[n] * items[n]:
            return LogConvexityVerdict(False, n)
    return LogConvexityVerdict(True, None)
