"""Named exact-identity checks, the backbone of the `verify` CLI command.

Every check is exact rational arithmetic (no tolerances) and returns
(passed, detail).  ``ALL_CHECKS`` names each check and sets its depth from
the requested one; ``run_all`` turns each answer into a CheckResult, and the
CLI prints one line per family and exits nonzero if any family fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from ar1lab import families as fam
from ar1lab import persistence as pers
from ar1lab.errors import DomainError
from ar1lab.exact.polynomial import Polynomial


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# printed reference tables
_J_TABLE = {
    1: (1,),
    2: (1,),
    3: (2, 1),
    4: (6, 6, 3, 1),
    5: (24, 36, 30, 20, 10, 4, 1),
    6: (120, 240, 270, 240, 180, 120, 70, 35, 15, 5, 1),
}
_JT_TABLE = {
    2: (1,),
    3: (0, -1),
    4: (0, 0, 3, 1),
    5: (0, 0, 0, -12, -10, -4, -1),
    6: (0, 0, 0, 0, 60, 80, 60, 35, 15, 5, 1),
}
_JH_TABLE = {
    2: (1,),
    3: (4, -1),
    4: (24, -6, -3, -1),
    5: (192, -48, -24, -20, -10, -4, -1),
    6: (1920, -480, -240, -200, -160, -120, -70, -35, -15, -5, -1),
}


def check_printed_tables() -> tuple[bool, str]:
    bad = []
    for n, coeffs in _J_TABLE.items():
        if fam.mallows_riordan(n) != Polynomial(coeffs):
            bad.append(f"J_{n}")
    for n, coeffs in _JT_TABLE.items():
        if fam.j_tilde(n) != Polynomial(coeffs):
            bad.append(f"J~_{n}")
    for n, coeffs in _JH_TABLE.items():
        if fam.j_hat(n) != Polynomial(coeffs):
            bad.append(f"J^_{n}")
    return not bad, ",".join(bad) or "J_1..J_6, J~_2..J~_6, J^_2..J^_6"


def check_specializations(nmax: int) -> tuple[bool, str]:
    issues = []
    for n in range(nmax + 1):
        if fam.mallows_riordan(n + 1)(Fraction(0)) != factorial(n):
            issues.append(f"J_{n+1}(0)")
    for n in range(1, min(nmax, 12) + 1):
        if fam.mallows_riordan(n)(Fraction(1)) != Fraction(n) ** (n - 2):
            issues.append(f"J_{n}(1)")
    for n in range(min(nmax, 12) + 1):
        a = fam.zigzag(n)
        if fam.mallows_riordan(n + 1)(Fraction(-1)) != a:
            issues.append(f"J_{n+1}(-1)")
        if fam.j_tilde(n + 1)(Fraction(-1)) != a:
            issues.append(f"J~_{n+1}(-1)")
    for n in range(1, min(nmax, 10) + 1):
        if (-1) ** (n - 1) * fam.j_tilde(n + 1)(Fraction(1)) != Fraction(n - 1) ** (n - 1):
            issues.append(f"J~_{n+1}(1)")
    for n in range(1, min(nmax, 12) + 1):
        if fam.j_hat(n + 1)(Fraction(0)) != 2 ** (n - 1) * factorial(n):
            issues.append(f"J^_{n+1}(0)")
    return not issues, ",".join(issues) or f"exact through n={nmax}"


def check_route_agreement(nmax: int) -> tuple[bool, str]:
    disagreement = fam.route_disagreement(nmax)
    return disagreement is None, disagreement or f"3 families x independent routes, n<={nmax}"


def check_gessel(order: int) -> tuple[bool, str]:
    return fam.gessel_identity_holds(order), f"order {order}"


def check_kreweras(nmax: int) -> tuple[bool, str]:
    return fam.kreweras_recurrence_holds(nmax), f"n<={nmax}"


def check_zigzag_alternation(nmax: int) -> tuple[bool, str]:
    bad = [n for n in range(1, nmax + 1) if fam.zigzag_alternating_convolution(n) != 0]
    return not bad, str(bad) if bad else f"n<={nmax}"


def check_structure(nmax: int) -> tuple[bool, str]:
    issues = []
    for n in range(1, nmax + 1):
        if not fam.check_structure_j(n):
            issues.append(f"J_{n+1}")
        if not fam.check_structure_jt(n):
            issues.append(f"J~_{n+1}")
        if not fam.check_structure_jh(n):
            issues.append(f"J^_{n+1}")
    for n in range(2, nmax + 1):
        c = fam.c_polynomial(n)
        if c.coefficient(0) != Fraction(factorial(n), 2) or c.coeffs[-1] != 1:
            issues.append(f"C_{n}")
        if any(x <= 0 for x in c.coeffs):
            issues.append(f"C_{n} sign")
    return not issues, ",".join(issues) or f"degrees/valuations/signs n<={nmax}"


def check_nested_volume(nmax: int) -> tuple[bool, str]:
    for n in range(1, nmax + 1):
        target = Polynomial((-1, 1)) ** n * fam.mallows_riordan(n + 1) * Fraction(1, factorial(n))
        if fam.nested_volume(n) != target:
            return False, f"n={n}"
    return True, f"coefficientwise n<={nmax}"


def check_tutte_diagonal(nmax: int) -> tuple[bool, str]:
    if fam.tutte_complete(1) != [Polynomial.zero(), Polynomial.one()]:
        return False, "T_1 != x"
    for n in range(1, nmax + 1):
        for th in (Fraction(2), Fraction(-1), Fraction(3, 2)):
            if fam.tutte_modified_eval(n, Fraction(1), th) != fam.mallows_riordan(n)(th):
                return False, f"n={n}, theta={th}"
    if fam.tutte_modified_eval(4, Fraction(1), Fraction(2)) != 38:
        return False, "connected 4-vertex graph count"
    return True, f"T_K(1,theta)=J, n<={nmax}"


def _oracle_vs_closed_forms(cases, nmax: int, detail: str) -> tuple[bool, str]:
    """Each (theta, a, b) case's oracle masses p_0..p_nmax against its closed forms."""
    for th, a, b in cases:
        masses = pers.oracle_masses(pers.PersistenceQuery(nmax, th, a, b))
        for n in range(nmax + 1):
            if pers.persistence_closed_form(pers.PersistenceQuery(n, th, a, b)) != masses[n]:
                support = "" if a == b == 1 else f"(a,b)=({a},{b}), "
                return False, f"{support}theta={th}, n={n}"
    return True, detail


def check_oracle_vs_closed_form(nmax: int) -> tuple[bool, str]:
    thetas = [Fraction(-3), Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
              Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
    return _oracle_vs_closed_forms([(th, 1, 1) for th in thetas], nmax, f"{len(thetas)} drifts, n<={nmax}")


def check_fibonacci_window() -> tuple[bool, str]:
    th = Fraction(4, 5)
    lhs = pers.oracle_masses(pers.PersistenceQuery(3, th))[-1]
    rhs = (th + Fraction(11, 6) - 1 / (2 * th**2) + 1 / (6 * th**3)) / 8
    if lhs != rhs:
        return False, "lower window formula at 4/5"
    th = Fraction(6, 5)
    lhs = pers.oracle_masses(pers.PersistenceQuery(3, th))[-1]
    rhs = (-1 / th + Fraction(19, 6) + th**2 / 2 - th**3 / 6) / 8
    if lhs != rhs:
        return False, "upper window formula at 6/5"
    one = Fraction(1)
    val_lo = (one + Fraction(11, 6) - Fraction(1, 2) + Fraction(1, 6))
    val_hi = (-one + Fraction(19, 6) + Fraction(1, 2) - Fraction(1, 6))
    sparre = 8 * pers.oracle_masses(pers.PersistenceQuery(3, one))[-1]
    ok = val_lo == val_hi == Fraction(5, 2) == sparre
    return ok, "printed n=3 formulas, continuity at drift 1"


def check_sparre_andersen(nmax: int) -> tuple[bool, str]:
    masses = pers.oracle_masses(pers.PersistenceQuery(nmax, Fraction(1)))
    for n, mass in enumerate(masses):
        if mass != Fraction(comb(2 * n, n), 4**n):
            return False, f"n={n}"
    return True, f"central binomials n<={nmax}"


def _duality(drifts: tuple[Fraction, ...], nmax: int) -> tuple[bool, str]:
    for th in drifts:
        for n, residual in enumerate(pers.duality_residuals(nmax, th)):
            if residual != 0:
                return False, f"theta={th}, n={n}"
    return True, f"{len(drifts)} drifts, n<={nmax}"


def check_duality_alternating(nmax: int) -> tuple[bool, str]:
    return _duality((Fraction(-3), Fraction(-3, 2), Fraction(-1)), nmax)


def check_duality_positive(nmax: int) -> tuple[bool, str]:
    return _duality((Fraction(3, 2), Fraction(2), Fraction(3)), nmax)


def check_phase_transition(nmax: int) -> tuple[bool, str]:
    for n in range(2, nmax + 1):
        bd = fam.boundary_derivatives(n)
        if bd.left_p1 != bd.right_p1:
            return False, f"first derivative splits at n={n}"
        jump = Fraction(fam.zigzag(n - 2), 2**n * factorial(n - 2))
        if bd.left_p2 - bd.right_p2 != jump:
            return False, f"second-derivative jump at n={n}"
    for n in range(0, nmax + 1):
        d = fam.mallows_riordan(n + 1).derivative()(Fraction(-1))
        expected = Fraction(0) if n < 2 else Fraction(n, 2) * fam.zigzag(n)
        if d != expected:
            return False, f"derivative identity at n={n}"
        dt = fam.j_tilde(n + 1).derivative()(Fraction(-1))
        if dt != -d:
            return False, f"mirror derivative at n={n}"
    return True, f"C1 matching + jump law, n<={nmax}"


def check_hitting_law(nmax: int) -> tuple[bool, str]:
    # P[T = n] = p_{n-1} - p_n against (-1)^(n-1) J~_{n+1}(1/theta) / (2^n n!)
    for th in (Fraction(2), Fraction(3)):
        p = pers.persistence_prefix(nmax, th)
        j_tilde = fam.scalar_families(1 / th).j_tilde
        for n in range(1, nmax + 1):
            if p[n - 1] - p[n] != Fraction((-1) ** (n - 1)) * j_tilde(n + 1) / (2**n * factorial(n)):
                return False, f"closed form at n={n}, theta={th}"
    p = pers.persistence_prefix(3, Fraction(3))
    if p[2] - p[3] != Fraction(5, 648):
        return False, "reference value at drift 3"
    for th in (Fraction(0), Fraction(-2), Fraction(3)):
        total = Fraction(0)
        for n in range(1, nmax + 1):
            p = pers.persistence_prefix(n, th)  # P[T = n] from the prefix to horizon n
            total += p[n - 1] - p[n]
        if total + pers.persistence_exact(nmax, th) != 1:
            return False, f"telescoping at theta={th}"
    return True, f"closed form + telescoping, n<={nmax}"


def check_asymmetric_uniform(nmax: int) -> tuple[bool, str]:
    cases = [(th, a, b) for a, b in ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)))
             for th in (Fraction(-2), Fraction(-1), Fraction(1, 4))]
    return _oracle_vs_closed_forms(cases, nmax, f"two supports, three drifts, n<={nmax}")


def check_coefficient_stability(nmax: int) -> tuple[bool, str]:
    # leading coefficients of p_n as a polynomial in the inverse drift do not
    # depend on n once n >= k+1
    kmax = 4
    for k in range(kmax + 1):
        ref = None
        for n in range(k + 1, nmax + 1):
            poly = fam.j_hat(n + 1)
            coeffs = tuple(
                poly.coefficient(i) * Fraction(1, 2**n * factorial(n)) for i in range(k + 1)
            )
            if ref is None:
                ref = coeffs
            elif coeffs != ref:
                return False, f"k={k}, n={n}"
    derived = fam.ell_expansion_coefficients(9)
    if derived != list(fam.ELL_EXPANSION_COEFFS):
        return False, "limit expansion coefficients"
    return True, f"k<={kmax}, n<={nmax}, + limit expansion"


def check_monotonicity(nmax: int) -> tuple[bool, str]:
    grid = [Fraction(k, 4) for k in range(-12, 13)]
    prefixes = [pers.persistence_prefix(nmax, th) for th in grid]
    for n in range(nmax + 1):
        values = [p[n] for p in prefixes]
        if any(x > y for x, y in zip(values, values[1:])):
            return False, f"drift monotonicity at n={n}"
    for th in (Fraction(-2), Fraction(0), Fraction(4, 5), Fraction(3)):
        values = pers.persistence_prefix(nmax, th)
        if any(x < y for x, y in zip(values, values[1:])):
            return False, f"horizon monotonicity at theta={th}"
    jgrid = [Fraction(k, 4) for k in range(-4, 13)]
    for n in range(1, min(nmax, 12) + 1):
        vals = [fam.mallows_riordan(n)(t) for t in jgrid]
        if any(v <= 0 for v in vals) or any(x > y for x, y in zip(vals, vals[1:])):
            return False, f"J_{n} positivity/growth"
    return True, "drift and horizon monotonicity on rational grids"


def check_super_sub_additivity(nmax: int) -> tuple[bool, str]:
    for th in (Fraction(1, 3), Fraction(4, 5), Fraction(2)):
        p = pers.persistence_prefix(nmax, th)
        for n in range(1, nmax):
            for m in range(1, nmax - n + 1):
                if p[n + m] < p[n] * p[m]:
                    return False, f"super at theta={th}"
    for th in (Fraction(-1, 2), Fraction(-2)):
        p = pers.persistence_prefix(nmax, th)
        for n in range(1, nmax):
            for m in range(1, nmax - n + 1):
                if p[n + m] > p[n] * p[m]:
                    return False, f"sub at theta={th}"
    return True, "positive/negative drift grids"


def log_convexity_check(seq) -> int | None:
    """The first interior index n with x_{n+1} x_{n-1} < x_n^2, or None when
    the sequence is log-convex.

    Exact when the entries are rationals; positive entries required.
    """
    items = list(seq)
    if any(x <= 0 for x in items):
        raise DomainError("log-convexity check needs positive entries")
    for n in range(1, len(items) - 1):
        if items[n + 1] * items[n - 1] < items[n] * items[n]:
            return n
    return None


def check_log_convexity(nmax: int) -> tuple[bool, str]:
    for th in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        p = pers.persistence_prefix(nmax + 1, th)
        pmf = [p[n] - p[n + 1] for n in range(nmax + 1)]
        if log_convexity_check(pmf) is not None:
            return False, f"holds-case failed at theta={th}"
    violation = log_convexity_check(pers.persistence_prefix(nmax, Fraction(-2)))
    if violation is None:
        return False, "no violation found at drift -2"
    return True, f"holds on [0,1], witness at index {violation} for drift -2"


def check_bounded_mass(nmax: int) -> tuple[bool, str]:
    for th in (Fraction(-2), Fraction(4, 5), Fraction(3)):
        masses = pers.oracle_masses(pers.PersistenceQuery(nmax, th))
        if any(not 0 <= m <= 1 for m in masses) or any(x < y for x, y in zip(masses, masses[1:])):
            return False, f"theta={th}"
    return True, "oracle masses stay in [0,1] and shrink"


ALL_CHECKS: list[tuple[str, Callable[[int], tuple[bool, str]]]] = [
    ("printed-tables", lambda nmax: check_printed_tables()),
    ("specializations", lambda nmax: check_specializations(max(nmax, 15))),
    ("route-agreement", lambda nmax: check_route_agreement(max(nmax, 10))),
    ("gessel-ratio", lambda nmax: check_gessel(max(nmax, 10))),
    ("kreweras-recurrence", lambda nmax: check_kreweras(max(nmax, 10))),
    ("zigzag-alternation", lambda nmax: check_zigzag_alternation(12)),
    ("family-structure", lambda nmax: check_structure(12)),
    ("nested-volume", lambda nmax: check_nested_volume(max(nmax, 10))),
    ("tutte-diagonal", lambda nmax: check_tutte_diagonal(min(nmax, 8))),
    ("oracle-vs-closed-form", check_oracle_vs_closed_form),
    ("fibonacci-window", lambda nmax: check_fibonacci_window()),
    ("sparre-andersen", lambda nmax: check_sparre_andersen(max(nmax, 8))),
    ("duality-alternating", check_duality_alternating),
    ("duality-positive", check_duality_positive),
    ("phase-transition", lambda nmax: check_phase_transition(12)),
    ("hitting-law", lambda nmax: check_hitting_law(max(nmax, 10))),
    ("asymmetric-uniform", check_asymmetric_uniform),
    ("coefficient-stability", lambda nmax: check_coefficient_stability(max(nmax, 10))),
    ("monotonicity", check_monotonicity),
    ("super-sub-additivity", check_super_sub_additivity),
    ("log-convexity", lambda nmax: check_log_convexity(20)),
    ("bounded-mass", check_bounded_mass),
]


def run_all(nmax: int) -> list[CheckResult]:
    """Every check in ``ALL_CHECKS`` order, each at its depth for ``nmax``,
    inside one ``persistence.reuse_scope``: a query that several checks ask
    for is computed once per run."""
    with pers.reuse_scope():
        return [CheckResult(name, *run(nmax)) for name, run in ALL_CHECKS]
