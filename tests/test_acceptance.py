"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` for the one-line-per-criterion
report; `-s` additionally shows the measured quantities.  Every tolerance is
pinned here, none are calibrated elsewhere.

All Monte Carlo work uses the fixed seed below, so the whole suite is
deterministic and reruns are bit-identical.
"""

import math
import time
from fractions import Fraction as F
from math import comb, factorial

import mpmath as mp
import pytest

from ar1lab import asymptotics as asym
from ar1lab import families as fam
from ar1lab import identities
from ar1lab import montecarlo as mc
from ar1lab import persistence as pers
from ar1lab.exact.polynomial import Polynomial

SEED = 20250810

PRINTED_TABLES = {
    "J": {
        1: (1,),
        2: (1,),
        3: (2, 1),
        4: (6, 6, 3, 1),
        5: (24, 36, 30, 20, 10, 4, 1),
        6: (120, 240, 270, 240, 180, 120, 70, 35, 15, 5, 1),
    },
    "Jt": {
        2: (1,),
        3: (0, -1),
        4: (0, 0, 3, 1),
        5: (0, 0, 0, -12, -10, -4, -1),
        6: (0, 0, 0, 0, 60, 80, 60, 35, 15, 5, 1),
    },
    "Jh": {
        2: (1,),
        3: (4, -1),
        4: (24, -6, -3, -1),
        5: (192, -48, -24, -20, -10, -4, -1),
        6: (1920, -480, -240, -200, -160, -120, -70, -35, -15, -5, -1),
    },
}


def test_c01_polynomial_tables():
    start = time.perf_counter()
    getters = {"J": fam.mallows_riordan, "Jt": fam.j_tilde, "Jh": fam.j_hat}
    for family, table in PRINTED_TABLES.items():
        for n, coeffs in table.items():
            assert getters[family](n) == Polynomial(coeffs), f"{family}_{n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 01 PASS: printed tables exact, {elapsed:.3f}s")


def test_c02_specializations():
    start = time.perf_counter()
    for n in range(16):
        assert fam.mallows_riordan(n + 1)(F(0)) == factorial(n)
    for n in range(1, 13):
        assert fam.mallows_riordan(n)(F(1)) == F(n) ** (n - 2)
    for n in range(13):
        a = fam.zigzag(n)
        assert fam.mallows_riordan(n + 1)(F(-1)) == a
        assert fam.j_tilde(n + 1)(F(-1)) == a
    for n in range(1, 11):
        assert (-1) ** (n - 1) * fam.j_tilde(n + 1)(F(1)) == F(n - 1) ** (n - 1)
    for n in range(1, 13):
        assert fam.j_hat(n + 1)(F(0)) == 2 ** (n - 1) * factorial(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 02 PASS: specializations exact, {elapsed:.3f}s")


def test_c03_route_agreement():
    assert fam.route_disagreement(10) is None
    assert fam.gessel_identity_holds(10)
    print("ACCEPTANCE 03 PASS: all routes coefficientwise identical, order 10 ratio verified")


def test_c04_oracle_vs_closed_forms():
    start = time.perf_counter()
    thetas = [F(-3), F(-2), F(-1), F(-1, 2), F(0), F(1, 3), F(1, 2), F(2), F(5, 2), F(3)]
    for th in thetas:
        masses = pers.oracle_masses(pers.PersistenceQuery(10, th))
        for n in range(11):
            assert masses[n] == pers.persistence_closed_form(
                pers.PersistenceQuery(n, th)
            ), f"theta={th}, n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 04 PASS: oracle equals closed forms, 10 drifts, n<=10, {elapsed:.1f}s")


def test_c05_fibonacci_window():
    th = F(4, 5)
    assert pers.oracle_masses(pers.PersistenceQuery(3, th))[-1] == (
        th + F(11, 6) - 1 / (2 * th**2) + 1 / (6 * th**3)
    ) / 8
    th = F(6, 5)
    assert pers.oracle_masses(pers.PersistenceQuery(3, th))[-1] == (
        -1 / th + F(19, 6) + th**2 / 2 - th**3 / 6
    ) / 8
    lower = F(1) + F(11, 6) - F(1, 2) + F(1, 6)
    upper = -F(1) + F(19, 6) + F(1, 2) - F(1, 6)
    sparre = 8 * pers.oracle_masses(pers.PersistenceQuery(3, F(1)))[-1]
    assert lower == upper == sparre == F(5, 2)
    print("ACCEPTANCE 05 PASS: window formulas exact at 4/5 and 6/5, both 5/2 at drift 1")


def test_c06_sparre_andersen():
    for n in range(9):
        assert pers.oracle_masses(pers.PersistenceQuery(n, F(1)))[-1] == F(comb(2 * n, n), 4**n)
    print("ACCEPTANCE 06 PASS: central binomial law exact, n<=8")


def test_c07_duality_exact():
    for th in (F(-3), F(-3, 2), F(-1), F(3, 2), F(2), F(3)):
        assert pers.duality_residuals(8, th) == [0] * 9
    print("ACCEPTANCE 07 PASS: alternating and plain factorizations exactly zero residual, n<=8")


def test_c08_duality_statistical():
    start = time.perf_counter()
    worst = 0.0
    for theta in (-1.7, 2.5):
        for law in (mc.InnovationLaw("gaussian"), mc.InnovationLaw("biexponential")):
            report = mc.mc_identity_check(theta, law, 6, 10**6, SEED)
            worst = max(worst, report.max_abs_z)
            assert report.passed, (theta, law.kind, report.z_scores)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 08 PASS: 4 law/drift combos within 4 sigma (worst |z|={worst:.2f}), {elapsed:.1f}s")


def test_c09_phase_transition():
    for n in range(2, 13):
        bd = fam.boundary_derivatives(n)
        assert bd.left_p1 == bd.right_p1, f"n={n}"
        assert bd.left_p2 - bd.right_p2 == F(fam.zigzag(n - 2), 2**n * factorial(n - 2)), f"n={n}"
        d = fam.mallows_riordan(n + 1).derivative()(F(-1))
        assert d == F(n, 2) * fam.zigzag(n), f"n={n}"
    print("ACCEPTANCE 09 PASS: first derivative continuous, second-derivative jump law, 2<=n<=12")


def test_c10_rates():
    r_neg1 = asym.first_negative_root(-1.0)
    r_zero = asym.first_negative_root(0.0)
    assert abs(r_neg1.value - math.pi / 4) < 1e-12
    assert abs(r_zero.value - 1.0) < 1e-12
    worst = 0.0
    for th in (F(-1), F(0), F(1, 4), F(1, 2)):
        bundle = asym.decay_rate(float(th))
        p30 = float(pers.persistence_exact(30, th))
        ratio = p30 * bundle.z_root * bundle.lam**30
        worst = max(worst, abs(ratio - 1))
        assert abs(ratio - 1) < 0.02, f"theta={th}"
    for th in (-1.0, -0.5, -0.1):
        assert asym.decay_rate(th).lam > 2.0
    for th in (0.1, 0.3, 0.45):
        assert asym.decay_rate(th).lam < 2.0
    mu = asym.decay_rate(-2.0).mu
    vals = [float(pers.persistence_exact(n, F(-2))) * mu**n for n in range(25, 31)]
    drift = max(vals) / min(vals) - 1
    assert drift < 0.01
    print(
        f"ACCEPTANCE 10 PASS: z roots to 1e-12, ratio gap {worst:.2e} at n=30, "
        f"rate splits at 2, mu stabilization drift {drift:.2e}"
    )


def test_c11a_limit_expansion_agreement():
    """Summation route vs the inverse-drift expansion at drift 4, within 1e-8.

    The expansion is taken through order 14.  The ten printed coefficients
    stop at order 9, and there the omitted tail sum_{k>=10} a_k 4^-k is
    ~ -4.5e-8: the exactly derived a_10..a_14 are all about -0.035 to -0.040.
    That derived tail accounts for the order-9 gap to within 5e-11, which is
    asserted here within 1e-10; through order 14 the remaining tail is ~5e-11.
    """
    ell = asym.ell_with_tail(4.0, 1e-12)[0]
    terms = [float(c) / 4.0**k for k, c in enumerate(fam.ell_expansion_coefficients(14))]
    diff = abs(ell - sum(terms))
    gap9 = ell - sum(terms[:10])
    tail = sum(terms[10:])
    print(
        f"ACCEPTANCE 11a: |diff| through order 14 = {diff:.3e} vs stated 1e-8; "
        f"order-9 gap {gap9:.3e}, derived tail a_10..a_14 {tail:.3e}"
    )
    assert diff < 1e-8, (
        f"summation route and order-14 expansion differ by {diff:.3e} at drift 4"
    )
    assert abs(gap9 - tail) < 1e-10, (
        f"order-9 gap {gap9:.3e} is not explained by the derived tail {tail:.3e}"
    )


def test_c11b_nu_rate_stabilization():
    ell = asym.ell_mp(F(4), dps=60)
    nu = asym.rate_bundle(F(4)).nu
    with mp.workdps(70):
        vals = []
        for n in range(20, 31):
            p = pers.persistence_exact(n, F(4))
            gap = mp.mpf(p.numerator) / mp.mpf(p.denominator) - ell
            vals.append(float(gap * mp.mpf(nu) ** n))
    assert all(v > 0 for v in vals)
    drift = max(vals) / min(vals) - 1
    assert drift < 0.02
    print(f"ACCEPTANCE 11b PASS: gap times nu^n stabilizes to {vals[-1]:.6f}, drift {drift:.2e}")


def test_c12_hitting_and_ladder():
    for th in (F(2), F(3)):
        for n in range(1, 11):
            direct = F((-1) ** (n - 1)) * fam.scalar_families(1 / th).j_tilde(n + 1) / (
                2**n * factorial(n)
            )
            p = pers.persistence_prefix(n, th)
            assert p[n - 1] - p[n] == direct
    for theta in (2.0, 3.0):
        ell1, s1, tail1, n1 = asym.ell_with_tail(theta, 1e-8)
        _, s2, tail2, _ = asym.ell_with_tail(theta, 1e-13)
        # the deeper partial sum must land within the first tail bound
        assert abs(ell1 * float(s2) - 1.0) <= ell1 * tail1 * 1.05 + 10 * tail2
    print("ACCEPTANCE 12 PASS: hitting law exact for drifts 2 and 3, ladder identity within tail bound")


def _battery_checks():
    """About thirty Monte Carlo estimates, each with an exact target."""
    unif = mc.InnovationLaw("uniform")
    checks = []
    for th in (0.0, 1 / 3, 0.5, -1.0, -2.0, 0.8, 1.2, 1.0, 2.5):
        for n in (4, 6):
            checks.append(("uniform", th, unif, n))
    for th, n in ((1.0, 4), (1.0, 6), (0.0, 5)):
        checks.append(("gaussian", th, mc.InnovationLaw("gaussian"), n))
    for th, n in ((-1.0, 4), (-0.5, 3), (0.0, 5), (1.0, 6), (0.5, 4), (2.5, 3)):
        checks.append(("biexponential", th, mc.InnovationLaw("biexponential"), n))
    return checks


def test_c13_volumes():
    for n in range(1, 11):
        target = Polynomial((-1, 1)) ** n * fam.mallows_riordan(n + 1) / factorial(n)
        assert fam.nested_volume(n) == target
    misses = 0
    volume_specs = [
        (mc.PolytopeSpec("zigzag", 4), F(5, 24)),
        (mc.PolytopeSpec("cayley", 3), F(38, 6)),
        (mc.PolytopeSpec("tutte_q", 3, q=F(1, 2), t=F(1)), None),
    ]
    for spec, stated in volume_specs:
        target = mc.polytope_exact_target(spec)
        if stated is not None:
            assert target == stated
        est = mc.polytope_volume_mc(spec, 10**6, SEED)
        in_ci = est.ci_low <= float(target) <= est.ci_high
        assert in_ci, f"{spec.kind}: {est.point} vs {float(target)}"
        misses += 0 if in_ci else 1
    for i, (name, th, law, n) in enumerate(_battery_checks()):
        est = mc.estimate_persistence(th, law, n, 200000, SEED, stream=128 + i)
        target = mc.exact_persistence_target(th, law, n)
        assert target is not None, (name, th, n)
        if not est.contains(target):
            misses += 1
    assert misses <= 2, f"{misses} of 30 Monte Carlo checks fell outside their intervals"
    print(f"ACCEPTANCE 13 PASS: volume identity exact, 3 volumes in CI, {misses}/30 interval misses")


def test_c14_infinite_divisibility():
    for th in (F(0), F(1, 4), F(1, 2), F(1)):
        p = pers.persistence_prefix(21, th)
        pmf = [p[n] - p[n + 1] for n in range(21)]
        assert identities.log_convexity_check(pmf) is None, f"theta={th}"
    seq = [pers.persistence_exact(n, F(-2)) for n in range(21)]
    violation = identities.log_convexity_check(seq)
    assert violation is not None
    print(
        f"ACCEPTANCE 14 PASS: log-convexity exact on [0,1], violation witness at "
        f"index {violation} for drift -2"
    )


def test_c15_qseries():
    coeffs = asym.qseries_biexp_coeffs(0.5, 8)
    worst = 0.0
    for n in range(1, 7):
        est = mc.estimate_persistence(0.5, mc.InnovationLaw("biexponential"), n, 250000, SEED, stream=300 + n)
        sigma = math.sqrt(max(est.point * (1 - est.point), 1e-9) / est.trials)
        z = (est.point - coeffs[n]) / sigma
        worst = max(worst, abs(z))
        assert abs(z) <= 4.0, f"n={n}: z={z}"
    a = asym.qseries_biexp_coeffs(0.4, 8)
    b = asym.qseries_biexp_coeffs(2.5, 8)
    worst_conv = 0.0
    for n in range(9):
        conv = sum(a[k] * b[n - k] for k in range(n + 1))
        worst_conv = max(worst_conv, abs(conv - 1.0))
    assert worst_conv < 1e-7
    print(f"ACCEPTANCE 15 PASS: coefficients within 4 sigma (worst {worst:.2f}), convolution gap {worst_conv:.1e}")


def test_c16_asymmetric_uniform():
    for a, b in ((F(2), F(1)), (F(1), F(3))):
        for th in (F(-2), F(-1), F(1, 4)):
            masses = pers.oracle_masses(pers.PersistenceQuery(8, th, a, b))
            for n in range(9):
                cf = pers.persistence_closed_form(pers.PersistenceQuery(n, th, a, b))
                assert cf == masses[n], f"(a,b)=({a},{b}), theta={th}, n={n}"
    print("ACCEPTANCE 16 PASS: asymmetric-support closed forms equal the oracle, n<=8")


def test_c17_figure_and_runtime(capsys):
    from ar1lab.cli import main

    rc = main(["figure", "--n", "4", "5", "--grid", "1/4"])
    out = capsys.readouterr().out
    assert rc == 0
    import csv
    import io

    body = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = {r["theta"]: r for r in csv.DictReader(body)}
    assert rows["-5"] is not None and rows["5"] is not None
    assert rows["0"]["p_4"] == "1/16" and rows["0"]["p_5"] == "1/32"
    assert rows["-1"]["p_4"] == "5/384" and rows["-1"]["p_5"] == "1/240"
    assert rows["1"]["p_4"] == "35/128" and rows["1"]["p_5"] == "63/256"
    start = time.perf_counter()
    results = identities.run_all(8)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]
    assert elapsed < 300.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 17 PASS: figure grid matches exact references, "
            f"verify suite {len(results)} families in {elapsed:.1f}s"
        )
