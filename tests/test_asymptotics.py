"""Floating-point layer: deformed exponential, roots, rates, q-series."""

import math
from fractions import Fraction as F
from math import comb, factorial

import pytest

from ar1lab.errors import DomainError
from ar1lab import asymptotics as asym
from ar1lab.families import mallows_riordan, scalar_families
from ar1lab.persistence import persistence_exact, persistence_prefix


class TestDeformedExp:
    def test_alternating_collapse(self):
        z = math.pi / 4
        assert asym.deformed_exp(-1.0, z) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_linear_collapse(self):
        assert asym.deformed_exp(0.0, 3.0) == 4.0

    def test_exponential_collapse(self):
        assert asym.deformed_exp(1.0, 1.0) == pytest.approx(math.e, abs=1e-12)

    def test_divergence_guard(self):
        with pytest.raises(DomainError):
            asym.deformed_exp(1.5, 1.0)
        with pytest.raises(DomainError):
            asym.deformed_exp(0.5, 1.0, tol=0.0)

    def test_large_argument_cancellation_handled(self):
        # values at arguments far past the first roots stay finite and small
        val = asym.deformed_exp(0.3, -1000.0, tol=1e-10)
        assert math.isfinite(val)

    def test_derivative_identity(self):
        # d/dz E(th, z) = E(th, th z), via a central difference
        th, z, h = 0.4, 1.3, 1e-6
        fd = (asym.deformed_exp(th, z + h) - asym.deformed_exp(th, z - h)) / (2 * h)
        assert fd == pytest.approx(asym.deformed_exp(th, th * z), rel=1e-8)


class TestFirstNegativeRoot:
    def test_quarter_pi(self):
        r = asym.first_negative_root(-1.0)
        assert abs(r.value - math.pi / 4) < 1e-12
        assert r.residual <= 1e-10

    def test_unity(self):
        r = asym.first_negative_root(0.0)
        assert abs(r.value - 1.0) < 1e-14

    def test_bracket_straddles(self):
        r = asym.first_negative_root(0.25)
        lo, hi = r.bracket
        assert lo <= r.value <= hi or abs(r.value - lo) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            asym.first_negative_root(1.0)

    def test_rate_consistency_quarter(self):
        # p_n z lam^n -> 1 using exact persistence values
        bundle = asym.decay_rate(0.25)
        p30 = float(persistence_exact(30, F(1, 4)))
        assert abs(p30 * bundle.z_root * bundle.lam**30 - 1) < 0.02


class TestPositiveRoots:
    @pytest.mark.parametrize("theta", [0.1, 0.25, 0.4])
    def test_first_root_consistency(self, theta):
        ladder = asym.positive_roots(theta, 3)
        single = asym.first_negative_root(theta)
        assert ladder[0].value == pytest.approx(single.value, rel=1e-10)

    def test_reciprocal_sum_is_one(self):
        roots = asym.positive_roots(0.3, 12)
        assert sum(1.0 / r.value for r in roots) == pytest.approx(1.0, abs=1e-6)

    def test_series_representation_order_three(self):
        roots = asym.positive_roots(0.3, 12)
        target = float(mallows_riordan(4)(F(3, 10))) / 6
        total = sum(1.0 / (0.7**3 * r.value**4) for r in roots)
        assert abs(total - target) < 1e-8

    def test_increasing(self):
        roots = asym.positive_roots(0.25, 6)
        vals = [r.value for r in roots]
        assert vals == sorted(vals)

    def test_domain(self):
        with pytest.raises(DomainError):
            asym.positive_roots(-0.2, 3)


class TestEvaluationCounts:
    """Upper bounds on deformed_exp evaluations, so a scan change adds none."""

    @staticmethod
    def counting(monkeypatch):
        calls = []
        original = asym.deformed_exp

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(asym, "deformed_exp", counted)
        return calls

    def test_positive_root_ladder(self, monkeypatch):
        calls = self.counting(monkeypatch)
        asym.positive_roots(0.25, 12)
        assert 0 < len(calls) <= 1097

    def test_first_negative_root(self, monkeypatch):
        calls = self.counting(monkeypatch)
        asym.first_negative_root(0.3)
        assert 0 < len(calls) <= 58

    def test_rates_command(self, monkeypatch, capsys):
        from ar1lab.cli import main

        calls = self.counting(monkeypatch)
        argv = "rates --theta -1 --theta 0 --theta 1/4 --theta -2 --theta 4"
        assert main(argv.split()) == 0
        assert 0 < len(calls) <= 1385


class TestDecayRate:
    def test_known_rates(self):
        assert asym.decay_rate(-1.0).lam == pytest.approx(math.pi, abs=1e-12)
        assert asym.decay_rate(0.0).lam == pytest.approx(2.0, abs=1e-13)

    def test_unsupported_band(self):
        with pytest.raises(DomainError):
            asym.decay_rate(0.75)

    def test_negative_drift_rate(self):
        b = asym.decay_rate(-2.0)
        z_half = asym.first_negative_root(-0.5).value
        assert b.mu == pytest.approx(6.0 * z_half, rel=1e-12)
        assert b.mu > 4.0
        assert b.c_rel_drift < 0.01

    @pytest.mark.parametrize("theta", [-1.0, -0.5, -0.1])
    def test_rate_above_two_on_negatives(self, theta):
        assert asym.decay_rate(theta).lam > 2.0

    @pytest.mark.parametrize("theta", [0.1, 0.3, 0.45])
    def test_rate_below_two_on_positives(self, theta):
        assert asym.decay_rate(theta).lam < 2.0

    def test_scaled_root_nonincreasing(self):
        grid = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5]
        vals = [(1 - th) * asym.first_negative_root(th).value for th in grid]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta", [F(-1), F(-1, 2), F(0), F(1, 4), F(1, 2)])
    def test_asymptotic_ratio_at_thirty(self, theta):
        bundle = asym.decay_rate(float(theta))
        p30 = float(persistence_exact(30, theta))
        assert abs(p30 * bundle.z_root * bundle.lam**30 - 1) < 0.02


class TestLimit:
    def test_route_agreement_loose(self):
        # at the default order 9 the expansion's own tail is ~4.5e-8 at drift
        # 4, so this loose check sits above it; c11a compares at order 14
        ell = asym.limit_ell(4.0, 1e-12)
        assert abs(ell - asym.ell_expansion(4.0)) < 1e-7

    def test_expansion_coefficients_derived(self):
        assert asym.ell_expansion_coefficients(9) == list(asym.ELL_EXPANSION_COEFFS)

    def test_expansion_beyond_printed_orders(self):
        for k in range(10, 15):
            coeffs = asym.ell_expansion_coefficients(k)
            expected = float(sum(float(c) / 4.0**i for i, c in enumerate(coeffs)))
            assert asym.ell_expansion(4.0, k) == expected

    def test_large_drift_value(self):
        assert 0.48 < asym.limit_ell(10.0) < 0.5

    def test_monotone_approach_from_above(self):
        # the gap p_25 - ell is ~1e-17, beyond double precision, so the
        # comparison runs in mpmath against exact rational persistence values
        import mpmath as mp

        ell3 = asym.ell_mp(F(3), dps=40)
        with mp.workdps(50):
            gaps = []
            for n in range(26):
                p = persistence_exact(n, F(3))
                gaps.append(mp.mpf(p.numerator) / mp.mpf(p.denominator) - ell3)
            assert all(g > 0 for g in gaps)
            assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_partial_sum_consistency_with_tail_bound(self):
        for theta in (2.0, 3.0):
            ell1, s1, tail1, _ = asym.ell_with_tail(theta, 1e-8)
            _, s2, tail2, _ = asym.ell_with_tail(theta, 1e-13)
            assert abs(ell1 * float(s2) - 1.0) <= ell1 * tail1 * 1.05 + 10 * tail2

    def test_domain(self):
        with pytest.raises(DomainError):
            asym.limit_ell(1.0)
        with pytest.raises(DomainError):
            asym.ell_expansion(4.0, -1)
        with pytest.raises(DomainError):
            asym.ell_mp(F(3, 2))

    def test_high_precision_route_matches(self):
        lm = asym.ell_mp(F(4), dps=40)
        assert float(lm) == pytest.approx(asym.limit_ell(4.0, 1e-12), abs=1e-12)

    # 55 digits of ell from summing ~110 terms J_{n+1}(1/theta)/(2^n n!) at
    # 70 digits plus a geometric tail, a route independent of the E ratio
    ELL_PINS = {
        F(2): "0.4104210157548548935450671661414109010398171816972404163",
        F(5, 2): "0.4349548873363538797566134477625192909841187798164953925",
        F(3): "0.4487106577337736316166843034323338567001543049345980219",
        F(4): "0.4638172846823154589758865557967840033365829900590934382",
        F(10): "0.4868183190140470673655078413827333495165804928264271329",
    }

    @pytest.mark.parametrize("theta", sorted(ELL_PINS))
    def test_high_precision_limit_pinned(self, theta):
        import mpmath as mp

        with mp.workdps(70):
            assert abs(asym.ell_mp(theta, 60) - mp.mpf(self.ELL_PINS[theta])) < mp.mpf("1e-54")

    @pytest.mark.parametrize("theta, terms", [(2.0, 43), (3.0, 34), (4.0, 31)])
    def test_partial_sum_is_the_exact_prefix(self, theta, terms):
        _, partial, _, n = asym.ell_with_tail(theta, 1e-8)
        assert n == terms
        assert partial == sum(persistence_prefix(n, 1 / F(theta)))

    def test_window_limit_refuses_past_the_exact_prefix(self):
        with pytest.raises(DomainError, match="within 6 exact terms"):
            asym.ell_with_tail(1.5, 1e-8, nmax=6)


class TestNuRoot:
    def test_bracket_and_residual(self):
        res = asym.nu_root(4.0)
        l1, l2 = res.bracket
        assert l1 < res.value < l2
        assert res.residual < 1e-10

    def test_rate_function_positive_at_origin(self):
        roots = asym.positive_roots(0.25, 12)
        assert sum(1.0 / r.value for r in roots) == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            asym.nu_root(1.5)


class TestQSeries:
    def test_unit_value_at_origin(self):
        assert asym.qseries_biexp(0.5, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_first_coefficient_is_half(self):
        coeffs = asym.qseries_biexp_coeffs(0.5, 4)
        assert abs(coeffs[1] - 0.5) < 1e-9
        assert abs(coeffs[0] - 1.0) < 1e-12

    def test_random_walk_drift_rejected(self):
        with pytest.raises(DomainError):
            asym.qseries_biexp(1.0, 0.3)

    def test_convolution_duality(self):
        a = asym.qseries_biexp_coeffs(0.4, 8)
        b = asym.qseries_biexp_coeffs(2.5, 8)
        for n in range(9):
            conv = sum(a[k] * b[n - k] for k in range(n + 1))
            assert abs(conv - 1.0) < 1e-7

    def test_exact_nonpositive_closed_form(self):
        assert asym.biexp_persistence_nonpositive(F(-1), 3) == F(1, 32)
        assert asym.biexp_persistence_nonpositive(F(0), 5) == F(1, 32)
        with pytest.raises(DomainError):
            asym.biexp_persistence_nonpositive(F(1, 2), 3)


class TestTuttePoisson:
    def test_zero_count_is_exponential_factor(self):
        t, theta = 1.0, -1.5
        mbar = theta * math.log(asym.deformed_exp(theta + 1, 1 / theta))
        assert asym.tutte_poisson_pmf(t, theta, 0) == pytest.approx(math.exp(-t * mbar), abs=1e-14)

    def test_normalization(self):
        # the pmf tail decays geometrically at rate ~0.8, so the order-40
        # partial sum misses 1 by ~3e-4; order 120 is below 1e-8
        total = sum(asym.tutte_poisson_pmf(1.0, -1.5, n) for n in range(121))
        assert abs(total - 1.0) < 1e-8

    def test_moment_generating_function_at_boundary(self):
        z = 0.5
        lhs = sum(asym.tutte_poisson_pmf(1.0, -2.0, n) * z**n for n in range(60))
        assert abs(lhs - asym.tutte_poisson_mgf_limit(1.0, z)) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            asym.tutte_poisson_pmf(1.0, -0.5, 3)
        with pytest.raises(DomainError):
            asym.tutte_poisson_pmf(-1.0, -1.5, 3)


class TestLogConvexity:
    def test_geometric_holds_with_equality(self):
        v = asym.log_convexity_check([F(1, 2**n) for n in range(12)])
        assert v.holds and v.first_violation is None

    def test_catalan_sequence_holds(self):
        seq = [F(comb(2 * n, n), (n + 1) * 2 ** (2 * n + 1)) for n in range(21)]
        assert asym.log_convexity_check(seq).holds

    def test_violation_for_strong_negative_drift(self):
        seq = [persistence_exact(n, F(-2)) for n in range(21)]
        verdict = asym.log_convexity_check(seq)
        assert not verdict.holds
        assert verdict.first_violation == 1

    def test_positive_entries_required(self):
        with pytest.raises(DomainError):
            asym.log_convexity_check([F(1), F(0), F(1)])


class TestFullExpansion:
    def test_exact_values_reproduced_by_root_ladder(self):
        # p_n = sum_k 1/(2^n (1-th)^n a_k^(n+1)), the full expansion behind
        # the leading-order rate; twelve roots resolve n = 10 far past double
        th = 0.3
        roots = asym.positive_roots(th, 12)
        n = 10
        total = sum(1.0 / (2**n * (1 - th) ** n * r.value ** (n + 1)) for r in roots)
        exact = float(persistence_exact(n, F(3, 10)))
        assert total == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("n", [5, 9])
    def test_zigzag_series_at_minus_one(self, n):
        # A_n/n! = 2 (2/pi)^(n+1) sum_k (-1)^(k(n+1)) / (2k+1)^(n+1): the
        # root ladder at drift -1 is explicit, alternating odd multiples
        from ar1lab.families import zigzag

        tail = sum((-1) ** (k * (n + 1)) / (2 * k + 1) ** (n + 1) for k in range(4000))
        rhs = 2 * (2 / math.pi) ** (n + 1) * tail
        lhs = zigzag(n) / factorial(n)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_biexponential_limit_closed_form(self):
        # for drift > 1 the q-product coefficients decrease to
        # (q1;q)/( (q1;q) + (q2;q) ) with q1 = 1/theta, q2 = q = theta^-2
        theta = 2.5
        q = theta**-2
        num = asym.qpochhammer(1 / theta, q)
        ell = num / (num + asym.qpochhammer(q, q))
        coeffs = asym.qseries_biexp_coeffs(theta, 40, radius=0.9, npoints=256)
        assert all(x >= y - 1e-9 for x, y in zip(coeffs, coeffs[1:]))
        assert abs(coeffs[40] - ell) < 1e-4
        assert 0 < ell < 0.5

    def test_kappa_estimate_matches_log_nu(self):
        bundle = asym.rate_bundle(4.0)
        assert bundle.kappa_estimate == pytest.approx(math.log(bundle.nu), abs=0.01)


class TestVolterraEigenvalue:
    def test_symmetric_case_is_reciprocal_rate(self):
        ev = asym.volterra_top_eigenvalue(0.25)
        assert ev == pytest.approx(1.0 / asym.decay_rate(0.25).lam, rel=1e-12)

    def test_asymmetric_decay_rate(self):
        # p_n for support [-2, 1] decays like (1/z) ev^n (drift 1/4)
        a, b, th = 2.0, 1.0, 0.25
        ev = asym.volterra_top_eigenvalue(th, a, b)
        z = asym.first_negative_root(th).value
        p30 = float(persistence_exact(30, F(1, 4), F(2), F(1)))
        assert p30 * z / ev**30 == pytest.approx(1.0, abs=0.02)

    def test_asymmetric_negative_drift_stabilizes(self):
        a, b, th = 2.0, 1.0, -2.0
        ev = asym.volterra_top_eigenvalue(th, a, b)
        vals = [float(persistence_exact(n, F(-2), F(2), F(1))) / ev**n for n in range(25, 31)]
        assert max(vals) / min(vals) - 1 < 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            asym.volterra_top_eigenvalue(0.9, 1.0, 1.0)
        with pytest.raises(DomainError):
            asym.volterra_top_eigenvalue(0.1, -1.0, 1.0)


class TestTuttePoissonExactCrossCheck:
    @pytest.mark.parametrize("n", range(9))
    def test_pmf_matches_exact_dichromatic_values(self, n):
        # e^(-t mbar) T_n(t, theta)/n! with T_n evaluated exactly from the
        # bivariate family at t = 1, theta = -3/2
        from ar1lab.families import tutte_complete

        theta = -1.5
        coeffs = tutte_complete(n)
        exact_tn = sum(c(F(-3, 2)) for c in coeffs)  # value at x = t = 1
        mbar = theta * math.log(asym.deformed_exp(theta + 1, 1 / theta))
        expected = math.exp(-mbar) * float(exact_tn) / factorial(n)
        assert asym.tutte_poisson_pmf(1.0, theta, n) == pytest.approx(expected, rel=1e-11)


class TestSummability:
    def test_geometric_partial_sums_at_negative_drift(self):
        # sum J_n(-1/2)/n! converges with a geometric bound from the rate
        table = scalar_families(F(-1, 2))
        lam = asym.decay_rate(-0.5).lam
        q = 2.0 / lam
        assert q < 1.0
        terms = [float(table.j(n)) / factorial(n) for n in range(1, 40)]
        tail = sum(terms[20:])
        bound = terms[20] / (1 - q) * 1.1
        assert tail < bound

    def test_divergence_at_zero_drift(self):
        # J_n(0)/n! = 1/n: partial sums are not Cauchy
        h = lambda n: sum(F(1, k) for k in range(1, n + 1))
        assert h(40) - h(20) > F(1, 2)
