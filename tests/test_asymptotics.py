"""Floating-point layer: deformed exponential, roots, rates, q-series."""

import math
from fractions import Fraction as F
from math import comb, factorial

import mpmath as mp
import pytest

from ar1lab.errors import DomainError, InvariantError
from ar1lab import asymptotics as asym
from ar1lab import families as fam
from ar1lab import identities
from ar1lab.families import mallows_riordan, scalar_families
from ar1lab.persistence import persistence_exact, persistence_prefix


class TestDeformedExp:
    def test_alternating_collapse(self):
        z = math.pi / 4
        assert asym.deformed_exp(-1.0, z, 1e-12) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_linear_collapse(self):
        assert asym.deformed_exp(0.0, 3.0, 1e-12) == 4.0

    def test_exponential_collapse(self):
        assert asym.deformed_exp(1.0, 1.0, 1e-12) == pytest.approx(math.e, abs=1e-12)

    def test_divergence_guard(self):
        with pytest.raises(DomainError):
            asym.deformed_exp(1.5, 1.0, 1e-12)
        with pytest.raises(DomainError):
            asym.deformed_exp(0.5, 1.0, tol=0.0)

    def test_large_argument_cancellation_handled(self):
        # values at arguments far past the first roots stay finite and small
        val = asym.deformed_exp(0.3, -1000.0, tol=1e-10)
        assert math.isfinite(val)

    def test_subnormal_tolerance_is_honoured(self):
        # tol/10 underflows to 0 here, so the planned tolerance is taken in logs
        assert asym.deformed_exp(0.5, 1.0, tol=5e-324) == pytest.approx(asym.deformed_exp(0.5, 1.0, 1e-12), abs=1e-12)

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.25, 0.5, 0.9, 1.0])
    def test_plan_order_and_peak_against_brute_force(self, theta):
        # the sum to the planned order is within tol of a sum 60 terms longer,
        # and the planned peak is the largest term, all in independent mpmath terms
        import mpmath as mp

        for z in (0.5, -0.5, 5.0, -5.0, 40.0, -40.0, 60.0, -60.0, 300.0, -300.0):
            for tol in (1e-12, 1e-15):
                order, peak = asym._plan(theta, z, math.log(tol))
                with mp.workdps(int(peak) + 40):
                    terms = [
                        mp.mpf(theta) ** (n * (n - 1) // 2) * mp.mpf(z) ** n / mp.factorial(n)
                        for n in range(order + 61)
                    ]
                    assert abs(mp.fsum(terms[order + 1 :])) < tol, (theta, z, tol)
                    largest = max(abs(t) for t in terms)
                    assert abs(mp.log10(largest) - peak) < 1e-9, (theta, z)

    def test_derivative_identity(self):
        # d/dz E(th, z) = E(th, th z), via a central difference
        th, z, h = 0.4, 1.3, 1e-6
        fd = (asym.deformed_exp(th, z + h, 1e-12) - asym.deformed_exp(th, z - h, 1e-12)) / (2 * h)
        assert fd == pytest.approx(asym.deformed_exp(th, th * z, 1e-12), rel=1e-8)


class TestFirstNegativeRoot:
    def test_quarter_pi(self):
        r = asym.first_negative_root(-1.0)
        assert abs(r.value - math.pi / 4) < 1e-12
        assert r.residual <= 1e-10

    def test_unity(self):
        r = asym.first_negative_root(0.0)
        assert abs(r.value - 1.0) < 1e-14

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
        assert 0 < len(calls) <= 1327


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
        # at order 9 the expansion's own tail is ~4.5e-8 at drift 4, so this
        # loose check sits above it; c11a compares at order 14
        ell = asym.ell_with_tail(4.0, 1e-12)[0]
        expansion = sum(float(c) / 4.0**k for k, c in enumerate(fam.ell_expansion_coefficients(9)))
        assert abs(ell - expansion) < 1e-7

    def test_expansion_coefficients_derived(self):
        assert fam.ell_expansion_coefficients(9) == list(fam.ELL_EXPANSION_COEFFS)

    def test_large_drift_value(self):
        assert 0.48 < asym.ell_with_tail(10.0, 1e-10)[0] < 0.5

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
            asym.ell_with_tail(1.0, 1e-10)
        with pytest.raises(DomainError):
            asym.ell_mp(F(3, 2), 60)

    def test_high_precision_route_matches(self):
        lm = asym.ell_mp(F(4), dps=40)
        assert float(lm) == pytest.approx(asym.ell_with_tail(4.0, 1e-12)[0], abs=1e-12)

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

    def test_high_precision_limit_holds_past_the_float_range(self):
        # 600 digits need the E sums truncated at 1e-610, below the smallest
        # float; the reference is ell(2) = E(1/2, -1)/E(1/2, -1/2) summed to
        # 90 terms at 700 digits (term 90 is below 1e-1300)
        import mpmath as mp

        with mp.workdps(700):
            r = mp.mpf(1) / 2

            def e(w):
                return mp.fsum(r ** (n * (n - 1) // 2) * w**n / mp.factorial(n) for n in range(90))

            reference = e(mp.mpf(-1)) / e(-r)
            assert abs(asym.ell_mp(F(2), 600) - reference) < mp.mpf(10) ** -600

    @pytest.mark.parametrize("theta", sorted(ELL_PINS))
    def test_rates_prints_the_correctly_rounded_limit(self, capsys, theta):
        import json

        from ar1lab.cli import main

        assert main(["rates", "--theta", str(theta), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["ell"] == float(self.ELL_PINS[theta])

    def test_rates_limit_keeps_its_invariant(self, monkeypatch):
        import mpmath as mp

        monkeypatch.setattr(asym, "ell_mp", lambda theta, dps: mp.mpf("0.5000000001"))
        with pytest.raises(InvariantError, match=r"escapes \(0, 1/2\] at drift 4"):
            asym.rate_bundle(F(4))

    @pytest.mark.parametrize("theta, terms", [(2.0, 43), (3.0, 34), (4.0, 31)])
    def test_partial_sum_is_the_exact_prefix(self, theta, terms):
        _, partial, _, n = asym.ell_with_tail(theta, 1e-8)
        assert n == terms
        assert partial == sum(persistence_prefix(n, 1 / F(theta)))

    def test_window_limit_refuses_past_the_exact_prefix(self):
        # in (1, 2) no affordable exact prefix bounds the tail (next tests), so it refuses up front
        with pytest.raises(DomainError, match=r"^drift 1.5 is in \(1, 2\)"):
            asym.ell_with_tail(1.5, 1e-8)

    @pytest.mark.parametrize("theta", [F(11, 10), F(5, 4), F(3, 2), F(199, 100)])
    def test_window_drifts_refuse_before_any_exact_term_or_root_scan(self, monkeypatch, theta):
        def refused(*args, **kwargs):
            raise AssertionError("computed before the refusal")

        for name in ("persistence_prefix", "persistence_closed_form", "decay_rate", "positive_roots", "nu_root"):
            monkeypatch.setattr(asym, name, refused)
        for limit in (asym.rate_bundle, lambda th: asym.ell_with_tail(th, 1e-10)):
            with pytest.raises(DomainError, match=rf"^drift {float(theta):g} is in \(1, 2\)"):
                limit(theta)

    def test_no_window_prefix_reaches_the_tolerance_rates_asks_for(self):
        # At r = 1/theta in (1/2, 1): p_n(r) >= p_n(1/2) (coupling) and p_n/p_(n-1) >= 1/2,
        # so the tail estimate p_n(r) ratio/(1 - ratio) is at least p_n(1/2), while the
        # partial sum of n + 1 <= 17 terms is at most 17.
        p = persistence_prefix(16, F(1, 2))
        for r in (F(2, 3), F(4, 5)):
            q = persistence_prefix(8, r)
            assert all(q[n] >= p[n] and 2 * q[n] >= q[n - 1] for n in range(1, 9))
        assert all(2 * p[n] >= p[n - 1] for n in range(1, 17))
        bound = min(p[2:]) / 17**2
        assert bound == p[16] / 17**2
        assert bound >= 4e-6 > 1e-8  # ell_with_tail is asked for 1e-8 at the loosest


class TestNuRoot:
    def test_root_lies_between_the_first_two_poles(self):
        ladder = asym.positive_roots(0.25, 12)
        l1, l2 = (2 * (1 - 0.25) * r.value for r in ladder[:2])
        assert l1 < asym.nu_root(4.0, ladder) < l2

    def test_rate_function_positive_at_origin(self):
        roots = asym.positive_roots(0.25, 12)
        assert sum(1.0 / r.value for r in roots) == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        # the drift is refused before the ladder is read
        with pytest.raises(DomainError):
            asym.nu_root(1.5, [])


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

    @pytest.mark.parametrize("theta", [0.9999, 1.0001])
    def test_unconverged_product_near_drift_one_is_a_domain_error(self, theta):
        # q = theta^(+-2) is so close to 1 that the product needs more than 100000 factors
        q = theta**2 if theta < 1 else theta**-2
        with pytest.raises(DomainError, match="did not converge"):
            asym.qpochhammer(q, q)
        with pytest.raises(DomainError):
            asym.qseries_biexp_coeffs(theta, 5)

    def test_extraction_names_the_horizon_it_cannot_serve(self):
        assert len(asym.qseries_biexp_coeffs(0.5, 63)) == 64
        with pytest.raises(DomainError, match="serves horizons below 64, not 64"):
            asym.qseries_biexp_coeffs(0.5, 64)

    def test_exact_nonpositive_closed_form(self):
        assert asym.biexp_persistence_nonpositive(F(-1), 3) == F(1, 32)
        assert asym.biexp_persistence_nonpositive(F(0), 5) == F(1, 32)
        with pytest.raises(DomainError):
            asym.biexp_persistence_nonpositive(F(1, 2), 3)


class TestRequiredPrecision:
    """No float route picks its own precision: every caller names it."""

    @pytest.mark.parametrize(
        "route, args",
        [(asym.deformed_exp, (0.5, 1.0)), (asym.ell_with_tail, (F(4),)), (asym.ell_mp, (F(4),))],
        ids=["deformed_exp", "ell_with_tail", "ell_mp"],
    )
    def test_precision_has_no_default(self, route, args):
        with pytest.raises(TypeError):
            route(*args)


class TestLogConvexity:
    def test_geometric_holds_with_equality(self):
        assert identities.log_convexity_check([F(1, 2**n) for n in range(12)]) is None

    def test_catalan_sequence_holds(self):
        seq = [F(comb(2 * n, n), (n + 1) * 2 ** (2 * n + 1)) for n in range(21)]
        assert identities.log_convexity_check(seq) is None

    def test_violation_for_strong_negative_drift(self):
        seq = [persistence_exact(n, F(-2)) for n in range(21)]
        assert identities.log_convexity_check(seq) == 1

    def test_positive_entries_required(self):
        with pytest.raises(DomainError):
            identities.log_convexity_check([F(1), F(0), F(1)])


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

    def test_biexponential_limit_closed_form(self, monkeypatch):
        # for drift > 1 the q-product coefficients decrease to
        # (q1;q)/( (q1;q) + (q2;q) ) with q1 = 1/theta, q2 = q = theta^-2
        theta = 2.5
        q = theta**-2
        num = asym.qpochhammer(1 / theta, q)
        ell = num / (num + asym.qpochhammer(q, q))
        assert 0 < ell < 0.5
        # on the default circle, dividing by 0.5^n amplifies the extraction's rounding past n = 20
        coeffs = asym.qseries_biexp_coeffs(theta, 20)
        assert all(x >= y - 1e-9 for x, y in zip(coeffs, coeffs[1:]))
        assert abs(coeffs[20] - ell) < 1e-4
        # a wider circle with more points serves the horizon 40
        monkeypatch.setattr(asym, "_RADIUS", 0.9)
        monkeypatch.setattr(asym, "_NPOINTS", 256)
        coeffs = asym.qseries_biexp_coeffs(theta, 40)
        assert all(x >= y - 1e-9 for x, y in zip(coeffs, coeffs[1:]))
        assert abs(coeffs[40] - ell) < 1e-4

    def test_kappa_estimate_matches_log_nu(self):
        bundle = asym.rate_bundle(4.0)
        assert bundle.kappa_estimate == pytest.approx(math.log(bundle.nu), abs=0.01)

    @pytest.mark.parametrize("theta", [F(2), F(3), F(4), F(10), F(7, 3)])
    def test_kappa_is_the_exact_one_step_ratio_at_n_30(self, theta):
        # (p_n - ell)/(p_(n+1) - ell) -> rate = exp(kappa); p_31 - ell is about rate^-31,
        # so the subtraction cancels 31 log10(rate) leading digits of ell
        rate = math.exp(asym.rate_bundle(theta).kappa_estimate)
        dps = 60 + int(31 * math.log10(rate))
        ell = asym.ell_mp(theta, dps)
        p = persistence_prefix(31, theta)
        with mp.workdps(dps):
            r30, r31 = (mp.mpf(p[n].numerator) / p[n].denominator - ell for n in (30, 31))
            assert float(r30 / r31) == pytest.approx(rate, rel=1e-12)

    @pytest.mark.parametrize("theta", [30, 100, 1000])
    def test_kappa_estimate_keeps_its_digits_at_large_drift(self, theta):
        # at large drift the 12-root nu meets the closed form exp(kappa) = 2(theta - 1) a_1
        bundle = asym.rate_bundle(F(theta))
        log_nu = math.log(bundle.nu)
        assert abs(bundle.kappa_estimate - log_nu) <= 1e-12 * log_nu


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
