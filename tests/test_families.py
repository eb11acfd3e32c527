"""Polynomial families: printed tables, specializations, independent routes."""

import itertools
from fractions import Fraction as F
from math import comb, factorial

import mpmath as mp
import pytest

from ar1lab import families as fam
from ar1lab import identities
from ar1lab.exact.polynomial import Polynomial
from ar1lab.exact.series import TruncatedSeries

PRINTED_J = {
    1: (1,),
    2: (1,),
    3: (2, 1),
    4: (6, 6, 3, 1),
    5: (24, 36, 30, 20, 10, 4, 1),
    6: (120, 240, 270, 240, 180, 120, 70, 35, 15, 5, 1),
}
PRINTED_JT = {
    2: (1,),
    3: (0, -1),
    4: (0, 0, 3, 1),
    5: (0, 0, 0, -12, -10, -4, -1),
    6: (0, 0, 0, 0, 60, 80, 60, 35, 15, 5, 1),
}
PRINTED_JH = {
    2: (1,),
    3: (4, -1),
    4: (24, -6, -3, -1),
    5: (192, -48, -24, -20, -10, -4, -1),
    6: (1920, -480, -240, -200, -160, -120, -70, -35, -15, -5, -1),
}


class TestPrintedTables:
    @pytest.mark.parametrize("n,coeffs", PRINTED_J.items())
    def test_j(self, n, coeffs):
        assert fam.mallows_riordan(n) == Polynomial(coeffs)

    @pytest.mark.parametrize("n,coeffs", PRINTED_JT.items())
    def test_j_tilde(self, n, coeffs):
        assert fam.j_tilde(n) == Polynomial(coeffs)

    @pytest.mark.parametrize("n,coeffs", PRINTED_JH.items())
    def test_j_hat(self, n, coeffs):
        assert fam.j_hat(n) == Polynomial(coeffs)

    def test_index_zero_rejected(self):
        for f in (fam.mallows_riordan, fam.j_tilde, fam.j_hat, fam.c_polynomial):
            with pytest.raises(IndexError):
                f(0)


class TestSpecializations:
    @pytest.mark.parametrize("n", range(16))
    def test_j_at_zero_is_factorial(self, n):
        assert fam.mallows_riordan(n + 1)(F(0)) == factorial(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_j_at_one_is_cayley(self, n):
        assert fam.mallows_riordan(n)(F(1)) == F(n) ** (n - 2)

    @pytest.mark.parametrize("n", range(13))
    def test_j_and_j_tilde_at_minus_one_are_zigzag(self, n):
        a = fam.zigzag(n)
        assert fam.mallows_riordan(n + 1)(F(-1)) == a
        assert fam.j_tilde(n + 1)(F(-1)) == a

    @pytest.mark.parametrize("n", range(1, 11))
    def test_j_tilde_at_one_is_lambert(self, n):
        assert (-1) ** (n - 1) * fam.j_tilde(n + 1)(F(1)) == F(n - 1) ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_j_hat_constant_term(self, n):
        assert fam.j_hat(n + 1)(F(0)) == 2 ** (n - 1) * factorial(n)

    def test_j5_at_two_counts_connected_graphs(self):
        assert fam.mallows_riordan(5)(F(2)) == 728


def count_connected_labeled_graphs(n: int) -> int:
    """Brute-force enumeration over all 2^C(n,2) edge subsets."""
    edges = list(itertools.combinations(range(n), 2))
    count = 0
    for mask in range(1 << len(edges)):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                parent[find(u)] = find(v)
        if len({find(v) for v in range(n)}) == 1:
            count += 1
    return count


def count_alternating_permutations(n: int) -> int:
    """Up-down alternating permutations of {1..n}, by direct enumeration."""
    if n == 0:
        return 1
    count = 0
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n - 1):
            if i % 2 == 0 and not perm[i] < perm[i + 1]:
                ok = False
                break
            if i % 2 == 1 and not perm[i] > perm[i + 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


class TestZigzag:
    def test_first_values(self):
        assert [fam.zigzag(n) for n in range(6)] == [1, 1, 1, 2, 5, 16]

    @pytest.mark.parametrize("n", range(8))
    def test_against_alternating_permutation_enumeration(self, n):
        assert fam.zigzag(n) == count_alternating_permutations(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_alternating_convolution_vanishes(self, n):
        assert fam.zigzag_alternating_convolution(n) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            fam.zigzag(-1)


class TestRoutes:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_all_routes_agree(self, n):
        assert fam.route_disagreement(n) is None

    def test_binomial_recurrence_route_matches(self):
        # the polynomial and the integer tables run the same J~ and J^
        # recurrences over different rings; their values must agree
        for theta in (F(1, 3), F(-3, 2)):
            table = fam.scalar_families(theta)
            for n in range(1, 17):
                assert table.j_tilde(n) == fam.j_tilde(n)(theta)
                assert table.j_hat(n) == fam.j_hat(n)(theta)

    def test_route_disagreement_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(fam, "_j_via_log", lambda nmax: [Polynomial.zero()] * (nmax + 1))
        passed, detail = identities.check_route_agreement(3)
        assert not passed
        assert detail == "route disagreement for J_1"

    def test_unrelated_assertion_propagates(self, monkeypatch):
        def broken(nmax):
            raise AssertionError("not a route disagreement")

        monkeypatch.setattr(fam, "_j_via_log", broken)
        with pytest.raises(AssertionError, match="not a route disagreement"):
            identities.check_route_agreement(3)

    def test_gessel_ratio(self):
        assert fam.gessel_identity_holds(10)

    def test_kreweras_recurrence(self):
        assert fam.kreweras_recurrence_holds(10)

    def test_ratio_form_checks_fail_on_a_wrong_numerator(self, monkeypatch):
        # N + D z^4 over D is J + z^4: the ratio route's J_5 is off by 4!
        pair = fam._ratio_series_pair

        def perturbed(order):
            num, den = pair(order)
            shifted = [Polynomial.zero()] * 4 + list(den.coeffs)
            return TruncatedSeries([a + b for a, b in zip(num.coeffs, shifted)], order), den

        monkeypatch.setattr(fam, "_ratio_series_pair", perturbed)
        assert fam.route_disagreement(10) == "route disagreement for J_5"
        assert not fam.kreweras_recurrence_holds(10)
        assert identities.check_kreweras(10) == (False, "n<=10")

    def test_gessel_ratio_fails_on_a_wrong_j(self, monkeypatch):
        j_egf = fam._j_egf

        def perturbed(order):
            coeffs = j_egf(order).coeffs
            return TruncatedSeries([c + 1 if n == 3 else c for n, c in enumerate(coeffs)], order)

        monkeypatch.setattr(fam, "_j_egf", perturbed)
        assert not fam.gessel_identity_holds(10)


def brute_force_dichromatic(n: int) -> list[Polynomial]:
    """Sum over all spanning subgraphs of x^k(H) th^(e(H)+k(H)-n)."""
    edges = list(itertools.combinations(range(n), 2))
    coeffs: dict[tuple[int, int], int] = {}
    for mask in range(1 << len(edges)):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        e = 0
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                e += 1
                parent[find(u)] = find(v)
        k = len({find(v) for v in range(n)})
        key = (k, e + k - n)
        coeffs[key] = coeffs.get(key, 0) + 1
    xdeg = max(k for k, _ in coeffs)
    out = []
    for j in range(xdeg + 1):
        tdeg = max((t for k, t in coeffs if k == j), default=-1)
        out.append(Polynomial([coeffs.get((j, t), 0) for t in range(tdeg + 1)]))
    return out


class TestCheckRegistry:
    def test_names_order_and_depth_rules(self):
        names = [name for name, _ in identities.ALL_CHECKS]
        assert len(names) == len(set(names)) == 22
        results = identities.run_all(3)
        assert [r.name for r in results] == names
        assert all(r.passed for r in results), [r for r in results if not r.passed]
        detail = {r.name: r.detail for r in results}
        assert detail["specializations"] == "exact through n=15"  # floor
        assert detail["route-agreement"].endswith("n<=10")  # floor
        assert detail["tutte-diagonal"].endswith("n<=3")  # cap at 8
        assert detail["zigzag-alternation"] == "n<=12"  # fixed depth


class TestTutte:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_subgraph_enumeration(self, n):
        assert fam.tutte_complete(n) == brute_force_dichromatic(n)

    def test_single_vertex(self):
        assert fam.tutte_complete(1) == [Polynomial.zero(), Polynomial.one()]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_diagonal_identity(self, n):
        for th in (F(2), F(-1), F(1, 3)):
            assert fam.tutte_modified_eval(n, F(1), th) == fam.mallows_riordan(n)(th)

    def test_connected_graph_count(self):
        assert fam.tutte_modified_eval(4, F(1), F(2)) == 38
        assert count_connected_labeled_graphs(4) == 38

    def test_empty_graph(self):
        assert fam.tutte_complete(0) == [Polynomial.one()]
        assert fam.tutte_modified_eval(0, F(2), F(3)) == 1


class TestNestedVolume:
    def test_depth_one(self):
        assert fam.nested_volume(1) == Polynomial((-1, 1))

    def test_depth_two_explicit(self):
        # int_1^th (th*x - 1) dx = th^3/2 - 3 th/2 + 1 = (th-1)^2 (2+th)/2
        assert fam.nested_volume(2) == Polynomial((1, F(-3, 2), 0, F(1, 2)))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_identity_with_family(self, n):
        target = Polynomial((-1, 1)) ** n * fam.mallows_riordan(n + 1) / factorial(n)
        assert fam.nested_volume(n) == target


class TestBoundaryDerivatives:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_first_derivative_matches(self, n):
        bd = fam.boundary_derivatives(n)
        assert bd.left_p1 == bd.right_p1

    @pytest.mark.parametrize("n", range(2, 13))
    def test_second_derivative_jump(self, n):
        bd = fam.boundary_derivatives(n)
        assert bd.left_p2 - bd.right_p2 == F(fam.zigzag(n - 2), 2**n * factorial(n - 2))

    @pytest.mark.parametrize("n", range(13))
    def test_derivative_proportionality(self, n):
        d = fam.mallows_riordan(n + 1).derivative()(F(-1))
        expected = F(0) if n < 2 else F(n, 2) * fam.zigzag(n)
        assert d == expected

    @pytest.mark.parametrize("n", range(13))
    def test_mirror_derivative_sign(self, n):
        d = fam.mallows_riordan(n + 1).derivative()(F(-1))
        dt = fam.j_tilde(n + 1).derivative()(F(-1))
        assert dt == -d

    def test_small_horizon_rejected(self):
        with pytest.raises(IndexError):
            fam.boundary_derivatives(1)


class TestStructure:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_all_families(self, n):
        assert fam.check_structure_j(n)
        assert fam.check_structure_jt(n)
        assert fam.check_structure_jh(n)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_c_polynomial(self, n):
        c = fam.c_polynomial(n)
        assert c.degree == (n - 1) * (n - 2) // 2
        assert c.coefficient(0) == F(factorial(n), 2)
        assert c.coeffs[-1] == 1
        assert all(x > 0 for x in c.coeffs)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_positive_increasing_on_grid(self, n):
        grid = [F(k, 8) for k in range(-8, 25)]
        vals = [fam.mallows_riordan(n)(t) for t in grid]
        assert all(v > 0 for v in vals)
        assert all(x <= y for x, y in zip(vals, vals[1:]))


class TestConcurrency:
    def test_concurrent_cache_reads_and_growth(self):
        # caches are single-writer behind a lock; concurrent growth from
        # several threads must agree with the serial values
        import concurrent.futures

        def work(i):
            n = 8 + (i % 7)
            return (
                fam.mallows_riordan(n).coeffs,
                fam.j_tilde(n).coeffs,
                fam.j_hat(n).coeffs,
                fam.zigzag(n),
                fam.scalar_families(F(1, 3)).j(n),
            )

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(32)))
        for i, got in enumerate(results):
            n = 8 + (i % 7)
            assert got[0] == fam.mallows_riordan(n).coeffs
            assert got[3] == fam.zigzag(n)
            assert got[4] == fam.scalar_families(F(1, 3)).j(n)


def _unpaired_j(p, q, nmax: int) -> list:
    """J_0..J_nmax scaled as in ``FamilyTables``, by the recurrence's sum taken
    one term per i."""
    g, j = [p**0], [p * 0, p**0, p**0]
    while len(g) <= nmax:
        g.append(g[-1] * p + q ** len(g))
    while len(j) <= nmax:
        m = len(j) - 2
        j.append(sum(comb(m, i) * g[i] * j[i + 1] * j[m + 1 - i] * q ** ((m - i) * (i + 1)) for i in range(m + 1)))
    return j


def _unpaired_jt(p, q, nmax: int) -> list:
    """J~_0..J~_nmax scaled as in ``FamilyTables``, by the recurrence's sum
    taken one term per k, on the J of ``_unpaired_j``."""
    j, jt = _unpaired_j(p, q, nmax), [p * 0, p**0]
    while len(jt) <= nmax:
        m = len(jt) - 1
        jt.append(sum((-1) ** (k - 1) * comb(m, k) * j[k + 1] * jt[m + 1 - k] * q ** (k * (m - k)) for k in range(1, m + 1)))
    return jt


class TestScalarFamilies:
    @pytest.mark.parametrize(
        "p, q, nmax",
        [(1, 3, 60), (-1, 2, 60), (2, 1, 60), (3, 2, 60), (Polynomial.x(), 1, 12)],
        ids=["1/3", "-1/2", "2", "3/2", "poly"],
    )
    def test_paired_recurrence_matches_the_unpaired_sum(self, p, q, nmax):
        tables = fam.FamilyTables(p, q)
        assert tables.grow_j(nmax) == _unpaired_j(p, q, nmax)
        assert tables.grow_jt(nmax) == _unpaired_jt(p, q, nmax)

    @pytest.mark.parametrize("theta", [F(1, 4), F(-1, 2), F(2), F(-3), F(1)])
    def test_matches_polynomial_evaluation(self, theta):
        table = fam.scalar_families(theta)
        for n in range(1, 13):
            assert table.j(n) == fam.mallows_riordan(n)(theta)
            assert table.j_tilde(n) == fam.j_tilde(n)(theta)
            assert table.j_hat(n) == fam.j_hat(n)(theta)

    def test_deep_growth_is_usable(self):
        table = fam.scalar_families(F(1, 4))
        assert table.j(60) > 0

    def test_scalar_j_mpmath_matches_exact(self):
        # r = 1/4 > 0: every recurrence term is positive, so 80 digits hold
        r = F(1, 4)
        table = fam.scalar_families(r)
        with mp.workdps(80):
            jv = fam.FamilyTables(mp.mpf(r.numerator) / r.denominator, 1).grow_j(40)
            for n in range(1, 41):
                exact = table.j(n)
                want = mp.mpf(exact.numerator) / exact.denominator
                assert abs(jv[n] - want) <= mp.mpf(10) ** -75 * want

    def test_scalar_j_float_matches_exact(self):
        # x in [-1, 0): every recurrence term is nonnegative, so floats hold
        x = F(-1, 2)
        table = fam.scalar_families(x)
        jv = fam.FamilyTables(float(x), 1).grow_j(60)
        for n in range(1, 61):
            want = float(table.j(n))
            assert jv[n] == pytest.approx(want, rel=1e-12, abs=0)

    def test_recurrence_convolution_identity(self):
        # J_{n+2} = sum_i C(n,i)(1+...+th^i) J_{i+1} J_{n+1-i} at a scalar
        th = F(3, 7)
        table = fam.scalar_families(th)
        for n in range(0, 10):
            acc = F(0)
            for i in range(n + 1):
                gsum = sum(th**j for j in range(i + 1))
                acc += comb(n, i) * gsum * table.j(i + 1) * table.j(n + 1 - i)
            assert acc == table.j(n + 2)
