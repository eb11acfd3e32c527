"""Exact persistence: dispatch, closed forms, oracle, dualities."""

import hashlib
import json
from fractions import Fraction as F
from math import comb, factorial, inf, nextafter

import pytest

from ar1lab.errors import DomainError, NoClosedFormError
from ar1lab import identities
from ar1lab import persistence as pers
from ar1lab.exact.piecewise import PiecewisePoly, piecewise_pushforward
from ar1lab.exact.polynomial import Polynomial
from ar1lab.exact.rational import format_rational
from ar1lab.families import scalar_families
from ar1lab.persistence import (
    PersistenceQuery,
    Region,
    classify,
    duality_residuals,
    geometric_sum,
    oracle_masses,
    persistence_closed_form,
    persistence_exact,
    persistence_prefix,
)


def _full_chain(query):
    """The uncut survival sub-densities of Y_1..Y_n: 1/(a+b) on [0, b], then one
    pushforward per step, with no mass banked at any drift."""
    f = PiecewisePoly.constant(0, query.b, 1 / (query.a + query.b))
    for k in range(query.n):
        if k:
            f = piecewise_pushforward(f, query.theta, query.a, query.b)
        yield f


def _last_density(query):
    """The uncut survival sub-density of Y_n, the last of ``_full_chain`` (n >= 1)."""
    *_, f = _full_chain(query)
    return f


def _density_json(f):
    """Every breakpoint and coefficient of a density as rational strings, in JSON."""
    return json.dumps(
        {
            "breakpoints": [format_rational(b) for b in f.breakpoints],
            "pieces": [p.to_strings() for p in f.pieces],
        }
    )


class TestDispatch:
    def test_geometric_sum(self):
        assert geometric_sum(F(1, 2), 3) == F(7, 8)
        assert geometric_sum(F(2), 0) == 0

        def by_loop(theta, m):
            acc, power = F(0), F(1)
            for _ in range(m):
                power *= theta
                acc += power
            return acc

        for k in range(-80, 81):
            for m in range(-2, 41):
                assert geometric_sum(F(k, 20), m) == by_loop(F(k, 20), m), (k, m)

    @pytest.mark.parametrize(
        "n,theta,a,b,region",
        [
            (5, F(0), 1, 1, Region.DIRECT),
            (5, F(1, 2), 1, 1, Region.DIRECT),
            (3, F(-1), 1, 1, Region.INVERSE_NEG),
            (3, F(-2), 1, 1, Region.INVERSE_NEG),
            (3, F(3), 1, 1, Region.INVERSE_POS),
            (3, F(4, 5), 1, 1, Region.WINDOW),
            (3, F(6, 5), 1, 1, Region.WINDOW),
            (2, F(1), 1, 1, Region.DIRECT),  # sum equals the ratio exactly
            (3, F(1), 1, 1, Region.WINDOW),
            (2, F(1, 2), 2, 1, Region.DIRECT),
            (8, F(6, 5), 2, 1, Region.WINDOW),  # asymmetric support: no inverse route
        ],
    )
    def test_regions(self, n, theta, a, b, region):
        assert classify(PersistenceQuery(n, theta, F(a), F(b))) is region

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 3)])
    def test_regions_outside_the_window_are_prefix_closed(self, a, b):
        # persistence_prefix classifies only the last horizon
        for k in range(-80, 81):
            regions = [classify(PersistenceQuery(n, F(k, 20), F(a), F(b))) for n in range(16)]
            last_closed = max(n for n, r in enumerate(regions) if r is not Region.WINDOW)
            assert Region.WINDOW not in regions[:last_closed], (k, regions)

    def test_query_validation(self):
        with pytest.raises(DomainError):
            PersistenceQuery(-1, F(0))
        with pytest.raises(DomainError):
            PersistenceQuery(2, F(0), F(0), F(1))
        with pytest.raises(DomainError):
            persistence_prefix(-1, F(0))

    def test_window_error_carries_bounds(self):
        with pytest.raises(NoClosedFormError) as err:
            persistence_closed_form(PersistenceQuery(3, F(4, 5)))
        lo, hi = err.value.window
        assert 0.5 < lo < 0.8 < 1.25 < hi < 2.0

    @pytest.mark.parametrize(
        "n,a,b",
        [*((n, 1, 1) for n in range(3, 11)), (3, 2, 1), (6, 2, 1), (3, 1, 3), (6, 1, 3)],
    )
    def test_window_bounds_bracket_the_window_that_classify_reports(self, n, a, b):
        query = PersistenceQuery(n, F(1), F(a), F(b))
        lo, hi = pers.window_bounds(query)
        assert (hi < float("inf")) is query.symmetric

        def region(theta):
            return classify(PersistenceQuery(n, theta, F(a), F(b)))

        step = F(1, 10**9)
        assert region(F(lo) * (1 - step)) is not Region.WINDOW
        assert region(F(lo) * (1 + step)) is Region.WINDOW
        if query.symmetric:
            # the symmetric window is reflected through theta = 1
            assert hi == pytest.approx(1 / lo, rel=1e-14)
            assert region(F(hi) * (1 - step)) is Region.WINDOW
            assert region(F(hi) * (1 + step)) is not Region.WINDOW
        else:
            assert region(F(10**6)) is Region.WINDOW

    @pytest.mark.parametrize("ratio", [F(1), F(2), F(3), F(1, 3)])
    def test_fibonacci_root_is_the_exact_boundary_to_one_ulp(self, ratio):
        # the float's two neighbours lie on either side of the boundary that classify reads
        for i in range(1, 41):
            root = pers.fibonacci_root(i, ratio)
            below, above = nextafter(root, 0), nextafter(root, inf)
            assert geometric_sum(F(below), i) < ratio < geometric_sum(F(above), i), i

    @pytest.mark.parametrize("n", [0, 1])
    def test_short_horizons_have_no_window(self, n):
        assert pers.window_bounds(PersistenceQuery(n, F(1))) == (float("inf"), float("inf"))
        for k in range(-80, 81):
            assert classify(PersistenceQuery(n, F(k, 20))) is not Region.WINDOW


class TestClosedForms:
    @pytest.mark.parametrize("n", range(11))
    def test_white_noise(self, n):
        assert persistence_closed_form(PersistenceQuery(n, F(0))) == F(1, 2**n)

    def test_zigzag_drift(self):
        assert persistence_closed_form(PersistenceQuery(5, F(-1))) == F(1, 240)

    def test_negative_drift(self):
        assert persistence_closed_form(PersistenceQuery(3, F(-2))) == F(5, 384)

    def test_asymmetric_support(self):
        assert persistence_closed_form(PersistenceQuery(2, F(1, 2), F(2), F(1))) == F(5, 36)

    def test_horizon_zero(self):
        assert persistence_closed_form(PersistenceQuery(0, F(17, 5))) == 1


class TestOracle:
    @pytest.mark.parametrize("n", range(9))
    def test_sparre_andersen(self, n):
        assert oracle_masses(PersistenceQuery(n, F(1)))[-1] == F(comb(2 * n, n), 4**n)

    def test_lower_window_formula(self):
        th = F(4, 5)
        expected = (th + F(11, 6) - 1 / (2 * th**2) + 1 / (6 * th**3)) / 8
        assert oracle_masses(PersistenceQuery(3, th))[-1] == expected

    def test_upper_window_formula(self):
        th = F(6, 5)
        expected = (-1 / th + F(19, 6) + th**2 / 2 - th**3 / 6) / 8
        assert oracle_masses(PersistenceQuery(3, th))[-1] == expected

    def test_window_formulas_meet_at_random_walk(self):
        lo = F(1) + F(11, 6) - F(1, 2) + F(1, 6)
        hi = -F(1) + F(19, 6) + F(1, 2) - F(1, 6)
        assert lo == hi == F(5, 2)
        assert oracle_masses(PersistenceQuery(3, F(1)))[-1] == F(5, 2) / 8

    @pytest.mark.parametrize("theta", [F(-2), F(-1), F(0), F(1, 3), F(1, 2), F(5, 2)])
    def test_matches_closed_form(self, theta):
        masses = oracle_masses(PersistenceQuery(6, theta))
        for n in range(7):
            assert masses[n] == persistence_closed_form(PersistenceQuery(n, theta))

    def test_zero_drift_asymmetric(self):
        # at drift 0 each step keeps the mass b/(a+b) on [0, b]
        q = PersistenceQuery(5, F(0), F(2), F(1))
        assert oracle_masses(q) == [F(1, 3**n) for n in range(6)]
        assert _last_density(q) == PiecewisePoly.constant(0, 1, F(1, 3**5))

    @pytest.mark.parametrize("theta", [F(4, 5), F(-3, 2), F(3, 2)])
    def test_density_mass_is_last_oracle_mass(self, theta):
        q = PersistenceQuery(6, theta)
        assert _last_density(q).mass() == oracle_masses(q)[-1]

    @pytest.mark.parametrize(
        "n, theta, a, b, pieces, digest",
        [
            (8, F(4, 5), 1, 1, 58, "34b6a67aebcdd2c90b60053e39bc5db30e5dbd02dc11f265d2c5e522413c6e0e"),
            (8, F(3, 2), 1, 1, 192, "94fd58e49b57d8b14c1dcd5b2e9edcf7cfa3593ed5f044a2aebfbf9e0ed31905"),
            (8, F(4, 5), 2, 1, 18, "53063717424dbe6fd2a7e302adb2fe932ac613f41121acecbdef1c776fb225c2"),
            (8, F(6, 5), 1, 3, 252, "169630c8a681efe63a2702798bb2c725485d75e2fd3cf37b99938854280d9189"),
            (8, F(-1, 2), 1, 1, 8, "647de0f6d3de9dea9a6a4fe5432d317ec1590e382dcc3387fe2559cb7cd09df6"),
            (8, F(-4, 5), 1, 3, 8, "d3ec73ac5292e8fe19eb7faf3163ace134fe877ebf3540b8d6b48ea2effa50a2"),
            (8, F(-2, 3), 2, 1, 8, "6c022a0d9caa689958c259bde55a310b7f9a17e41429d5f2995db2c18a4c8cfa"),
            (12, F(4, 5), 1, 1, 458, "681a8ab485fdf4d63b910c8767418b3759c7cf242c54cb7780dde18a2bf70f56"),
            (11, F(2, 3), 1, 1, 133, "166b7cf67146651db3a117b3ba95e5238b4f4f5a8ec459aef39a6497bfd15133"),
            (6, F(-3, 2), 1, 1, 1, "2aa86210a26bf26f9975cc5de5d1036b6c16b900677a05d2975ded789fa687c4"),
            (6, F(7, 5), 3, 1, 21, "49171d000d2119e6b0425d95974ffb693ee86be392a5af905fb1885a5643c825"),
            (9, F(5, 4), 1, 2, 479, "8cfeebcc771c77d6d2537231bc26add987e06980e2f86f8031cef9de7ed69e5d"),
            (7, F(-1, 3), F(1, 2), 2, 7, "b647dc57166630a1db97c9682fe4e017909065c68b10d1b4c547bf0fc7e4a09e"),
        ],
        ids=[
            "4/5", "3/2", "4/5,a=2", "6/5,b=3", "-1/2", "-4/5,b=3", "-2/3,a=2",
            "n=12,4/5", "n=11,2/3", "n=6,-3/2", "n=6,7/5,a=3",
            "n=9,5/4,b=2", "n=7,-1/3,a=1/2,b=2",
        ],
    )
    def test_window_densities_are_pinned(self, n, theta, a, b, pieces, digest):
        # every breakpoint and coefficient of the density, bit for bit; the digests were
        # recorded with per-term Fraction arithmetic, before the polynomial kernels moved
        # to integers over one common denominator.  The last two were recorded before
        # composition by a linear inner became a Taylor shift: 5/4 composes over the
        # denominator c = 5, and -1/3 by a negative slope
        g = _last_density(PersistenceQuery(n, theta, a, b))
        assert len(g.pieces) == pieces
        assert hashlib.sha256(_density_json(g).encode()).hexdigest() == digest

    def test_masses_decrease(self):
        masses = oracle_masses(PersistenceQuery(8, F(4, 5)))
        assert all(x >= y for x, y in zip(masses, masses[1:]))
        assert all(0 <= m <= 1 for m in masses)

    def test_prefix_uses_oracle_in_window(self):
        chain = persistence_prefix(4, F(4, 5))
        assert chain == oracle_masses(PersistenceQuery(4, F(4, 5)))


class TestBankedAtom:
    """Above drift 1 the oracle chain keeps each density below T = a/(theta - 1)
    and banks the mass above it: a path at or above T stays there and survives."""

    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    supports = st.fractions(min_value="1/3", max_value=3, max_denominator=3)

    @given(
        st.fractions(min_value=1, max_value=4, max_denominator=5).filter(lambda x: x > 1),
        supports,
        supports,
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    @example(F(4), F(1, 3), F(3), 7)  # b > T = 1/9: f_1 is cut too
    @example(F(6, 5), F(1), F(3), 7)  # b < T = 5: nothing is banked before step 2
    @example(F(2), F(1), F(1), 7)  # T = b: the cut lands on f_1's top
    def test_the_banked_chain_is_the_full_chain_cut_at_the_level(self, theta, a, b, n):
        query = PersistenceQuery(n, theta, a, b)
        level = a / (theta - 1)
        full = list(_full_chain(query))
        assert oracle_masses(query) == [1] + [f.mass() for f in full]
        banked_before = F(0)
        for (kept, banked), f in zip(pers._oracle_chain(query), full):
            assert (kept, banked) == f.cut(level)
            assert kept.breakpoints[0] == 0 and kept.breakpoints[-1] <= level
            assert banked >= banked_before
            banked_before = banked

    @pytest.mark.parametrize(
        "n, theta, a, b",
        [(9, F(1), 1, 1), (9, F(1), 2, 1), (8, F(4, 5), 1, 1), (8, F(1, 2), 1, 3), (6, F(-2), 1, 1), (6, F(0), 2, 1)],
    )
    def test_nothing_is_banked_at_or_below_drift_1(self, n, theta, a, b):
        query = PersistenceQuery(n, theta, a, b)
        assert pers._absorbing_level(query) is None
        assert list(pers._oracle_chain(query)) == [(f, 0) for f in _full_chain(query)]

    def test_a_deep_query_above_drift_1_tracks_few_pieces(self, monkeypatch):
        # uncut, f_k would have about 2^k pieces at 3/2; cut at T = 2 it has k + 1
        n = 60
        densities, tops = [], []
        real_chain, real_backward = pers._oracle_chain, pers._backward_chain

        def forward(query):
            for f, banked in real_chain(query):
                densities.append(len(f.pieces))
                tops.append(f.breakpoints[-1])
                yield f, banked

        def backward(query):
            for g in real_backward(query):
                densities.append(len(g.pieces))
                yield g

        monkeypatch.setattr(pers, "_oracle_chain", forward)
        monkeypatch.setattr(pers, "_backward_chain", backward)
        p = persistence_exact(n, F(3, 2))
        assert len(densities) == n
        assert max(densities) <= n + 1
        assert max(tops) == 2
        assert F(1, 3) < p < persistence_exact(30, F(3, 2))


class TestSingleValue:
    @staticmethod
    def counting(monkeypatch):
        calls = []

        def counted(query):
            calls.append(query.n)
            return persistence_closed_form(query)

        monkeypatch.setattr(pers, "persistence_closed_form", counted)
        return calls

    @pytest.mark.parametrize(
        "n, theta, a, b",
        [(118, F(1, 3), 1, 1), (20, F(-2), 1, 1), (20, F(3), 1, 1), (9, F(1, 2), F(2), F(1))],
    )
    def test_closed_form_value_skips_the_prefix(self, monkeypatch, n, theta, a, b):
        want = persistence_prefix(n, theta, a, b)[-1]
        calls = self.counting(monkeypatch)
        assert persistence_exact(n, theta, a, b) == want
        assert calls == [n]

    def test_window_value_is_the_last_oracle_mass(self, monkeypatch):
        calls = self.counting(monkeypatch)
        assert persistence_exact(6, F(4, 5)) == persistence_prefix(6, F(4, 5))[-1]
        assert calls == []

    @pytest.mark.parametrize(
        "n, theta, a, b",
        [
            (10, F(4, 5), 1, 1),
            (10, F(3, 2), 1, 1),
            (10, F(2, 3), 1, 1),
            (10, F(9, 10), 1, 1),
            (9, F(1), 2, 1),
            (8, F(6, 5), 1, 3),
        ],
    )
    def test_window_value_takes_one_inner_product(self, monkeypatch, n, theta, a, b):
        # the chains meet in the middle at each of these (split K < n), and p_n
        # needs only <f_K, g_{n-K}>, not the n - K inner products of the prefix
        want = persistence_prefix(n, theta, a, b)[-1]
        calls = []
        real = pers.inner_product

        def counted(f, g):
            calls.append(len(g.pieces))
            return real(f, g)

        monkeypatch.setattr(pers, "inner_product", counted)
        assert persistence_exact(n, theta, a, b) == want
        assert len(calls) == 1, calls


class TestReflectedRoute:
    """Window prefixes at drift theta > 0 meet in the middle: a forward chain
    at theta to f_K and a backward chain of g_j = 1 - u_j, whose steps are the
    reflected query's (n, 1/theta, b, a), to g_{n-K}.  When the reflected
    horizons are closed forms, the prefix is read off them through
    sum_k p_k(theta; a, b) p_{n-k}(1/theta; b, a) = 1."""

    @staticmethod
    def chain_drifts(monkeypatch):
        drifts = []
        real = pers.oracle_masses

        def counted(query):
            drifts.append((query.theta, query.a, query.b))
            return real(query)

        monkeypatch.setattr(pers, "oracle_masses", counted)
        return drifts

    @staticmethod
    def splits(monkeypatch):
        # (K, n - K): the lengths of the forward and the backward chain of each window query
        lengths = []
        real = pers._split

        def recorded(query, reflected):
            k = real(query, reflected)
            lengths.append((k, query.n - k))
            return k

        monkeypatch.setattr(pers, "_split", recorded)
        return lengths

    @pytest.mark.parametrize(
        "theta, a, b, chains",
        [
            (F(6, 5), 1, 1, [(4, 5)]),
            (F(5, 4), 1, 1, [(4, 5)]),
            (F(3, 2), 1, 1, [(6, 3)]),  # the cut forward chain grows one piece a step
            (F(7, 4), 1, 1, [(6, 3)]),
            (F(3), 2, 1, []),  # reflected horizons are closed forms at 1/3 on [-1, 2]
            (F(3, 2), F(1, 3), 2, []),
            (F(5), 1, 4, []),
            (F(7, 5), 3, 1, [(5, 4)]),  # the backward chain at 5/7 on [-1, 3] is the dearer side
            (F(1), 2, 1, [(6, 3)]),  # classical Sparre Andersen: [-2, 1] against [-1, 2]
        ],
    )
    def test_prefix_equals_the_direct_oracle(self, monkeypatch, theta, a, b, chains):
        want = oracle_masses(PersistenceQuery(9, theta, a, b))
        drifts = self.chain_drifts(monkeypatch)
        lengths = self.splits(monkeypatch)
        for n in range(10):
            assert persistence_prefix(n, theta, a, b) == want[: n + 1], n
        assert drifts == []
        assert lengths[-1:] == chains

    @pytest.mark.parametrize(
        "n, theta, a, b",
        [
            (9, F(4, 5), 1, 1),
            (9, F(3, 2), 1, 1),
            (8, F(6, 5), 1, 3),
            (8, F(7, 5), 3, 1),
            (8, F(5, 7), F(1, 2), F(3, 2)),
            (9, F(1), 2, 1),
        ],
    )
    def test_every_split_gives_the_same_prefix(self, monkeypatch, n, theta, a, b):
        # mass(f_K) - <f_K, g_{m-K}> is one rational for every K, the direct oracle's
        query = PersistenceQuery(n, theta, a, b)
        want = oracle_masses(query)
        for k in range(1, n + 1):
            monkeypatch.setattr(pers, "_split", lambda query, reflected: k)
            assert persistence_prefix(n, theta, a, b) == want, k
            assert persistence_exact(n, theta, a, b) == want[-1], k

    @pytest.mark.parametrize(
        "theta, a, b, n",
        [
            (F(3, 2), 1, 1, 10),
            (F(4, 5), 1, 1, 11),
            (F(7, 5), 3, 1, 9),
            (F(5, 7), 1, 3, 9),
            (F(3, 2), 3, 1, 8),
            (F(5, 4), 1, 1, 10),
            (F(7, 4), 1, 1, 10),
            (F(2), 1, 1, 10),
            (F(3), 1, 1, 10),
            (F(6, 5), 1, 3, 9),
            (F(4), F(1, 3), 3, 6),  # b > T = 1/9: f_1 is cut too
        ],
    )
    def test_predicted_piece_counts_match_the_chain(self, theta, a, b, n):
        # above drift 1 the chain is cut at the absorbing level, and so is the prediction
        query = PersistenceQuery(n, theta, a, b)
        predicted = pers._piece_counts(query, pers._absorbing_level(query))
        assert [next(predicted) for _ in range(n)] == [len(f.pieces) for f, _ in pers._oracle_chain(query)]

    @pytest.mark.parametrize(
        "theta, a, b, n",
        [(F(3, 2), 1, 1, 10), (F(4, 5), 1, 1, 9), (F(7, 5), 3, 1, 8), (F(5, 7), 1, 3, 8), (F(6, 5), 1, 3, 7)],
    )
    def test_backward_piece_counts_are_the_reflected_prediction(self, theta, a, b, n):
        predicted = pers._piece_counts(PersistenceQuery(n, 1 / theta, b, a), None)
        chain = pers._backward_chain(PersistenceQuery(n, theta, a, b))
        assert [len(g.pieces) for g in chain] == [next(predicted) for _ in range(n)]

    @pytest.mark.parametrize("theta, a, b", [(F(4, 5), 1, 1), (F(5, 7), 1, 3), (F(5, 6), 3, 1)])
    def test_the_reflected_prediction_stays_uncut(self, monkeypatch, theta, a, b):
        # below drift 1 the reflected drift is above 1, where a cut would predict fewer
        # pieces than the backward chain has; the race must read the uncut counts
        n = 9
        reflected = PersistenceQuery(n, 1 / theta, b, a)
        uncut = pers._piece_counts(reflected, None)
        cut = pers._piece_counts(reflected, pers._absorbing_level(reflected))
        uncut, cut = [next(uncut) for _ in range(n)], [next(cut) for _ in range(n)]
        assert uncut != cut
        levels = []
        real = pers._piece_counts

        def recorded(query, level):
            levels.append((query, level))
            return real(query, level)

        monkeypatch.setattr(pers, "_piece_counts", recorded)
        query = PersistenceQuery(n, theta, a, b)
        pers._split(query, reflected)
        assert levels == [(query, None), (reflected, None)]

    def test_backward_chain_starts_at_the_linear_piece(self):
        # g_1 = 1 - u_1 = P[theta*y + X < 0] = (a - theta*y)/(a + b) on [0, a/theta]
        (g,) = pers._backward_chain(PersistenceQuery(1, F(3, 2), 2, 1))
        assert g == PiecewisePoly((0, F(4, 3)), (Polynomial((F(2, 3), F(-1, 2))),))

    @pytest.mark.parametrize(
        "n, theta, a, b",
        [(12, F(4, 5), 1, 1), (11, F(3, 2), 1, 1), (9, F(7, 5), 3, 1), (8, F(6, 5), 1, 3), (9, F(1), 2, 1), (3, F(4, 5), 1, 1)],
    )
    def test_a_window_query_makes_n_minus_1_pushforwards(self, monkeypatch, n, theta, a, b):
        # (K - 1) forward steps and (n - K) backward ones, g_0 = 0 included
        want = oracle_masses(PersistenceQuery(n, theta, a, b))
        calls = []
        real = pers.piecewise_pushforward

        def counted(f, *args):
            calls.append(args)
            return real(f, *args)

        monkeypatch.setattr(pers, "piecewise_pushforward", counted)
        lengths = self.splits(monkeypatch)
        assert persistence_prefix(n, theta, a, b) == want
        ((k, j),) = lengths
        assert calls == [(theta, a, b)] * (k - 1) + [(1 / theta, b / theta, a / theta)] * j
        assert len(calls) == n - 1

    def test_the_split_follows_the_cheaper_side_on_an_asymmetric_support(self):
        # at (7/5; 3, 1) the forward chain grows slower than the backward one, and the
        # reflected query (5/7; 1, 3) swaps the two chains, so its split mirrors this one
        query = PersistenceQuery(9, F(7, 5), 3, 1)
        reflected = PersistenceQuery(9, F(5, 7), 1, 3)
        assert classify(reflected) is Region.WINDOW
        assert pers._split(query, reflected) == 5
        assert pers._split(reflected, query) == 4

    def test_ties_go_to_the_direct_side(self):
        # at drift 1 on [-1, 1] both chains predict 1, 2, 3, ... pieces, so every
        # comparison after the first is a tie; forward on ties gives K = 5, backward K = 4
        query = PersistenceQuery(9, F(1))
        assert pers._split(query, query) == 5

    @pytest.mark.parametrize(
        "theta, a, b",
        [(F(3), 2, 1), (F(3, 2), F(1, 3), 2), (F(5), 1, 4), (F(7, 5), 3, 1), (F(1), 2, 1), (F(5, 4), 1, 2)],
    )
    def test_positive_factorization_needs_the_reflected_support(self, theta, a, b):
        ps = oracle_masses(PersistenceQuery(6, theta, a, b))
        qs = oracle_masses(PersistenceQuery(6, 1 / theta, b, a))
        assert [sum(ps[k] * qs[n - k] for k in range(n + 1)) for n in range(7)] == [1] * 7
        unreflected = oracle_masses(PersistenceQuery(1, 1 / theta, a, b))
        assert ps[0] * unreflected[1] + ps[1] * unreflected[0] == F(2 * b, a + b) != 1

    @pytest.mark.parametrize("theta", [F(-2), F(-1, 2)])
    def test_alternating_factorization_keeps_the_support(self, theta):
        ps = oracle_masses(PersistenceQuery(6, theta, 2, 1))
        qs = oracle_masses(PersistenceQuery(6, 1 / theta, 2, 1))
        assert [sum((-1) ** k * ps[k] * qs[n - k] for k in range(n + 1)) for n in range(7)] == [1] + [0] * 6

    @pytest.mark.parametrize("n, theta, split", [(11, F(3, 2), 7), (12, F(4, 5), 7), (16, F(4, 5), 9), (20, F(3, 2), 15)])
    def test_the_race_splits_where_the_predicted_pieces_are_fewest(self, monkeypatch, n, theta, split):
        # at 3/2 the forward chain is cut at T = 2 and grows one piece a step
        query, reflected = PersistenceQuery(n, theta), PersistenceQuery(n, 1 / theta)
        forward, backward = pers._piece_counts(query, pers._absorbing_level(query)), pers._piece_counts(reflected, None)
        f = [next(forward) for _ in range(n)]  # f_1..f_n
        g = [next(backward) for _ in range(n)]  # g_1..g_n
        totals = {k: sum(f[1:k]) + sum(g[: n - k]) for k in range(1, n + 1)}
        assert pers._split(query, reflected) == split == min(totals, key=totals.get)
        lengths = self.splits(monkeypatch)
        persistence_prefix(n, theta)
        assert lengths == [(split, n - split)]


def _hitting(n, theta):
    """P[T = n] = p_{n-1} - p_n for the first passage time below zero."""
    p = persistence_prefix(n, theta)
    return p[n - 1] - p[n]


class TestHitting:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_geometric_at_zero_drift(self, n):
        assert _hitting(n, F(0)) == F(1, 2**n)

    def test_reference_value(self):
        assert _hitting(3, F(3)) == F(5, 648)

    @pytest.mark.parametrize("theta", [F(2), F(3)])
    def test_closed_form_cross_check_runs(self, theta):
        # (-1)^(n-1) J~_{n+1}(1/theta) / (2^n n!) through n = 10
        j_tilde = scalar_families(1 / theta).j_tilde
        for n in range(1, 11):
            direct = F((-1) ** (n - 1)) * j_tilde(n + 1) / (2**n * factorial(n))
            assert _hitting(n, theta) == direct

    @pytest.mark.parametrize("theta", [F(0), F(-3, 2), F(4, 5), F(3)])
    def test_telescoping(self, theta):
        total = sum(_hitting(n, theta) for n in range(1, 9))
        assert total + persistence_exact(8, theta) == 1

class TestDuality:
    def test_trivial_positive_case(self):
        # p_0 p_1(1/3) + p_1(3) p_0 = 1/2 + 1/2 = 1
        assert duality_residuals(1, F(3))[1] == 0

    def test_trivial_negative_case(self):
        assert duality_residuals(1, F(-2))[1] == 0

    @pytest.mark.parametrize("theta", [F(-3), F(-3, 2), F(-1)])
    def test_alternating_zero(self, theta):
        assert duality_residuals(5, theta) == [0] * 6

    @pytest.mark.parametrize("theta", [F(3, 2), F(2), F(3)])
    def test_plain_one(self, theta):
        assert duality_residuals(5, theta) == [0] * 6

    def test_guards(self):
        with pytest.raises(DomainError):
            duality_residuals(2, F(0))

    def test_one_oracle_chain_per_drift_and_inverse(self, monkeypatch):
        drifts = []
        real = pers.oracle_masses

        def counted(query):
            drifts.append(query.theta)
            return real(query)

        monkeypatch.setattr(pers, "oracle_masses", counted)
        assert identities.check_duality_positive(4) == (True, "3 drifts, n<=4")
        assert drifts == [F(3, 2), F(2, 3), F(2), F(1, 2), F(3), F(1, 3)]

    @pytest.mark.parametrize(
        "check,inverse,detail",
        [
            (identities.check_duality_positive, F(1, 2), "theta=2, n=4"),
            (identities.check_duality_alternating, F(-2, 3), "theta=-3/2, n=4"),
        ],
    )
    def test_checks_fail_on_a_perturbed_inverse_chain(self, monkeypatch, check, inverse, detail):
        real = pers.oracle_masses

        def perturbed(query):
            masses = real(query)
            if query.theta == inverse:
                masses[4] += F(1, 10**6)
            return masses

        monkeypatch.setattr(pers, "oracle_masses", perturbed)
        assert check(8) == (False, detail)


class TestReuseScope:
    """``identities.run_all`` enters ``pers.reuse_scope`` for one verify run:
    inside it each route computes a distinct query once; outside it nothing
    is stored."""

    STEPS = ("_oracle_masses", "_prefix", "_closed_form")

    @staticmethod
    def pushforwards(monkeypatch):
        calls = []
        real = pers.piecewise_pushforward

        def counted(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(pers, "piecewise_pushforward", counted)
        return calls

    def test_verify_computes_each_distinct_query_once(self, monkeypatch):
        computed = {name: [] for name in self.STEPS}
        for name in self.STEPS:
            real = getattr(pers, name)

            def counted(query, real=real, calls=computed[name]):
                calls.append(query)
                return real(query)

            monkeypatch.setattr(pers, name, counted)
        results = identities.run_all(8)
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]
        for name, queries in computed.items():
            assert queries, name
            assert len(queries) == len(set(queries)), name

    def test_outside_the_scope_every_call_computes(self, monkeypatch):
        calls = self.pushforwards(monkeypatch)
        query = PersistenceQuery(5, F(1, 2))
        assert oracle_masses(query) == oracle_masses(query)
        assert len(calls) == 2 * 4

    def test_a_mutated_result_leaves_the_stored_one_alone(self, monkeypatch):
        query = PersistenceQuery(6, F(4, 5))
        want_masses = oracle_masses(query)
        want_prefix = persistence_prefix(6, F(4, 5))
        calls = self.pushforwards(monkeypatch)
        with pers.reuse_scope():
            for _ in range(3):
                masses = oracle_masses(query)
                prefix = persistence_prefix(6, F(4, 5))
                assert masses == want_masses and prefix == want_prefix
                masses[3] += 1
                prefix.append(F(0))
        assert len(calls) == 5 + 5  # n - 1 each: one oracle chain, one prefix whose chains meet

    def test_a_check_that_raises_leaves_no_scope_behind(self, monkeypatch):
        def failing(nmax):
            oracle_masses(PersistenceQuery(nmax, F(1, 2)))
            raise ZeroDivisionError("check failed")

        monkeypatch.setattr(identities, "ALL_CHECKS", [("failing", failing)])
        with pytest.raises(ZeroDivisionError):
            identities.run_all(5)
        assert pers._REUSE.get() is None
        calls = self.pushforwards(monkeypatch)
        oracle_masses(PersistenceQuery(5, F(1, 2)))
        assert len(calls) == 4


class TestRandomizedCrossChecks:
    """Hypothesis fuzz over random rational drifts: the oracle, the closed
    forms and the duality factorizations must agree exactly everywhere."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    drifts = st.fractions(min_value=-4, max_value=4, max_denominator=12)

    @given(drifts)
    @settings(max_examples=25, deadline=None)
    def test_oracle_agrees_with_any_available_closed_form(self, theta):
        masses = oracle_masses(PersistenceQuery(4, theta))
        for n in range(5):
            q = PersistenceQuery(n, theta)
            if classify(q) is not Region.WINDOW:
                assert persistence_closed_form(q) == masses[n]

    @given(st.fractions(min_value=-4, max_value=-1, max_denominator=9).filter(lambda x: x != 0))
    @settings(max_examples=15, deadline=None)
    def test_alternating_duality_everywhere(self, theta):
        assert duality_residuals(3, theta) == [0] * 4

    @given(st.fractions(min_value=1, max_value=4, max_denominator=9).filter(lambda x: x > 0))
    @settings(max_examples=15, deadline=None)
    def test_plain_duality_everywhere(self, theta):
        assert duality_residuals(3, theta) == [0] * 4

    @given(drifts, st.fractions(min_value="1/4", max_value=3, max_denominator=6),
           st.fractions(min_value="1/4", max_value=3, max_denominator=6))
    @settings(max_examples=20, deadline=None)
    def test_masses_shrink_for_any_support(self, theta, a, b):
        masses = oracle_masses(PersistenceQuery(4, theta, a, b))
        assert all(0 <= m <= 1 for m in masses)
        assert all(x >= y for x, y in zip(masses, masses[1:]))


class TestShapeProperties:
    def test_drift_monotonicity(self):
        grid = [F(k, 2) for k in range(-6, 7)]
        for n in (3, 5):
            vals = [persistence_exact(n, th) for th in grid]
            assert all(x <= y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta", [F(-2), F(0), F(4, 5), F(3)])
    def test_horizon_monotonicity(self, theta):
        chain = persistence_prefix(6, theta)
        assert all(x >= y for x, y in zip(chain, chain[1:]))

    def test_superadditive_positive_drift(self):
        p = persistence_prefix(8, F(4, 5))
        for n in range(1, 8):
            for m in range(1, 9 - n):
                assert p[n + m] >= p[n] * p[m]

    def test_subadditive_negative_drift(self):
        p = persistence_prefix(8, F(-3, 2))
        for n in range(1, 8):
            for m in range(1, 9 - n):
                assert p[n + m] <= p[n] * p[m]

    def test_coefficient_stability_in_inverse_drift(self):
        # leading expansion coefficients of p_n as a series in 1/theta are
        # shared by all n >= k+1
        from ar1lab.families import j_hat
        from math import factorial

        for k in range(5):
            ref = None
            for n in range(k + 1, 11):
                poly = j_hat(n + 1)
                coeffs = tuple(poly.coefficient(i) / (2**n * factorial(n)) for i in range(k + 1))
                if ref is None:
                    ref = coeffs
                else:
                    assert coeffs == ref
