"""Monte Carlo engine: determinism, coupling, identity checks, volumes."""

import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from ar1lab.asymptotics import qseries_biexp_coeffs
from ar1lab.errors import DomainError
from ar1lab.families import mallows_riordan
from ar1lab import montecarlo as mc

SEED = 90210


def _sample(law, rng, shape):
    """One draw of `shape` from `law`: the concatenation of its chunks."""
    return np.concatenate(list(law.chunks(rng, shape, shape[0])))


class TestLaws:
    def test_flags(self):
        assert mc.InnovationLaw("uniform", a=1, b=1).symmetric
        assert not mc.InnovationLaw("uniform", a=2, b=1).symmetric
        assert mc.InnovationLaw("gaussian").symmetric and mc.InnovationLaw("gaussian").continuous
        assert mc.InnovationLaw("biexponential").symmetric
        atom = mc.InnovationLaw("atomic_negative", c=0.3)
        assert not atom.continuous and not atom.symmetric

    def test_validation(self):
        with pytest.raises(DomainError):
            mc.InnovationLaw("cauchy")
        with pytest.raises(DomainError):
            mc.InnovationLaw("uniform", a=0, b=1)
        with pytest.raises(DomainError):
            mc.InnovationLaw("atomic_negative", c=0.0)

    def test_atomic_sampler_masses(self):
        rng = mc._block_rng(SEED, 0, 0)
        x = _sample(mc.InnovationLaw("atomic_negative", c=0.25), rng, (20000,))
        assert np.all(x <= 0)
        assert abs((x < 0).mean() - 0.25) < 0.02


class TestMCEstimate:
    @pytest.mark.parametrize("target, inside", [(0.25, True), (0.5, True), (0.2499, False), (0.5001, False)])
    def test_interval_is_closed_at_both_ends(self, target, inside):
        est = mc.MCEstimate(30, 80, 0.375, 0.25, 0.5)
        assert est.contains(target) is inside

    def test_volume_interval_is_the_wilson_interval_scaled_by_the_box(self):
        est = mc.polytope_volume_mc(mc.PolytopeSpec("cayley", 2), 2000, SEED)
        box = 3.0  # widths 1 and 3
        lo, hi = mc.wilson_interval(est.successes, est.trials)
        assert (est.point, est.ci_low, est.ci_high) == (est.successes / est.trials * box, lo * box, hi * box)
        assert est.contains(est.ci_low) and est.contains(est.ci_high)
        assert not est.contains(math.nextafter(est.ci_low, 0.0))
        assert not est.contains(math.nextafter(est.ci_high, math.inf))


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = mc.wilson_interval(7, 100)
        assert lo < 0.07 < hi

    def test_handles_extremes(self):
        # exact at the extreme counts, where the float formula misses by a
        # rounding at about half of these trial counts
        for trials in range(1, 3001):
            lo, hi = mc.wilson_interval(0, trials)
            assert lo == 0.0 and 0 < hi < 1
            lo, hi = mc.wilson_interval(trials, trials)
            assert hi == 1.0 and 0 < lo < 1

    def test_narrows_with_trials(self):
        w1 = mc.wilson_interval(10, 100)
        w2 = mc.wilson_interval(1000, 10000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])


class TestDeterminism:
    def test_same_seed_same_count(self):
        law = mc.InnovationLaw("uniform")
        e1 = mc.estimate_persistence(0.3, law, 5, 70000, SEED)
        e2 = mc.estimate_persistence(0.3, law, 5, 70000, SEED)
        assert e1.successes == e2.successes

    def test_worker_count_invariance(self):
        law = mc.InnovationLaw("gaussian")
        e1 = mc.estimate_persistence(-0.7, law, 4, 100000, SEED, workers=1)
        e4 = mc.estimate_persistence(-0.7, law, 4, 100000, SEED, workers=4)
        assert e1.successes == e4.successes

    def test_streams_are_independent(self):
        law = mc.InnovationLaw("uniform")
        a = mc.estimate_persistence(0.3, law, 5, 50000, SEED, stream=0)
        b = mc.estimate_persistence(0.3, law, 5, 50000, SEED, stream=1)
        assert a.successes != b.successes

    def test_nonpositive_workers_refused(self):
        for workers in (0, -3):
            for n in (0, 3):
                with pytest.raises(DomainError):
                    mc.estimate_persistence(0.5, mc.InnovationLaw("uniform"), n, 100, SEED, workers=workers)


def _alive_reference(theta, x):
    """The full-width survival loop: every path updated at every step."""
    y = np.zeros(len(x))
    alive = np.ones(len(x), dtype=bool)
    for k in range(x.shape[1]):
        y = theta * y + x[:, k]
        alive &= y >= 0.0
    return alive


def _atomic_full_draw(law, rng, shape):
    # the atomic law as first defined, by two draws over the whole shape: its
    # negative magnitudes were exponential, and a survival count never read them
    u = rng.random(shape)
    neg = rng.standard_exponential(shape)
    return np.where(u < law.c, -neg, 0.0)


def _full_draw(law, rng, shape):
    """The law's innovations from draws over the whole shape, none of them chunked."""
    if law.kind == "uniform":
        return rng.uniform(-law.a, law.b, shape)
    if law.kind == "gaussian":
        return rng.standard_normal(shape)
    if law.kind == "biexponential":
        mag = rng.standard_exponential(shape)
        return np.where(rng.integers(0, 2, shape) == 1, mag, -mag)
    u = rng.random(shape)
    return np.where(u < law.c, u - law.c, 0.0)


def _full_blocks(draw, stream, trials, n):
    """Each block of `trials` rows drawn whole by draw(rng, (BLOCK_SIZE, n)), then cut."""
    return [draw(mc._block_rng(SEED, stream, block), (mc.BLOCK_SIZE, n))[:rows] for block, rows in mc._blocks(trials)]


class TestBlockKernel:
    LAWS = [
        mc.InnovationLaw("uniform"),
        mc.InnovationLaw("gaussian"),
        mc.InnovationLaw("biexponential"),
        mc.InnovationLaw("atomic_negative", c=0.4),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
    @pytest.mark.parametrize("theta", [-1.7, 0.0, 0.5, 1.0, 2.0])
    def test_compacted_survival_matches_the_full_width_loop(self, law, theta):
        x = _sample(law, mc._block_rng(SEED, 5, 0), (3000, 12))
        assert np.array_equal(mc._alive(theta, x), _alive_reference(theta, x))

    def test_every_path_dead_before_the_horizon(self):
        # all innovations negative: every path dies at step 1 of 8
        x = _sample(mc.InnovationLaw("atomic_negative", c=1.0), mc._block_rng(SEED, 6, 0), (500, 8))
        alive = mc._alive(0.5, x)
        assert alive.shape == (500,) and not alive.any()
        assert np.array_equal(alive, _alive_reference(0.5, x))

    @pytest.mark.parametrize(
        "shape, rows",
        [((3 * mc.CHUNK_ROWS + 123, 7), 3 * mc.CHUNK_ROWS + 123)]
        + [((mc.BLOCK_SIZE, n), rows) for n in (1, 7, 20) for rows in (1, 10, mc.CHUNK_ROWS, mc.CHUNK_ROWS + 1, 4097 * 3)],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"rows{v}",
    )
    def test_biexponential_sample_matches_the_full_sign_draw(self, shape, rows):
        # the signs start after the block's whole magnitude draw, however few rows are read
        chunks = list(mc.InnovationLaw("biexponential").chunks(mc._block_rng(SEED, 2, 1), shape, rows))
        assert [len(x) for x in chunks] == [stop - start for start, stop in mc._spans(rows)]
        rng = mc._block_rng(SEED, 2, 1)
        mag = rng.standard_exponential(shape)
        expected = np.where(rng.integers(0, 2, shape) == 1, mag, -mag)[:rows]
        assert np.array_equal(np.concatenate(chunks).view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n, rows, chunks_held", [(512, 10, 1), (20, mc.BLOCK_SIZE, 2)])
    def test_biexponential_block_is_held_one_chunk_at_a_time(self, n, rows, chunks_held):
        # the block's whole magnitude draw is 128 MB at n = 512 and 5.2 MB at n = 20;
        # a full block holds one chunk and its int32 signs while it is signed
        law = mc.InnovationLaw("biexponential")
        tracemalloc.start()
        try:
            assert sum(map(len, law.chunks(mc._block_rng(SEED, 2, 4), (mc.BLOCK_SIZE, n), rows))) == rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunks_held * mc.CHUNK_ROWS * n * 8

    def test_atomic_sample_matches_the_full_magnitude_draw(self):
        shape = (3 * mc.CHUNK_ROWS + 123, 7)
        law = mc.InnovationLaw("atomic_negative", c=0.4)
        got = _sample(law, mc._block_rng(SEED, 3, 1), shape)
        assert np.array_equal(got.view(np.uint64), _full_draw(law, mc._block_rng(SEED, 3, 1), shape).view(np.uint64))

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
    def test_partial_block_chunks_are_the_rows_of_the_full_draw(self, law):
        # bit for bit, magnitudes included, which no survival count reads
        shape, rows = (mc.BLOCK_SIZE, 5), mc.CHUNK_ROWS + 904
        chunks = list(law.chunks(mc._block_rng(SEED, 7, 0), shape, rows))
        assert [len(x) for x in chunks] == [mc.CHUNK_ROWS, 904]
        want = _full_draw(law, mc._block_rng(SEED, 7, 0), shape)[:rows]
        assert np.array_equal(np.concatenate(chunks).view(np.uint64), want.view(np.uint64))

    def test_uniform_chunks_read_rational_half_widths_as_numpy_does(self):
        law, shape = mc.InnovationLaw("uniform", a=F(1, 3), b=F(2, 7)), (mc.CHUNK_ROWS + 77, 4)
        got = _sample(law, mc._block_rng(SEED, 8, 0), shape)
        want = mc._block_rng(SEED, 8, 0).uniform(-F(1, 3), F(2, 7), shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
    def test_successes_match_the_full_block_draw(self, law, workers):
        # two blocks of 8 and 2 chunks, the second block partial
        theta, n, trials = 0.8, 6, mc.BLOCK_SIZE + 5000
        blocks = _full_blocks(lambda rng, shape: _full_draw(law, rng, shape), 4, trials, n)
        want = sum(int(_alive_reference(theta, x).sum()) for x in blocks)
        assert want > 0
        assert mc.estimate_persistence(theta, law, n, trials, SEED, stream=4, workers=workers).successes == want

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("theta", [-1.7, 0.8])
    def test_atomic_successes_match_the_two_draw_law(self, theta, workers):
        # a path from Y_0 = 0 survives while its innovations are 0, and the zeros
        # (u >= c) are the same in both laws, so the negative magnitudes are unread
        law, n, trials = mc.InnovationLaw("atomic_negative", c=0.4), 6, mc.BLOCK_SIZE + 5000
        blocks = _full_blocks(lambda rng, shape: _atomic_full_draw(law, rng, shape), 9, trials, n)
        want = sum(int(_alive_reference(theta, x).sum()) for x in blocks)
        assert want > 0
        assert mc.estimate_persistence(theta, law, n, trials, SEED, stream=9, workers=workers).successes == want

    @pytest.mark.parametrize("spec", [mc.PolytopeSpec("cayley", 4), mc.PolytopeSpec("zigzag", 3)], ids=lambda s: s.kind)
    def test_volume_hits_match_the_full_block_draw(self, spec):
        trials = mc.BLOCK_SIZE + 5000
        box = mc.polytope_box(spec)
        widths = np.array([float(hi - lo) for lo, hi in box])
        los = np.array([float(lo) for lo, _ in box])
        blocks = _full_blocks(lambda rng, shape: rng.random(shape), 0, trials, spec.n)
        want = sum(int(mc._membership(spec, pts * widths + los).sum()) for pts in blocks)
        assert mc.polytope_volume_mc(spec, trials, SEED).successes == want

    @pytest.mark.parametrize(
        "run",
        [
            lambda n: mc.estimate_persistence(0.5, mc.InnovationLaw("gaussian"), n, 8192, SEED, workers=1),
            lambda n: mc.estimate_persistence(0.5, mc.InnovationLaw("atomic_negative", c=0.3), n, 8192, SEED, workers=1),
            lambda n: mc.polytope_volume_mc(mc.PolytopeSpec("zigzag", n), 8192, SEED),
        ],
        ids=["estimate", "atomic", "volume"],
    )
    def test_a_long_horizon_block_is_held_one_chunk_at_a_time(self, run):
        # one (BLOCK_SIZE, 1000) float64 block is 262 MB, a chunk of it 32.8 MB;
        # the 8192 rows make two chunks, and the first is dropped before the second
        n = 1000
        tracemalloc.start()
        try:
            run(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * mc.CHUNK_ROWS * n * 8

    @pytest.mark.parametrize("theta", [0.8, -2.0])
    def test_negative_zero_innovations_survive(self, theta):
        # a zero magnitude gives the innovation -0.0, and theta*0.0 + (-0.0) >= 0 holds;
        # the least negative float kills its path
        x = np.array([[-0.0] * 4, [-0.0, -0.0, -5e-324, -0.0]])
        assert mc._alive(theta, x).tolist() == [True, False]
        assert np.array_equal(mc._alive(theta, x), _alive_reference(theta, x))

    def test_worker_clamp(self):
        cpus = mc.usable_cpus()
        assert cpus >= 1
        assert mc._worker_count(10**9, 10**6) == cpus
        assert mc._worker_count(10**9, 1) == 1
        assert mc._worker_count(1, 100) == 1
        assert mc._worker_count(cpus + 1, 100) == cpus
        assert mc._worker_count(2, 0) == 1

    def test_usable_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        assert mc.usable_cpus() == (mc.os.cpu_count() or 1)

    def test_block_map_keeps_block_order(self):
        trials = 3 * mc.BLOCK_SIZE + 1
        assert mc._map_blocks(lambda item: item, trials, 4) == mc._blocks(trials)


class TestEstimates:
    def test_white_noise_target(self):
        est = mc.estimate_persistence(0.0, mc.InnovationLaw("uniform"), 10, 400000, SEED)
        assert est.contains(2**-10)

    def test_gaussian_random_walk(self):
        target = math.comb(12, 6) / 4**6
        est = mc.estimate_persistence(1.0, mc.InnovationLaw("gaussian"), 6, 200000, SEED)
        assert est.contains(target)

    def test_biexponential_negative_drift(self):
        est = mc.estimate_persistence(-1.0, mc.InnovationLaw("biexponential"), 4, 400000, SEED)
        assert est.contains(1 / 128)

    def test_horizon_zero(self):
        est = mc.estimate_persistence(0.5, mc.InnovationLaw("uniform"), 0, 100, SEED)
        assert est.point == 1.0


class TestCoupling:
    def test_pathwise_monotone_in_nonnegative_drift(self):
        # common innovations: for drifts 0 <= t1 <= t2 a path alive at t1 is alive at t2
        x = _sample(mc.InnovationLaw("uniform"), mc._block_rng(SEED, 0, 0), (mc.BLOCK_SIZE, 6))
        surv = [mc._alive(th, x) for th in (0.0, 0.4, 1.1, 2.0)]
        for lo, hi in zip(surv, surv[1:]):
            assert np.all(lo <= hi)
        assert surv[0].sum() < surv[-1].sum()


class TestIdentityChecks:
    def test_gaussian_negative_drift(self):
        rep = mc.mc_identity_check(-1.7, mc.InnovationLaw("gaussian"), 5, 150000, SEED)
        assert rep.passed, rep.z_scores

    def test_biexponential_positive_drift(self):
        rep = mc.mc_identity_check(2.5, mc.InnovationLaw("biexponential"), 5, 150000, SEED)
        assert rep.passed, rep.z_scores

    def test_atomic_counterexample_targets(self):
        c = 0.3
        rep = mc.mc_identity_check(-2.0, mc.InnovationLaw("atomic_negative", c=c), 2, 300000, SEED)
        assert rep.targets[0] == 0.0
        assert rep.targets[1] == pytest.approx((1 - c) ** 2)
        assert rep.passed

    def test_zero_drift_rejected(self):
        with pytest.raises(DomainError):
            mc.mc_identity_check(0.0, mc.InnovationLaw("gaussian"), 3, 100, SEED)

    @pytest.mark.parametrize("theta", [-2.0, 1.5])
    @pytest.mark.parametrize("n_max", [0, -1])
    def test_horizon_below_one_rejected(self, theta, n_max):
        with pytest.raises(DomainError):
            mc.mc_identity_check(theta, mc.InnovationLaw("gaussian"), n_max, 100, SEED)


class TestPolytopes:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            mc.PolytopeSpec("cube", 3)
        with pytest.raises(DomainError):
            mc.PolytopeSpec("tutte_q", 3, q=F(2), t=F(1))
        with pytest.raises(DomainError, match="needs t > 0 for the closed form"):
            mc.PolytopeSpec("tutte_q", 3, q=F(1, 2), t=F(0))
        with pytest.raises(DomainError):
            mc.PolytopeSpec("tutte_limit", 3)

    def test_exact_targets(self):
        assert mc.polytope_exact_target(mc.PolytopeSpec("zigzag", 4)) == F(5, 24)
        assert mc.polytope_exact_target(mc.PolytopeSpec("cayley", 3)) == F(38, 6)
        # hand-integrated planar case of the q-deformed polytope
        spec = mc.PolytopeSpec("tutte_q", 2, q=F(1, 2), t=F(1))
        assert mc.polytope_exact_target(spec) == F(23, 8)
        # the limit polytope at t=1 is the same object as the direct kind
        assert mc.polytope_exact_target(
            mc.PolytopeSpec("tutte_limit", 3, t=F(1))
        ) == mc.polytope_exact_target(mc.PolytopeSpec("cayley", 3))

    def test_cayley_target_is_the_value_of_the_polynomial(self):
        # the scalar table at drift 2 against the polynomial J_{n+1} evaluated at 2
        for n in range(1, 13):
            want = mallows_riordan(n + 1)(F(2)) / math.factorial(n)
            assert mc.polytope_exact_target(mc.PolytopeSpec("cayley", n)) == want

    @pytest.mark.parametrize(
        "spec",
        [
            mc.PolytopeSpec("zigzag", 4),
            mc.PolytopeSpec("cayley", 3),
            mc.PolytopeSpec("tutte_q", 2, q=F(1, 2), t=F(1)),
            mc.PolytopeSpec("tutte_q", 3, q=F(1, 2), t=F(1)),
        ],
    )
    def test_estimates_cover_targets(self, spec):
        # a strict 95% interval check on one frozen draw fails 5% of the
        # time by design; unit tests use a 3.5-sigma band and leave interval
        # coverage accounting to the acceptance battery
        est = mc.polytope_volume_mc(spec, 150000, SEED)
        target = float(mc.polytope_exact_target(spec))
        sigma = (est.ci_high - est.ci_low) / (2 * 1.96)
        assert abs(est.point - target) < 3.5 * sigma

    def test_volume_determinism(self):
        spec = mc.PolytopeSpec("zigzag", 4)
        a = mc.polytope_volume_mc(spec, 80000, SEED)
        b = mc.polytope_volume_mc(spec, 80000, SEED)
        assert a.successes == b.successes


class TestExactTargets:
    def test_uniform_dispatch(self):
        from ar1lab.persistence import persistence_exact

        expected = float(persistence_exact(4, F(1, 2)))
        assert mc.exact_persistence_target(0.5, mc.InnovationLaw("uniform"), 4) == pytest.approx(expected)

    def test_symmetric_uniform_universal_laws_are_the_rounded_oracle_values(self):
        from ar1lab.persistence import persistence_exact

        for n in (1, 2, 7, 30, 60):
            assert float(persistence_exact(n, 1)) == math.comb(2 * n, n) / 4**n
            assert float(persistence_exact(n, 0, F(1, 3), F(1, 3))) == 0.5**n

    def test_known_targets(self):
        assert mc.exact_persistence_target(1.0, mc.InnovationLaw("gaussian"), 6) == pytest.approx(
            math.comb(12, 6) / 4**6
        )
        assert mc.exact_persistence_target(-1.0, mc.InnovationLaw("biexponential"), 4) == pytest.approx(1 / 128)
        assert mc.exact_persistence_target(0.0, mc.InnovationLaw("gaussian"), 7) == pytest.approx(2**-7)
        assert mc.exact_persistence_target(-0.3, mc.InnovationLaw("gaussian"), 4) is None

    @pytest.mark.parametrize(
        "law", [mc.InnovationLaw("gaussian"), mc.InnovationLaw("biexponential")], ids=lambda law: law.kind
    )
    def test_random_walk_target_past_where_four_to_the_n_overflows(self, law):
        for n in (511, 512, 2000):
            assert mc.exact_persistence_target(1, law, n) == float(F(math.comb(2 * n, n), 4**n))

    def test_biexponential_target_within_the_extraction_reach(self):
        law = mc.InnovationLaw("biexponential")
        assert mc.exact_persistence_target(0.5, law, 20) == qseries_biexp_coeffs(0.5, 20)[20] == 0.000730935827959911
        assert mc.exact_persistence_target(0.5, law, 33) == qseries_biexp_coeffs(0.5, 33)[33]

    @pytest.mark.parametrize("n", [34, 45, 64])
    def test_biexponential_target_refused_past_the_extraction_reach(self, n):
        # at drift 1/2 the extracted p_34 and p_45 are negative, and the 128-point
        # extraction cannot serve n = 64 at all
        assert mc.exact_persistence_target(0.5, mc.InnovationLaw("biexponential"), n) is None
