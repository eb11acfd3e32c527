"""Deterministic, seedable Monte Carlo engine.

Paths are laid out in fixed-size blocks; block b of an operation draws from
a Philox counter-based stream keyed by (seed, stream id, b), so results are
bit-identical for any worker count and any trials count, and every estimate
inside a composite check owns an independent substream.  Blocks run on a
thread pool of at most the usable CPU count (the draws release the GIL).

Each block is drawn and consumed in chunks of CHUNK_ROWS rows: the survival
kernel (or the polytope membership test) reads each chunk as it is drawn,
through map(), which drops a chunk before the next is drawn.  Chunked draws
from one generator equal one full draw bit for bit, so a single-draw law
(uniform, gaussian, atomic, the volume sampler) holds one chunk at a time,
and a partial last block draws only its own rows.  The biexponential law
draws its signs after the block's whole magnitude draw, so it makes two
passes: the first runs the generator through that draw into one reused
buffer, and a copy set at the block's start redraws each chunk's magnitudes
as their signs are drawn.
"""

from __future__ import annotations

import concurrent.futures
import copy
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np
from numpy.random import Generator, Philox

from ar1lab.asymptotics import biexp_persistence_nonpositive, float_value, qseries_biexp_coeffs
from ar1lab.errors import DomainError
from ar1lab.families import scalar_families, tutte_modified_eval, zigzag
from ar1lab.persistence import persistence_exact

BLOCK_SIZE = 1 << 15
CHUNK_ROWS = 1 << 12  # rows of a block drawn and consumed at a time
Z95 = 1.959963984540054  # two-sided 95% standard normal quantile


# ---------------------------------------------------------------------------
# Innovation laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnovationLaw:
    """Innovation distribution: uniform[-a,b], biexponential, gaussian,
    or the atomic counterexample law (mass 1-c at zero, c on negatives).

    The atomic law is u - c where u < c, else +0.0, for u uniform on [0, 1), so
    its negative part is uniform on [-c, 0); survival counts read only its zeros.
    """

    kind: str
    a: float | Fraction = 1.0
    b: float | Fraction = 1.0
    c: float = 0.5

    KINDS = ("uniform", "biexponential", "gaussian", "atomic_negative")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown innovation law {self.kind!r}")
        if self.kind == "uniform":
            if self.a <= 0 or self.b <= 0:
                raise DomainError("uniform law needs positive half-widths")
            float_value(self.a, "half-width a")
            float_value(self.b, "half-width b")
        if self.kind == "atomic_negative" and not 0.0 < self.c <= 1.0:
            raise DomainError("atomic law needs mass c in (0, 1]")

    @property
    def symmetric(self) -> bool:
        if self.kind == "uniform":
            return self.a == self.b
        return self.kind in ("biexponential", "gaussian")

    @property
    def continuous(self) -> bool:
        return self.kind != "atomic_negative"

    def chunks(self, rng: Generator, shape, rows: int):
        """Rows [0, rows) of this law's draw of `shape` from rng, as arrays of at most
        CHUNK_ROWS rows, each bit-identical to those rows of one full draw."""
        if self.kind == "uniform":
            low, high = -float(self.a), float(self.b)  # what numpy reads from a Fraction
            yield from _drawn_in_chunks(lambda s: rng.uniform(low, high, s), shape, rows)
            return
        if self.kind == "gaussian":
            yield from _drawn_in_chunks(rng.standard_normal, shape, rows)
            return
        if self.kind == "atomic_negative":
            for u in _drawn_in_chunks(rng.random, shape, rows):
                u -= self.c  # negative exactly where u < c
                yield np.minimum(u, 0.0, out=u)
                del u  # drop this chunk before the next is drawn
            return
        # the signs follow the block's whole magnitude draw: rng runs through it,
        # and a copy from the block's start redraws it chunk by chunk
        size, redraw = math.prod(shape), copy.deepcopy(rng)
        buf = np.empty(CHUNK_ROWS)
        for start in range(0, size, CHUNK_ROWS):
            rng.standard_exponential(out=buf[: size - start])
        for start, stop in _spans(rows):
            part = redraw.standard_exponential((stop - start, *shape[1:]))
            signs = rng.integers(0, 2, part.shape, dtype=np.int32)  # the same words and values as int64
            signs <<= 1
            signs -= 1
            part *= signs  # negated where the sign is 0, so a zero becomes -0.0
            del signs
            yield part
            del part  # drop this chunk before the next is drawn


def _spans(rows: int) -> list[tuple[int, int]]:
    """(start, stop) of each chunk of rows [0, rows)."""
    return [(start, min(start + CHUNK_ROWS, rows)) for start in range(0, rows, CHUNK_ROWS)]


def _drawn_in_chunks(draw, shape, rows: int):
    """draw(chunk shape) for each chunk of rows [0, rows) of a single draw of `shape`,
    in order; a row never feeds an earlier one, so later rows are never drawn."""
    for start, stop in _spans(rows):
        yield draw((stop - start, *shape[1:]))


# ---------------------------------------------------------------------------
# Estimates and intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    successes: int
    trials: int
    point: float
    ci_low: float
    ci_high: float

    def contains(self, target: float) -> bool:
        return self.ci_low <= target <= self.ci_high


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion; robust near 0 and 1, and
    exactly 0 below at no successes and 1 above at all successes, where the
    float formula can miss by a rounding."""
    if trials < 1:
        raise DomainError("need at least one trial")
    z = Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _make_estimate(successes: int, trials: int) -> MCEstimate:
    lo, hi = wilson_interval(successes, trials)
    return MCEstimate(successes, trials, successes / trials, lo, hi)


def _binomial_sigma(successes: int, trials: int) -> float:
    # shrunk proportion keeps the propagated error positive at 0 successes
    p = (successes + 0.5) / (trials + 1.0)
    return math.sqrt(p * (1.0 - p) / trials)


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------


def _block_rng(seed: int, stream: int, block: int) -> Generator:
    return Generator(Philox(key=seed, counter=[0, 0, stream, block]))


def _alive(theta: float, x: np.ndarray) -> np.ndarray:
    """Survival mask of the paths from Y_0 = 0 whose innovations are the rows of x.

    Only living paths are updated, each by the same float operations as in a
    full-width loop, so the mask is the same bits; the loop ends when all die.
    The first step reads the first column whole, as every path is alive at Y_0.
    At a huge drift a survivor's value may overflow to +-inf, which keeps its
    sign and so its fate, so the overflow is not reported.
    """
    if not x.shape[1]:
        return np.ones(len(x), dtype=bool)
    y = theta * 0.0 + x[:, 0]
    idx = np.flatnonzero(y >= 0.0)
    y = y[idx]
    with np.errstate(over="ignore"):
        for k in range(1, x.shape[1]):
            if not len(idx):
                break
            y *= theta
            y += x[idx, k]
            keep = y >= 0.0
            idx, y = idx[keep], y[keep]
    alive = np.zeros(len(x), dtype=bool)
    alive[idx] = True
    return alive


def _blocks(trials: int) -> list[tuple[int, int]]:
    return [(b, min(BLOCK_SIZE, trials - b * BLOCK_SIZE)) for b in range(-(-trials // BLOCK_SIZE))]


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(requested: int, blocks: int) -> int:
    """Threads for `blocks` blocks: the request capped at the usable CPUs and the
    block count, so no more blocks are in flight than there are cores."""
    return max(1, min(requested, usable_cpus(), blocks))


def _map_blocks(run, trials: int, workers: int) -> list:
    """run((block, rows)) for every block of `trials` paths, in block order."""
    items = _blocks(trials)
    workers = _worker_count(workers, len(items))
    if workers == 1:
        return list(map(run, items))
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, items))


def check_run_arguments(n: int, trials: int, workers: int) -> None:
    """DomainError for a run that cannot start, raised before any target or draw."""
    if trials < 1:
        raise DomainError("need at least one trial")
    if n < 0:
        raise DomainError("horizon must be >= 0")
    if workers < 1:
        raise DomainError("need at least one worker")


def estimate_persistence(
    theta: float,
    law: InnovationLaw,
    n: int,
    trials: int,
    seed: int,
    stream: int = 0,
    workers: int = 1,
) -> MCEstimate:
    """Monte Carlo estimate of P[Y_1 >= 0, ..., Y_n >= 0] from Y_0 = 0.

    Deterministic for a given (seed, stream): the per-path innovations are a
    pure function of the path index, so the successes count is independent
    of the worker count and of the block layout.
    """
    check_run_arguments(n, trials, workers)
    if n == 0:
        return _make_estimate(trials, trials)

    def run(item: tuple[int, int]) -> int:
        block, rows = item
        chunks = law.chunks(_block_rng(seed, stream, block), (BLOCK_SIZE, n), rows)
        return sum(map(lambda x: int(_alive(theta, x).sum()), chunks))

    return _make_estimate(sum(_map_blocks(run, trials, workers)), trials)


# ---------------------------------------------------------------------------
# Statistical verification of the drift-inversion identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheckReport:
    """One z-score per checked horizon n, against the factorization's target."""

    targets: list[float]
    z_scores: list[float]

    @property
    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.z_scores)

    @property
    def passed(self) -> bool:
        return not any(abs(z) > 4.0 for z in self.z_scores)


def _alternating_target(law: InnovationLaw, n: int) -> float:
    if law.continuous:
        return 0.0
    c = law.c  # mass 1-c at zero: the sum telescopes to (1-c)^n (1+(-1)^n)/2
    return (1.0 - c) ** n * (1.0 + (-1.0) ** n) / 2.0


def mc_identity_check(
    theta: float,
    law: InnovationLaw,
    n_max: int,
    trials: int,
    seed: int,
) -> IdentityCheckReport:
    """Estimate both drift families and test the inversion factorizations.

    For theta < 0 the alternating sum over p_k(theta) p_{n-k}(1/theta) is
    compared to 0 (or to its atomic-law value for the counterexample law);
    for theta > 0 the plain sum is compared to 1.  Every estimate uses its
    own substream; the check fails where a residual is beyond 4 propagated
    standard errors.
    """
    if theta == 0.0:
        raise DomainError("duality checks need nonzero drift")
    if n_max < 1:
        raise DomainError("duality checks need n_max >= 1")
    alternating = theta < 0.0
    sides = []  # per drift, (value, standard error) of p_0..p_n_max
    for side, th in enumerate((theta, 1.0 / theta)):
        values = [(1.0, 0.0)]  # p_0 = 1 exactly
        for k in range(1, n_max + 1):
            e = estimate_persistence(th, law, k, trials, seed, stream=side * 64 + k)
            values.append((e.point, _binomial_sigma(e.successes, e.trials)))
        sides.append(values)
    ps, qs = sides
    targets, z_scores = [], []
    for n in range(1 if alternating else 0, n_max + 1):
        acc = 0.0
        var = 0.0
        for k in range(n + 1):
            p, sp = ps[k]
            q, sq = qs[n - k]
            sign = -1.0 if (alternating and k % 2 == 1) else 1.0
            acc += sign * p * q
            var += (q * sp) ** 2 + (p * sq) ** 2
        target = _alternating_target(law, n) if alternating else 1.0
        resid = acc - target
        sigma = math.sqrt(var)
        targets.append(target)
        z_scores.append(resid / sigma if sigma > 0 else (0.0 if resid == 0 else math.inf))
    return IdentityCheckReport(targets, z_scores)


# ---------------------------------------------------------------------------
# Polytope volumes by hit-or-miss sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolytopeSpec:
    """zigzag | cayley | tutte_limit(t) | tutte_q(q, t), in dimension n."""

    kind: str
    n: int
    q: Fraction | None = None
    t: Fraction | None = None

    KINDS = ("zigzag", "cayley", "tutte_limit", "tutte_q")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown polytope kind {self.kind!r}")
        if self.n < 1:
            raise DomainError("dimension must be >= 1")
        if self.kind == "tutte_q":
            if self.q is None or self.t is None:
                raise DomainError("tutte_q needs q and t")
            if not 0 < self.q <= 1:
                raise DomainError("tutte_q needs q in (0, 1]")
            if self.t < 0:
                raise DomainError("tutte_q needs t >= 0")
            if self.t == 0:
                raise DomainError("tutte_q volume needs t > 0 for the closed form")
        if self.kind == "tutte_limit" and (self.t is None or self.t < 0):
            raise DomainError("tutte_limit needs t >= 0")

    @property
    def effective_t(self) -> Fraction:
        return Fraction(1) if self.kind in ("zigzag", "cayley") else Fraction(self.t)


def polytope_box(spec: PolytopeSpec) -> list[tuple[Fraction, Fraction]]:
    """An exact bounding box containing the polytope."""
    n = spec.n
    if spec.kind == "zigzag":
        return [(Fraction(0), Fraction(1))] * n
    t = spec.effective_t
    if spec.kind in ("cayley", "tutte_limit"):
        return [(Fraction(1), (1 + t) ** i) for i in range(1, n + 1)]
    # feasibility forces x_j >= (1-q)/(1+t)^(n-j) >= 0 for the q-deformation
    return [(Fraction(0), (1 + t) ** j) for j in range(1, n + 1)]


def polytope_exact_target(spec: PolytopeSpec) -> Fraction:
    """Exact volume from the polynomial families."""
    n = spec.n
    if spec.kind == "zigzag":
        return Fraction(zigzag(n), factorial(n))
    if spec.kind == "cayley":
        return scalar_families(2).j(n + 1) / factorial(n)
    t = Fraction(spec.t)
    if spec.kind == "tutte_limit":
        return t**n * tutte_modified_eval(n + 1, Fraction(1), 1 + t) / factorial(n)
    q = Fraction(spec.q)
    return t**n * tutte_modified_eval(n + 1, 1 + q / t, 1 + t) / factorial(n)


def _membership(spec: PolytopeSpec, pts: np.ndarray) -> np.ndarray:
    n = spec.n
    if spec.kind == "zigzag":
        ok = np.ones(len(pts), dtype=bool)
        for i in range(n - 1):
            if i % 2 == 0:
                ok &= pts[:, i] < pts[:, i + 1]
            else:
                ok &= pts[:, i] > pts[:, i + 1]
        return ok
    t = float(spec.effective_t)
    if spec.kind in ("cayley", "tutte_limit"):
        ok = (pts[:, 0] >= 1.0) & (pts[:, 0] <= 1.0 + t)
        for i in range(1, n):
            ok &= (pts[:, i] >= 1.0) & (pts[:, i] <= (1.0 + t) * pts[:, i - 1])
        return ok
    q = float(spec.q)
    ok = pts[:, n - 1] >= 1.0 - q
    running_min = np.ones(len(pts))  # min over x_0 = 1 and earlier coordinates
    for j in range(1, n + 1):
        prev = pts[:, j - 2] if j >= 2 else np.ones(len(pts))
        rhs = q * (1.0 + t) * prev - t * (1.0 - q) * (1.0 - running_min)
        ok &= q * pts[:, j - 1] <= rhs
        running_min = np.minimum(running_min, pts[:, j - 1])
    return ok


def polytope_volume_mc(spec: PolytopeSpec, trials: int, seed: int) -> MCEstimate:
    """Hit-or-miss volume estimate over the exact bounding box."""
    check_run_arguments(spec.n, trials, 1)
    box = polytope_box(spec)
    widths = [float_value(hi - lo, "box width") for lo, hi in box]
    los = [float(lo) for lo, _ in box]
    if min(widths) <= 0:
        raise DomainError("degenerate bounding box")
    box_volume = math.prod(widths)
    if box_volume == math.inf:  # finite widths, yet their product overflows
        raise DomainError(f"box volume of about 1e{round(sum(map(math.log10, widths)))} has no float value")
    scale, shift = np.array(widths), np.array(los)

    def chunk_hits(pts: np.ndarray) -> int:
        pts *= scale  # the float operations of pts * widths + los, in place
        pts += shift
        return int(_membership(spec, pts).sum())

    def run(item: tuple[int, int]) -> int:
        block, rows = item
        return sum(map(chunk_hits, _drawn_in_chunks(_block_rng(seed, 0, block).random, (BLOCK_SIZE, spec.n), rows)))

    hits = sum(_map_blocks(run, trials, usable_cpus()))
    lo, hi = wilson_interval(hits, trials)
    return MCEstimate(hits, trials, hits / trials * box_volume, lo * box_volume, hi * box_volume)


# ---------------------------------------------------------------------------
# Exact targets for simulation cross-checks
# ---------------------------------------------------------------------------


def exact_persistence_target(theta: float | Fraction, law: InnovationLaw, n: int) -> float | None:
    """Exact p_n at the exact theta and support if a closed route exists, else None."""
    t = float_value(theta, "drift")
    if n == 0:
        return 1.0
    # the universal laws first: the window oracle at drift 1 grows with n
    if law.symmetric and law.continuous:
        if theta == 1:
            return math.comb(2 * n, n) / 4**n  # correctly rounded, and no overflow
        if theta == 0:
            return 0.5**n
    if law.kind == "uniform":
        return float(persistence_exact(n, theta, law.a, law.b))
    if law.kind == "biexponential":
        if theta <= 0:
            return float(biexp_persistence_nonpositive(theta, n))
        return _qseries_target(t, n)
    return None


def _qseries_target(theta: float, n: int) -> float | None:
    """p_n from the q-series extraction, or None past its reach: where it cannot
    serve n, or where p_0..p_n are not all positive and non-increasing, as every
    persistence sequence is."""
    try:
        ps = qseries_biexp_coeffs(theta, n)
    except DomainError:
        return None
    if ps[0] > 0 and all(0 < b <= a for a, b in zip(ps, ps[1:])):
        return ps[n]
    return None
