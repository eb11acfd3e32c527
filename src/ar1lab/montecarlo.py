"""Deterministic, seedable Monte Carlo engine.

Paths are laid out in fixed-size blocks; block b of an operation draws from
a Philox counter-based stream keyed by (seed, stream id, b), so results are
bit-identical for any worker count and any trials count, and every estimate
inside a composite check owns an independent substream.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np
from numpy.random import Generator, Philox

from ar1lab.asymptotics import biexp_persistence_nonpositive, float_value, qseries_biexp_coeffs
from ar1lab.errors import DomainError
from ar1lab.families import mallows_riordan, tutte_modified_eval, zigzag
from ar1lab.persistence import persistence_exact

BLOCK_SIZE = 1 << 15


# ---------------------------------------------------------------------------
# Innovation laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnovationLaw:
    """Innovation distribution: uniform[-a,b], biexponential, gaussian,
    or the atomic counterexample law (mass 1-c at zero, c on negatives)."""

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

    def sample(self, rng: Generator, shape) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(-self.a, self.b, shape)
        if self.kind == "gaussian":
            return rng.standard_normal(shape)
        if self.kind == "biexponential":
            mag = rng.standard_exponential(shape)
            signs = rng.integers(0, 2, shape)
            return np.where(signs == 1, mag, -mag)
        u = rng.random(shape)
        neg = rng.standard_exponential(shape)
        return np.where(u < self.c, -neg, 0.0)


def uniform_law(a: float | Fraction = 1.0, b: float | Fraction = 1.0) -> InnovationLaw:
    return InnovationLaw("uniform", a=a, b=b)


def biexponential_law() -> InnovationLaw:
    return InnovationLaw("biexponential")


def gaussian_law() -> InnovationLaw:
    return InnovationLaw("gaussian")


def atomic_negative_law(c: float) -> InnovationLaw:
    return InnovationLaw("atomic_negative", c=c)


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
    seed: int

    def scaled(self, factor: float) -> "MCEstimate":
        return MCEstimate(
            self.successes,
            self.trials,
            self.point * factor,
            self.ci_low * factor,
            self.ci_high * factor,
            self.seed,
        )

    def contains(self, target: float) -> bool:
        return self.ci_low <= target <= self.ci_high


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Score interval for a binomial proportion; robust near 0 and 1."""
    if trials < 1:
        raise DomainError("need at least one trial")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _make_estimate(successes: int, trials: int, seed: int) -> MCEstimate:
    lo, hi = wilson_interval(successes, trials)
    return MCEstimate(successes, trials, successes / trials, lo, hi, seed)


def _binomial_sigma(successes: int, trials: int) -> float:
    # shrunk proportion keeps the propagated error positive at 0 successes
    p = (successes + 0.5) / (trials + 1.0)
    return math.sqrt(p * (1.0 - p) / trials)


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------


def _block_rng(seed: int, stream: int, block: int) -> Generator:
    return Generator(Philox(key=seed, counter=[0, 0, stream, block]))


def _draw_block(draw, seed: int, stream: int, block: int, rows: int, n: int) -> np.ndarray:
    # the full block is drawn then cut, so a partial block draws what a full one does
    return draw(_block_rng(seed, stream, block), (BLOCK_SIZE, n))[:rows]


def _alive(theta: float, x: np.ndarray) -> np.ndarray:
    """Survival mask of the paths from Y_0 = 0 whose innovations are the rows of x."""
    y = np.zeros(len(x))
    alive = np.ones(len(x), dtype=bool)
    for k in range(x.shape[1]):
        y = theta * y + x[:, k]
        alive &= y >= 0.0
    return alive


def _blocks(trials: int) -> list[tuple[int, int]]:
    return [(b, min(BLOCK_SIZE, trials - b * BLOCK_SIZE)) for b in range(-(-trials // BLOCK_SIZE))]


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
    if trials < 1:
        raise DomainError("need at least one trial")
    if n < 0:
        raise DomainError("horizon must be >= 0")
    if n == 0:
        return _make_estimate(trials, trials, seed)

    def run(item: tuple[int, int]) -> int:
        return int(_alive(theta, _draw_block(law.sample, seed, stream, *item, n)).sum())

    items = _blocks(trials)
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            successes = sum(pool.map(run, items))
    else:
        successes = sum(map(run, items))
    return _make_estimate(successes, trials, seed)


def survival_indicators(
    thetas: list[float], law: InnovationLaw, n: int, trials: int, seed: int, stream: int = 0
) -> dict[float, np.ndarray]:
    """Per-path survival indicators under common random innovations.

    For drifts 0 <= t1 <= t2 the indicator for t1 never exceeds that for t2
    path by path, which is the exact coupling monotonicity statement.
    """
    out = {th: [] for th in thetas}
    for block, rows in _blocks(trials):
        x = _draw_block(law.sample, seed, stream, block, rows, n)
        for th in thetas:
            out[th].append(_alive(th, x))
    return {th: np.concatenate(parts) for th, parts in out.items()}


# ---------------------------------------------------------------------------
# Statistical verification of the drift-inversion identities
# ---------------------------------------------------------------------------


@dataclass
class IdentityCheckReport:
    theta: float
    law: InnovationLaw
    n_max: int
    trials: int
    seed: int
    alternating: bool
    estimates_theta: list[MCEstimate] = field(default_factory=list)
    estimates_inverse: list[MCEstimate] = field(default_factory=list)
    targets: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    sigmas: list[float] = field(default_factory=list)
    z_scores: list[float] = field(default_factory=list)
    flagged: list[int] = field(default_factory=list)

    @property
    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.z_scores)

    @property
    def passed(self) -> bool:
        return not self.flagged


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
    z_flag: float = 4.0,
) -> IdentityCheckReport:
    """Estimate both drift families and test the inversion factorizations.

    For theta < 0 the alternating sum over p_k(theta) p_{n-k}(1/theta) is
    compared to 0 (or to its atomic-law value for the counterexample law);
    for theta > 0 the plain sum is compared to 1.  Every estimate uses its
    own substream; residuals are flagged beyond z_flag propagated standard
    errors.
    """
    if theta == 0.0:
        raise DomainError("duality checks need nonzero drift")
    alternating = theta < 0.0
    report = IdentityCheckReport(theta, law, n_max, trials, seed, alternating)
    sides = []
    for side, th in enumerate((theta, 1.0 / theta)):
        ests = [None]  # p_0 = 1 exactly
        for k in range(1, n_max + 1):
            ests.append(
                estimate_persistence(th, law, k, trials, seed, stream=side * 64 + k)
            )
        sides.append(ests)
    report.estimates_theta = sides[0][1:]
    report.estimates_inverse = sides[1][1:]

    def value(side: int, k: int) -> tuple[float, float]:
        if k == 0:
            return 1.0, 0.0
        e = sides[side][k]
        return e.point, _binomial_sigma(e.successes, e.trials)

    n_start = 1 if alternating else 0
    for n in range(n_start, n_max + 1):
        acc = 0.0
        var = 0.0
        for k in range(n + 1):
            p, sp = value(0, k)
            q, sq = value(1, n - k)
            sign = -1.0 if (alternating and k % 2 == 1) else 1.0
            acc += sign * p * q
            var += (q * sp) ** 2 + (p * sq) ** 2
        target = _alternating_target(law, n) if alternating else 1.0
        resid = acc - target
        sigma = math.sqrt(var)
        zval = resid / sigma if sigma > 0 else (0.0 if resid == 0 else math.inf)
        report.targets.append(target)
        report.residuals.append(resid)
        report.sigmas.append(sigma)
        report.z_scores.append(zval)
        if abs(zval) > z_flag:
            report.flagged.append(n)
    return report


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
        return Fraction(mallows_riordan(n + 1)(Fraction(2)), factorial(n))
    t = Fraction(spec.t)
    if spec.kind == "tutte_limit":
        return t**n * tutte_modified_eval(n + 1, Fraction(1), 1 + t) / factorial(n)
    q = Fraction(spec.q)
    if t == 0:
        raise DomainError("tutte_q volume needs t > 0 for the closed form")
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


def polytope_volume_mc(
    spec: PolytopeSpec, trials: int, seed: int, stream: int = 0
) -> MCEstimate:
    """Hit-or-miss volume estimate over the exact bounding box."""
    if trials < 1:
        raise DomainError("need at least one trial")
    box = polytope_box(spec)
    widths = [float(hi - lo) for lo, hi in box]
    los = [float(lo) for lo, _ in box]
    box_volume = 1.0
    for w in widths:
        if w <= 0:
            raise DomainError("degenerate bounding box")
        box_volume *= w
    hits = 0
    for block, rows in _blocks(trials):
        u = _draw_block(Generator.random, seed, stream, block, rows, spec.n)
        pts = u * np.array(widths) + np.array(los)
        hits += int(_membership(spec, pts).sum())
    return _make_estimate(hits, trials, seed).scaled(box_volume)


# ---------------------------------------------------------------------------
# Exact targets for simulation cross-checks
# ---------------------------------------------------------------------------


def exact_persistence_target(theta: float | Fraction, law: InnovationLaw, n: int) -> float | None:
    """Exact p_n at the exact theta and support if a closed route exists, else None."""
    t = float_value(theta, "drift")
    if n == 0:
        return 1.0
    if law.kind == "uniform":
        return float(persistence_exact(n, theta, law.a, law.b))
    if law.symmetric and law.continuous:
        if theta == 1:
            return math.comb(2 * n, n) / 4.0**n
        if theta == 0:
            return 0.5**n
    if law.kind == "biexponential":
        if theta <= 0:
            return float(biexp_persistence_nonpositive(theta, n))
        return qseries_biexp_coeffs(t, n)[n]
    return None
