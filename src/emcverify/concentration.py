"""Distribution of eta = |G ∩ M| over random t-matchings, exact and sampled.

For a (k-1)-uniform family G inside the tail X and a uniformly random
t-matching M, the mean of eta is exactly alpha*t where alpha is the density
of G in its layer — each block of M is marginally a uniform (k-1)-set, and
expectation is linear regardless of the dependence between blocks.  The tail
is sub-Gaussian: Pr[|eta - alpha*t| >= 2*beta*sqrt(t)] <= 2*exp(-beta^2/2).

The exact law counts matchings by eta with a dynamic program over the
canonical recursion of `matchings.enumerate_matchings`, so it never lists the
matchings; `exact_eta_report` reads alpha*t, the mean and, through
`beta_tails`, the exact tail mass for each beta off those counts.  Its guard
refuses a shape before any work, from (n', k-1, t) alone.  Monte Carlo
reads the same tails off the histogram of one `matchings.matching_draws`
stream per call (`random.shuffle`'s stream, so seeded outputs are fixed),
and the event probe counts on one such stream.  Both reports check a given
beta grid where it enters, before any count or draw: every beta must be
finite and >= 0.  The tails take each |eta - alpha*t| once and compare it
with every beta's double cutoff 2*beta*sqrt(t) as an exact Fraction.

Everything family-side stays in exact rationals; only the gamma threshold and
the tail bounds use doubles (documented slack 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

from .core import FamilyTuple, Params, SetFamily, ShapeError, binomial, mask_bits
from .densities import sliced_profile
from .matchings import ENUMERATION_GUARD, matching_count, matching_draws, matching_shape

# The exact law refuses a shape only when it has more than ENUMERATION_GUARD
# matchings (the most the enumerator ever answered for) and its work bound
# exceeds this cap.  On a 2-vCPU VM a bound of 2.8e7 took 0.7 s at
# (n', k, t) = (22, 3, 7), and 3.0e7 took 0.7 s at (564, 2, 282).
EXACT_WORK_CAP = 30_000_000


def _check_block_family(g: SetFamily, params: Params) -> None:
    if g.n != params.n:
        raise ShapeError(f"block family ground [{g.n}] does not match n={params.n}")
    if g.k != params.k - 1:
        raise ShapeError(
            f"expected a ({params.k - 1})-uniform family of blocks, got {g.k}-uniform"
        )
    x_mask = params.x_mask
    if any(m & ~x_mask for m in g.members):
        raise ShapeError("block family must live inside X = [s+2, n]")


def layer_density(g: SetFamily, params: Params) -> Fraction:
    """alpha = |G| / C(n', k-1), exact."""
    _check_block_family(g, params)
    return Fraction(len(g), binomial(params.n_prime, params.k - 1))


def exact_work_bound(n_prime: int, block: int, t: int) -> int:
    """Bound on the work of the exact-law DP, from (n', k-1, t) alone.

    Sums, over the position h of the smallest undecided element and the
    number j < t of blocks already opened: states x moves x counts, where
    states = min(sum of C(n'-h, c) over c <= min(j(k-2), n'-h-(t-j)(k-1)),
    matchings of j blocks), moves = 1 + C(n'-h-1, k-2), and counts = t-j+1.
    Every feasible term is at least 2(t-j+1), and that floor has a closed
    form.  Once the floor or the running sum passes EXACT_WORK_CAP, the value
    so far is returned, so any value above the cap only says "above".
    """
    extra = block - 1
    a, s1, s2 = n_prime + 1, t * (t + 1) // 2, t * (t + 1) * (2 * t + 1) // 6
    floor = 2 * (a * (s1 + t) - block * (s2 + s1))  # sum of 2(i+1)(n'+1-i*block), i = t-j
    if floor > EXACT_WORK_CAP:
        return floor
    bound = 0
    opened = 1  # matchings of j blocks in X
    for j in range(t):
        if j:
            opened = opened * binomial(n_prime - (j - 1) * block, block) // j
        for h in range(n_prime - (t - j) * block + 1):
            top = min(j * extra, n_prime - h - (t - j) * block)
            states = min(sum(binomial(n_prime - h, c) for c in range(top + 1)), opened)
            bound += states * (1 + binomial(n_prime - h - 1, extra)) * (t - j + 1)
            if bound > EXACT_WORK_CAP:
                return bound
    return bound


def _binomial_above(a: int, r: int, limit: int) -> int:
    """C(a, r), or a partial product above `limit` that proves C(a, r) > limit."""
    r = min(r, a - r)
    value = 1
    for i in range(1, r + 1):
        value = value * (a - r + i) // i  # C(a - r + i, i), nondecreasing in i
        if value > limit:
            break
    return value


def _matchings_above(n_prime: int, block: int, t: int, limit: int) -> bool:
    """Whether `matching_count` exceeds `limit`, by its product with early exit.

    Every factor of C(n', t*block) * prod_i C(i*block - 1, block - 1) is at
    least 1, so a partial product past `limit` decides.
    """
    count = _binomial_above(n_prime, t * block, limit)
    if block > 1:
        for i in range(2, t + 1):
            if count > limit:
                break
            count *= binomial(i * block - 1, block - 1)
    return count > limit


def check_exact_work(params: Params, t: int) -> None:
    """Refuse, before any work, a shape the exact law should not attempt."""
    _, block = matching_shape(params, t)
    n_prime = params.n_prime
    if _matchings_above(n_prime, block, t, ENUMERATION_GUARD):
        bound = exact_work_bound(n_prime, block, t)
        if bound > EXACT_WORK_CAP:
            raise ShapeError(
                f"exact eta law at n'={n_prime}, k={params.k}, t={t}: more than "
                f"{ENUMERATION_GUARD} matchings and a work bound above {EXACT_WORK_CAP}"
            )


def _eta_counts(g: SetFamily, params: Params, t: int | None) -> tuple[int, dict[int, int], int]:
    """t, the number of t-matchings M with |G ∩ M| = eta for each eta that
    occurs, increasing in eta, and their total.

    Counts matchings by eta over the canonical recursion of
    `enumerate_matchings`: the smallest undecided element of X is left
    uncovered, or it opens a block with k-2 larger undecided elements.  A
    state is (undecided elements, blocks still needed); the undecided
    elements are those from the smallest undecided position h on, minus the
    ones open blocks already took, kept as a mask relative to h.  Each state
    is expanded once, in increasing h, and carries the eta counts of the
    partial matchings that reach it, packed into one integer with `width`
    bits per value of eta (no count exceeds the total).  Only the states ahead
    of h are held, and nothing recurses.  `check_exact_work` refuses the shape
    first.
    """
    _check_block_family(g, params)
    t, block = matching_shape(params, t)
    check_exact_work(params, t)
    total = matching_count(params, t)
    n_prime = params.n_prime
    shift = params.x_first - 1
    in_g = set()  # G's blocks as (position of their smallest element, mask relative to it)
    for m in g.members:
        rel = m >> shift
        low = (rel & -rel).bit_length() - 1
        in_g.add((low, rel >> low))
    width = total.bit_length()
    done = 0 if t else 1  # packed counts of the complete matchings
    ahead: dict[int, dict[tuple[int, int], int]] = {0: {(0, t): 1}} if t else {}
    for h in range(n_prime):
        layer = ahead.pop(h, None)
        if layer is None:
            continue
        span = n_prime - h
        for (taken, need), counts in layer.items():
            # taken: the positions above h already in a block, as bits relative
            # to h; bit 0 is h itself, which is free
            moves = []
            if span - taken.bit_count() > need * block:
                moves.append((taken | 1, need, counts))
            others = mask_bits(((1 << span) - 2) & ~taken) if block > 1 else ()
            for combo in combinations(others, block - 1):
                blk = 1 + sum(combo)
                packed = counts << width if (h, blk) in in_g else counts
                if need == 1:
                    done += packed
                else:
                    moves.append((taken | blk, need - 1, packed))
            for decided, left, packed in moves:
                step = (decided ^ (decided + 1)).bit_length() - 1  # trailing decided positions
                bucket = ahead.setdefault(h + step, {})
                key = (decided >> step, left)
                bucket[key] = bucket.get(key, 0) + packed
    unit = (1 << width) - 1
    counts = {eta: c for eta in range(t + 1) if (c := (done >> (eta * width)) & unit)}
    assert sum(counts.values()) == total, "exact eta counts do not sum to the matching count"
    return t, counts, total


def exact_eta_distribution(g: SetFamily, params: Params, t: int | None = None) -> dict[int, Fraction]:
    """Exact law of eta = |G ∩ M| over a uniform t-matching M, increasing in eta."""
    _, counts, total = _eta_counts(g, params, t)
    return {eta: Fraction(c, total) for eta, c in counts.items()}


def tail_bound(beta: float) -> float:
    """The sub-Gaussian bound 2*exp(-beta^2 / 2)."""
    return 2.0 * math.exp(-beta * beta / 2.0)


@dataclass(frozen=True)
class BetaTail:
    beta: float
    threshold: float  # 2*beta*sqrt(t), the deviation cutoff
    tail_count: int
    tail_freq: Fraction
    bound: float


@dataclass(frozen=True)
class ConcentrationReport:
    alpha: Fraction
    t: int
    trials: int
    empirical_mean: Fraction
    eta_histogram: dict[int, int]
    beta_grid: tuple[BetaTail, ...]


@dataclass(frozen=True)
class ExactEtaReport:
    alpha: Fraction
    t: int
    mean: Fraction
    expected_mean: Fraction  # alpha * t
    verdict: bool  # mean == expected_mean
    distribution: dict[int, Fraction]
    beta_grid: tuple[BetaTail, ...]


def beta_tails(
    hist: dict[int, int], total: int, center: Fraction, t: int, betas: tuple[float, ...]
) -> tuple[BetaTail, ...]:
    """For each beta, the weight of eta with |eta - center| >= 2*beta*sqrt(t).

    `hist` counts trials (Monte Carlo) or matchings (exact law) by eta, and
    `total` is their sum, so tail_freq is a frequency or an exact probability.
    Each deviation is compared with the cutoff as an exact Fraction of the
    double; a cutoff that overflows to inf is reached by no eta.
    """
    deviations = [(abs(eta - center), c) for eta, c in hist.items()]
    tails = []
    for beta in betas:
        cutoff = 2.0 * beta * math.sqrt(t)
        count = 0
        if cutoff < math.inf:
            bar = Fraction(cutoff)
            count = sum(c for dev, c in deviations if dev >= bar)
        tails.append(
            BetaTail(
                beta=beta,
                threshold=cutoff,
                tail_count=count,
                tail_freq=Fraction(count, total),
                bound=tail_bound(beta),
            )
        )
    return tuple(tails)


def default_beta_grid(s: int) -> tuple[float, ...]:
    grid = [0.5, 1.0, 2.0, 3.0]
    if s >= 2:
        grid.append(5.0 * math.sqrt(math.log(s)))
    return tuple(grid)


def _beta_grid(s: int, beta_grid: tuple[float, ...] | None) -> tuple[float, ...]:
    """The beta grid of a report: the default for s, or the given one once
    checked to hold only finite betas >= 0."""
    if beta_grid is None:
        return default_beta_grid(s)
    betas = tuple(beta_grid)
    for beta in betas:
        if not (math.isfinite(beta) and beta >= 0):
            raise ShapeError(f"beta grid: need finite betas >= 0, got {beta}")
    return betas


def monte_carlo_eta(
    g: SetFamily,
    params: Params,
    trials: int,
    seed: int,
    t: int | None = None,
    beta_grid: tuple[float, ...] | None = None,
) -> ConcentrationReport:
    """Seeded sampling probe of the eta tail, over the first `trials` draws of one stream."""
    t_val = params.t if t is None else t
    if trials < 1:
        raise ShapeError("monte_carlo_eta: need at least one trial")
    alpha = layer_density(g, params)
    betas = _beta_grid(params.s, beta_grid)
    members = set(g.members)
    hist: dict[int, int] = {}
    for blocks in islice(matching_draws(params, seed, t_val), trials):
        eta = len(members.intersection(blocks))  # the blocks are distinct
        hist[eta] = hist.get(eta, 0) + 1
    mean = Fraction(sum(eta * c for eta, c in hist.items()), trials)
    return ConcentrationReport(
        alpha=alpha,
        t=t_val,
        trials=trials,
        empirical_mean=mean,
        eta_histogram=dict(sorted(hist.items())),
        beta_grid=beta_tails(hist, trials, alpha * t_val, t_val, betas),
    )


def exact_eta_report(
    g: SetFamily, params: Params, t: int | None = None, beta_grid: tuple[float, ...] | None = None
) -> ExactEtaReport:
    """The exact twin of `monte_carlo_eta`: the law of eta, its mean against
    alpha * t and its tail mass per beta, all from one count of the matchings."""
    betas = _beta_grid(params.s, beta_grid)
    t, counts, total = _eta_counts(g, params, t)
    alpha = Fraction(len(g), binomial(params.n_prime, params.k - 1))  # _eta_counts checked G
    mean, center = Fraction(sum(eta * c for eta, c in counts.items()), total), alpha * t
    law = {eta: Fraction(c, total) for eta, c in counts.items()}
    return ExactEtaReport(alpha=alpha, t=t, mean=mean, expected_mean=center, verdict=mean == center,
                          distribution=law, beta_grid=beta_tails(counts, total, center, t, betas))


def gamma_threshold(t: int, s: int) -> float:
    """The concentration slack 10*sqrt(t * ln s) (natural logarithm).

    The base matters: the union bound downstream needs exp(-12.5 * log s) to
    equal s**-12.5, which pins the natural log.
    """
    if t < 1:
        raise ShapeError(f"gamma_threshold: need t >= 1, got {t}")
    if s < 2:
        raise ShapeError(f"gamma_threshold: need s >= 2, got {s}")
    try:
        radicand = t * math.log(s)
    except OverflowError:  # t has no double
        radicand = math.inf
    if radicand == math.inf:
        raise ShapeError(f"gamma_threshold: t ln s passes the largest double at {len(str(t))}-digit t")
    return 10.0 * math.sqrt(radicand)


def default_gamma(t: int, s: int) -> float:
    """gamma_threshold(t, s) where it is defined (t >= 1, s >= 2), else 0."""
    return gamma_threshold(t, s) if t >= 1 and s >= 2 else 0.0


def event_probe(
    families: FamilyTuple,
    params: Params,
    trials: int,
    seed: int,
    gamma: float | None = None,
    t: int | None = None,
) -> tuple[Fraction, Fraction]:
    """Frequencies of the two good events over the first `trials` draws of one stream.

    E1: for every family i and slice j, |F_i(j) ∩ M| is within gamma of its
    expectation alpha_{i,j} * t, that is inside the exact integer range
    [ceil(alpha_{i,j} t - gamma), floor(alpha_{i,j} t + gamma)].  E2: some
    family's (s+1)-slice meets M.
    """
    profile, partitions = sliced_profile(families)  # refuses a bad tuple or a tail too short
    s = profile.s
    if (params.n, params.k, params.s) != (families[0].n, families[0].k, s):
        raise ShapeError(f"event_probe: {params} does not match the tuple's "
                         f"n={families[0].n}, k={families[0].k}, s={s}")
    t_val = params.t if t is None else t
    if trials < 1:
        raise ShapeError("event_probe: need at least one trial")
    slack = Fraction(default_gamma(t_val, s) if gamma is None else gamma)
    ranges, slots = [], {}  # E1's range per (i, j) slot; block mask -> its slots
    for i, parts in enumerate(partitions):
        for j, part in enumerate(parts[1:]):
            center = profile.alpha[i][j] * t_val
            for b in part.members:
                slots.setdefault(b, []).append(len(ranges))
            ranges.append((math.ceil(center - slack), math.floor(center + slack)))
    e1_hits = e2_hits = 0
    for blocks in islice(matching_draws(params, seed, t_val), trials):
        counts = [0] * len(ranges)
        for b in blocks:
            for slot in slots.get(b, ()):
                counts[slot] += 1
        e1_hits += all(lo <= c <= hi for c, (lo, hi) in zip(counts, ranges))
        e2_hits += any(counts[s :: s + 1])  # the (s+1)-slice of each family
    return Fraction(e1_hits, trials), Fraction(e2_hits, trials)
