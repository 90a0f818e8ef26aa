"""Distribution of eta = |G ∩ M| over random t-matchings, exact and sampled.

For a (k-1)-uniform family G inside the tail X and a uniformly random
t-matching M, the mean of eta is exactly alpha*t where alpha is the density
of G in its layer — each block of M is marginally a uniform (k-1)-set, and
expectation is linear regardless of the dependence between blocks.  The tail
is sub-Gaussian: Pr[|eta - alpha*t| >= 2*beta*sqrt(t)] <= 2*exp(-beta^2/2).

Everything family-side stays in exact rationals; only the gamma threshold and
the tail bounds use doubles (documented slack 1e-9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import FamilyTuple, Params, SetFamily, ShapeError, binomial, validate_family_tuple
from .densities import alpha_profile, slice_partition
from .matchings import enumerate_matchings, sample_matching


def _check_block_family(g: SetFamily, params: Params) -> None:
    if g.k != params.k - 1:
        raise ShapeError(
            f"expected a ({params.k - 1})-uniform family of blocks, got {g.k}-uniform"
        )
    x_mask = params.x_mask
    for m in g.members:
        if m & ~x_mask:
            raise ShapeError("block family must live inside X = [s+2, n]")


def layer_density(g: SetFamily, params: Params) -> Fraction:
    """alpha = |G| / C(n', k-1), exact."""
    _check_block_family(g, params)
    return Fraction(len(g), binomial(params.n_prime, params.k - 1))


def exact_eta_distribution(
    g: SetFamily, params: Params, t: int | None = None
) -> dict[int, Fraction]:
    """Exact law of eta = |G ∩ M| by enumerating every t-matching."""
    _check_block_family(g, params)
    members = set(g.members)
    counts: dict[int, int] = {}
    total = 0
    for matching in enumerate_matchings(params, t):
        eta = sum(1 for b in matching.members if b in members)
        counts[eta] = counts.get(eta, 0) + 1
        total += 1
    return {eta: Fraction(c, total) for eta, c in sorted(counts.items())}


def distribution_mean(dist: dict[int, Fraction]) -> Fraction:
    return sum((Fraction(eta) * p for eta, p in dist.items()), Fraction(0))


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


def default_beta_grid(s: int) -> tuple[float, ...]:
    grid = [0.5, 1.0, 2.0, 3.0]
    if s >= 2:
        grid.append(5.0 * math.sqrt(math.log(s)))
    return tuple(grid)


def monte_carlo_eta(
    g: SetFamily,
    params: Params,
    trials: int,
    seed: int,
    t: int | None = None,
    beta_grid: tuple[float, ...] | None = None,
) -> ConcentrationReport:
    """Seeded sampling probe of the eta tail.

    Per-trial seeds are seed + trial index, so a report is reproducible and
    trivially mergeable across workers.
    """
    t_val = params.t if t is None else t
    if trials < 1:
        raise ShapeError("monte_carlo_eta: need at least one trial")
    alpha = layer_density(g, params)
    betas = default_beta_grid(params.s) if beta_grid is None else tuple(beta_grid)
    members = set(g.members)
    hist: dict[int, int] = {}
    for trial in range(trials):
        m = sample_matching(params, seed + trial, t_val)
        eta = sum(1 for b in m.members if b in members)
        hist[eta] = hist.get(eta, 0) + 1
    mean = Fraction(sum(eta * c for eta, c in hist.items()), trials)
    center = alpha * t_val
    tails = []
    for beta in betas:
        cutoff = 2.0 * beta * math.sqrt(t_val)
        count = sum(c for eta, c in hist.items() if abs(Fraction(eta) - center) >= cutoff)
        tails.append(
            BetaTail(
                beta=beta,
                threshold=cutoff,
                tail_count=count,
                tail_freq=Fraction(count, trials),
                bound=tail_bound(beta),
            )
        )
    return ConcentrationReport(
        alpha=alpha,
        t=t_val,
        trials=trials,
        empirical_mean=mean,
        eta_histogram=dict(sorted(hist.items())),
        beta_grid=tuple(tails),
    )


def gamma_threshold(t: int, s: int) -> float:
    """The concentration slack 10*sqrt(t * ln s) (natural logarithm).

    The base matters: the union bound downstream needs exp(-12.5 * log s) to
    equal s**-12.5, which pins the natural log.
    """
    if t < 1:
        raise ShapeError(f"gamma_threshold: need t >= 1, got {t}")
    if s < 2:
        raise ShapeError(f"gamma_threshold: need s >= 2, got {s}")
    return 10.0 * math.sqrt(t * math.log(s))


def event_probe(
    families: FamilyTuple,
    params: Params,
    trials: int,
    seed: int,
    gamma: float | None = None,
    t: int | None = None,
) -> tuple[Fraction, Fraction]:
    """Empirical frequencies of the two good events over sampled matchings.

    E1: for every family i and slice j, |F_i(j) ∩ M| is within gamma of its
    expectation alpha_{i,j} * t.  E2: some family's (s+1)-slice meets M.
    """
    validate_family_tuple(families)
    s = len(families) - 1
    t_val = params.t if t is None else t
    if trials < 1:
        raise ShapeError("event_probe: need at least one trial")
    if gamma is None:
        gamma = gamma_threshold(t_val, s) if s >= 2 else 0.0
    profile = alpha_profile(families)
    # Slice member sets, indexed [i][j-1]; slices live inside X already.
    slices = [[set(part.members) for part in slice_partition(fam, s)[1:]] for fam in families]
    e1_hits = 0
    e2_hits = 0
    gamma_frac = Fraction(gamma)
    for trial in range(trials):
        m = sample_matching(params, seed + trial, t_val)
        blocks = set(m.members)
        ok_e1 = True
        for i in range(s + 1):
            for j in range(1, s + 2):
                count = sum(1 for b in blocks if b in slices[i][j - 1])
                if abs(Fraction(count) - profile.value(i + 1, j) * t_val) > gamma_frac:
                    ok_e1 = False
                    break
            if not ok_e1:
                break
        if ok_e1:
            e1_hits += 1
        if any(blocks & slices[i][s] for i in range(s + 1)):
            e2_hits += 1
    return Fraction(e1_hits, trials), Fraction(e2_hits, trials)
