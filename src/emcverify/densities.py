"""Trace decomposition of families and the density parameters built on it.

``decompose`` splits a family by its intersection pattern with a designated
prefix Y; the slice at S keeps the members whose trace on Y is exactly S,
with S itself removed.  All density parameters (alpha, beta) are exact
Fractions so that threshold comparisons downstream never hinge on float
rounding.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import (
    FamilyTuple,
    Params,
    SetFamily,
    ShapeError,
    _derived_family,
    binomial,
    elements_from_mask,
    interval_mask,
    mask_bits,
    mask_from_elements,
    validate_family_tuple,
)
from .transforms import lower_shadow_size


def decompose(family: SetFamily, y_elements) -> dict[frozenset[int], SetFamily]:
    """Partition ``family`` by exact trace on Y; keys are subsets of Y.

    Every returned class is (k - |S|)-uniform over the complement of Y
    (represented on the same ground [n]); class sizes sum to |family|.
    """
    n, k = family.n, family.k
    y = sorted(set(y_elements))
    if any(e < 1 or e > n for e in y):
        raise ShapeError(f"decompose: Y must sit inside [1, {n}]")
    y_mask = mask_from_elements(y) if y else 0
    n_classes = sum(binomial(len(y), size) for size in range(0, min(len(y), k) + 1))
    if n_classes > 5_000_000:
        raise ShapeError(f"decompose: {n_classes} trace classes is too many to materialize")
    buckets: dict[frozenset[int], list[int]] = {}
    for size in range(0, min(len(y), k) + 1):
        for combo in itertools.combinations(y, size):
            buckets[frozenset(combo)] = []
    for m in family.members:
        trace = m & y_mask
        buckets[frozenset(elements_from_mask(trace))].append(m & ~y_mask)
    return {s: _derived_family(n, k - len(s), masks) for s, masks in buckets.items()}


def slice_partition(family: SetFamily, s: int) -> tuple[SetFamily, ...]:
    """All slices on Y = [s+1] in one pass: index 0 is F(∅), index j is F(j).

    F(j) holds the members whose trace on [s+1] is exactly {j}, minus j; a
    member whose trace has two or more elements lies in no slice.
    """
    y_mask = interval_mask(1, s + 1)
    buckets: list[list[int]] = [[] for _ in range(s + 2)]
    for m in family.members:
        trace = m & y_mask
        if trace & (trace - 1) == 0:  # empty or a single element
            buckets[trace.bit_length()].append(m ^ trace)
    n, k = family.n, family.k
    return tuple(
        _derived_family(n, k - (j > 0), masks) for j, masks in enumerate(buckets)
    )


def slice_family(family: SetFamily, j: int, s: int) -> SetFamily:
    """The single slice F(j) of ``slice_partition``; j = 0 is F(∅)."""
    if not 0 <= j <= s + 1:
        raise ShapeError(f"slice_family: j={j} outside [0, {s + 1}]")
    return slice_partition(family, s)[j]


@dataclass(frozen=True)
class DensityProfile:
    """alpha[i-1][j-1] = |F_i(j)| / C(n', k-1); alpha_empty[i-1] = |F_i(∅)| / C(n', k)."""

    s: int
    n_prime: int
    alpha: tuple[tuple[Fraction, ...], ...]
    alpha_empty: tuple[Fraction, ...]

    def value(self, i: int, j: int) -> Fraction:
        return self.alpha[i - 1][j - 1]


def sliced_profile(families: FamilyTuple) -> tuple[DensityProfile, list[tuple[SetFamily, ...]]]:
    """``alpha_profile`` and the ``slice_partition`` of each family, sliced once."""
    validate_family_tuple(families)
    s = len(families) - 1
    n, k = families[0].n, families[0].k
    n_prime = n - s - 1
    if n_prime < k - 1:
        raise ShapeError(f"alpha_profile: tail of size {n_prime} cannot host (k-1)-sets")
    denom_slice = binomial(n_prime, k - 1)
    denom_empty = binomial(n_prime, k)
    partitions = [slice_partition(fam, s) for fam in families]
    rows = tuple(tuple(Fraction(len(p), denom_slice) for p in parts[1:]) for parts in partitions)
    # F(∅) lives in the tail, so it is empty when C(n', k) = 0
    empties = tuple(Fraction(len(parts[0]), denom_empty or 1) for parts in partitions)
    return DensityProfile(s=s, n_prime=n_prime, alpha=rows, alpha_empty=empties), partitions


def alpha_profile(families: FamilyTuple) -> DensityProfile:
    """Exact slice densities of a tuple of s+1 families over the tail X."""
    return sliced_profile(families)[0]


@dataclass(frozen=True)
class BetaValue:
    value: Fraction
    witness_member: int  # mask of a member attaining the min
    witness_ell: int  # smallest prefix length where that member peaks


def _prefix_peak(mask: int, n: int) -> tuple[Fraction, int]:
    """max over ell in [n] of |A ∩ [ell]| / ell, and the smallest ell attaining it.

    Between two elements of A the count stays fixed while ell grows, so the
    peak, and the smallest ell attaining it, fall on an element: the scan
    walks A's elements up to n, one step per element.
    """
    best_num, best_ell = 0, 1
    for inside, bit in enumerate(mask_bits(mask & interval_mask(1, n)), start=1):
        ell = bit.bit_length()
        if inside * best_ell > best_num * ell:
            best_num, best_ell = inside, ell
    return Fraction(best_num, best_ell), best_ell


def beta_parameter(family: SetFamily) -> BetaValue:
    """min over members A of max over ell in [n] of |A ∩ [ell]| / ell, exactly."""
    if len(family) == 0:
        raise ShapeError("beta_parameter: undefined for the empty family")
    (value, ell), member = min(
        ((_prefix_peak(m, family.n), m) for m in family.members), key=lambda p: p[0][0]
    )
    return BetaValue(value=value, witness_member=member, witness_ell=ell)


def meets_thresholds(mask: int, b: int, thresholds) -> bool:
    """True iff some i in [b, b + len(thresholds) - 1] has |A ∩ [thresholds[i - b]]| >= i."""
    return any(
        (mask & interval_mask(1, alpha)).bit_count() >= i
        for i, alpha in enumerate(thresholds, start=b)
    )


def default_thresholds(s: int, k: int, b: int = 1) -> range:
    """The weighted-shadow cut-offs alpha_i = 3(s+1)i - 1 for i in [b, k], lazily."""
    step = 3 * (s + 1)
    return range(step * b - 1, step * (k + 1) - 1, step)


def ell_condition(member_mask: int, s: int, k: int | None = None) -> bool:
    """True iff some ell in [1, k] has |A ∩ [3(s+1)ell - 1]| >= ell.

    Only ell <= |A| can ever satisfy the inequality, so the scan stops there.
    """
    size = member_mask.bit_count() if k is None else k
    return meets_thresholds(member_mask, 1, default_thresholds(s, size))


def verify_lemma4(family: SetFamily, s: int) -> tuple[int, int, bool]:
    """Check (3s+2) * |one-step lower shadow| >= |family|.

    This is theorem3_slack at depth 1 with the cut-offs alpha_i = 3(s+1)i - 1,
    where beta = min_i i / (alpha_i - i + 1) = 1/(3s+2) exactly; so every
    member must satisfy ell_condition, and a violating member raises with the
    offending set named.
    """
    beta, slack = theorem3_slack(family, 1, tuple(default_thresholds(s, family.k)))
    rhs = len(family)
    lhs = int(slack / beta) + rhs  # (3s+2) * |shadow|
    return lhs, rhs, lhs >= rhs


@lru_cache(maxsize=8)
def _theorem3_beta(k: int, b: int, thresholds: tuple[int, ...]) -> Fraction:
    """beta = min_i C(alpha_i, i - b) / C(alpha_i, i), once per shape: each ratio
    is i! / (i - b)! over (alpha_i - i + b)! / (alpha_i - i)!, two products of b
    factors rather than two binomials of alpha_i.

    Refuses a depth b outside [0, k], thresholds other than k - b + 1
    increasing values, or a threshold alpha_i below its index i: no set meets
    |A ∩ [alpha_i]| >= i when alpha_i < i, and C(alpha_i, i) = 0 would leave
    beta undefined.
    """
    if not (0 <= b <= k):
        raise ShapeError(f"verify_theorem3: depth b={b} outside [0, {k}]")
    if len(thresholds) != k - b + 1:
        raise ShapeError(
            f"verify_theorem3: need {k - b + 1} thresholds for b={b}, k={k}, "
            f"got {len(thresholds)}"
        )
    if any(thresholds[i] >= thresholds[i + 1] for i in range(len(thresholds) - 1)):
        raise ShapeError("verify_theorem3: thresholds must be strictly increasing")
    for i, alpha in enumerate(thresholds, start=b):
        if alpha < i:
            raise ShapeError(
                f"verify_theorem3: threshold alpha_{i}={alpha} is below {i}, "
                f"so no member can meet it"
            )
    return min(
        Fraction(math.perm(i, b), math.perm(alpha - i + b, b))
        for i, alpha in enumerate(thresholds, start=b)
    )


def theorem3_slack(
    family: SetFamily, b: int, thresholds: tuple[int, ...]
) -> tuple[Fraction, Fraction]:
    """Depth-b shadow bound with member-wise prefix thresholds, as its margin.

    thresholds = (alpha_b, ..., alpha_k), strictly increasing, alpha_i >= i.
    Every member needs some i in [b, k] with |A ∩ [alpha_i]| >= i.  Returns
    beta = min_i C(alpha_i, i - b) / C(alpha_i, i) and the exact slack
    |shadow_b(F)| - beta * |F|; the bound holds iff the slack is >= 0.

    A member inside [alpha_k] meets i = k, so only the members from mask
    1 << alpha_k up are tested, in ascending order: the first failing member,
    and so the error, is the one a scan of every member would name.
    """
    beta = _theorem3_beta(family.k, b, tuple(thresholds))
    members = family.members
    for m in members[bisect_left(members, 1 << min(thresholds[-1], family.n)):]:
        if not meets_thresholds(m, b, thresholds):
            raise ShapeError(
                f"verify_theorem3: member {sorted(elements_from_mask(m))} fails every threshold"
            )
    return beta, _slack(family, b, beta)


def _slack(family: SetFamily, b: int, beta: Fraction) -> Fraction:
    return lower_shadow_size(family, b) - beta * len(family)


def verify_theorem3(
    family: SetFamily, b: int, thresholds: tuple[int, ...]
) -> tuple[Fraction, bool]:
    """beta and the verdict |shadow_b(F)| >= beta * |F| of ``theorem3_slack``."""
    beta, slack = theorem3_slack(family, b, thresholds)
    return beta, slack >= 0


def local_lym_sides(family: SetFamily, ground_size: int | None = None) -> tuple[int, int, int]:
    """|shadow|, (m - k + 1) * |shadow| and k * |F| for a ground of size m."""
    m = family.n if ground_size is None else ground_size
    if m < family.k:
        raise ShapeError(f"local_lym_ratio: ground size {m} below uniformity {family.k}")
    shadow_size = lower_shadow_size(family, 1)
    return shadow_size, (m - family.k + 1) * shadow_size, family.k * len(family)


def local_lym_ratio(family: SetFamily, ground_size: int | None = None) -> bool:
    """Double-counting bound (m - k + 1) * |shadow| >= k * |F| on a ground of size m."""
    _, lhs, rhs = local_lym_sides(family, ground_size)
    return lhs >= rhs


@lru_cache(maxsize=8)
def _cut_table(params: Params, b: int, thresholds):
    """Segments of [n] ending at the cuts min(alpha_i, n), then n.  A set with
    ``placed`` elements up to ``lo`` and no cut met has C(n - lo, k - placed)
    completions, less ``avoid[placed]`` that meet no later cut; ``avoid`` keeps
    placed <= lo below the need at ``lo``, the least i cutting there.  Returns
    the count and (lo, hi, need at hi, avoid at hi) per segment."""
    n, k = params.n, params.k
    if thresholds is None:
        thresholds = default_thresholds(params.s, k, b)
    need: dict[int, int] = {}
    for i, alpha in enumerate(thresholds, start=b):
        need.setdefault(min(max(alpha, 0), n), i)  # the first i at a cut is the least
    cuts = sorted(need)
    avoid = {k: 1}  # at n, all k elements are placed
    segments = []
    for lo, hi in reversed(list(zip([0] + cuts, cuts + [n]))):
        segments.append((lo, hi, need.get(hi, k + 1), avoid))  # k + 1: never met
        below = min(lo, need.get(lo, k + 1) - 1)
        avoid_lo: dict[int, int] = {}
        for after, ways in avoid.items():
            for x in range(max(0, after - below), min(hi - lo, after) + 1):
                avoid_lo[after - x] = avoid_lo.get(after - x, 0) + binomial(hi - lo, x) * ways
        avoid = avoid_lo
    return binomial(n, k) - avoid.get(0, 0), tuple(reversed(segments))


def condition_count(params: Params, b: int = 1, thresholds=None) -> int:
    """Number of k-subsets of [n] with ``meets_thresholds(mask, b, thresholds)``;
    ``thresholds`` (hashable) defaults to ``default_thresholds(s, k, b)``."""
    return _cut_table(params, b, thresholds)[0]


def _draw_member(params: Params, count: int, segments, rng) -> int:
    """One uniform draw: randrange(count) fixes each segment's share of the
    set up to the first met cut, and the rest falls uniformly after it;
    randrange then picks elements in each part until they are distinct."""
    n, k = params.n, params.k
    rank = rng.randrange(count)
    mask = placed = 0
    for lo, hi, need, avoid in segments:
        for x in range(min(hi - lo, k - placed) + 1):
            rest = binomial(n - hi, k - placed - x) - avoid.get(placed + x, 0)  # 0 once met
            sets = binomial(hi - lo, x) * rest
            if rank < sets:
                break
            rank -= sets
        rank %= rest
        placed += x
        while mask.bit_count() < placed:
            mask |= 1 << (lo + rng.randrange(hi - lo))
        if placed >= need:
            break
    while mask.bit_count() < k:
        mask |= 1 << (hi + rng.randrange(n - hi))
    return mask


def random_condition_family(params: Params, size: int, rng, b: int = 1, thresholds=None) -> SetFamily:
    """Uniform random family of ``size`` distinct k-sets counted by
    ``condition_count(params, b, thresholds)``; a larger size raises at once."""
    count, segments = _cut_table(params, b, thresholds)
    if size > count:
        raise ShapeError(f"random_condition_family: size {size} exceeds the {count} qualifying sets")
    chosen: set[int] = set()
    while len(chosen) < size:
        chosen.add(_draw_member(params, count, segments, rng))
    return _derived_family(params.n, params.k, chosen)


def sampled_slacks(params: Params, trials: int, max_size: int, seed: int, b: int = 1,
                   thresholds=None) -> tuple[Fraction, list[tuple[int, Fraction]]]:
    """beta and, per trial, the size and ``theorem3_slack`` of a family drawn by one
    ``random.Random(seed)``: a size uniform in [1, min(max_size, condition_count)]
    then a ``random_condition_family`` of that size.  At b = 1 with the default
    cut-offs beta = 1/(3s+2), and slack / beta is the margin (3s+2)|shadow| - |F|
    of ``verify_lemma4``.  Bad (b, thresholds), then max_size or trials below 1,
    are refused before the first draw."""
    if thresholds is None:
        thresholds = tuple(default_thresholds(params.s, params.k, b))
    beta = _theorem3_beta(params.k, b, thresholds)
    if min(max_size, trials) < 1:
        raise ShapeError("sampled_slacks: need max_size >= 1 and trials >= 1, "
                         f"got max_size={max_size}, trials={trials}")
    cap = min(max_size, condition_count(params, b, thresholds))
    rng = random.Random(seed)
    draws = []
    for _ in range(trials):
        size = rng.randint(1, cap)
        family = random_condition_family(params, size, rng, b, thresholds)
        draws.append((size, _slack(family, b, beta)))  # drawn members meet the thresholds
    return beta, draws
