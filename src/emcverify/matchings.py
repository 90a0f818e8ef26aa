"""Matching numbers, rainbow searches, and random/exhaustive t-matchings.

A "matching" here is an unordered family of pairwise-disjoint (k-1)-sets
living inside the tail segment X = [s+2, n].  Canonical form (each block a
sorted set, blocks sorted as masks) makes sampler uniformity testable against
the exhaustive enumerator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import FamilyTuple, Params, SetFamily, ShapeError, binomial, validate_family_tuple

# A matching is serialized and passed around as a plain family of blocks.
Matching = SetFamily

# enumerate_matchings refuses shapes with more matchings than this.
ENUMERATION_GUARD = 10_000_000


def matching_number(family: SetFamily) -> int:
    """Largest number of pairwise disjoint members, by memoized branch and bound.

    Branches on the smallest element still coverable: either no chosen member
    uses it (exclude it) or one of the members through it is chosen.  The memo
    key is the set of excluded/used elements, which fully determines the
    subproblem.
    """
    if family.k == 0:
        return len(family)  # the empty set, if present, meets no member
    members = family.members
    memo: dict[int, int] = {}

    def best_from(used: int) -> int:
        cached = memo.get(used)
        if cached is not None:
            return cached
        avail = [m for m in members if not m & used]
        if not avail:
            memo[used] = 0
            return 0
        free = 0
        for m in avail:
            free |= m
        low = free & -free
        out = best_from(used | low)
        for m in avail:
            if m & low:
                cand = 1 + best_from(used | m)
                if cand > out:
                    out = cand
        memo[used] = out
        return out

    return best_from(0)


@dataclass(frozen=True)
class RainbowWitness:
    """One chosen member per family index, or None where no choice was made."""

    assignment: tuple[int | None, ...]  # masks, indexed like the input tuple
    complete: bool


def find_rainbow(families: FamilyTuple) -> RainbowWitness:
    """Search for pairwise-disjoint representatives, one from each family.

    Backtracks over indices in ascending order of family size (fail-fast),
    pruning with element masks.  complete=False means the tuple is
    cross-dependent: no full system of disjoint representatives exists.
    """
    validate_family_tuple(families)
    order = sorted(range(len(families)), key=lambda i: len(families[i]))
    chosen: dict[int, int] = {}

    def extend(pos: int, used: int) -> bool:
        if pos == len(order):
            return True
        idx = order[pos]
        for m in families[idx].members:
            if not m & used:
                chosen[idx] = m
                if extend(pos + 1, used | m):
                    return True
                del chosen[idx]
        return False

    ok = extend(0, 0)
    assignment = tuple(chosen.get(i) for i in range(len(families)))
    return RainbowWitness(assignment=assignment, complete=ok)


def hall_rainbow_in_matching(families: FamilyTuple, matching: Matching) -> RainbowWitness:
    """Assign distinct blocks of the matching to family indices (block ∈ family).

    Kuhn's augmenting-path algorithm; the returned witness is complete iff a
    perfect assignment on the index side exists.  When the sorted intersection
    sizes dominate the staircase (i-th smallest >= i), completeness is
    guaranteed by the defect Hall theorem.
    """
    blocks = matching.members
    member_sets = [set(f.members) for f in families]
    adj = [
        [b for b, blk in enumerate(blocks) if blk in member_sets[i]]
        for i in range(len(families))
    ]
    owner: list[int | None] = [None] * len(blocks)

    def augment(i: int, seen: set[int]) -> bool:
        for b in adj[i]:
            if b in seen:
                continue
            seen.add(b)
            if owner[b] is None or augment(owner[b], seen):
                owner[b] = i
                return True
        return False

    matched = 0
    for i in range(len(families)):
        if augment(i, set()):
            matched += 1
    assignment: list[int | None] = [None] * len(families)
    for b, i in enumerate(owner):
        if i is not None:
            assignment[i] = blocks[b]
    return RainbowWitness(assignment=tuple(assignment), complete=matched == len(families))


def matching_shape(params: Params, t: int | None = None) -> tuple[int, int]:
    """(t, block size k-1) of a t-matching in X; t defaults to params.t.

    Raises ShapeError when no such matching exists.
    """
    t = params.t if t is None else t
    block = params.k - 1
    if block < 1:
        raise ShapeError("matchings need k >= 2 (blocks of size k - 1 >= 1)")
    if t < 0 or params.n_prime < block * t:
        raise ShapeError(
            f"matching of {t} blocks of size {block} does not fit in |X| = {params.n_prime}"
        )
    return t, block


def matching_count(params: Params, t: int | None = None) -> int:
    """Number of unordered t-matchings of (k-1)-blocks inside X.

    Choose the t(k-1) covered elements, C(n', t(k-1)), then split them into
    blocks: with i blocks left to form, the smallest element not yet in a
    block picks its k-2 partners among the other i(k-1) - 1.
    """
    t, block = matching_shape(params, t)
    total = binomial(params.n_prime, t * block)
    if block > 1:
        for i in range(2, t + 1):
            total *= binomial(i * block - 1, block - 1)
    return total


def sample_matching(params: Params, seed: int, t: int | None = None) -> Matching:
    """Uniform random unordered t-matching inside X, deterministic per seed.

    A uniform permutation of X is chopped into t consecutive (k-1)-blocks and
    canonicalized.  Every unordered matching is the image of exactly
    t! * ((k-1)!)^t * (n' - t(k-1))! permutations, so the canonical forms are
    equidistributed.
    """
    t, block = matching_shape(params, t)
    pool = list(params.x_elements())
    random.Random(seed).shuffle(pool)
    masks = []
    for b in range(t):
        acc = 0
        for e in pool[b * block : (b + 1) * block]:
            acc |= 1 << (e - 1)
        masks.append(acc)
    return SetFamily.from_masks(params.n, block, masks)


def sample_ordered_blocks(params: Params, sizes: list[int] | None = None, seed: int = 0) -> tuple[int, ...]:
    """Ordered disjoint blocks of mixed sizes from X (order is significant).

    Default sizes: one block of floor(2(n - s + k)/3) elements followed by s
    blocks of size k - 1 — the shape used by the one-big-block demonstration.
    Returns masks in draw order, not canonicalized.
    """
    n, k, s = params.n, params.k, params.s
    if sizes is None:
        sizes = [(2 * (n - s + k)) // 3] + [k - 1] * s
    if any(sz < 0 for sz in sizes):
        raise ShapeError("block sizes must be nonnegative")
    if sum(sizes) > params.n_prime:
        raise ShapeError(
            f"blocks of total size {sum(sizes)} do not fit in |X| = {params.n_prime}"
        )
    pool = list(params.x_elements())
    random.Random(seed).shuffle(pool)
    out = []
    at = 0
    for sz in sizes:
        acc = 0
        for e in pool[at : at + sz]:
            acc |= 1 << (e - 1)
        out.append(acc)
        at += sz
    return tuple(out)


def enumerate_matchings(params: Params, t: int | None = None):
    """Yield every unordered t-matching of (k-1)-blocks in X exactly once.

    Canonical recursion on the smallest undecided element of X: either it is
    left uncovered, or it becomes the minimum of a new block joined by a
    (k-2)-subset of the remaining elements.  Guarded by the total count.
    """
    t = params.t if t is None else t
    total = matching_count(params, t)
    if total > ENUMERATION_GUARD:
        raise ShapeError(
            f"enumerate_matchings: {total} matchings exceeds guard {ENUMERATION_GUARD}"
        )
    block = params.k - 1
    elements = list(params.x_elements())
    n = params.n

    def walk(avail: list[int], need: int, acc: list[int]):
        if need == 0:
            yield SetFamily.from_masks(n, block, acc)
            return
        if len(avail) < need * block:
            return
        head, rest = avail[0], avail[1:]
        # head left uncovered — only viable if enough elements remain
        if len(rest) >= need * block:
            yield from walk(rest, need, acc)
        # head opens a block
        for combo in itertools.combinations(rest, block - 1):
            acc_mask = 1 << (head - 1)
            for e in combo:
                acc_mask |= 1 << (e - 1)
            taken = set(combo)
            acc.append(acc_mask)
            yield from walk([e for e in rest if e not in taken], need - 1, acc)
            acc.pop()

    yield from walk(elements, t, [])
