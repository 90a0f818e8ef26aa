"""Matching numbers, rainbow searches, and random/exhaustive t-matchings.

A "matching" here is an unordered family of pairwise-disjoint (k-1)-sets
living inside the tail segment X = [s+2, n].  Canonical form (each block a
sorted set, blocks sorted as masks) makes sampler uniformity testable against
the exhaustive enumerator.  Every random matching comes from `matching_draws`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import (FamilyTuple, Params, SetFamily, ShapeError, _derived_family, binomial,
                   mask_bits, validate_family_tuple)

# A matching is serialized and passed around as a plain family of blocks.
Matching = SetFamily

# enumerate_matchings refuses shapes with more matchings than this.
ENUMERATION_GUARD = 10_000_000


def matching_number(family: SetFamily) -> int:
    """Largest number of pairwise disjoint members, by a bounded forward search.

    Disjoint members have distinct minima.  So the members are grouped by
    their minimum, and the search walks the distinct minima (heads) upward:
    at each head it chooses one member of that head's group that misses the
    used elements, or none.  A node is (head, the used elements that some
    later member still contains), and its exact value is memoized under that
    key.  The value is at most min(free elements of later members // k,
    unused heads from here on): members are tried before the skip branch,
    and a node stops once it reaches this cap.

    An explicit stack replaces recursion, so deep families are safe.  A top
    label above k|F| has the covered elements relabeled 1..c in order, which
    keeps disjointness and mask order, so no mask is wider than k|F| bits.
    """
    k = family.k
    if k == 0:
        return len(family)  # the empty set, if present, meets no member
    members = family.members
    if not members:
        return 0
    if members[-1].bit_length() > k * len(members):  # the last mask holds the top label
        bits = [mask_bits(m) for m in members]
        covered = sorted({b.bit_length() for mb in bits for b in mb})
        rank = {e: 1 << i for i, e in enumerate(covered)}
        members = [sum(rank[b.bit_length()] for b in mb) for mb in bits]
    groups: dict[int, list[int]] = {}
    for m in members:
        groups.setdefault(m & -m, []).append(m)
    heads = sorted(groups)
    grouped = [groups[h] for h in heads]
    size = len(heads)
    head_mask = sum(heads)  # distinct one-bit masks
    # dying[i]: elements no member past group i contains, dropped from the
    # used set after head i; live[i]: elements some member of a group >= i has.
    dying = [0] * size
    live = [0] * size
    later = 0
    for i in range(size - 1, -1, -1):
        union = 0
        for m in grouped[i]:
            union |= m
        dying[i] = union & ~later
        later |= union
        live[i] = later.bit_count()
    memo: dict[tuple[int, int], int] = {}
    # frame: [memo key, head index, used, cap, best so far, next child]
    stack: list[list] = []

    def enter(i: int, used: int) -> int | None:
        """Value of node (i, used), or None after pushing its frame."""
        while i < size and heads[i] & used:  # a used head can open no member
            used &= ~dying[i]
            i += 1
        if i == size:
            return 0
        key = (i, used)
        got = memo.get(key)
        if got is not None:
            return got
        cap = min((live[i] - used.bit_count()) // k, size - i - (used & head_mask).bit_count())
        if not cap:
            return 0
        stack.append([key, i, used, cap, 0, 0])
        return None

    value = enter(0, 0)
    while stack:
        frame = stack[-1]
        key, i, used, cap, best, pos = frame
        group = grouped[i]
        if value is not None:  # a child finished; children before the skip add a member
            value += pos <= len(group)
            if value > best:
                frame[4] = best = value
        if best < cap:
            while pos < len(group) and group[pos] & used:
                pos += 1
            if pos <= len(group):
                frame[5] = pos + 1
                if pos < len(group):
                    value = enter(i + 1, (used | group[pos]) & ~dying[i])
                else:
                    value = enter(i + 1, used & ~dying[i])
                continue
        memo[key] = best
        stack.pop()
        value = best
    return value


@dataclass(frozen=True)
class RainbowWitness:
    """One chosen member per family index, or None where no choice was made."""

    assignment: tuple[int | None, ...]  # masks, indexed like the input tuple
    complete: bool


def find_rainbow(families: FamilyTuple) -> RainbowWitness:
    """Search for pairwise-disjoint representatives, one from each family.

    Backtracks over indices in ascending order of family size (fail-fast),
    pruning with element masks, and tries each family's members in mask
    order.  An explicit stack replaces recursion, so long tuples are safe.
    complete=False means the tuple is cross-dependent: no full system of
    disjoint representatives exists.
    """
    validate_family_tuple(families)
    order = sorted(range(len(families)), key=lambda i: len(families[i]))
    lists = [families[i].members for i in order]
    size = len(lists)
    chosen: list[int] = []  # the member taken at each depth, in search order
    used = 0
    tries = [iter(lists[0])] if lists else []  # the members left to try at each depth
    while tries:
        for m in tries[-1]:
            if not m & used:
                chosen.append(m)
                used |= m
                break
        else:  # this depth is exhausted: undo the choice above it
            tries.pop()
            if chosen:
                used ^= chosen.pop()
            continue
        if len(chosen) == size:
            break
        tries.append(iter(lists[len(chosen)]))
    assignment: list[int | None] = [None] * len(families)
    for i, m in zip(order, chosen):  # chosen is empty unless the search is complete
        assignment[i] = m
    return RainbowWitness(assignment=tuple(assignment), complete=len(chosen) == size)


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


def matching_draws(params: Params, seed: int, t: int | None = None):
    """Endless uniform random t-matchings inside X, as lists of block masks.

    One ``random.Random(seed)`` shuffles one list of X's one-bit masks per
    draw, and its first t(k-1) entries, chopped into (k-1)-blocks, are the
    draw.  Every unordered matching is the image of exactly
    t! * ((k-1)!)^t * (n' - t(k-1))! permutations, so each draw is uniform
    whatever order the shuffle starts from.

    The shuffle is ``random.shuffle``'s own, written out: for i from n'-1
    down to 1 it draws j from ``getrandbits`` with the bit length of i + 1,
    redraws while j > i, and swaps.  So the stream is the one
    ``rng.shuffle(pool)`` gives, without its per-element method calls.
    """
    t, block = matching_shape(params, t)
    pool = [1 << (e - 1) for e in params.x_elements()]
    getrandbits = random.Random(seed).getrandbits
    steps = [(i, (i + 1).bit_length()) for i in range(len(pool) - 1, 0, -1)]
    size = t * block
    while True:
        for i, bits in steps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            pool[i], pool[j] = pool[j], pool[i]
        yield pool[:size] if block == 1 else [sum(pool[i : i + block]) for i in range(0, size, block)]


def sample_matching(params: Params, seed: int, t: int | None = None) -> Matching:
    """Uniform random unordered t-matching inside X: the first of ``matching_draws``."""
    blocks = next(matching_draws(params, seed, t))
    return _derived_family(params.n, params.k - 1, blocks)


def enumerate_matchings(params: Params, t: int | None = None):
    """Yield every unordered t-matching of (k-1)-blocks in X exactly once.

    Canonical form: the smallest undecided element of X is either left
    uncovered or becomes the minimum (head) of a new block joined by a
    (k-2)-subset of the free elements above it.  The walk goes one block per
    level, with an explicit stack: each level tries its heads from the
    highest down, which yields the order of the element-by-element recursion
    (leave uncovered first), and skips a head with fewer free elements from
    it on than the blocks still needed.  Guarded by the total count.
    """
    t = params.t if t is None else t
    total = matching_count(params, t)
    if total > ENUMERATION_GUARD:
        raise ShapeError(
            f"enumerate_matchings: {total} matchings exceeds guard {ENUMERATION_GUARD}"
        )
    block = params.k - 1
    n = params.n
    if t == 0:
        yield _derived_family(n, block, [])
        return
    bits = [1 << (e - 1) for e in params.x_elements()]
    taken = [False] * len(bits)

    def options(low: int, need: int):
        """(head, partners) choices for the next block, heads at positions >= low."""
        free_above = 0  # free positions above h
        for h in range(len(bits) - 1, low - 1, -1):
            if taken[h]:
                continue
            if free_above + 1 >= need * block:
                rest = [p for p in range(h + 1, len(bits)) if not taken[p]] if block > 1 else []
                yield from ((h, combo) for combo in itertools.combinations(rest, block - 1))
            free_above += 1

    stack = [options(0, t)]
    chosen: list[tuple[int, tuple[int, ...]]] = []  # (block mask, its positions) per level
    while stack:
        if len(chosen) == len(stack):  # undo this level's previous block
            for p in chosen.pop()[1]:
                taken[p] = False
        pick = next(stack[-1], None)
        if pick is None:
            stack.pop()
            continue
        head, partners = pick
        positions = (head, *partners)
        mask = 0
        for p in positions:
            taken[p] = True
            mask |= bits[p]
        chosen.append((mask, positions))
        if len(chosen) == t:
            yield _derived_family(n, block, [m for m, _ in chosen])
        else:
            stack.append(options(head + 1, t - len(chosen)))
