"""Compression operators and shadow machinery for uniform set families.

The central object is the (i, j)-compression: replace j by i (for i < j) in
every member where the replacement is not blocked by an existing member.
Families fixed by every compression are called shifted; they form a down-set
lattice under the coordinatewise dominance order, which is what makes
exhaustive enumeration feasible at small ground sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    MATERIALIZATION_CAP,
    SetFamily,
    ShapeError,
    _derived_family,
    binomial,
    enumerate_ksets,
    mask_bits,
)

# Shifted-family enumeration walks every down-set of the layer; the layer
# size itself is the guard, not the count of down-sets.
SHIFTED_ENUMERATION_GUARD = 36


def _compress(present: set[int], bi: int, bj: int) -> int:
    # The (i, j)-compression in place on a set of member masks (bits bi < bj),
    # each move decided against the set as it stood before the pass; returns
    # the number of members moved.
    flip = bi | bj
    moves = [m for m in present if m & flip == bj and m ^ flip not in present]
    present.difference_update(moves)
    present.update(m ^ flip for m in moves)
    return len(moves)


def shift_ij(family: SetFamily, i: int, j: int) -> SetFamily:
    """Apply the (i, j)-compression to ``family``.

    Members containing j but not i have j replaced by i unless the replacement
    already belongs to the family, in which case they stay put.  Requires
    1 <= i < j <= n.  The result always has the same cardinality.
    """
    if not (1 <= i < j <= family.n):
        raise ShapeError(f"shift_ij: need 1 <= i < j <= n, got i={i}, j={j}, n={family.n}")
    present = set(family.members)
    _compress(present, 1 << (i - 1), 1 << (j - 1))
    return _derived_family(family.n, family.k, present)


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of iterating compressions to a fixpoint."""

    rounds: int  # full passes over all (i, j) pairs, including the final quiet one
    applied: int  # total number of member replacements performed
    result: SetFamily


def shift_closure(family: SetFamily) -> ShiftReport:
    """Iterate (i, j)-compressions in lexicographic pair order until stable.

    A round sweeps every pair 1 <= i < j <= n once.  The loop ends after the
    first round that changes nothing, so an already-shifted family reports
    ``applied == 0`` and ``rounds == 1``.  The rounds work in place on one
    set of member masks; the result family is built once, at the end.
    """
    present = set(family.members)
    # moves only lower elements, so a pair (i, j) with j above the largest
    # member's top element never moves anything
    top = max(family.members, default=0).bit_length()
    pairs = list(combinations([1 << e for e in range(top)], 2))
    rounds = applied = 0
    while True:
        rounds += 1
        moved = sum(_compress(present, bi, bj) for bi, bj in pairs)
        applied += moved
        if moved == 0:
            result = _derived_family(family.n, family.k, present)
            return ShiftReport(rounds=rounds, applied=applied, result=result)


def is_shifted(family: SetFamily) -> bool:
    """True iff the family is fixed by every (i, j)-compression.

    That is, the family is a down-set of its layer under dominance order:
    every cover predecessor of every member (one element lowered by one
    position into a free slot) is a member too.
    """
    present = set(family.members)
    return all(p in present for m in family.members for p in _cover_predecessors(m))


def _drop_one(masks) -> set[int]:
    # One lower-shadow level: every mask with one of its set bits cleared.
    out = set()
    add = out.add
    for m in masks:
        rest = m
        while rest:
            low = rest & -rest
            add(m ^ low)
            rest ^= low
    return out


def lower_shadow(family: SetFamily, b: int) -> SetFamily:
    """All (k - b)-subsets of members; depth b with 0 <= b <= k.

    The guard counts |F| * C(k, b) candidates.  A shallow shadow
    (b <= k - b) steps down one level at a time; no level is wider than
    that count there.  A deeper one would pass through the middle levels,
    up to C(k, k/2) sets per member, so it takes the (k - b)-subsets of
    each member directly.
    """
    if not (0 <= b <= family.k):
        raise ShapeError(f"lower_shadow: depth {b} outside [0, {family.k}]")
    if b == 0:
        return family
    work = len(family) * binomial(family.k, b)
    if work > MATERIALIZATION_CAP:
        raise ShapeError(
            f"lower_shadow: would touch {work} candidate sets, cap is {MATERIALIZATION_CAP}"
        )
    t = family.k - b
    if b <= t:
        cur = family.members
        for _ in range(b):
            cur = _drop_one(cur)
    else:
        cur = {sum(c) for m in family.members for c in combinations(mask_bits(m), t)}
    return _derived_family(family.n, t, cur)


def upper_shadow(family: SetFamily, u: int) -> SetFamily:
    """All u-supersets (within the ground set) of members; k <= u <= n.

    The guard counts |F| * C(n - k, u - k) candidates.  Stepping up one
    level at a time stays within that count only while u - k <= n - u
    (every level j <= u - k has C(n - k, j) <= C(n - k, u - k)); otherwise
    the grown bits are chosen directly among each member's free bits.
    """
    if not (family.k <= u <= family.n):
        raise ShapeError(f"upper_shadow: target size {u} outside [{family.k}, {family.n}]")
    if u == family.k:
        return family
    grow = u - family.k
    work = len(family) * binomial(family.n - family.k, grow)
    if work > MATERIALIZATION_CAP:
        raise ShapeError(
            f"upper_shadow: would touch {work} candidate sets, cap is {MATERIALIZATION_CAP}"
        )
    if grow <= family.n - u:
        bits = [1 << e for e in range(family.n)]
        cur = family.members
        for _ in range(grow):
            # One upper-shadow level: every mask with one free bit set.
            cur = {m | x for m in cur for x in bits if not m & x}
    else:
        full = (1 << family.n) - 1
        cur = {
            m | sum(c) for m in family.members for c in combinations(mask_bits(full ^ m), grow)
        }
    return _derived_family(family.n, u, cur)


def _largest_top(rest: int, i: int) -> int:
    # The largest a with C(a, i) <= rest, for rest >= 1 and i >= 1: double a
    # step from a = i (where C(i, i) = 1) past the answer, then bisect.
    lo, step = i, 1
    while binomial(lo + step, i) <= rest:
        lo += step
        step *= 2
    hi = lo + step  # C(lo, i) <= rest < C(hi, i)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binomial(mid, i) <= rest:
            lo = mid
        else:
            hi = mid
    return lo


def _cascade_shadow(k: int, m: int, t: int) -> int:
    """Least size of the t-shadow of m k-sets, 0 <= t <= k (Kruskal–Katona).

    Write m = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_j, j) with
    a_k > a_{k-1} > ... > a_j >= j >= 1 (the k-cascade); the minimum is
    C(a_k, t) + C(a_{k-1}, t-1) + ..., each term C(a_i, i - (k - t)).
    """
    if t == k:
        # also the k = 0 layer, which has no cascade
        return m
    drop = k - t
    total = 0
    rest = m
    i = k
    while rest:
        a = _largest_top(rest, i)
        rest -= binomial(a, i)
        total += binomial(a, i - drop)
        i -= 1
    return total


def kk_min_shadow_size(
    n: int, k: int, m: int, direction: str, target_size: int | None = None
) -> int:
    """Minimum shadow size over all m-member k-uniform families on [n].

    ``direction`` is "lower" or "upper".  The lower minimum is the k-cascade
    closed form of Kruskal and Katona, attained by an initial segment of
    colex order; the upper minimum is the lower one of the complements,
    (n - k)-sets shadowed down to size n - target.  Nothing is materialized:
    the cascade has at most min(k, m) terms (min(n - k, m) upward), each
    found with O(log a) exact binomials.  ``target_size`` is the uniformity
    of the shadow (defaults: k - 1 for lower, k + 1 for upper).
    """
    if m < 0 or m > binomial(n, k):
        raise ShapeError(f"kk_min_shadow_size: m={m} outside [0, C({n},{k})]")
    if direction == "lower":
        t = k - 1 if target_size is None else target_size
        if not (0 <= t <= k):
            raise ShapeError(f"kk_min_shadow_size: lower target {t} outside [0, {k}]")
        return _cascade_shadow(k, m, t)
    if direction == "upper":
        t = k + 1 if target_size is None else target_size
        if not (k <= t <= n):
            raise ShapeError(f"kk_min_shadow_size: upper target {t} outside [{k}, {n}]")
        if k < 0:  # no complement layer; SetFamily refuses this shape too
            raise ShapeError(f"bad family shape n={n} k={k}")
        return _cascade_shadow(n - k, m, n - t)
    raise ShapeError(f"kk_min_shadow_size: unknown direction {direction!r}")


@dataclass(frozen=True)
class BTCheck:
    """Cross-multiplied form of the normalized upper-shadow power inequality.

    For a k-uniform family G on a ground set of size y and a target size u,
    the claim (|upper-shadow| / C(y, u)) ** (y - k) >= (|G| / C(y, k)) ** (y - u)
    is checked without floats as lhs >= rhs below.
    """

    lhs: int
    rhs: int
    verdict: bool
    shadow_size: int


def bt_check(family: SetFamily, u: int) -> BTCheck:
    """Exact integer check of the upper-shadow power inequality for ``family``."""
    y = family.n
    k = family.k
    if not (k <= u <= y):
        raise ShapeError(f"bt_check: target size {u} outside [{k}, {y}]")
    us = len(upper_shadow(family, u))
    g = len(family)
    lhs = us ** (y - k) * binomial(y, k) ** (y - u)
    rhs = g ** (y - u) * binomial(y, u) ** (y - k)
    return BTCheck(lhs=lhs, rhs=rhs, verdict=lhs >= rhs, shadow_size=us)


def _cover_predecessors(mask: int) -> list[int]:
    # Immediate predecessors in dominance order: lower one element by one
    # position where the slot below is free.  A k-set is in a down-set iff
    # all of these are.
    return [mask ^ b ^ (b >> 1) for b in mask_bits(mask) if b > 1 and not mask & (b >> 1)]


def enumerate_shifted_families(n: int, k: int):
    """Yield every shifted k-uniform family on [n], the empty family first.

    Shifted families are exactly the down-sets of the layer under dominance
    order, so the walk branches on one colex-maximal candidate at a time:
    include it (allowed once all its cover predecessors are in) or exclude it
    together with everything above it.  Deterministic order, no duplicates.
    """
    layer_size = binomial(n, k)
    if layer_size > SHIFTED_ENUMERATION_GUARD:
        raise ShapeError(
            f"enumerate_shifted_families: C({n},{k}) = {layer_size} exceeds guard "
            f"{SHIFTED_ENUMERATION_GUARD}"
        )
    order = list(enumerate_ksets(n, k, order="colex"))
    index_of = {m: i for i, m in enumerate(order)}
    preds = [[index_of[p] for p in _cover_predecessors(m)] for m in order]
    chosen: list[bool] = [False] * layer_size
    out: list[int] = []

    def walk(pos: int):
        if pos == len(order):
            yield _derived_family(n, k, out)
            return
        # Exclude order[pos]: every later set dominating it is then also
        # excluded, which the predecessor check enforces for free.
        yield from walk(pos + 1)
        if all(chosen[p] for p in preds[pos]):
            chosen[pos] = True
            out.append(order[pos])
            yield from walk(pos + 1)
            out.pop()
            chosen[pos] = False

    yield from walk(0)
