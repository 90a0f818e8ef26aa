"""Small brute-force oracles the benchmark checks library outputs against.

They work on plain bit masks (element e on bit e-1) and share no code with
the library, so a wrong library answer cannot also pass here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def elements(mask: int) -> list[int]:
    return [e + 1 for e in range(mask.bit_length()) if mask >> e & 1]


def mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def lower_shadow(members, depth: int = 1) -> set[int]:
    """All sets obtained by deleting ``depth`` elements from a member."""
    out = set()
    for m in members:
        els = elements(m)
        for drop in itertools.combinations(els, depth):
            out.add(m ^ mask_of(drop))
    return out


def upper_shadow_size(members, n: int) -> int:
    """Number of (k+1)-sets on [n] containing some member."""
    out = set()
    full = (1 << n) - 1
    for m in members:
        free = full & ~m
        while free:
            low = free & -free
            out.add(m | low)
            free ^= low
    return len(out)


def matching_number(members) -> int:
    """Largest pairwise-disjoint subfamily, by plain include/skip search."""
    members = list(members)
    best = 0

    def rec(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if size + (len(members) - i) <= best:
            return
        for j in range(i, len(members)):
            if not members[j] & used:
                rec(j + 1, used | members[j], size + 1)

    rec(0, 0, 0)
    return best


def hall_assignment(slices, blocks):
    """Distinct blocks b_i with b_i in slices[i] for every i, or None; exhaustive."""
    for perm in itertools.permutations(blocks, len(slices)):
        if all(perm[i] in slices[i] for i in range(len(slices))):
            return perm
    return None


def rainbow_exists(families) -> bool:
    """Some choice of one member per family is pairwise disjoint; exhaustive."""

    def rec(i: int, used: int) -> bool:
        if i == len(families):
            return True
        return any(not m & used and rec(i + 1, used | m) for m in families[i])

    return rec(0, 0)


def valid_rainbow(families, assignment) -> bool:
    """Each chosen member lies in its family and the choices are pairwise disjoint."""
    used = 0
    for fam, m in zip(families, assignment):
        if m is None or m not in fam or m & used:
            return False
        used |= m
    return len(assignment) == len(families)


def kk_lower_floor(k: int, m: int) -> int:
    """Kruskal-Katona: least size of the one-step lower shadow of m k-sets.

    Write m = C(a_k, k) + C(a_{k-1}, k-1) + ... + C(a_j, j) with
    a_k > a_{k-1} > ... > a_j >= j >= 1 (the k-cascade); the floor is
    C(a_k, k-1) + ... + C(a_j, j-1).
    """
    total = 0
    rest = m
    i = k
    while rest > 0 and i >= 1:
        a = i
        while math.comb(a + 1, i) <= rest:
            a += 1
        rest -= math.comb(a, i)
        total += math.comb(a, i - 1)
        i -= 1
    return total


def kk_upper_floor(n: int, k: int, m: int) -> int:
    """Least size of the one-step upper shadow of m k-sets on [n], by complements."""
    return kk_lower_floor(n - k, m)


def extremal_sizes(n: int, k: int, s: int) -> tuple[int, int]:
    """|A| = C(n,k) - C(n-s,k) and |B| = C((s+1)k - 1, k)."""
    return (math.comb(n, k) - math.comb(max(n - s, 0), k),
            math.comb((s + 1) * k - 1, k))


def _e_bracket(terms: int = 40) -> tuple[Fraction, Fraction]:
    # sum_{i<terms} 1/i! < e < that sum + 2/terms!
    lo = sum(Fraction(1, math.factorial(i)) for i in range(terms))
    return lo, lo + Fraction(2, math.factorial(terms))


def scaled_n(s: int, k: int) -> int:
    """ceil(3e(s+1)k), decided exactly from a rational bracket of e."""
    lo, hi = _e_bracket()
    c = 3 * (s + 1) * k
    a, b = math.ceil(lo * c), math.ceil(hi * c)
    if a != b:
        raise ValueError(f"e bracket too coarse for s={s}, k={k}")
    return a


def matching_count(n_prime: int, block: int, t: int) -> int:
    """Unordered t-matchings of block-sets inside an n'-set."""
    total = 1
    for i in range(t):
        total *= math.comb(n_prime - i * block, block)
    return total // math.factorial(t)
